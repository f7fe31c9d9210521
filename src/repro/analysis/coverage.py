"""Single-fault-injection coverage campaigns.

The standard methodology (as in van de Goor's coverage tables and the
paper's §3): for every fault in a universe, instantiate a fresh memory,
install the fault, run the test under evaluation, and record whether it
flagged a failure.  The per-class detection ratios are the "fault
coverage" the paper's quality claims are about.

A *runner* is any callable ``runner(ram) -> bool`` returning True when the
test detected a fault.  Adapters wrap March tests
(:func:`march_runner`), π-test schedules (:func:`schedule_runner`) and
single π-iterations (:func:`iteration_runner`).  The adapters are
*compilable*: they also expose ``compile(n, m) -> OpStream``, which lets
:func:`run_coverage` lower the test once and hand the whole universe to
the lane-parallel campaign engine
(:func:`repro.sim.batched.run_campaign_batched`) instead of
re-interpreting the test per fault.  Opaque custom callables
still work -- they just take the interpreted per-fault loop.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass, field

from repro.faults.base import Fault
from repro.faults.injector import FaultInjector
from repro.faults.universe import tally
from repro.march.engine import run_march_interpreted
from repro.march.model import MarchTest
from repro.memory.multiport import MultiPortRAM, PortConflictError
from repro.memory.ram import SinglePortRAM
from repro.sim.batched import run_campaign_batched
from repro.sim.campaign import run_campaign
from repro.sim.pool import WorkerPool
from repro.sim.compilers import (
    cached_dual_port_stream,
    cached_march_stream,
    cached_multi_schedule_stream,
    cached_pi_iteration_stream,
    cached_quad_port_stream,
    cached_schedule_stream,
)

__all__ = [
    "CoverageReport",
    "CompilableRunner",
    "run_coverage",
    "march_runner",
    "schedule_runner",
    "iteration_runner",
    "dual_port_runner",
    "quad_port_runner",
    "multi_schedule_runner",
    "ENGINES",
]

#: Valid campaign engines: the one list read by ``run_coverage``'s
#: dispatch, the request resolver, the CLI ``--engine`` choices and the
#: server's ``/schemes`` listing.
ENGINES = ("auto", "compiled", "batched", "interpreted")

Runner = Callable[[SinglePortRAM], bool]


@dataclass
class CoverageReport:
    """Outcome of a coverage campaign.

    >>> report = CoverageReport(test_name="t")
    >>> report.record("SAF", "SA0(cell=0)", detected=True)
    >>> report.record("SAF", "SA1(cell=0)", detected=False)
    >>> report.coverage_of("SAF")
    0.5
    """

    test_name: str
    detected: dict[str, int] = field(default_factory=dict)
    total: dict[str, int] = field(default_factory=dict)
    missed_faults: list[str] = field(default_factory=list)

    def record(self, fault_class: str, fault_name: str, detected: bool) -> None:
        """Tally one injection outcome."""
        self.total[fault_class] = self.total.get(fault_class, 0) + 1
        if detected:
            self.detected[fault_class] = self.detected.get(fault_class, 0) + 1
        else:
            self.missed_faults.append(fault_name)

    def coverage_of(self, fault_class: str) -> float:
        """Detection ratio for one class (1.0 when the class is absent)."""
        total = self.total.get(fault_class, 0)
        if total == 0:
            return 1.0
        return self.detected.get(fault_class, 0) / total

    @property
    def overall(self) -> float:
        """Detection ratio across all injected faults."""
        total = sum(self.total.values())
        if total == 0:
            return 1.0
        return sum(self.detected.values()) / total

    @property
    def classes(self) -> list[str]:
        """Fault classes present, sorted."""
        return sorted(self.total)

    def rows(self) -> list[tuple[str, int, int, float]]:
        """``(class, detected, total, ratio)`` rows for tabular output."""
        return [
            (c, self.detected.get(c, 0), self.total[c], self.coverage_of(c))
            for c in self.classes
        ]

    def __repr__(self) -> str:
        return (
            f"CoverageReport({self.test_name!r}, "
            f"overall={self.overall:.1%}, classes={len(self.total)})"
        )


class CompilableRunner:
    """A runner that can also lower its test to a :class:`OpStream`.

    Calling it runs the *interpreted* engine on one RAM (the legacy
    contract, and the baseline the compiled path is measured against);
    :meth:`compile` produces the stream :func:`run_coverage` hands to the
    batched campaign engine.

    >>> from repro.march.library import MATS
    >>> from repro.memory import SinglePortRAM
    >>> runner = march_runner(MATS)
    >>> runner(SinglePortRAM(8))            # healthy memory: no detection
    False
    >>> runner.compile(8, 1).operation_count
    32
    """

    def __init__(self, run: Runner, compiler: Callable[[int, int], object],
                 ports: int = 1, min_cells: int = 1):
        self._run = run
        self._compiler = compiler
        #: Ports the wrapped test needs per memory cycle (1 =
        #: single-port).  ``run_coverage`` uses it to build the right
        #: front-end for the interpreted per-fault loop; the
        #: compiled engines read the same number off the stream itself.
        self.ports = ports
        #: Smallest memory the wrapped test runs on (a π-test needs more
        #: cells than its window); request resolution rejects a smaller
        #: ``n`` before compiling.
        self.min_cells = min_cells

    def __call__(self, ram) -> bool:
        return self._run(ram)

    def compile(self, n: int, m: int = 1):
        """Lower the wrapped test for an ``n x m``-bit memory."""
        return self._compiler(n, m)


def run_coverage(runner: Runner, universe: Iterable[Fault] | None = None,
                 n: int | None = None,
                 m: int = 1, test_name: str = "test",
                 workers: int = 0,
                 engine: str = "auto",
                 pool: WorkerPool | None = None,
                 progress: Callable[[int, int], None] | None = None,
                 cache=None) -> CoverageReport:
    """Inject each universe fault into a fresh RAM and run the test.

    Two call forms share this entry point.  The canonical one takes a
    single :class:`~repro.analysis.request.CampaignRequest`::

        run_coverage(CampaignRequest(test="march-c", n=64))

    which routes through the shared resolver
    (:func:`~repro.analysis.request.resolve_campaign`) and the
    content-addressed result cache (``cache=None`` uses the process
    default, ``False`` disables it, or pass an explicit
    :class:`~repro.server.cache.ResultCache`); ``universe``/``n`` and
    the per-option kwargs must then be left at their defaults -- the
    request already carries them.  The legacy kwarg form below keeps
    working byte-identically.

    Every fault is injected into a fresh ``SinglePortRAM(n, m)``, or a
    perfect ``MultiPortRAM(n, m, ports)`` for runners carrying a
    ``ports`` attribute > 1 (the :func:`dual_port_runner` /
    :func:`quad_port_runner` adapters), on every engine.

    When the runner is compilable (the :func:`march_runner` /
    :func:`schedule_runner` / :func:`iteration_runner` adapters are), the
    test is lowered once and the whole universe is replayed from the
    stream -- same per-fault verdicts, far less work per fault.
    ``engine`` selects the path (one of :data:`ENGINES`): ``"auto"``
    (the default: ``"batched"`` when the runner is compilable,
    ``"interpreted"`` otherwise), ``"batched"`` (require a compilable
    runner and resolve vectorizable fault classes lane-parallel via
    :func:`repro.sim.batched.run_campaign_batched`, on bit- and
    word-oriented geometries alike; custom faults take its scalar
    path), ``"compiled"`` (require a
    compilable runner and replay every fault on its own via
    :func:`repro.sim.campaign.run_campaign`), or ``"interpreted"``
    (force the legacy per-fault loop).  Every engine returns the same
    report.  ``workers > 0`` fans the campaign out over that many
    processes on the persistent shared pool of :mod:`repro.sim.pool` -- or on ``pool``, an explicit
    :class:`~repro.sim.pool.WorkerPool` to reuse across many campaigns.
    On the batched engine every lane pass (int columns on a
    :class:`~repro.memory.packed.PackedMemoryArray`) runs in-process and
    the pool takes only the scalar remainder, so a fully vectorizable
    universe never starts the pool.

    >>> from repro.faults import single_cell_universe
    >>> from repro.march.library import MARCH_C_MINUS
    >>> universe = single_cell_universe(8, classes=("SAF",))
    >>> report = run_coverage(march_runner(MARCH_C_MINUS), universe, 8)
    >>> report.coverage_of("SAF")
    1.0
    """
    from repro.analysis.request import CampaignRequest, run_request

    if isinstance(runner, CampaignRequest):
        if universe is not None or n is not None:
            raise ValueError(
                "run_coverage(request) takes no universe/n -- the "
                "CampaignRequest already carries them"
            )
        return run_request(runner, cache=cache, pool=pool,
                           progress=progress)
    if universe is None or n is None:
        raise TypeError(
            "run_coverage needs (runner, universe, n) -- or a single "
            "CampaignRequest"
        )
    if engine not in ENGINES:
        raise ValueError(f"engine must be one of {ENGINES}, got {engine!r}")
    compile_fn = getattr(runner, "compile", None)
    if engine in ("compiled", "batched") and compile_fn is None:
        raise ValueError(
            f"engine={engine!r} needs a compilable runner (one exposing "
            "compile(n, m)); use march_runner/schedule_runner/"
            "iteration_runner or engine='auto'"
        )
    report = CoverageReport(test_name=test_name)
    if engine != "interpreted" and compile_fn is not None:
        stream = compile_fn(n, m)
        engine_fn = run_campaign if engine == "compiled" \
            else run_campaign_batched
        campaign = engine_fn(stream, universe, workers=workers, pool=pool,
                             progress=progress)
        # report.record in bulk: a spec'd universe is tallied per
        # generator part of its descriptor table (class counts per record
        # slot, misses named per site), so a cold campaign builds no
        # Fault and runs no per-fault Python to report.
        report.total, report.detected, report.missed_faults = tally(
            campaign.faults, campaign.verdicts)
        return report
    ports = getattr(runner, "ports", 1)
    faults = list(universe)
    for done, fault in enumerate(faults, start=1):
        ram = MultiPortRAM(n, m=m, ports=ports) if ports > 1 \
            else SinglePortRAM(n, m=m)
        injector = FaultInjector([fault])
        injector.install(ram)
        detected = runner(ram)
        injector.remove(ram)
        report.record(fault.fault_class, fault.name, detected)
        if progress is not None:
            progress(done, len(faults))
    return report


def march_runner(test: MarchTest,
                 backgrounds: list[int] | None = None) -> CompilableRunner:
    """Runner adapter for a March test (failure = detection)."""

    def runner(ram) -> bool:
        return not run_march_interpreted(test, ram,
                                         backgrounds=backgrounds).passed

    return CompilableRunner(
        runner,
        lambda n, m: cached_march_stream(test, n, m, backgrounds=backgrounds),
    )


def schedule_runner(schedule) -> CompilableRunner:
    """Runner adapter for a :class:`~repro.prt.schedule.PiTestSchedule`."""

    def runner(ram) -> bool:
        return schedule.run_interpreted(ram).detected

    return CompilableRunner(
        runner, lambda n, m: cached_schedule_stream(schedule, n, m),
        min_cells=schedule.min_cells,
    )


def _port_scheme_runner(iteration, cached_stream, ports) -> CompilableRunner:
    """Shared adapter for the multi-port π-schemes.

    One rule lives here for both schemes: a
    :class:`~repro.memory.multiport.PortConflictError` raised mid-run --
    an injected decoder fault aliasing two addresses onto one cell under
    a simultaneous double-write -- counts as a *detection*, which is
    exactly how the compiled campaign engine treats a replay-time
    conflict.
    """

    def runner(ram) -> bool:
        try:
            return not iteration.run(ram).passed
        except PortConflictError:
            return True

    return CompilableRunner(
        runner, lambda n, m: cached_stream(iteration, n, m), ports=ports,
        min_cells=iteration.min_cells,
    )


def dual_port_runner(iteration) -> CompilableRunner:
    """Runner adapter for a :class:`~repro.prt.dual_port
    .DualPortPiIteration` (the paper's Figure 2 scheme).

    Needs a >= 2-port memory: ``run_coverage`` builds a perfect
    ``MultiPortRAM(n, m, ports=2)`` for every fault.  Compilable, so
    the campaign engines replay the scheme through the cycle-grouped
    fast path in the paper's 2n cycles; injected-conflict handling as in
    :func:`_port_scheme_runner`.
    """
    return _port_scheme_runner(iteration, cached_dual_port_stream, 2)


def multi_schedule_runner(schedule) -> CompilableRunner:
    """Runner adapter for a :class:`~repro.prt.multi_schedule
    .MultiPortSchedule` (verifying dual-/quad-port iteration chains).

    Same contract as :func:`schedule_runner` plus the multi-port rule of
    :func:`_port_scheme_runner`: a :class:`~repro.memory.multiport
    .PortConflictError` raised mid-run counts as a detection.  The
    front-end is a perfect ``MultiPortRAM(n, m, schedule.ports)``; the
    compiled engines replay the whole schedule as one cycle-grouped
    stream.
    """

    def runner(ram) -> bool:
        try:
            return schedule.run_interpreted(ram).detected
        except PortConflictError:
            return True

    return CompilableRunner(
        runner, lambda n, m: cached_multi_schedule_stream(schedule, n, m),
        ports=schedule.ports, min_cells=schedule.min_cells,
    )


def quad_port_runner(iteration) -> CompilableRunner:
    """Runner adapter for a :class:`~repro.prt.dual_port
    .QuadPortPiIteration` (the "QuadPort DSE family": two concurrent
    automata, n-cycle pass).  Same contract as
    :func:`dual_port_runner`, with a 4-port front-end."""
    return _port_scheme_runner(iteration, cached_quad_port_stream, 4)


def iteration_runner(iteration) -> Runner:
    """Runner adapter for a single π-iteration (or any object whose
    ``run(ram)`` result has a ``passed`` attribute).  For a true
    :class:`~repro.prt.pi_test.PiIteration` the adapter is compilable;
    other duck-typed objects get a plain interpreted runner."""

    def runner(ram) -> bool:
        return not iteration.run(ram).passed

    from repro.prt.pi_test import PiIteration

    if not isinstance(iteration, PiIteration):
        return runner
    return CompilableRunner(
        runner, lambda n, m: cached_pi_iteration_stream(iteration, n, m),
        min_cells=iteration.min_cells,
    )
