"""Multi-iteration π-test schedules (claim C3).

A single π-iteration misses faults whose activation happens "behind" the
sweep (an aggressor written after its victim was last read) and faults that
the iteration's data background never excites (a SA0 in a cell whose
fault-free background value is 0).  The paper states that *three* π-test
iterations with a specific test-data background detect all single- and
multi-cell faults.

:func:`standard_schedule` constructs the 3-iteration plan this library
validates empirically (experiment E3): the triple ``(B, ~B, B)`` -- one
background, its complement, and the background again -- with transparent
verification and a final stride-2 read-back.  This guarantees, per bit of
every cell: both stored polarities, both write-transition directions, and
an observing read after every possible corruption window; measured
coverage is 100 % of the single-cell universe (SAF, TF, SOF), all
address-decoder faults, bridges, CFin and CFst.  The idempotent-coupling
(CFid) remainder provably needs more activation events than three
iterations provide; :func:`extended_schedule` adds a descending
complement pair and converges on that class too.

A useful structural property, inherited from the π-iteration: every sweep
read targets a cell written *earlier in the same iteration*, so the
schedule's outcome is independent of the memory's power-up state --
exactly what an embedded self-test needs.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

from repro.gf2m.field import GF2m
from repro.prt.pi_test import GF2, PiIteration, PiIterationResult
from repro.prt.trajectory import Trajectory, ascending, descending

__all__ = [
    "PiTestSchedule",
    "ScheduleResult",
    "standard_schedule",
    "extended_schedule",
]


@dataclass
class ScheduleResult:
    """Outcome of a full schedule run.

    ``passed`` is True only when *every* iteration matched its expected
    final state; a fault is *detected* when any iteration fails.
    """

    iteration_results: list[PiIterationResult] = dataclass_field(
        default_factory=list
    )
    operations: int = 0

    @property
    def passed(self) -> bool:
        """True when all iterations matched Fin*."""
        return all(r.passed for r in self.iteration_results)

    @property
    def detected(self) -> bool:
        """True when at least one iteration flagged a mismatch."""
        return not self.passed

    @property
    def failing_iterations(self) -> list[int]:
        """Indices of iterations whose signature mismatched."""
        return [i for i, r in enumerate(self.iteration_results) if not r.passed]

    def __repr__(self) -> str:
        status = "PASS" if self.passed else f"FAIL@{self.failing_iterations}"
        return (
            f"ScheduleResult({status}, {len(self.iteration_results)} iterations, "
            f"{self.operations} ops)"
        )


class PiTestSchedule:
    """An ordered list of π-iterations run back to back.

    >>> from repro.memory import SinglePortRAM
    >>> schedule = standard_schedule()
    >>> schedule.run(SinglePortRAM(12)).passed
    True
    """

    def __init__(self, iterations: list[PiIteration], name: str = "custom",
                 verify: bool = False, pause_between: int = 0):
        if not iterations:
            raise ValueError("a schedule needs at least one iteration")
        if pause_between < 0:
            raise ValueError("pause must be non-negative")
        self._iterations = list(iterations)
        self._name = name
        self._verify = verify
        self._pause_between = pause_between

    @property
    def iterations(self) -> tuple[PiIteration, ...]:
        """The configured iterations, in run order."""
        return tuple(self._iterations)

    @property
    def min_cells(self) -> int:
        """Smallest memory every iteration of the schedule runs on."""
        return max(iteration.min_cells for iteration in self._iterations)

    @property
    def name(self) -> str:
        """Schedule label for reports."""
        return self._name

    @property
    def verify(self) -> bool:
        """True when iterations 2+ transparently verify the previous
        iteration's background before overwriting it (see
        :meth:`PiIteration.run`)."""
        return self._verify

    @property
    def pause_between(self) -> int:
        """Idle cycles inserted between iterations (and before the final
        read-back).  A non-zero pause lets data-retention faults decay
        while a background rests, so the next verify pass catches them --
        the PRT counterpart of the March ``Del`` element."""
        return self._pause_between

    def __len__(self) -> int:
        return len(self._iterations)

    def operation_count(self, n: int) -> int:
        """Total memory operations on an n-cell RAM.

        Pure mode: three 3n-shaped iterations cost ``9n + O(1)`` -- versus
        e.g. March C-'s ``10n`` (the E9 comparison).  Verifying mode adds
        one read per write from the second iteration on plus the final
        read-back pass: ``~12n``.
        """
        total = sum(it.operation_count(n) for it in self._iterations)
        if self._verify:
            # One extra read per write for every iteration after the first,
            # plus the final full read-back pass.
            total += (len(self._iterations) - 1) * (n + self._iterations[0].k)
            total += n
        return total

    def run(self, ram, stop_on_failure: bool = False,
            compiled: bool = True) -> ScheduleResult:
        """Execute all iterations; optionally abort at the first mismatch.

        In verifying mode a final read-back pass checks the last
        iteration's complete background (without it, a corruption landing
        after a cell's last sweep read in the *final* iteration would
        escape -- there is no later iteration to verify it).

        This is a thin adapter over :mod:`repro.sim`: the schedule is
        lowered once (:func:`repro.sim.compilers.compile_schedule`) and
        replayed through the RAM's bulk ``apply_stream`` entry point;
        ``compiled=False`` forces the original interpreted path
        (:meth:`run_interpreted`), which stays byte-identical.  RAM
        front-ends without ``apply_stream`` fall back to it
        automatically.
        """
        if compiled and hasattr(ram, "apply_stream"):
            from repro.sim.compilers import cached_schedule_stream
            from repro.sim.replay import replay_schedule

            stream = cached_schedule_stream(self, ram.n, ram.m)
            return replay_schedule(stream, ram, stop_on_failure=stop_on_failure)
        return self.run_interpreted(ram, stop_on_failure=stop_on_failure)

    def run_interpreted(self, ram, stop_on_failure: bool = False) -> ScheduleResult:
        """The original per-operation interpreted schedule execution.

        Reference implementation for the equivalence tests and the
        campaign-engine benchmark baseline.
        """
        result = ScheduleResult()
        previous_background: list[int] | None = None
        for index, iteration in enumerate(self._iterations):
            if index and self._pause_between:
                ram.idle(self._pause_between)
            it_result = iteration.run(ram, previous_background=previous_background)
            result.iteration_results.append(it_result)
            result.operations += it_result.operations
            if stop_on_failure and not it_result.passed:
                return result
            if self._verify:
                previous_background = iteration.background_after(ram.n)
        if self._pause_between:
            ram.idle(self._pause_between)
        if self._verify and previous_background is not None:
            mismatches = 0
            # Stride-2 order (evens, then odds): each cell is sensed right
            # after its distance-2 neighbour.  The sweep itself compares at
            # distance 1 and the verify reads at distance 2 with inverted
            # polarity, so this pass closes the last stuck-open blind spot
            # (cells whose whole neighbourhood carries equal values).
            order = list(range(0, ram.n, 2)) + list(range(1, ram.n, 2))
            for addr in order:
                if ram.read(addr) != previous_background[addr]:
                    mismatches += 1
            result.operations += ram.n
            if mismatches:
                # Attribute the final-pass mismatches to the last iteration.
                result.iteration_results[-1].verify_mismatches += mismatches
        return result

    def __repr__(self) -> str:
        return f"PiTestSchedule({self._name!r}, {len(self._iterations)} iterations)"


def standard_schedule(field: GF2m | None = None,
                      generator: tuple[int, ...] | None = None,
                      seed: tuple[int, ...] | None = None,
                      n: int | None = None,
                      verify: bool = True,
                      pause_between: int = 0) -> PiTestSchedule:
    """The 3-iteration schedule behind claim C3 (see module docstring).

    Parameters
    ----------
    field:
        GF(2^m); default GF(2) for bit-oriented memories.
    generator:
        Generator polynomial ``(a_0, ..., a_k)``.  Defaults: the two-tap
        primitive ``1 + x^2 + x^3`` for GF(2) (3n-shaped sub-iterations
        with a period-7 m-sequence background -- the paper's own k=2
        polynomial ``1 + x + x^2`` generates a period-3 stream with no
        adjacent 00 pattern and provably cannot excite several coupling
        classes), and the paper's ``g = 1 + 2x + 2x^2`` for wider words.
    seed:
        Seed of the shared automaton (all three iterations run the same
        stream; iteration 2 stores its complement via data inversion).
    n:
        Memory size, used only to pre-build explicit trajectories; omit
        and every iteration defaults to ascending at run time.
    verify:
        Transparent verification from iteration 2 on (the mode that
        reaches full coverage; ``False`` gives the paper's pure
        signature-only scheme at 9n instead of ~11n).
    """
    field = field if field is not None else GF2
    if generator is None:
        generator = (1, 0, 1, 1) if field.m == 1 else (1, 2, 2)
    if seed is None:
        k = len(generator) - 1
        seed = (0,) * (k - 1) + (1,)
    seed = tuple(seed)
    trajectories: list[Trajectory | None] = (
        [ascending(n), ascending(n), ascending(n)] if n is not None
        else [None, None, None])
    # The "specific TDB" (claim C3) this library validates -- the triple
    # (B, ~B, B) over one trajectory:
    #   1. base iteration lays background B;
    #   2. the SAME automaton inverted lays exactly ~B: every bit of every
    #      cell is guaranteed to hold both polarities, and the B -> ~B
    #      rewrite flips every bit (one transition direction per bit);
    #   3. re-laying B flips every bit back (the other direction), and its
    #      leftover background is checked by the final read-back pass.
    # Together with transparent verification this detects the complete
    # single-cell universe (SAF, TF, SOF, DRF-with-pause), all AFs and
    # bridges; the idempotent-coupling remainder needs the 5-iteration
    # extended schedule (see module docstring and experiment E3).
    iterations = [
        PiIteration(field=field, generator=generator, seed=seed,
                    trajectory=trajectories[0]),
        PiIteration(field=field, generator=generator, seed=seed,
                    trajectory=trajectories[1], invert=True),
        PiIteration(field=field, generator=generator, seed=seed,
                    trajectory=trajectories[2]),
    ]
    return PiTestSchedule(iterations, name="standard-3", verify=verify,
                          pause_between=pause_between)


def extended_schedule(field: GF2m | None = None,
                      generator: tuple[int, ...] | None = None,
                      seed: tuple[int, ...] | None = None,
                      n: int | None = None,
                      verify: bool = True) -> PiTestSchedule:
    """The 5-iteration schedule ``[B, ~B, B, C(desc), ~C(desc)]`` that
    closes most of the coupling-fault gap the 3-iteration plan provably
    has.

    The 3-iteration triple gives every cell only three write transitions,
    but the full idempotent-coupling universe (CFid up/down x force-to-0/1)
    needs the aggressor to fire **both** directions with the victim
    observed in **both** states -- four well-placed events.  The extension
    keeps the complete ``(B, ~B, B)`` triple (so everything the standard
    schedule detects stays detected) and appends a normal/inverted pair on
    a *descending* trajectory with a different seed phase ``C``:

    * the descending pair reverses aggressor/victim sweep order,
    * the new phase changes which cells carry equal values, multiplying
      the (direction, victim-state) activation combinations,
    * transparent verification plus the final read-back observes every
      leftover corruption.

    Measured on the standard universe this reaches ~97 % (the residue is
    CFid pairs whose required activation pattern two LFSR phases still
    miss; appending further rotated pairs converges to 100 % -- see
    experiment E3).  Cost: ~``(5*3 + 4 + 1)n = 20n`` with verification --
    comparable to March B (17n), which targets the same CF coverage.
    """
    field = field if field is not None else GF2
    if generator is None:
        generator = (1, 0, 1, 1) if field.m == 1 else (1, 2, 2)
    if seed is None:
        k = len(generator) - 1
        seed = (0,) * (k - 1) + (1,)
    seed = tuple(seed)
    seed_c = tuple(reversed(seed))
    if seed_c == seed or all(s == 0 for s in seed_c):
        seed_c = (seed[0] ^ 1,) + seed[1:]
        if all(s == 0 for s in seed_c):
            seed_c = (1,) * len(seed)
    if n is not None:
        asc, desc = ascending(n), descending(n)
        trajectories: list[Trajectory | None] = [asc, asc, asc, desc, desc]
    else:
        trajectories = [None] * 5
    iterations = [
        PiIteration(field=field, generator=generator, seed=seed,
                    trajectory=trajectories[0]),
        PiIteration(field=field, generator=generator, seed=seed,
                    trajectory=trajectories[1], invert=True),
        PiIteration(field=field, generator=generator, seed=seed,
                    trajectory=trajectories[2]),
        PiIteration(field=field, generator=generator, seed=seed_c,
                    trajectory=trajectories[3]),
        PiIteration(field=field, generator=generator, seed=seed_c,
                    trajectory=trajectories[4], invert=True),
    ]
    return PiTestSchedule(iterations, name="extended-5", verify=verify)
