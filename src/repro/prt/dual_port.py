"""Multi-port π-test schemes (paper §4, Figure 2).

**Dual-port** (Figure 2): the two reads of a sub-iteration issue
*simultaneously* on the two ports; the write follows in the next cycle.
A k=2 π-iteration then takes ``2n`` cycles instead of ``3n`` -- the paper's
claim C4 for 2P RAM.  (The hardware cost is the "conversion of the existing
address registers into counters and a specific XOR-logic" priced by
:mod:`repro.prt.bist`.)

**Quad-port** ("QuadPort DSE family"): a *multi-LFSR* scheme -- two
independent virtual automata sweep the two halves of the array
concurrently, each pair of ports serving one automaton.  Per cycle the RAM
performs either 4 reads or 2 writes, so a full pass takes ``2 * (n/2) = n``
cycles: another 2x over dual-port.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.gf2m.field import GF2m
from repro.memory.multiport import MultiPortRAM, PortOp
from repro.prt.pi_test import GF2, PiIterationResult
from repro.lfsr.word_lfsr import WordLFSR
from repro.prt.trajectory import Trajectory, ascending

__all__ = ["DualPortPiIteration", "QuadPortPiIteration", "QuadPortResult"]


class DualPortPiIteration:
    """The Figure 2 dual-port π-iteration (k = 2 only: the paper
    recommends this scheme "when polynomial g(x) has 2 terms" of feedback).

    Cycle pattern per sub-iteration ``j``::

        cycle 2j:     port0 reads traj[j],   port1 reads traj[j+1]
        cycle 2j+1:   port0 writes traj[j+2]

    >>> from repro.memory import DualPortRAM
    >>> from repro.gf2 import poly_from_string
    >>> from repro.gf2m import GF2m
    >>> F = GF2m(poly_from_string("1+z+z^4"))
    >>> it = DualPortPiIteration(field=F, generator=(1, 2, 2), seed=(0, 1))
    >>> ram = DualPortRAM(255, m=4)
    >>> result = it.run(ram)
    >>> result.passed
    True
    >>> ram.stats.cycles     # 2n sweep + 1 init + 1 signature cycle
    512
    """

    #: Ports one memory cycle of this scheme occupies.
    ports = 2

    def __init__(self, field: GF2m | None = None,
                 generator: tuple[int, ...] = (1, 1, 1),
                 seed: tuple[int, ...] = (0, 1),
                 trajectory: Trajectory | None = None):
        self._field = field if field is not None else GF2
        generator = tuple(generator)
        seed = tuple(seed)
        if len(generator) != 3:
            raise ValueError(
                "the Figure 2 dual-port scheme needs a degree-2 generator "
                f"(k = 2); got degree {len(generator) - 1}"
            )
        self._reference = WordLFSR(self._field, generator, seed)
        if all(s == 0 for s in seed):
            raise ValueError("the all-zero seed exercises nothing")
        self._generator = generator
        self._seed = seed
        self._trajectory = trajectory

    @property
    def field(self) -> GF2m:
        """The coefficient field."""
        return self._field

    @property
    def generator(self) -> tuple[int, ...]:
        """Generator polynomial coefficients."""
        return self._generator

    @property
    def seed(self) -> tuple[int, ...]:
        """The initial window."""
        return self._seed

    @property
    def min_cells(self) -> int:
        """Smallest memory the scheme runs on: more cells than the two
        seed cells."""
        return 3

    @property
    def recurrence_multipliers(self) -> tuple[int, ...]:
        """Per-window-slot multipliers ``a_0^{-1} a_{k-j}`` of the
        recurrence (a zero entry means the port's read contributes
        nothing -- the read still issues, the cycle pattern is fixed).
        The :mod:`repro.sim` compiler bakes these into ``"ra"`` records."""
        return self._reference.recurrence_multipliers

    def expected_stream(self, n: int) -> list[int]:
        """The fault-free written stream: the value of the j-th sweep
        write (``s_{k+j}``), for result/debug cross-checks."""
        reference = self._reference.copy()
        reference.reset()
        reference.run(2)
        return list(reference.sequence(n))

    def __repr__(self) -> str:
        return (
            f"DualPortPiIteration(GF(2^{self._field.m}), "
            f"g={self._generator}, seed={self._seed})"
        )

    def trajectory_for(self, n: int) -> Trajectory:
        """The trajectory used on an n-cell memory (default ascending)."""
        if self._trajectory is not None:
            if self._trajectory.n != n:
                raise ValueError(
                    f"trajectory covers {self._trajectory.n} addresses, "
                    f"memory has {n}"
                )
            return self._trajectory
        return ascending(n)

    def cycle_count(self, n: int) -> int:
        """Cycles per iteration: ``2n + 2`` (init + 2-per-sub-iteration +
        signature) -- the paper's 2n (claim C4 for 2P RAM).  Transparent
        verification (``previous_background``) adds exactly one cycle:
        the sweep's verify reads ride the otherwise-idle port of each
        write cycle, only the two seed cells need a leading read cycle."""
        return 2 * n + 2

    def operation_count(self, n: int) -> int:
        """Exact operations per iteration: ``3n + 4`` -- two seed
        writes, 2 reads + 1 write per sub-iteration (a null tap still
        reads, the cycle pattern is fixed in hardware) and the two
        signature reads.  Verification adds ``n + 2`` reads."""
        return 3 * n + 4

    def background_after(self, n: int) -> list[int]:
        """Fault-free cell contents (indexed by *cell*) after one pass.

        Cell ``traj[p]`` holds stream value ``s_p`` for ``p = 2 .. n-1``;
        the first two trajectory cells were rewritten by the cyclic wrap
        and hold ``s_n`` / ``s_{n+1}``.  A follow-up *verifying*
        iteration checks exactly these values before overwriting (see
        :meth:`run`)."""
        traj = self.trajectory_for(n)
        reference = self._reference.copy()
        reference.reset()
        stream = list(reference.sequence(n + 2))
        background = [0] * n
        for p in range(2, n):
            background[traj[p]] = stream[p]
        for i in range(2):
            background[traj[n + i]] = stream[n + i]
        return background

    def expected_final(self, n: int) -> tuple[int, ...]:
        """``Fin*`` after the n-step pass."""
        reference = self._reference.copy()
        reference.reset()
        reference.run(n)
        return reference.state

    def run(self, ram: MultiPortRAM,
            previous_background: list[int] | None = None) -> PiIterationResult:
        """Execute on a RAM with at least two ports.

        With ``previous_background`` (a full per-cell snapshot, normally
        the preceding iteration's :meth:`background_after`) the pass
        verifies transparently: one leading double-read cycle checks the
        two seed cells, and every write cycle's idle second port reads
        the cell being overwritten -- the read senses the pre-write
        value, so verification costs **zero extra cycles** during the
        sweep.  Mismatches land in the result's ``verify_mismatches``.
        """
        if getattr(ram, "ports", 1) < 2:
            raise ValueError("the dual-port scheme needs >= 2 ports")
        if ram.m != self._field.m:
            raise ValueError(
                f"RAM cell width m={ram.m} does not match field "
                f"GF(2^{self._field.m})"
            )
        n = ram.n
        if n < self.min_cells:
            raise ValueError(f"memory must have more than 2 cells, got {n}")
        if previous_background is not None and len(previous_background) != n:
            raise ValueError(
                f"previous background must list all {n} cells, "
                f"got {len(previous_background)}"
            )
        traj = self.trajectory_for(n)
        field = self._field
        mult = self._reference.recurrence_multipliers
        operations = 0
        verify_mismatches = 0
        if previous_background is not None:
            # Both seed cells are written in the init cycle with both
            # ports busy, so their old contents need one dedicated
            # double-read cycle up front.
            checks = ram.cycle([
                PortOp(0, "r", traj[0]),
                PortOp(1, "r", traj[1]),
            ])
            operations += 2
            for i in range(2):
                if checks[i] != previous_background[traj[i]]:
                    verify_mismatches += 1
        # Init: both seed words in one cycle (two ports, two cells).
        ram.cycle([
            PortOp(0, "w", traj[0], self._seed[0]),
            PortOp(1, "w", traj[1], self._seed[1]),
        ])
        operations += 2
        # Sweep: each sub-iteration is a double-read cycle then a write cycle.
        for j in range(n):
            reads = ram.cycle([
                PortOp(0, "r", traj[j]),
                PortOp(1, "r", traj[j + 1]),
            ])
            operations += 2
            acc = 0
            for i, r in enumerate((reads[0], reads[1])):
                if mult[i] and r:
                    acc = field.add(acc, field.mul(mult[i], r))
            if previous_background is None:
                ram.cycle([PortOp(0, "w", traj[j + 2], acc)])
                operations += 1
            else:
                # Port 1 idles during the write cycle; spend it on a
                # transparent verify read of the cell being overwritten
                # (reads sense the pre-write value).
                target = traj[j + 2]
                # Wrap writes overwrite this iteration's own seeds.
                expected = (previous_background[target] if j < n - 2
                            else self._seed[j + 2 - n])
                checks = ram.cycle([
                    PortOp(0, "w", target, acc),
                    PortOp(1, "r", target),
                ])
                operations += 2
                if checks[1] != expected:
                    verify_mismatches += 1
        # Signature: both final-window reads in one cycle.
        final = ram.cycle([
            PortOp(0, "r", traj[n]),
            PortOp(1, "r", traj[n + 1]),
        ])
        operations += 2
        return PiIterationResult(
            init_state=self._seed,
            final_state=(final[0], final[1]),
            expected_final=self.expected_final(n),
            operations=operations,
            verify_mismatches=verify_mismatches,
        )


@dataclass
class QuadPortResult:
    """Outcome of the quad-port multi-LFSR iteration: one
    :class:`PiIterationResult` per concurrent automaton.

    ``verify_mismatches`` counts failed *schedule-level* checks charged
    to the iteration as a whole (a multi-port schedule's final read-back
    pass); per-automaton verify reads land on the halves instead."""

    halves: tuple[PiIterationResult, PiIterationResult]
    verify_mismatches: int = 0

    @property
    def passed(self) -> bool:
        """True when both automata matched their expected final states
        and every verified background read (if any) matched."""
        return all(r.passed for r in self.halves) and self.verify_mismatches == 0

    def __repr__(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"QuadPortResult({status})"


class QuadPortPiIteration:
    """Multi-LFSR scheme on a 4-port RAM: two automata sweep the two array
    halves concurrently.

    Cycle pattern per sub-iteration ``j`` (j over n/2)::

        cycle 2j:   ports 0,1 read automaton A's window,
                    ports 2,3 read automaton B's window
        cycle 2j+1: port 0 writes A's new word, port 2 writes B's

    Total: ``n + 2`` cycles for the full array -- half the dual-port time.

    >>> from repro.memory import QuadPortRAM
    >>> it = QuadPortPiIteration(seed=(0, 1))
    >>> ram = QuadPortRAM(12)
    >>> it.run(ram).passed
    True
    >>> ram.stats.cycles
    14
    """

    #: Ports one memory cycle of this scheme occupies.
    ports = 4

    def __init__(self, field: GF2m | None = None,
                 generator: tuple[int, ...] = (1, 1, 1),
                 seed: tuple[int, ...] = (0, 1)):
        self._field = field if field is not None else GF2
        generator = tuple(generator)
        seed = tuple(seed)
        if len(generator) != 3:
            raise ValueError(
                "the quad-port scheme is defined for k = 2 generators"
            )
        self._reference = WordLFSR(self._field, generator, seed)
        if all(s == 0 for s in seed):
            raise ValueError("the all-zero seed exercises nothing")
        self._generator = generator
        self._seed = seed

    @property
    def field(self) -> GF2m:
        """The coefficient field."""
        return self._field

    @property
    def generator(self) -> tuple[int, ...]:
        """Generator polynomial coefficients."""
        return self._generator

    @property
    def seed(self) -> tuple[int, ...]:
        """The initial window (shared by both automata)."""
        return self._seed

    @property
    def min_cells(self) -> int:
        """Smallest memory the scheme runs on (it also needs an even
        ``n``): two half-array automata of at least three cells."""
        return 6

    @property
    def recurrence_multipliers(self) -> tuple[int, ...]:
        """Per-window-slot recurrence multipliers (see
        :attr:`DualPortPiIteration.recurrence_multipliers`)."""
        return self._reference.recurrence_multipliers

    def expected_stream(self, n: int) -> list[int]:
        """The fault-free written stream of *one* automaton over its
        n/2-cell half (both automata run the same recurrence)."""
        reference = self._reference.copy()
        reference.reset()
        reference.run(2)
        return list(reference.sequence(n // 2))

    def expected_final(self, n: int) -> tuple[int, ...]:
        """``Fin*`` of each automaton after its n/2-step half-array pass."""
        reference = self._reference.copy()
        reference.reset()
        reference.run(n // 2)
        return reference.state

    def __repr__(self) -> str:
        return (
            f"QuadPortPiIteration(GF(2^{self._field.m}), "
            f"g={self._generator}, seed={self._seed})"
        )

    def cycle_count(self, n: int) -> int:
        """Cycles per iteration: ``n + 2`` for an even n.  Transparent
        verification adds one leading read cycle (see
        :meth:`DualPortPiIteration.cycle_count`)."""
        return n + 2

    def operation_count(self, n: int) -> int:
        """Exact operations per iteration: ``3n + 8`` -- four seed
        writes, 4 reads + 2 writes per sub-iteration (j over n/2) and
        the four signature reads.  Verification adds ``n + 4`` reads."""
        return 3 * n + 8

    def background_after(self, n: int) -> list[int]:
        """Fault-free cell contents after one pass: both halves carry
        the same stream, each relative to its own base (see
        :meth:`DualPortPiIteration.background_after`)."""
        half = n // 2
        reference = self._reference.copy()
        reference.reset()
        stream = list(reference.sequence(half + 2))
        background = [0] * n
        for base in (0, half):
            for p in range(2, half):
                background[base + p] = stream[p]
            for i in range(2):
                background[base + ((half + i) % half)] = stream[half + i]
        return background

    def run(self, ram: MultiPortRAM,
            previous_background: list[int] | None = None) -> QuadPortResult:
        """Execute on a 4-port RAM with an even number of cells.

        ``previous_background`` enables transparent verification exactly
        as in :meth:`DualPortPiIteration.run`: a leading 4-read cycle
        checks the seed cells of both automata, and ports 1/3 verify the
        cells ports 0/2 overwrite during each write cycle.  Mismatches
        are charged to the owning automaton's half result.
        """
        if getattr(ram, "ports", 1) < 4:
            raise ValueError("the quad-port scheme needs >= 4 ports")
        if ram.m != self._field.m:
            raise ValueError(
                f"RAM cell width m={ram.m} does not match field "
                f"GF(2^{self._field.m})"
            )
        n = ram.n
        if n % 2 != 0 or n < self.min_cells:
            raise ValueError(
                f"the two-automata scheme needs an even n >= 6, got {n}"
            )
        if previous_background is not None and len(previous_background) != n:
            raise ValueError(
                f"previous background must list all {n} cells, "
                f"got {len(previous_background)}"
            )
        half = n // 2
        # Automaton A sweeps cells [0, half), B sweeps [half, n).
        base = {0: 0, 1: half}
        field = self._field
        mult = self._reference.recurrence_multipliers
        seed = self._seed
        verify_mismatches = [0, 0]

        def cell(automaton: int, j: int) -> int:
            return base[automaton] + (j % half)

        if previous_background is not None:
            # All four ports write in the init cycle; the seed cells'
            # old contents need one dedicated 4-read cycle up front.
            checks = ram.cycle([
                PortOp(0, "r", cell(0, 0)),
                PortOp(1, "r", cell(0, 1)),
                PortOp(2, "r", cell(1, 0)),
                PortOp(3, "r", cell(1, 1)),
            ])
            for automaton in (0, 1):
                for i in range(2):
                    addr = cell(automaton, i)
                    if checks[2 * automaton + i] != previous_background[addr]:
                        verify_mismatches[automaton] += 1
        ram.cycle([
            PortOp(0, "w", cell(0, 0), seed[0]),
            PortOp(1, "w", cell(0, 1), seed[1]),
            PortOp(2, "w", cell(1, 0), seed[0]),
            PortOp(3, "w", cell(1, 1), seed[1]),
        ])
        for j in range(half):
            reads = ram.cycle([
                PortOp(0, "r", cell(0, j)),
                PortOp(1, "r", cell(0, j + 1)),
                PortOp(2, "r", cell(1, j)),
                PortOp(3, "r", cell(1, j + 1)),
            ])
            values = []
            for automaton in (0, 1):
                acc = 0
                pair = (reads[2 * automaton], reads[2 * automaton + 1])
                for i, r in enumerate(pair):
                    if mult[i] and r:
                        acc = field.add(acc, field.mul(mult[i], r))
                values.append(acc)
            if previous_background is None:
                ram.cycle([
                    PortOp(0, "w", cell(0, j + 2), values[0]),
                    PortOp(2, "w", cell(1, j + 2), values[1]),
                ])
            else:
                # Ports 1/3 idle during the write cycle; they verify the
                # cells ports 0/2 overwrite (reads sense pre-write).
                targets = (cell(0, j + 2), cell(1, j + 2))
                checks = ram.cycle([
                    PortOp(0, "w", targets[0], values[0]),
                    PortOp(1, "r", targets[0]),
                    PortOp(2, "w", targets[1], values[1]),
                    PortOp(3, "r", targets[1]),
                ])
                for automaton in (0, 1):
                    # Wrap writes overwrite this iteration's seeds.
                    expected = (previous_background[targets[automaton]]
                                if j < half - 2 else seed[j + 2 - half])
                    if checks[2 * automaton + 1] != expected:
                        verify_mismatches[automaton] += 1
        final = ram.cycle([
            PortOp(0, "r", cell(0, half)),
            PortOp(1, "r", cell(0, half + 1)),
            PortOp(2, "r", cell(1, half)),
            PortOp(3, "r", cell(1, half + 1)),
        ])
        expected = self.expected_final(n)
        halves = tuple(
            PiIterationResult(
                init_state=seed,
                final_state=(final[2 * automaton], final[2 * automaton + 1]),
                expected_final=expected,
                operations=0,  # accounted on the shared RAM stats
                verify_mismatches=verify_mismatches[automaton],
            )
            for automaton in (0, 1)
        )
        return QuadPortResult(halves=halves)  # type: ignore[arg-type]
