"""The π-test iteration: PRT on a single-port RAM (paper §2, Figure 1).

One π-test iteration over an n-cell memory:

1. **Init** -- write the seed words ``d_0 .. d_{k-1}`` into the first k
   trajectory cells (k writes).
2. **Sweep** -- for ``j = 0 .. n-1``: read cells ``traj[j] .. traj[j+k-1]``,
   compute the virtual-LFSR recurrence value, write it into
   ``traj[j+k]`` (indices cyclic).  Each sub-iteration re-reads cells the
   previous one wrote/read -- that is deliberate: the reads *are* the test
   stimulus, and the recurrence propagates any corruption forward.
3. **Signature** -- read the final k-cell window ``traj[n] .. traj[n+k-1]``
   (= the first k cells again, thanks to the cyclic wrap) and compare with
   the expected state ``Fin*`` of the reference LFSR after n steps.

For ``k = 2`` the sweep costs ``2 reads + 1 write`` per sub-iteration:
``3n + 2k`` operations total, the paper's O(3n) (claim C4).  If the LFSR
period divides n, ``Fin* == Init`` -- the pseudo-ring closes and the
comparator needs no stored golden value at all.

The same engine covers BOM and WOM: a bit-oriented memory is the m = 1
case with the field GF(2) (modulus ``z + 1``) and generator coefficients
in {0, 1}; the paper's BOM recurrence ``w = r XOR r`` is the generator
``g(x) = 1 + x + x^2``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.gf2m.field import GF2m
from repro.gf2m.poly_ext import wpoly, wpoly_to_string, wpoly_x_pow_order
from repro.lfsr.word_lfsr import WordLFSR
from repro.prt.trajectory import Trajectory, ascending

__all__ = ["PiIteration", "PiIterationResult"]

GF2 = GF2m(0b11)
"""The degenerate field GF(2), used for bit-oriented memories."""


@dataclass
class PiIterationResult:
    """Outcome of one π-test iteration.

    Attributes
    ----------
    init_state:
        The seed window ``(d_0, ..., d_{k-1})``.
    final_state:
        The k words read back from the final window.
    expected_final:
        ``Fin*``: the reference LFSR state after n steps.
    operations:
        Memory operations issued (reads + writes).
    written_stream:
        The values written during the sweep, in trajectory order
        (only populated when the iteration is run with ``record=True``).
    """

    init_state: tuple[int, ...]
    final_state: tuple[int, ...]
    expected_final: tuple[int, ...]
    operations: int
    written_stream: list[int] | None = None
    verify_mismatches: int = 0

    @property
    def passed(self) -> bool:
        """True when the observed final state matches ``Fin*`` and every
        verified background read (if any) matched."""
        return self.final_state == self.expected_final and self.verify_mismatches == 0

    @property
    def ring_closed(self) -> bool:
        """True when the automaton returned exactly to its initial state."""
        return self.final_state == self.init_state

    def __repr__(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"PiIterationResult({status}, Init={self.init_state}, "
            f"Fin={self.final_state}, Fin*={self.expected_final})"
        )


class PiIteration:
    """One configured π-test iteration (single-port).

    Parameters
    ----------
    field:
        Coefficient field GF(2^m); must match the RAM's cell width.
        Use :data:`GF2` (or ``field=None``) for bit-oriented memories.
    generator:
        Generator polynomial coefficients ``(a_0, ..., a_k)``, field
        elements, ``a_0 != 0 and a_k != 0``.  Default is the paper's BOM
        polynomial ``1 + x + x^2`` i.e. ``(1, 1, 1)``.
    seed:
        Initial window ``(d_0, ..., d_{k-1})``.  Must not be all-zero
        (the automaton would idle at 0 and test nothing).
    trajectory:
        Address order; defaults to ascending when the RAM size is known at
        run time.

    Examples
    --------
    >>> from repro.memory import SinglePortRAM
    >>> from repro.gf2 import poly_from_string
    >>> F = GF2m(poly_from_string("1+z+z^4"))
    >>> it = PiIteration(field=F, generator=(1, 2, 2), seed=(0, 1))
    >>> result = it.run(SinglePortRAM(255, m=4))
    >>> result.passed, result.ring_closed       # period 255 divides n=255
    (True, True)
    """

    def __init__(self, field: GF2m | None = None,
                 generator: tuple[int, ...] = (1, 1, 1),
                 seed: tuple[int, ...] = (0, 1),
                 trajectory: Trajectory | None = None,
                 invert: bool = False):
        self._field = field if field is not None else GF2
        generator = tuple(generator)
        seed = tuple(seed)
        # WordLFSR validates generator/seed ranges and a_0, a_k != 0.
        self._reference = WordLFSR(self._field, generator, seed)
        if all(s == 0 for s in seed):
            raise ValueError(
                "the all-zero seed is a fixed point of the automaton; "
                "it exercises nothing"
            )
        self._generator = generator
        self._seed = seed
        self._k = len(generator) - 1
        self._trajectory = trajectory
        # Data-background inversion (a standard BIST knob, here part of the
        # "specific TDB"): the *stored* values are the bitwise complement
        # of the automaton state, so across a normal + an inverted
        # iteration every cell is guaranteed to hold both polarities of
        # every bit -- which is what activates the full SAF/TF universe.
        self._invert = bool(invert)
        self._mask = (1 << self._field.m) - 1

    # -- configuration introspection -------------------------------------------

    @property
    def field(self) -> GF2m:
        """The coefficient field."""
        return self._field

    @property
    def generator(self) -> tuple[int, ...]:
        """Generator polynomial coefficients ``(a_0, ..., a_k)``."""
        return self._generator

    @property
    def seed(self) -> tuple[int, ...]:
        """The initial window."""
        return self._seed

    @property
    def k(self) -> int:
        """Automaton stages (degree of g)."""
        return self._k

    @property
    def min_cells(self) -> int:
        """Smallest memory the iteration runs on: more cells than the
        ``k``-cell window."""
        return self._k + 1

    @property
    def invert(self) -> bool:
        """True when the stored background is the complemented stream."""
        return self._invert

    @property
    def recurrence_multipliers(self) -> tuple[int, ...]:
        """Per-window-slot multipliers ``a_0^{-1} a_{k-j}`` of the
        recurrence (zero entries are null taps the sweep skips).  The
        :mod:`repro.sim` compiler bakes these into ``"ra"`` records."""
        return self._reference.recurrence_multipliers

    def _encode(self, value: int) -> int:
        """Automaton value -> stored cell value."""
        return value ^ self._mask if self._invert else value

    def _decode(self, value: int) -> int:
        """Stored cell value -> automaton value."""
        return value ^ self._mask if self._invert else value

    @property
    def period(self) -> int:
        """Predicted period of the virtual LFSR."""
        return wpoly_x_pow_order(self._field, wpoly(self._generator))

    def trajectory_for(self, n: int) -> Trajectory:
        """The trajectory used on an n-cell memory."""
        if self._trajectory is not None:
            if self._trajectory.n != n:
                raise ValueError(
                    f"trajectory covers {self._trajectory.n} addresses, "
                    f"memory has {n}"
                )
            return self._trajectory
        return ascending(n)

    def ring_closes_for(self, n: int) -> bool:
        """True when a pass over n cells returns the automaton to Init
        (i.e. the period divides n) -- the paper's pseudo-ring condition."""
        return n % self.period == 0

    def expected_final(self, n: int) -> tuple[int, ...]:
        """``Fin*``: expected final window *as stored in memory* (the
        reference LFSR state after n steps, inversion-encoded)."""
        reference = self._reference.copy()
        reference.reset()
        reference.run(n)
        return tuple(self._encode(s) for s in reference.state)

    def expected_stream(self, n: int) -> list[int]:
        """The fault-free written stream as stored: the value of the j-th
        sweep write (``s_{k+j}``, inversion-encoded), matching
        ``PiIterationResult.written_stream`` index for index."""
        reference = self._reference.copy()
        reference.reset()
        reference.run(self._k)
        return [self._encode(s) for s in reference.sequence(n)]

    def background_after(self, n: int) -> list[int]:
        """Fault-free cell contents (indexed by *cell*) after one pass.

        Cell ``traj[p]`` holds stream value ``s_p`` for ``p = k .. n-1``;
        the first k trajectory cells were rewritten by the cyclic wrap and
        hold ``s_n .. s_{n+k-1}``.  A follow-up *verifying* iteration
        checks exactly these values before overwriting (see :meth:`run`).
        """
        traj = self.trajectory_for(n)
        reference = self._reference.copy()
        reference.reset()
        stream = [self._encode(s) for s in reference.sequence(n + self._k)]
        background = [0] * n
        for p in range(self._k, n):
            background[traj[p]] = stream[p]
        for i in range(self._k):
            background[traj[n + i]] = stream[n + i]
        return background

    @property
    def reads_per_subiteration(self) -> int:
        """Cells actually read per sub-iteration.

        Window slots whose recurrence multiplier is zero are *skipped* (they
        contribute nothing and the cells are exercised by neighbouring
        sub-iterations anyway), so a degree-3 generator with one zero
        coefficient -- e.g. ``g = 1 + x^2 + x^3`` -- keeps the paper's
        2-reads + 1-write sub-iteration and its O(3n) complexity while
        producing a much richer (period-7 m-sequence) data background.
        """
        return sum(1 for mult in self._reference.recurrence_multipliers if mult)

    def operation_count(self, n: int) -> int:
        """Exact operations per iteration:
        ``(reads_per_subiteration + 1) * n + 2k``.

        For the paper's k = 2 generator this is ``3n + 4``, i.e. O(3n)
        (claim C4); it stays 3n-shaped for any generator with exactly two
        non-zero feedback taps.
        """
        return (self.reads_per_subiteration + 1) * n + 2 * self._k

    def __repr__(self) -> str:
        return (
            f"PiIteration(GF(2^{self._field.m}), "
            f"g={wpoly_to_string(wpoly(self._generator))!r}, seed={self._seed})"
        )

    # -- execution ---------------------------------------------------------------

    def run(self, ram, record: bool = False,
            previous_background: list[int] | None = None) -> PiIterationResult:
        """Execute the iteration on a single-port RAM front-end.

        The RAM's cell width must equal the field degree.  ``record=True``
        additionally captures the written stream (used by the Figure 1
        benchmarks; costs memory, not extra RAM operations).

        ``previous_background`` (cell-indexed expected old contents, e.g.
        from the previous iteration's :meth:`background_after`) switches on
        *transparent verification*: every cell is read and checked against
        its expected old value just before being overwritten.  This is the
        March-style read-before-write the pure pseudo-ring lacks -- without
        it, a corruption that lands after a cell's last sweep read is
        silently overwritten by the next iteration.  Cost: one extra read
        per write (the iteration becomes ~4n instead of ~3n).
        """
        if ram.m != self._field.m:
            raise ValueError(
                f"RAM cell width m={ram.m} does not match field GF(2^{self._field.m})"
            )
        n = ram.n
        if n < self.min_cells:
            raise ValueError(
                f"memory must have more than k={self._k} cells, got {n}"
            )
        if previous_background is not None and len(previous_background) != n:
            raise ValueError(
                f"previous background must list all {n} cells, "
                f"got {len(previous_background)}"
            )
        traj = self.trajectory_for(n)
        field = self._field
        operations = 0
        verify_mismatches = 0

        def check_before_overwrite(cell: int, expected: int) -> None:
            nonlocal operations, verify_mismatches
            old = ram.read(cell)
            operations += 1
            if old != expected:
                verify_mismatches += 1

        # 1. Init: seed the first k trajectory cells.
        for i, value in enumerate(self._seed):
            if previous_background is not None:
                check_before_overwrite(traj[i], previous_background[traj[i]])
            ram.write(traj[i], self._encode(value))
            operations += 1
        written: list[int] | None = [] if record else None
        # Recurrence multipliers (a_0^{-1} a_{k-j} for window slot j).
        mult = self._reference.recurrence_multipliers
        # 2. Sweep with cyclic wrap: n sub-iterations.
        for j in range(n):
            acc = 0
            for i in range(self._k):
                if mult[i] == 0:
                    continue  # null tap: the read would contribute nothing
                r = self._decode(ram.read(traj[j + i]))
                operations += 1
                if r:
                    acc = field.add(acc, field.mul(mult[i], r))
            if previous_background is not None:
                if j < n - self._k:
                    cell = traj[j + self._k]
                    check_before_overwrite(cell, previous_background[cell])
                else:
                    # Wrap writes overwrite this iteration's own seeds --
                    # verify the seed survived the whole sweep instead.
                    check_before_overwrite(
                        traj[j + self._k],
                        self._encode(self._seed[j + self._k - n]),
                    )
            stored = self._encode(acc)
            ram.write(traj[j + self._k], stored)
            operations += 1
            if written is not None:
                written.append(stored)
        # 3. Signature: read the final window (wraps to the first k cells).
        final = []
        for i in range(self._k):
            final.append(ram.read(traj[n + i]))
            operations += 1
        return PiIterationResult(
            init_state=tuple(self._encode(s) for s in self._seed),
            final_state=tuple(final),
            expected_final=self.expected_final(n),
            operations=operations,
            written_stream=written,
            verify_mismatches=verify_mismatches,
        )
