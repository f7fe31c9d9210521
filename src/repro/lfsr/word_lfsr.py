"""Word-oriented LFSR over GF(2^m) -- the paper's WOM virtual automaton.

A word LFSR is defined by a generator polynomial with field coefficients,

    g(x) = a_0 + a_1 x + ... + a_k x^k,     a_i in GF(2^m), a_0, a_k != 0,

and produces the recurrence (the paper's convention, verified against the
Figure 1(b) trace ``0, 1, 2, 6, ...``):

    s[t+k] = a_0^{-1} * (a_1 s[t+k-1] + a_2 s[t+k-2] + ... + a_k s[t])

For the running example ``g(x) = 1 + 2x + 2x^2`` over GF(2^4) with modulus
``p(z) = 1 + z + z^4`` this gives ``s[t+2] = 2 s[t+1] + 2 s[t]``, whose
stream from seed ``(0, 1)`` begins ``0, 1, 2, 6, 8, F, ...`` and has period
255 (g is primitive over GF(16)).

Each coefficient multiplication is a constant multiplier -- a pure XOR
network (see :mod:`repro.gf2m.xor_synth`) -- which is what lets the paper
bury the word automaton in the memory periphery.
"""

from __future__ import annotations

from repro.gf2.poly import poly_modmul
from repro.gf2m.field import GF2m
from repro.gf2m.poly_ext import (
    wpoly,
    wpoly_is_irreducible,
    wpoly_to_string,
    wpoly_x_pow_order,
)

__all__ = ["WordLFSR"]


class WordLFSR:
    """A word-oriented LFSR over GF(2^m).

    Parameters
    ----------
    field:
        The coefficient field GF(2^m).
    coeffs:
        Generator polynomial ``(a_0, a_1, ..., a_k)`` low-degree first.
        ``a_0`` and ``a_k`` must be non-zero (otherwise the automaton is
        singular / the degree is not k).
    seed:
        Initial state ``(s[0], ..., s[k-1])`` of k field elements.

    Examples
    --------
    >>> from repro.gf2 import poly_from_string
    >>> from repro.gf2m import GF2m
    >>> F = GF2m(poly_from_string("1+z+z^4"))
    >>> lfsr = WordLFSR(F, (1, 2, 2), seed=(0, 1))
    >>> lfsr.sequence(6)
    [0, 1, 2, 6, 8, 15]
    >>> lfsr.predicted_period()
    255
    """

    def __init__(self, field: GF2m, coeffs: tuple[int, ...] | list[int],
                 seed: tuple[int, ...] | list[int]):
        coeffs = tuple(coeffs)
        if len(coeffs) < 2:
            raise ValueError("generator polynomial must have degree >= 1")
        if coeffs[0] == 0 or coeffs[-1] == 0:
            raise ValueError(
                "a_0 and a_k must be non-zero for an invertible automaton"
            )
        for i, a in enumerate(coeffs):
            if a not in field:
                raise ValueError(f"coefficient a_{i}={a} is not in GF(2^{field.m})")
        self._field = field
        self._coeffs = coeffs
        self._k = len(coeffs) - 1
        seed = tuple(seed)
        if len(seed) != self._k:
            raise ValueError(
                f"seed needs exactly {self._k} words, got {len(seed)}"
            )
        for i, s in enumerate(seed):
            if s not in field:
                raise ValueError(f"seed word s_{i}={s} is not in GF(2^{field.m})")
        self._state: tuple[int, ...] = seed
        self._initial_state = seed
        # Recurrence multipliers: s[t+k] = sum_j mult[j] * s[t+j], where
        # mult[j] = a_0^{-1} * a_{k-j}.
        inv_a0 = field.inv(coeffs[0])
        self._mult = tuple(
            field.mul(inv_a0, coeffs[self._k - j]) for j in range(self._k)
        )
        # Stepping terms, built once per LFSR: next_word multiplies the
        # same k constants over and over, so it takes each product from
        # the field's log/antilog tables (one lookup per term) instead
        # of a validated field.mul call.  A field past table mode keeps
        # the carry-less multiply.  Zero multipliers drop out.
        self._tables = field.log_tables()
        if self._tables is None:
            self._terms = tuple((j, c) for j, c in enumerate(self._mult) if c)
        else:
            log = self._tables[1]
            self._terms = tuple(
                (j, log[c]) for j, c in enumerate(self._mult) if c)

    # -- introspection ---------------------------------------------------------

    @property
    def field(self) -> GF2m:
        """The coefficient field."""
        return self._field

    @property
    def coeffs(self) -> tuple[int, ...]:
        """Generator polynomial coefficients ``(a_0, ..., a_k)``."""
        return self._coeffs

    @property
    def k(self) -> int:
        """Number of register stages (degree of g)."""
        return self._k

    @property
    def state(self) -> tuple[int, ...]:
        """Current state window ``(s[t], ..., s[t+k-1])``."""
        return self._state

    @property
    def recurrence_multipliers(self) -> tuple[int, ...]:
        """The constants ``a_0^{-1} a_{k-j}`` multiplying ``s[t+j]``.

        These are the XOR-network multipliers a hardware PRT implementation
        instantiates (claim C6).
        """
        return self._mult

    def __repr__(self) -> str:
        return (
            f"WordLFSR(GF(2^{self._field.m}), "
            f"g={wpoly_to_string(wpoly(self._coeffs))!r}, state={self._state})"
        )

    # -- stepping --------------------------------------------------------------

    def next_word(self) -> int:
        """The recurrence value ``s[t+k]`` for the current window (no step)."""
        state = self._state
        acc = 0
        if self._tables is None:
            modulus = self._field.modulus
            for j, mult in self._terms:
                if state[j]:
                    acc ^= poly_modmul(mult, state[j], modulus)
            return acc
        antilog, log = self._tables
        for j, log_mult in self._terms:
            s = state[j]
            if s:
                acc ^= antilog[log_mult + log[s]]
        return acc

    def step(self) -> int:
        """Advance one step, returning the outgoing word ``s[t]``."""
        out = self._state[0]
        self._state = self._state[1:] + (self.next_word(),)
        return out

    def sequence(self, n: int) -> list[int]:
        """The next ``n`` stream words (advances the register)."""
        if n < 0:
            raise ValueError("sequence length must be non-negative")
        return [self.step() for _ in range(n)]

    def run(self, n: int) -> None:
        """Advance ``n`` steps, discarding output."""
        for _ in range(n):
            self.step()

    def reset(self) -> None:
        """Restore the seed state."""
        self._state = self._initial_state

    def copy(self) -> WordLFSR:
        """Independent copy with the same parameters and current state."""
        clone = WordLFSR(self._field, self._coeffs, self._initial_state)
        clone._state = self._state
        return clone

    # -- algebra ---------------------------------------------------------------

    def generator_is_irreducible(self) -> bool:
        """True when g(x) is irreducible over GF(2^m) (the paper's setting)."""
        return wpoly_is_irreducible(self._field, wpoly(self._coeffs))

    def predicted_period(self) -> int:
        """Algebraic state-cycle period: the order of ``x`` modulo ``g``.

        For irreducible ``g`` this divides ``(2^m)^k - 1``; the pseudo-ring
        closes (``Fin == Init``) exactly when the memory pass length is a
        multiple of this value.
        """
        return wpoly_x_pow_order(self._field, wpoly(self._coeffs))

    def period(self, bound: int | None = None) -> int:
        """Measured period from the seed state (0 for the all-zero seed)."""
        if all(s == 0 for s in self._initial_state):
            return 0
        if bound is None:
            bound = self._field.size**self._k
        saved = self._state
        self._state = self._initial_state
        try:
            for t in range(1, bound + 1):
                self.step()
                if self._state == self._initial_state:
                    return t
            raise AssertionError(  # pragma: no cover - bound always suffices
                "word LFSR state did not recur within the state-space bound"
            )
        finally:
            self._state = saved
