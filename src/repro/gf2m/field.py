"""The finite field GF(2^m).

Elements are integers in ``range(2**m)`` whose bits are the coefficients of
the residue-class polynomial: integer ``0b0110`` in GF(2^4) is ``z^2 + z``.
This matches the memory-word encoding used throughout the library -- an m-bit
RAM word *is* a field element, which is exactly the paper's view of a
word-oriented memory.

Arithmetic is table-driven (log/antilog over a generator) when the modulus is
primitive and the field is small enough, with a carry-less-multiply fallback
otherwise, so any irreducible modulus works.
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.gf2.intfactor import factorize_int
from repro.gf2.irreducible import is_irreducible, is_primitive
from repro.gf2.poly import (
    degree,
    poly_mod,
    poly_modexp,
    poly_modinv,
    poly_modmul,
    poly_to_string,
)

__all__ = ["GF2m"]

_TABLE_LIMIT_BITS = 16  # build log/antilog tables up to GF(2^16)


class GF2m:
    """The field GF(2^m) defined by an irreducible modulus ``p(z)``.

    Parameters
    ----------
    modulus:
        Irreducible polynomial over GF(2) in bit-mask encoding, e.g.
        ``0b10011`` for the paper's ``p(z) = 1 + z + z^4``.

    Examples
    --------
    >>> from repro.gf2 import poly_from_string
    >>> F = GF2m(poly_from_string("1+z+z^4"))
    >>> F.m, F.size
    (4, 16)
    >>> F.mul(0b0010, 0b1001)    # z * (z^3 + 1) = z^4 + z = 1
    1
    """

    def __init__(self, modulus: int):
        if not is_irreducible(modulus):
            raise ValueError(
                f"modulus {poly_to_string(modulus, 'z')} is not irreducible"
            )
        self._modulus = modulus
        self._m = degree(modulus)
        self._size = 1 << self._m
        self._exp: list[int] | None = None
        self._log: list[int] | None = None
        if self._m <= _TABLE_LIMIT_BITS:
            self._build_tables()

    # -- construction helpers -------------------------------------------------

    def _build_tables(self) -> None:
        """Build antilog/log tables over a multiplicative generator.

        ``z`` generates the multiplicative group only when the modulus is
        primitive; otherwise we search for a small generator.
        """
        generator = self._find_generator()
        order = self._size - 1
        exp = [1] * (2 * order)
        log = [0] * self._size
        value = 1
        for i in range(order):
            exp[i] = value
            log[value] = i
            value = poly_modmul(value, generator, self._modulus)
        if value != 1:  # pragma: no cover - generator search guarantees this
            raise AssertionError("generator did not close the cycle")
        # Double the antilog table so mul can skip one modulo reduction.
        for i in range(order, 2 * order):
            exp[i] = exp[i - order]
        self._exp = exp
        self._log = log
        self._generator = generator

    def _find_generator(self) -> int:
        if self._size == 2:
            return 1  # GF(2): the multiplicative group is trivial
        order = self._size - 1
        prime_factors = list(factorize_int(order))
        for candidate in range(2, self._size):
            if all(
                poly_modexp(candidate, order // p, self._modulus) != 1
                for p in prime_factors
            ):
                return candidate
        raise AssertionError(  # pragma: no cover
            "multiplicative group of a finite field is cyclic; "
            "a generator always exists"
        )

    # -- basic properties ------------------------------------------------------

    @property
    def modulus(self) -> int:
        """The defining irreducible polynomial ``p(z)`` (bit-mask)."""
        return self._modulus

    @property
    def m(self) -> int:
        """Extension degree: elements are m-bit words."""
        return self._m

    @property
    def size(self) -> int:
        """Number of field elements, ``2**m``."""
        return self._size

    @property
    def generator(self) -> int:
        """A generator of the multiplicative group (``z``'s value when
        the modulus is primitive)."""
        if self._exp is None:
            raise NotImplementedError(
                "generator lookup requires table mode (m <= 16)"
            )
        return self._generator

    def log_tables(self) -> tuple[list[int], list[int]] | None:
        """The ``(antilog, log)`` tables of table mode, None above m = 16.

        ``antilog`` is doubled, so ``antilog[log[a] + log[b]] == a * b``
        for non-zero ``a`` and ``b`` with no modulo reduction.  Callers
        that multiply by a few fixed constants many times (the word
        LFSR's recurrence) read them instead of calling :meth:`mul`.

        >>> from repro.gf2 import poly_from_string
        >>> F = GF2m(poly_from_string("1+z+z^4"))
        >>> antilog, log = F.log_tables()
        >>> antilog[log[0b1000] + log[0b0010]] == F.mul(0b1000, 0b0010)
        True
        """
        if self._exp is None or self._log is None:
            return None
        return self._exp, self._log

    def is_primitive_modulus(self) -> bool:
        """True when ``z`` itself generates the multiplicative group."""
        return is_primitive(self._modulus)

    def __repr__(self) -> str:
        return f"GF2m(modulus={poly_to_string(self._modulus, 'z')!r})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, GF2m) and other._modulus == self._modulus

    def __hash__(self) -> int:
        return hash(("GF2m", self._modulus))

    def __contains__(self, value: object) -> bool:
        return isinstance(value, int) and 0 <= value < self._size

    def elements(self) -> Iterator[int]:
        """Iterate all field elements, 0 first.

        >>> from repro.gf2 import primitive_polynomial
        >>> list(GF2m(primitive_polynomial(2)).elements())
        [0, 1, 2, 3]
        """
        return iter(range(self._size))

    def _check(self, a: int, name: str = "element") -> int:
        if not isinstance(a, int) or isinstance(a, bool):
            raise TypeError(f"{name} must be an int, got {type(a).__name__}")
        if not 0 <= a < self._size:
            raise ValueError(
                f"{name} {a} out of range for GF(2^{self._m}) "
                f"(expected 0 <= value < {self._size})"
            )
        return a

    # -- arithmetic ------------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        """Field addition: bitwise XOR of word encodings."""
        self._check(a, "a")
        self._check(b, "b")
        return a ^ b

    def sub(self, a: int, b: int) -> int:
        """Field subtraction (same as addition in characteristic 2)."""
        return self.add(a, b)

    def mul(self, a: int, b: int) -> int:
        """Field multiplication mod ``p(z)``.

        >>> from repro.gf2 import poly_from_string
        >>> F = GF2m(poly_from_string("1+z+z^4"))
        >>> F.mul(0b1000, 0b0010)   # z^3 * z = z^4 = z + 1
        3
        """
        self._check(a, "a")
        self._check(b, "b")
        if a == 0 or b == 0:
            return 0
        if self._exp is not None:
            return self._exp[self._log[a] + self._log[b]]
        return poly_modmul(a, b, self._modulus)

    def square(self, a: int) -> int:
        """``a * a`` (the Frobenius map, linear over GF(2))."""
        return self.mul(a, a)

    def inv(self, a: int) -> int:
        """Multiplicative inverse; raises on zero.

        >>> from repro.gf2 import poly_from_string
        >>> F = GF2m(poly_from_string("1+z+z^4"))
        >>> all(F.mul(a, F.inv(a)) == 1 for a in range(1, 16))
        True
        """
        self._check(a, "a")
        if a == 0:
            raise ZeroDivisionError("zero has no multiplicative inverse")
        if self._exp is not None:
            order = self._size - 1
            return self._exp[(order - self._log[a]) % order]
        return poly_modinv(a, self._modulus)

    def div(self, a: int, b: int) -> int:
        """``a / b``; raises on division by zero."""
        return self.mul(a, self.inv(b))

    def pow(self, a: int, e: int) -> int:
        """``a ** e``; negative exponents invert first.

        >>> from repro.gf2 import poly_from_string
        >>> F = GF2m(poly_from_string("1+z+z^4"))
        >>> F.pow(0b0010, 15)    # z has order 15: primitive modulus
        1
        """
        self._check(a, "a")
        if a == 0:
            if e == 0:
                return 1
            if e < 0:
                raise ZeroDivisionError("0 cannot be raised to a negative power")
            return 0
        if e < 0:
            a = self.inv(a)
            e = -e
        if self._exp is not None:
            order = self._size - 1
            return self._exp[(self._log[a] * e) % order]
        return poly_modexp(a, e, self._modulus)

    # -- structure -------------------------------------------------------------

    def order(self, a: int) -> int:
        """Multiplicative order of a non-zero element.

        >>> from repro.gf2 import poly_from_string
        >>> F = GF2m(poly_from_string("1+z+z^4"))
        >>> F.order(0b0010)
        15
        """
        self._check(a, "a")
        if a == 0:
            raise ValueError("zero has no multiplicative order")
        group = self._size - 1
        order = group
        for p, k in factorize_int(group).items():
            for _ in range(k):
                if order % p == 0 and self.pow(a, order // p) == 1:
                    order //= p
                else:
                    break
        return order

    def is_generator(self, a: int) -> bool:
        """True when ``a`` generates the full multiplicative group."""
        self._check(a, "a")
        return a != 0 and self.order(a) == self._size - 1

    def trace(self, a: int) -> int:
        """Absolute trace Tr(a) = a + a^2 + a^4 + ... in GF(2).

        >>> from repro.gf2 import poly_from_string
        >>> F = GF2m(poly_from_string("1+z+z^4"))
        >>> sum(F.trace(a) for a in F.elements())   # trace is balanced
        8
        """
        self._check(a, "a")
        total = 0
        term = a
        for _ in range(self._m):
            total ^= term
            term = self.square(term)
        if total not in (0, 1):  # pragma: no cover - algebra guarantees this
            raise AssertionError("trace must land in the prime field")
        return total

    def minimal_polynomial(self, a: int) -> int:
        """Minimal polynomial of ``a`` over GF(2), bit-mask encoded.

        The product of ``(x - a^(2^i))`` over the conjugacy class of ``a``.

        >>> from repro.gf2 import poly_from_string, poly_to_string
        >>> F = GF2m(poly_from_string("1+z+z^4"))
        >>> poly_to_string(F.minimal_polynomial(0b0010))  # z's own modulus
        'x^4 + x + 1'
        """
        self._check(a, "a")
        # Conjugacy class of a under Frobenius.
        conjugates = []
        value = a
        while value not in conjugates:
            conjugates.append(value)
            value = self.square(value)
        # Multiply out prod (x + c) with coefficients in GF(2^m);
        # coefficients of the result are guaranteed to land in GF(2).
        coeffs = [1]  # monic, low index = high degree: coeffs[i] is x^(deg-i)
        for c in conjugates:
            next_coeffs = [0] * (len(coeffs) + 1)
            for i, coef in enumerate(coeffs):
                next_coeffs[i] ^= coef  # times x
                next_coeffs[i + 1] ^= self.mul(coef, c)  # times conjugate
            coeffs = next_coeffs
        poly = 0
        deg = len(coeffs) - 1
        for i, coef in enumerate(coeffs):
            if coef not in (0, 1):  # pragma: no cover - algebra guarantees
                raise AssertionError("minimal polynomial left the prime field")
            if coef:
                poly |= 1 << (deg - i)
        return poly

    def element_poly_string(self, a: int) -> str:
        """Render an element as a polynomial in ``z``.

        >>> from repro.gf2 import poly_from_string
        >>> F = GF2m(poly_from_string("1+z+z^4"))
        >>> F.element_poly_string(0b0110)
        'z^2 + z'
        """
        self._check(a, "a")
        return poly_to_string(a, "z")

    def reduce(self, p: int) -> int:
        """Reduce an arbitrary GF(2)[z] polynomial into the field.

        >>> from repro.gf2 import poly_from_string
        >>> F = GF2m(poly_from_string("1+z+z^4"))
        >>> F.reduce(0b10000)   # z^4 -> z + 1
        3
        """
        return poly_mod(p, self._modulus)
