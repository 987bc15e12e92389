"""Exact arithmetic in the cyclotomic field Q(z), z a primitive p-th root of unity.

p is prime, so {1, z, ..., z^(p-2)} is a Q-basis and the single relation
1 + z + ... + z^(p-1) = 0 reduces any exponent-p expression to canonical
form.  An element is stored as Z[z] numerators over one integer
denominator: ``num`` is a tuple of p-1 ints over that basis and ``den`` a
positive int with gcd(den, *num) = 1.  That form is unique, so equality and
hashing compare plain int tuples, and every comparison in the engine is
exact.  Every character value lies in Z[z], so den is 1 almost everywhere.
The engine divides only by rational integers, by putting them into den:
the 1/|U| of an inner product, the q^(i-d) of the cluster sum and the
row norms of the oracle's tensor projection.  Arithmetic renormalises only
when a denominator is not 1.

Fractions appear only at the edges: the constructor and from_rational
accept ints or Fractions, and coeffs, rational_value, to_json and str give
the coefficients as Fractions or in their "n/d" text.

For p = 2 the field is Q itself and z = -1.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import add, sub


def _reduce(p: int, raw: list[int]) -> tuple[int, ...]:
    """Fold an exponent vector (raw[m] is the coefficient of z^m, with
    p <= len(raw) <= 2p) into the length-(p-1) basis."""
    for m in range(p, len(raw)):
        raw[m - p] += raw[m]
    top = raw[p - 1]
    return tuple(raw[m] - top for m in range(p - 1))


def _lowest_terms(coeffs: tuple, den: int) -> tuple[tuple[int, ...], int]:
    """(num, den) in lowest terms for the value coeffs / den.

    coeffs may hold ints or anything Fraction accepts; den is a positive int.
    """
    if type(den) is not int or den <= 0:
        raise ValueError(f"denominator must be a positive int, got {den!r}")
    if not all(type(c) is int for c in coeffs):
        fracs = [Fraction(c) for c in coeffs]
        common = lcm(*(f.denominator for f in fracs))
        coeffs = tuple(f.numerator * (common // f.denominator) for f in fracs)
        den *= common
    g = gcd(den, *coeffs)
    if g == 1:
        return coeffs, den
    return tuple(c // g for c in coeffs), den // g


class Cyclotomic:
    """An element of Q(z_p): int numerators ``num`` over the basis, over ``den``."""

    __slots__ = ("p", "num", "den")

    def __init__(self, p: int, coeffs, den: int = 1):
        """The value (sum of coeffs[m] * z^m) / den.

        coeffs are p-1 ints or rationals (Fraction, or anything Fraction
        accepts); den is a positive int.  Int coefficients over den 1 are
        stored as they are, everything else is brought to lowest terms.
        """
        num = tuple(coeffs)
        if len(num) != p - 1:
            raise ValueError(f"expected {p - 1} coefficients, got {len(num)}")
        if den != 1 or not all(type(c) is int for c in num):
            num, den = _lowest_terms(num, den)
        self.p = p
        self.num = num
        self.den = den

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_rational(cls, p: int, value) -> "Cyclotomic":
        if type(value) is not int:
            value = Fraction(value)
        return cls(p, (value.numerator,) + (0,) * (p - 2), value.denominator)

    @classmethod
    def from_bins(cls, p: int, bins: list[int], den: int = 1) -> "Cyclotomic":
        """(sum of bins[m] * z^m) / den, from p int bins over z^0 .. z^(p-1)."""
        return cls(p, _reduce(p, bins), den)

    @classmethod
    def zeta_power(cls, p: int, e: int) -> "Cyclotomic":
        """z^e for any integer exponent e."""
        raw = [0] * p
        raw[e % p] = 1
        return cls(p, _reduce(p, raw))

    # -- ring operations ------------------------------------------------

    def _coerce(self, other) -> "Cyclotomic | None":
        if isinstance(other, Cyclotomic):
            if other.p != self.p:
                raise ValueError("mixed root orders")
            return other
        if isinstance(other, (int, Fraction)):
            return Cyclotomic.from_rational(self.p, other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        p = self.p
        if self.den == 1 == o.den:
            return Cyclotomic(p, tuple(map(add, self.num, o.num)))
        a, b = self.den, o.den
        return Cyclotomic(p, tuple(x * b + y * a for x, y in zip(self.num, o.num)), a * b)

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic(self.p, tuple(-a for a in self.num), self.den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        p = self.p
        if self.den == 1 == o.den:
            return Cyclotomic(p, tuple(map(sub, self.num, o.num)))
        a, b = self.den, o.den
        return Cyclotomic(p, tuple(x * b - y * a for x, y in zip(self.num, o.num)), a * b)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            k = other.numerator
            return Cyclotomic(self.p, tuple(a * k for a in self.num), self.den * other.denominator)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        p = self.p
        raw = [0] * (2 * p - 2)
        for m1, a in enumerate(self.num):
            if a:
                for m2, b in enumerate(o.num, m1):
                    raw[m2] += a * b
        return Cyclotomic(p, _reduce(p, raw), self.den * o.den)

    __rmul__ = __mul__

    def _galois(self, k: int) -> "Cyclotomic":
        """The automorphism z -> z^k, k prime to p."""
        p = self.p
        raw = [0] * p
        for m, a in enumerate(self.num):
            raw[m * k % p] = a
        return Cyclotomic(p, _reduce(p, raw), self.den)

    def conjugate(self) -> "Cyclotomic":
        """The automorphism z -> z^(-1) (complex conjugation)."""
        return self._galois(-1)

    # -- predicates and views --------------------------------------------

    def __bool__(self) -> bool:
        return any(self.num)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The p-1 coefficients over 1, z, ..., z^(p-2), as Fractions."""
        return tuple(Fraction(a, self.den) for a in self.num)

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return Fraction(self.num[0], self.den)

    def as_int(self) -> int:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        if self.den != 1:
            raise ValueError(f"{self} is not an integer")
        return self.num[0]

    def __eq__(self, other) -> bool:
        if isinstance(other, Cyclotomic):
            return self.p == other.p and self.num == other.num and self.den == other.den
        if isinstance(other, (int, Fraction)):
            return (
                self.den == other.denominator
                and self.num[0] == other.numerator
                and not any(self.num[1:])
            )
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.p, self.num, self.den))

    # -- rendering -------------------------------------------------------

    def _rationals(self) -> tuple:
        """The coefficients as ints when den is 1, else as Fractions."""
        return self.num if self.den == 1 else self.coeffs

    def __str__(self) -> str:
        """Polynomial string in z: "0", "2", "-2", "1-z", "z^2", ..."""
        terms = []
        for m, a in enumerate(self._rationals()):
            if not a:
                continue
            mono = "" if m == 0 else ("z" if m == 1 else f"z^{m}")
            if mono and abs(a) == 1:
                body = mono
            elif mono:
                body = f"{abs(a)}{mono}"
            else:
                body = str(abs(a))
            sign = "-" if a < 0 else ("+" if terms else "")
            terms.append(sign + body)
        return "".join(terms) if terms else "0"

    def __repr__(self) -> str:
        return f"Cyclotomic(p={self.p}, {self})"

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "coeffs": [f"{c.numerator}/{c.denominator}" for c in self._rationals()],
        }

    @classmethod
    def from_json(cls, data: dict) -> "Cyclotomic":
        return cls(data["p"], [Fraction(s) for s in data["coeffs"]])
