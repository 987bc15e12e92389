"""Exact arithmetic in the cyclotomic field Q(z), z a primitive p-th root of unity.

p is prime, so {1, z, ..., z^(p-2)} is a Q-basis and the single relation
1 + z + ... + z^(p-1) = 0 reduces any exponent-p expression to canonical
form.  An element is a tuple of p-1 Fractions over that basis; equality is
coefficient-wise, which makes every comparison in the engine exact.

For p = 2 the field is Q itself and z = -1.
"""

from __future__ import annotations

from fractions import Fraction


def _reduce(p: int, raw: list[Fraction]) -> tuple[Fraction, ...]:
    """Fold a length-p exponent vector into the length-(p-1) basis."""
    top = raw[p - 1]
    return tuple(raw[m] - top for m in range(p - 1))


class Cyclotomic:
    """An element of Q(z_p), reduced to the canonical basis."""

    __slots__ = ("p", "coeffs")

    def __init__(self, p: int, coeffs):
        self.p = p
        cs = tuple(Fraction(c) for c in coeffs)
        if len(cs) != p - 1:
            raise ValueError(f"expected {p - 1} coefficients, got {len(cs)}")
        self.coeffs = cs

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_rational(cls, p: int, value) -> "Cyclotomic":
        return cls(p, (Fraction(value),) + (Fraction(0),) * (p - 2))

    @classmethod
    def zeta_power(cls, p: int, e: int) -> "Cyclotomic":
        """z^e for any integer exponent e."""
        raw = [Fraction(0)] * p
        raw[e % p] = Fraction(1)
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
        return Cyclotomic(self.p, tuple(a + b for a, b in zip(self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic(self.p, tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Cyclotomic(self.p, tuple(a - b for a, b in zip(self.coeffs, o.coeffs)))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        p = self.p
        raw = [Fraction(0)] * p
        for m1, a in enumerate(self.coeffs):
            if a:
                for m2, b in enumerate(o.coeffs):
                    if b:
                        raw[(m1 + m2) % p] += a * b
        return Cyclotomic(p, _reduce(p, raw))

    __rmul__ = __mul__

    def conjugate(self) -> "Cyclotomic":
        """The automorphism z -> z^(-1) (complex conjugation)."""
        p = self.p
        raw = [Fraction(0)] * p
        for m, a in enumerate(self.coeffs):
            raw[(-m) % p] += a
        return Cyclotomic(p, _reduce(p, raw))

    def inverse(self) -> "Cyclotomic":
        """Multiplicative inverse, by solving the multiplication matrix."""
        if not self:
            raise ZeroDivisionError("inverse of 0")
        p = self.p
        d = p - 1
        # column j = coefficients of self * z^j
        cols = [(self * Cyclotomic.zeta_power(p, j)).coeffs for j in range(d)]
        aug = [[cols[j][i] for j in range(d)] + [Fraction(1 if i == 0 else 0)] for i in range(d)]
        for c in range(d):
            piv = next(r for r in range(c, d) if aug[r][c])
            aug[c], aug[piv] = aug[piv], aug[c]
            inv = 1 / aug[c][c]
            aug[c] = [x * inv for x in aug[c]]
            for r in range(d):
                if r != c and aug[r][c]:
                    f = aug[r][c]
                    aug[r] = [x - f * y for x, y in zip(aug[r], aug[c])]
        return Cyclotomic(p, tuple(aug[r][d] for r in range(d)))

    # -- predicates and views --------------------------------------------

    def __bool__(self) -> bool:
        return any(self.coeffs)

    def is_rational(self) -> bool:
        return not any(self.coeffs[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return self.coeffs[0]

    def as_int(self) -> int:
        v = self.rational_value()
        if v.denominator != 1:
            raise ValueError(f"{self} is not an integer")
        return v.numerator

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Cyclotomic.from_rational(self.p, other)
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        return self.p == other.p and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.p, self.coeffs))

    # -- rendering -------------------------------------------------------

    def __str__(self) -> str:
        """Polynomial string in z: "0", "2", "-2", "1-z", "z^2", ..."""
        terms = []
        for m, a in enumerate(self.coeffs):
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
        return {"p": self.p, "coeffs": [f"{c.numerator}/{c.denominator}" for c in self.coeffs]}

    @classmethod
    def from_json(cls, data: dict) -> "Cyclotomic":
        return cls(data["p"], [Fraction(s) for s in data["coeffs"]])
