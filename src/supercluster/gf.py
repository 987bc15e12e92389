"""Exact arithmetic in the finite field GF(p^k).

An element is a polynomial over Z_p of degree < k, stored as a coefficient
tuple (c0, c1, ..., c_{k-1}) with the constant term first, reduced modulo a
fixed monic irreducible modulus polynomial.  The modulus is always the
lexicographically smallest monic irreducible of its degree (ordering the
low k coefficient tuples lexicographically), so serialized output is
bit-stable across runs; for k = 1 this is the polynomial x.

Fields are small by design (q <= 64 by default): every element is built
eagerly and interned, and add/mul/neg/inv/trace are table lookups.  Fields
and elements are immutable and safe to share between workers.

Each element also carries an integer index sum(c_m * p^m); the index order
is the canonical element order used everywhere for deterministic output.
The same tables are kept on indices too (add_idx, mul_idx, neg_idx,
inv_idx), for code that does its arithmetic on lists of ints.
"""

from __future__ import annotations

DEFAULT_MAX_Q = 64

_FIELDS: dict[tuple[int, int], "Field"] = {}


def is_prime(m: int) -> bool:
    if m < 2:
        return False
    d = 2
    while d * d <= m:
        if m % d == 0:
            return False
        d += 1
    return True


def _poly_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return out


def _poly_rem(a, m, p):
    """Remainder of a modulo the monic polynomial m, over Z_p."""
    a = list(a)
    dm = len(m) - 1
    while len(a) > dm:
        lead = a[-1] % p
        if lead:
            shift = len(a) - 1 - dm
            for i, c in enumerate(m):
                a[shift + i] = (a[shift + i] - lead * c) % p
        a.pop()
    while len(a) < dm:
        a.append(0)
    return a


def _is_irreducible(poly, p):
    """Trial division by every monic polynomial of degree 1..deg/2."""
    from itertools import product

    deg = len(poly) - 1
    if deg == 1:
        return True
    for d in range(1, deg // 2 + 1):
        for low in product(range(p), repeat=d):
            divisor = list(low) + [1]
            if not any(_poly_rem(poly, divisor, p)):
                return False
    return True


def _smallest_irreducible(p: int, k: int) -> tuple[int, ...]:
    from itertools import product

    for low in product(range(p), repeat=k):
        poly = list(low) + [1]
        if _is_irreducible(poly, p):
            return tuple(poly)
    raise RuntimeError(f"no irreducible polynomial of degree {k} over Z_{p}")


class FieldElement:
    """Interned element of a Field; arithmetic is table lookup."""

    __slots__ = ("field", "index", "coeffs", "_hash")

    def __init__(self, field: "Field", index: int, coeffs: tuple[int, ...]):
        self.field = field
        self.index = index
        self.coeffs = coeffs
        self._hash = hash((field.p, field.k, index))

    def __bool__(self) -> bool:
        return self.index != 0

    def __add__(self, other: "FieldElement") -> "FieldElement":
        return self.field._add[self.index][other.index]

    def __sub__(self, other: "FieldElement") -> "FieldElement":
        return self.field._add[self.index][self.field._neg[other.index].index]

    def __neg__(self) -> "FieldElement":
        return self.field._neg[self.index]

    def __mul__(self, other: "FieldElement") -> "FieldElement":
        return self.field._mul[self.index][other.index]

    def inverse(self) -> "FieldElement":
        if self.index == 0:
            raise ZeroDivisionError("inverse of 0 in " + str(self.field))
        return self.field._inv[self.index]

    def trace(self) -> int:
        """Absolute trace a + a^p + ... + a^(p^(k-1)), as a residue in Z_p."""
        return self.field._trace[self.index]

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, FieldElement):
            return NotImplemented
        return (
            self.index == other.index
            and self.field.p == other.field.p
            and self.field.k == other.field.k
        )

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        if self.field.k == 1:
            return str(self.coeffs[0])
        return "[" + ",".join(str(c) for c in self.coeffs) + "]"

    def __repr__(self) -> str:
        return f"GF({self.field.q}):{self}"

    def __reduce__(self):
        return (_restore_element, (self.field.p, self.field.k, self.index))


def _restore_element(p, k, index):
    return field_make(p, k).elements[index]


class Field:
    """GF(p^k) with interned elements and precomputed operation tables."""

    __slots__ = (
        "p", "k", "q", "modulus", "elements", "zero", "one",
        "add_idx", "mul_idx", "neg_idx", "inv_idx",
        "_add", "_mul", "_neg", "_inv", "_trace",
    )

    def __init__(self, p: int, k: int, modulus: tuple[int, ...]):
        self.p = p
        self.k = k
        self.q = p**k
        self.modulus = modulus
        q = self.q

        def digits(m):
            return tuple((m // p**e) % p for e in range(k))

        self.elements = tuple(FieldElement(self, m, digits(m)) for m in range(q))
        self.zero = self.elements[0]
        self.one = self.elements[1]

        def idx(coeffs):
            return sum(c * p**e for e, c in enumerate(coeffs))

        # index tables: add_idx[a][b] is the index of a + b, and so on;
        # inv_idx[0] is None
        add_idx = self.add_idx = [
            [idx([(a + b) % p for a, b in zip(x.coeffs, y.coeffs)]) for y in self.elements]
            for x in self.elements
        ]
        mul_idx = self.mul_idx = [
            [idx(_poly_rem(_poly_mul(x.coeffs, y.coeffs, p), modulus, p)) for y in self.elements]
            for x in self.elements
        ]
        self.neg_idx = [idx([(-c) % p for c in x.coeffs]) for x in self.elements]
        inv = self.inv_idx = [None] * q
        for a in range(1, q):
            for b in range(1, q):
                if mul_idx[a][b] == 1:
                    inv[a] = b
                    break
            if inv[a] is None:
                raise RuntimeError(f"element {a} has no inverse; modulus not irreducible?")
        self._add = [[self.elements[j] for j in row] for row in add_idx]
        self._mul = [[self.elements[j] for j in row] for row in mul_idx]
        self._neg = [self.elements[j] for j in self.neg_idx]
        self._inv = [None] + [self.elements[j] for j in inv[1:]]

        trace = []
        for x in self.elements:
            t, y = self.zero, x
            for _ in range(k):
                t = t + y
                y = self._frobenius(y)
            if any(t.coeffs[1:]):
                raise RuntimeError("trace left the prime field")
            trace.append(t.coeffs[0])
        self._trace = trace

    def _frobenius(self, x: FieldElement) -> FieldElement:
        y = self.one
        for _ in range(self.p):
            y = y * x
        return y

    @property
    def nonzero(self) -> tuple[FieldElement, ...]:
        return self.elements[1:]

    def from_int(self, m: int) -> FieldElement:
        """Image of the integer m under Z -> Z_p -> GF(p^k)."""
        return self.elements[m % self.p]

    def from_coeffs(self, coeffs) -> FieldElement:
        cs = list(coeffs)
        cs += [0] * (self.k - len(cs))
        if len(cs) != self.k:
            raise ValueError(f"expected at most {self.k} coefficients")
        return self.elements[sum((c % self.p) * self.p**e for e, c in enumerate(cs))]

    def parse(self, text: str) -> FieldElement:
        """Inverse of str(element): plain integer, or "[c0,c1,...]"."""
        text = text.strip()
        if text.startswith("["):
            if not text.endswith("]"):
                raise ValueError(f"bad element literal {text!r}")
            return self.from_coeffs(int(t) for t in text[1:-1].split(","))
        return self.from_int(int(text))

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, Field):
            return NotImplemented
        return (self.p, self.k, self.modulus) == (other.p, other.k, other.modulus)

    def __hash__(self) -> int:
        return hash((self.p, self.k, self.modulus))

    def __repr__(self) -> str:
        return f"GF({self.q})" if self.k == 1 else f"GF({self.p}^{self.k})"

    def __iter__(self):
        return iter(self.elements)

    def __reduce__(self):
        return (field_make, (self.p, self.k))


def field_make(p: int, k: int, max_q: int = DEFAULT_MAX_Q) -> Field:
    """The canonical GF(p^k); repeated calls return the same object."""
    if not is_prime(p):
        raise ValueError(f"p={p} is not prime")
    if k < 1:
        raise ValueError(f"k={k} must be >= 1")
    if p**k > max_q:
        raise ValueError(f"q={p**k} exceeds the field size cap {max_q}")
    key = (p, k)
    if key not in _FIELDS:
        _FIELDS[key] = Field(p, k, _smallest_irreducible(p, k))
    return _FIELDS[key]
