"""Strictly upper triangular matrices, unipotent group elements, and functionals.

All three value types are sparse maps from 1-based positions (i,j), i < j,
to non-zero field elements; zeros are never stored.  A NilMatrix holds the
matrix entries x_ij, a Functional holds the coefficients lambda(e_ij), and a
UniMatrix is I + off for a NilMatrix off.  The maps between a functional and
the matrix carrying the same numbers are the free reinterpretations
as_matrix()/as_functional().

The six actions (left/right/adjoint on matrices, left/right/coadjoint on
functionals) are pure functions; every value here is immutable and safe to
share across workers.  fixes_left(g, lam) answers coact_left(g, lam) == lam
from the same column-operation increments without building the image; no
engine path calls it, and it is kept as the tests' witness for the oracle's
fixed-point rule, which packed writes from the same formula.

Every operation on two operands raises ValueError ("size mismatch" or
"field mismatch") when their sizes or fields differ: sums and differences,
scale (its scalar's field), nil_mul and the UniMatrix product, the
one-sided actions, the coactions, fixes_left and evaluate.

A UniMatrix fills two index slots on first use and keeps them: the entries
of g - I grouped by column and by row.  The one-sided actions and
coactions walk the entries of the matrix or functional and look up the
matching bucket of g, so their work is the number of matching entry pairs,
not |g| * |x|.  The index is derived from off alone and is left out of
equality, hashing and pickling.

The public NilMatrix/Functional constructor validates every input: it
rejects positions outside the strict upper triangle and drops zeros.
Values computed here from values that already passed that check (sums,
negation, scaling, products, the reinterpretations, the one-sided actions
and the coactions) are wrapped by the private _trusted classmethod
instead: each of those loops writes only strictly upper positions and
drops every entry that cancels to zero, so a second pass over the result
could never change it.  clusters wraps the same way the witnesses its
sweeps compose and the points and rook functionals of its index-row walk,
which it builds strictly upper and zero-free.
"""

from __future__ import annotations

from .gf import Field, FieldElement


def positions(n: int) -> list[tuple[int, int]]:
    """All strictly upper positions (i,j), 1 <= i < j <= n, in lex order."""
    return [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]


def _same_ring(x, field: Field, n: int) -> None:
    """Raise ValueError unless x has size n and its values lie in field."""
    if x.n != n:
        raise ValueError("size mismatch")
    if x.field is not field and x.field != field:
        raise ValueError("field mismatch")


def _clean(field: Field, n: int, entries: dict) -> dict:
    out = {}
    for (i, j), v in entries.items():
        if not (1 <= i < j <= n):
            raise ValueError(f"position ({i},{j}) is not strictly upper for n={n}")
        if v:
            out[(i, j)] = v
    return out


class _SparseUpper:
    """Shared machinery for NilMatrix and Functional."""

    __slots__ = ("field", "n", "entries", "_hash")

    def __init__(self, field: Field, n: int, entries: dict | None = None):
        self.field = field
        self.n = n
        self.entries = _clean(field, n, entries or {})
        self._hash = None

    @classmethod
    def _trusted(cls, field: Field, n: int, entries: dict):
        """Wrap entries that are already strictly upper and zero-free, unchecked."""
        self = cls.__new__(cls)
        self.field = field
        self.n = n
        self.entries = entries
        self._hash = None
        return self

    def get(self, i: int, j: int) -> FieldElement:
        return self.entries.get((i, j), self.field.zero)

    def items(self):
        """Entries in lex position order (deterministic)."""
        return sorted(self.entries.items())

    def support(self) -> frozenset[tuple[int, int]]:
        return frozenset(self.entries)

    def __bool__(self) -> bool:
        return bool(self.entries)

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if type(other) is not type(self):
            return NotImplemented
        return (
            self.n == other.n
            and self.entries == other.entries
            and self.field == other.field
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(
                (type(self).__name__, self.field.p, self.field.k, self.n,
                 frozenset(self.entries.items()))
            )
        return self._hash

    def _combine(self, other, minus=False):
        _same_ring(other, self.field, self.n)
        out = dict(self.entries)
        for pos, v in other.entries.items():
            w = out.get(pos, self.field.zero) + (-v if minus else v)
            if w:
                out[pos] = w
            else:
                out.pop(pos, None)
        return self._trusted(self.field, self.n, out)

    def __add__(self, other):
        return self._combine(other)

    def __sub__(self, other):
        return self._combine(other, minus=True)

    def __neg__(self):
        return self._trusted(self.field, self.n, {p: -v for p, v in self.entries.items()})

    def scale(self, a: FieldElement):
        _same_ring(self, a.field, self.n)
        if not a:
            return self._trusted(self.field, self.n, {})
        return self._trusted(self.field, self.n, {p: a * v for p, v in self.entries.items()})

    def _body(self) -> str:
        if not self.entries:
            return "0"
        return " + ".join(
            (f"{v}*" if v != self.field.one else "") + f"({i},{j})"
            for (i, j), v in self.items()
        )


class NilMatrix(_SparseUpper):
    """An element of the strictly upper triangular nilpotent algebra."""

    def as_functional(self) -> "Functional":
        return Functional._trusted(self.field, self.n, self.entries)

    def __repr__(self) -> str:
        return f"NilMatrix(n={self.n}, {self._body()})"


class Functional(_SparseUpper):
    """A linear functional, stored by its values on the matrix units."""

    def as_matrix(self) -> NilMatrix:
        return NilMatrix._trusted(self.field, self.n, self.entries)

    def __call__(self, x: NilMatrix) -> FieldElement:
        return evaluate(self, x)

    def __repr__(self) -> str:
        return f"Functional(n={self.n}, {self._body()})"


def e_ij(field: Field, n: int, i: int, j: int, a: FieldElement | None = None) -> NilMatrix:
    return NilMatrix(field, n, {(i, j): field.one if a is None else a})


def eps_ij(field: Field, n: int, i: int, j: int, a: FieldElement | None = None) -> Functional:
    return Functional(field, n, {(i, j): field.one if a is None else a})


def nil_mul(x: NilMatrix, y: NilMatrix) -> NilMatrix:
    """Matrix product of two strictly upper matrices (again strictly upper)."""
    _same_ring(y, x.field, x.n)
    out: dict = {}
    for (i, k), a in x.entries.items():
        for (k2, j), b in y.entries.items():
            if k2 == k:
                w = out.get((i, j), x.field.zero) + a * b
                if w:
                    out[(i, j)] = w
                else:
                    out.pop((i, j), None)
    return NilMatrix._trusted(x.field, x.n, out)


class UniMatrix:
    """A unipotent group element I + off."""

    __slots__ = ("off", "_hash", "_by_col", "_by_row")

    def __init__(self, off: NilMatrix):
        self.off = off
        self._hash = None
        self._by_col = None
        self._by_row = None

    def _col_index(self) -> tuple[tuple[tuple[int, FieldElement], ...], ...]:
        """[b] holds (l, y) for every entry y at (l, b) of g - I; built once."""
        if self._by_col is None:
            cols = [[] for _ in range(self.n + 1)]
            for (l, b), y in self.off.entries.items():
                cols[b].append((l, y))
            self._by_col = tuple(map(tuple, cols))
        return self._by_col

    def _row_index(self) -> tuple[tuple[tuple[int, FieldElement], ...], ...]:
        """[a] holds (k, y) for every entry y at (a, k) of g - I; built once."""
        if self._by_row is None:
            rows = [[] for _ in range(self.n + 1)]
            for (a, k), y in self.off.entries.items():
                rows[a].append((k, y))
            self._by_row = tuple(map(tuple, rows))
        return self._by_row

    @property
    def field(self) -> Field:
        return self.off.field

    @property
    def n(self) -> int:
        return self.off.n

    def __mul__(self, other: "UniMatrix") -> "UniMatrix":
        """(I+X)(I+Y) = I + X + Y + XY."""
        return UniMatrix(self.off + other.off + nil_mul(self.off, other.off))

    def inv(self) -> "UniMatrix":
        """(I+X)^(-1) = I - X + X^2 - ..., at most n-1 terms."""
        acc = self.off.scale(-self.field.one)
        power = self.off
        sign = True  # next term is +X^t for even t
        while True:
            power = nil_mul(power, self.off)
            if not power:
                break
            acc = acc + power if sign else acc - power
            sign = not sign
        return UniMatrix(acc)

    def __eq__(self, other) -> bool:
        if not isinstance(other, UniMatrix):
            return NotImplemented
        return self.off == other.off

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(("uni", self.off))
        return self._hash

    def __reduce__(self):
        return (UniMatrix, (self.off,))

    def __repr__(self) -> str:
        return f"UniMatrix(n={self.n}, I + {self.off._body()})"


def identity(field: Field, n: int) -> UniMatrix:
    return UniMatrix(NilMatrix(field, n, {}))


def elementary(field: Field, n: int, i: int, j: int, a: FieldElement) -> UniMatrix:
    """The generator I + a*e_ij."""
    return UniMatrix(NilMatrix(field, n, {(i, j): a}))


# -- actions on the algebra -------------------------------------------------

def act_left(g: UniMatrix, x: NilMatrix) -> NilMatrix:
    """g . x  (a sequence of row operations).

    On entries: new x_lj = x_lj + sum over entries (l,k) of g-I of
    y_lk * x_kj, so each entry (k,j) of x meets column k of g - I.
    """
    _same_ring(g.off, x.field, x.n)
    out = dict(x.entries)
    zero = x.field.zero
    cols = g._col_index()
    for (k, j), b in x.entries.items():
        for l, y in cols[k]:
            w = out.get((l, j), zero) + y * b
            if w:
                out[(l, j)] = w
            else:
                out.pop((l, j), None)
    return NilMatrix._trusted(x.field, x.n, out)


def act_right(x: NilMatrix, g: UniMatrix) -> NilMatrix:
    """x . g  (a sequence of column operations).

    On entries: new x_ij = x_ij + sum over entries (k,j) of g-I of
    x_ik * y_kj, so each entry (i,k) of x meets row k of g - I.
    """
    _same_ring(g.off, x.field, x.n)
    out = dict(x.entries)
    zero = x.field.zero
    rows = g._row_index()
    for (i, k), a in x.entries.items():
        for j, y in rows[k]:
            w = out.get((i, j), zero) + a * y
            if w:
                out[(i, j)] = w
            else:
                out.pop((i, j), None)
    return NilMatrix._trusted(x.field, x.n, out)


def act_adjoint(g: UniMatrix, x: NilMatrix) -> NilMatrix:
    """g . x . g^(-1)."""
    return act_right(act_left(g, x), g.inv())


def conj(g: UniMatrix, h: UniMatrix) -> UniMatrix:
    """g h g^(-1); matches act_adjoint through h = I + x."""
    return g * h * g.inv()


# -- actions on the dual ----------------------------------------------------

def coact_left(g: UniMatrix, lam: Functional) -> Functional:
    """(g * lam)(x) = lam(x . g).

    On coefficients: new c_kl = c_kl + sum over entries (l,b) of g-I of
    y_lb * c_kb, a restricted column operation on the coefficient matrix.
    """
    _same_ring(g.off, lam.field, lam.n)
    out = dict(lam.entries)
    zero = lam.field.zero
    cols = g._col_index()
    for (k, b), c in lam.entries.items():
        for l, y in cols[b]:
            if k < l:
                w = out.get((k, l), zero) + y * c
                if w:
                    out[(k, l)] = w
                else:
                    out.pop((k, l), None)
    return Functional._trusted(lam.field, lam.n, out)


def fixes_left(g: UniMatrix, lam: Functional) -> bool:
    """coact_left(g, lam) == lam, without building the image.

    Sums coact_left's increments y_lb * c_kb per position (k,l) and asks
    that every sum vanish.
    """
    _same_ring(g.off, lam.field, lam.n)
    cols = g._col_index()
    inc: dict = {}
    for (k, b), c in lam.entries.items():
        for l, y in cols[b]:
            if k < l:
                w = y * c
                prev = inc.get((k, l))
                inc[(k, l)] = w if prev is None else prev + w
    return not any(inc.values())


def coact_right(lam: Functional, g: UniMatrix) -> Functional:
    """(lam * g)(x) = lam(g . x).

    On coefficients: new c_kl = c_kl + sum over entries (a,k) of g-I of
    y_ak * c_al, a restricted row operation on the coefficient matrix.
    """
    _same_ring(g.off, lam.field, lam.n)
    out = dict(lam.entries)
    zero = lam.field.zero
    rows = g._row_index()
    for (a, l), c in lam.entries.items():
        for k, y in rows[a]:
            if l > k:
                w = out.get((k, l), zero) + y * c
                if w:
                    out[(k, l)] = w
                else:
                    out.pop((k, l), None)
    return Functional._trusted(lam.field, lam.n, out)


def coact_coadjoint(lam: Functional, g: UniMatrix) -> Functional:
    """lam^g(x) = lam(g^(-1) . x . g) = g * lam * g^(-1)."""
    return coact_left(g, coact_right(lam, g.inv()))


def evaluate(lam: Functional, x: NilMatrix) -> FieldElement:
    """lam(x) = sum of c_ij * x_ij."""
    _same_ring(x, lam.field, lam.n)
    small, big = (lam.entries, x.entries) if len(lam.entries) <= len(x.entries) else (x.entries, lam.entries)
    total = lam.field.zero
    for pos, v in small.items():
        w = big.get(pos)
        if w is not None:
            total = total + v * w
    return total

