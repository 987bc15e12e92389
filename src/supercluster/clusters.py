"""Classification of double orbits by rook-placement templates, and their invariants.

A template is a strictly upper matrix (or functional) with at most one
non-zero entry per row and per column.  Every adjoint double orbit in the
nilpotent algebra and every coadjoint double orbit in its dual contains
exactly one template; the reduction sweeps below find it constructively and
return witness group elements, so each call certifies itself.

Two integers control everything downstream: the dimension index d (total
distance from the support to the second diagonal) and the intertwining
index i (number of L-shaped hook corners).  For a template the orbit sizes
are |left orbit| = q^d and |double orbit| = q^(2d-i).  The adjoint double
orbit of a template has q^|L ∪ R| points, where L holds the positions above
a cell in its column and R those right of a cell in its row.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import comb

from . import linalg
from .errors import InvariantViolation
from .gf import Field, FieldElement
from .core import (
    Functional,
    NilMatrix,
    UniMatrix,
    act_left,
    act_right,
    coact_left,
    coact_right,
    elementary,
    identity,
    positions,
)


class Template:
    """Canonical representative of a cluster: a valued rook placement.

    The same type serves the adjoint role (a matrix) and the coadjoint role
    (a functional); values are part of the identity, never normalized.
    """

    __slots__ = ("field", "n", "cells", "_hash")

    def __init__(self, field: Field, n: int, cells):
        cells = tuple(sorted(((i, j, v) for (i, j, v) in cells), key=lambda c: (c[0], c[1])))
        rows = [i for i, _, _ in cells]
        cols = [j for _, j, _ in cells]
        if len(set(rows)) != len(rows) or len(set(cols)) != len(cols):
            raise ValueError("cells do not form a rook placement")
        for i, j, v in cells:
            if not (1 <= i < j <= n):
                raise ValueError(f"cell ({i},{j}) out of range for n={n}")
            if not v:
                raise ValueError("template cells must be non-zero")
            if v.field is not field and v.field != field:
                raise ValueError(f"cell value {v} is from {v.field!r}, not {field!r}")
        self.field = field
        self.n = n
        self.cells = cells
        self._hash = hash((field.p, field.k, n, cells))

    def support(self) -> frozenset[tuple[int, int]]:
        return frozenset((i, j) for i, j, _ in self.cells)

    def as_functional(self) -> Functional:
        return Functional(self.field, self.n, {(i, j): v for i, j, v in self.cells})

    def as_matrix(self) -> NilMatrix:
        return NilMatrix(self.field, self.n, {(i, j): v for i, j, v in self.cells})

    def sort_key(self):
        return (
            tuple((i, j) for i, j, _ in self.cells),
            tuple(v.index for _, _, v in self.cells),
        )

    def text(self) -> str:
        if not self.cells:
            return "0"
        return ";".join(f"({i},{j})={v}" for i, j, v in self.cells)

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, Template):
            return NotImplemented
        return self.n == other.n and self.cells == other.cells and self.field == other.field

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Template(n={self.n}, {self.text()})"


def parse_template(field: Field, n: int, text: str) -> Template:
    """Inverse of Template.text()."""
    text = text.strip()
    if text == "0":
        return Template(field, n, [])
    cells = []
    for part in text.split(";"):
        pos, _, val = part.partition("=")
        i, j = pos.strip().lstrip("(").rstrip(")").split(",")
        cells.append((int(i), int(j), field.parse(val)))
    return Template(field, n, cells)


def template_of_functional(lam: Functional) -> Template:
    """View an (already rook) functional as a Template."""
    return Template(lam.field, lam.n, [(i, j, v) for (i, j), v in lam.entries.items()])


def template_of_matrix(x: NilMatrix) -> Template:
    return Template(x.field, x.n, [(i, j, v) for (i, j), v in x.entries.items()])


@dataclass(frozen=True)
class ClusterInvariants:
    d: int
    i: int
    d_rows: tuple[int, ...]  # d(k, tau) for k = 1 .. n-1


# -- reduction sweeps ---------------------------------------------------------

def adjoint_template_of(x: NilMatrix) -> tuple[Template, UniMatrix, UniMatrix]:
    """The unique template in the adjoint cluster of x, with witnesses.

    Sweeps columns left to right: in each new column, column operations kill
    entries sharing a row with an already placed entry, then row operations
    kill all but the bottom survivor.  Returns (t, g, h) with g.x.h = t.
    Ties are broken in strict column-major order so witnesses are canonical.
    """
    field, n = x.field, x.n
    work = x
    g = identity(field, n)
    h = identity(field, n)
    for c in range(2, n + 1):
        for r in sorted(r0 for (r0, c0) in work.entries if c0 == c):
            left = next((c0 for (r0, c0) in sorted(work.entries) if r0 == r and c0 < c), None)
            if left is not None:
                a = -(work.get(r, c) * work.get(r, left).inverse())
                op = elementary(field, n, left, c, a)
                work = act_right(work, op)
                h = h * op
        rows = sorted(r0 for (r0, c0) in work.entries if c0 == c)
        if len(rows) > 1:
            bottom = rows[-1]
            for r in rows[:-1]:
                a = -(work.get(r, c) * work.get(bottom, c).inverse())
                op = elementary(field, n, r, bottom, a)
                work = act_left(op, work)
                g = op * g
    t = template_of_matrix(work)
    if act_right(act_left(g, x), h) != work:
        raise InvariantViolation("adjoint reduction witnesses do not reproduce the template")
    return t, g, h


def coadjoint_template_of(lam: Functional) -> tuple[Template, UniMatrix, UniMatrix]:
    """The unique template in the coadjoint cluster of lam, with witnesses.

    Mirror sweep of adjoint_template_of: columns right to left, restricted
    column operations kill entries sharing a row with an entry to the right,
    restricted row operations keep the top survivor.  Returns (t, g, h) with
    g * lam * h = t.
    """
    field, n = lam.field, lam.n
    work = lam
    g = identity(field, n)
    h = identity(field, n)
    for c in range(n, 1, -1):
        for r in sorted(r0 for (r0, c0) in work.entries if c0 == c):
            right = next((c0 for (r0, c0) in sorted(work.entries) if r0 == r and c0 > c), None)
            if right is not None:
                a = -(work.get(r, c) * work.get(r, right).inverse())
                op = elementary(field, n, c, right, a)
                work = coact_left(op, work)
                g = op * g
        rows = sorted(r0 for (r0, c0) in work.entries if c0 == c)
        if len(rows) > 1:
            top = rows[0]
            for r in rows[1:]:
                a = -(work.get(r, c) * work.get(top, c).inverse())
                op = elementary(field, n, top, r, a)
                work = coact_right(work, op)
                h = h * op
    t = template_of_functional(work)
    if coact_left(g, coact_right(lam, h)) != work:
        raise InvariantViolation("coadjoint reduction witnesses do not reproduce the template")
    return t, g, h


_COADJ_MEMO: dict[Functional, Template] = {}


def coadjoint_template(lam: Functional) -> Template:
    t = _COADJ_MEMO.get(lam)
    if t is None:
        t = coadjoint_template_of(lam)[0]
        _COADJ_MEMO[lam] = t
    return t


# -- rank invariants ----------------------------------------------------------

def _matrix_rank(field: Field, n: int, entries: dict) -> int:
    rows = {}
    for (i, j), v in entries.items():
        rows.setdefault(i, {})[j] = v
    dense = [[row.get(j, field.zero) for j in range(1, n + 1)] for row in rows.values()]
    return linalg.rank(dense)


def rank_invariant(i: int, j: int, x: NilMatrix) -> int:
    """Rank of the window keeping entries (k,l) with i <= k < l <= j."""
    if not (1 <= i < j <= x.n):
        raise ValueError(f"bad window ({i},{j})")
    win = {(k, l): v for (k, l), v in x.entries.items() if i <= k and l <= j}
    return _matrix_rank(x.field, x.n, win)


def rank_invariant_dual(i: int, j: int, lam: Functional) -> int:
    """Rank of the window keeping entries (k,l) with k <= i < j <= l."""
    if not (1 <= i < j <= lam.n):
        raise ValueError(f"bad window ({i},{j})")
    win = {(k, l): v for (k, l), v in lam.entries.items() if k <= i and j <= l}
    return _matrix_rank(lam.field, lam.n, win)


# -- the two indices ----------------------------------------------------------

def invariants_of(tau: Template) -> ClusterInvariants:
    """d, i and the per-row dimensions d(k, tau), all read off the support.

    d sums the distances j-i-1 to the second diagonal.  i counts corners
    (i,j) of L-shaped hooks: a support cell above in the same column and a
    support cell to the right in the same row, the corner itself strictly
    upper.  d(k, tau) counts support cells straddling row k (i < k < j).
    """
    supp = [(i, j) for i, j, _ in tau.cells]
    d = sum(j - i - 1 for i, j in supp)
    hooks = 0
    for ai, aj in supp:  # upper cell of the hook, in the corner's column
        for bi, bj in supp:  # right cell of the hook, in the corner's row
            if ai < bi and aj < bj and bi < aj:
                hooks += 1
    d_rows = tuple(sum(1 for i, j in supp if i < k < j) for k in range(1, tau.n))
    return ClusterInvariants(d=d, i=hooks, d_rows=d_rows)


# -- the orbit subspaces, for arbitrary functionals ---------------------------

def _pos_index(n: int) -> dict[tuple[int, int], int]:
    return {pos: k for k, pos in enumerate(positions(n))}


def _lhat_vectors(lam: Functional) -> list[list[FieldElement]]:
    """Spanning vectors of {x -> lam(x.y) : y nilpotent}, one per basis y."""
    n = lam.n
    idx = _pos_index(n)
    zero = lam.field.zero
    vecs = []
    for (i, j) in positions(n):
        vec = None
        for (k, j2), c in lam.entries.items():
            if j2 == j and k < i:
                if vec is None:
                    vec = [zero] * len(idx)
                vec[idx[(k, i)]] = vec[idx[(k, i)]] + c
        if vec is not None:
            vecs.append(vec)
    return vecs


def _rhat_vectors(lam: Functional) -> list[list[FieldElement]]:
    """Spanning vectors of {x -> lam(y.x) : y nilpotent}."""
    n = lam.n
    idx = _pos_index(n)
    zero = lam.field.zero
    vecs = []
    for (i, j) in positions(n):
        vec = None
        for (i2, l), c in lam.entries.items():
            if i2 == i and l > j:
                if vec is None:
                    vec = [zero] * len(idx)
                vec[idx[(j, l)]] = vec[idx[(j, l)]] + c
        if vec is not None:
            vecs.append(vec)
    return vecs


def lhat_dim(lam: Functional) -> int:
    return linalg.rank(_lhat_vectors(lam))


def rhat_dim(lam: Functional) -> int:
    return linalg.rank(_rhat_vectors(lam))


def intersection_dim(lam: Functional) -> int:
    return linalg.intersection_dim(_lhat_vectors(lam), _rhat_vectors(lam))


# -- sizes --------------------------------------------------------------------

def cluster_size(tau: Template) -> int:
    """Size of the coadjoint cluster: q^(2d - i)."""
    inv = invariants_of(tau)
    return tau.field.q ** (2 * inv.d - inv.i)


def adjoint_cluster_size(tau: Template) -> int:
    """Size of the adjoint cluster of tau: q^|L ∪ R|.

    With one cell per row and per column, every entry of y.tau and of
    tau.y (y nilpotent) is a single product y_ab * t_bm or t_bm * y_mc.  So
    U.tau - tau is the coordinate subspace on L, the positions (a, m) above
    a cell (b, m), and tau.U - tau the one on R, the positions (b, c) right
    of a cell (b, m); |U.tau| * |tau.U| / |U.tau ∩ tau.U| = q^|L ∪ R|.
    """
    moved = set()
    for b, m, _ in tau.cells:
        moved.update((a, m) for a in range(1, b))
        moved.update((b, c) for c in range(m + 1, tau.n + 1))
    return tau.field.q ** len(moved)


# -- explicit orbit and cluster elements --------------------------------------

def _span_translates(base: Functional, basis: list[list[FieldElement]]) -> list[Functional]:
    """base + every combination of the basis vectors."""
    field, n = base.field, base.n
    pts = positions(n)
    out = []
    for coeffs in product(field.elements, repeat=len(basis)):
        entries = dict(base.entries)
        for c, row in zip(coeffs, basis):
            if not c:
                continue
            for k, v in enumerate(row):
                if v:
                    pos = pts[k]
                    w = entries.get(pos, field.zero) + c * v
                    if w:
                        entries[pos] = w
                    else:
                        entries.pop(pos, None)
        out.append(Functional(field, n, entries))
    return out


def left_orbit_elements(lam: Functional) -> list[Functional]:
    """The left orbit lam + L-hat(lam), enumerated explicitly."""
    return _span_translates(lam, linalg.echelon(_lhat_vectors(lam)))


def right_orbit_elements(lam: Functional) -> list[Functional]:
    return _span_translates(lam, linalg.echelon(_rhat_vectors(lam)))


_CLUSTER_MEMO: dict[Template, tuple[Functional, ...]] = {}


def cluster_elements(tau: Template) -> tuple[Functional, ...]:
    """Every element of the coadjoint cluster of tau.

    Built structurally as the union of left orbits over the right orbit of
    tau (no group BFS); the element count is checked against q^(2d-i).
    """
    cached = _CLUSTER_MEMO.get(tau)
    if cached is not None:
        return cached
    seen: set[Functional] = set()
    for mu in right_orbit_elements(tau.as_functional()):
        seen.update(left_orbit_elements(mu))
    if len(seen) != cluster_size(tau):
        raise InvariantViolation(
            f"cluster of {tau.text()} has {len(seen)} elements, expected {cluster_size(tau)}"
        )
    elems = tuple(sorted(seen, key=lambda f: f.sort_key()))
    _CLUSTER_MEMO[tau] = elems
    return elems


def clear_memos() -> None:
    """Empty the module's classification and cluster-element memos."""
    _COADJ_MEMO.clear()
    _CLUSTER_MEMO.clear()


# -- enumeration and counting -------------------------------------------------

def enumerate_templates(n: int, field: Field) -> list[Template]:
    """All templates, ordered lexicographically by (position set, value indices)."""
    pts = positions(n)
    out: list[Template] = []

    def emit(chosen: list[tuple[int, int]]):
        if not chosen:
            out.append(Template(field, n, []))
            return
        for values in product(field.nonzero, repeat=len(chosen)):
            out.append(Template(field, n, [(i, j, v) for (i, j), v in zip(chosen, values)]))

    def extend(chosen: list[tuple[int, int]], start: int):
        emit(chosen)
        rows = {i for i, _ in chosen}
        cols = {j for _, j in chosen}
        for k in range(start, len(pts)):
            i, j = pts[k]
            if i in rows or j in cols:
                continue
            chosen.append((i, j))
            extend(chosen, k + 1)
            chosen.pop()

    extend([], 0)
    return out


def bell_poly(n: int, q: int) -> int:
    """Number of templates, by the Bell-style recurrence; exact integer."""
    if n < 0:
        raise ValueError("n must be >= 0")
    b = [1]
    for m in range(n):
        b.append(sum(comb(m, k) * (q - 1) ** (m - k) * b[k] for k in range(m + 1)))
    return b[n]
