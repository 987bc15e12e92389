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

from functools import lru_cache
from itertools import count, islice, product
from math import comb

from . import linalg
from .errors import InvariantViolation, ResourceCapExceeded
from .gf import Field
from .core import (
    Functional,
    NilMatrix,
    UniMatrix,
    act_left,
    act_right,
    coact_left,
    coact_right,
    identity,
    positions,
)

# Entries of each bounded memo of the engine, across all callers: the
# left-orbit splits here and tensor's two step caches, rewrite and count.
MEMO_SIZE = 2**14


class Template:
    """Canonical representative of a cluster: a valued rook placement.

    The same type serves the adjoint role (a matrix) and the coadjoint role
    (a functional); values are part of the identity, never normalized.
    """

    __slots__ = ("field", "n", "cells", "_hash", "_invariants")

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
        self._invariants = None  # invariants_of's result, made on first use

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


class ClusterInvariants:
    """d, i and d_rows, d(k, tau) for k = 1 .. n-1, of a template: a value,
    equal and hashing equal when all three are."""

    def __init__(self, d: int, i: int, d_rows: tuple[int, ...]):
        self.d, self.i, self.d_rows = d, i, d_rows

    def __eq__(self, other):
        return vars(self) == vars(other) if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash((self.d, self.i, self.d_rows))


# -- reduction sweeps ---------------------------------------------------------
#
# Both sweeps run on the point's field-index rows (_index_rows) and record
# each elementary operation I + a*e_ij as (i, j, a), a a field index.  The
# witnesses are composed once at the end (_compose), and each sweep checks
# them through core's actions before it returns.  A side that recorded no
# operation is the identity: it is neither composed nor applied, so a point
# that is already its template is compared with the rook as it is.


def _compose(field: Field, n: int, ops, on_left: bool) -> UniMatrix:
    """The product of the operations I + a*e_ij of ops, each (i, j, a) with
    a a field index, in the order ops lists them: op_k ... op_1 when each
    was applied on the left (row i += a * row j), op_1 ... op_k when on the
    right (column j += a * column i).  The product is kept as the index
    entries of its part above the diagonal; the diagonal 1 of row j (or
    column i) adds a at (i, j).  Every position built is strictly upper, so
    only the entries that cancel to zero are dropped, and nothing is checked
    again.  One operation is its own product."""
    els = field.elements
    if len(ops) == 1:
        i, j, a = ops[0]
        return UniMatrix(NilMatrix._trusted(field, n, {(i, j): els[a]} if a else {}))
    add, mul = field.add_idx, field.mul_idx
    off: dict[tuple[int, int], int] = {}
    for i, j, a in ops:
        scale = mul[a]
        if on_left:
            moved = [((i, c), scale[v]) for (r, c), v in off.items() if r == j]
        else:
            moved = [((r, j), scale[v]) for (r, c), v in off.items() if c == i]
        moved.append(((i, j), a))
        for pos, v in moved:
            off[pos] = add[off.get(pos, 0)][v]
    return UniMatrix(NilMatrix._trusted(field, n, {pos: els[v] for pos, v in off.items() if v}))


def _or_identity(g: UniMatrix | None, field: Field, n: int) -> UniMatrix:
    """A sweep core's witness, the identity where it is None."""
    return identity(field, n) if g is None else g


def adjoint_template_of(x: NilMatrix) -> tuple[Template, UniMatrix, UniMatrix]:
    """The unique template in the adjoint cluster of x, with witnesses.

    Sweeps columns left to right: in each new column, column operations kill
    entries sharing a row with an already placed entry, then row operations
    kill all but the bottom survivor.  Returns (t, g, h) with g.x.h = t.
    Ties are broken in strict column-major order so witnesses are canonical.
    A thin wrapper over _adjoint_sweep, which runs on x's index rows and
    checks the witnesses.
    """
    field, n = x.field, x.n
    cells, g, h = _adjoint_sweep(x, _index_rows(x))
    els = field.elements
    return (Template(field, n, [(i, j, els[v]) for i, j, v in cells]),
            _or_identity(g, field, n), _or_identity(h, field, n))


def _adjoint_sweep(x: NilMatrix, m: list[list[int]]
                   ) -> tuple[tuple, UniMatrix | None, UniMatrix | None]:
    """The adjoint sweep of x on its index rows m, which it reduces in
    place: returns (cells, g, h), cells the (i, j, index) entries of the
    template in lex order.  g is the product of the row operations and h
    of the column operations, each composed once, or None where that side
    recorded none (the identity, which is not applied).  act_left/act_right
    must carry x onto the template's matrix with them, or
    InvariantViolation names x.
    """
    field, n = x.field, x.n
    add, mul, neg, inv = field.add_idx, field.mul_idx, field.neg_idx, field.inv_idx
    row_ops, col_ops = [], []
    for c in range(1, n):
        for r in range(c):
            row = m[r]
            if not row[c]:
                continue
            for left in range(r + 1, c):
                if row[left]:
                    a = neg[mul[row[c]][inv[row[left]]]]
                    scale = mul[a]
                    for other in m:  # column c += a * column left
                        other[c] = add[other[c]][scale[other[left]]]
                    col_ops.append((left + 1, c + 1, a))
                    break
        rows = [r for r in range(c) if m[r][c]]
        if len(rows) < 2:
            continue
        bottom = m[rows[-1]]
        for r in rows[:-1]:  # row r += a * row bottom
            a = neg[mul[m[r][c]][inv[bottom[c]]]]
            scale = mul[a]
            m[r] = [add[v][scale[b]] for v, b in zip(m[r], bottom)]
            row_ops.append((r + 1, rows[-1] + 1, a))
    cells = tuple([(i + 1, j + 1, v) for i, row in enumerate(m) for j, v in enumerate(row) if v])
    els = field.elements
    rook = NilMatrix._trusted(field, n, {(i, j): els[v] for i, j, v in cells})
    g = _compose(field, n, row_ops, on_left=True) if row_ops else None
    h = _compose(field, n, col_ops, on_left=False) if col_ops else None
    moved = x if g is None else act_left(g, x)
    if h is not None:
        moved = act_right(moved, h)
    if moved != rook:
        raise InvariantViolation(f"witnesses for {x!r} do not reproduce the template")
    return cells, g, h


def coadjoint_template_of(lam: Functional) -> tuple[Template, UniMatrix, UniMatrix]:
    """The unique template in the coadjoint cluster of lam, with witnesses.

    Mirror sweep of adjoint_template_of: columns right to left, restricted
    column operations kill entries sharing a row with an entry to the right,
    restricted row operations keep the top survivor.  Returns (t, g, h) with
    g * lam * h = t.  A thin wrapper over _coadjoint_sweep, which runs on
    lam's index rows and checks the witnesses.
    """
    field, n = lam.field, lam.n
    cells, g, h = _coadjoint_sweep(lam, _index_rows(lam))
    els = field.elements
    return (Template(field, n, [(i, j, els[v]) for i, j, v in cells]),
            _or_identity(g, field, n), _or_identity(h, field, n))


def _coadjoint_sweep(lam: Functional, m: list[list[int]]
                     ) -> tuple[tuple, UniMatrix | None, UniMatrix | None]:
    """The coadjoint sweep of lam on its index rows m, which it reduces in
    place: returns (cells, g, h), cells the (i, j, index) entries of the
    template in lex order.  The operations are recorded, and g and h are
    each composed once, or None where that side recorded none (the
    identity, which is not applied).  coact_left/coact_right must carry lam
    onto the template's functional with them, or InvariantViolation names
    lam.
    """
    field, n = lam.field, lam.n
    add, mul, neg, inv = field.add_idx, field.mul_idx, field.neg_idx, field.inv_idx
    left_ops, right_ops = [], []
    for c in range(n - 1, 0, -1):
        for r in range(c):
            row = m[r]
            if not row[c]:
                continue
            for right in range(c + 1, n):
                if row[right]:
                    a = neg[mul[row[c]][inv[row[right]]]]
                    scale = mul[a]
                    for above in range(c):  # column c += a * column right, rows above c
                        other = m[above]
                        other[c] = add[other[c]][scale[other[right]]]
                    left_ops.append((c + 1, right + 1, a))
                    break
        rows = [r for r in range(c) if m[r][c]]
        if len(rows) < 2:
            continue
        top = m[rows[0]]
        for r in rows[1:]:  # row r += a * row top, columns right of r
            a = neg[mul[m[r][c]][inv[top[c]]]]
            scale = mul[a]
            row = m[r]
            for l in range(r + 1, n):
                row[l] = add[row[l]][scale[top[l]]]
            right_ops.append((rows[0] + 1, r + 1, a))
    cells = tuple([(i + 1, j + 1, v) for i, row in enumerate(m) for j, v in enumerate(row) if v])
    els = field.elements
    rook = Functional._trusted(field, n, {(i, j): els[v] for i, j, v in cells})
    g = _compose(field, n, left_ops, on_left=True) if left_ops else None
    h = _compose(field, n, right_ops, on_left=False) if right_ops else None
    moved = lam if h is None else coact_right(lam, h)
    if g is not None:
        moved = coact_left(g, moved)
    if moved != rook:
        raise InvariantViolation(f"witnesses for {lam!r} do not reproduce the template")
    return cells, g, h


# -- rank invariants ----------------------------------------------------------
#
# Window (i, j) of a matrix keeps the entries (k, l) with i <= k < l <= j;
# window (i, j) of a functional keeps those with k <= i < j <= l.  Their
# ranks are constant on clusters, and on a template they count the cells
# inside the window.  Both sides are computed from the point's own index
# rows, a row at a time (WindowRanks): a window of a functional that
# starts at row i reads only rows 1..i, and a window of a matrix that ends
# at column j reads only rows 1..j-1, so each row's step depends on the
# rows above it alone, and points that share their first rows share those
# steps.

def _lex(n: int, i: int, j: int) -> int:
    """Place of (i, j) in positions(n)."""
    return (i - 1) * n - i * (i - 1) // 2 + j - i - 1


def _index_rows(p: NilMatrix | Functional) -> list[list[int]]:
    """Rows 1..n of p as lists of field indices over columns 1..n."""
    rows = [[0] * p.n for _ in range(p.n)]
    for (i, j), v in p.entries.items():
        rows[i - 1][j - 1] = v.index
    return rows


def _matrix_window_step(field: Field, n: int, k: int, rows, state) -> tuple:
    """Row k of a matrix: the ranks of the windows (i, k+1), i = 1..k.  One
    basis takes rows k, k-1, ..., 1 over columns up to k+1 in turn; its rank
    after row i is that of window (i, k+1).  Keeps no state."""
    basis = linalg.Echelon(field)
    ranks = [0] * k
    for i in range(k, 0, -1):
        basis.insert(rows[i - 1][: k + 1])
        ranks[i - 1] = len(basis)
    return state, ranks


def _dual_window_step(field: Field, n: int, k: int, rows, state) -> tuple:
    """Row k of a functional: the ranks of the windows (k, j), j = k+1..n.
    state holds one basis per j > k, spanned by rows 1..k-1 over columns j
    and up; each grows by row k over the same columns, and its rank is that
    of window (k, j).  The grown bases for j > k+1 are the next state."""
    row = rows[k - 1]
    grown, ranks = [], []
    for j, basis in zip(range(k + 1, n + 1), state):
        basis = basis.copy()
        basis.insert(row[j - 1:])
        grown.append(basis)
        ranks.append(len(basis))
    return grown[1:], ranks


class _RowSteps:
    """The row-prefix walk that WindowRanks and HatDims share: step(field,
    n, k, rows, state) -> (state, out) is row k's step, for k = 1..last,
    from the state after row k-1 (start before row 1), and reads only
    rows 1..k.  Rows after last are neither stepped nor compared.

    Called on one point's index rows after another, it keeps the steps of
    the last point's rows and redoes only those from the first row that
    differs, so a walk in code order, where row 1 changes slowest, steps
    each row prefix once.  Every step still runs on rows equal to the
    point's own.
    """

    def __init__(self, field: Field, n: int, step, start, last: int):
        self.field, self.n, self._step, self._last = field, n, step, last
        self._rows: list = []  # the rows stepped, 1..k
        self._states: list = [start]  # the state before row 1, then after each row
        self._outs: list = []  # each stepped row's out

    def _walk(self, rows) -> list:
        """Step rows; the outs of rows 1..last, and the last state is
        self._states[-1]."""
        kept = 0
        while kept < len(self._rows) and self._rows[kept] == rows[kept]:
            kept += 1
        del self._rows[kept:], self._states[kept + 1:], self._outs[kept:]
        for k in range(kept + 1, self._last + 1):
            state, out = self._step(self.field, self.n, k, rows, self._states[-1])
            self._rows.append(rows[k - 1])
            self._states.append(state)
            self._outs.append(out)
        return self._outs


class WindowRanks(_RowSteps):
    """rows -> the rank of every window (i, j) of the point with these index
    rows (rows 1..n over columns 1..n), in positions(n) order, for one side:
    "adjoint" (matrices) or "coadjoint" (functionals), stepped row by row
    and sharing each row prefix with the last point (_RowSteps).
    """

    def __init__(self, field: Field, n: int, side: str):
        if side == "coadjoint":
            super().__init__(field, n, _dual_window_step,
                             [linalg.Echelon(field) for _ in range(2, n + 1)], n - 1)
            self._order = list(range(n * (n - 1) // 2))
        else:
            super().__init__(field, n, _matrix_window_step, None, n - 1)
            # row k's step gives the windows ending at column k+1
            self._order = [(j - 1) * (j - 2) // 2 + i - 1 for i, j in positions(n)]

    def __call__(self, rows) -> tuple[int, ...]:
        flat = [r for ranks in self._walk(rows) for r in ranks]
        return tuple([flat[m] for m in self._order])


# -- the two indices ----------------------------------------------------------

def invariants_of(tau: Template) -> ClusterInvariants:
    """d, i and the per-row dimensions d(k, tau), all read off the support.

    d sums the distances j-i-1 to the second diagonal.  i counts corners
    (i,j) of L-shaped hooks: a support cell above in the same column and a
    support cell to the right in the same row, the corner itself strictly
    upper.  d(k, tau) counts support cells straddling row k (i < k < j).
    Computed once per template, which keeps the result.
    """
    if tau._invariants is None:
        supp = [(i, j) for i, j, _ in tau.cells]
        d = sum(j - i - 1 for i, j in supp)
        hooks = 0
        for ai, aj in supp:  # upper cell of the hook, in the corner's column
            for bi, bj in supp:  # right cell of the hook, in the corner's row
                if ai < bi and aj < bj and bi < aj:
                    hooks += 1
        d_rows = tuple(sum(1 for i, j in supp if i < k < j) for k in range(1, tau.n))
        tau._invariants = ClusterInvariants(d=d, i=hooks, d_rows=d_rows)
    return tau._invariants


# -- the orbit subspaces, for arbitrary functionals ---------------------------
#
# Vectors are index rows over positions(n), in no fixed order.  I + e_ij
# adds to a functional lam, on the left, lam(k, j) at (k, i) for each k < i
# (the vector of e_ij in L-hat), and on the right lam(i, l) at (j, l) for
# each l > j (its vector in R-hat); each move meets a position at most
# once, so no entry is a sum.  The move table spells these as (from, to)
# places over positions(n), for a whole vector at a time; left_orbits and
# the counting walk read L-hat and R-hat from it.  The vector of e_ij in
# L-hat reads rows 1..i-1 of lam, and in R-hat row i alone, so, as with the
# window ranks, the three spans of a point also grow a row at a time
# (HatDims), and points that share their first rows share those steps.

def _left_moves(n: int, where) -> list[list[tuple[int, int]]]:
    """For each (i, j) of where with i > 1, the (from, to) places over
    positions(n) of what I + e_ij adds on the left: (k, j) to (k, i) for
    k < i."""
    return [[(_lex(n, k, j), _lex(n, k, i)) for k in range(1, i)] for i, j in where if i > 1]


def _right_moves(n: int, where) -> list[list[tuple[int, int]]]:
    """For each (i, j) of where with j < n, the (from, to) places over
    positions(n) of what I + e_ij adds on the right: (i, l) to (j, l) for
    l > j."""
    return [[(_lex(n, i, l), _lex(n, j, l)) for l in range(j + 1, n + 1)] for i, j in where if j < n]


def _move_rows(vec, moves) -> list[list[int]]:
    """The non-zero vectors that the moves, each a (from, to) list of a move
    table, add to the index row vec over positions(n)."""
    out = []
    for pairs in moves:
        row = None
        for at, to in pairs:
            if vec[at]:
                if row is None:
                    row = [0] * len(vec)
                row[to] = vec[at]
        if row is not None:
            out.append(row)
    return out


def _hat_step(field: Field, n: int, k: int, rows, state) -> tuple:
    """Row k of a functional: state is the L-hat, R-hat and L-hat + R-hat
    bases of rows 1..k-1 (vectors over positions(n)), and each grows by
    the vectors of row k.  L-hat gains the vectors of e_(k+1)j, j > k+1,
    which read column j of rows 1..k; R-hat those of e_kj, j > k, which
    read row k.  A vector that raises neither rank is already in the sum.
    A basis is copied only when it grows, and the state is passed on as
    it is when row k adds no vector."""
    size = n * (n - 1) // 2
    lvecs = list(_lhat_step_vectors(n, k, rows, size))
    rvecs = list(_rhat_step_vectors(n, k, rows[k - 1], size))
    if not lvecs and not rvecs:
        return state, None
    left, right, both = state
    both = both.copy()
    if lvecs:
        left = _grow(left, lvecs, both)
    if rvecs:
        right = _grow(right, rvecs, both)
    return (left, right, both), None


def _grow(basis: linalg.Echelon, vectors, both: linalg.Echelon) -> linalg.Echelon:
    """A copy of basis grown by vectors; those that raise its rank go into
    both as well."""
    basis = basis.copy()
    for vec in vectors:
        if basis.insert(vec):
            both.insert(vec)
    return basis


def _lhat_step_vectors(n: int, k: int, rows, size: int):
    """The non-zero L-hat vectors of e_(k+1)j, j = k+2..n: lam(m, j) at
    position (m, k+1) for m = 1..k."""
    ats = [_lex(n, m, k + 1) for m in range(1, k + 1)]
    for j in range(k + 1, n):
        column = [row[j] for row in rows[:k]]
        if any(column):
            vec = [0] * size
            for at, v in zip(ats, column):
                vec[at] = v
            yield vec


def _rhat_step_vectors(n: int, k: int, row, size: int):
    """The non-zero R-hat vectors of e_kj, j = k+1..n-1: lam(k, l) at
    position (j, l) for l = j+1..n."""
    for j in range(k + 1, n):
        tail = row[j:]
        if any(tail):
            at = _lex(n, j, j + 1)  # (j, l) for l = j+1, j+2, ... are consecutive
            vec = [0] * size
            vec[at:at + n - j] = tail
            yield vec


class HatDims(_RowSteps):
    """rows -> (dim L, dim R, dim L ∩ R) for L = L-hat(lam) and R =
    R-hat(lam), lam the functional with these index rows (rows 1..n over
    columns 1..n).  Each row's step grows the L, R and L + R bases
    (_hat_step), and dim(L ∩ R) = dim L + dim R - dim(L + R); the steps
    are shared by row prefix with the last point (_RowSteps), and every
    rank is still that of the point's own vectors.  Only rows 1..n-2 are
    stepped: row n-1 has no e_(k+1)j or e_kj with j < n, so its step adds
    no vector, and no step reads it, so points that differ only there
    share the whole walk.
    """

    def __init__(self, field: Field, n: int):
        super().__init__(field, n, _hat_step,
                         tuple(linalg.Echelon(field) for _ in range(3)), n - 2)

    def __call__(self, rows) -> tuple[int, int, int]:
        self._walk(rows)
        left, right, both = self._states[-1]
        dl, dr = len(left), len(right)
        return dl, dr, dl + dr - len(both)


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


# -- the one walk of a cluster: its left orbits -------------------------------

def _vector(lam: Functional) -> list[int]:
    """The entries of lam as one index row over positions(n)."""
    vec = [0] * (lam.n * (lam.n - 1) // 2)
    for (i, j), v in lam.entries.items():
        vec[_lex(lam.n, i, j)] = v.index
    return vec


def _slots(n: int) -> list[tuple[tuple[int, int], int, int]]:
    """(pos, i - 1, j - 1) for each pos = (i, j) of positions(n): where a
    vector's entry goes in a point's entries and in its index rows."""
    return [((i, j), i - 1, j - 1) for i, j in positions(n)]


def _point(field: Field, n: int, slots, vec) -> tuple[Functional, list[list[int]]]:
    """The functional of the index row vec over slots = _slots(n), and its
    index rows, as _index_rows gives them, both from one pass over vec."""
    els = field.elements
    rows = [[0] * n for _ in range(n)]
    entries = {}
    for (pos, r, c), v in zip(slots, vec):
        if v:
            rows[r][c] = v
            entries[pos] = els[v]
    return Functional._trusted(field, n, entries), rows


def _span_vectors(field: Field, start, basis) -> list[list[int]]:
    """start + every combination of the basis rows, all index rows over
    positions(n), the coefficients in itertools.product order: each point
    is one row added to an earlier point."""
    add, mul = field.add_idx, field.mul_idx
    out = [start]
    for row in basis:
        multiples = [[mul[c][y] for y in row] for c in range(1, field.q)]
        grown = []
        for vec in out:
            grown.append(vec)
            grown.extend([add[x][y] for x, y in zip(vec, s)] for s in multiples)
        out = grown
    return out


@lru_cache(maxsize=MEMO_SIZE)
def left_orbits(tau: Template) -> tuple[tuple[tuple[int, ...], tuple[tuple[int, ...], ...]], ...]:
    """The left orbits mu + L-hat(mu) that make up the cluster of tau.

    One (mu, basis) per orbit, both index rows over positions(n): basis is
    the reduced echelon form of L-hat(mu), and mu is reduced modulo it,
    which gives the same row for every point of the orbit.  The cluster is
    the union of the left orbits of the points of tau's right orbit
    tau + R-hat(tau), the only walk of a cluster, so each of those is
    reduced once and repeats are dropped; both spans are read off the move
    table on index rows, so no point is made a Functional.  Raises
    InvariantViolation unless there are q^(d-i) orbits, each of dimension
    d: so len(orbits) * q^len(basis) is q^(2d-i), the size of the cluster,
    read off the split.
    Memoized in a bounded cache of MEMO_SIZE splits.
    """
    field, n = tau.field, tau.n
    add, mul, neg = field.add_idx, field.mul_idx, field.neg_idx
    lam, lhat = _vector(tau.as_functional()), _left_moves(n, positions(n))
    found: dict[tuple[int, ...], tuple[tuple[int, ...], ...]] = {}
    rhat = _move_rows(lam, _right_moves(n, positions(n)))
    for vec in _span_vectors(field, lam, linalg.echelon(field, rhat)):
        basis = linalg.echelon(field, _move_rows(vec, lhat))
        for row in basis:  # each row is 1 at its pivot and 0 at every other pivot
            a = vec[next(c for c, y in enumerate(row) if y)]
            if a:
                scale = mul[neg[a]]
                vec = [add[x][scale[y]] for x, y in zip(vec, row)]
        found.setdefault(tuple(vec), tuple(map(tuple, basis)))
    inv = invariants_of(tau)
    if len(found) != field.q ** (inv.d - inv.i) or any(len(b) != inv.d for b in found.values()):
        raise InvariantViolation(
            f"cluster of {tau.text()} splits into {len(found)} left orbits,"
            f" expected q^(d-i) = {field.q ** (inv.d - inv.i)} of dimension {inv.d}"
        )
    return tuple(found.items())


def count_sums(base: Template, small: Template, fixers) -> dict[tuple, int]:
    """For each cluster that base + lam lands in, lam over the cluster of
    small, the number of such lam, keyed by the template's cells as the
    coadjoint sweep gives them: (i, j, index) in lex order.

    fixers is S, positions (i, j) such that the I + x, x supported on S,
    fix base on the left; the caller checks that they do.  They are an
    algebra group, so g.(base + lam) = base + g.lam, in the cluster of
    base + lam, and the group's orbit through base + lam is that point plus
    the span of the rows _left_moves(n, S) adds to it, inside lam's left
    orbit.  The cluster of small is walked from its memoized split,
    left_orbits: each translate of each reduced mu is added to base's index
    row, and each sum not yet covered covers its orbit, spelled out from
    its echelon basis, goes once through the witnessed sweep core on its
    index rows, which checks that point's witnesses, and counts the points
    it newly covers.  With no move each sum is its own orbit, and is swept
    as it is.
    """
    field, n = base.field, base.n
    add, slots = field.add_idx, _slots(n)
    base_vec = _vector(base.as_functional())
    moves = _left_moves(n, fixers)
    counts: dict[tuple, int] = {}
    for mu, basis in left_orbits(small):
        points = _span_vectors(field, [add[x][y] for x, y in zip(base_vec, mu)], basis)
        if not moves:
            for vec in points:
                cells = _coadjoint_sweep(*_point(field, n, slots, vec))[0]
                counts[cells] = counts.get(cells, 0) + 1
            continue
        covered: set[tuple[int, ...]] = set()
        for vec in points:
            if covered and tuple(vec) in covered:
                continue
            rows, size = _move_rows(vec, moves), 1
            if rows:  # a point no move shifts is its own orbit
                before = len(covered)
                covered.update(map(tuple, _span_vectors(field, vec, linalg.echelon(field, rows))))
                size = len(covered) - before
            cells = _coadjoint_sweep(*_point(field, n, slots, vec))[0]
            counts[cells] = counts.get(cells, 0) + size
    return counts


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


def _bell_values(q: int):
    """B(0, q), B(1, q), ... from the Bell-style recurrence, without end;
    exact integers, non-decreasing for q >= 2 (the k = m term of B(m+1, q)
    is B(m, q))."""
    b = [1]
    yield 1
    for m in count():
        b.append(sum(comb(m, k) * (q - 1) ** (m - k) * b[k] for k in range(m + 1)))
        yield b[-1]


def bell_polys(n: int, q: int) -> list[int]:
    """The numbers of templates B(0, q) .. B(n, q), from one pass of the
    Bell-style recurrence; exact integers."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return list(islice(_bell_values(q), n + 1))


def bell_poly(n: int, q: int) -> int:
    """Number of templates, B(n, q): the last value of bell_polys."""
    return bell_polys(n, q)[n]


def templates_exceed(n: int, q: int, cap: int) -> bool:
    """B(n, q) > cap, q >= 2.  The recurrence stops at the first B(m, q),
    m <= n, over cap, so a large n costs no more than the first such m."""
    return any(b > cap for b in islice(_bell_values(q), n + 1))


def check_template_count(n: int, q: int, cap: int) -> None:
    """The table cap of table, verify, clusters and discrete, met before
    any template is made: ResourceCapExceeded when B(n, q) > cap."""
    if templates_exceed(n, q, cap):
        raise ResourceCapExceeded(f"B({n}, {q}) templates exceed the table cap {cap}")
