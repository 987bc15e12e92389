"""Brute-force ground truth at small n, q.

Everything here works from first principles on explicitly enumerated
spaces: orbits are breadth-first closures under the elementary generators
I + a*e_ij, character values are fixed-point sums over an explicit left
orbit, inner products sum over every group element, and tensor products are
solved by exact linear algebra against the brute character rows, whose
matrix is inverted once per (n, field).  None of the fast paths (reduction
sweeps, combinatorial indices, closed character formula) are used, so a bug
there cannot leak into its own certification; only the Template value type
is shared.

Neither trace uses the support criterion fixed_by_template_action, which
A.1 certifies against them; both test fixedness with the left action's own
column-operation increments.  brute_char_value visits every (g, lam) pair
of a left orbit and tests lam with core.fixes_left.  brute_delta_value
works row by row: coact_left updates c_kl by sum_b y_lb * c_kb, so row k
of the image depends on row k of lam alone, lam is fixed exactly when each
of its rows is, and trace(lam(g-I)) is the sum over k of trace(c_k . x_k).
The traced functionals sit in a row trie, keyed by one integer code per
row, top row first, with multiplicities at the leaves; for each g every
distinct (row, row vector) is decided once, and the walk drops a subtree
at its first row that g moves.  Every term of a trace is a p-th root of
unity z^e with e = trace(lam(g-I)), so a trace counts its fixed
functionals in p integer bins, one per exponent, and builds a single
Cyclotomic from the bins at the end.

An OracleContext holds the brute data of one (n, field, cap), each piece
built on first use: the adjoint and coadjoint partitions, the nil, dual and
group enumerations read from the partitions' own point lists, one group
element per column template, the left orbits of the row templates, the
row trie of the row-covering functionals, and the brute table with its
inverse.  verify.run_verify makes one per run and drops it when the run
ends, so the whole suite builds each partition once.
brute_table and brute_tensor called without a context share one
module-level context, a one-entry cache that keeps the last (n, field,
cap) they saw and replaces it on a call for any other, so at most one is
ever held there; run_verify never uses it.  brute_char_value without a
context walks the left orbit afresh and keeps nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import product

from . import linalg
from .clusters import Template
from .core import (
    Functional,
    NilMatrix,
    UniMatrix,
    act_left,
    act_right,
    coact_left,
    coact_right,
    elementary,
    evaluate,
    fixes_left,
    identity,
    positions,
)
from .cyclotomic import Cyclotomic
from .errors import InvariantViolation, ResourceCapExceeded
from .gf import Field

DEFAULT_MAX_SPACE = 2**20


def _check_space(n: int, field: Field, cap: int) -> int:
    size = field.q ** (n * (n - 1) // 2)
    if size > cap:
        raise ResourceCapExceeded(f"space of size {size} exceeds the cap {cap}")
    return size


def enumerate_dual(n: int, field: Field, cap: int = DEFAULT_MAX_SPACE) -> list[Functional]:
    """All functionals, lexicographically by value indices over lex positions."""
    _check_space(n, field, cap)
    pts = positions(n)
    out = []
    for vals in product(field.elements, repeat=len(pts)):
        out.append(Functional(field, n, dict(zip(pts, vals))))
    return out


def enumerate_nil(n: int, field: Field, cap: int = DEFAULT_MAX_SPACE) -> list[NilMatrix]:
    _check_space(n, field, cap)
    pts = positions(n)
    return [NilMatrix(field, n, dict(zip(pts, vals)))
            for vals in product(field.elements, repeat=len(pts))]


def enumerate_group(n: int, field: Field, cap: int = DEFAULT_MAX_SPACE) -> list[UniMatrix]:
    return [UniMatrix(x) for x in enumerate_nil(n, field, cap)]


def _generators(n: int, field: Field) -> list[UniMatrix]:
    return [elementary(field, n, i, j, a) for (i, j) in positions(n) for a in field.nonzero]


def bfs_double_orbit(start, side: str = "coadjoint") -> set:
    """Closure of {start} under both one-sided actions by all generators."""
    if side == "coadjoint":
        neighbors = lambda lam, g: (coact_left(g, lam), coact_right(lam, g))
    elif side == "adjoint":
        neighbors = lambda x, g: (act_left(g, x), act_right(x, g))
    else:
        raise ValueError(f"unknown side {side!r}")
    gens = _generators(start.n, start.field)
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for point in frontier:
            for g in gens:
                for image in neighbors(point, g):
                    if image not in seen:
                        seen.add(image)
                        nxt.append(image)
        frontier = nxt
    return seen


def bfs_left_orbit(lam: Functional) -> set[Functional]:
    """Closure of {lam} under the left action only."""
    gens = _generators(lam.n, lam.field)
    seen = {lam}
    frontier = [lam]
    while frontier:
        nxt = []
        for point in frontier:
            for g in gens:
                image = coact_left(g, point)
                if image not in seen:
                    seen.add(image)
                    nxt.append(image)
        frontier = nxt
    return seen


def _is_rook(entries: dict) -> bool:
    rows = [i for i, _ in entries]
    cols = [j for _, j in entries]
    return len(set(rows)) == len(rows) and len(set(cols)) == len(cols)


@dataclass
class OrbitDecomposition:
    """A full partition of a space into double orbits, one template each."""

    points: list
    orbit_id: dict
    representatives: list[Template]

    def orbit_of(self, point) -> int:
        return self.orbit_id[point]

    def orbit_sizes(self) -> list[int]:
        sizes = [0] * len(self.representatives)
        for oid in self.orbit_id.values():
            sizes[oid] += 1
        return sizes

    def members(self) -> list[list]:
        """The points of each orbit, indexed by orbit id, in points order."""
        out = [[] for _ in self.representatives]
        for point in self.points:
            out[self.orbit_id[point]].append(point)
        return out


def orbit_partition(
    n: int, field: Field, side: str = "coadjoint", cap: int = DEFAULT_MAX_SPACE
) -> OrbitDecomposition:
    """Partition the whole space into BFS double orbits.

    Raises InvariantViolation unless every orbit contains exactly one rook
    point (the uniqueness half of the classification).  The keys of
    orbit_id are the objects in points: a BFS image labels its orbit only
    until the scan reaches the enumerated point equal to it, which then
    takes its place, so the partition holds one copy of each point.
    """
    points = enumerate_dual(n, field, cap) if side == "coadjoint" else enumerate_nil(n, field, cap)
    orbit_id: dict = {}
    reps: list[Template] = []
    for point in points:
        oid = orbit_id.pop(point, None)
        if oid is None:
            orbit = bfs_double_orbit(point, side)
            rooks = [m for m in orbit if _is_rook(m.entries)]
            if len(rooks) != 1:
                raise InvariantViolation(
                    f"orbit of {point!r} contains {len(rooks)} rook points, expected 1"
                )
            rook = rooks[0]
            oid = len(reps)
            reps.append(Template(field, n, [(i, j, v) for (i, j), v in rook.entries.items()]))
            for m in orbit:  # point itself is the BFS start, so it is among them
                orbit_id[m] = oid
        orbit_id[point] = oid
    return OrbitDecomposition(points=points, orbit_id=orbit_id, representatives=reps)


# -- the context of one run -----------------------------------------------------

class OracleContext:
    """The brute data of one (n, field, cap), each piece built on first use.

    cap bounds the enumerated spaces the partitions cover; group() takes its
    own cap, as enumerate_group does.
    """

    def __init__(self, n: int, field: Field, cap: int = DEFAULT_MAX_SPACE):
        self.n = n
        self.field = field
        self.cap = cap
        self._columns: dict[Template, UniMatrix] = {}
        self._left_orbits: dict[Template, tuple[Functional, ...]] = {}

    @cached_property
    def adjoint(self) -> OrbitDecomposition:
        return orbit_partition(self.n, self.field, "adjoint", self.cap)

    @cached_property
    def coadjoint(self) -> OrbitDecomposition:
        return orbit_partition(self.n, self.field, "coadjoint", self.cap)

    @property
    def nil(self) -> list[NilMatrix]:
        """enumerate_nil's list: the adjoint partition's points."""
        return self.adjoint.points

    @property
    def dual(self) -> list[Functional]:
        """enumerate_dual's list: the coadjoint partition's points."""
        return self.coadjoint.points

    def group(self, cap: int = DEFAULT_MAX_SPACE) -> list[UniMatrix]:
        """enumerate_group's list, I + x over the adjoint points.

        Raises ResourceCapExceeded, as enumerate_group does, when the group
        is larger than cap.  The list is made afresh on each call and not
        kept: the wrappers are cheap, and the column index each element
        fills when it is traced (0.46 MB by tracemalloc at (5,2)) goes
        with it instead of living to the end of the run.
        """
        _check_space(self.n, self.field, cap)
        return [UniMatrix(x) for x in self.nil]

    def column(self, x: Template) -> UniMatrix:
        """The group element I + x of a column template, one per template."""
        g = self._columns.get(x)
        if g is None:
            g = self._columns[x] = UniMatrix(x.as_matrix())
        return g

    def left_orbit(self, tau: Template) -> tuple[Functional, ...]:
        """The left orbit of tau's functional, walked once per template."""
        orbit = self._left_orbits.get(tau)
        if orbit is None:
            orbit = self._left_orbits[tau] = tuple(bfs_left_orbit(tau.as_functional()))
        return orbit

    @cached_property
    def row_trie(self) -> "_RowTrie":
        """The row-covering functionals of the dual space in a row trie,
        each tested with covers_rows once."""
        return _RowTrie(self.n, self.field, self.dual)

    @cached_property
    def table(self) -> tuple[list[Template], list[Template], list[list[Cyclotomic]]]:
        """(row templates, col templates, value matrix), from the partitions
        and fixed-point traces alone."""
        rows = sorted(self.coadjoint.representatives, key=lambda t: t.sort_key())
        cols = sorted(self.adjoint.representatives, key=lambda t: t.sort_key())
        # cells share one object per distinct value: 11 for the 2704 cells at (5,2)
        shared: dict[Cyclotomic, Cyclotomic] = {}
        values = []
        for tau in rows:
            row = [brute_char_value(tau, self.column(x), self) for x in cols]
            values.append([shared.setdefault(v, v) for v in row])
        return rows, cols, values

    @cached_property
    def inverse(self) -> list[list[Cyclotomic]]:
        """Inverse of M with M[c][r] = values[r][c] of the brute table.

        M applied to row multiplicities gives a class function's values on
        the columns, so the inverse recovers the multiplicities of any such
        function.
        """
        rows, cols, values = self.table
        matrix = [[values[r][c] for r in range(len(rows))] for c in range(len(cols))]
        try:
            return linalg.inverse(matrix)
        except ValueError as exc:
            raise InvariantViolation(f"brute character rows are singular: {exc}") from exc


@lru_cache(maxsize=1)
def _shared_context(n: int, field: Field, cap: int) -> OracleContext:
    """The context brute_table and brute_tensor use when given none."""
    return OracleContext(n, field, cap)


# -- brute character values ---------------------------------------------------

def brute_char_value(
    tau: Template, g: UniMatrix, ctx: OracleContext | None = None
) -> Cyclotomic:
    """Trace on the span of the left orbit: sum of v(lam)(g) over fixed lam.

    With a context the left orbit is walked once per template; without one
    it is walked on every call.
    """
    orbit = bfs_left_orbit(tau.as_functional()) if ctx is None else ctx.left_orbit(tau)
    p = tau.field.p
    bins = [0] * p
    for lam in orbit:
        if fixes_left(g, lam):
            bins[evaluate(lam, g.off).trace()] += 1
    return Cyclotomic.from_bins(p, bins)


def fixed_by_template_action(lam: Functional, x: NilMatrix) -> bool:
    """Support criterion for (I+x) * lam = lam, valid when x is a rook point:
    no support position of lam sits above a non-zero entry of x."""
    if not _is_rook(x.entries):
        raise ValueError("criterion only applies to rook points")
    for (i, j) in x.entries:
        for (k, l) in lam.entries:
            if l == j and k < i:
                return False
    return True


def brute_inner(
    f, h, n: int, field: Field, cap: int = DEFAULT_MAX_SPACE, ctx: OracleContext | None = None
) -> Cyclotomic:
    """(1/|U|) sum over every group element of f(g) * conj(h(g)).

    f is evaluated once per element when h is f.  A context supplies its
    group instead of a fresh enumeration.
    """
    group = enumerate_group(n, field, cap) if ctx is None else ctx.group(cap)
    total = Cyclotomic.from_rational(field.p, 0)
    for g in group:
        a = f(g)
        total = total + a * (a if h is f else h(g)).conjugate()
    return Fraction(1, len(group)) * total


def covers_rows(lam: Functional) -> bool:
    """True iff the support of lam meets every row 1 .. n-1."""
    # every support row is in 1 .. n-1, so n-1 distinct rows cover them all
    return len({i for (i, _) in lam.entries}) == lam.n - 1


class _RowTrie:
    """Functionals grouped by their rows, top row first, with multiplicities.

    The code of row k of lam is sum of c_kl.index * q^(l-k-1) over its
    entries.  root is nested dicts n-1 levels deep: the code of row 1 maps
    to a node keyed by the code of row 2, and so on, and the last level
    maps the code of row n-1 to the number of times the functional was
    given (at n = 1, root is that number itself).  rows[k-1] maps each code
    seen at row k to the row's entries ((l, c_kl), ...).  Functionals that
    do not cover every row are left out.
    """

    __slots__ = ("n", "field", "root", "rows")

    def __init__(self, n: int, field: Field, duals):
        self.n = n
        self.field = field
        depth = n - 1
        q = field.q
        self.rows: list[dict[int, tuple]] = [{} for _ in range(depth)]
        self.root = {} if depth else 0
        for lam in duals:
            if lam.n != n:
                raise ValueError("size mismatch")
            if lam.field is not field and lam.field != field:
                raise ValueError("field mismatch")
            if not covers_rows(lam):
                continue
            if not depth:
                self.root += 1
                continue
            codes = [0] * depth
            entries = [[] for _ in range(depth)]
            for (k, l), c in lam.entries.items():
                codes[k - 1] += c.index * q ** (l - k - 1)
                entries[k - 1].append((l, c))
            for seen, code, row in zip(self.rows, codes, entries):
                seen.setdefault(code, tuple(row))
            node = self.root
            for code in codes[:-1]:
                node = node.setdefault(code, {})
            node[codes[-1]] = node.get(codes[-1], 0) + 1

    def bins(self, g: UniMatrix) -> list[int]:
        """How many functionals g fixes, binned by trace(lam(g-I)) mod p."""
        if g.n != self.n:
            raise ValueError("size mismatch")
        if g.field is not self.field and g.field != self.field:
            raise ValueError("field mismatch")
        cols, x = g._col_index(), g.off.entries
        fixed = []
        for k, row in enumerate(self.rows, 1):
            memo = {}
            for code, entries in row.items():
                e = _decide_row(cols, x, k, entries)
                if e is not None:
                    memo[code] = e
            fixed.append(memo)
        frontier = [(self.root, 0)]
        for memo in fixed:
            frontier = [
                (child, e + d)
                for node, e in frontier
                for code, d in memo.items()
                if (child := node.get(code)) is not None
            ]
        p = self.field.p
        bins = [0] * p
        for mult, e in frontier:
            bins[e % p] += mult
        return bins


def _decide_row(cols, x: dict, k: int, entries) -> int | None:
    """trace(c_k . x_k) if g fixes row k of a functional, else None.

    entries are the row's ((b, c_kb), ...), x holds the entries of g - I
    and cols[b] its entries (l, y_lb) in column b, as g._col_index() gives
    them.  The row is fixed when every sum of the increments y_lb * c_kb
    that core.fixes_left adds up at (k, l) vanishes.
    """
    inc: dict = {}
    for b, c in entries:
        for l, y in cols[b]:
            if k < l:
                w = y * c
                prev = inc.get(l)
                inc[l] = w if prev is None else prev + w
    if any(inc.values()):
        return None
    total = None
    for b, c in entries:
        y = x.get((k, b))
        if y is not None:
            total = c * y if total is None else total + c * y
    return 0 if total is None else total.trace()


def brute_delta_value(
    g: UniMatrix,
    duals: list[Functional] | None = None,
    *,
    ctx: OracleContext | None = None,
) -> Cyclotomic:
    """Trace of g on the span of the row-covering functionals, from scratch.

    A context supplies its row trie, built once over its dual space.
    Without one, duals (default: the whole dual space) may be any list of
    functionals in any order, duplicates counted; the members that do not
    cover every row are skipped, and the trie is built for this call alone.
    """
    if ctx is not None:
        if duals is not None:
            raise ValueError("pass duals or a context, not both")
        trie = ctx.row_trie
    else:
        if duals is None:
            duals = enumerate_dual(g.n, g.field)
        trie = _RowTrie(g.n, g.field, duals)
    return Cyclotomic.from_bins(g.field.p, trie.bins(g))


# -- brute tensor decomposition ----------------------------------------------

def brute_table(n: int, field: Field, cap: int = DEFAULT_MAX_SPACE):
    """(row templates, col templates, value matrix) derived purely by BFS + traces."""
    return _shared_context(n, field, cap).table


def brute_tensor(
    t1: Template, t2: Template, cap: int = DEFAULT_MAX_SPACE, ctx: OracleContext | None = None
) -> "CharSum":
    """Decompose a product by solving against the brute character rows."""
    from .tensor import CharSum  # local import keeps the oracle free of fast paths

    n, field = t1.n, t1.field
    if ctx is None:
        ctx = _shared_context(n, field, cap)
    rows, cols, values = ctx.table
    inverse = ctx.inverse
    r1 = rows.index(t1)
    r2 = rows.index(t2)
    rhs = [values[r1][c] * values[r2][c] for c in range(len(cols))]
    zero = Cyclotomic.from_rational(field.p, 0)
    solution = [sum((a * b for a, b in zip(inv_row, rhs)), zero) for inv_row in inverse]
    terms: dict[Template, int] = {}
    for tau, coeff in zip(rows, solution):
        if coeff:
            try:
                mult = coeff.as_int()
            except ValueError as exc:
                raise InvariantViolation(
                    f"multiplicity {coeff} for {tau.text()} is not an integer"
                ) from exc
            if mult < 0:
                raise InvariantViolation(
                    f"negative multiplicity {mult} for {tau.text()} in brute decomposition"
                )
            terms[tau] = mult
    return CharSum(field, n, terms)
