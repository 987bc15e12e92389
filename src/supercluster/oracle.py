"""Brute-force ground truth at small n, q, on integer codes.

Everything here works from first principles on explicitly enumerated
spaces, through the integer encoding of supercluster.packed: a point is
the integer code of its entries, which is its place in the enumeration.
Orbits are closures of codes under the elementary generators, checked to
hold one rook point each; character values are fixed-point traces over a
left orbit; inner products of two brute characters sum over every group
element, walked row prefix by row prefix, so that the elements which share
a prefix share its step of the trace; and tensor products are projected
onto the brute character rows, weighted by the sizes of the columns'
adjoint orbits, then checked against the product at every column.  Every
term of a trace is a p-th root of unity z^e, so traces, inner products and
projections are summed in p integer bins, one per exponent, and a single
Cyclotomic is built at the end.  None of the fast paths (reduction sweeps,
combinatorial indices, closed character formula) are used, and neither
module imports more from core than the value types and positions, so a bug
in core's actions or in a fast path cannot leak into its own
certification; only the Template value type is shared.  The public
functions take and return core's value types, decoding codes to them only
where a caller asks for points; a partition keeps each point as its code
alone.  enumerate_nil, enumerate_dual and enumerate_group list the spaces
in product order, apart from the encoding, as the tests' reference for
code order; no engine path calls them.

Neither trace uses the support criterion, which A.1 certifies against
them through OracleContext.criterion_counterexample: both test fixedness
with the left action's own coefficient formula.  They are one trace,
packed.Codes.trace_bins over the per-row bit masks of a left-invariant
set of functionals: brute_char_value's set is a left orbit,
brute_delta_value's the row-covering functionals, the codes with no zero
row.

The projection rests on orthogonality: with w_c the size of column c's
adjoint orbit, sum_c w_c * chi_s(c) * conj(chi_t(c)) is 0 for s != t and a
positive integer, |U| * q^i, for s = t.  So the multiplicity of t in a
class function f is sum_c w_c * f(c) * conj(chi_t(c)) divided by that
integer.  Orthogonality only decides whether a decomposition is found:
brute_tensor returns one only after it has rebuilt f from it at every
column.

The rows are kept exponent-major: OracleContext.row_vectors holds each
brute row once as p-1 integer vectors over the columns, vector e the
z^e coefficients of the row's values, and projection holds each row's
vectors weighted column by column by w_c, with the row's integer norm.
A product of rows, column_products, is p integer vectors over the
columns, one per power z^0 .. z^(p-1), each built from whole column
vectors at once (map over mul and add), and a multiplicity is p * (p-1)
dot products of the product's vectors with the row's weighted ones, no
loop over cells in Python.

An OracleContext holds the brute data of one (n, field, cap), each piece
built on first use: the encoding, the adjoint and coadjoint partitions
(orbit ids and codes, no points), one group element per column template,
the left orbits of the row templates, the trace masks of the row-covering
functionals, the brute table, its rows as integer vectors and each row's
projection data.  It also answers A.1 (a functional on which the support
criterion and the fixed-point test disagree) and Thm9.3 (the left orbits
in the row-covering part of a cluster).  The algebra, its dual and the group have q^(n(n-1)/2)
points each, so the context checks that one size against its one cap when
it is made.  Every entry point that reads a whole space (brute_char_value,
brute_inner, brute_delta_value, brute_delta_values, brute_tensor,
column_products, sum_mismatch, product_mismatch) takes a context, and the
module keeps none: verify.run_verify makes one per run and drops it when
the run ends, so the whole suite builds each partition once.

sum_mismatch is the one check that a sum of brute rows gives target values
back at every column: it adds mult times each row's vectors, compares each
power with the target's, and names the first column, in column order,
where any power differs.  product_mismatch asks it with
the column_products of some brute rows as the target; brute_tensor's
rebuild, Thm7.1 and Thm8.6 ask that, and Thm9.3 asks sum_mismatch with
the discrete series' values as the target.
"""

from __future__ import annotations

from functools import cached_property
from itertools import product, repeat
from operator import add, mul, sub

from . import packed
from .clusters import Template
from .core import Functional, NilMatrix, UniMatrix, positions
from .cyclotomic import Cyclotomic
from .errors import DEFAULT_MAX_SPACE, InvariantViolation, ResourceCapExceeded
from .errors import int_str_limit_exceeded
from .gf import Field


def _check_space(n: int, field: Field, cap: int) -> int:
    """q^(n(n-1)/2), the size of the spaces; over cap, ResourceCapExceeded
    names it, as that power where it has too many digits to print."""
    q, e = field.q, n * (n - 1) // 2
    size = q**e
    if size > cap:
        shown = f"{q}^{e}" if int_str_limit_exceeded(q, e) else size
        raise ResourceCapExceeded(f"space of size {shown} exceeds the cap {cap}")
    return size


def enumerate_dual(n: int, field: Field, cap: int = DEFAULT_MAX_SPACE) -> list[Functional]:
    """All functionals, lexicographically by value indices over lex positions."""
    _check_space(n, field, cap)
    pts = positions(n)
    return [Functional(field, n, dict(zip(pts, vals)))
            for vals in product(field.elements, repeat=len(pts))]


def enumerate_nil(n: int, field: Field, cap: int = DEFAULT_MAX_SPACE) -> list[NilMatrix]:
    _check_space(n, field, cap)
    pts = positions(n)
    return [NilMatrix(field, n, dict(zip(pts, vals)))
            for vals in product(field.elements, repeat=len(pts))]


def enumerate_group(n: int, field: Field, cap: int = DEFAULT_MAX_SPACE) -> list[UniMatrix]:
    return [UniMatrix(x) for x in enumerate_nil(n, field, cap)]


class OrbitDecomposition:
    """A full partition of a space into double orbits, one template each.

    ids[c] is the orbit of the point with code c; a caller that needs the
    point decodes it with packed.Codes.point.
    """

    def __init__(self, representatives: list[Template], ids: list[int]):
        self.representatives, self.ids = representatives, ids

    @cached_property
    def orbit_codes(self) -> list[list[int]]:
        """The codes of each orbit, indexed by orbit id, in code order."""
        out = [[] for _ in self.representatives]
        for code, oid in enumerate(self.ids):
            out[oid].append(code)
        return out

    def orbit_sizes(self) -> list[int]:
        return [len(codes) for codes in self.orbit_codes]


def orbit_partition(
    n: int, field: Field, side: str = "coadjoint", cap: int = DEFAULT_MAX_SPACE
) -> OrbitDecomposition:
    """Partition the whole space into double orbits.

    Raises InvariantViolation unless every orbit contains exactly one rook
    point (the uniqueness half of the classification).  Orbits are numbered
    in code order of their first point.
    """
    if side not in ("adjoint", "coadjoint"):
        raise ValueError(f"unknown side {side!r}")
    _check_space(n, field, cap)
    codes = packed.Codes(n, field)
    ids, rooks = codes.partition(side)
    return OrbitDecomposition(representatives=[codes.template(c) for c in rooks], ids=ids)


# -- the context of one run -----------------------------------------------------

class OracleContext:
    """The brute data of one (n, field, cap), each piece built on first use.

    The algebra, its dual and the group all have q^(n(n-1)/2) points, so
    one cap bounds every space the context enumerates: it raises
    ResourceCapExceeded on construction when that size is over cap.
    """

    def __init__(self, n: int, field: Field, cap: int = DEFAULT_MAX_SPACE):
        _check_space(n, field, cap)
        self.n = n
        self.field = field
        self.cap = cap
        self._columns: dict[Template, UniMatrix] = {}
        self._left_orbits: dict[Template, tuple[int, ...]] = {}
        self._traced: tuple | None = None

    @cached_property
    def codes(self) -> packed.Codes:
        return packed.Codes(self.n, self.field)

    @cached_property
    def adjoint(self) -> OrbitDecomposition:
        return orbit_partition(self.n, self.field, "adjoint", self.cap)

    @cached_property
    def coadjoint(self) -> OrbitDecomposition:
        return orbit_partition(self.n, self.field, "coadjoint", self.cap)

    def column(self, x: Template) -> UniMatrix:
        """The group element I + x of a column template, one per template."""
        g = self._columns.get(x)
        if g is None:
            g = self._columns[x] = UniMatrix(x.as_matrix())
        return g

    def _left_codes(self, tau: Template) -> tuple[int, ...]:
        """The codes of tau's left orbit, walked once per template."""
        orbit = self._left_orbits.get(tau)
        if orbit is None:
            codes = self.codes
            start = codes.encode_template(tau)
            moves = codes.generators("coadjoint", ("left",))
            orbit = self._left_orbits[tau] = tuple(codes.closure(start, moves))
        return orbit

    def left_orbit_size(self, tau: Template) -> int:
        """The number of points in the left orbit of tau's functional."""
        return len(self._left_codes(tau))

    def _trace_masks(self, tau: Template) -> tuple:
        """The trace_masks of tau's left orbit, kept for the last tau asked."""
        if self._traced is None or self._traced[0] != tau:
            self._traced = (tau, self.codes.trace_masks(self._left_codes(tau)))
        return self._traced[1]

    @cached_property
    def covering_masks(self) -> tuple:
        """The trace_masks of the row-covering functionals, the codes with
        no zero row, in code order."""
        codes = self.codes
        return codes.trace_masks([c for c in range(codes.size) if all(codes.rows(c))])

    @cached_property
    def _clusters(self) -> dict[Template, list[int]]:
        """The codes of each coadjoint orbit, by representative."""
        part = self.coadjoint
        return dict(zip(part.representatives, part.orbit_codes))

    def covering_left_orbits(self, tau: Template) -> int:
        """How many left orbits the row-covering points of tau's cluster fill.

        Raises InvariantViolation if a left orbit leaves the row-covering part.
        """
        codes = self.codes
        pool = {c for c in self._clusters[tau] if all(codes.rows(c))}
        moves = codes.generators("coadjoint", ("left",))
        orbits = 0
        while pool:
            orbit = codes.closure(next(iter(pool)), moves)
            if not orbit <= pool:
                raise InvariantViolation(
                    f"row-covering part of {tau.text()}'s cluster is not left-closed"
                )
            pool -= orbit
            orbits += 1
        return orbits

    def criterion_counterexample(self, x: Template) -> Functional | None:
        """A functional on which the support criterion for the rook point x
        and the fixed-point test of I + x disagree, or None.

        A functional is fixed exactly when each of its rows is, and meets
        the criterion (no support position above a cell of x) exactly when
        each of its rows does, and the zero row passes both; so the two
        agree on every functional when they agree on every row code of
        every row, which is what is checked.
        """
        codes = self.codes
        n, q = self.n, codes.q
        ys = codes.rows(codes.encode_template(x))
        for k, (base, size) in enumerate(codes.row_blocks, 1):
            decide = codes.rule(ys[k:], ys[k - 1])
            above = [q ** (n - j) for i, j, _ in x.cells if k < i]
            for c in range(size):
                fixed = decide(c) is not None
                clear = not any(c // w % q for w in above)
                if fixed != clear:
                    return codes.point("coadjoint", c * base)
        return None

    @cached_property
    def table(self) -> tuple[list[Template], list[Template], list[list[Cyclotomic]]]:
        """(row templates, col templates, value matrix), from the partitions
        and fixed-point traces alone."""
        rows = sorted(self.coadjoint.representatives, key=lambda t: t.sort_key())
        cols = sorted(self.adjoint.representatives, key=lambda t: t.sort_key())
        codes = self.codes
        col_rows = [codes.rows(codes.encode_template(x)) for x in cols]
        p = self.field.p
        # cells share one object per distinct value: 11 for the 2704 cells at (5,2)
        shared: dict[Cyclotomic, Cyclotomic] = {}
        values = []
        for tau in rows:
            traced = self._trace_masks(tau)
            row = [Cyclotomic.from_bins(p, codes.trace_bins(traced, ys)) for ys in col_rows]
            values.append([shared.setdefault(v, v) for v in row])
        return rows, cols, values

    @cached_property
    def _row_index(self) -> dict[Template, int]:
        """The place of each row template in the table."""
        return {t: r for r, t in enumerate(self.table[0])}

    @cached_property
    def row_vectors(self) -> list[list[list[int]]]:
        """Per row of the table, its values as p-1 integer vectors over the
        columns, one per basis power z^0 .. z^(p-2): vectors[e][c] is the
        z^e coefficient of chi(c).  Raises InvariantViolation if a value is
        not in Z[z]."""
        rows, _, values = self.table
        out = []
        for tau, row in zip(rows, values):
            if any(v.den != 1 for v in row):
                raise InvariantViolation(f"the brute row {tau.text()} leaves Z[z]")
            out.append([list(coeffs) for coeffs in zip(*(v.num for v in row))])
        return out

    @cached_property
    def projection(self) -> list[tuple[list[list[int]], int]]:
        """Per row of the table: (weighted, norm).

        weighted holds the row's p-1 vectors, each multiplied column by
        column by w_c, the size of column c's orbit in the adjoint
        partition: the z^e coefficient of w_c * chi(c), whose conjugate
        sits at z^(-e).  norm is the integer sum_c w_c * |chi(c)|^2, from
        the (p-1)^2 dot products of the row's vectors with the weighted
        ones.  Raises InvariantViolation if a norm is not a positive
        integer, or (through row_vectors) if a value is not in Z[z].
        """
        rows, cols, _ = self.table
        sizes = dict(zip(self.adjoint.representatives, self.adjoint.orbit_sizes()))
        weights = [sizes[x] for x in cols]
        p = self.field.p
        out = []
        for tau, vectors in zip(rows, self.row_vectors):
            weighted = [list(map(mul, weights, vec)) for vec in vectors]
            bins = [0] * p
            for e, vec in enumerate(vectors):
                for f, wvec in enumerate(weighted):
                    bins[(e - f) % p] += sum(map(mul, vec, wvec))
            norm = Cyclotomic.from_bins(p, bins)
            if not norm.is_rational() or norm.num[0] <= 0:
                raise InvariantViolation(
                    f"weighted norm {norm} of the brute row {tau.text()} is not a positive integer"
                )
            out.append((weighted, norm.num[0]))
        return out


# -- brute character values ---------------------------------------------------

def _convolve(bins: list[int], a, b, sign: int = 1) -> None:
    """Add the product of two Z[z] coefficient sequences to bins: a[i] * b[j]
    lands in bin (i + sign * j) mod len(bins), so sign -1 conjugates b."""
    p = len(bins)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    bins[(i + sign * j) % p] += x * y


def brute_char_value(tau: Template, g: UniMatrix, ctx: OracleContext) -> Cyclotomic:
    """Trace on the span of the left orbit: sum of v(lam)(g) over fixed lam.

    The context walks the left orbit once per template and keeps its tables
    for the last template traced.
    """
    codes = ctx.codes
    return Cyclotomic.from_bins(
        tau.field.p, codes.trace_bins(ctx._trace_masks(tau), codes.row_codes(g.off))
    )


def brute_inner(s: Template, t: Template, ctx: OracleContext) -> Cyclotomic:
    """<chi_s, chi_t> = (1/|U|) sum over every group element g of
    chi_s(g) * conj(chi_t(g)), chi_s and chi_t the brute characters of two
    row templates, each value a fixed-point trace as in brute_char_value.

    The group is walked once, over the row prefixes of g - I, by
    packed.Codes.trace_walk over the trace masks of s, which yields each g
    whose trace for s has a term; t is traced only at those g, and not at
    all for a self-pairing.  A trace is p integer bins, one per power of z,
    and the two are convolved straight into the sum's p bins,
    conj(z^m) = z^(-m); one Cyclotomic is built at the end.  By the
    orthogonality of the characters the result is 0 for two distinct rows
    of the table and q^i, the self-intertwining number, for one row with
    itself.
    """
    codes, p = ctx.codes, ctx.field.p
    traced_s = ctx._trace_masks(s)
    traced_t = traced_s if t == s else ctx._trace_masks(t)
    bins = [0] * p
    for ys, a in codes.trace_walk(traced_s):
        _convolve(bins, a, a if traced_t is traced_s else codes.trace_bins(traced_t, ys), -1)
    return Cyclotomic.from_bins(p, bins, codes.size)


def brute_delta_value(g: UniMatrix, ctx: OracleContext) -> Cyclotomic:
    """Trace of g on the span of the row-covering functionals, over the
    context's covering_masks, as brute_char_value traces a left orbit."""
    codes = ctx.codes
    ys = codes.row_codes(g.off)
    return Cyclotomic.from_bins(g.field.p, codes.trace_bins(ctx.covering_masks, ys))


def brute_delta_values(ctx: OracleContext):
    """brute_delta_value at every group element, in code order: one
    trace_walk of the group over the context's covering_masks, the trace 0
    wherever the walk yields no element."""
    codes, p = ctx.codes, ctx.field.p
    zero = Cyclotomic.from_rational(p, 0)
    bases = [base for base, _ in codes.row_blocks]
    code = -1
    for ys, bins in codes.trace_walk(ctx.covering_masks):
        at = sum(y * base for y, base in zip(ys, bases))
        for _ in range(code + 1, at):
            yield zero
        yield Cyclotomic.from_bins(p, bins)
        code = at
    for _ in range(code + 1, codes.size):
        yield zero


# -- brute tensor decomposition ----------------------------------------------

def column_products(ctx: OracleContext, factors) -> list[list[int]]:
    """The product of chi_f over factors (templates, repeats counted; an
    empty product is 1) as p integer vectors over the columns, in column
    order: bins[m][c] is the z^m coefficient at column c, m = 0 .. p-1.
    Every chi is a row of the context's brute table, whose vectors are
    multiplied a whole column vector at a time."""
    p, width = ctx.field.p, len(ctx.table[1])
    index, vectors = ctx._row_index, ctx.row_vectors
    bins = [[1] * width] + [[0] * width for _ in range(p - 1)]
    for f in factors:
        out = [[0] * width for _ in range(p)]
        for m, a in enumerate(bins):
            if any(a):
                for e, vec in enumerate(vectors[index[f]]):
                    at = (m + e) % p
                    out[at] = list(map(add, out[at], map(mul, a, vec)))
        bins = out
    return bins


def sum_mismatch(ctx: OracleContext, terms, target) -> Template | None:
    """The first column, in column order, where the sum of mult * chi_t over
    terms (template -> multiplicity) differs from target, or None.  target
    is p integer vectors over the columns, target[m][c] the z^m
    coefficient at column c, as column_products gives them.  Every chi is
    a row of the context's brute table, whose values are traces, so the
    sum is taken over the rows' integer vectors, one per basis power
    z^0 .. z^(p-2), and compared with target reduced to that basis.
    """
    cols = ctx.table[1]
    p, width = ctx.field.p, len(cols)
    index, vectors = ctx._row_index, ctx.row_vectors
    totals = [[0] * width for _ in range(p - 1)]
    for t, mult in terms.items():
        for e, vec in enumerate(vectors[index[t]]):
            totals[e] = list(map(add, totals[e], map(mul, vec, repeat(mult))))
    top = target[p - 1]
    first = width
    for total, bins in zip(totals, target):
        want = list(map(sub, bins, top))
        if total != want:
            first = min(first, next(c for c, (a, b) in enumerate(zip(total, want)) if a != b))
    return None if first == width else cols[first]


def product_mismatch(ctx: OracleContext, terms, factors) -> Template | None:
    """The first column, in column order, where the sum of mult * chi_t over
    terms differs from the product of chi_f over factors, or None: the
    sum_mismatch of terms against the column_products of factors."""
    return sum_mismatch(ctx, terms, column_products(ctx, factors))


def brute_tensor(t1: Template, t2: Template, ctx: OracleContext) -> "CharSum":
    """Decompose a product by projecting it onto the brute character rows.

    The product's p vectors and each row's weighted vectors meet in
    p * (p-1) dot products, summed into p integer bins: the product's z^m
    against the row's z^e lands at z^(m-e), since the row is conjugated.
    Raises InvariantViolation if a multiplicity is not a natural number or
    if the decomposition does not give the product back at every column.
    """
    from .tensor import CharSum  # local import keeps the oracle free of fast paths

    p = ctx.field.p
    rows = ctx.table[0]
    product = column_products(ctx, (t1, t2))
    present = [(m, a) for m, a in enumerate(product) if any(a)]
    terms: dict[Template, int] = {}
    for tau, (weighted, norm) in zip(rows, ctx.projection):
        total = [0] * p
        for m, a in present:
            for e, wvec in enumerate(weighted):
                total[(m - e) % p] += sum(map(mul, a, wvec))
        if not any(total):
            continue
        coeff = Cyclotomic.from_bins(p, total, norm)
        if not coeff:
            continue
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
    x = sum_mismatch(ctx, terms, product)
    if x is not None:
        raise InvariantViolation(
            f"brute decomposition of [{t1.text()}] x [{t2.text()}]"
            f" misses the product at column {x.text()}"
        )
    return CharSum(ctx.field, ctx.n, terms)
