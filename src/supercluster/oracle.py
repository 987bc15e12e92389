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

Both traces (brute_char_value and brute_delta_value) still visit every
(g, lam) pair and test lam with core.fixes_left, which sums the left
action's own column-operation increments; they never use the support
criterion fixed_by_template_action, which A.1 certifies against them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
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
from .gf import Field, FieldElement

DEFAULT_MAX_SPACE = 2**20


def _theta(a: FieldElement) -> Cyclotomic:
    return Cyclotomic.zeta_power(a.field.p, a.trace())


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


def orbit_partition(
    n: int, field: Field, side: str = "coadjoint", cap: int = DEFAULT_MAX_SPACE
) -> OrbitDecomposition:
    """Partition the whole space into BFS double orbits.

    Raises InvariantViolation unless every orbit contains exactly one rook
    point (the uniqueness half of the classification).
    """
    points = enumerate_dual(n, field, cap) if side == "coadjoint" else enumerate_nil(n, field, cap)
    orbit_id: dict = {}
    reps: list[Template] = []
    for point in points:
        if point in orbit_id:
            continue
        orbit = bfs_double_orbit(point, side)
        rooks = [m for m in orbit if _is_rook(m.entries)]
        if len(rooks) != 1:
            raise InvariantViolation(
                f"orbit of {point!r} contains {len(rooks)} rook points, expected 1"
            )
        rook = rooks[0]
        oid = len(reps)
        reps.append(Template(field, n, [(i, j, v) for (i, j), v in rook.entries.items()]))
        for m in orbit:
            orbit_id[m] = oid
    return OrbitDecomposition(points=points, orbit_id=orbit_id, representatives=reps)


# -- brute character values ---------------------------------------------------

_LEFT_ORBIT_MEMO: dict[Functional, tuple[Functional, ...]] = {}


def _left_orbit(lam: Functional) -> tuple[Functional, ...]:
    hit = _LEFT_ORBIT_MEMO.get(lam)
    if hit is None:
        hit = tuple(sorted(bfs_left_orbit(lam), key=lambda f: f.sort_key()))
        _LEFT_ORBIT_MEMO[lam] = hit
    return hit


def brute_char_value(tau: Template, g: UniMatrix) -> Cyclotomic:
    """Trace on the span of the left orbit: sum of v(lam)(g) over fixed lam."""
    p = tau.field.p
    total = Cyclotomic.from_rational(p, 0)
    for lam in _left_orbit(tau.as_functional()):
        if fixes_left(g, lam):
            total = total + _theta(evaluate(lam, g.off))
    return total


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


def brute_inner(f, h, n: int, field: Field, cap: int = DEFAULT_MAX_SPACE) -> Cyclotomic:
    """(1/|U|) sum over every group element of f(g) * conj(h(g))."""
    group = enumerate_group(n, field, cap)
    total = Cyclotomic.from_rational(field.p, 0)
    for g in group:
        total = total + f(g) * h(g).conjugate()
    return Fraction(1, len(group)) * total


def covers_rows(lam: Functional) -> bool:
    """True iff the support of lam meets every row 1 .. n-1."""
    # every support row is in 1 .. n-1, so n-1 distinct rows cover them all
    return len({i for (i, _) in lam.entries}) == lam.n - 1


def brute_delta_value(
    g: UniMatrix, duals: list[Functional] | None = None, *, prefiltered: bool = False
) -> Cyclotomic:
    """Trace of g on the span of the row-covering functionals, from scratch.

    duals may be the whole dual space or any superset of its row-covering
    part; the functionals that do not cover every row are skipped here.  A
    caller that traces many elements over one list filters it once with
    covers_rows and passes prefiltered=True, which skips the test.
    """
    if duals is None:
        duals = enumerate_dual(g.n, g.field)
    if not prefiltered:
        duals = [lam for lam in duals if covers_rows(lam)]
    total = Cyclotomic.from_rational(g.field.p, 0)
    for lam in duals:
        if fixes_left(g, lam):
            total = total + _theta(evaluate(lam, g.off))
    return total


# -- brute tensor decomposition ----------------------------------------------

_BRUTE_TABLE_MEMO: dict[tuple[int, Field], tuple] = {}


def brute_table(n: int, field: Field, cap: int = DEFAULT_MAX_SPACE):
    """(row templates, col templates, value matrix) derived purely by BFS + traces."""
    key = (n, field)
    hit = _BRUTE_TABLE_MEMO.get(key)
    if hit is None:
        dual_part = orbit_partition(n, field, "coadjoint", cap)
        nil_part = orbit_partition(n, field, "adjoint", cap)
        rows = sorted(dual_part.representatives, key=lambda t: t.sort_key())
        cols = sorted(nil_part.representatives, key=lambda t: t.sort_key())
        values = [
            [brute_char_value(tau, UniMatrix(x.as_matrix())) for x in cols] for tau in rows
        ]
        hit = (rows, cols, values)
        _BRUTE_TABLE_MEMO[key] = hit
    return hit


_BRUTE_INVERSE_MEMO: dict[tuple[int, Field], list[list[Cyclotomic]]] = {}


def _brute_inverse(n: int, field: Field, cap: int) -> list[list[Cyclotomic]]:
    """Inverse of M with M[c][r] = values[r][c] of the brute table.

    M applied to row multiplicities gives a class function's values on the
    columns, so the inverse recovers the multiplicities of any such function.
    """
    key = (n, field)
    hit = _BRUTE_INVERSE_MEMO.get(key)
    if hit is None:
        rows, cols, values = brute_table(n, field, cap)
        matrix = [[values[r][c] for r in range(len(rows))] for c in range(len(cols))]
        try:
            hit = linalg.inverse(matrix)
        except ValueError as exc:
            raise InvariantViolation(f"brute character rows are singular: {exc}") from exc
        _BRUTE_INVERSE_MEMO[key] = hit
    return hit


def brute_tensor(t1: Template, t2: Template, cap: int = DEFAULT_MAX_SPACE) -> "CharSum":
    """Decompose a product by solving against the brute character rows."""
    from .tensor import CharSum  # local import keeps the oracle free of fast paths

    n, field = t1.n, t1.field
    rows, cols, values = brute_table(n, field, cap)
    inverse = _brute_inverse(n, field, cap)
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
