"""The tensor ring of cluster characters.

Products decompose with non-negative integer multiplicities, computed along
two independent routes that certify each other.  Both are the same left
fold: start from the trivial character and multiply the running CharSum by
one primary character (one cell) at a time, which is sound because products
of class functions commute and associate.  Only the step differs:

* the rewrite step multiplies a template by one cell, expanding a colliding
  pair of primary factors case by case (same column, same row, same cell
  with cancelling or non-cancelling values) and folding the replacement
  cells back in.  Degree strictly drops (or the cell count does) at every
  expansion, so it halts, with recursion depth bounded by the degree of
  that one small product.  Steps are memoized in a bounded module-level
  cache shared by every caller, so a k-factor product costs O(k) steps;
* the counting step counts pairs (lam1, lam2) across two clusters whose
  sum lands in a given cluster and assembles the multiplicity from the
  d/i indices of the three templates.  The pair cap on |Psi1| x |Psi2|
  comes first, read off the supports.  Clusters are
  double orbits and the actions are linear, so the count is the same for
  every lam1: the step classifies the larger cluster's template plus each
  element of the smaller cluster and weights each hit by the larger size.
  The smaller cluster is walked from its memoized split on index rows, and
  each sum goes through the coadjoint sweep's witnessed core, which checks
  that point's witnesses; no element is spelled out as a Functional list
  and no Template is made per point.  The pair counts are memoized in a
  second bounded cache, keyed by the unordered pair, so a repeated product
  and its mirror are counted once.

Both caches hold clusters.MEMO_SIZE entries each, as the left-orbit
splits do, and all three are emptied by supercluster.clear_memos().

A CharSum is a formal non-negative integer combination of templates; keys
are always canonical templates.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd

from . import clusters
from .clusters import MEMO_SIZE, Template, invariants_of
from .errors import InvariantViolation, ResourceCapExceeded
from .gf import Field, FieldElement

DEFAULT_MAX_PAIRS = 2**24

Cell = tuple[int, int, FieldElement]


class CharSum:
    """A non-negative integer combination of cluster characters."""

    __slots__ = ("field", "n", "terms")

    def __init__(self, field: Field, n: int, terms: dict[Template, int]):
        clean = {}
        for tau, mult in terms.items():
            if mult < 0:
                raise InvariantViolation(f"negative multiplicity {mult} for {tau.text()}")
            if mult:
                clean[tau] = mult
        self.field = field
        self.n = n
        self.terms = clean

    @classmethod
    def single(cls, tau: Template, mult: int = 1) -> "CharSum":
        return cls(tau.field, tau.n, {tau: mult})

    @classmethod
    def trivial(cls, field: Field, n: int) -> "CharSum":
        return cls.single(Template(field, n, []))

    def items(self) -> list[tuple[Template, int]]:
        return sorted(self.terms.items(), key=lambda kv: kv[0].sort_key())

    @property
    def total_degree(self) -> int:
        q = self.field.q
        return sum(mult * q ** invariants_of(tau).d for tau, mult in self.terms.items())

    def __add__(self, other: "CharSum") -> "CharSum":
        if (self.field, self.n) != (other.field, other.n):
            raise ValueError("mismatched rings")
        merged = dict(self.terms)
        for tau, mult in other.terms.items():
            merged[tau] = merged.get(tau, 0) + mult
        return CharSum(self.field, self.n, merged)

    def scale(self, factor: int) -> "CharSum":
        return CharSum(self.field, self.n, {t: factor * m for t, m in self.terms.items()})

    def __eq__(self, other) -> bool:
        if not isinstance(other, CharSum):
            return NotImplemented
        return self.n == other.n and self.field == other.field and self.terms == other.terms

    def __repr__(self) -> str:
        body = " + ".join(
            (f"{m}*" if m != 1 else "") + f"[{t.text()}]" for t, m in self.items()
        )
        return f"CharSum({body or '0'})"

    def to_json(self) -> dict:
        return {
            "terms": [{"template": t.text(), "mult": m} for t, m in self.items()],
            "total_degree": str(self.total_degree),
        }


def _find_collision(cells: tuple[Cell, ...]) -> tuple[int, int] | None:
    for a in range(len(cells)):
        for b in range(a + 1, len(cells)):
            if cells[a][0] == cells[b][0] or cells[a][1] == cells[b][1]:
                return a, b
    return None


def _expand_pair(field: Field, c1: Cell, c2: Cell) -> list[tuple[Cell, ...]]:
    """Replacements for a colliding pair of primary factors.

    Each returned cell tuple stands for one product term of multiplicity 1;
    degrees always drop, which is what drives the rewrite to completion.
    """
    (i1, j1, a), (i2, j2, b) = c1, c2
    if (i1, j1) == (i2, j2):
        i, j = i1, j1
        s = a + b
        col_bracket: list[Cell | None] = [None] + [
            (r, j, v) for r in range(i + 1, j) for v in field.nonzero
        ]
        if not s:
            row_bracket: list[Cell | None] = [None] + [
                (i, c, v) for c in range(i + 1, j) for v in field.nonzero
            ]
            return [
                tuple(x for x in (ca, cb) if x is not None)
                for ca in col_bracket
                for cb in row_bracket
            ]
        keep = (i, j, s)
        return [(keep,) if x is None else (keep, x) for x in col_bracket]
    if j1 == j2:
        # same column: the higher factor survives, the lower dissolves
        hi, lo = (c1, c2) if i1 < i2 else (c2, c1)
        j = j1
        bracket: list[Cell | None] = [None] + [
            (lo[0], c, v) for c in range(lo[0] + 1, j) for v in field.nonzero
        ]
        return [(hi,) if x is None else (hi, x) for x in bracket]
    # same row: the factor further right survives, the other dissolves
    hi, lo = (c1, c2) if j1 > j2 else (c2, c1)
    i = i1
    jlo = lo[1]
    bracket = [None] + [(r, jlo, v) for r in range(i + 1, jlo) for v in field.nonzero]
    return [(hi,) if x is None else (hi, x) for x in bracket]


def _fold(acc: dict[Template, int], cells, step) -> dict[Template, int]:
    """Multiply acc by the primary character of each cell in turn.

    ``step(tau, cell)`` yields the (template, mult) terms of tau x cell.
    """
    for cell in cells:
        nxt: dict[Template, int] = {}
        for tau, mult in acc.items():
            for sigma, m in step(tau, cell):
                nxt[sigma] = nxt.get(sigma, 0) + mult * m
        acc = nxt
    return acc


@lru_cache(maxsize=MEMO_SIZE)
def _rewrite_step(tau: Template, cell: Cell) -> tuple[tuple[Template, int], ...]:
    """tau x the primary character at cell, by the rewrite rules.

    A cell clear of tau's rows and columns joins the template; otherwise
    the colliding pair is expanded and each replacement is folded into
    what is left of tau.
    """
    field, n = tau.field, tau.n
    cells = tau.cells + (cell,)
    coll = _find_collision(cells)
    if coll is None:
        return ((Template(field, n, cells), 1),)
    a, b = coll
    rest = Template(field, n, [c for k, c in enumerate(cells) if k not in (a, b)])
    out: dict[Template, int] = {}
    for repl in _expand_pair(field, cells[a], cells[b]):
        for sigma, mult in _fold({rest: 1}, repl, _rewrite_step).items():
            out[sigma] = out.get(sigma, 0) + mult
    return tuple(out.items())


def tensor_rewrite(field: Field, n: int, factors) -> CharSum:
    """Decompose a tensor product of primary factors (i, j, a).

    Zero-valued factors are the trivial character and are dropped; the
    rest are folded in left to right by the memoized rewrite step.  Values
    from another field raise ValueError.
    """
    cells = []
    for (i, j, v) in factors:
        if v.field != field:
            raise ValueError(f"factor value {v} is from {v.field!r}, not {field!r}")
        if v:
            if not (1 <= i < j <= n):
                raise ValueError(f"factor position ({i},{j}) out of range for n={n}")
            cells.append((i, j, v))
    return CharSum(field, n, _fold({Template(field, n, []): 1}, cells, _rewrite_step))


def primary_product(
    n: int, i: int, j: int, a: FieldElement, i2: int, j2: int, b: FieldElement
) -> CharSum:
    """Product of the two primary characters at (i,j,a) and (i2,j2,b)."""
    return tensor_rewrite(a.field, n, [(i, j, a), (i2, j2, b)])


def tensor_product(t1: Template, t2: Template) -> CharSum:
    """Product of two cluster characters: fold t2's primary cells into t1."""
    if (t1.field, t1.n) != (t2.field, t2.n):
        raise ValueError("mismatched rings")
    return CharSum(t1.field, t1.n, _fold({t1: 1}, t2.cells, _rewrite_step))


def _pair_counts(t1: Template, t2: Template, max_pairs: int) -> dict[Template, int]:
    """How many pairs (lam1, lam2) in Psi1 x Psi2 have lam1 + lam2 in each cluster.

    The cap on |Psi1| x |Psi2| comes first, each size q^(2d-i) read off
    the support, and the message names the sizes in argument order.  Then
    both memoized clusters.left_orbits splits are walked, each raising
    unless it holds that size, so the larger cluster is certified by its
    split.  The counts come from _count_step, larger cluster first and
    ties broken by sort_key, so a product and its mirror share one entry.
    An InvariantViolation from the step is raised again here, outside its
    memo, with the product [t1] x [t2] named in front.
    """
    if (t1.field, t1.n) != (t2.field, t2.n):
        raise ValueError("mismatched rings")
    size1, size2 = clusters.cluster_size(t1), clusters.cluster_size(t2)
    if size1 * size2 > max_pairs:
        raise ResourceCapExceeded(f"{size1} x {size2} cluster pairs exceed the cap {max_pairs}")
    clusters.left_orbits(t1)
    clusters.left_orbits(t2)
    try:
        if (-size1, t1.sort_key()) <= (-size2, t2.sort_key()):
            return dict(_count_step(t1, t2, size1))
        return dict(_count_step(t2, t1, size2))
    except InvariantViolation as exc:
        raise InvariantViolation(f"[{t1.text()}] x [{t2.text()}]: {exc}") from exc


@lru_cache(maxsize=MEMO_SIZE)
def _count_step(base: Template, small: Template, weight: int) -> tuple[tuple[Template, int], ...]:
    """The pair counts of the clusters of base and small, |Psi(base)| = weight
    >= |Psi(small)|.

    A cluster is a double orbit U.tau.U and both one-sided actions are
    linear, so g.(lam1 + lam2).h = g.lam1.h + g.lam2.h.  Taking (g, h) with
    g.lam1.h = base shows that lam2 -> g.lam2.h is a bijection of Psi(small)
    that keeps the cluster of the sum: every lam1 sees the same counts.  So
    only base + lam is classified, lam running over the smaller cluster, and
    each hit counts weight pairs; the larger cluster is certified by its
    split alone.  The smaller cluster is walked from its memoized split,
    clusters.left_orbits: each translate of each reduced mu is added to
    base's index row, and the sum goes through the witnessed sweep core on
    its index rows, which checks that point's witnesses.  Hits are counted
    by rook cells, and one Template is made per target.
    """
    field, n = base.field, base.n
    add, slots = field.add_idx, clusters._slots(n)
    base_vec = clusters._vector(base.as_functional())
    hits: dict[tuple, int] = {}
    for mu, basis in clusters.left_orbits(small):
        start = [add[x][y] for x, y in zip(base_vec, mu)]
        for vec in clusters._span_vectors(field, start, basis):
            cells = clusters._coadjoint_sweep(*clusters._point(field, n, slots, vec))[0]
            hits[cells] = hits.get(cells, 0) + weight
    els = field.elements
    return tuple(
        (Template(field, n, [(i, j, els[v]) for i, j, v in cells]), count)
        for cells, count in hits.items()
    )


def c_count(t1: Template, t2: Template, target: Template, max_pairs: int = DEFAULT_MAX_PAIRS) -> int:
    """|{(lam1, lam2) in Psi1 x Psi2 : lam1 + lam2 in Psi(target)}|, exactly.

    The three templates must share one ring; otherwise ValueError."""
    if (target.field, target.n) != (t1.field, t1.n):
        raise ValueError("mismatched rings")
    return _pair_counts(t1, t2, max_pairs).get(target, 0)


def tensor_by_counting(t1: Template, t2: Template, max_pairs: int = DEFAULT_MAX_PAIRS) -> CharSum:
    """Decompose a product by counting pairwise sums of cluster elements.

    The pair counts come from _pair_counts, which holds |Psi1| x |Psi2| to
    max_pairs before either cluster is split.  The multiplicity of a
    target cluster is q^(i1+i2-d1-d2-d) times the pair count; every
    coefficient must come out an integer, and the result must agree with
    the rewrite route.  Violations raise.
    """
    q = t1.field.q
    inv1 = invariants_of(t1)
    inv2 = invariants_of(t2)
    terms: dict[Template, int] = {}
    for tau, cnt in _pair_counts(t1, t2, max_pairs).items():
        e = inv1.i + inv2.i - inv1.d - inv2.d - invariants_of(tau).d
        den = q ** max(0, -e)
        mult, rem = divmod(cnt * q ** max(0, e), den)
        if rem:
            g = gcd(cnt, den)
            raise InvariantViolation(
                f"non-integer multiplicity {cnt // g}/{den // g} for {tau.text()} in"
                f" [{t1.text()}] x [{t2.text()}]"
            )
        terms[tau] = mult
    result = CharSum(t1.field, t1.n, terms)
    rewritten = tensor_product(t1, t2)
    if result != rewritten:
        raise InvariantViolation(
            f"counting and rewrite decompositions disagree for"
            f" [{t1.text()}] x [{t2.text()}]: {result} vs {rewritten}"
        )
    return result


def fold_by_counting(field: Field, n: int, factors, max_pairs: int = DEFAULT_MAX_PAIRS) -> CharSum:
    """Product of many primary factors along the counting route only.

    The same left fold as the rewrite route, with tensor_by_counting as the
    step; each step also re-certifies itself against the rewrite route.
    Used by the CLI --check.
    """
    cells = [(i, j, v) for (i, j, v) in factors if v]
    primaries = {cell: Template(field, n, [cell]) for cell in cells}

    def step(tau: Template, cell: Cell):
        return tensor_by_counting(tau, primaries[cell], max_pairs).terms.items()

    return CharSum(field, n, _fold({Template(field, n, []): 1}, cells, step))
