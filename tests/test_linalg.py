import random
from itertools import product

from hypothesis import given, settings
from hypothesis import strategies as st

from supercluster import field_make, linalg
from supercluster.core import Functional, NilMatrix, UniMatrix, positions
from supercluster.discrete import delta_value
from supercluster.oracle import OracleContext
from walks import window_ranks, window_ranks_dual

# GF(2), GF(3), GF(4), GF(5), GF(9)
FIELDS = [field_make(p, k) for p, k in ((2, 1), (3, 1), (2, 2), (5, 1), (3, 2))]

PROPS = settings(derandomize=True, database=None, deadline=None, max_examples=60)


def span_size(field, rows):
    """Number of distinct combinations of rows (FieldElement vectors), counted
    by element arithmetic, never through the index tables linalg uses."""
    span = {tuple(field.zero for _ in rows[0])} if rows else {()}
    for row in rows:
        span = {tuple(s + c * v for s, v in zip(vec, row)) for vec in span for c in field}
    return len(span)


def log_q(field, size):
    r = 0
    while field.q**r < size:
        r += 1
    assert field.q**r == size
    return r


def indices(rows):
    return [[v.index for v in row] for row in rows]


def test_rank_counts_the_span_over_gf3():
    # q^rank is the number of distinct combinations of the rows, over every
    # field of FIELDS (the name predates the widening from GF(3) alone)
    rng = random.Random(5)
    for field in FIELDS:
        ranks = set()
        for _ in range(40):
            m = [
                [rng.choice(field.elements) if rng.random() < 0.7 else field.zero
                 for _ in range(4)]
                for _ in range(3)
            ]
            span = {
                tuple(sum((a * x for a, x in zip(coeffs, col)), field.zero) for col in zip(*m))
                for coeffs in product(field.elements, repeat=3)
            }
            r = linalg.rank(field, indices(m))
            assert len(span) == field.q**r
            ranks.add(r)
        assert len(ranks) > 1, field


def test_echelon_is_the_reduced_form_of_the_same_span():
    rng = random.Random(8)
    for field in FIELDS:
        for _ in range(30):
            m = [
                [rng.choice(field.elements) if rng.random() < 0.5 else field.zero
                 for _ in range(4)]
                for _ in range(rng.randint(1, 3))
            ]
            rows = indices(m)
            before = [list(r) for r in rows]
            ech = linalg.echelon(field, rows)
            assert rows == before  # the input is not mutated
            pivots = [next(c for c, a in enumerate(r) if a) for r in ech]
            assert pivots == sorted(set(pivots))
            for r, c in zip(ech, pivots):
                assert r[c] == 1
                assert all(other[c] == 0 for other in ech if other is not r)
            back = [[field.elements[a] for a in r] for r in ech]
            assert span_size(field, back) == span_size(field, m) == field.q ** len(ech)
            assert span_size(field, back + m) == span_size(field, m)


@st.composite
def points(draw, fields, sizes):
    """(field, n, entries) with entries a dict over positions(n); about half
    the entries are 0, so every rank from 0 to full turns up."""
    field = draw(st.sampled_from(fields))
    n = draw(st.sampled_from(sizes))
    digit = st.one_of(st.just(0), st.integers(0, field.q - 1))
    values = draw(st.lists(digit, min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2))
    return field, n, {pos: field.elements[v] for pos, v in zip(positions(n), values)}


@PROPS
@given(points(FIELDS, (4, 5)))
def test_window_ranks_count_the_window_spans(point):
    field, n, entries = point
    x = NilMatrix(field, n, entries)
    lam = Functional(field, n, entries)
    ranks, dual = window_ranks(x), window_ranks_dual(lam)

    def at(k, l):
        return entries[k, l] if k < l else field.zero

    for m, (i, j) in enumerate(positions(n)):
        rows = [[at(k, l) for l in range(i + 1, j + 1)] for k in range(i, j)]
        assert field.q ** ranks[m] == span_size(field, rows), (i, j)
        rows = [[at(k, l) for l in range(j, n + 1)] for k in range(1, i + 1)]
        assert field.q ** dual[m] == span_size(field, rows), (i, j)


@PROPS
@given(points(FIELDS, (4, 5)))
def test_delta_value_ranks_the_span_of_g_minus_one(point):
    field, n, entries = point
    g = UniMatrix(NilMatrix(field, n, entries))
    rows = [[g.off.get(i, j) for j in range(1, n + 1)] for i in range(1, n + 1)]
    r = log_q(field, span_size(field, rows))
    value = 1
    for m in range(1, n - r):
        value *= field.q**m - 1
    assert delta_value(g) == (-1) ** r * value


def test_brute_rows_are_orthogonal_under_orbit_weights():
    # sum_c w_c chi_s(c) conj(chi_t(c)) = delta_st |U| q^i, with w_c the BFS
    # adjoint orbit sizes, and q^i = |left orbit|^2 / |coadjoint orbit|
    for n, p, k in ((3, 2, 1), (3, 3, 1), (4, 2, 1), (3, 2, 2)):
        ctx = OracleContext(n, field_make(p, k))
        rows, cols, values = ctx.table
        order = len(ctx.adjoint.ids)
        adjoint = dict(zip(ctx.adjoint.representatives, ctx.adjoint.orbit_sizes()))
        weights = [adjoint[x] for x in cols]
        coadjoint = dict(zip(ctx.coadjoint.representatives, ctx.coadjoint.orbit_sizes()))
        for s in range(len(rows)):
            for t, tau in enumerate(rows):
                pairing = sum(
                    w * a * b.conjugate() for w, a, b in zip(weights, values[s], values[t])
                )
                if s != t:
                    assert pairing == 0
                    continue
                left = ctx.left_orbit_size(tau)
                selfint, rest = divmod(left * left, coadjoint[tau])
                assert rest == 0
                assert pairing == order * selfint
                assert ctx.projection[t][1] == order * selfint
