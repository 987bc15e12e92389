from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supercluster import clusters, field_make, linalg, packed
from supercluster.characters import char_value_sum
from supercluster.clusters import (
    HatDims,
    Template,
    WindowRanks,
    _lhat_vectors,
    _rhat_vectors,
    adjoint_cluster_size,
    adjoint_template_of,
    bell_poly,
    bell_polys,
    cluster_size,
    coadjoint_template_of,
    enumerate_templates,
    invariants_of,
    left_orbits,
    parse_template,
)
from supercluster.core import (
    Functional,
    NilMatrix,
    UniMatrix,
    act_left,
    act_right,
    coact_left,
    coact_right,
    e_ij,
    elementary,
    eps_ij,
    evaluate,
    identity,
    nil_mul,
    positions,
)
from supercluster.cyclotomic import Cyclotomic
from supercluster.errors import InvariantViolation
from supercluster.oracle import enumerate_dual, enumerate_nil, orbit_partition
from walks import cluster_elements, hat_dims, window_ranks, window_ranks_dual


def T(field, n, text):
    return parse_template(field, n, text)


# -- reduction sweeps ---------------------------------------------------------

def test_adjoint_template_examples(F2):
    t, _, _ = adjoint_template_of(NilMatrix(F2, 3, {}))
    assert t.text() == "0"
    # e12 + e13 reduces to e12: the left-to-right sweep keeps the earlier
    # column (rank of the (1,2) window is 1, which e13 alone cannot match)
    t, _, _ = adjoint_template_of(e_ij(F2, 3, 1, 2) + e_ij(F2, 3, 1, 3))
    assert t.text() == "(1,2)=1"
    t, _, _ = adjoint_template_of(e_ij(F2, 3, 1, 2) + e_ij(F2, 3, 2, 3))
    assert t.text() == "(1,2)=1;(2,3)=1"


def test_coadjoint_template_examples(F2):
    t, _, _ = coadjoint_template_of(Functional(F2, 3, {}))
    assert t.text() == "0"
    t, _, _ = coadjoint_template_of(eps_ij(F2, 3, 1, 3) + eps_ij(F2, 3, 2, 3))
    assert t.text() == "(1,3)=1"
    t, _, _ = coadjoint_template_of(eps_ij(F2, 3, 1, 2) + eps_ij(F2, 3, 2, 3))
    assert t.text() == "(1,2)=1;(2,3)=1"
    # the mirror convention keeps the later column on the dual side
    t, _, _ = coadjoint_template_of(eps_ij(F2, 3, 1, 2) + eps_ij(F2, 3, 1, 3))
    assert t.text() == "(1,3)=1"


@pytest.mark.parametrize("q", [2, 3])
def test_coadjoint_witnesses_and_bfs_uniqueness(q):
    field = field_make(q, 1)
    part = orbit_partition(3, field, "coadjoint")
    for lam, oid in zip(enumerate_dual(3, field), part.ids):
        t, g, h = coadjoint_template_of(lam)
        assert t == part.representatives[oid]
        assert coact_left(g, coact_right(lam, h)) == t.as_functional()


@pytest.mark.parametrize("q", [2, 3])
def test_adjoint_witnesses_and_bfs_uniqueness(q):
    field = field_make(q, 1)
    part = orbit_partition(3, field, "adjoint")
    for x, oid in zip(enumerate_nil(3, field), part.ids):
        t, g, h = adjoint_template_of(x)
        assert t == part.representatives[oid]
        assert act_right(act_left(g, x), h) == t.as_matrix()


# Each case is a point of n = 3 over GF(3) whose sweep records operations on
# the given sides of each core: none (it is already a template), the left
# witness g only, or the right witness h only.  The adjoint sweep's g holds
# its row operations and h its column operations; the coadjoint sweep's g
# (coact_left) its column operations and h (coact_right) its row operations.
SIDED_POINTS = {
    ("adjoint", "none"): {(1, 2): 1, (2, 3): 2},
    ("adjoint", "left"): {(1, 3): 1, (2, 3): 1},
    ("adjoint", "right"): {(1, 2): 1, (1, 3): 1},
    ("coadjoint", "none"): {(1, 3): 2},
    ("coadjoint", "left"): {(1, 2): 1, (1, 3): 1},
    ("coadjoint", "right"): {(1, 3): 1, (2, 3): 1},
}


@pytest.mark.parametrize("side, sides", list(SIDED_POINTS))
def test_a_sweep_handed_another_points_rows_names_the_point(F3, side, sides):
    """Each core records operations on the sides the case names, returns
    None for a side without any, and, handed the index rows of y with the
    point x = 2y (so every witness the rows give carries x to twice the
    template), raises naming x, whichever sides are skipped as the
    identity."""
    kind = NilMatrix if side == "adjoint" else Functional
    sweep = getattr(clusters, f"_{side}_sweep")
    y = kind(F3, 3, {pos: F3.elements[v] for pos, v in SIDED_POINTS[side, sides].items()})
    _, g, h = sweep(y, clusters._index_rows(y))
    assert (g is not None, h is not None) == (sides == "left", sides == "right")
    x = y.scale(F3.elements[2])
    with pytest.raises(InvariantViolation) as exc:
        sweep(x, clusters._index_rows(y))
    assert str(exc.value) == f"witnesses for {x!r} do not reproduce the template"


COMPOSE = settings(derandomize=True, database=None, deadline=None, max_examples=120)


@st.composite
def op_list(draw):
    """(field, n, ops, on_left): 0 to 4 operations (i, j, a) over GF(2),
    GF(3) or GF(4), n = 2..5, a any field index, 0 included."""
    field = draw(st.sampled_from([field_make(2, 1), field_make(3, 1), field_make(2, 2)]))
    n = draw(st.integers(2, 5))
    op = st.tuples(st.sampled_from(positions(n)), st.integers(0, field.q - 1))
    ops = [(i, j, a) for (i, j), a in draw(st.lists(op, max_size=4))]
    return field, n, ops, draw(st.booleans())


@COMPOSE
@given(op_list())
def test_compose_is_the_ordered_product_of_its_operations(case):
    """op_k ... op_1 for operations applied on the left, op_1 ... op_k on
    the right, each op the generator core.elementary gives."""
    field, n, ops, on_left = case
    product = identity(field, n)
    for i, j, a in ops:
        op = elementary(field, n, i, j, field.elements[a])
        product = op * product if on_left else product * op
    assert clusters._compose(field, n, ops, on_left) == product


def test_template_rejects_non_rook(F2):
    with pytest.raises(ValueError):
        Template(F2, 3, [(1, 2, F2.one), (1, 3, F2.one)])
    with pytest.raises(ValueError):
        Template(F2, 3, [(1, 3, F2.zero)])


def test_template_rejects_foreign_field(F2, F3, F4):
    with pytest.raises(ValueError):
        Template(F2, 3, [(1, 3, F3.elements[2])])
    with pytest.raises(ValueError):
        Template(F2, 3, [(1, 2, F2.one), (2, 3, F4.one)])


# -- rank invariants ----------------------------------------------------------

def test_window_rank_examples(F2):
    # window_ranks lists the windows (i, j) in positions order
    pos = positions(3)
    assert window_ranks(NilMatrix(F2, 3, {}))[pos.index((1, 3))] == 0
    assert window_ranks(e_ij(F2, 3, 1, 2) + e_ij(F2, 3, 2, 3))[pos.index((1, 3))] == 2
    assert window_ranks(e_ij(F2, 3, 1, 2) + e_ij(F2, 3, 1, 3))[pos.index((1, 2))] == 1
    assert window_ranks(e_ij(F2, 3, 1, 3))[pos.index((1, 2))] == 0
    assert window_ranks_dual(eps_ij(F2, 3, 1, 3))[pos.index((2, 3))] == 1
    with pytest.raises(ValueError):  # no window (3, 2)
        window_ranks(NilMatrix(F2, 3, {}))[pos.index((3, 2))]


def test_window_ranks_constant_on_clusters(F2):
    for side, ranks, space in (
        ("adjoint", window_ranks, enumerate_nil), ("coadjoint", window_ranks_dual, enumerate_dual)
    ):
        part = orbit_partition(3, F2, side)
        points = space(3, F2)  # indexed by code
        for start, oid in zip(points, part.ids):
            base = ranks(start)
            for c in part.orbit_codes[oid]:
                assert ranks(points[c]) == base


@pytest.mark.parametrize("n,p,k", [(3, 2, 1), (4, 3, 1), (3, 2, 2), (3, 2, 3)],
                         ids=["3-2", "4-3", "3-2^2", "3-2^3"])
def test_prefix_window_ranks_equal_each_points_own(n, p, k):
    """One WindowRanks per side, called on every point in code order, gives
    each point the ranks of window_ranks or window_ranks_dual on that point
    alone, and those are the ranks of the entries inside each window."""
    field = field_make(p, k)
    codes = packed.Codes(n, field)
    for side, alone, inside in (
        ("adjoint", window_ranks, lambda i, j, a, b: i <= a and b <= j),
        ("coadjoint", window_ranks_dual, lambda i, j, a, b: a <= i and j <= b),
    ):
        walk = WindowRanks(field, n, side)
        for c in range(codes.size):
            point, rows = codes.decode(side, c)
            ranks = walk(rows)
            assert ranks == alone(point)
            assert ranks == tuple(
                linalg.rank(field, [[v if inside(i, j, a, b) else 0 for b, v in enumerate(row, 1)]
                                    for a, row in enumerate(rows, 1)])
                for i, j in positions(n)
            )


MOVES = settings(derandomize=True, database=None, deadline=None, max_examples=60)


@st.composite
def moved_point(draw):
    """(x, g, h) over GF(3), GF(4), GF(5) or GF(9), n = 3..5: a point and two
    group elements, as index lists over positions(n), about half of them 0."""
    fields = [field_make(3, 1), field_make(2, 2), field_make(5, 1), field_make(3, 2)]
    field = draw(st.sampled_from(fields))
    n = draw(st.sampled_from((3, 4, 5)))
    digit = st.one_of(st.just(0), st.integers(0, field.q - 1))

    def draw_entries():
        values = draw(st.lists(digit, min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2))
        return {pos: field.elements[v] for pos, v in zip(positions(n), values)}

    x = draw_entries()
    g, h = (UniMatrix(NilMatrix(field, n, draw_entries())) for _ in range(2))
    return field, n, x, g, h


@MOVES
@given(moved_point())
def test_window_ranks_and_indices_survive_one_sided_moves(point):
    # g.x.h and g.lam.h stay in the cluster, so every window rank, and the
    # L-hat/R-hat dimensions d, d and i, are those of the point itself
    field, n, entries, g, h = point
    x = NilMatrix(field, n, entries)
    assert window_ranks(act_right(act_left(g, x), h)) == window_ranks(x)
    lam = Functional(field, n, entries)
    moved = coact_left(g, coact_right(lam, h))
    assert window_ranks_dual(moved) == window_ranks_dual(lam)
    dims = hat_dims(lam)
    assert hat_dims(moved) == dims
    assert dims[0] == dims[1]


@MOVES
@given(moved_point())
def test_templates_and_witnesses_survive_one_sided_moves(point):
    # g.x.h and g.lam.h have the template of x and of lam, and each sweep's
    # witnesses carry the point it was given onto the template it returns
    field, n, entries, g, h = point
    x = NilMatrix(field, n, entries)
    templates = set()
    for y in (x, act_right(act_left(g, x), h)):
        t, g2, h2 = adjoint_template_of(y)
        assert act_right(act_left(g2, y), h2) == t.as_matrix()
        templates.add(t)
    assert len(templates) == 1
    lam = Functional(field, n, entries)
    templates = set()
    for mu in (lam, coact_left(g, coact_right(lam, h))):
        tau, g2, h2 = coadjoint_template_of(mu)
        assert coact_left(g2, coact_right(mu, h2)) == tau.as_functional()
        templates.add(tau)
    assert len(templates) == 1


@st.composite
def split_case(draw):
    """(tau, g) over GF(2), GF(3), GF(4), GF(5) or GF(9): a row template
    whose cluster has at most 3^6 points, a crossing one (i > 0) half the
    time where there is one, and a group element, g - I about half 0."""
    fields = [field_make(2, 1), field_make(3, 1), field_make(2, 2), field_make(5, 1),
              field_make(3, 2)]
    field = draw(st.sampled_from(fields))
    n = draw(st.sampled_from((3, 4, 5) if field.q <= 3 else (3, 4)))
    templates = [t for t in enumerate_templates(n, field) if cluster_size(t) <= 3**6]
    crossing = [t for t in templates if invariants_of(t).i > 0]
    tau = draw(st.sampled_from(crossing if crossing and draw(st.booleans()) else templates))
    digit = st.one_of(st.just(0), st.integers(0, field.q - 1))
    values = draw(st.lists(digit, min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2))
    g = UniMatrix(NilMatrix(field, n, {
        pos: field.elements[v] for pos, v in zip(positions(n), values)
    }))
    return tau, g


@MOVES
@given(split_case())
def test_left_orbits_split_the_cluster(case):
    # q^(d-i) disjoint left orbits mu + L-hat(mu), q^d points each, whose
    # union is the cluster; the sum over them is the explicit cluster sum.
    # The orbits and the cluster are closures of the oracle's packed codes.
    tau, g = case
    field, n, q = tau.field, tau.n, tau.field.q
    inv = invariants_of(tau)
    orbits = left_orbits(tau)
    assert left_orbits(tau) is orbits
    assert len(orbits) == q ** (inv.d - inv.i)
    codes = packed.Codes(n, field)
    left = codes.generators("coadjoint", ("left",))
    union = set()
    for vec, basis in orbits:
        mu = Functional(field, n, {
            pos: field.elements[v] for pos, v in zip(positions(n), vec)
        })
        assert [list(row) for row in basis] == linalg.echelon(field, _lhat_vectors(mu))
        orbit = codes.closure(codes.encode(mu), left)
        assert len(orbit) == q ** inv.d
        assert not orbit & union
        union |= orbit
    cluster = codes.closure(codes.encode_template(tau), codes.generators("coadjoint"))
    assert union == cluster
    total = Cyclotomic.from_rational(field.p, 0)
    for c in cluster:
        lam = codes.point("coadjoint", c)
        total = total + Cyclotomic.zeta_power(field.p, evaluate(lam, g.off).trace())
    assert char_value_sum(tau, g) == Fraction(q**inv.i, q**inv.d) * total


# -- invariants ---------------------------------------------------------------

def test_invariants_examples(F2):
    field = F2
    inv = invariants_of(T(field, 3, "(1,3)=1"))
    assert (inv.d, inv.i, inv.d_rows) == (1, 0, (0, 1))
    inv = invariants_of(T(field, 3, "(1,2)=1;(2,3)=1"))
    assert (inv.d, inv.i) == (0, 0)
    inv = invariants_of(T(field, 4, "(1,4)=1;(2,3)=1"))
    assert (inv.d, inv.i) == (2, 0)
    inv = invariants_of(T(field, 4, "(1,3)=1;(2,4)=1"))
    assert (inv.d, inv.i) == (2, 1)  # L-hook with corner (2,3)


def test_d_is_sum_of_row_dims(F2):
    for n in (2, 3, 4, 5):
        for tau in enumerate_templates(n, F2):
            inv = invariants_of(tau)
            assert inv.d == sum(inv.d_rows)
            assert 0 <= inv.i <= inv.d


def test_orbit_space_dims_examples(F2):
    zero = Functional(F2, 3, {})
    assert hat_dims(zero) == (0, 0, 0)
    lam = eps_ij(F2, 3, 1, 3)
    assert hat_dims(lam) == (1, 1, 0)
    lam2 = eps_ij(F2, 3, 1, 3) + eps_ij(F2, 3, 1, 2)  # same cluster
    assert hat_dims(lam2) == (1, 1, 0)


@pytest.mark.parametrize("n,q", [(2, 2), (3, 2), (3, 3), (4, 2)])
def test_combinatorial_indices_match_rank_computation(n, q):
    field = field_make(q, 1)
    for tau in enumerate_templates(n, field):
        inv = invariants_of(tau)
        lhat, rhat, both = hat_dims(tau.as_functional())
        assert lhat == inv.d
        assert rhat == inv.d
        assert both == inv.i


@pytest.mark.parametrize("n,q", [(3, 3), (4, 2)])
def test_orbit_space_dims_count_the_spans(n, q):
    # L-hat = {x -> lam(x.y)} and R-hat = {x -> lam(y.x)} over every nilpotent
    # y, enumerated as value vectors: each set has q^dim points
    field = field_make(q, 1)
    nil = enumerate_nil(n, field)
    basis = [e_ij(field, n, a, b) for (a, b) in positions(n)]
    for lam in enumerate_dual(n, field):
        lhat = {tuple(lam(nil_mul(e, y)) for e in basis) for y in nil}
        rhat = {tuple(lam(nil_mul(y, e)) for e in basis) for y in nil}
        assert (len(lhat), len(rhat), len(lhat & rhat)) == tuple(q**d for d in hat_dims(lam))


@pytest.mark.parametrize("n,p,k", [(5, 2, 1), (4, 3, 1), (4, 2, 2)], ids=["5-2", "4-3", "4-2^2"])
def test_prefix_hat_dims_equal_each_points_own(n, p, k, monkeypatch):
    """One HatDims, called on every point in code order, in reverse and in
    a seeded shuffle, gives each point the dimensions of a fresh HatDims
    called on that point alone; in code order those are also the ranks of
    the point's L-hat and R-hat vectors and of both together.  In code
    order each prefix of rows 1..n-2 is stepped once, and row n-1, which
    adds no vector, never."""
    import random

    field = field_make(p, k)
    codes = packed.Codes(n, field)
    points = [codes.decode("coadjoint", c) for c in range(codes.size)]
    alone = [HatDims(field, n)(rows) for _, rows in points]
    for (lam, _), dims in zip(points, alone):
        left, right = _lhat_vectors(lam), _rhat_vectors(lam)
        dl, dr = linalg.rank(field, left), linalg.rank(field, right)
        assert dims == (dl, dr, dl + dr - linalg.rank(field, left + right))
    shuffled = list(range(codes.size))
    random.Random(7).shuffle(shuffled)
    for order in (range(codes.size), reversed(range(codes.size)), shuffled):
        walk = HatDims(field, n)
        for c in order:
            assert walk(points[c][1]) == alone[c]
    stepped = []
    hat_step = clusters._hat_step

    def counted(field, n, k, rows, state):
        stepped.append(k)
        return hat_step(field, n, k, rows, state)

    monkeypatch.setattr(clusters, "_hat_step", counted)
    walk = HatDims(field, n)
    for _, rows in points:
        walk(rows)
    prefixes = {tuple(map(tuple, rows[:k])) for _, rows in points for k in range(1, n - 1)}
    assert len(stepped) == len(prefixes) and max(stepped) == n - 2


# -- sizes --------------------------------------------------------------------

def test_cluster_sizes_n3_q2(F2):
    sizes = {t.text(): cluster_size(t) for t in enumerate_templates(3, F2)}
    assert sizes == {
        "0": 1,
        "(1,2)=1": 1,
        "(1,2)=1;(2,3)=1": 1,
        "(1,3)=1": 4,
        "(2,3)=1": 1,
    }
    assert sum(sizes.values()) == 8


def test_adjoint_cluster_sizes_n3_q2(F2):
    # frozen from the BFS oracle: only e12 and e23 (and their sum) move
    sizes = {t.text(): adjoint_cluster_size(t) for t in enumerate_templates(3, F2)}
    assert sizes == {
        "0": 1,
        "(1,2)=1": 2,
        "(1,2)=1;(2,3)=1": 2,
        "(1,3)=1": 1,
        "(2,3)=1": 2,
    }
    assert sum(sizes.values()) == 8


@pytest.mark.parametrize("n,q", [(2, 2), (3, 2), (3, 3)])
def test_sizes_match_bfs(n, q):
    field = field_make(q, 1)
    dual_part = orbit_partition(n, field, "coadjoint")
    dual_sizes = dict(zip(dual_part.representatives, dual_part.orbit_sizes()))
    nil_part = orbit_partition(n, field, "adjoint")
    nil_sizes = dict(zip(nil_part.representatives, nil_part.orbit_sizes()))
    for tau in enumerate_templates(n, field):
        assert cluster_size(tau) == dual_sizes[tau]
        assert adjoint_cluster_size(tau) == nil_sizes[tau]


@pytest.mark.parametrize(
    "n,p,k", [(4, 3, 1), (5, 2, 1), (3, 2, 2), (3, 3, 2), (4, 2, 2)],
    ids=["4-3", "5-2", "3-2^2", "3-3^2", "4-2^2"],
)
def test_adjoint_sizes_match_the_adjoint_partition(n, p, k):
    part = orbit_partition(n, field_make(p, k), "adjoint")
    for rep, size in zip(part.representatives, part.orbit_sizes()):
        assert adjoint_cluster_size(rep) == size, rep.text()


def test_cluster_elements_match_bfs(F2, F3):
    for field in (F2, F3):
        part = orbit_partition(3, field, "coadjoint")
        dual = enumerate_dual(3, field)  # indexed by code
        orbits = {
            rep: [dual[c] for c in codes]
            for rep, codes in zip(part.representatives, part.orbit_codes)
        }
        for tau in enumerate_templates(3, field):
            assert set(cluster_elements(tau)) == set(orbits[tau])


# -- primary decomposition ----------------------------------------------------

def test_primary_components(F2, F3):
    assert list(T(F2, 3, "0").cells) == []
    assert list(T(F2, 3, "(1,3)=1").cells) == [(1, 3, F2.one)]
    two = F3.elements[2]
    tau = Template(F3, 3, [(1, 2, two), (2, 3, F3.one)])
    assert list(tau.cells) == [(1, 2, two), (2, 3, F3.one)]


def test_primary_sum_reconstructs_cluster(F3):
    # the elementwise sums of the single-cell clusters fill the full cluster
    tau = Template(F3, 3, [(1, 2, F3.elements[2]), (2, 3, F3.one)])
    parts = [Template(F3, 3, [c]) for c in tau.cells]
    sums = {a + b for a in cluster_elements(parts[0]) for b in cluster_elements(parts[1])}
    assert sums == set(cluster_elements(tau))


# -- enumeration and counting -------------------------------------------------

def test_enumeration_counts():
    assert len(enumerate_templates(2, field_make(2, 1))) == 2
    assert len(enumerate_templates(3, field_make(2, 1))) == 5
    assert len(enumerate_templates(4, field_make(2, 1))) == 15
    assert len(enumerate_templates(3, field_make(3, 1))) == 11


def test_enumeration_is_sorted_and_complete(F3):
    templates = enumerate_templates(3, F3)
    assert templates == sorted(templates, key=lambda t: t.sort_key())
    assert len(set(templates)) == len(templates) == bell_poly(3, 3)


def test_bell_recurrence_against_closed_forms():
    for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16):
        assert bell_poly(0, q) == 1
        assert bell_poly(1, q) == 1
        assert bell_poly(2, q) == q
        assert bell_poly(3, q) == 1 + 3 * (q - 1) + (q - 1) ** 2
        assert bell_poly(4, q) == 1 + 6 * (q - 1) + 7 * (q - 1) ** 2 + (q - 1) ** 3


@pytest.mark.parametrize("q", [2, 3, 4])
def test_one_pass_gives_every_template_count(q):
    """bell_polys(12, q) is B(m, q) for every m <= 12, each as bell_poly(m, q)
    gives it, and the count of enumerated templates up to n = 4."""
    counts = bell_polys(12, q)
    assert counts == [bell_poly(m, q) for m in range(13)]
    field = field_make(2, 2) if q == 4 else field_make(q, 1)
    assert counts[1:5] == [len(enumerate_templates(m, field)) for m in range(1, 5)]


@pytest.mark.parametrize("q", [2, 3, 4])
def test_templates_exceed_is_the_count_over_the_cap(q):
    """templates_exceed(n, q, cap) is B(n, q) > cap with the cap just
    below, at and just above each B(n, q), n <= 12, and it answers an n
    whose recurrence would not finish from the first B(m, q) over cap."""
    for n, b in enumerate(bell_polys(12, q)):
        for cap in (b - 1, b, b + 1):
            assert clusters.templates_exceed(n, q, cap) == (b > cap)
    assert clusters.templates_exceed(10**9, q, 5000)


def test_template_text_round_trip(F3):
    for tau in enumerate_templates(3, F3):
        assert parse_template(F3, 3, tau.text()) == tau
