from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supercluster import field_make, oracle
from supercluster.characters import char_value_sum
from supercluster.clusters import (
    cluster_elements,
    enumerate_templates,
    invariants_of,
    parse_template,
)
from supercluster.core import (
    Functional,
    NilMatrix,
    UniMatrix,
    coact_left,
    e_ij,
    eps_ij,
    evaluate,
    fixes_left,
    identity,
    positions,
)
from supercluster.cyclotomic import Cyclotomic
from supercluster.errors import ResourceCapExceeded
from supercluster.oracle import (
    OracleContext,
    bfs_double_orbit,
    bfs_left_orbit,
    brute_char_value,
    brute_delta_value,
    brute_inner,
    brute_table,
    brute_tensor,
    covers_rows,
    enumerate_dual,
    enumerate_group,
    enumerate_nil,
    fixed_by_template_action,
    orbit_partition,
)


def T(field, n, text):
    return parse_template(field, n, text)


def test_enumeration_sizes(F2, F3):
    assert len(enumerate_group(2, F2)) == 2
    assert len(enumerate_group(3, F2)) == 8
    assert len(enumerate_dual(3, F3)) == 27
    assert len(enumerate_nil(4, F3)) == 729


def test_enumeration_cap():
    with pytest.raises(ResourceCapExceeded):
        enumerate_dual(6, field_make(5, 1), cap=2**10)


def test_bfs_examples(F2):
    zero = Functional(F2, 3, {})
    assert bfs_double_orbit(zero) == {zero}
    e13 = eps_ij(F2, 3, 1, 3)
    cluster = bfs_double_orbit(e13)
    assert cluster == {
        e13,
        e13 + eps_ij(F2, 3, 1, 2),
        e13 + eps_ij(F2, 3, 2, 3),
        e13 + eps_ij(F2, 3, 1, 2) + eps_ij(F2, 3, 2, 3),
    }
    # the adjoint cluster of e12 + e23 only reaches (1,3) shifts: 2 elements
    adj = bfs_double_orbit(e_ij(F2, 3, 1, 2) + e_ij(F2, 3, 2, 3), "adjoint")
    assert adj == {
        e_ij(F2, 3, 1, 2) + e_ij(F2, 3, 2, 3),
        e_ij(F2, 3, 1, 2) + e_ij(F2, 3, 2, 3) + e_ij(F2, 3, 1, 3),
    }


def test_left_orbit(F2):
    e13 = eps_ij(F2, 3, 1, 3)
    assert bfs_left_orbit(e13) == {e13, e13 + eps_ij(F2, 3, 1, 2)}


def test_orbit_partition_structure(F2):
    part = orbit_partition(3, F2, "coadjoint")
    assert len(part.points) == 8
    assert len(part.representatives) == 5
    assert sorted(part.orbit_sizes()) == [1, 1, 1, 1, 4]
    texts = sorted(t.text() for t in part.representatives)
    assert texts == ["(1,2)=1", "(1,2)=1;(2,3)=1", "(1,3)=1", "(2,3)=1", "0"]


def test_brute_char_rows_n3_q2(F2):
    cols = ["0", "(1,2)=1", "(2,3)=1", "(1,3)=1", "(1,2)=1;(2,3)=1"]
    def row(tau_text):
        tau = T(F2, 3, tau_text)
        return [
            brute_char_value(tau, UniMatrix(T(F2, 3, c).as_matrix())) for c in cols
        ]
    assert row("(1,3)=1") == [2, 0, 0, -2, 0]
    assert row("(1,2)=1;(2,3)=1") == [1, -1, -1, 1, 1]
    assert row("0") == [1, 1, 1, 1, 1]


def test_brute_inner_examples(F2):
    t0 = T(F2, 3, "0")
    t13 = T(F2, 3, "(1,3)=1")
    def chi(tau):
        return lambda g: brute_char_value(tau, g)
    assert brute_inner(chi(t0), chi(t0), 3, F2) == 1
    assert brute_inner(chi(t13), chi(t13), 3, F2) == 1
    assert brute_inner(chi(t0), chi(t13), 3, F2) == 0


def test_left_orbit_spans_group_algebra_dimension(F2, F3):
    # total dimension of the orbit modules is the group order
    for field in (F2, F3):
        part = orbit_partition(3, field, "coadjoint")
        seen = set()
        total = 0
        for lam in part.points:
            if lam in seen:
                continue
            orbit = bfs_left_orbit(lam)
            seen |= orbit
            total += len(orbit)
        assert total == field.q**3


def test_fixed_point_criterion_exhaustive(F2, F3):
    for field in (F2, F3):
        duals = enumerate_dual(3, field)
        for x in enumerate_templates(3, field):
            g = UniMatrix(x.as_matrix())
            for lam in duals:
                assert (coact_left(g, lam) == lam) == fixed_by_template_action(
                    lam, x.as_matrix()
                )


def test_brute_delta_matches_rank_formula(F2):
    from supercluster.discrete import delta_value

    duals = enumerate_dual(3, F2)
    for g in enumerate_group(3, F2):
        assert brute_delta_value(g, duals) == Cyclotomic.from_rational(2, delta_value(g))


def test_brute_table_is_square_and_consistent(F3):
    rows, cols, values = brute_table(3, F3)
    assert len(rows) == len(cols) == 11
    assert values[0] == [Cyclotomic.from_rational(3, 1)] * 11


def test_brute_tensor_example(F2):
    t13 = T(F2, 3, "(1,3)=1")
    got = brute_tensor(t13, t13)
    assert {t.text(): m for t, m in got.items()} == {
        "0": 1,
        "(1,2)=1": 1,
        "(2,3)=1": 1,
        "(1,2)=1;(2,3)=1": 1,
    }


def test_brute_tensor_equals_rewrite_on_every_pair(F3):
    from supercluster.tensor import tensor_product

    rows, _, _ = brute_table(3, F3)
    assert len(rows) == 11
    for t1 in rows:
        for t2 in rows:
            assert brute_tensor(t1, t2) == tensor_product(t1, t2)


def test_brute_delta_value_filters_any_list(F3):
    from supercluster.discrete import delta_value

    duals = enumerate_dual(3, F3)
    covering = [lam for lam in duals if covers_rows(lam)]
    assert 0 < len(covering) < len(duals)
    for g in enumerate_group(3, F3):
        want = Cyclotomic.from_rational(3, delta_value(g))
        assert brute_delta_value(g) == want
        assert brute_delta_value(g, duals) == want
        assert brute_delta_value(g, covering) == want


# -- one context per run ---------------------------------------------------------

@pytest.mark.parametrize("n,p,k", [(3, 3, 1), (4, 2, 1), (3, 2, 2)])
def test_partition_keys_are_the_enumerated_points(n, p, k):
    for side in ("adjoint", "coadjoint"):
        part = orbit_partition(n, field_make(p, k), side)
        assert len(part.orbit_id) == len(part.points)
        assert {id(m) for m in part.orbit_id} == {id(m) for m in part.points}


def test_members_group_the_points_by_orbit(F2, F3):
    for field in (F2, F3):
        part = orbit_partition(3, field, "adjoint")
        members = part.members()
        assert [len(m) for m in members] == part.orbit_sizes()
        for oid, points in enumerate(members):
            assert points == [x for x in part.points if part.orbit_of(x) == oid]


def test_context_reads_the_enumerations_from_its_partitions(F3):
    ctx = OracleContext(3, F3)
    assert ctx.nil is ctx.adjoint.points and ctx.nil == enumerate_nil(3, F3)
    assert ctx.dual is ctx.coadjoint.points and ctx.dual == enumerate_dual(3, F3)
    group = ctx.group()
    assert group == enumerate_group(3, F3)
    assert all(g.off is x for g, x in zip(group, ctx.nil))
    with pytest.raises(ResourceCapExceeded):
        ctx.group(cap=26)
    x = ctx.adjoint.representatives[-1]
    assert ctx.column(x) is ctx.column(x) and ctx.column(x) == UniMatrix(x.as_matrix())
    assert ctx.table == brute_table(3, F3)


def test_free_calls_keep_at_most_one_context(F2, F3):
    brute_table(3, F2)
    brute_tensor(T(F3, 3, "(1,3)=1"), T(F3, 3, "0"))
    assert brute_table(3, F3) is oracle._shared_context(3, F3, oracle.DEFAULT_MAX_SPACE).table
    assert oracle._shared_context.cache_info().currsize == 1


def test_brute_inner_evaluates_a_self_pairing_once_per_element(F2):
    tau = T(F2, 3, "(1,3)=1")
    calls = []

    def chi(g):
        calls.append(g)
        return brute_char_value(tau, g)

    assert brute_inner(chi, chi, 3, F2) == 1
    assert len(calls) == 8
    assert brute_inner(chi, chi, 3, F2, ctx=OracleContext(3, F2)) == 1
    assert len(calls) == 16


# -- traces summed in integer bins -----------------------------------------------

PROPS = settings(derandomize=True, database=None, deadline=None, max_examples=40)

# (n, p, k) over GF(2), GF(3), GF(4), GF(5), GF(9), n <= 4, at most 5^6 points
SMALL = [
    (n, p, k)
    for (p, k) in ((2, 1), (3, 1), (2, 2), (5, 1), (3, 2))
    for n in (2, 3, 4)
    if (p**k) ** (n * (n - 1) // 2) <= 5**6
]


@lru_cache(maxsize=None)
def covering_duals(n, p, k):
    return [lam for lam in enumerate_dual(n, field_make(p, k)) if covers_rows(lam)]


def summed_roots(p, values):
    """The sum of z^trace(a) over values, one zeta_power term at a time."""
    total = Cyclotomic.from_rational(p, 0)
    for a in values:
        total = total + Cyclotomic.zeta_power(p, a.trace())
    return total


@st.composite
def trace_cases(draw):
    """(n, p, k, tau, g): a row template and a group element, g - I sparse."""
    n, p, k = draw(st.sampled_from(SMALL))
    field = field_make(p, k)
    templates = enumerate_templates(n, field)
    # i > 0 only for the crossing (1,3), (2,4) at n <= 4; draw it half the time
    crossing = [t for t in templates if invariants_of(t).i > 0]
    tau = draw(st.sampled_from(crossing if crossing and draw(st.booleans()) else templates))
    value = st.one_of(st.just(0), st.integers(0, field.q - 1))
    count = len(positions(n))
    indices = draw(st.lists(value, min_size=count, max_size=count))
    off = NilMatrix(field, n, {pos: field.elements[m] for pos, m in zip(positions(n), indices)})
    return n, p, k, tau, UniMatrix(off)


@PROPS
@given(trace_cases())
def test_binned_traces_equal_summed_roots_of_unity(case):
    """At g and at the identity, where every term is 1 and the q^(i-d)
    scaling of the cluster sum shows whenever i > 0."""
    n, p, k, tau, g = case
    q = p**k
    orbit = bfs_left_orbit(tau.as_functional())
    covering = covering_duals(n, p, k)
    inv = invariants_of(tau)
    ctx = OracleContext(n, tau.field)
    for h in (g, identity(tau.field, n)):
        want = summed_roots(p, [evaluate(lam, h.off) for lam in orbit if fixes_left(h, lam)])
        assert brute_char_value(tau, h) == want
        assert brute_char_value(tau, h, ctx) == want
        want = summed_roots(p, [evaluate(lam, h.off) for lam in covering if fixes_left(h, lam)])
        assert brute_delta_value(h, covering) == want
        total = summed_roots(p, [evaluate(lam, h.off) for lam in cluster_elements(tau)])
        assert char_value_sum(tau, h) == Fraction(q**inv.i, q**inv.d) * total


# -- the row trie of the discrete-series trace -----------------------------------

def per_pair_delta(g, lams):
    """The sum of z^trace(lam(g-I)) over the row-covering members fixes_left
    accepts, one (g, lam) pair at a time, each accepted one checked against
    its image."""
    fixed = []
    for lam in lams:
        if covers_rows(lam) and fixes_left(g, lam):
            assert coact_left(g, lam) == lam
            fixed.append(evaluate(lam, g.off))
    return summed_roots(g.field.p, fixed)


@pytest.mark.parametrize(
    "n,p,k", [(1, 2, 1), (2, 3, 1), (4, 2, 1), (3, 3, 1), (3, 2, 2), (4, 3, 1)],
    ids=["1-2", "2-3", "4-2", "3-3", "3-2^2", "4-3"],
)
def test_row_trie_trace_equals_the_per_pair_trace(n, p, k):
    """At every group element, with the context's trie and with throwaway ones."""
    ctx = OracleContext(n, field_make(p, k))
    covering = covering_duals(n, p, k)
    group = ctx.group()
    for m, g in enumerate(group):
        want = per_pair_delta(g, covering)
        assert brute_delta_value(g, ctx=ctx) == want
        assert brute_delta_value(g, covering) == want
        if m % max(1, len(group) // 16) == 0:  # these two filter the whole dual space
            assert brute_delta_value(g) == want
            assert brute_delta_value(g, ctx.dual) == want


# (n, p, k) over GF(2), GF(3), GF(4), GF(5), GF(8), GF(9), n <= 4, at most 4^6 points
ROW_TRIE_CASES = [
    (n, p, k)
    for (p, k) in ((2, 1), (3, 1), (2, 2), (5, 1), (2, 3), (3, 2))
    for n in (1, 2, 3, 4)
    if (p**k) ** (n * (n - 1) // 2) <= 4**6
]


@lru_cache(maxsize=None)
def row_trie_context(n, p, k):
    return OracleContext(n, field_make(p, k))


@st.composite
def delta_lists(draw):
    """(g, lams): a group element and a shuffled list of functionals drawn
    with repetition, covering ones and any others."""
    n, p, k = draw(st.sampled_from(ROW_TRIE_CASES))
    field = field_make(p, k)
    value = st.one_of(st.just(0), st.integers(0, field.q - 1))
    count = len(positions(n))
    indices = draw(st.lists(value, min_size=count, max_size=count))
    off = NilMatrix(field, n, {pos: field.elements[m] for pos, m in zip(positions(n), indices)})
    g = UniMatrix(off)
    member = st.one_of(
        st.sampled_from(covering_duals(n, p, k)),
        st.sampled_from(row_trie_context(n, p, k).dual),
    )
    lams = draw(st.lists(member, max_size=24))
    lams += draw(st.lists(st.sampled_from(lams), max_size=6)) if lams else []
    return g, draw(st.permutations(lams))


@PROPS
@given(delta_lists())
def test_row_trie_trace_of_any_list_equals_the_per_pair_trace(case):
    """Duplicates count as often as they occur; order does not matter."""
    g, lams = case
    assert brute_delta_value(g, lams) == per_pair_delta(g, lams)
    n, p, k = g.n, g.field.p, g.field.k
    ctx = row_trie_context(n, p, k)
    assert brute_delta_value(g, ctx=ctx) == per_pair_delta(g, covering_duals(n, p, k))


def test_row_trie_rejects_mismatched_inputs(F2, F3, F4):
    lam = eps_ij(F2, 3, 1, 3) + eps_ij(F2, 3, 2, 3)
    for field in (F3, F4):
        g = UniMatrix(e_ij(field, 3, 1, 2))
        with pytest.raises(ValueError, match="field mismatch"):
            brute_delta_value(g, [lam])
        with pytest.raises(ValueError, match="field mismatch"):
            brute_delta_value(g, ctx=OracleContext(3, F2))
    with pytest.raises(ValueError, match="size mismatch"):
        brute_delta_value(identity(F2, 4), [lam])
    with pytest.raises(ValueError, match="size mismatch"):
        brute_delta_value(identity(F2, 4), ctx=OracleContext(3, F2))
    with pytest.raises(ValueError, match="not both"):
        brute_delta_value(identity(F2, 3), [lam], ctx=OracleContext(3, F2))
