from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supercluster import field_make, oracle, packed
from supercluster.characters import char_value_sum
from supercluster.clusters import (
    enumerate_templates,
    invariants_of,
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
    eps_ij,
    evaluate,
    fixes_left,
    identity,
    positions,
)
from supercluster.cyclotomic import Cyclotomic
from supercluster.discrete import in_delta
from supercluster.errors import InvariantViolation, ResourceCapExceeded
from supercluster.oracle import (
    OracleContext,
    brute_char_value,
    brute_delta_value,
    brute_delta_values,
    brute_inner,
    brute_tensor,
    column_products,
    enumerate_dual,
    enumerate_group,
    enumerate_nil,
    orbit_partition,
    product_mismatch,
    sum_mismatch,
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
    part, dual = orbit_partition(3, F2, "coadjoint"), enumerate_dual(3, F2)
    orbit_of = {lam: {dual[c] for c in part.orbit_codes[oid]} for lam, oid in zip(dual, part.ids)}
    zero = Functional(F2, 3, {})
    assert orbit_of[zero] == {zero}
    e13 = eps_ij(F2, 3, 1, 3)
    cluster = orbit_of[e13]
    assert cluster == {
        e13,
        e13 + eps_ij(F2, 3, 1, 2),
        e13 + eps_ij(F2, 3, 2, 3),
        e13 + eps_ij(F2, 3, 1, 2) + eps_ij(F2, 3, 2, 3),
    }
    # the adjoint cluster of e12 + e23 only reaches (1,3) shifts: 2 elements
    part, nil = orbit_partition(3, F2, "adjoint"), enumerate_nil(3, F2)
    orbit_of = {x: {nil[c] for c in part.orbit_codes[oid]} for x, oid in zip(nil, part.ids)}
    adj = orbit_of[e_ij(F2, 3, 1, 2) + e_ij(F2, 3, 2, 3)]
    assert adj == {
        e_ij(F2, 3, 1, 2) + e_ij(F2, 3, 2, 3),
        e_ij(F2, 3, 1, 2) + e_ij(F2, 3, 2, 3) + e_ij(F2, 3, 1, 3),
    }


def test_left_orbit(F2):
    e13 = eps_ij(F2, 3, 1, 3)
    codes = packed.Codes(3, F2)
    orbit = codes.closure(codes.encode(e13), codes.generators("coadjoint", ("left",)))
    assert {codes.point("coadjoint", c) for c in orbit} == {e13, e13 + eps_ij(F2, 3, 1, 2)}


def test_orbit_partition_structure(F2):
    part = orbit_partition(3, F2, "coadjoint")
    assert len(part.ids) == 8
    assert len(part.representatives) == 5
    assert sorted(part.orbit_sizes()) == [1, 1, 1, 1, 4]
    texts = sorted(t.text() for t in part.representatives)
    assert texts == ["(1,2)=1", "(1,2)=1;(2,3)=1", "(1,3)=1", "(2,3)=1", "0"]


def test_partition_rejects_an_orbit_with_two_rook_points(F2):
    """The uniqueness half of the classification: with the code of
    eps13 + eps12 counted as a rook point, eps13's orbit holds two."""
    codes = packed.Codes(3, F2)
    codes.rooks = codes.rooks | {codes.encode(eps_ij(F2, 3, 1, 3) + eps_ij(F2, 3, 1, 2))}
    with pytest.raises(InvariantViolation, match="contains 2 rook points, expected 1"):
        codes.partition("coadjoint")


def test_brute_char_rows_n3_q2(F2):
    cols = ["0", "(1,2)=1", "(2,3)=1", "(1,3)=1", "(1,2)=1;(2,3)=1"]
    ctx = OracleContext(3, F2)
    def row(tau_text):
        tau = T(F2, 3, tau_text)
        return [
            brute_char_value(tau, UniMatrix(T(F2, 3, c).as_matrix()), ctx) for c in cols
        ]
    assert row("(1,3)=1") == [2, 0, 0, -2, 0]
    assert row("(1,2)=1;(2,3)=1") == [1, -1, -1, 1, 1]
    assert row("0") == [1, 1, 1, 1, 1]


def test_brute_inner_examples(F2):
    t0 = T(F2, 3, "0")
    t13 = T(F2, 3, "(1,3)=1")
    ctx = OracleContext(3, F2)
    assert brute_inner(t0, t0, ctx) == 1
    assert brute_inner(t13, t13, ctx) == 1
    assert brute_inner(t0, t13, ctx) == 0
    assert brute_inner(t13, t0, ctx) == 0
    with pytest.raises(ResourceCapExceeded):
        OracleContext(3, F2, cap=7)


def test_left_orbit_spans_group_algebra_dimension(F2, F3):
    # total dimension of the orbit modules is the group order
    for field in (F2, F3):
        codes = packed.Codes(3, field)
        left = codes.generators("coadjoint", ("left",))
        seen = set()
        total = 0
        for c in range(codes.size):
            if c in seen:
                continue
            orbit = codes.closure(c, left)
            seen |= orbit
            total += len(orbit)
        assert total == field.q**3


def test_fixed_point_criterion_exhaustive(F2, F3):
    for field in (F2, F3):
        ctx = OracleContext(3, field)
        for x in enumerate_templates(3, field):
            assert ctx.criterion_counterexample(x) is None


def test_criterion_counterexample_reads_every_row_code(monkeypatch, F3):
    """A fixed-point rule wrong only on the last code of row 1 is caught,
    at the functional whose row 1 is that code and whose other rows are 0."""
    rule = packed.Codes.rule

    def wrong_on_the_last_row_1_code(codes, checks, trace_row):
        decide = rule(codes, checks, trace_row)
        if len(checks) != codes.n - 2:  # row k is checked against rows k+1 .. n-1
            return decide
        last = codes.row_blocks[0][1] - 1
        return lambda c: (0 if decide(c) is None else None) if c == last else decide(c)

    monkeypatch.setattr(packed.Codes, "rule", wrong_on_the_last_row_1_code)
    ctx = OracleContext(3, F3)
    lam = ctx.criterion_counterexample(T(F3, 3, "0"))
    assert lam is not None
    codes = ctx.codes
    assert codes.rows(codes.encode(lam)) == (codes.row_blocks[0][1] - 1, 0)


def test_brute_delta_matches_rank_formula(F2):
    from supercluster.discrete import delta_value

    ctx = OracleContext(3, F2)
    for g in enumerate_group(3, F2):
        assert brute_delta_value(g, ctx) == Cyclotomic.from_rational(2, delta_value(g))


def test_brute_table_is_square_and_consistent(F3):
    rows, cols, values = OracleContext(3, F3).table
    assert len(rows) == len(cols) == 11
    assert values[0] == [Cyclotomic.from_rational(3, 1)] * 11


def test_brute_tensor_example(F2):
    t13 = T(F2, 3, "(1,3)=1")
    got = brute_tensor(t13, t13, OracleContext(3, F2))
    assert {t.text(): m for t, m in got.items()} == {
        "0": 1,
        "(1,2)=1": 1,
        "(2,3)=1": 1,
        "(1,2)=1;(2,3)=1": 1,
    }


def test_brute_tensor_equals_rewrite_on_every_pair():
    from supercluster.tensor import tensor_product

    # one test over the three cases, so its id does not change
    for n, p, k, size in ((3, 3, 1, 11), (3, 2, 2, 19), (4, 2, 1, 15)):
        ctx = OracleContext(n, field_make(p, k))
        rows, _, _ = ctx.table
        assert len(rows) == size
        for t1 in rows:
            for t2 in rows:
                assert brute_tensor(t1, t2, ctx) == tensor_product(t1, t2)


def test_brute_tensor_checks_its_projection_at_every_column(F2):
    # flipping the sign of the trivial row at a column where the product
    # vanishes leaves every norm and projection as it was; only the
    # pointwise check sees it
    t13 = T(F2, 3, "(1,3)=1")
    ctx = OracleContext(3, F2)
    rows, cols, values = ctx.table
    c0 = cols.index(T(F2, 3, "(1,2)=1"))
    r1, r0 = rows.index(t13), rows.index(T(F2, 3, "0"))
    assert values[r1][c0] == 0 and values[r0][c0] == 1
    values[r0][c0] = -values[r0][c0]
    with pytest.raises(InvariantViolation, match="misses the product at column"):
        brute_tensor(t13, t13, ctx)


def test_brute_tensor_rejects_a_fractional_multiplicity(F2):
    # doubling the trivial row at (1,3), where the product is 4, makes its
    # projection 12/11
    t13 = T(F2, 3, "(1,3)=1")
    ctx = OracleContext(3, F2)
    rows, cols, values = ctx.table
    r0, c0 = rows.index(T(F2, 3, "0")), cols.index(t13)
    values[r0][c0] = 2 * values[r0][c0]
    with pytest.raises(InvariantViolation, match="multiplicity 12/11 for 0 is not an integer"):
        brute_tensor(t13, t13, ctx)


def masks_delta(g, lams):
    """The discrete-series trace of g over the row-covering members of lams,
    duplicates counted, through trace masks built for this call alone."""
    codes = packed.Codes(g.n, g.field)
    covering = [codes.encode(lam) for lam in lams if in_delta(lam)]
    return Cyclotomic.from_bins(
        g.field.p, codes.trace_bins(codes.trace_masks(covering), codes.row_codes(g.off))
    )


def test_brute_delta_value_filters_any_list(F3):
    """The context's masks, and masks over the row-covering members of the
    whole dual space and of its row-covering part, give the rank formula."""
    from supercluster.discrete import delta_value

    ctx = OracleContext(3, F3)
    duals = enumerate_dual(3, F3)
    covering = [lam for lam in duals if in_delta(lam)]
    assert 0 < len(covering) < len(duals)
    for g in enumerate_group(3, F3):
        want = Cyclotomic.from_rational(3, delta_value(g))
        assert brute_delta_value(g, ctx) == want
        assert masks_delta(g, duals) == want
        assert masks_delta(g, covering) == want


# -- one row-product check -------------------------------------------------------

def first_wrong_column(ctx, terms, factors):
    """The first column where sum of mult * chi_t differs from the product of
    chi_f, in Cyclotomic arithmetic, or None."""
    rows, cols, values = ctx.table
    index = {t: r for r, t in enumerate(rows)}
    p = ctx.field.p
    for c, x in enumerate(cols):
        lhs = Cyclotomic.from_rational(p, 0)
        for t, mult in terms.items():
            lhs = lhs + mult * values[index[t]][c]
        rhs = Cyclotomic.from_rational(p, 1)
        for f in factors:
            rhs = rhs * values[index[f]][c]
        if lhs != rhs:
            return x
    return None


@pytest.mark.parametrize("p,k", [(3, 1), (2, 2)], ids=["3", "2^2"])
def test_product_mismatch_finds_the_first_wrong_column(p, k):
    """None for every true product and every primary factorization; for a
    product with one multiplicity changed, or one term swapped for another
    of the same degree, the first column the Cyclotomic sums tell apart."""
    from supercluster.clusters import Template
    from supercluster.tensor import tensor_product

    field = field_make(p, k)
    ctx = OracleContext(3, field)
    rows, cols, _ = ctx.table
    degree = {t: invariants_of(t).d for t in rows}
    later = 0
    for t1 in rows:
        primaries = [Template(field, 3, [cell]) for cell in t1.cells]
        assert product_mismatch(ctx, {t1: 1}, primaries) is None
        assert product_mismatch(ctx, {t1: 2}, primaries) == cols[0]
        for t2 in rows:
            terms = tensor_product(t1, t2).terms
            assert product_mismatch(ctx, terms, (t1, t2)) is None
            assert product_mismatch(ctx, terms, (t2, t1)) is None
            first = min(terms, key=lambda t: t.sort_key())
            for step in (1, -1):
                changed = dict(terms)
                changed[first] += step
                got = product_mismatch(ctx, changed, (t1, t2))
                assert got is not None and got == first_wrong_column(ctx, changed, (t1, t2))
            other = next(t for t in rows if t != first and degree[t] == degree[first])
            swapped = dict(terms)
            mult = swapped.pop(first)
            swapped[other] = swapped.get(other, 0) + mult
            got = product_mismatch(ctx, swapped, (t1, t2))
            assert got is not None and got == first_wrong_column(ctx, swapped, (t1, t2))
            later += got != cols[0]
    assert later > 0  # the identity column alone would not show "first"


def test_sum_mismatch_compares_every_power_of_z(F3):
    """A target that differs from a row only in its z^1 coefficient, at the
    first column, is caught there; the row's own products are not."""
    ctx = OracleContext(3, F3)
    rows, cols, _ = ctx.table
    tau = T(F3, 3, "(1,3)=1")
    assert tau in rows
    target = column_products(ctx, [tau])
    assert sum_mismatch(ctx, {tau: 1}, target) is None
    target[1][0] += 1
    assert sum_mismatch(ctx, {tau: 1}, target) == cols[0]


@pytest.mark.parametrize("p,k", [(3, 1), (3, 2)], ids=["3", "3^2"])
def test_sum_mismatch_finds_an_earlier_wrong_z1_before_a_later_wrong_z0(p, k):
    """A wrong z^1 coefficient at an earlier column than a wrong z^0 one:
    sum_mismatch names the earlier column, whichever power it is in."""
    field = field_make(p, k)
    ctx = OracleContext(3, field)
    rows, cols, _ = ctx.table
    tau = T(field, 3, "(1,3)=1")
    target = column_products(ctx, [tau])
    assert sum_mismatch(ctx, {tau: 1}, target) is None
    target[1][2] += 1
    target[0][4] += 1
    assert sum_mismatch(ctx, {tau: 1}, target) == cols[2]
    target[0][1] += 1
    assert sum_mismatch(ctx, {tau: 1}, target) == cols[1]


def test_brute_tensor_equals_rewrite_on_every_pair_at_p_5():
    """(3,5), the first p = 5 case: 29 rows, all 841 ordered pairs."""
    from supercluster.tensor import tensor_product

    ctx = OracleContext(3, field_make(5, 1))
    rows = ctx.table[0]
    assert len(rows) == 29
    for t1 in rows:
        for t2 in rows:
            assert brute_tensor(t1, t2, ctx) == tensor_product(t1, t2)


N3_FIELDS = [(2, 2), (2, 3), (3, 2)]


@pytest.fixture(scope="module")
def n3_contexts():
    """One context per field at n = 3, shared by every example."""
    return {(p, k): OracleContext(3, field_make(p, k)) for p, k in N3_FIELDS}


@pytest.mark.parametrize("p,k", N3_FIELDS, ids=["2^2", "2^3", "3^2"])
@settings(derandomize=True, database=None, deadline=None, max_examples=10)
@given(data=st.data())
def test_rewrite_counting_and_brute_routes_agree_on_random_pairs(n3_contexts, p, k, data):
    """At n = 3 over GF(4), GF(8) and GF(9)."""
    from supercluster.tensor import tensor_by_counting, tensor_product

    ctx = n3_contexts[p, k]
    rows = ctx.table[0]
    t1, t2 = data.draw(st.sampled_from(rows)), data.draw(st.sampled_from(rows))
    rewritten = tensor_product(t1, t2)
    assert tensor_by_counting(t1, t2) == rewritten
    assert brute_tensor(t1, t2, ctx) == rewritten


# -- one context per run ---------------------------------------------------------

@pytest.mark.parametrize("n,p,k", [(3, 3, 1), (4, 2, 1), (3, 2, 2)])
def test_partition_keys_are_the_enumerated_points(n, p, k):
    """A point's key is its code, its place in the enumeration; ids[c] is
    its orbit, the one whose representative the closure of c under both
    actions holds."""
    field = field_make(p, k)
    codes = packed.Codes(n, field)
    for side, space in (("adjoint", enumerate_nil), ("coadjoint", enumerate_dual)):
        part, points = orbit_partition(n, field, side), space(n, field)
        assert len(part.ids) == len(points) == codes.size
        assert [codes.encode(x) for x in points] == list(range(codes.size))
        moves = codes.generators(side)
        for c, oid in list(enumerate(part.ids))[:: max(1, codes.size // 40)]:
            rook = codes.encode_template(part.representatives[oid])
            assert rook in codes.closure(c, moves)


def test_members_group_the_points_by_orbit(F2, F3):
    for field in (F2, F3):
        part, nil = orbit_partition(3, field, "adjoint"), enumerate_nil(3, field)
        members = [[nil[c] for c in codes] for codes in part.orbit_codes]
        assert [len(m) for m in members] == part.orbit_sizes()
        for oid, points in enumerate(members):
            assert points == [x for x, i in zip(nil, part.ids) if i == oid]
            assert part.orbit_codes[oid] == [i for i, x in enumerate(part.ids) if x == oid]


def test_context_reads_the_enumerations_from_its_partitions(F3):
    """The context decodes its codes in enumeration order, and its walk of
    the group, over the trivial row, which every element fixes, meets the
    elements of enumerate_group in order."""
    ctx = OracleContext(3, F3)
    codes = range(ctx.codes.size)
    assert [ctx.codes.point("adjoint", c) for c in codes] == enumerate_nil(3, F3)
    assert [ctx.codes.point("coadjoint", c) for c in codes] == enumerate_dual(3, F3)
    walked = list(ctx.codes.trace_walk(ctx._trace_masks(T(F3, 3, "0"))))
    assert walked == [(ctx.codes.row_codes(g.off), [1, 0, 0]) for g in enumerate_group(3, F3)]
    with pytest.raises(ResourceCapExceeded):
        OracleContext(3, F3, cap=26)
    x = ctx.adjoint.representatives[-1]
    assert ctx.column(x) is ctx.column(x) and ctx.column(x) == UniMatrix(x.as_matrix())


def test_the_oracle_module_keeps_no_context(F3):
    """Every space-wide entry point takes its context; the module holds
    none, and no module-level memo of the oracle grows with a call."""
    import gc
    import weakref

    def held():
        return {
            name: len(value) if isinstance(value, (dict, list, set)) else None
            for name, value in vars(oracle).items()
            if not name.startswith("__") and not isinstance(value, type(oracle))
        }

    before = held()
    ctx = OracleContext(3, F3)
    t13 = T(F3, 3, "(1,3)=1")
    brute_tensor(t13, t13, ctx)
    brute_delta_value(UniMatrix(t13.as_matrix()), ctx)
    assert held() == before
    assert not any(isinstance(v, OracleContext) for v in vars(oracle).values())
    assert not any(hasattr(v, "cache_info") for v in vars(oracle).values())
    ref = weakref.ref(ctx)
    del ctx
    gc.collect()
    assert ref() is None


def test_brute_inner_evaluates_a_self_pairing_once_per_element(F2, monkeypatch):
    """A self-pairing walks the 8 group elements once and traces none of
    them again; a pairing of two rows traces the second row only at the
    elements the walk yields, those where the first row's trace has a term."""
    tau = T(F2, 3, "(1,3)=1")
    ctx = OracleContext(3, F2)
    rows = [ctx.codes.row_codes(g.off) for g in enumerate_group(3, F2)]
    trace_bins, trace_walk = ctx.codes.trace_bins, ctx.codes.trace_walk
    # g = I + y fixes tau's two-point left orbit exactly when y_23 = 0
    terms = [ys for ys in rows if any(trace_bins(ctx._trace_masks(tau), ys))]
    assert len(terms) == 4
    calls, walks = [], []

    def counted(traced, ys):
        calls.append(ys)
        return trace_bins(traced, ys)

    def walked(traced):
        for ys, bins in trace_walk(traced):
            walks.append(ys)
            yield ys, bins

    monkeypatch.setattr(ctx.codes, "trace_bins", counted)
    monkeypatch.setattr(ctx.codes, "trace_walk", walked)
    assert brute_inner(tau, tau, ctx) == 1
    assert calls == [] and walks == terms
    assert brute_inner(tau, tau, ctx) == 1
    assert calls == [] and walks == terms + terms
    walks.clear()
    assert brute_inner(tau, T(F2, 3, "0"), ctx) == 0
    assert calls == terms and walks == terms


@pytest.mark.parametrize("n,p,k", [(3, 2, 1), (4, 3, 1), (3, 2, 2), (3, 2, 3)],
                         ids=["3-2", "4-3", "3-2^2", "3-2^3"])
def test_the_group_walk_equals_trace_bins_at_every_element(n, p, k):
    """Over the left orbit of every row template and over the row-covering
    functionals, trace_walk yields every group element whose trace has a
    term, in code order, with its trace_bins, and no other element."""
    ctx = OracleContext(n, field_make(p, k))
    codes = ctx.codes
    group = [codes.rows(c) for c in range(codes.size)]
    for traced in [ctx._trace_masks(t) for t in ctx.table[0]] + [ctx.covering_masks]:
        want = [(ys, codes.trace_bins(traced, ys)) for ys in group]
        assert list(codes.trace_walk(traced)) == [(ys, bins) for ys, bins in want if any(bins)]


def test_brute_delta_values_fill_the_elements_the_walk_skips(F2, F3):
    """Every group element fixes some row-covering functional at the cases
    above, so the walk of the covering masks skips none; over the left orbit
    of a row template it skips some, and brute_delta_values, walking those
    masks, still gives each element its trace, 0 where it was skipped."""
    for field in (F2, F3):
        ctx = OracleContext(3, field)
        tau = T(field, 3, "(1,3)=1")
        ctx.covering_masks = ctx._trace_masks(tau)
        group = enumerate_group(3, field)
        assert sum(1 for _ in ctx.codes.trace_walk(ctx.covering_masks)) < len(group)
        assert list(brute_delta_values(ctx)) == [brute_char_value(tau, g, ctx) for g in group]


# -- traces summed in integer bins -----------------------------------------------

# Each property test runs every case of its list, with PROPS examples drawn
# inside each case: at least as many examples per test as the 40 it drew
# from the whole list when it sampled the case.
PROPS = settings(derandomize=True, database=None, deadline=None, max_examples=4)


def case_id(case) -> str:
    """n-p or n-p^k, for a case (n, p, k)."""
    n, p, k = case
    return f"{n}-{p}" + (f"^{k}" if k > 1 else "")


# (n, p, k) over GF(2), GF(3), GF(4), GF(5), GF(8), GF(9), n <= 4, at most 5^6 points
SMALL = [
    (n, p, k)
    for (p, k) in ((2, 1), (3, 1), (2, 2), (5, 1), (2, 3), (3, 2))
    for n in (2, 3, 4)
    if (p**k) ** (n * (n - 1) // 2) <= 5**6
]


@lru_cache(maxsize=None)
def all_duals(n, p, k):
    """enumerate_dual's list, indexed by code."""
    return enumerate_dual(n, field_make(p, k))


@lru_cache(maxsize=None)
def covering_duals(n, p, k):
    return [lam for lam in all_duals(n, p, k) if in_delta(lam)]


def summed_roots(p, values):
    """The sum of z^trace(a) over values, one zeta_power term at a time."""
    total = Cyclotomic.from_rational(p, 0)
    for a in values:
        total = total + Cyclotomic.zeta_power(p, a.trace())
    return total


@st.composite
def trace_cases(draw, n, p, k):
    """(tau, g): a row template and a group element, g - I sparse."""
    field = field_make(p, k)
    templates = enumerate_templates(n, field)
    # i > 0 only for the crossing (1,3), (2,4) at n <= 4; draw it half the time
    crossing = [t for t in templates if invariants_of(t).i > 0]
    tau = draw(st.sampled_from(crossing if crossing and draw(st.booleans()) else templates))
    value = st.one_of(st.just(0), st.integers(0, field.q - 1))
    count = len(positions(n))
    indices = draw(st.lists(value, min_size=count, max_size=count))
    off = NilMatrix(field, n, {pos: field.elements[m] for pos, m in zip(positions(n), indices)})
    return tau, UniMatrix(off)


@pytest.mark.parametrize("n,p,k", SMALL, ids=map(case_id, SMALL))
@PROPS
@given(data=st.data())
def test_binned_traces_equal_summed_roots_of_unity(n, p, k, data):
    """At g and at the identity, where every term is 1 and the q^(i-d)
    scaling of the cluster sum shows whenever i > 0."""
    tau, g = data.draw(trace_cases(n, p, k))
    q = p**k
    codes = codes_of(n, p, k)
    start = codes.encode_template(tau)
    left = codes.generators("coadjoint", ("left",))
    orbit = [codes.point("coadjoint", c) for c in codes.closure(start, left)]
    both = codes.generators("coadjoint")
    cluster = [codes.point("coadjoint", c) for c in codes.closure(start, both)]
    covering = covering_duals(n, p, k)
    inv = invariants_of(tau)
    ctx = OracleContext(n, tau.field)
    for h in (g, identity(tau.field, n)):
        want = summed_roots(p, [evaluate(lam, h.off) for lam in orbit if fixes_left(h, lam)])
        assert brute_char_value(tau, h, ctx) == want
        want = summed_roots(p, [evaluate(lam, h.off) for lam in covering if fixes_left(h, lam)])
        assert masks_delta(h, covering) == want
        total = summed_roots(p, [evaluate(lam, h.off) for lam in cluster])
        assert char_value_sum(tau, h) == Fraction(q**inv.i, q**inv.d) * total


# -- the discrete-series trace over trace masks ---------------------------------

def per_pair_delta(g, lams):
    """The sum of z^trace(lam(g-I)) over the row-covering members fixes_left
    accepts, one (g, lam) pair at a time, each accepted one checked against
    its image."""
    fixed = []
    for lam in lams:
        if in_delta(lam) and fixes_left(g, lam):
            assert coact_left(g, lam) == lam
            fixed.append(evaluate(lam, g.off))
    return summed_roots(g.field.p, fixed)


@pytest.mark.parametrize(
    "n,p,k", [(1, 2, 1), (2, 3, 1), (4, 2, 1), (3, 3, 1), (3, 2, 2), (4, 3, 1)],
    ids=["1-2", "2-3", "4-2", "3-3", "3-2^2", "4-3"],
)
def test_masked_trace_equals_the_per_pair_trace(n, p, k):
    """At every group element, with the context's masks and with throwaway
    ones, and as brute_delta_values walks the group."""
    ctx = OracleContext(n, field_make(p, k))
    covering = covering_duals(n, p, k)
    group = enumerate_group(n, ctx.field)
    walked = list(brute_delta_values(ctx))
    assert len(walked) == len(group)
    for m, g in enumerate(group):
        want = per_pair_delta(g, covering)
        assert brute_delta_value(g, ctx) == want
        assert walked[m] == want
        assert masks_delta(g, covering) == want
        if m % max(1, len(group) // 16) == 0:  # this one filters the whole dual space
            assert masks_delta(g, all_duals(n, p, k)) == want


# (n, p, k) over GF(2), GF(3), GF(4), GF(5), GF(8), GF(9), n <= 4, at most 4^6 points
DELTA_CASES = [
    (n, p, k)
    for (p, k) in ((2, 1), (3, 1), (2, 2), (5, 1), (2, 3), (3, 2))
    for n in (1, 2, 3, 4)
    if (p**k) ** (n * (n - 1) // 2) <= 4**6
]


@lru_cache(maxsize=None)
def delta_context(n, p, k):
    return OracleContext(n, field_make(p, k))


@st.composite
def delta_lists(draw, n, p, k):
    """(g, lams): a group element and a shuffled list of functionals drawn
    with repetition, covering ones and any others."""
    field = field_make(p, k)
    value = st.one_of(st.just(0), st.integers(0, field.q - 1))
    count = len(positions(n))
    indices = draw(st.lists(value, min_size=count, max_size=count))
    off = NilMatrix(field, n, {pos: field.elements[m] for pos, m in zip(positions(n), indices)})
    g = UniMatrix(off)
    member = st.one_of(
        st.sampled_from(covering_duals(n, p, k)),
        st.sampled_from(all_duals(n, p, k)),
    )
    lams = draw(st.lists(member, max_size=24))
    lams += draw(st.lists(st.sampled_from(lams), max_size=6)) if lams else []
    return g, draw(st.permutations(lams))


@pytest.mark.parametrize("n,p,k", DELTA_CASES, ids=map(case_id, DELTA_CASES))
@PROPS
@given(data=st.data())
def test_masked_trace_of_any_list_equals_the_per_pair_trace(n, p, k, data):
    """Duplicates count as often as they occur; order does not matter."""
    g, lams = data.draw(delta_lists(n, p, k))
    assert masks_delta(g, lams) == per_pair_delta(g, lams)
    ctx = delta_context(n, p, k)
    assert brute_delta_value(g, ctx) == per_pair_delta(g, covering_duals(n, p, k))


def test_trace_masks_reject_mismatched_inputs(F2, F3, F4):
    lam = eps_ij(F2, 3, 1, 3) + eps_ij(F2, 3, 2, 3)
    for field in (F3, F4):
        g = UniMatrix(e_ij(field, 3, 1, 2))
        with pytest.raises(ValueError, match="field mismatch"):
            masks_delta(g, [lam])
        with pytest.raises(ValueError, match="field mismatch"):
            brute_delta_value(g, OracleContext(3, F2))
    with pytest.raises(ValueError, match="size mismatch"):
        masks_delta(identity(F2, 4), [lam])
    with pytest.raises(ValueError, match="size mismatch"):
        brute_delta_value(identity(F2, 4), OracleContext(3, F2))


# -- the oracle's integer encoding, pinned to core ------------------------------------

# (n, p, k) over GF(2), GF(3), GF(4), GF(5), GF(8), GF(9) at n = 3, 4
CODE_CASES = [
    (n, p, k) for (p, k) in ((2, 1), (3, 1), (2, 2), (5, 1), (2, 3), (3, 2)) for n in (3, 4)
]
ACTIONS = {
    ("coadjoint", "left"): lambda g, lam: coact_left(g, lam),
    ("coadjoint", "right"): lambda g, lam: coact_right(lam, g),
    ("adjoint", "left"): lambda g, x: act_left(g, x),
    ("adjoint", "right"): lambda g, x: act_right(x, g),
}


@lru_cache(maxsize=None)
def codes_of(n, p, k):
    return packed.Codes(n, field_make(p, k))


@st.composite
def code_points(draw, n, p, k):
    """(codes, u, v): an encoding and two codes, each digit 0 half the time."""
    codes = codes_of(n, p, k)
    digit = st.one_of(st.just(0), st.integers(0, codes.q - 1))

    def code():
        return sum(d * w for d, w in zip(draw(st.lists(digit, min_size=len(codes.weight),
                                                         max_size=len(codes.weight))),
                                         codes.weight.values()))

    return codes, code(), code()


@pytest.mark.parametrize("n,p,k", CODE_CASES, ids=map(case_id, CODE_CASES))
@PROPS
@given(data=st.data())
def test_codes_round_trip(n, p, k, data):
    codes, u, _ = data.draw(code_points(n, p, k))
    for side in ("adjoint", "coadjoint"):
        point, rows = codes.decode(side, u)
        assert codes.encode(point) == u
        assert codes.point(side, codes.encode(point)) == point
        assert rows == [tuple(point.get(i, j).index for j in range(1, n + 1)) for i in range(1, n + 1)]
    entries = codes.point("coadjoint", u).entries
    assert codes.rows(u) == tuple(
        sum(v.index * codes.q ** (codes.n - l) for (k, l), v in entries.items() if k == row)
        for row in range(1, codes.n)
    )


def test_codes_follow_the_enumeration_order(F3, F4):
    for field in (F3, F4):
        codes = packed.Codes(3, field)
        assert [codes.encode(lam) for lam in enumerate_dual(3, field)] == list(range(codes.size))
        assert [codes.encode(x) for x in enumerate_nil(3, field)] == list(range(codes.size))


@pytest.mark.parametrize("n,p,k", CODE_CASES, ids=map(case_id, CODE_CASES))
@PROPS
@given(data=st.data())
def test_every_generator_moves_codes_as_core_acts(n, p, k, data):
    """Every I + a*e_ij, a != 0, on each side of both actions."""
    codes, u, _ = data.draw(code_points(n, p, k))
    field, n = codes.field, codes.n
    for (side, hand), act in ACTIONS.items():
        point = codes.point(side, u)
        for (i, j) in positions(n):
            for a in field.nonzero:
                g = UniMatrix(e_ij(field, n, i, j, a))
                assert codes.move(side, hand, i, j, a.index)(u) == codes.encode(act(g, point))


@pytest.mark.parametrize("n,p,k", CODE_CASES, ids=map(case_id, CODE_CASES))
@PROPS
@given(data=st.data())
def test_fixed_points_and_exponents_match_core(n, p, k, data):
    """The trace masks of a point and the rule of each row, against
    fixes_left, coact_left and evaluate."""
    codes, y, c = data.draw(code_points(n, p, k))
    g = UniMatrix(codes.point("adjoint", y))
    lam = codes.point("coadjoint", c)
    p, n = codes.p, codes.n
    fixed = fixes_left(g, lam)
    exponent = evaluate(lam, g.off).trace()
    ys, cs = codes.rows(y), codes.rows(c)
    want = [0] * p
    if fixed:
        want[exponent] = 1
    assert codes.trace_bins(codes.trace_masks([c]), ys) == want
    image = coact_left(g, lam)
    total = 0
    for k in range(1, n):
        e = codes.rule(ys[k:], ys[k - 1])(cs[k - 1])
        moved = any(image.get(k, l) != lam.get(k, l) for l in range(k + 1, n + 1))
        assert (e is None) == moved
        total += e or 0
    if fixed:
        assert total % p == exponent


@pytest.mark.parametrize("module", [oracle, packed], ids=["oracle", "packed"])
def test_oracle_imports_no_action_from_core(module):
    import ast
    from pathlib import Path

    imported = set()
    for node in ast.walk(ast.parse(Path(module.__file__).read_text())):
        if isinstance(node, ast.ImportFrom):
            if (node.module or "").endswith("core"):
                imported |= {alias.name for alias in node.names}
            assert "core" not in {alias.name for alias in node.names}
        if isinstance(node, ast.Import):
            assert not any(alias.name.endswith("core") for alias in node.names)
    assert imported <= {"Functional", "NilMatrix", "UniMatrix", "positions"}
