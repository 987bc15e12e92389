import random
import sys

import pytest

import supercluster
from supercluster import cli, clusters, field_make, tensor
from supercluster.clusters import Template, enumerate_templates, invariants_of, parse_template
from supercluster.core import coact_left, elementary, fixes_left, positions
from supercluster.errors import InvariantViolation, ResourceCapExceeded
from supercluster.oracle import OracleContext, brute_tensor
from supercluster.tensor import (
    CharSum,
    c_count,
    fold_by_counting,
    primary_product,
    tensor_by_counting,
    tensor_product,
    tensor_rewrite,
)
from walks import cluster_elements


def T(field, n, text):
    return parse_template(field, n, text)


def test_charsum_invariants(F2):
    t = T(F2, 3, "(1,3)=1")
    s = CharSum(F2, 3, {t: 2, T(F2, 3, "0"): 0})
    assert s.terms == {t: 2}
    assert s.total_degree == 4
    with pytest.raises(InvariantViolation):
        CharSum(F2, 3, {t: -1})


def test_trivial_factor_is_identity(F2):
    got = primary_product(3, 1, 3, F2.one, 1, 2, F2.zero)
    assert got.terms == {T(F2, 3, "(1,3)=1"): 1}


def test_disjoint_factors_merge(F3):
    a, b = F3.elements[2], F3.one
    got = tensor_rewrite(F3, 3, [(1, 2, a), (2, 3, b)])
    assert got.terms == {Template(F3, 3, [(1, 2, a), (2, 3, b)]): 1}


def test_self_product_with_cancellation(F2):
    # a = -a in characteristic 2, so the fully expanded bracket product shows up
    got = primary_product(3, 1, 3, F2.one, 1, 3, F2.one)
    expected = {
        T(F2, 3, "0"): 1,
        T(F2, 3, "(1,2)=1"): 1,
        T(F2, 3, "(2,3)=1"): 1,
        T(F2, 3, "(1,2)=1;(2,3)=1"): 1,
    }
    assert got.terms == expected
    assert got.total_degree == 4


def test_same_column_dissolves(F2):
    f3 = field_make(3, 1)
    # (2,4) collides with (1,4) in column 4 and dissolves into row-2 cells
    for field in (F2, f3):
        a = field.one
        for b in field.nonzero:
            got = primary_product(4, 1, 4, a, 2, 4, b)
            expected = {Template(field, 4, [(1, 4, a)]): 1}
            for c in field.nonzero:
                expected[Template(field, 4, [(1, 4, a), (2, 3, c)])] = 1
            assert got.terms == expected


def test_same_row_dissolves(F2):
    got = primary_product(4, 1, 4, F2.one, 1, 3, F2.one)
    expected = {
        T(F2, 4, "(1,4)=1"): 1,
        T(F2, 4, "(1,4)=1;(2,3)=1"): 1,
    }
    assert got.terms == expected


def test_second_diagonal_absorption(F2):
    # a second-diagonal factor sharing a row or column is absorbed outright
    got = primary_product(3, 1, 2, F2.one, 1, 3, F2.one)
    assert got.terms == {T(F2, 3, "(1,3)=1"): 1}
    got = primary_product(3, 2, 3, F2.one, 1, 3, F2.one)
    assert got.terms == {T(F2, 3, "(1,3)=1"): 1}
    f3 = field_make(3, 1)
    got = tensor_rewrite(f3, 3, [(1, 2, f3.one), (1, 2, f3.one)])
    assert got.terms == {Template(f3, 3, [(1, 2, f3.elements[2])]): 1}
    got = tensor_rewrite(f3, 3, [(1, 2, f3.one), (1, 2, f3.elements[2])])
    assert got.terms == {T(f3, 3, "0"): 1}


def test_same_cell_noncancelling_both_expansions(F3):
    # the same-column and same-row brackets give the same decomposition
    one = F3.one
    keep = (1, 3, F3.elements[2])  # a + b = 2
    direct = tensor_rewrite(F3, 3, [(1, 3, one), (1, 3, one)])
    col_form = tensor_rewrite(F3, 3, [keep])
    row_form = tensor_rewrite(F3, 3, [keep])
    for c in F3.nonzero:
        col_form = col_form + tensor_rewrite(F3, 3, [keep, (2, 3, c)])
        row_form = row_form + tensor_rewrite(F3, 3, [keep, (1, 2, c)])
    assert direct == col_form == row_form


def test_three_factor_product_degree(F2):
    got = tensor_rewrite(F2, 3, [(1, 3, F2.one)] * 3)
    assert got.total_degree == 8
    assert brute_tensor_matches(F2, got, [(1, 3, F2.one)] * 3)


def brute_tensor_matches(field, result, cells):
    # check against iterated brute pairwise products
    acc = CharSum.trivial(field, 3)
    ctx = OracleContext(3, field)
    for cell in cells:
        nxt = CharSum(field, 3, {})
        for tau, mult in acc.items():
            nxt = nxt + brute_tensor(tau, Template(field, 3, [cell]), ctx).scale(mult)
        acc = nxt
    return acc == result


def test_c_count_examples(F2):
    t0 = T(F2, 3, "0")
    t13 = T(F2, 3, "(1,3)=1")
    t12 = T(F2, 3, "(1,2)=1")
    t23 = T(F2, 3, "(2,3)=1")
    chain = T(F2, 3, "(1,2)=1;(2,3)=1")
    assert c_count(t0, t0, t0) == 1
    assert c_count(t13, t13, t0) == 4
    assert c_count(t12, t23, chain) == 1
    with pytest.raises(ResourceCapExceeded):
        c_count(t13, t13, t0, max_pairs=3)


@pytest.mark.parametrize("q", [2, 3])
def test_counting_equals_rewrite_equals_brute_n3(q):
    field = field_make(q, 1)
    templates = enumerate_templates(3, field)
    ctx = OracleContext(3, field)
    for t1 in templates:
        for t2 in templates:
            counted = tensor_by_counting(t1, t2)  # self-checks against rewrite
            assert counted == brute_tensor(t1, t2, ctx)
            d1 = field.q ** invariants_of(t1).d
            d2 = field.q ** invariants_of(t2).d
            assert counted.total_degree == d1 * d2
            assert counted == tensor_by_counting(t2, t1)


def test_trivial_multiplicity_rule_n3(F3):
    templates = enumerate_templates(3, F3)
    trivial = T(F3, 3, "0")
    for t1 in templates:
        minus = Template(F3, 3, [(i, j, -v) for (i, j, v) in t1.cells])
        for t2 in templates:
            mult = tensor_product(t1, t2).terms.get(trivial, 0)
            expected = F3.q ** invariants_of(t1).i if t2 == minus else 0
            assert mult == expected


def test_fold_by_counting_matches_rewrite(F2):
    cells = [(1, 3, F2.one), (1, 3, F2.one), (2, 3, F2.one)]
    assert fold_by_counting(F2, 3, cells) == tensor_rewrite(F2, 3, cells)


def test_charsum_json(F2):
    got = primary_product(3, 1, 3, F2.one, 1, 3, F2.one)
    data = got.to_json()
    assert data["total_degree"] == "4"
    assert {"template": "0", "mult": 1} in data["terms"]
    assert all(isinstance(term["mult"], int) for term in data["terms"])


def test_rewrite_rejects_foreign_field(F2, F3):
    with pytest.raises(ValueError):
        tensor_rewrite(F2, 3, [(1, 3, F3.elements[2]), (1, 3, F3.one)])
    with pytest.raises(ValueError):
        tensor_rewrite(F2, 3, [(1, 3, F2.one), (1, 2, F3.zero)])


def test_long_stack_needs_no_deep_recursion(F2):
    # the fold's recursion depth is set by one template x cell step, not by
    # the number of factors
    tensor._rewrite_step.cache_clear()
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(250)
    try:
        got = tensor_rewrite(F2, 3, [(1, 3, F2.one)] * 1200)
    finally:
        sys.setrecursionlimit(limit)
    assert got.total_degree == 2**1200


@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (2, 2)])
def test_random_folds_rewrite_equals_counting(p, k):
    field = field_make(p, k)
    rng = random.Random(1000 * p + k)
    for _ in range(6):
        n = rng.randint(2, 4)
        pos = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        factors = [(*rng.choice(pos), rng.choice(field.nonzero)) for _ in range(rng.randint(1, 6))]
        got = tensor_rewrite(field, n, factors)
        assert got == fold_by_counting(field, n, factors)
        shuffled = factors[:]
        rng.shuffle(shuffled)
        assert tensor_rewrite(field, n, shuffled) == got
        assert got.total_degree == field.q ** sum(j - i - 1 for i, j, _ in factors)


def brute_pair_counts(t1, t2):
    # every pair of cluster elements, each distinct sum classified once by
    # the witnessed sweep
    counts, seen = {}, {}
    second = cluster_elements(t2)
    for lam1 in cluster_elements(t1):
        for lam2 in second:
            lam = lam1 + lam2
            tau = seen.get(lam)
            if tau is None:
                tau = seen[lam] = clusters.coadjoint_template_of(lam)[0]
            counts[tau] = counts.get(tau, 0) + 1
    return counts


@pytest.mark.parametrize(
    "n,p,k,sample",
    [
        (3, 2, 1, None), (3, 3, 1, None), (3, 2, 2, None), (4, 2, 1, 12), (4, 3, 1, 8),
        (3, 5, 1, 12), (3, 2, 3, 8), (4, 2, 2, 12), (4, 2, 2, (1, 4)), (5, 2, 1, 6),
    ],
)
def test_pair_counts_equal_brute_enumeration(n, p, k, sample):
    """sample None takes every pair of templates, an int that many seeded
    pairs, and a position (i, j) the primary at (i, j) with value 1 paired
    with each primary there.  A pair and its mirror share one brute count,
    since lam1 + lam2 = lam2 + lam1."""
    field = field_make(p, k)
    templates = enumerate_templates(n, field)
    if sample is None:
        pairs = [(t1, t2) for t1 in templates for t2 in templates]
    elif isinstance(sample, int):
        rng = random.Random(100 * n + 10 * p + k)
        pairs = [(rng.choice(templates), rng.choice(templates)) for _ in range(sample)]
    else:
        primaries = [Template(field, n, [(*sample, v)]) for v in field.nonzero]
        pairs = [(primaries[0], t) for t in primaries]
    for t1, t2 in pairs:
        brute = brute_pair_counts(t1, t2)
        for a, b in ((t1, t2), (t2, t1)):
            size1 = len(cluster_elements(a))
            size2 = len(cluster_elements(b))
            cap = size1 * size2
            assert sum(brute.values()) == cap
            assert tensor._pair_counts(a, b, cap) == brute
            for target in templates:
                assert c_count(a, b, target, cap) == brute.get(target, 0)
            with pytest.raises(ResourceCapExceeded) as err:
                c_count(a, b, templates[0], cap - 1)
            assert str(err.value) == f"{size1} x {size2} cluster pairs exceed the cap {cap - 1}"


def _recording(monkeypatch, names):
    """Wrap each clusters function of names so that a call appends its name
    to the returned list and then runs the real function."""
    calls = []
    for name in names:
        real = getattr(clusters, name)
        monkeypatch.setattr(
            clusters, name, lambda *a, real=real, name=name: calls.append(name) or real(*a)
        )
    return calls


def test_pair_counts_sweep_only_the_smaller_cluster(monkeypatch):
    # |Psi| = 16 and 64 at (5,2): 16 witnessed sweeps, not 16 x 64
    field = field_make(2, 1)
    t1 = Template(field, 5, [(1, 4, field.one)])
    t2 = Template(field, 5, [(1, 5, field.one)])
    supercluster.clear_memos()
    sweeps = _recording(monkeypatch, ["_coadjoint_sweep"])
    assert c_count(t1, t2, t2) > 0
    assert len(cluster_elements(t1)) == 16
    assert len(cluster_elements(t2)) == 64
    assert 0 < len(sweeps) <= 16


def _fixer_orbit_count(base, small):
    """The orbits on Psi(small) of the I + a*e_ij, a != 0, over the (i, j)
    whose I + e_ij fixes base on the left, by BFS through core.coact_left."""
    field, n = base.field, base.n
    lam = base.as_functional()
    gens = [
        elementary(field, n, i, j, a)
        for i, j in positions(n)
        if fixes_left(elementary(field, n, i, j, field.one), lam)
        for a in field.nonzero
    ]
    left = set(cluster_elements(small))
    orbits = 0
    while left:
        orbits += 1
        frontier = [left.pop()]
        while frontier:
            mu = frontier.pop()
            for g in gens:
                nu = coact_left(g, mu)
                if nu in left:
                    left.remove(nu)
                    frontier.append(nu)
    return orbits


@pytest.mark.parametrize(
    "n,p,k,base,small",
    [(4, 2, 2, "(1,4)=1", "(1,4)=1"), (5, 3, 1, "(1,5)=1", "(2,5)=1")],
)
def test_one_sweep_per_orbit_of_the_base_left_fixers(monkeypatch, n, p, k, base, small):
    # the counting step sweeps one sum per orbit of the group that fixes
    # base on the left: 113 of 256 at (4,GF(4)) and 45 of 81 at (5,3)
    field = field_make(p, k)
    base, small = parse_template(field, n, base), parse_template(field, n, small)
    assert (-clusters.cluster_size(base), base.sort_key()) <= (
        -clusters.cluster_size(small), small.sort_key())  # base is the step's base
    supercluster.clear_memos()
    sweeps = _recording(monkeypatch, ["_coadjoint_sweep"])
    tensor_by_counting(base, small)
    assert len(sweeps) == _fixer_orbit_count(base, small) < len(cluster_elements(small))


def _with_bad_fixer(monkeypatch):
    """S of the base (1,4)=1 at n = 4 also holds (2,4), whose I + e_24 moves
    the cell (1,4) to (1,2)."""
    real = tensor._left_fixers

    def fixers(base):
        got = real(base)
        return got + [(2, 4)] if (base.n, base.text()) == (4, "(1,4)=1") else got

    monkeypatch.setattr(tensor, "_left_fixers", fixers)


def test_the_left_fixer_check_catches_a_bad_fixer(monkeypatch):
    field = field_make(2, 1)
    base = parse_template(field, 4, "(1,4)=1")
    supercluster.clear_memos()
    _with_bad_fixer(monkeypatch)
    with pytest.raises(InvariantViolation) as err:
        tensor_by_counting(base, base)
    assert str(err.value) == (
        "[(1,4)=1] x [(1,4)=1]: the left fixers [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4)]"
        " of (1,4)=1 move it"
    )


def test_a_bad_fixer_fails_the_checked_product_with_exit_4(monkeypatch, capsys):
    supercluster.clear_memos()
    _with_bad_fixer(monkeypatch)
    code = cli.main(["tensor", "--n", "4", "--q", "2", "--factor", "1,4,1", "--factor", "1,4,1",
                     "--check"])
    out, err = capsys.readouterr()
    assert (code, out) == (4, "")
    assert err.count("THEOREM FALSIFIED") == 1
    assert err == (
        "THEOREM FALSIFIED: [(1,4)=1] x [(1,4)=1]: the left fixers"
        " [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4)] of (1,4)=1 move it\n"
    )


def test_a_fold_computes_each_distinct_step_once(monkeypatch):
    # 150 factors (1,3,1) at n = 3 over GF(2): the running sum only ever
    # holds a few distinct terms, and each (term, cell) is counted once
    field = field_make(2, 1)
    cells = [(1, 3, field.one)] * 150
    cell = Template(field, 3, cells[:1])
    distinct = {
        (tau, cell) for m in range(len(cells)) for tau in tensor_rewrite(field, 3, cells[:m]).terms
    }
    supercluster.clear_memos()
    calls = []
    real = tensor.tensor_by_counting
    monkeypatch.setattr(tensor, "tensor_by_counting",
                        lambda t1, t2, cap: calls.append((t1, t2)) or real(t1, t2, cap))
    assert fold_by_counting(field, 3, cells) == tensor_rewrite(field, 3, cells)
    assert sorted(calls, key=str) == sorted(distinct, key=str)
    assert len(calls) == 5


def test_a_single_factor_over_the_cap_names_the_trivial_first_step(F2):
    with pytest.raises(ResourceCapExceeded) as err:
        fold_by_counting(F2, 4, [(1, 4, F2.one)], 15)
    assert str(err.value) == "1 x 16 cluster pairs exceed the cap 15"


def test_the_pair_cap_comes_before_any_cluster_is_spelled_out(monkeypatch):
    # |Psi| = 16 and 64 at (5,2): the sizes come from the supports, and
    # 16 x 64 over the cap raises before either cluster is split into its
    # left orbits or any sum is classified
    field = field_make(2, 1)
    t1 = Template(field, 5, [(1, 4, field.one)])
    t2 = Template(field, 5, [(1, 5, field.one)])
    supercluster.clear_memos()
    walked = _recording(monkeypatch, ["left_orbits", "_coadjoint_sweep"])
    with pytest.raises(ResourceCapExceeded) as err:
        c_count(t1, t2, t2, 16 * 64 - 1)
    assert str(err.value) == f"16 x 64 cluster pairs exceed the cap {16 * 64 - 1}"
    assert walked == []
    assert c_count(t1, t2, t2, 16 * 64) >= 0  # under the cap, both splits come first
    assert walked[:2] == ["left_orbits", "left_orbits"]
    assert "_coadjoint_sweep" in walked[2:]


def test_a_repeated_product_and_its_mirror_reuse_the_counting_step(monkeypatch):
    # after one tensor_by_counting, the repeat and the mirror product come
    # from the step cache: no sum is classified again.  Both clusters have
    # 9 points, so the mirror shares the entry through the sort_key
    # tie-break.
    field = field_make(3, 1)
    t1 = parse_template(field, 4, "(1,3)=1")
    t2 = parse_template(field, 4, "(2,4)=2")
    supercluster.clear_memos()
    calls = _recording(monkeypatch, ["_coadjoint_sweep", "coadjoint_template_of"])
    first = tensor_by_counting(t1, t2)
    assert calls and set(calls) == {"_coadjoint_sweep"}  # the first product classifies
    calls.clear()
    assert tensor_by_counting(t1, t2) == first
    assert tensor_by_counting(t2, t1) == first
    assert calls == []
    assert tensor._count_step.cache_info().currsize == 1


def test_counting_rejects_mismatched_rings(F2, F3, F4):
    for other in (F3, F4):
        for t1, t2, target in (
            (T(F2, 3, "(1,3)=1"), T(other, 3, "(1,3)=1"), T(F2, 3, "0")),
            (T(F2, 3, "(1,3)=1"), T(F2, 3, "(1,2)=1"), T(other, 3, "0")),
        ):
            with pytest.raises(ValueError, match="^mismatched rings$"):
                c_count(t1, t2, target)
        with pytest.raises(ValueError, match="^mismatched rings$"):
            tensor_by_counting(T(F2, 3, "(1,3)=1"), T(other, 3, "(1,3)=1"))


def test_clear_memos_empties_every_memo_of_the_engine():
    """One clear reaches the left-orbit splits of clusters, the cell tables
    of characters and the two step caches of tensor, rewrite and count;
    they are the engine's only module-level caches besides the CLI's one
    parser, no module keeps a *_MEMO dict, and each cache holds at most
    clusters.MEMO_SIZE entries."""
    import importlib
    import pkgutil

    from supercluster import characters
    from supercluster.characters import char_value_closed, char_value_sum
    from supercluster.core import identity

    field = field_make(3, 1)
    tau = parse_template(field, 4, "(1,3)=1;(2,4)=2")
    tensor.tensor_by_counting(tau, tau)
    tensor.tensor_rewrite(field, 4, tau.cells)
    char_value_sum(tau, identity(field, 4))
    char_value_closed(tau, tau)
    found = {
        f"{info.name}.{name}": value
        for info in pkgutil.iter_modules(supercluster.__path__)
        if info.name != "__main__"  # importing it runs the command line
        for name, value in vars(importlib.import_module(f"supercluster.{info.name}")).items()
        if name.endswith("_MEMO") or hasattr(value, "cache_clear")
    }
    caches = (clusters.left_orbits, characters._cell_tables, tensor._rewrite_step,
              tensor._count_step)
    assert set(found) == {
        "clusters.left_orbits", "characters._cell_tables", "tensor._rewrite_step",
        "tensor._count_step", "cli.build_parser",
    }
    assert all(c.cache_info().maxsize == clusters.MEMO_SIZE for c in caches)
    assert all(c.cache_info().currsize for c in caches)
    supercluster.clear_memos()
    assert not any(c.cache_info().currsize for c in caches)
