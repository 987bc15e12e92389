import pytest

from supercluster import field_make
from supercluster.clusters import enumerate_templates, parse_template
from supercluster.core import Functional, UniMatrix, coact_left, e_ij, eps_ij
from supercluster.cyclotomic import Cyclotomic
from supercluster.errors import ResourceCapExceeded
from supercluster.oracle import (
    bfs_double_orbit,
    bfs_left_orbit,
    brute_char_value,
    brute_delta_value,
    brute_inner,
    brute_table,
    brute_tensor,
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


def test_brute_delta_value_filters_unless_told_the_list_is_filtered(F3):
    from supercluster.discrete import delta_value
    from supercluster.oracle import covers_rows

    duals = enumerate_dual(3, F3)
    covering = [lam for lam in duals if covers_rows(lam)]
    assert 0 < len(covering) < len(duals)
    for g in enumerate_group(3, F3):
        want = Cyclotomic.from_rational(3, delta_value(g))
        assert brute_delta_value(g) == want
        assert brute_delta_value(g, duals) == want
        assert brute_delta_value(g, covering, prefiltered=True) == want
