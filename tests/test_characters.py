from fractions import Fraction

import pytest

from supercluster import field_make
from supercluster.characters import (
    CharacterTable,
    build_table,
    char_value_closed,
    char_value_sum,
    degree,
    fourier_value,
    inner_product,
    self_intertwining,
    table_from_json,
    theta_of,
    verify_axioms,
)
from supercluster.clusters import enumerate_templates, invariants_of, parse_template
from supercluster.core import UniMatrix, e_ij, elementary, eps_ij, identity
from supercluster.cyclotomic import Cyclotomic
from supercluster.errors import ResourceCapExceeded
from supercluster.oracle import OracleContext, brute_char_value, brute_inner, enumerate_group


def T(field, n, text):
    return parse_template(field, n, text)


# -- cyclotomic arithmetic ----------------------------------------------------

def test_cyclotomic_basis_reduction():
    z = Cyclotomic.zeta_power(3, 1)
    assert z.coeffs == (Fraction(0), Fraction(1))
    # 1 + z + z^2 = 0
    assert Cyclotomic.zeta_power(3, 0) + z + Cyclotomic.zeta_power(3, 2) == 0
    assert Cyclotomic.zeta_power(3, 3) == 1
    assert Cyclotomic.zeta_power(2, 1) == -1


def test_cyclotomic_ring_ops():
    z = Cyclotomic.zeta_power(5, 1)
    assert z * z == Cyclotomic.zeta_power(5, 2)
    assert z * z.conjugate() == 1
    total = sum((Cyclotomic.zeta_power(5, m) for m in range(5)), Cyclotomic.from_rational(5, 0))
    assert total == 0
    a = 2 * z - 1
    assert a - a == 0
    assert Fraction(1, 2) * (a + a) == a


def test_cyclotomic_mixed_orders_rejected():
    with pytest.raises(ValueError):
        Cyclotomic.zeta_power(3, 1) + Cyclotomic.zeta_power(5, 1)


def test_cyclotomic_str():
    assert str(Cyclotomic.from_rational(3, 2)) == "2"
    assert str(Cyclotomic.from_rational(3, -2)) == "-2"
    assert str(Cyclotomic.from_rational(3, 1) - Cyclotomic.zeta_power(3, 1)) == "1-z"
    assert str(Cyclotomic.zeta_power(5, 2)) == "z^2"
    assert str(Cyclotomic.from_rational(2, 0)) == "0"


def test_cyclotomic_json_round_trip():
    a = Cyclotomic(3, [Fraction(1, 2), Fraction(-3)])
    assert Cyclotomic.from_json(a.to_json()) == a
    assert a.to_json() == {"p": 3, "coeffs": ["1/2", "-3/1"]}


# -- theta and the Fourier basis ----------------------------------------------

def test_theta_examples(F2, F3, F4):
    assert theta_of(F2.zero) == 1
    assert theta_of(F2.one) == -1
    assert theta_of(F3.one) == Cyclotomic.zeta_power(3, 1)
    assert theta_of(F3.one).coeffs == (Fraction(0), Fraction(1))
    g = F4.elements[2]
    assert theta_of(g) == -1  # trace 1 in characteristic 2


@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (2, 2), (5, 1)])
def test_theta_is_multiplicative_over_addition(p, k):
    F = field_make(p, k)
    for a in F.elements:
        for b in F.elements:
            assert theta_of(a + b) == theta_of(a) * theta_of(b)
    assert any(theta_of(a) != 1 for a in F.elements)  # non-trivial


def test_fourier_examples(F2):
    n = 3
    for g in enumerate_group(n, F2):
        assert fourier_value(eps_ij(F2, n, 1, 2).scale(F2.zero), g) == 1
    assert fourier_value(eps_ij(F2, n, 1, 3), UniMatrix(e_ij(F2, n, 1, 3))) == -1
    assert fourier_value(eps_ij(F2, n, 1, 2), UniMatrix(e_ij(F2, n, 2, 3))) == 1


def test_fourier_multiplicative_in_functional(F3):
    n = 3
    duals = [eps_ij(F3, n, 1, 2), eps_ij(F3, n, 1, 3, F3.elements[2]), eps_ij(F3, n, 2, 3)]
    for g in enumerate_group(n, F3):
        for lam1 in duals:
            for lam2 in duals:
                assert fourier_value(lam1 + lam2, g) == fourier_value(lam1, g) * fourier_value(lam2, g)


# -- character values ---------------------------------------------------------

def test_closed_form_examples(F2):
    t13 = T(F2, 3, "(1,3)=1")
    assert char_value_closed(t13, T(F2, 3, "(1,3)=1")) == -2
    assert char_value_closed(t13, T(F2, 3, "(1,2)=1")) == 0
    assert char_value_closed(t13, T(F2, 3, "0")) == 2
    for tau in enumerate_templates(3, F2):
        assert char_value_closed(tau, T(F2, 3, "0")) == degree(tau)


def test_degree_and_self_intertwining(F2):
    f3 = field_make(3, 1)
    assert degree(T(F2, 3, "0")) == 1
    assert self_intertwining(T(F2, 3, "0")) == 1
    assert degree(T(F2, 3, "(1,3)=1")) == 2
    assert self_intertwining(T(F2, 3, "(1,3)=1")) == 1
    assert degree(T(f3, 4, "(1,4)=1")) == 9
    assert self_intertwining(T(f3, 4, "(1,4)=1")) == 1


def test_sum_route_examples(F2):
    t13 = T(F2, 3, "(1,3)=1")
    assert char_value_sum(T(F2, 3, "0"), UniMatrix(e_ij(F2, 3, 1, 2))) == 1
    assert char_value_sum(t13, UniMatrix(e_ij(F2, 3, 1, 3))) == -2
    # I + e12 + e13 is conjugate-clustered with I + e12, where the value is 0
    assert char_value_sum(t13, UniMatrix(e_ij(F2, 3, 1, 2) + e_ij(F2, 3, 1, 3))) == 0


@pytest.mark.parametrize("q", [2, 3])
def test_three_routes_agree_n3(q):
    field = field_make(q, 1)
    templates = enumerate_templates(3, field)
    ctx = OracleContext(3, field)
    for tau in templates:
        for x in templates:
            g = UniMatrix(x.as_matrix())
            closed = char_value_closed(tau, x)
            assert closed == char_value_sum(tau, g)
            assert closed == brute_char_value(tau, g, ctx)


# -- the table ----------------------------------------------------------------

def test_table_n2_q2(F2):
    table = build_table(2, F2)
    assert [[str(v) for v in row] for row in table.values] == [["1", "1"], ["1", "-1"]]
    assert table.row_degrees == [1, 1]
    assert table.col_sizes == [1, 1]


def test_table_first_row_trivial(F3):
    table = build_table(3, F3)
    assert all(v == 1 for v in table.values[0])


def test_table_row_eps13_in_spec_column_order(F2):
    table = build_table(3, F2)
    t13 = T(F2, 3, "(1,3)=1")
    order = ["0", "(1,2)=1", "(2,3)=1", "(1,3)=1", "(1,2)=1;(2,3)=1"]
    row = [table.value(t13, T(F2, 3, c)) for c in order]
    assert row == [2, 0, 0, -2, 0]


def test_table_caps(F2):
    with pytest.raises(ResourceCapExceeded):
        build_table(4, F2, max_rows=10)


def test_table_json_round_trip(F3):
    table = build_table(3, F3)
    assert table_from_json(table.to_json()) == table


def test_table_csv(F2):
    table = build_table(2, F2)
    assert table.to_csv() == (
        'template,0,"(1,2)=1"\n'
        "0,1,1\n"
        '"(1,2)=1",1,-1\n'
    )


# -- inner products and axioms --------------------------------------------------

def test_inner_product_examples(F2):
    table = build_table(3, F2)
    row = {t: table.values[r] for r, t in enumerate(table.rows)}
    t0 = T(F2, 3, "0")
    t12 = T(F2, 3, "(1,2)=1")
    t13 = T(F2, 3, "(1,3)=1")
    assert inner_product(table, row[t0], row[t0]) == 1
    assert inner_product(table, row[t13], row[t13]) == 1
    assert inner_product(table, row[t12], row[t13]) == 0


@pytest.mark.parametrize("q", [2, 3])
def test_verify_axioms_pass(q):
    table = build_table(3, field_make(q, 1))
    report = verify_axioms(table)
    assert report.passed, report.failures()


def test_verify_axioms_catches_corruption(F2):
    table = build_table(3, F2)
    bad = CharacterTable(
        n=table.n,
        field=table.field,
        rows=table.rows,
        cols=table.cols,
        values=[list(row) for row in table.values],
        row_degrees=list(table.row_degrees),
        row_selfint=list(table.row_selfint),
        col_sizes=list(table.col_sizes),
    )
    bad.values[1][0] = bad.values[1][0] + 1
    report = verify_axioms(bad)
    assert not report.passed
    assert report.failures()


def test_rows_span_class_functions(F3):
    # the rows are pairwise orthogonal and none is 0, so the square matrix
    # they form has full rank over the cyclotomic field
    table = build_table(3, F3)
    assert len(table.rows) == len(table.cols)
    for s, f in enumerate(table.values):
        for t, h in enumerate(table.values):
            assert bool(inner_product(table, f, h)) == (s == t)


def test_irreducible_iff_no_hooks(F2):
    # norm-1 exactly when the intertwining index vanishes
    table = build_table(3, F2)
    ctx = OracleContext(3, F2)
    for r, tau in enumerate(table.rows):
        inv = invariants_of(tau)
        norm = brute_inner(tau, tau, ctx)
        assert (norm == 1) == (inv.i == 0)
        assert norm == table.row_selfint[r]


def test_regular_character_identity_value(F2):
    table = build_table(3, F2)
    total = sum(
        (table.row_degrees[r] // table.row_selfint[r]) * table.values[r][0]
        for r in range(len(table.rows))
    )
    assert total == 8  # 1+1+1+4+1 with the 2-dim row counted twice
