import pytest

from supercluster import field_make
from supercluster.characters import char_value_closed
from supercluster.clusters import enumerate_templates, parse_template
from supercluster.core import Functional, UniMatrix, coact_left, e_ij, eps_ij, identity
from supercluster.cyclotomic import Cyclotomic
from supercluster.discrete import (
    delta_decompose,
    delta_multiplicity,
    delta_value,
    in_delta,
    is_degenerate,
)
from supercluster.oracle import enumerate_dual, enumerate_group


def T(field, n, text):
    return parse_template(field, n, text)


def test_in_delta_examples(F2):
    assert not in_delta(Functional(F2, 3, {}))
    assert in_delta(eps_ij(F2, 3, 1, 2) + eps_ij(F2, 3, 2, 3))
    assert not in_delta(eps_ij(F2, 3, 1, 3))
    assert in_delta(eps_ij(F2, 3, 1, 3) + eps_ij(F2, 3, 2, 3))


@pytest.mark.parametrize("q", [2, 3])
def test_delta_closed_under_left_action(q):
    field = field_make(q, 1)
    members = [lam for lam in enumerate_dual(3, field) if in_delta(lam)]
    for g in enumerate_group(3, field):
        for lam in members:
            assert in_delta(coact_left(g, lam))


def test_delta_value_examples(F2):
    assert delta_value(identity(F2, 3)) == 3
    assert delta_value(UniMatrix(e_ij(F2, 3, 1, 2))) == -1
    assert delta_value(UniMatrix(e_ij(F2, 3, 1, 2) + e_ij(F2, 3, 2, 3))) == 1


def test_degeneracy_examples(F2):
    assert is_degenerate(T(F2, 3, "0"))
    assert not is_degenerate(T(F2, 3, "(1,3)=1"))
    assert is_degenerate(T(F2, 3, "(2,3)=1"))
    assert is_degenerate(T(F2, 3, "(1,2)=1"))
    assert not is_degenerate(T(F2, 3, "(1,2)=1;(2,3)=1"))


@pytest.mark.parametrize("n,q", [(2, 2), (3, 2), (3, 3), (4, 2)])
def test_degeneracy_is_block_splittability(n, q):
    # brute equivalent: some cut point k with no support position straddling it
    field = field_make(q, 1)
    for tau in enumerate_templates(n, field):
        supp = [(i, j) for i, j, _ in tau.cells]
        splittable = any(
            all(j <= k or i > k for (i, j) in supp) for k in range(1, n)
        )
        assert is_degenerate(tau) == splittable


def test_multiplicity_examples(F2, F3):
    assert delta_multiplicity(T(F2, 3, "(1,2)=1;(2,3)=1")) == 1
    assert delta_multiplicity(T(F2, 3, "(1,3)=1")) == 1
    assert delta_multiplicity(T(F2, 3, "(2,3)=1")) == 0
    assert delta_multiplicity(T(F3, 3, "(1,3)=1")) == 2  # q^1 * (1 - 1/q)


def test_decompose_n2(F2, F3):
    d = delta_decompose(2, F2)
    assert d.identity_value == 1
    assert {t.text(): m for t, m in d.items()} == {"(1,2)=1": 1}
    d3 = delta_decompose(2, F3)
    assert d3.identity_value == 2
    assert {t.text(): m for t, m in d3.items()} == {"(1,2)=1": 1, "(1,2)=2": 1}


def test_decompose_n3_q2(F2):
    d = delta_decompose(3, F2)
    assert d.identity_value == 3
    assert {t.text(): m for t, m in d.items()} == {"(1,2)=1;(2,3)=1": 1, "(1,3)=1": 1}


def test_decompose_n3_q3(F3):
    # committed from the oracle: all four chain templates once, both (1,3)
    # scalings twice; degrees 4*1 + 2*2*3 = 16 = (q-1)(q^2-1)
    d = delta_decompose(3, F3)
    assert d.identity_value == 16
    assert {t.text(): m for t, m in d.items()} == {
        "(1,2)=1;(2,3)=1": 1,
        "(1,2)=1;(2,3)=2": 1,
        "(1,2)=2;(2,3)=1": 1,
        "(1,2)=2;(2,3)=2": 1,
        "(1,3)=1": 2,
        "(1,3)=2": 2,
    }


def test_multiplicity_positive_iff_nondegenerate(F2, F3):
    for field, n in ((F2, 4), (F3, 3)):
        for tau in enumerate_templates(n, field):
            assert (delta_multiplicity(tau) > 0) == (not is_degenerate(tau))


@pytest.mark.parametrize("n,q", [(2, 2), (3, 2), (3, 3)])
def test_decomposition_pointwise(n, q):
    field = field_make(q, 1)
    decomp = delta_decompose(n, field)
    for x in enumerate_templates(n, field):
        total = Cyclotomic.from_rational(field.p, 0)
        for tau, mult in decomp.items():
            total = total + mult * char_value_closed(tau, x)
        assert total == delta_value(UniMatrix(x.as_matrix()))


def test_json(F2):
    d = delta_decompose(3, F2)
    assert d.to_json() == {
        "identity_value": "3",
        "terms": [
            {"template": "(1,2)=1;(2,3)=1", "mult": 1},
            {"template": "(1,3)=1", "mult": 1},
        ],
    }


def test_delta_multiplicity_reports_a_fraction_when_not_integral(F2, monkeypatch):
    from supercluster import discrete
    from supercluster.clusters import ClusterInvariants
    from supercluster.errors import InvariantViolation

    # i > d makes q^(d-i) a proper fraction; a valid template never has it
    monkeypatch.setattr(
        discrete, "invariants_of", lambda tau: ClusterInvariants(d=0, i=1, d_rows=(0, 0))
    )
    tau = T(F2, 3, "(1,2)=1;(2,3)=1")
    with pytest.raises(InvariantViolation) as err:
        delta_multiplicity(tau)
    assert str(err.value) == f"multiplicity 1/2 for {tau.text()} is not a natural number"
