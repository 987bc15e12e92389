import pytest

from supercluster import field_make
from supercluster.clusters import (
    Template,
    adjoint_cluster_size,
    adjoint_template_of,
    bell_poly,
    cluster_elements,
    cluster_size,
    coadjoint_template_of,
    enumerate_templates,
    intersection_dim,
    invariants_of,
    lhat_dim,
    parse_template,
    rank_invariant,
    rank_invariant_dual,
    rhat_dim,
    template_of_functional,
    template_of_matrix,
)
from supercluster.core import (
    Functional,
    NilMatrix,
    act_left,
    act_right,
    coact_left,
    coact_right,
    e_ij,
    eps_ij,
    positions,
)
from supercluster.oracle import bfs_double_orbit, enumerate_dual, enumerate_nil, orbit_partition


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
    for lam in part.points:
        t, g, h = coadjoint_template_of(lam)
        assert t == part.representatives[part.orbit_of(lam)]
        assert template_of_functional(coact_left(g, coact_right(lam, h))) == t


@pytest.mark.parametrize("q", [2, 3])
def test_adjoint_witnesses_and_bfs_uniqueness(q):
    field = field_make(q, 1)
    part = orbit_partition(3, field, "adjoint")
    for x in part.points:
        t, g, h = adjoint_template_of(x)
        assert t == part.representatives[part.orbit_of(x)]
        assert template_of_matrix(act_right(act_left(g, x), h)) == t


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

def test_rank_invariant_examples(F2):
    assert rank_invariant(1, 3, NilMatrix(F2, 3, {})) == 0
    assert rank_invariant(1, 3, e_ij(F2, 3, 1, 2) + e_ij(F2, 3, 2, 3)) == 2
    assert rank_invariant(1, 2, e_ij(F2, 3, 1, 2) + e_ij(F2, 3, 1, 3)) == 1
    assert rank_invariant(1, 2, e_ij(F2, 3, 1, 3)) == 0
    assert rank_invariant_dual(2, 3, eps_ij(F2, 3, 1, 3)) == 1
    with pytest.raises(ValueError):
        rank_invariant(3, 2, NilMatrix(F2, 3, {}))


def test_rank_invariant_constant_on_clusters(F2):
    for start in enumerate_nil(3, F2):
        base = [rank_invariant(i, j, start) for (i, j) in positions(3)]
        for x in bfs_double_orbit(start, "adjoint"):
            assert [rank_invariant(i, j, x) for (i, j) in positions(3)] == base
    for start in enumerate_dual(3, F2):
        base = [rank_invariant_dual(i, j, start) for (i, j) in positions(3)]
        for lam in bfs_double_orbit(start, "coadjoint"):
            assert [rank_invariant_dual(i, j, lam) for (i, j) in positions(3)] == base


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
    assert (lhat_dim(zero), rhat_dim(zero), intersection_dim(zero)) == (0, 0, 0)
    lam = eps_ij(F2, 3, 1, 3)
    assert (lhat_dim(lam), rhat_dim(lam), intersection_dim(lam)) == (1, 1, 0)
    lam2 = eps_ij(F2, 3, 1, 3) + eps_ij(F2, 3, 1, 2)  # same cluster
    assert (lhat_dim(lam2), rhat_dim(lam2), intersection_dim(lam2)) == (1, 1, 0)


@pytest.mark.parametrize("n,q", [(2, 2), (3, 2), (3, 3), (4, 2)])
def test_combinatorial_indices_match_rank_computation(n, q):
    field = field_make(q, 1)
    for tau in enumerate_templates(n, field):
        inv = invariants_of(tau)
        lam = tau.as_functional()
        assert lhat_dim(lam) == inv.d
        assert rhat_dim(lam) == inv.d
        assert intersection_dim(lam) == inv.i


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
    for tau in enumerate_templates(n, field):
        assert cluster_size(tau) == len(bfs_double_orbit(tau.as_functional(), "coadjoint"))
        assert adjoint_cluster_size(tau) == len(bfs_double_orbit(tau.as_matrix(), "adjoint"))


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
        for tau in enumerate_templates(3, field):
            assert set(cluster_elements(tau)) == bfs_double_orbit(tau.as_functional(), "coadjoint")


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


def test_template_text_round_trip(F3):
    for tau in enumerate_templates(3, F3):
        assert parse_template(F3, 3, tau.text()) == tau
