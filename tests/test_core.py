import pickle
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supercluster import field_make
from supercluster.core import (
    Functional,
    NilMatrix,
    UniMatrix,
    act_adjoint,
    act_left,
    act_right,
    coact_coadjoint,
    coact_left,
    coact_right,
    conj,
    e_ij,
    elementary,
    eps_ij,
    evaluate,
    fixes_left,
    identity,
    nil_mul,
    positions,
)
from supercluster.oracle import enumerate_dual, enumerate_group, enumerate_nil


def test_positions():
    assert positions(3) == [(1, 2), (1, 3), (2, 3)]
    assert positions(1) == []


def test_zero_entries_dropped(F2):
    x = NilMatrix(F2, 3, {(1, 2): F2.zero, (1, 3): F2.one})
    assert x.entries == {(1, 3): F2.one}


def test_lower_positions_rejected(F2):
    with pytest.raises(ValueError):
        NilMatrix(F2, 3, {(2, 1): F2.one})
    with pytest.raises(ValueError):
        Functional(F2, 3, {(3, 3): F2.one})


def test_group_mul_basic(F2):
    g = elementary(F2, 3, 1, 2, F2.one)
    h = elementary(F2, 3, 2, 3, F2.one)
    prod = g * h
    assert prod.off == e_ij(F2, 3, 1, 2) + e_ij(F2, 3, 2, 3) + e_ij(F2, 3, 1, 3)
    assert (g * identity(F2, 3)) == g
    assert (g * g) == identity(F2, 3)  # char 2 and e12^2 = 0


def test_group_inv(F2, F3):
    assert identity(F2, 3).inv() == identity(F2, 3)
    g = elementary(F2, 3, 1, 3, F2.one)
    assert g.inv().off == e_ij(F2, 3, 1, 3)  # -1 = 1 in char 2, e13^2 = 0
    h = UniMatrix(e_ij(F3, 3, 1, 2) + e_ij(F3, 3, 2, 3))
    two = F3.elements[2]
    expected = e_ij(F3, 3, 1, 2, two) + e_ij(F3, 3, 2, 3, two) + e_ij(F3, 3, 1, 3)
    assert h.inv().off == expected  # I - X + X^2


def test_group_inverse_everywhere(F3):
    for g in enumerate_group(3, F3):
        assert g * g.inv() == identity(F3, 3)
        assert g.inv() * g == identity(F3, 3)


def test_size_mismatch_raises(F2):
    with pytest.raises(ValueError):
        identity(F2, 3) * identity(F2, 4)
    with pytest.raises(ValueError):
        evaluate(eps_ij(F2, 3, 1, 2), e_ij(F2, 4, 1, 2))


FIELD_MISMATCH = {
    "fixes_left": lambda g, lam: fixes_left(g, lam),
    "coact_left": lambda g, lam: coact_left(g, lam),
    "coact_right": lambda g, lam: coact_right(lam, g),
    "evaluate": lambda g, lam: evaluate(lam, g.off),
    "add": lambda g, lam: lam + g.off.as_functional(),
    "sub": lambda g, lam: lam - g.off.as_functional(),
    "scale": lambda g, lam: lam.scale(g.off.get(1, 2)),
    "nil_mul": lambda g, lam: nil_mul(lam.as_matrix(), g.off),
    "group_mul": lambda g, lam: UniMatrix(lam.as_matrix()) * g,
    "act_left": lambda g, lam: act_left(g, lam.as_matrix()),
    "act_right": lambda g, lam: act_right(lam.as_matrix(), g),
}


@pytest.mark.parametrize("name", sorted(FIELD_MISMATCH))
def test_field_mismatch_raises(name, F2, F3, F4):
    """Operands over different fields, even of one characteristic, are rejected."""
    call = FIELD_MISMATCH[name]
    lam = eps_ij(F2, 3, 1, 3) + eps_ij(F2, 3, 1, 2)
    for field in (F3, F4):
        g = UniMatrix(e_ij(field, 3, 1, 2) + e_ij(field, 3, 2, 3))
        with pytest.raises(ValueError, match="field mismatch"):
            call(g, lam)
    call(UniMatrix(e_ij(F2, 3, 1, 2) + e_ij(F2, 3, 2, 3)), lam)


def test_act_left_example(F2):
    g = elementary(F2, 3, 1, 2, F2.one)
    assert act_left(g, e_ij(F2, 3, 2, 3)) == e_ij(F2, 3, 2, 3) + e_ij(F2, 3, 1, 3)
    assert act_left(identity(F2, 3), e_ij(F2, 3, 2, 3)) == e_ij(F2, 3, 2, 3)


def test_act_adjoint_example(F2):
    g = elementary(F2, 3, 1, 2, F2.one)
    assert act_adjoint(g, e_ij(F2, 3, 2, 3)) == e_ij(F2, 3, 2, 3) + e_ij(F2, 3, 1, 3)


def test_coact_left_displayed_rule(F3):
    # (I + a*e_ij) * eps_kl = eps_kl + a*eps_ki when l = j and k < i
    a = F3.elements[2]
    lam = eps_ij(F3, 3, 1, 3)
    assert coact_left(elementary(F3, 3, 1, 2, a), lam) == lam  # no k < 1
    got = coact_left(elementary(F3, 3, 2, 3, a), lam)
    assert got == lam + eps_ij(F3, 3, 1, 2, a)


def test_coact_right_displayed_rule(F3):
    # eps_kl * (I + a*e_ij) = eps_kl + a*eps_jl when k = i and l > j
    a = F3.elements[2]
    lam = eps_ij(F3, 3, 1, 3)
    got = coact_right(lam, elementary(F3, 3, 1, 2, a))
    assert got == lam + eps_ij(F3, 3, 2, 3, a)
    assert coact_right(lam, elementary(F3, 3, 2, 3, a)) == lam


def test_eval_examples(F2, F3):
    assert evaluate(eps_ij(F2, 3, 1, 3), e_ij(F2, 3, 1, 3)) == F2.one
    assert evaluate(eps_ij(F2, 3, 1, 3), e_ij(F2, 3, 1, 2)) == F2.zero
    lam = eps_ij(F3, 3, 1, 2, F3.elements[2]) + eps_ij(F3, 3, 2, 3)
    x = e_ij(F3, 3, 1, 2) + e_ij(F3, 3, 2, 3)
    assert evaluate(lam, x) == F3.zero  # 2 + 1 = 0 mod 3


def test_actions_commute_exhaustive(F2):
    group = enumerate_group(3, F2)
    nils = enumerate_nil(3, F2)
    for g in group:
        for h in group:
            for x in nils:
                assert act_left(g, act_right(x, h)) == act_right(act_left(g, x), h)


def test_coactions_commute_and_match_coadjoint(F2):
    group = enumerate_group(3, F2)
    duals = enumerate_dual(3, F2)
    for g in group:
        for h in group:
            for lam in duals:
                assert coact_left(g, coact_right(lam, h)) == coact_right(coact_left(g, lam), h)
    for g in group:
        for lam in duals:
            assert coact_left(g, coact_right(lam, g.inv())) == coact_coadjoint(lam, g)


def test_coadjoint_identity_sampled_n4(F2):
    import random

    rng = random.Random(7)
    pts = positions(4)
    def random_entries():
        return {pos: v for pos in pts if (v := rng.choice(F2.elements))}
    for _ in range(25):
        g = UniMatrix(NilMatrix(F2, 4, random_entries()))
        lam = Functional(F2, 4, random_entries())
        assert coact_left(g, coact_right(lam, g.inv())) == coact_coadjoint(lam, g)
        assert coact_right(coact_left(g, lam), g.inv()) == coact_coadjoint(lam, g)


def test_left_coaction_is_action_composition(F3):
    # g2 * (g1 * lam) = (g2 g1) * lam and (lam * g1) * g2 = lam * (g1 g2)
    group = enumerate_group(3, F3)[:10]
    duals = enumerate_dual(3, F3)[:20]
    for g1 in group:
        for g2 in group:
            for lam in duals:
                assert coact_left(g2, coact_left(g1, lam)) == coact_left(g2 * g1, lam)
                assert coact_right(coact_right(lam, g1), g2) == coact_right(lam, g1 * g2)


def test_coact_left_adjoint_to_right_action(F2):
    group = enumerate_group(3, F2)
    duals = enumerate_dual(3, F2)
    nils = enumerate_nil(3, F2)
    for g in group:
        for lam in duals:
            glam = coact_left(g, lam)
            for x in nils:
                assert evaluate(glam, x) == evaluate(lam, act_right(x, g))


def test_conjugation_matches_adjoint(F2):
    group = enumerate_group(3, F2)
    nils = enumerate_nil(3, F2)
    for h in group:
        for x in nils:
            assert conj(h, UniMatrix(x)) == UniMatrix(act_adjoint(h, x))


def test_nil_mul(F2):
    assert nil_mul(e_ij(F2, 3, 1, 2), e_ij(F2, 3, 2, 3)) == e_ij(F2, 3, 1, 3)
    assert not nil_mul(e_ij(F2, 3, 2, 3), e_ij(F2, 3, 1, 2))


def test_functional_matrix_reinterpretation(F2):
    lam = eps_ij(F2, 3, 1, 3)
    assert lam.as_matrix() == e_ij(F2, 3, 1, 3)
    assert e_ij(F2, 3, 1, 3).as_functional() == lam


# -- the actions against dense matrices ----------------------------------------

PROPS = settings(derandomize=True, database=None, deadline=None, max_examples=150)

# GF(2), GF(3), GF(4), GF(5), GF(9) as (p, k)
FIELDS = ((2, 1), (3, 1), (2, 2), (5, 1), (3, 2))


def sparse_values(field, n):
    """One element index per strictly upper position, zero about half the time."""
    count = len(positions(n))
    value = st.one_of(st.just(0), st.integers(0, field.q - 1))
    return st.lists(value, min_size=count, max_size=count)


def _entries(field, n, indices):
    return {pos: field.elements[m] for pos, m in zip(positions(n), indices)}


@st.composite
def cases(draw):
    """(field, n, x, g, lam) with x nilpotent, g unipotent, lam a functional."""
    field = field_make(*draw(st.sampled_from(FIELDS)))
    n = draw(st.integers(2, 5))
    x = NilMatrix(field, n, _entries(field, n, draw(sparse_values(field, n))))
    g = UniMatrix(NilMatrix(field, n, _entries(field, n, draw(sparse_values(field, n)))))
    lam = Functional(field, n, _entries(field, n, draw(sparse_values(field, n))))
    return field, n, x, g, lam


def dense(field, n, entries, unit=False):
    """The n x n list matrix with the given 1-based entries, plus I if unit."""
    rows = [[field.zero] * n for _ in range(n)]
    for (i, j), v in entries.items():
        rows[i - 1][j - 1] = v
    if unit:
        for i in range(n):
            rows[i][i] = field.one
    return rows


def dense_mul(field, a, b):
    n = len(a)
    out = [[field.zero] * n for _ in range(n)]
    for i in range(n):
        for k in range(n):
            if a[i][k]:
                for j in range(n):
                    out[i][j] = out[i][j] + a[i][k] * b[k][j]
    return out


def upper_part(field, n, rows):
    """Strictly upper entries of a dense matrix that has none below the diagonal."""
    assert not any(rows[i][j] for i in range(n) for j in range(i + 1))
    return {(i, j): rows[i - 1][j - 1] for (i, j) in positions(n) if rows[i - 1][j - 1]}


def pairing(field, n, coeffs, rows):
    """lam(x) = sum over strictly upper (i,j) of c_ij * x_ij, x dense."""
    total = field.zero
    for (i, j), c in coeffs.items():
        total = total + c * rows[i - 1][j - 1]
    return total


def ref_coact(field, n, g, lam, side):
    """(g * lam)(e_kl) = lam(e_kl . g) and (lam * g)(e_kl) = lam(g . e_kl)."""
    gd = dense(field, n, g.off.entries, unit=True)
    out = {}
    for (k, l) in positions(n):
        e = dense(field, n, {(k, l): field.one})
        moved = dense_mul(field, e, gd) if side == "left" else dense_mul(field, gd, e)
        v = pairing(field, n, lam.entries, moved)
        if v:
            out[(k, l)] = v
    return out


def assert_clean(value):
    """No stored zero, and equal to the validated rebuild of its entries."""
    assert all(value.entries.values())
    assert value == type(value)(value.field, value.n, dict(value.entries))


@PROPS
@given(cases())
def test_actions_match_dense_reference(case):
    field, n, x, g, lam = case
    xd = dense(field, n, x.entries)
    gd = dense(field, n, g.off.entries, unit=True)
    left = act_left(g, x)
    right = act_right(x, g)
    assert left.entries == upper_part(field, n, dense_mul(field, gd, xd))
    assert right.entries == upper_part(field, n, dense_mul(field, xd, gd))
    gl = coact_left(g, lam)
    lr = coact_right(lam, g)
    assert gl.entries == ref_coact(field, n, g, lam, "left")
    assert lr.entries == ref_coact(field, n, g, lam, "right")
    for value in (left, right, gl, lr, -lam, lam - gl, x.scale(field.elements[-1]),
                  nil_mul(x, g.off), g.inv().off, (g * g).off, x.as_functional()):
        assert_clean(value)


@PROPS
@given(cases())
def test_fixes_left_matches_the_image(case):
    field, n, x, g, lam = case
    assert fixes_left(g, lam) == (coact_left(g, lam) == lam)
    # I + e_1n fixes every lam: its one entry is in row 1 and needs k < 1
    top = elementary(field, n, 1, n, field.one)
    assert fixes_left(top, lam) and coact_left(top, lam) == lam
    assert fixes_left(identity(field, n), lam)


@PROPS
@given(cases())
def test_group_index_leaves_identity_alone(case):
    field, n, x, g, lam = case
    twin = UniMatrix(NilMatrix(field, n, dict(g.off.entries)))
    before = hash(g)
    coact_left(g, lam)
    coact_right(lam, g)
    fixes_left(g, lam)
    assert g == twin and twin == g
    assert hash(g) == before == hash(twin)
    back = pickle.loads(pickle.dumps(g))
    assert back == g and hash(back) == before
    assert coact_left(back, lam) == coact_left(g, lam)


# n = 4 is the first size where two increments can meet at one position and
# cancel, so a fixed point there can hide behind non-zero terms
@pytest.mark.parametrize("n,p,k", [(3, 3, 1), (3, 2, 2), (4, 2, 1)])
def test_fixes_left_exhaustive(n, p, k):
    field = field_make(p, k)
    duals = enumerate_dual(n, field)
    fixed = 0
    for g in enumerate_group(n, field):
        for lam in duals:
            got = fixes_left(g, lam)
            assert got == (coact_left(g, lam) == lam)
            fixed += got
    assert fixed > len(duals)  # the identity alone fixes every lam
