"""Property tests for the integer core of Cyclotomic.

Every ring operation is compared against a naive reference on tuples of
Fractions over the basis 1, z, ..., z^(p-2): convolve exponent vectors, then
fold by z^p = 1 and 1 + z + ... + z^(p-1) = 0.
"""

import pickle
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supercluster.characters import build_table, inner_product
from supercluster.clusters import parse_template
from supercluster.cyclotomic import Cyclotomic
from supercluster.oracle import OracleContext, brute_inner

PROPS = settings(derandomize=True, database=None, deadline=None, max_examples=150)

PRIMES = (2, 3, 5, 7)

rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))


def coeff_lists(p):
    return st.lists(rationals, min_size=p - 1, max_size=p - 1)


# one prime and two coefficient vectors for it
pairs = st.sampled_from(PRIMES).flatmap(
    lambda p: st.tuples(st.just(p), coeff_lists(p), coeff_lists(p))
)


def ref_fold(p, raw):
    """Exponent vector (any length) -> basis coefficients."""
    full = [Fraction(0)] * p
    for m, c in enumerate(raw):
        full[m % p] += c
    return tuple(full[m] - full[p - 1] for m in range(p - 1))


def ref_mul(p, xs, ys):
    raw = [Fraction(0)] * (2 * p)
    for i, a in enumerate(xs):
        for j, b in enumerate(ys):
            raw[i + j] += a * b
    return ref_fold(p, raw)


def ref_conj(p, xs):
    raw = [Fraction(0)] * p
    for m, a in enumerate(xs):
        raw[(-m) % p] += a
    return ref_fold(p, raw)


def assert_canonical(a):
    assert a.den > 0
    assert gcd(a.den, *a.num) == 1
    assert all(type(c) is int for c in a.num)
    assert len(a.num) == a.p - 1


@PROPS
@given(pairs)
def test_ring_ops_match_fraction_reference(case):
    p, xs, ys = case
    a, b = Cyclotomic(p, xs), Cyclotomic(p, ys)
    assert a.coeffs == tuple(xs)
    assert (a + b).coeffs == tuple(x + y for x, y in zip(xs, ys))
    assert (a - b).coeffs == tuple(x - y for x, y in zip(xs, ys))
    assert (-a).coeffs == tuple(-x for x in xs)
    assert (a * b).coeffs == ref_mul(p, xs, ys)
    assert a.conjugate().coeffs == ref_conj(p, xs)
    for result in (a, b, a + b, a - b, -a, a * b, a.conjugate()):
        assert_canonical(result)


@PROPS
@given(pairs, rationals, st.integers(-5, 5))
def test_rational_scalars_match_reference(case, r, k):
    p, xs, _ = case
    a = Cyclotomic(p, xs)
    for s in (r, k):
        expected = tuple(x * s for x in xs)
        assert (a * s).coeffs == expected
        assert (s * a).coeffs == expected
        assert_canonical(a * s)
        assert (a + s).coeffs == (xs[0] + s,) + tuple(xs[1:])
        assert (s - a).coeffs == (s - xs[0],) + tuple(-x for x in xs[1:])
    c = Cyclotomic.from_rational(p, r)
    assert c == r and c.rational_value() == r
    assert c != r + 1


@PROPS
@given(pairs)
def test_equal_values_share_hash_str_and_json(case):
    p, xs, ys = case
    a, b = Cyclotomic(p, xs), Cyclotomic(p, ys)
    again = (a + b) - b
    assert again == a
    assert hash(again) == hash(a)
    assert str(again) == str(a)
    assert again.to_json() == a.to_json()


def test_equal_inputs_in_other_forms():
    a = Cyclotomic(3, [Fraction(2, 4), 1])
    b = Cyclotomic(3, [Fraction(1, 2), Fraction(3, 3)])
    assert a == b
    assert hash(a) == hash(b)
    assert str(a) == str(b) == "1/2+z"
    assert a.to_json() == b.to_json() == {"p": 3, "coeffs": ["1/2", "1/1"]}
    assert (a.num, a.den) == ((1, 2), 2)
    assert Cyclotomic(3, [2, 0]) == Cyclotomic(3, [Fraction(4, 2), Fraction(0, 5)]) == 2


@PROPS
@given(pairs)
def test_json_and_pickle_round_trip(case):
    p, xs, _ = case
    a = Cyclotomic(p, xs)
    assert Cyclotomic.from_json(a.to_json()) == a
    back = pickle.loads(pickle.dumps(a))
    assert back == a
    assert (back.p, back.num, back.den) == (a.p, a.num, a.den)


@pytest.fixture
def fractions_made(monkeypatch):
    """The constructor arguments of every Fraction built during the test."""
    made = []
    original = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        made.append(args)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
    return made


def test_integral_arithmetic_builds_no_fraction(fractions_made):
    for p in PRIMES:
        a = 3 * Cyclotomic.zeta_power(p, 1) + 2
        b = Cyclotomic.zeta_power(p, 2) - Cyclotomic.from_rational(p, 5)
        for value in (a + b, a - b, 1 - a, -a, a * b, a * 4, a.conjugate()):
            assert_canonical(value)
        assert a != b and a == a * 1 and a != 2 and hash(a) == hash(a + 0)
    assert fractions_made == []


def test_inner_products_build_no_fraction(fractions_made, F3):
    table = build_table(3, F3)
    r = table.rows.index(parse_template(F3, 3, "(1,3)=1"))
    row, ones = table.values[r], [Cyclotomic.from_rational(3, 1)] * len(table.cols)

    ctx = OracleContext(3, F3)
    tau, trivial = table.rows[r], parse_template(F3, 3, "0")  # chi_0 is 1 everywhere

    fractions_made.clear()
    got = [
        inner_product(table, row, row),
        inner_product(table, row, ones),
        brute_inner(tau, tau, ctx),
        brute_inner(tau, trivial, ctx),
    ]
    assert fractions_made == []
    assert got == [1, 0, 1, 0]
    # a value that is not an integer: the 1/|U| of the pairing with a point mass
    point = [Cyclotomic.from_rational(3, c == 0) for c in range(len(table.cols))]
    assert inner_product(table, point, point) == Fraction(1, 27)


def test_from_bins_sums_the_powers_of_z():
    z = Cyclotomic.zeta_power(3, 1)
    assert Cyclotomic.from_bins(3, [2, 1, 1]) == 1  # 1 + (1 + z + z^2)
    assert Cyclotomic.from_bins(3, [0, 4, 1]) == 4 * z + z * z
    assert Cyclotomic.from_bins(3, [0, 1, 0], 6) == Fraction(1, 6) * z
    assert Cyclotomic.from_bins(2, [3, 1]) == 2  # z = -1
    assert Cyclotomic.from_bins(5, [0] * 5) == 0
