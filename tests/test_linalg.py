import random
from itertools import product

from supercluster import field_make, linalg
from supercluster.oracle import OracleContext


def test_rank_counts_the_span_over_gf3(F3):
    # q^rank is the number of distinct combinations of the rows
    rng = random.Random(5)
    ranks = set()
    for _ in range(40):
        m = [[rng.choice(F3.elements) for _ in range(4)] for _ in range(3)]
        span = {
            tuple(sum((a * x for a, x in zip(coeffs, col)), F3.zero) for col in zip(*m))
            for coeffs in product(F3.elements, repeat=3)
        }
        assert len(span) == 3 ** linalg.rank(m)
        ranks.add(linalg.rank(m))
    assert len(ranks) > 1


def test_brute_rows_are_orthogonal_under_orbit_weights():
    # sum_c w_c chi_s(c) conj(chi_t(c)) = delta_st |U| q^i, with w_c the BFS
    # adjoint orbit sizes, and q^i = |left orbit|^2 / |coadjoint orbit|
    for n, p, k in ((3, 2, 1), (3, 3, 1), (4, 2, 1), (3, 2, 2)):
        ctx = OracleContext(n, field_make(p, k))
        rows, cols, values = ctx.table
        order = len(ctx.nil)
        adjoint = dict(zip(ctx.adjoint.representatives, ctx.adjoint.orbit_sizes()))
        weights = [adjoint[x] for x in cols]
        coadjoint = dict(zip(ctx.coadjoint.representatives, ctx.coadjoint.orbit_sizes()))
        for s in range(len(rows)):
            for t, tau in enumerate(rows):
                pairing = sum(
                    w * a * b.conjugate() for w, a, b in zip(weights, values[s], values[t])
                )
                if s != t:
                    assert pairing == 0
                    continue
                left = len(ctx.left_orbit(tau))
                selfint, rest = divmod(left * left, coadjoint[tau])
                assert rest == 0
                assert pairing == order * selfint
                assert ctx.projection[t][1] == order * selfint
