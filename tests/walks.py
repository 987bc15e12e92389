"""The tests' one-point spellings of the engine's walks.

The engine walks window ranks and L-hat/R-hat dimensions row prefix by row
prefix over many points (clusters.WindowRanks, clusters.HatDims), and a
cluster by its left orbits (clusters.left_orbits).  These functions take
one point, or one template, at a time, which is how the tests state the
invariants; each is held to the oracle's BFS where it is used.
"""

from supercluster.clusters import (
    HatDims,
    WindowRanks,
    _index_rows,
    _point,
    _slots,
    _span_vectors,
    left_orbits,
)


def window_ranks(x):
    """Rank of every window (i, j) of the matrix x, in positions(n) order.

    Window (i, j) is rows i..j-1 over columns up to j."""
    return WindowRanks(x.field, x.n, "adjoint")(_index_rows(x))


def window_ranks_dual(lam):
    """Rank of every window (i, j) of the functional lam, in positions(n)
    order.

    Window (i, j) is rows 1..i over columns j and up."""
    return WindowRanks(lam.field, lam.n, "coadjoint")(_index_rows(lam))


def hat_dims(lam):
    """(dim L, dim R, dim L ∩ R) for L = L-hat(lam) and R = R-hat(lam): one
    point's walk of HatDims."""
    return HatDims(lam.field, lam.n)(_index_rows(lam))


def cluster_elements(tau):
    """Every element of the coadjoint cluster of tau, orbit by orbit.

    The points of the orbits of left_orbits(tau), in its order, each orbit
    spelled out from its reduced mu and basis; left_orbits has already
    checked that there are q^(d-i) disjoint orbits of q^d points.  Not
    memoized and in no sorted order."""
    field, n = tau.field, tau.n
    slots = _slots(n)
    return tuple(
        _point(field, n, slots, vec)[0]
        for mu, basis in left_orbits(tau)
        for vec in _span_vectors(field, mu, basis)
    )
