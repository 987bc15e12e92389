import gc
import os
import weakref
from collections import Counter

import pytest

from supercluster import core, discrete, field_make, linalg, oracle, packed, verify
from supercluster.verify import run_verify

REQUIRED_KEYS = {
    "Thm4.1", "Thm4.2", "Thm3.5", "Thm6.2", "Thm7.1", "Thm8.6",
    "Thm9.1", "Thm9.3", "A.1", "A.2",
}


def test_run_verify_small_passes():
    report = run_verify(2, field_make(2, 1))
    assert report.passed
    assert {c.key for c in report.checks} >= REQUIRED_KEYS
    assert all(c.detail for c in report.checks)


def test_report_json_shape():
    report = run_verify(2, field_make(3, 1))
    data = report.to_json()
    assert data["n"] == 2 and data["q"] == 3 and data["passed"] is True
    assert all(set(c) == {"key", "passed", "detail"} for c in data["checks"])


def test_verify_seed_changes_sampling_but_not_outcome():
    f = field_make(2, 1)
    assert run_verify(3, f, seed=1).passed
    assert run_verify(3, f, seed=2).passed


def test_delta_check_filters_the_dual_space_once(monkeypatch):
    """Thm9.1 at (4,2) reads the trace of each of the 64 group elements,
    from one walk of the group over the trace masks of the
    (2^3-1)(2^2-1)(2-1) = 21 row-covering functionals, the members of
    discrete.in_delta in code order.  The masks are built once per context,
    however often the check runs, and no core action is called."""
    calls = Counter()

    def counted(module, name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[f"{module.__name__}.{name}"] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    traced = []
    trace_masks = packed.Codes.trace_masks

    def recorded(codes, points):
        traced.append(list(points))
        return trace_masks(codes, points)

    monkeypatch.setattr(packed.Codes, "trace_masks", recorded)
    actions = ("act_left", "act_right", "coact_left", "coact_right", "fixes_left", "evaluate")
    for name in actions:
        assert not hasattr(oracle, name) and not hasattr(packed, name)
        counted(core, name)
    brute_delta_values = oracle.brute_delta_values

    def walked(ctx):
        calls["walks"] += 1
        for value in brute_delta_values(ctx):
            calls["values"] += 1
            yield value

    monkeypatch.setattr(oracle, "brute_delta_values", walked)
    ctx = oracle.OracleContext(4, field_make(2, 1))
    for _ in range(2):
        ok, _ = verify._check_delta_value(ctx)
        assert ok
    assert calls["walks"] == 2 and calls["values"] == 2 * 64
    assert not any(calls[f"supercluster.core.{name}"] for name in actions)
    assert len(traced) == 1 and len(traced[0]) == 21
    monkeypatch.undo()
    dual = oracle.enumerate_dual(4, ctx.field)  # indexed by code
    covering = [c for c, lam in enumerate(dual) if discrete.in_delta(lam)]
    assert traced[0] == covering


def test_run_verify_builds_each_partition_once(monkeypatch):
    """One run at (4,2) partitions each side once; the checks share them."""
    sides = []
    orbit_partition = oracle.orbit_partition

    def counted(n, field, side="coadjoint", cap=oracle.DEFAULT_MAX_SPACE):
        sides.append(side)
        return orbit_partition(n, field, side, cap)

    monkeypatch.setattr(oracle, "orbit_partition", counted)
    assert run_verify(4, field_make(2, 1)).passed
    assert sorted(sides) == ["adjoint", "coadjoint"]


def test_no_oracle_memo_survives_a_run(monkeypatch):
    """The run's context is released when it returns, and no module-level
    container of the oracle grows."""
    made = []

    class Recorded(oracle.OracleContext):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(weakref.ref(self))

    def sizes():
        return {
            name: len(value) for name, value in vars(oracle).items()
            if isinstance(value, (dict, list, set)) and not name.startswith("__")
        }

    monkeypatch.setattr(oracle, "OracleContext", Recorded)
    before = sizes()
    assert run_verify(3, field_make(3, 1)).passed
    gc.collect()
    assert len(made) == 1 and made[0]() is None
    assert sizes() == before


def test_a_crashing_check_fails_and_the_rest_still_run(monkeypatch, capsys):
    """A fast path that raises fails its own check, as "<type>: <text>";
    every other check still runs, and the CLI exits 4."""
    from supercluster import cli, clusters

    def broken(*args):  # only Thm4.2 steps a functional's window ranks
        raise ValueError("no window ranks")

    monkeypatch.setattr(clusters, "_dual_window_step", broken)
    assert cli.main(["verify", "--n", "3", "--q", "3"]) == 4
    out, err = capsys.readouterr()
    lines = out.splitlines()
    assert "Thm4.2 FAIL ValueError: no window ranks" in lines
    assert "in broken" in err  # the traceback names the raising frame
    assert len(lines) == 12 and lines[-1] == "overall FAIL"
    assert sum(" FAIL " in line for line in lines) == 1


def test_a_wrong_product_of_the_right_degree_fails_thm86(monkeypatch):
    """A product route that keeps the degree and the symmetry but swaps one
    term for another of the same degree fails Thm8.6 at the first column
    where the two terms differ."""
    from supercluster import clusters, tensor

    field = field_make(3, 1)
    rows, cols, values = oracle.OracleContext(3, field).table
    degree = {t: clusters.invariants_of(t).d for t in rows}
    product = tensor.tensor_product

    def swap(terms):
        first = min(terms, key=lambda t: t.sort_key())
        other = next(t for t in rows if t != first and degree[t] == degree[first])
        out = dict(terms)
        mult = out.pop(first)
        out[other] = out.get(other, 0) + mult
        return first, other, out

    def swapped(t1, t2):
        got = product(t1, t2)
        return tensor.CharSum(got.field, got.n, swap(got.terms)[2])

    monkeypatch.setattr(tensor, "tensor_product", swapped)
    report = run_verify(3, field)
    failed = {c.key: c.detail for c in report.checks if not c.passed}
    assert "Thm8.6" in failed
    t1 = rows[0]  # the first pair is the trivial character squared
    first, other, _ = swap(product(t1, t1).terms)
    r1, r2 = rows.index(first), rows.index(other)
    column = next(x for c, x in enumerate(cols) if values[r1][c] != values[r2][c])
    assert failed["Thm8.6"] == (
        f"pointwise product mismatch for [{t1.text()}] x [{t1.text()}] at column {column.text()}"
    )


@pytest.mark.parametrize("n,p", [(3, 3), (5, 2)], ids=["all-pairs", "sampled"])
def test_thm86_builds_each_ordered_pair_product_once(monkeypatch, n, p):
    """Thm8.6 at (3,3) checks all 121 ordered pairs and at (5,2) a sample;
    either way its loops read each ordered pair's rewrite from one build,
    and its last loop covers every ordered pair.  (tensor_by_counting
    builds its own rewrite to compare with; only verify's calls count.)"""
    import random
    from types import SimpleNamespace

    from supercluster import tensor

    built = Counter()

    def counted(t1, t2):
        built[t1, t2] += 1
        return tensor.tensor_product(t1, t2)

    seen = SimpleNamespace(**{**vars(tensor), "tensor_product": counted})
    monkeypatch.setattr(verify, "tensor", seen)
    ctx = oracle.OracleContext(n, field_make(p, 1))
    passed, _ = verify._check_tensor_ring(ctx, tensor.DEFAULT_MAX_PAIRS, random.Random(0))
    rows = ctx.table[0]
    assert passed
    assert set(built) == {(t1, t2) for t1 in rows for t2 in rows}
    assert set(built.values()) == {1}


def test_a_cap_inside_a_check_still_ends_the_run(monkeypatch):
    from supercluster import cli, clusters
    from supercluster.errors import ResourceCapExceeded

    def capped(lam, rows):
        raise ResourceCapExceeded("too big")

    monkeypatch.setattr(clusters, "_coadjoint_sweep", capped)
    assert cli.main(["verify", "--n", "3", "--q", "3"]) == 3


def test_zero_window_ranks_fail_the_classification_checks(monkeypatch):
    """Each window rank must equal the cell count of the cluster's rook point
    there, so a rank routine that answers 0 everywhere fails Thm4.1 and
    Thm4.2 even though it is constant on every cluster."""
    from supercluster import clusters

    def zeros(field, n, side):
        return lambda rows: (0,) * (n * (n - 1) // 2)

    monkeypatch.setattr(clusters, "WindowRanks", zeros)
    report = run_verify(3, field_make(3, 1))
    failed = {c.key: c.detail for c in report.checks if not c.passed}
    assert set(failed) == {"Thm4.1", "Thm4.2"}
    assert "differ from the cell counts of" in failed["Thm4.1"]


@pytest.mark.parametrize("jobs", [1, 2])
def test_a_wrong_discrete_series_value_fails_thm91_and_thm93(monkeypatch, jobs):
    """A rank formula that is off by one at rank 1 fails Thm9.1 at the first
    group element of rank 1 and Thm9.3 at the first column of rank 1, and
    no other check."""
    field = field_make(2, 1)
    delta_value = discrete.delta_value

    def rank(g):
        n = g.n
        return linalg.rank(field, [[g.off.get(i, j).index for j in range(1, n + 1)]
                                   for i in range(1, n + 1)])

    def wrong(g):
        return delta_value(g) + (rank(g) == 1)

    ctx = oracle.OracleContext(3, field)
    g = next(g for g in oracle.enumerate_group(3, field) if rank(g) == 1)
    x = next(x for x in ctx.table[1] if rank(ctx.column(x)) == 1)
    monkeypatch.setattr(discrete, "delta_value", wrong)
    report = run_verify(3, field, jobs=jobs)
    failed = {c.key: c.detail for c in report.checks if not c.passed}
    assert failed == {
        "Thm9.1": f"rank formula wrong at {g!r}",
        "Thm9.3": f"decomposition wrong at column {x.text()}",
    }


# -- one test per comparison --------------------------------------------------
#
# Each test below breaks one value that a comparison of Thm4.1, Thm4.2,
# Thm6.2 or Thm3.5 reads, at (3,3), and asserts the exact FAIL text of every
# check that fails.  A formula is broken in verify's view of clusters alone
# (_verify_sees), so the engine's own callers, such as tensor's pair cap,
# which reads cluster_size, or build_table's column sizes, keep the real
# one and no other check fails.  The last witness test breaks the
# composition inside the sweeps instead, so every check that runs a sweep
# fails.


def _failed(report) -> dict:
    return {c.key: c.detail for c in report.checks if not c.passed}


def _verify_sees(monkeypatch, **replaced):
    """verify reads clusters with the functions of replaced in place of
    the module's own."""
    from types import SimpleNamespace

    from supercluster import clusters

    monkeypatch.setattr(verify, "clusters", SimpleNamespace(**{**vars(clusters), **replaced}))


def _is_rook(x) -> bool:
    rows = {i for i, _ in x.entries}
    cols = {j for _, j in x.entries}
    return len(rows) == len(cols) == len(x.entries)


@pytest.mark.parametrize("key, sweep, side", [
    ("Thm4.1", "adjoint_template_of", "adjoint"),
    ("Thm4.2", "coadjoint_template_of", "coadjoint"),
])
def test_witnesses_that_miss_the_template_fail_their_check(F3, monkeypatch, key, sweep, side):
    """With the witnesses of one sweep composed as the identity in verify's
    view alone, that sweep's check fails at the first point, in code order,
    that is not its own template, and no other check fails.  verify runs
    the sweep's core on index rows (_adjoint_sweep or _coadjoint_sweep),
    and the public sweep, a thin wrapper over it, fails there too."""
    from supercluster import clusters
    from supercluster.errors import InvariantViolation

    swept = getattr(clusters, f"_{side}_sweep")

    def identity(field, n, ops, on_left):
        return core.identity(field, n)

    def unwitnessed(point, rows):
        with monkeypatch.context() as m:
            m.setattr(clusters, "_compose", identity)
            return swept(point, rows)

    codes = oracle.OracleContext(3, F3).codes
    x = next(x for x in (codes.point(side, c) for c in range(codes.size)) if not _is_rook(x))
    text = f"witnesses for {x!r} do not reproduce the template"
    with monkeypatch.context() as m:
        m.setattr(clusters, "_compose", identity)
        with pytest.raises(InvariantViolation) as exc:
            getattr(clusters, sweep)(x)
    assert str(exc.value) == text
    _verify_sees(monkeypatch, **{f"_{side}_sweep": unwitnessed})
    assert _failed(run_verify(3, F3)) == {key: text}


def test_identity_witnesses_fail_every_sweeping_check(F3, monkeypatch):
    """With every composed witness the identity, each sweep's own check
    fails at the first point it meets that is not its own template: Thm4.1
    and Thm4.2 at the first such point of their space in code order, Thm8.6
    at the first such sum its counting step classifies.  No other check
    runs a sweep."""
    import supercluster
    from supercluster import clusters, tensor
    from supercluster.errors import InvariantViolation

    ctx = oracle.OracleContext(3, F3)
    codes, rows = ctx.codes, ctx.table[0]
    first = {
        side: next(x for x in (codes.point(side, c) for c in range(codes.size)) if not _is_rook(x))
        for side in ("adjoint", "coadjoint")
    }
    supercluster.clear_memos()  # so that no count step is read from an earlier test
    monkeypatch.setattr(clusters, "_compose", lambda field, n, ops, on_left: core.identity(field, n))

    def first_counting_failure():  # Thm8.6 counts every pair at (3,3), in row order
        for t1 in rows:
            for t2 in rows:
                try:
                    tensor.tensor_by_counting(t1, t2)
                except InvariantViolation as exc:
                    return t1, t2, str(exc)

    t1, t2, thm86 = first_counting_failure()
    assert thm86.startswith(f"[{t1.text()}] x [{t2.text()}]: witnesses for Functional(")
    assert _failed(run_verify(3, F3)) == {
        "Thm4.1": f"witnesses for {first['adjoint']!r} do not reproduce the template",
        "Thm4.2": f"witnesses for {first['coadjoint']!r} do not reproduce the template",
        "Thm8.6": thm86,
    }


@pytest.mark.parametrize("which", [0, 1, 2])
def test_orbit_space_dimensions_off_at_one_point_fail_thm42(F3, monkeypatch, which):
    """dim L-hat, dim R-hat or dim (L-hat ∩ R-hat) one too high at the last
    point of the first cluster with two points fails Thm4.2 there."""
    from supercluster import clusters

    ctx = oracle.OracleContext(3, F3)
    part = ctx.coadjoint
    rep, codes = next(
        (rep, codes) for rep, codes in zip(part.representatives, part.orbit_codes)
        if len(codes) > 1
    )
    last = ctx.codes.decode("coadjoint", codes[-1])[1]
    HatDims = clusters.HatDims

    def off(field, n):
        walk = HatDims(field, n)

        def dims_of(rows):
            dims = list(walk(rows))
            dims[which] += rows == last
            return tuple(dims)

        return dims_of

    _verify_sees(monkeypatch, HatDims=off)
    assert _failed(run_verify(3, F3)) == {
        "Thm4.2": f"orbit-space dimensions vary inside the cluster of {rep.text()}"
    }


def test_the_first_rank_mismatch_in_orbit_order_fails_thm42(F3, monkeypatch):
    """Window ranks off at two points, a before b in code order but b's
    orbit before a's: Thm4.2 names b, the first mismatch in orbit order
    (orbits numbered by their first code, members in code order)."""
    from supercluster import clusters

    ctx = oracle.OracleContext(3, F3)
    ids = ctx.coadjoint.ids
    a, b = next((a, b) for b in range(len(ids)) for a in range(b) if ids[a] > ids[b])
    broken = [ctx.codes.point("coadjoint", c) for c in (a, b)]
    rows_of = [ctx.codes.decode("coadjoint", c)[1] for c in (a, b)]
    window_ranks = clusters.WindowRanks

    def off(field, n, side):
        walk = window_ranks(field, n, side)

        def ranks(rows):
            got = walk(rows)
            return (got[0] + 1,) + got[1:] if rows in rows_of else got

        return ranks if side == "coadjoint" else walk

    _verify_sees(monkeypatch, WindowRanks=off)
    rep = ctx.coadjoint.representatives[ids[b]]
    assert _failed(run_verify(3, F3)) == {
        "Thm4.2": f"window ranks of {broken[1]!r} differ from the cell counts of {rep.text()}"
    }


@pytest.mark.parametrize("jobs", [1, 2])
def test_a_wrong_window_rank_step_fails_thm41_and_thm42(F3, monkeypatch, jobs):
    """Each side's row step made to count one more at window (1, 2) when
    row 1 is not zero: every point with a non-zero row 1 has a wrong rank,
    and each check names the first of them in orbit order, with one lane
    and with two."""
    from supercluster import clusters

    ctx = oracle.OracleContext(3, F3)
    want = {}
    for key, side, part in (("Thm4.1", "adjoint", ctx.adjoint), ("Thm4.2", "coadjoint", ctx.coadjoint)):
        oid, c = min((oid, c) for c, oid in enumerate(part.ids) if ctx.codes.rows(c)[0])
        want[key] = (
            f"window ranks of {ctx.codes.point(side, c)!r}"
            f" differ from the cell counts of {part.representatives[oid].text()}"
        )

    def bumped(step):
        def wrong(field, n, k, rows, state):
            state, ranks = step(field, n, k, rows, state)
            return state, [ranks[0] + (k == 1 and any(rows[0]))] + ranks[1:]

        return wrong

    for step in ("_matrix_window_step", "_dual_window_step"):
        monkeypatch.setattr(clusters, step, bumped(getattr(clusters, step)))
    assert _failed(run_verify(3, F3, jobs=jobs)) == want


@pytest.mark.parametrize("jobs", [1, 2])
def test_a_group_walk_that_skips_the_identity_fails_thm62_and_thm91(F2, monkeypatch, jobs):
    """A walk of the group that never yields g = I, which fixes every
    functional, takes q^(2d) / |U| from each self-intertwining number of
    brute_inner and the identity's value from the discrete series.  At
    (3,2) Thm6.2 checks every row, the trivial one first, whose number
    becomes 1 - 1/8; Thm9.1 fails at the identity, the first group
    element."""
    from fractions import Fraction

    from supercluster.cyclotomic import Cyclotomic

    trace_walk = packed.Codes.trace_walk

    def skipping(self, traced):
        return ((ys, bins) for ys, bins in trace_walk(self, traced) if any(ys))

    monkeypatch.setattr(packed.Codes, "trace_walk", skipping)
    norm = Cyclotomic.from_rational(2, Fraction(7, 8))
    assert _failed(run_verify(3, F2, jobs=jobs)) == {
        "Thm6.2": f"self-intertwining of 0 is {norm}, expected 1",
        "Thm9.1": f"rank formula wrong at {core.identity(F2, 3)!r}",
    }


def test_a_wrong_cluster_size_formula_fails_thm62(F3, monkeypatch):
    from supercluster import clusters

    rep = oracle.OracleContext(3, F3).coadjoint.representatives[-1]
    size = clusters.cluster_size(rep)
    _verify_sees(monkeypatch, cluster_size=lambda t: clusters.cluster_size(t) + (t == rep))
    assert _failed(run_verify(3, F3)) == {
        "Thm6.2": f"cluster of {rep.text()} has {size} points, formula says {size + 1}"
    }


def test_a_short_left_orbit_fails_thm62(F3, monkeypatch):
    """A left orbit one point short of q^d, for the last row template with
    d > 0, fails Thm6.2 there."""
    from supercluster import clusters

    ctx = oracle.OracleContext(3, F3)
    rep = [t for t in ctx.coadjoint.representatives if clusters.invariants_of(t).d][-1]
    left_orbit_size = oracle.OracleContext.left_orbit_size

    def short(self, tau):
        return left_orbit_size(self, tau) - (tau == rep)

    monkeypatch.setattr(oracle.OracleContext, "left_orbit_size", short)
    d = clusters.invariants_of(rep).d
    assert _failed(run_verify(3, F3)) == {
        "Thm6.2": f"left orbit of {rep.text()} has {3**d - 1} points, degree says q^{d}"
    }


def test_cluster_sizes_that_miss_the_space_fail_thm62(F3, monkeypatch):
    """The coadjoint partition and the formula both give the cluster of 0
    a second point, so every size matches and the total is one too many."""
    from supercluster import clusters

    zero = clusters.Template(F3, 3, [])
    orbit_partition = oracle.orbit_partition

    class Grown(oracle.OrbitDecomposition):
        def orbit_sizes(self):
            sizes = super().orbit_sizes()
            sizes[self.representatives.index(zero)] += 1
            return sizes

    def partition(n, field, side="coadjoint", cap=oracle.DEFAULT_MAX_SPACE):
        part = orbit_partition(n, field, side, cap)
        return Grown(part.representatives, part.ids) if side == "coadjoint" else part

    monkeypatch.setattr(oracle, "orbit_partition", partition)
    _verify_sees(monkeypatch, cluster_size=lambda t: clusters.cluster_size(t) + (t == zero))
    assert _failed(run_verify(3, F3)) == {
        "Thm6.2": "cluster sizes sum to 28, space has 27 points"
    }


def test_a_wrong_adjoint_size_formula_fails_thm62(F3, monkeypatch):
    from supercluster import clusters

    rep = oracle.OracleContext(3, F3).adjoint.representatives[-1]
    size = clusters.adjoint_cluster_size(rep)
    _verify_sees(
        monkeypatch,
        adjoint_cluster_size=lambda t: clusters.adjoint_cluster_size(t) + (t == rep),
    )
    assert _failed(run_verify(3, F3)) == {
        "Thm6.2": f"adjoint cluster of {rep.text()} has {size} points, formula says {size + 1}"
    }


def test_a_self_intertwining_off_by_z_fails_thm62(F3, monkeypatch):
    """A norm q^i + z at the last row fails Thm6.2 there, though its z^0
    coefficient is right."""
    from supercluster.cyclotomic import Cyclotomic

    rep = oracle.OracleContext(3, F3).coadjoint.representatives[-1]
    brute_inner = oracle.brute_inner
    z = Cyclotomic.zeta_power(3, 1)

    def off(s, t, ctx):
        norm = brute_inner(s, t, ctx)
        return norm + z if s == rep else norm

    monkeypatch.setattr(oracle, "brute_inner", off)
    assert _failed(run_verify(3, F3)) == {
        "Thm6.2": f"self-intertwining of {rep.text()} is {1 + z}, expected 1"
    }


def test_a_cluster_sum_off_at_the_last_cell_fails_thm35(F3, monkeypatch):
    """A cluster-sum value off by z at the last row and last column only."""
    from supercluster.cyclotomic import Cyclotomic

    rows, cols, _ = oracle.OracleContext(3, F3).table
    tau, x = rows[-1], cols[-1]
    char_value_sum = verify.char_value_sum
    z = Cyclotomic.zeta_power(3, 1)

    def off(t, g):
        value = char_value_sum(t, g)
        return value + z if (t, g.off) == (tau, x.as_matrix()) else value

    monkeypatch.setattr(verify, "char_value_sum", off)
    assert _failed(run_verify(3, F3)) == {
        "Thm3.5": f"cluster-sum value differs at ({tau.text()}, {x.text()})"
    }


def test_a_cluster_sum_off_away_from_the_rook_points_fails_thm35(F3, monkeypatch):
    """Values off by z at every point that is not a rook point pass the
    full grid and fail the members sampled from the first conjugacy cluster
    with such a point, which has at most 3 members, so all are taken."""
    from supercluster.cyclotomic import Cyclotomic

    ctx = oracle.OracleContext(3, F3)
    rows = ctx.table[0]
    part = ctx.adjoint
    rep, codes = next(
        (rep, codes) for rep, codes in zip(part.representatives, part.orbit_codes)
        if not all(_is_rook(ctx.codes.point("adjoint", c)) for c in codes)
    )
    assert len(codes) <= 3 and len(rows) <= 12
    char_value_sum = verify.char_value_sum
    z = Cyclotomic.zeta_power(3, 1)

    def off(t, g):
        value = char_value_sum(t, g)
        return value if _is_rook(g.off) else value + z

    monkeypatch.setattr(verify, "char_value_sum", off)
    assert _failed(run_verify(3, F3)) == {"Thm3.5": (
        f"character of {rows[0].text()} varies inside the conjugacy cluster of {rep.text()}"
    )}


def test_a_closed_form_off_at_the_last_cell_fails_a1(F3, monkeypatch):
    """A value of the built table off by z at the last row and last column
    only; A.1 alone reads the table cell by cell."""
    from supercluster.characters import CharacterTable
    from supercluster.cyclotomic import Cyclotomic

    rows, cols, _ = oracle.OracleContext(3, F3).table
    tau, x = rows[-1], cols[-1]
    value = CharacterTable.value
    z = Cyclotomic.zeta_power(3, 1)

    def off(table, t, y):
        v = value(table, t, y)
        return v + z if (t, y) == (tau, x) else v

    monkeypatch.setattr(CharacterTable, "value", off)
    assert _failed(run_verify(3, F3)) == {
        "A.1": f"closed form differs at ({tau.text()}, {x.text()})"
    }


def test_a_wrong_support_criterion_at_the_last_column_fails_a1(F3, monkeypatch):
    """The oracle reports a counterexample to the support criterion at the
    last column only."""
    ctx = oracle.OracleContext(3, F3)
    x, lam = ctx.table[1][-1], ctx.codes.point("coadjoint", ctx.codes.size - 1)
    counterexample = oracle.OracleContext.criterion_counterexample

    def wrong(context, y):
        return lam if y == x else counterexample(context, y)

    monkeypatch.setattr(oracle.OracleContext, "criterion_counterexample", wrong)
    assert _failed(run_verify(3, F3)) == {
        "A.1": f"support criterion wrong for ({lam!r}, {x.text()})"
    }


def test_a_table_without_a_row_template_fails_a1_by_name(F3, monkeypatch, capsys):
    """A built table that lacks the last row template fails A.1 with a line
    that names it, and no traceback; A.2 reads the same table and fails its
    axioms."""
    from supercluster.characters import CharacterTable, build_table, verify_axioms

    full = build_table(3, F3)
    short = CharacterTable(
        n=3, field=F3, rows=full.rows[:-1], cols=full.cols, values=full.values[:-1],
        row_degrees=full.row_degrees[:-1], row_selfint=full.row_selfint[:-1],
        col_sizes=full.col_sizes,
    )
    monkeypatch.setattr(verify, "build_table", lambda n, field, max_rows: short)
    name, detail = verify_axioms(short).failures()[0]
    assert _failed(run_verify(3, F3)) == {
        "A.1": f"closed-form table: {full.rows[-1].text()} is not a row of the table",
        "A.2": f"axiom {name} failed: {detail}",
    }
    assert capsys.readouterr().err == ""


# -- two lanes ----------------------------------------------------------------

LANE_B = ["Thm5.1", "Thm4.1", "Thm4.2", "A.2", "Thm7.1", "Thm9.3"]


def _verify_cli(capsys, *extra, args=("--n", "3", "--q", "3")):
    from supercluster import cli

    code = cli.main(["verify", *args, *extra])
    out, err = capsys.readouterr()
    return code, out, err


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def deadline():
    """Fail, instead of hanging, a run that waits on its child for 60 s."""
    import signal

    def expired(signum, frame):
        raise TimeoutError("verify waited 60 s on its child")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.alarm(60)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("seed", [0, 1])
def test_the_rng_checks_draw_in_the_parent_as_in_one_lane(monkeypatch, seed):
    """Thm6.2, Thm3.5 and Thm8.6 take the rng in the same state, in the
    same order and in the calling process, with one job or two."""
    seen = []

    def recorded(name):
        check = getattr(verify, name)

        def wrapper(*args):
            rng = args[-1]
            seen.append((name, rng.getstate()))
            return check(*args)

        monkeypatch.setattr(verify, name, wrapper)

    for name in ("_check_sizes_and_degrees", "_check_character_sum", "_check_tensor_ring"):
        recorded(name)
    runs = []
    for jobs in (1, 2):
        seen.clear()
        report = run_verify(4, field_make(2, 1), seed=seed, jobs=jobs)
        runs.append((list(seen), report))
    assert runs[0] == runs[1]
    assert [name for name, _ in runs[0][0]] == [
        "_check_sizes_and_degrees", "_check_character_sum", "_check_tensor_ring"
    ]
    assert runs[0][1].passed
    _assert_no_child_left()


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_a_crashing_check_in_the_child_lane_fails_and_reports(monkeypatch, capsys, jobs):
    """A lane-B check that raises gives its "<type>: <text>" FAIL line, its
    traceback on the caller's stderr and exit 4; every other check reports."""
    from supercluster import clusters

    def broken(rows):  # only Thm4.2 calls it, whatever the module memos hold
        raise ValueError("no orbit-space dimensions")

    monkeypatch.setattr(clusters, "HatDims", lambda field, n: broken)
    code, out, err = _verify_cli(capsys, "--jobs", jobs)
    lines = out.splitlines()
    assert code == 4
    assert "Thm4.2 FAIL ValueError: no orbit-space dimensions" in lines
    assert "in broken" in err and "Traceback" in err
    assert len(lines) == 12 and lines[-1] == "overall FAIL"
    assert sum(" FAIL " in line for line in lines) == 1
    _assert_no_child_left()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="os._exit would end the test run")
@pytest.mark.parametrize("dies_in", ["_check_counting", "_check_delta_decomposition"])
def test_a_dead_child_fails_the_checks_it_did_not_report(monkeypatch, capsys, deadline, dies_in):
    """A child that exits before its report is done fails each check it did
    not report with its exit status; the run neither hangs nor leaves it."""
    monkeypatch.setattr(verify, dies_in, lambda *args: os._exit(7))
    code, out, _ = _verify_cli(capsys, "--jobs", "2")
    assert code == 4
    status = "check process exited with status 7 before reporting"
    failed = [line.split()[0] for line in out.splitlines() if " FAIL " in line]
    assert failed == (LANE_B if dies_in == "_check_counting" else ["Thm9.3"])
    assert f"Thm9.3 FAIL {status}" in out.splitlines()
    assert out.endswith("overall FAIL\n")
    _assert_no_child_left()


@pytest.mark.parametrize("caps", [
    {"orbit": 10},  # the context's one space cap, met before the warm-up
])
def test_a_cap_in_the_warm_up_ends_the_run_as_with_one_job(monkeypatch, capsys, caps):
    monkeypatch.setenv("SUPERCLUSTER_CAPS", ",".join(f"{k}={v}" for k, v in caps.items()))
    one = _verify_cli(capsys, "--jobs", "1")
    started = []
    sizes_and_degrees = verify._check_sizes_and_degrees
    monkeypatch.setattr(
        verify, "_check_sizes_and_degrees", lambda *a: started.append(1) or sizes_and_degrees(*a)
    )
    two = _verify_cli(capsys, "--jobs", "2")
    assert one == two and started == []  # no lane started
    assert one[0] == 3 and one[1] == "" and one[2].startswith("resource cap exceeded: ")
    _assert_no_child_left()


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_the_space_cap_admits_a_space_of_its_size(monkeypatch, capsys, jobs):
    """(3,2) has 2^3 = 8 points in the algebra, the dual and the group:
    SUPERCLUSTER_CAPS=orbit=8 certifies it, and orbit=7 ends the run before
    any check."""
    small = ("--n", "3", "--q", "2")
    monkeypatch.setenv("SUPERCLUSTER_CAPS", "orbit=8")
    code, out, _ = _verify_cli(capsys, "--jobs", jobs, args=small)
    assert code == 0 and out.endswith("overall PASS\n")
    monkeypatch.setenv("SUPERCLUSTER_CAPS", "orbit=7")
    assert _verify_cli(capsys, "--jobs", jobs, args=small) == (
        3, "", "resource cap exceeded: space of size 8 exceeds the cap 7\n"
    )
    _assert_no_child_left()


@pytest.mark.parametrize("capped, message", [
    ({"_check_adjoint_classification": "lane B"}, "lane B"),
    ({"_check_tensor_ring": "lane A"}, "lane A"),
    # caps in both lanes: the one earlier in check order ends a one-lane run
    ({"_check_adjoint_classification": "B", "_check_sizes_and_degrees": "A"}, "B"),
    ({"_check_sizes_and_degrees": "A", "_check_axioms": "B"}, "A"),
])
def test_a_cap_inside_a_lane_ends_the_run_as_with_one_job(
    monkeypatch, capsys, deadline, capped, message
):
    from supercluster.errors import ResourceCapExceeded

    def capping(text):
        def check(*args):
            raise ResourceCapExceeded(text)

        return check

    for name, text in capped.items():
        monkeypatch.setattr(verify, name, capping(text))
    one = _verify_cli(capsys, "--jobs", "1")
    assert one == (3, "", f"resource cap exceeded: {message}\n")
    assert _verify_cli(capsys, "--jobs", "2") == one
    _assert_no_child_left()


def _adjoint_crash(*args):  # stands in for Thm4.1, in lane B
    raise ValueError("lane B")


def _sizes_crash(*args):  # stands in for Thm6.2, in lane A
    raise KeyError("lane A")


@pytest.mark.parametrize("caps, expected", [
    ("table=10", (3, "", "resource cap exceeded: B(4, 2) templates exceed the table cap 10\n")),
    ("table=15", None),
])
def test_the_table_cap_bounds_verify_before_any_check(monkeypatch, capsys, caps, expected):
    """(4,2) has B(4, 2) = 15 table rows: a table cap of 10 in
    SUPERCLUSTER_CAPS ends the run with the message of table, before any
    check or fork, and a cap of 15 admits it, with one job or two."""
    monkeypatch.setenv("SUPERCLUSTER_CAPS", caps)
    started = []
    counting = verify._check_counting
    monkeypatch.setattr(verify, "_check_counting", lambda *a: started.append(1) or counting(*a))
    small = ("--n", "4", "--q", "2")
    for jobs in ("1", "2"):
        code, out, err = _verify_cli(capsys, "--jobs", jobs, args=small)
        if expected is None:
            assert code == 0 and out.endswith("overall PASS\n") and err == ""
        else:
            assert (code, out, err) == expected and started == []
        _assert_no_child_left()


def test_crashes_in_both_lanes_report_their_tracebacks_in_check_order(
    monkeypatch, capsys, deadline
):
    """Thm4.1 (lane B) and Thm6.2 (lane A) raising give the same exit 4,
    stdout and stderr with one job or two, the Thm4.1 traceback first."""
    monkeypatch.setattr(verify, "_check_adjoint_classification", _adjoint_crash)
    monkeypatch.setattr(verify, "_check_sizes_and_degrees", _sizes_crash)
    one = _verify_cli(capsys, "--jobs", "1")
    assert _verify_cli(capsys, "--jobs", "2") == one
    code, out, err = one
    assert code == 4
    failed = [line for line in out.splitlines() if " FAIL " in line]
    assert failed == ["Thm4.1 FAIL ValueError: lane B", "Thm6.2 FAIL KeyError: 'lane A'"]
    assert err.count("Traceback") == 2
    assert err.index("in _adjoint_crash") < err.index("in _sizes_crash")
    _assert_no_child_left()


def test_a_crash_before_a_cap_reports_its_traceback_then_the_cap(monkeypatch, capsys, deadline):
    """Thm4.1 (lane B) raising and Thm8.6 (lane A) capping give exit 3,
    empty stdout, and on stderr the Thm4.1 traceback and then the cap line,
    with one job or two."""
    from supercluster.errors import ResourceCapExceeded

    def tensor_cap(*args):
        raise ResourceCapExceeded("lane A")

    monkeypatch.setattr(verify, "_check_adjoint_classification", _adjoint_crash)
    monkeypatch.setattr(verify, "_check_tensor_ring", tensor_cap)
    one = _verify_cli(capsys, "--jobs", "1")
    assert _verify_cli(capsys, "--jobs", "2") == one
    code, out, err = one
    assert (code, out) == (3, "")
    traceback, cap = err[: err.rindex("resource cap")], err[err.rindex("resource cap"):]
    assert traceback.startswith("Traceback") and traceback.count("Traceback") == 1
    assert traceback.endswith("ValueError: lane B\n") and "in _adjoint_crash" in traceback
    assert cap == "resource cap exceeded: lane A\n"
    _assert_no_child_left()
