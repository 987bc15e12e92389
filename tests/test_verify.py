import gc
import weakref
from collections import Counter

from supercluster import core, field_make, oracle, packed, verify
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


def test_delta_check_decides_row_vectors_instead_of_pairs(monkeypatch):
    """Thm9.1 at (4,2): one trace over the row trie for each of the 64 group
    elements, no (g, lam) pair test, and at most one decision per row vector
    of rows 1..3 (8 + 4 + 2 of them) for each element."""
    calls = Counter()

    def counted(module, name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[f"{module.__name__}.{name}"] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    ctx = oracle.OracleContext(4, field_make(2, 1))
    ctx.dual  # the partition is built before the count starts
    for name in ("fixes_left", "coact_left"):
        assert not hasattr(oracle, name) and not hasattr(packed, name)
        counted(core, name)
    counted(oracle, "brute_delta_value")
    counted(packed, "decide_row")
    ok, _ = verify._check_delta_value(ctx, oracle.DEFAULT_MAX_SPACE)
    assert ok
    assert calls["supercluster.oracle.brute_delta_value"] == 64
    assert calls["supercluster.core.fixes_left"] == 0
    assert calls["supercluster.core.coact_left"] == 0
    assert 0 < calls["supercluster.packed.decide_row"] <= 64 * (8 + 4 + 2)


def test_delta_check_filters_the_dual_space_once(monkeypatch):
    """Thm9.1 at (4,2) tests each of the 64 functionals for row cover once."""
    calls = Counter()
    covers_rows = oracle.covers_rows

    def counted(lam):
        calls["covers_rows"] += 1
        return covers_rows(lam)

    monkeypatch.setattr(oracle, "covers_rows", counted)
    ok, _ = verify._check_delta_value(
        oracle.OracleContext(4, field_make(2, 1)), oracle.DEFAULT_MAX_SPACE
    )
    assert ok
    assert calls["covers_rows"] == 64


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
    before = sizes(), oracle._shared_context.cache_info()
    assert run_verify(3, field_make(3, 1)).passed
    gc.collect()
    assert len(made) == 1 and made[0]() is None
    assert (sizes(), oracle._shared_context.cache_info()) == before


def test_a_crashing_check_fails_and_the_rest_still_run(monkeypatch, capsys):
    """A fast path that raises fails its own check, as "<type>: <text>";
    every other check still runs, and the CLI exits 4."""
    from supercluster import cli, clusters

    def broken(lam):
        raise ValueError("cells do not form a rook placement")

    monkeypatch.setattr(clusters, "coadjoint_template_of", broken)
    assert cli.main(["verify", "--n", "3", "--q", "3"]) == 4
    out, err = capsys.readouterr()
    lines = out.splitlines()
    assert "Thm4.2 FAIL ValueError: cells do not form a rook placement" in lines
    assert "in broken" in err  # the traceback names the raising frame
    assert len(lines) == 12 and lines[-1] == "overall FAIL"
    assert sum(" FAIL " in line for line in lines) == 1


def test_a_cap_inside_a_check_still_ends_the_run(monkeypatch):
    from supercluster import cli, clusters
    from supercluster.errors import ResourceCapExceeded

    def capped(lam):
        raise ResourceCapExceeded("too big")

    monkeypatch.setattr(clusters, "coadjoint_template_of", capped)
    assert cli.main(["verify", "--n", "3", "--q", "3"]) == 3


def test_zero_window_ranks_fail_the_classification_checks(monkeypatch):
    """Each window rank must equal the cell count of the cluster's rook point
    there, so a rank routine that answers 0 everywhere fails Thm4.1 and
    Thm4.2 even though it is constant on every cluster."""
    from supercluster import clusters

    def zeros(point):
        return (0,) * (point.n * (point.n - 1) // 2)

    monkeypatch.setattr(clusters, "window_ranks", zeros)
    monkeypatch.setattr(clusters, "window_ranks_dual", zeros)
    report = run_verify(3, field_make(3, 1))
    failed = {c.key: c.detail for c in report.checks if not c.passed}
    assert set(failed) == {"Thm4.1", "Thm4.2"}
    assert "differ from the cell counts of" in failed["Thm4.1"]
