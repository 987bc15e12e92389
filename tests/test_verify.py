from collections import Counter

from supercluster import core, field_make, oracle, verify
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


def test_delta_check_tests_each_covering_pair_once(monkeypatch):
    """Thm9.1 at (4,2): 64 group elements, 21 of the 64 functionals cover rows 1..3."""
    calls = Counter()

    def counted(module, name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(oracle, "covers_rows")
    counted(oracle, "fixes_left")
    counted(oracle, "coact_left")
    counted(core, "coact_left")
    ok, _ = verify._check_delta_value(
        4, field_make(2, 1), oracle.DEFAULT_MAX_SPACE, oracle.DEFAULT_MAX_SPACE
    )
    assert ok
    assert calls["fixes_left"] == 64 * 21
    assert calls["coact_left"] == 0
    assert calls["covers_rows"] <= 64 + 64 * 21
