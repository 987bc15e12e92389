"""Committed oracle-emitted reference data versus both routes.

The golden files are produced by `verify --emit-golden` (brute BFS sizes,
fixed-point-trace table values, orbit-count discrete multiplicities).  Each
case checks that the oracle still emits identical data and that the fast
paths reproduce it.
"""

import json
from pathlib import Path

import pytest

from supercluster import field_make, verify
from supercluster.characters import build_table
from supercluster.clusters import (
    adjoint_cluster_size,
    cluster_size,
    enumerate_templates,
    invariants_of,
)
from supercluster.discrete import delta_decompose

GOLDEN_DIR = Path(__file__).parent / "golden"
# (n, p, k): the field is GF(p^k); the file is nq_<n>_<q>.json
CASES = [
    (2, 2, 1), (3, 2, 1), (3, 3, 1), (3, 2, 2), (3, 3, 2), (3, 5, 1), (3, 7, 1), (3, 2, 3),
]


def case_id(case):
    n, p, k = case
    return f"{n}-{p}" if k == 1 else f"{n}-{p}^{k}"


cases = pytest.mark.parametrize("n,p,k", CASES, ids=[case_id(c) for c in CASES])


def load(n, p, k):
    return json.loads((GOLDEN_DIR / f"nq_{n}_{p**k}.json").read_text())


@cases
def test_oracle_reproduces_golden(n, p, k):
    assert verify.emit_golden(n, field_make(p, k)) == load(n, p, k)


@cases
def test_fast_table_matches_golden(n, p, k):
    golden = load(n, p, k)
    table = build_table(n, field_make(p, k))
    assert [t.text() for t in table.rows] == golden["table"]["rows"]
    assert [t.text() for t in table.cols] == golden["table"]["cols"]
    rendered = [[str(v) for v in row] for row in table.values]
    assert rendered == golden["table"]["values"]


@cases
def test_fast_sizes_match_golden(n, p, k):
    golden = load(n, p, k)
    field = field_make(p, k)
    by_text = {t["template"]: t for t in golden["templates"]}
    for tau in enumerate_templates(n, field):
        entry = by_text[tau.text()]
        assert cluster_size(tau) == entry["cluster_size"]
        assert adjoint_cluster_size(tau) == entry["adjoint_cluster_size"]
        assert field.q ** invariants_of(tau).d == entry["left_orbit_size"]


@cases
def test_fast_delta_matches_golden(n, p, k):
    golden = load(n, p, k)
    decomp = delta_decompose(n, field_make(p, k))
    assert decomp.to_json() == golden["delta"]
