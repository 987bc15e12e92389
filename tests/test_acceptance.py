"""Acceptance suite: every criterion checked exactly (tolerance zero).

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion with its runtime.  All equalities are exact integer or reduced
cyclotomic comparisons; the sampled parts use a fixed seed.
"""

import random
import time

import pytest

from supercluster import field_make, packed
from supercluster.characters import build_table, char_value_closed, char_value_sum, verify_axioms
from supercluster.clusters import (
    Template,
    adjoint_template_of,
    bell_poly,
    cluster_size,
    coadjoint_template_of,
    enumerate_templates,
    invariants_of,
    parse_template,
)
from supercluster.core import UniMatrix
from supercluster.cyclotomic import Cyclotomic
from supercluster.discrete import (
    delta_decompose,
    delta_value,
    in_delta,
    is_degenerate,
)
from supercluster.oracle import (
    OracleContext,
    brute_delta_value,
    brute_tensor,
    enumerate_dual,
    enumerate_group,
    enumerate_nil,
    orbit_partition,
)
from supercluster.tensor import tensor_by_counting, tensor_product
from supercluster.verify import run_verify

CLASSIFICATION_SET = [(3, 2), (3, 3), (4, 2)]


def report(number, started, detail):
    print(f"criterion {number} PASS ({time.perf_counter() - started:.2f}s): {detail}")


def test_criterion_1_counting():
    started = time.perf_counter()
    closed_forms = {
        1: lambda q: 1,
        2: lambda q: q,
        3: lambda q: 1 + 3 * (q - 1) + (q - 1) ** 2,
        4: lambda q: 1 + 6 * (q - 1) + 7 * (q - 1) ** 2 + (q - 1) ** 3,
    }
    for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 49):
        for n, poly in closed_forms.items():
            assert bell_poly(n, q) == poly(q)
    for n, q in [(3, 2), (3, 3), (4, 2), (4, 3), (5, 2)]:
        assert len(enumerate_templates(n, field_make(q, 1))) == bell_poly(n, q)
    report(1, started, "recurrence equals closed polynomials and enumeration counts")


def test_criterion_2_classification():
    started = time.perf_counter()
    points = 0
    for n, q in CLASSIFICATION_SET:
        field = field_make(q, 1)
        dual_part = orbit_partition(n, field, "coadjoint")  # raises unless one template per orbit
        for lam, oid in zip(enumerate_dual(n, field), dual_part.ids):
            t, _, _ = coadjoint_template_of(lam)
            assert t == dual_part.representatives[oid]
        nil_part = orbit_partition(n, field, "adjoint")
        for x, oid in zip(enumerate_nil(n, field), nil_part.ids):
            t, _, _ = adjoint_template_of(x)
            assert t == nil_part.representatives[oid]
        points += 2 * len(dual_part.ids)
    report(2, started, f"both-side classification over {points} points")


def test_criterion_3_sizes():
    started = time.perf_counter()
    for n, q in CLASSIFICATION_SET:
        field = field_make(q, 1)
        part = orbit_partition(n, field, "coadjoint")
        bfs_sizes = dict(zip(part.representatives, part.orbit_sizes()))
        total = 0
        for tau in enumerate_templates(n, field):
            size = cluster_size(tau)  # q^(2d - i)
            assert size == bfs_sizes[tau]
            total += size
        assert total == field.q ** (n * (n - 1) // 2)
    report(3, started, "cluster sizes match BFS and sum to the space size")


def test_criterion_4_character_table():
    started = time.perf_counter()
    cells = 0
    for n, q in CLASSIFICATION_SET:
        field = field_make(q, 1)
        rows, cols, brute = OracleContext(n, field).table
        for r, tau in enumerate(rows):
            for c, x in enumerate(cols):
                closed = char_value_closed(tau, x)
                assert closed == char_value_sum(tau, UniMatrix(x.as_matrix()))
                assert closed == brute[r][c]
                cells += 1
    field2 = field_make(2, 1)
    t13 = parse_template(field2, 3, "(1,3)=1")
    order = ["0", "(1,2)=1", "(2,3)=1", "(1,3)=1", "(1,2)=1;(2,3)=1"]
    row = [char_value_closed(t13, parse_template(field2, 3, c)) for c in order]
    assert row == [2, 0, 0, -2, 0]
    report(4, started, f"closed = sum = brute on {cells} cells; frozen row matches")


def test_criterion_5_axioms():
    started = time.perf_counter()
    for n, q in CLASSIFICATION_SET:
        field = field_make(q, 1)
        table = build_table(n, field)
        assert len(table.rows) == len(table.cols) == bell_poly(n, q)
        result = verify_axioms(table)
        assert result.passed, result.failures()
    report(5, started, "regular character, orthogonality and counts at all three (n,q)")


def test_criterion_6_tensor_ring():
    started = time.perf_counter()
    checked = 0
    for q in (2, 3):
        field = field_make(q, 1)
        templates = enumerate_templates(3, field)
        ctx = OracleContext(3, field)
        for t1 in templates:
            for t2 in templates:
                counted = tensor_by_counting(t1, t2)  # asserts the rewrite agreement
                assert counted == brute_tensor(t1, t2, ctx)
                d1 = field.q ** invariants_of(t1).d
                d2 = field.q ** invariants_of(t2).d
                assert counted.total_degree == d1 * d2
                assert all(m > 0 for m in counted.terms.values())
                checked += 1
        # trivial-multiplicity rule, exhaustive
        trivial = Template(field, 3, [])
        for t1 in templates:
            minus = Template(field, 3, [(i, j, -v) for (i, j, v) in t1.cells])
            for t2 in templates:
                mult = tensor_product(t1, t2).terms.get(trivial, 0)
                expected = field.q ** invariants_of(t1).i if t2 == minus else 0
                assert mult == expected
    field = field_make(2, 1)
    templates = enumerate_templates(4, field)
    rng = random.Random(20260810)
    ctx = OracleContext(4, field)
    for _ in range(200):
        t1, t2 = rng.choice(templates), rng.choice(templates)
        counted = tensor_by_counting(t1, t2)
        assert counted == brute_tensor(t1, t2, ctx)
        d1 = field.q ** invariants_of(t1).d
        d2 = field.q ** invariants_of(t2).d
        assert counted.total_degree == d1 * d2
        checked += 1
    report(6, started, f"three tensor routes agree on {checked} products")


def test_criterion_7_discrete_series():
    started = time.perf_counter()
    elements = 0
    for n in (2, 3, 4):
        for q in (2, 3):
            field = field_make(q, 1)
            ctx = OracleContext(n, field)
            for g in enumerate_group(n, field):
                formula = delta_value(g)
                assert brute_delta_value(g, ctx) == Cyclotomic.from_rational(field.p, formula)
                elements += 1
            decomp = delta_decompose(n, field)
            identity = 1
            for m in range(1, n):
                identity *= field.q**m - 1
            assert decomp.identity_value == identity
            assert sum(
                mult * field.q ** invariants_of(tau).d for tau, mult in decomp.terms.items()
            ) == identity
            for tau in enumerate_templates(n, field):
                assert (decomp.terms.get(tau, 0) > 0) == (not is_degenerate(tau))
                total = Cyclotomic.from_rational(field.p, 0)
                for term, mult in decomp.terms.items():
                    total = total + mult * char_value_closed(term, tau)
                assert total == delta_value(UniMatrix(tau.as_matrix()))
    # multiplicity as a left-orbit count inside the cluster, n = 3
    for q in (2, 3):
        field = field_make(q, 1)
        decomp = delta_decompose(3, field)
        part = orbit_partition(3, field, "coadjoint")
        clusters = dict(zip(part.representatives, part.orbit_codes))
        codes = packed.Codes(3, field)
        left = codes.generators("coadjoint", ("left",))
        for tau in enumerate_templates(3, field):
            pool = {c for c in clusters[tau] if in_delta(codes.point("coadjoint", c))}
            orbits = 0
            while pool:
                pool -= codes.closure(next(iter(pool)), left)
                orbits += 1
            assert orbits == decomp.terms.get(tau, 0)
    report(7, started, f"rank formula vs trace at {elements} elements; decomposition identities")


def test_criterion_8_scale_probe():
    started = time.perf_counter()
    reportee = run_verify(5, field_make(2, 1), cap_orbit=2**20, seed=0)
    failures = [(c.key, c.detail) for c in reportee.checks if not c.passed]
    assert reportee.passed, failures
    report(8, started, f"(5,2) certification: {len(reportee.checks)} checks green over 1024-point spaces")
