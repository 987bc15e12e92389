"""The workloads: which CLI cases each one runs, and how each output is checked.

A case is one ``supercluster`` command line.  Cases are made from the
workload seed alone; the engine only ever sees the generated argv.  Checks
run after the timed loop and never count in a timing.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import random
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCES = os.path.join(HERE, "references.json")

# Products of the tensor workload are drawn over these (n, p, k).  n=5 over
# GF(4) is left out: one (1,5) cell there has a 4096-element cluster, so a
# checked product with it crosses the 2^24 pair cap and exits 3.
TENSOR_STRATA = ((4, 2, 1), (4, 3, 1), (4, 2, 2), (5, 2, 1), (5, 3, 1))
# A checked product of cells (i,j), (i',j') classifies |Psi|*|Psi'| =
# q^(2(j-i-1)) * q^(2(j'-i'-1)) cluster-element pairs.  Above 2^16 pairs the
# only product is (1,5)x(1,5) over GF(3), which alone takes longer than the
# rest of its stratum.
TENSOR_MAX_PAIRS = 2**16
# The products of 2^12 pairs or more take ~0.1-3 s each, most of the
# workload's time, and leave most of its memo footprint.  With seeded values
# and places in the order, their cost moved with the values and with what
# earlier products had left in the memos: by a third for the slowest of them,
# peak_rss_mb over 71-90 MB, and the seeded rest of the products over 1.4-3.6
# s between seeds.  They take the value 1 in both factors and run in a fixed
# order right after the stacks, so every seed runs them alike; the seed draws
# the values and order of the ~160 lighter products.
TENSOR_FIXED_MIN_PAIRS = 2**12
TABLE_SAMPLE_CELLS = 16


@dataclass
class Case:
    """One CLI invocation and what its output must satisfy."""

    name: str             # stable key into references.json; "" when seeded
    argv: list[str]
    field: tuple[int, int]  # (p, k)
    n: int
    kind: str             # "table", "verify" or "tensor"
    factors: tuple = ()   # tensor: ((i, j), ...)


def _field_args(p: int, k: int) -> list[str]:
    return ["--q", str(p)] if k == 1 else ["--p", str(p), "--k", str(k)]


def _table(n, p, k, fmt, jobs):
    argv = ["table", "--n", str(n), *_field_args(p, k), "--format", fmt, "--jobs", str(jobs)]
    return Case(f"table-{n}-{p}^{k}-{fmt}", argv, (p, k), n, "table")


def _verify(n, p, k, seed, jobs):
    argv = ["verify", "--n", str(n), *_field_args(p, k), "--seed", str(seed), "--jobs", str(jobs)]
    # The text report does not depend on the seed when every check passes.
    return Case(f"verify-{n}-{p}^{k}", argv, (p, k), n, "verify")


def _tensor(name, n, p, k, cells, check, jobs):
    argv = ["tensor", "--n", str(n), *_field_args(p, k), "--format", "text", "--jobs", str(jobs)]
    for i, j, value in cells:
        argv += ["--factor", f"{i},{j},{value}"]
    if check:
        argv.append("--check")
    return Case(name, argv, (p, k), n, "tensor", tuple((i, j) for i, j, _ in cells))


def _random_value(rng: random.Random, p: int, k: int) -> str:
    """A non-zero element literal: an int for prime fields, "[c0,...]" otherwise."""
    while True:
        coeffs = [rng.randrange(p) for _ in range(k)]
        if any(coeffs):
            return str(coeffs[0]) if k == 1 else "[" + ",".join(map(str, coeffs)) + "]"


def _random_products(rng: random.Random, jobs: int) -> list[Case]:
    """Every factor-position pair of each stratum once: the heavy ones fixed,
    then the rest with seeded values in seeded order.

    Taking every position pair (rather than a sample of them) keeps the
    cluster sizes, and so the total work, the same for every seed; the seed
    picks the values of all but the heaviest products, which decide
    cancellation in same-cell collisions and which clusters the products
    land in, and their order, which decides what the engine's memos share
    between products.
    """
    heavy, seeded = [], []
    for n, p, k in TENSOR_STRATA:
        q = p**k
        pos = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        for first in range(len(pos)):
            for second in range(first, len(pos)):
                (i1, j1), (i2, j2) = pos[first], pos[second]
                pairs = q ** (2 * (j1 - i1 - 1) + 2 * (j2 - i2 - 1))
                if pairs > TENSOR_MAX_PAIRS:
                    continue
                if pairs >= TENSOR_FIXED_MIN_PAIRS:
                    name = f"tensor-{n}-{p}^{k}-{i1}{j1}x{i2}{j2}-check"
                    cells = [(i1, j1, "1"), (i2, j2, "1")]
                    heavy.append(_tensor(name, n, p, k, cells, True, jobs))
                else:
                    a, b = _random_value(rng, p, k), _random_value(rng, p, k)
                    cells = [(i1, j1, a), (i2, j2, b)]
                    seeded.append(_tensor("", n, p, k, cells, True, jobs))
    rng.shuffle(seeded)
    return heavy + seeded


def build(workload: str, seed: int, jobs: int) -> list[Case]:
    """The ordered case list of one workload."""
    rng = random.Random(seed)
    if workload == "table":
        return [
            _table(6, 2, 1, "csv", jobs),
            _table(5, 3, 1, "json", jobs),
            _table(4, 2, 2, "text", jobs),
            _table(4, 5, 1, "csv", jobs),
        ]
    if workload == "certify":
        return [_verify(5, 2, 1, seed, jobs), _verify(3, 3, 1, seed, jobs)]
    if workload == "tensor":
        stack = [(1, 3, 1)]
        return [
            _tensor("tensor-stack-250", 3, 2, 1, stack * 250, False, jobs),
            _tensor("tensor-stack-150-check", 3, 2, 1, stack * 150, True, jobs),
            *_random_products(rng, jobs),
        ]
    if workload == "smoke":
        return [
            _table(3, 2, 1, "csv", jobs),
            _verify(3, 2, 1, seed, jobs),
            _tensor("tensor-smoke", 3, 2, 1, [(1, 3, 1), (1, 2, 1), (2, 3, 1)], True, jobs),
        ]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("table", "certify", "tensor", "smoke")

FIELDS = {
    "table": ((2, 1), (3, 1), (2, 2), (5, 1)),
    "certify": ((2, 1), (3, 1)),
    "tensor": ((2, 1), (3, 1), (2, 2)),
    "smoke": ((2, 1),),
}


# -- checks -------------------------------------------------------------------

def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_references() -> dict:
    with open(REFERENCES, encoding="utf-8") as fh:
        return json.load(fh)["stdout_sha256"]


def _table_cells(fmt: str, out: str) -> tuple[list[str], list[str], list[list[str]]]:
    """Row labels, column labels and value strings of a rendered table."""
    if fmt == "json":
        from supercluster.cyclotomic import Cyclotomic

        data = json.loads(out)
        values = [[str(Cyclotomic.from_json(v)) for v in row] for row in data["values"]]
        return data["rows"], data["cols"], values
    if fmt == "csv":
        rows = list(csv.reader(io.StringIO(out)))
        return [r[0] for r in rows[1:]], rows[0][1:], [r[1:] for r in rows[1:]]
    lines = [line.split() for line in out.splitlines()]
    return [r[0] for r in lines[1:]], lines[0], [r[1:] for r in lines[1:]]


def _check_table_sample(case: Case, out: str, rng: random.Random) -> str | None:
    """Seeded cells of the closed-form table against the cluster-sum route."""
    from supercluster.characters import char_value_sum
    from supercluster.clusters import parse_template
    from supercluster.core import UniMatrix
    from supercluster.gf import field_make

    field = field_make(*case.field)
    fmt = case.argv[case.argv.index("--format") + 1]
    rows, cols, values = _table_cells(fmt, out)
    if len(values) != len(rows) or any(len(v) != len(cols) for v in values):
        return f"table shape {len(rows)}x{len(cols)} is ragged"
    # Most cells are 0 by the support criterion, so half the sample is drawn
    # from the non-zero cells, where the hook exponent and the phase show.
    nonzero = [(r, c) for r, row in enumerate(values) for c, v in enumerate(row) if v != "0"]
    picks = [
        (rng.randrange(len(rows)), rng.randrange(len(cols))) for _ in range(TABLE_SAMPLE_CELLS)
    ]
    picks += rng.sample(nonzero, min(TABLE_SAMPLE_CELLS, len(nonzero)))
    for r, c in picks:
        tau = parse_template(field, case.n, rows[r])
        x = parse_template(field, case.n, cols[c])
        want = str(char_value_sum(tau, UniMatrix(x.as_matrix())))
        if values[r][c] != want:
            return f"cell ({rows[r]}, {cols[c]}) is {values[r][c]}, cluster sum gives {want}"
    return None


def _check_tensor_degree(case: Case, out: str) -> str | None:
    """total_degree must be the product of the factor degrees q^(j-i-1)."""
    p, k = case.field
    want = (p**k) ** sum(j - i - 1 for i, j in case.factors)
    last = out.rstrip("\n").rsplit("\n", 1)[-1]
    if last != f"total_degree {want}":
        return f"last line {last[:80]!r}, expected total_degree {want}"
    return None


def check(case: Case, rc, out: str, references: dict, rng: random.Random) -> str | None:
    """Why the case failed, or None.  ``rc`` is the exit code, or an error text."""
    if not isinstance(rc, int):
        return rc
    if rc != 0:
        return f"exit code {rc}"
    if case.name:
        want = references.get(case.name)
        if want is None:
            return f"no reference digest for {case.name}"
        if digest(out) != want:
            return "stdout differs from the reference digest"
    if case.kind == "verify" and not out.endswith("overall PASS\n"):
        return "verify did not end in overall PASS"
    if case.kind == "table":
        return _check_table_sample(case, out, rng)
    if case.kind == "tensor":
        return _check_tensor_degree(case, out)
    return None
