"""The certification suite: every fast-path result against the brute oracle.

Each check pits one certified identity against explicit enumeration for a
single (n, q) and yields one pass/fail line.  Exhaustive wherever the space
allows; seeded sampling takes over only where pair counts explode, and the
sample size is part of the reported detail.  A falsified identity is
reported as a failure (the CLI turns it into exit code 4) rather than
raising out of the run, and so is any other exception a check raises, as
"<type>: <text>" with its traceback on stderr; only ResourceCapExceeded
ends the run (exit 3).

run_verify makes one oracle.OracleContext per run and hands it to every
check that reads the oracle, so the adjoint and coadjoint partitions, the
enumerations taken from their point lists, the column group elements, the
brute table and its projection data are built once and dropped when the
run ends; Thm8.6 decomposes its deep pairs by projecting onto the brute
rows and checking the result at every column, and Thm9.1 traces every
group element over the context's one row trie.  A.1 asks the context
for a functional on which the support criterion and the fixed-point test
disagree.  Thm9.3 and emit_golden count the left orbits in the
row-covering part of each row's cluster with the context, which reads the
cluster from the coadjoint partition instead of walking it again.

No check reads another's result, so with jobs >= 2 (and os.fork) the
checks run in two fixed lanes (supercluster.lanes).  Lane A, in the calling
process, holds the only checks that draw from the run's one
random.Random(seed), RNG_CHECKS, in their usual order, so every sample is
the one a single lane takes; lane B, the other eight, runs in one forked
child over the context the parent warmed before the fork.  The report is
the same for every jobs, and so is the exit: a cap in either lane ends the
run with the cap a single lane would have met first.  jobs = 1 runs every
check in the calling process.  The engine starts no thread; fork copies
only the calling thread, so a caller running threads of its own passes
jobs = 1.
"""

from __future__ import annotations

import json
import os
import random
import sys
from dataclasses import dataclass

from . import clusters, discrete, oracle, tensor
from .characters import build_table, char_value_closed, char_value_sum, verify_axioms
from .clusters import Template
from .core import UniMatrix, act_left, act_right, coact_left, coact_right, positions
from .cyclotomic import Cyclotomic
from .errors import InvariantViolation, ResourceCapExceeded
from .gf import Field

EXHAUSTIVE_PAIR_LIMIT = 240


@dataclass
class VerifyCheck:
    key: str
    passed: bool
    detail: str


@dataclass
class VerifyReport:
    n: int
    p: int
    k: int
    checks: list[VerifyCheck]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "p": self.p,
            "k": self.k,
            "q": self.p**self.k,
            "passed": self.passed,
            "checks": [
                {"key": c.key, "passed": c.passed, "detail": c.detail} for c in self.checks
            ],
        }


def _check_counting(n, field):
    count = len(clusters.enumerate_templates(n, field))
    expected = clusters.bell_poly(n, field.q)
    if count != expected:
        return False, f"enumerated {count} templates, recurrence says {expected}"
    return True, f"template count {count} matches the recurrence"


def _cells_per_window(rep, inside):
    """Cells of the rook placement rep inside each window (i, j), in positions
    order: the rank every point of rep's cluster must have there."""
    return tuple(
        sum(1 for k, l, _ in rep.cells if inside(i, j, k, l)) for (i, j) in positions(rep.n)
    )


def _check_adjoint_classification(ctx):
    part = ctx.adjoint
    for x in part.points:
        t, g, h = clusters.adjoint_template_of(x)
        if t != part.representatives[part.orbit_of(x)]:
            return False, f"sweep template of {x!r} disagrees with its orbit's rook point"
        if clusters.template_of_matrix(act_right(act_left(g, x), h)) != t:
            return False, f"witnesses for {x!r} do not reproduce the template"
    for rep, members in zip(part.representatives, part.members()):
        cells = _cells_per_window(rep, lambda i, j, k, l: i <= k and l <= j)
        for x in members:
            if clusters.window_ranks(x) != cells:
                return False, (
                    f"window ranks of {x!r} differ from the cell counts of {rep.text()}"
                )
    return True, f"{len(part.representatives)} adjoint clusters over {len(part.points)} points"


def _check_coadjoint_classification(ctx):
    part = ctx.coadjoint
    for lam in part.points:
        t, g, h = clusters.coadjoint_template_of(lam)
        if t != part.representatives[part.orbit_of(lam)]:
            return False, f"sweep template of {lam!r} disagrees with its orbit's rook point"
        if clusters.template_of_functional(coact_left(g, coact_right(lam, h))) != t:
            return False, f"witnesses for {lam!r} do not reproduce the template"
    for rep, members in zip(part.representatives, part.members()):
        inv = clusters.invariants_of(rep)
        cells = _cells_per_window(rep, lambda i, j, k, l: k <= i and j <= l)
        for lam in members:
            if clusters.window_ranks_dual(lam) != cells:
                return False, (
                    f"window ranks of {lam!r} differ from the cell counts of {rep.text()}"
                )
            lhat, rhat, both = clusters._hat_dims(lam)
            if lhat != inv.d or rhat != inv.d or both != inv.i:
                return False, f"orbit-space dimensions vary inside the cluster of {rep.text()}"
    return True, f"{len(part.representatives)} coadjoint clusters over {len(part.points)} points"


def _check_sizes_and_degrees(ctx, cap_group, rng):
    n, field, part = ctx.n, ctx.field, ctx.coadjoint
    sizes = part.orbit_sizes()
    total = 0
    for rep, size in zip(part.representatives, sizes):
        inv = clusters.invariants_of(rep)
        if size != clusters.cluster_size(rep):
            return False, (
                f"cluster of {rep.text()} has {size} points,"
                f" formula says {clusters.cluster_size(rep)}"
            )
        left = len(ctx.left_orbit(rep))
        if left != field.q**inv.d:
            return False, f"left orbit of {rep.text()} has {left} points, degree says q^{inv.d}"
        total += size
    order = field.q ** (n * (n - 1) // 2)
    if total != order:
        return False, f"cluster sizes sum to {total}, space has {order} points"
    nil_part = ctx.adjoint
    for rep, size in zip(nil_part.representatives, nil_part.orbit_sizes()):
        if size != clusters.adjoint_cluster_size(rep):
            return False, (
                f"adjoint cluster of {rep.text()} has {size} points,"
                f" formula says {clusters.adjoint_cluster_size(rep)}"
            )
    picks = (
        part.representatives
        if len(part.representatives) <= 12
        else rng.sample(part.representatives, 12)
    )
    for tau in picks:
        expected = field.q ** clusters.invariants_of(tau).i

        def chi(g, tau=tau):
            return oracle.brute_char_value(tau, g, ctx)

        norm = oracle.brute_inner(chi, chi, n, field, cap_group, ctx)
        if norm != Cyclotomic.from_rational(field.p, expected):
            return False, f"self-intertwining of {tau.text()} is {norm}, expected {expected}"
    return True, (
        f"all {len(sizes)} cluster sizes and degrees match;"
        f" self-intertwining checked on {len(picks)} rows"
    )


def _check_character_sum(ctx, rng):
    rows, cols, brute = ctx.table
    for r, tau in enumerate(rows):
        for c, x in enumerate(cols):
            if char_value_sum(tau, ctx.column(x)) != brute[r][c]:
                return False, f"cluster-sum value differs at ({tau.text()}, {x.text()})"
    # The loop above proved char_value_sum equal to the brute value at every
    # cell, so the picks are held to the brute value at their rep's column.
    part = ctx.adjoint
    index = {t: r for r, t in enumerate(rows)}
    col_index = {x: c for c, x in enumerate(cols)}
    sample_rows = rows if len(rows) <= 12 else rng.sample(rows, 12)
    for rep, members in zip(part.representatives, part.members()):
        picks = members if len(members) <= 3 else rng.sample(members, 3)
        for tau in sample_rows:
            base = brute[index[tau]][col_index[rep]]
            for x in picks:
                if char_value_sum(tau, UniMatrix(x)) != base:
                    return False, (
                        f"character of {tau.text()} varies inside the conjugacy"
                        f" cluster of {rep.text()}"
                    )
    return True, f"cluster-sum route matches the trace on all {len(rows)}x{len(cols)} cells"


def _check_closed_formula(ctx):
    rows, cols, brute = ctx.table
    for r, tau in enumerate(rows):
        for c, x in enumerate(cols):
            if char_value_closed(tau, x) != brute[r][c]:
                return False, f"closed form differs at ({tau.text()}, {x.text()})"
    for x in cols:
        lam = ctx.criterion_counterexample(x)
        if lam is not None:
            return False, f"support criterion wrong for ({lam!r}, {x.text()})"
    return True, f"closed form equals the trace on all {len(rows)}x{len(cols)} cells"


def _check_axioms(ctx):
    table = build_table(ctx.n, ctx.field)
    part = ctx.adjoint
    sizes = dict(zip(part.representatives, part.orbit_sizes()))
    for col, size in zip(table.cols, table.col_sizes):
        if sizes.get(col) != size:
            return False, (
                f"conjugacy cluster of {col.text()} has {sizes.get(col)} points, not {size}"
            )
    report = verify_axioms(table)
    if not report.passed:
        name, detail = report.failures()[0]
        return False, f"axiom {name} failed: {detail}"
    return True, "superclass partition, regular character, orthogonality, counts"


def _check_primary_factorization(ctx):
    n, field = ctx.n, ctx.field
    rows, cols, brute = ctx.table
    index = {t: r for r, t in enumerate(rows)}
    for tau in rows:
        rewritten = tensor.tensor_rewrite(field, n, tau.cells)
        if rewritten.terms != {tau: 1}:
            return False, f"rewrite of the primary factors of {tau.text()} is {rewritten!r}"
        for c in range(len(cols)):
            prod = Cyclotomic.from_rational(field.p, 1)
            for (i, j, a) in tau.cells:
                prod = prod * brute[index[Template(field, n, [(i, j, a)])]][c]
            if prod != brute[index[tau]][c]:
                return False, f"primary factors of {tau.text()} do not multiply to it"
    return True, f"all {len(rows)} characters factor through their primary cells"


def _check_tensor_ring(ctx, pair_cap, sample_pairs, rng):
    n, field = ctx.n, ctx.field
    rows, cols, brute = ctx.table
    index = {t: r for r, t in enumerate(rows)}
    all_pairs = [(t1, t2) for t1 in rows for t2 in rows]
    if len(all_pairs) <= EXHAUSTIVE_PAIR_LIMIT:
        pairs = all_pairs
        deep_pairs = pairs
        mode = f"all {len(pairs)} pairs"
    else:
        pairs = [(rng.choice(rows), rng.choice(rows)) for _ in range(sample_pairs)]
        deep_pairs = pairs[: max(10, sample_pairs // 16)]
        mode = f"{len(pairs)} sampled pairs ({len(deep_pairs)} via the counting route)"
    for t1, t2 in pairs:
        got = tensor.tensor_product(t1, t2)
        d1 = field.q ** clusters.invariants_of(t1).d
        d2 = field.q ** clusters.invariants_of(t2).d
        if got.total_degree != d1 * d2:
            return False, f"degree not conserved for [{t1.text()}] x [{t2.text()}]"
        if got != tensor.tensor_product(t2, t1):
            return False, f"product not symmetric for [{t1.text()}] x [{t2.text()}]"
        for c in range(len(cols)):
            lhs = Cyclotomic.from_rational(field.p, 0)
            for term, mult in got.terms.items():
                lhs = lhs + mult * brute[index[term]][c]
            if lhs != brute[index[t1]][c] * brute[index[t2]][c]:
                return False, (
                    f"pointwise product mismatch for [{t1.text()}] x [{t2.text()}]"
                    f" at column {cols[c].text()}"
                )
    for t1, t2 in deep_pairs:
        counted = tensor.tensor_by_counting(t1, t2, pair_cap)
        if counted != tensor.tensor_product(t1, t2):
            return False, f"counting route differs for [{t1.text()}] x [{t2.text()}]"
        if oracle.brute_tensor(t1, t2, ctx=ctx) != counted:
            return False, f"brute solve differs for [{t1.text()}] x [{t2.text()}]"
    for t1 in rows:
        minus = Template(field, n, [(i, j, -v) for (i, j, v) in t1.cells])
        trivial = Template(field, n, [])
        for t2 in rows:
            mult = tensor.tensor_product(t1, t2).terms.get(trivial, 0)
            expected = field.q ** clusters.invariants_of(t1).i if t2 == minus else 0
            if mult != expected:
                return False, (
                    f"trivial multiplicity in [{t1.text()}] x [{t2.text()}] is {mult},"
                    f" expected {expected}"
                )
    return True, f"rewrite, counting and brute routes agree on {mode}"


def _check_delta_value(ctx, cap_group):
    field = ctx.field
    count = 0
    for g in ctx.group(cap_group):
        formula = discrete.delta_value(g)
        traced = oracle.brute_delta_value(g, ctx=ctx)
        if traced != Cyclotomic.from_rational(field.p, formula):
            return False, f"rank formula wrong at {g!r}"
        count += 1
    return True, f"rank formula matches the trace at all {count} group elements"


def _check_delta_decomposition(ctx):
    n, field = ctx.n, ctx.field
    rows, cols, brute = ctx.table
    index = {t: r for r, t in enumerate(rows)}
    decomp = discrete.delta_decompose(n, field)
    for tau in rows:
        orbits = ctx.covering_left_orbits(tau)
        if orbits != decomp.terms.get(tau, 0):
            return False, (
                f"multiplicity of {tau.text()} is {decomp.terms.get(tau, 0)},"
                f" orbit count is {orbits}"
            )
        if (decomp.terms.get(tau, 0) > 0) == discrete.is_degenerate(tau):
            return False, f"degeneracy test disagrees with the multiplicity for {tau.text()}"
    for c, x in enumerate(cols):
        total = Cyclotomic.from_rational(field.p, 0)
        for tau, mult in decomp.terms.items():
            total = total + mult * brute[index[tau]][c]
        expected = discrete.delta_value(ctx.column(x))
        if total != Cyclotomic.from_rational(field.p, expected):
            return False, f"decomposition wrong at column {x.text()}"
    return True, (
        f"{len(decomp.terms)} non-degenerate terms, identity value {decomp.identity_value}"
    )


# The checks that draw from the rng, in the order they draw; with two lanes
# they run in the parent, so every sample is the one a single lane takes.
RNG_CHECKS = ("Thm6.2", "Thm3.5", "Thm8.6")


def _outcomes(lane):
    """Run each (key, check) of lane in turn and yield (key, passed, detail,
    traceback text) for it.  A check that hits a resource cap yields
    (key, None, the ResourceCapExceeded, "") and ends the lane."""
    for key, check in lane:
        tb, capped = "", None
        try:
            ok, detail = check()
        except InvariantViolation as exc:
            ok, detail = False, str(exc)
        except ResourceCapExceeded as exc:
            capped = exc
        except Exception as exc:  # a crashing fast path fails its check, not the run
            import traceback  # loaded only on this path, off the CLI's start-up

            ok, detail, tb = False, f"{type(exc).__name__}: {exc}", traceback.format_exc()
        if capped is not None:
            yield key, None, capped, ""
            return
        yield key, ok, detail, tb


def _run_here(lane, outcomes: dict):
    """Run lane in this process into outcomes[key] = (passed, detail), each
    traceback to stderr.  Returns (key, ResourceCapExceeded) of a cap that
    ended the lane, else None."""
    for key, ok, detail, tb in _outcomes(lane):
        if ok is None:
            return key, detail
        sys.stderr.write(tb)
        outcomes[key] = (ok, detail)
    return None


def run_verify(
    n: int,
    field: Field,
    cap_orbit: int = oracle.DEFAULT_MAX_SPACE,
    cap_group: int = oracle.DEFAULT_MAX_SPACE,
    cap_pairs: int = tensor.DEFAULT_MAX_PAIRS,
    sample_pairs: int = 200,
    seed: int = 0,
    jobs: int = 1,
) -> VerifyReport:
    """Run the full certification suite for one (n, q) over one oracle context.

    With jobs >= 2, where os.fork exists, the checks run in two lanes (see
    the module docstring); the report is the same for every jobs.
    """
    rng = random.Random(seed)
    ctx = oracle.OracleContext(n, field, cap_orbit)
    checks = [
        ("Thm5.1", lambda: _check_counting(n, field)),
        ("Thm4.1", lambda: _check_adjoint_classification(ctx)),
        ("Thm4.2", lambda: _check_coadjoint_classification(ctx)),
        ("Thm6.2", lambda: _check_sizes_and_degrees(ctx, cap_group, rng)),
        ("Thm3.5", lambda: _check_character_sum(ctx, rng)),
        ("A.1", lambda: _check_closed_formula(ctx)),
        ("A.2", lambda: _check_axioms(ctx)),
        ("Thm7.1", lambda: _check_primary_factorization(ctx)),
        ("Thm8.6", lambda: _check_tensor_ring(ctx, cap_pairs, sample_pairs, rng)),
        ("Thm9.1", lambda: _check_delta_value(ctx, cap_group)),
        ("Thm9.3", lambda: _check_delta_decomposition(ctx)),
    ]
    if jobs >= 2 and hasattr(os, "fork"):
        from . import lanes  # loaded only on this path, off the CLI's start-up

        lanes.warm_up(ctx, cap_group)
        outcomes = lanes.run_in_lanes(checks, RNG_CHECKS)
    else:
        outcomes = {}
        capped = _run_here(checks, outcomes)
        if capped is not None:
            raise capped[1]
    results = [VerifyCheck(key, *outcomes[key]) for key, _ in checks]
    return VerifyReport(n=n, p=field.p, k=field.k, checks=results)


def emit_golden(n: int, field: Field, cap: int = oracle.DEFAULT_MAX_SPACE) -> dict:
    """Oracle-derived reference data, for committing as golden files.

    Everything here comes from the brute routes, read from one oracle
    context: sizes from BFS partitions, table values from fixed-point
    traces, discrete-series multiplicities from orbit counts inside each
    row's cluster of the coadjoint partition.
    """
    ctx = oracle.OracleContext(n, field, cap)
    rows, cols, values = ctx.table
    dual_part, nil_part = ctx.coadjoint, ctx.adjoint
    dual_sizes = dict(zip(dual_part.representatives, dual_part.orbit_sizes()))
    nil_sizes = dict(zip(nil_part.representatives, nil_part.orbit_sizes()))
    identity_col = cols.index(Template(field, n, []))
    delta_terms = []
    delta_identity = 0
    for r, tau in enumerate(rows):
        orbits = ctx.covering_left_orbits(tau)
        if orbits:
            delta_terms.append({"template": tau.text(), "mult": orbits})
            delta_identity += orbits * values[r][identity_col].as_int()
    return {
        "n": n,
        "p": field.p,
        "k": field.k,
        "q": field.q,
        "bell": [str(clusters.bell_poly(m, field.q)) for m in range(n + 1)],
        "templates": [
            {
                "template": tau.text(),
                "cluster_size": dual_sizes[tau],
                "adjoint_cluster_size": nil_sizes[tau],
                "left_orbit_size": len(ctx.left_orbit(tau)),
            }
            for tau in rows
        ],
        "table": {
            "rows": [t.text() for t in rows],
            "cols": [t.text() for t in cols],
            "values": [[str(v) for v in row] for row in values],
        },
        "delta": {"identity_value": str(delta_identity), "terms": delta_terms},
    }


def write_golden(path: str, data: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2)
        fh.write("\n")
