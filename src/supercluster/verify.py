"""The certification suite: every fast-path result against the brute oracle.

Each check pits one certified identity against explicit enumeration for a
single (n, q) and yields one pass/fail line.  Exhaustive wherever the space
allows; seeded sampling takes over only where pair counts explode, and the
sample size is part of the reported detail.  A falsified identity is
reported as a failure (the CLI turns it into exit code 4) rather than
raising out of the run, and so is any other exception a check raises, as
"<type>: <text>" with its traceback on stderr; only ResourceCapExceeded
ends the run (exit 3).  Two caps are met before any check: the algebra,
its dual and the group all have q^(n(n-1)/2) points, which the oracle
context checks against cap_orbit when it is made, and the table's B(n, q)
rows are checked against cap_table.

run_verify makes one oracle.OracleContext per run and hands it to every
check that reads the oracle, since every oracle entry point that reads a
whole space takes one: the adjoint and coadjoint partitions (orbit ids and
codes; each check decodes the points it reads), the column group elements,
the brute table and its projection data are built once and dropped when the
run ends.  Thm7.1 (a row against its primary factors) and Thm8.6 (a
product against its decomposition) ask oracle.product_mismatch for the
first column where brute rows disagree, and Thm9.3 (the discrete series
against its decomposition) asks oracle.sum_mismatch; Thm8.6 also
decomposes its deep pairs by projecting onto the brute rows, and Thm9.1
reads the trace of every group element, in code order, from
oracle.brute_delta_values, one walk of the group over the trace masks of
the row-covering functionals, the same trace as a brute character value.
A.1 holds build_table's table to the brute table at every cell (a template
missing from it fails by name) and asks the context for a functional on
which the support criterion and the fixed-point test disagree.  Thm9.3
and emit_golden count the left orbits in the row-covering part of each
row's cluster with the context, which reads the cluster from the
coadjoint partition instead of walking it again.  Thm6.2 holds the self-intertwining number q^i of each row to
oracle.brute_inner, the pairing of its brute character with itself over
every group element.

Thm3.5 holds characters.char_value_sum to the brute table at every cell
and on sampled members of each conjugacy cluster.  That route sums the
cluster by its q^(d-i) left orbits mu + L-hat(mu): by the orthogonality of
the additive character an orbit adds q^d * theta[mu(x)] when L-hat(mu)
kills x and nothing otherwise.  It leans on L-hat, which Thm4.2 checks
point by point (dim L-hat = d on every point of the cluster), and on the
left-orbit sizes q^d, which Thm6.2 checks against the oracle's left
orbits; test_oracle::test_binned_traces_equal_summed_roots_of_unity and
test_clusters::test_left_orbits_split_the_cluster hold it to the explicit
sum of theta over the cluster, read from packed.Codes.closure.  Thm4.1 and
Thm4.2 each make one pass over their space in code order, decoding each
point once into its point and its index rows: they run the sweep's core on
a copy of the rows, which checks its own witnesses through core's actions
on the point and raises, naming the point, when they miss its template;
they require the template's cells to be the point's own orbit's rook
cells, and hold the point's window ranks (and, in Thm4.2, its dimensions
of L-hat, R-hat and their intersection), each stepped row by row from its
rows with each row prefix shared by the points under it (WindowRanks,
HatDims), to its orbit's values.

Every check runs in _outcomes, which yields its outcome (passed, detail,
traceback text, with passed None for a cap, which ends the lane), and
every run is reported by _report, which walks the checks in their order:
it writes each traceback to stderr, raises the first cap and fails a check
with no outcome.  jobs = 1 runs every check in the calling process.  No
check reads another's result, so with jobs >= 2 (and os.fork) the checks
run in two fixed lanes (supercluster.lanes).  Lane A, in the calling
process, holds PARENT_CHECKS in their usual order: the only checks that
draw from the run's one random.Random(seed), RNG_CHECKS, so every sample
is the one a single lane takes, and A.1 and Thm9.1, which draw nothing and
shorten lane B (PARENT_CHECKS has the timings).  Lane B, the other six,
runs in one forked child.  Each lane stops at its first cap,
so the first cap in check order is the one a single lane meets, and the
report, the stderr and the exit are the same for every jobs.  The engine
starts no thread; fork copies only the calling thread, so a caller
running threads of its own passes jobs = 1.
"""

from __future__ import annotations

import json
import os
import random
import sys

from . import clusters, discrete, oracle, tensor
from .characters import DEFAULT_MAX_TABLE, build_table, char_value_sum, verify_axioms
from .clusters import Template
from .core import UniMatrix, positions
from .cyclotomic import Cyclotomic
from .errors import InvariantViolation, ResourceCapExceeded
from .gf import Field

EXHAUSTIVE_PAIR_LIMIT = 240
# Thm8.6's pairs when the table has more than EXHAUSTIVE_PAIR_LIMIT of them
SAMPLE_PAIRS = 200


class VerifyCheck:
    def __init__(self, key: str, passed: bool, detail: str):
        self.key, self.passed, self.detail = key, passed, detail

    def __eq__(self, other):
        return vars(self) == vars(other) if other.__class__ is self.__class__ else NotImplemented


class VerifyReport:
    def __init__(self, n: int, p: int, k: int, checks: list[VerifyCheck]):
        self.n, self.p, self.k, self.checks = n, p, k, checks

    def __eq__(self, other):
        return vars(self) == vars(other) if other.__class__ is self.__class__ else NotImplemented

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


# Thm4.1 and Thm4.2 report the first sweep failure in code order (a sweep
# raises InvariantViolation, naming the point, on witnesses that miss its
# template), else the first per-orbit mismatch in orbit order: first holds
# the smallest (orbit id, text), so only a point of an earlier orbit is tested.

def _rook_cells(rep):
    """The (i, j, index) cells of a template, as a sweep returns them."""
    return tuple((i, j, v.index) for i, j, v in rep.cells)


def _check_adjoint_classification(ctx):
    part = ctx.adjoint
    reps = part.representatives
    rooks = [_rook_cells(rep) for rep in reps]
    cells = [_cells_per_window(rep, lambda i, j, k, l: i <= k and l <= j) for rep in reps]
    names = [rep.text() for rep in reps]
    ranks = clusters.WindowRanks(ctx.field, ctx.n, "adjoint")
    first = len(reps), ""
    for code, oid in enumerate(part.ids):
        x, rows = ctx.codes.decode("adjoint", code)
        if clusters._adjoint_sweep(x, [list(row) for row in rows])[0] != rooks[oid]:
            return False, f"sweep template of {x!r} disagrees with its orbit's rook point"
        if oid < first[0] and ranks(rows) != cells[oid]:
            first = oid, f"window ranks of {x!r} differ from the cell counts of {names[oid]}"
    if first[1]:
        return False, first[1]
    return True, f"{len(reps)} adjoint clusters over {len(part.ids)} points"


def _check_coadjoint_classification(ctx):
    part = ctx.coadjoint
    reps = part.representatives
    rooks = [_rook_cells(rep) for rep in reps]
    cells = [_cells_per_window(rep, lambda i, j, k, l: k <= i and j <= l) for rep in reps]
    dims = [(inv.d, inv.d, inv.i) for inv in map(clusters.invariants_of, reps)]
    names = [rep.text() for rep in reps]
    ranks = clusters.WindowRanks(ctx.field, ctx.n, "coadjoint")
    hat_dims = clusters.HatDims(ctx.field, ctx.n)
    first = len(reps), ""
    for code, oid in enumerate(part.ids):
        lam, rows = ctx.codes.decode("coadjoint", code)
        if clusters._coadjoint_sweep(lam, [list(row) for row in rows])[0] != rooks[oid]:
            return False, f"sweep template of {lam!r} disagrees with its orbit's rook point"
        if oid >= first[0]:
            continue
        if ranks(rows) != cells[oid]:
            first = oid, f"window ranks of {lam!r} differ from the cell counts of {names[oid]}"
        elif hat_dims(rows) != dims[oid]:
            first = oid, f"orbit-space dimensions vary inside the cluster of {names[oid]}"
    if first[1]:
        return False, first[1]
    return True, f"{len(reps)} coadjoint clusters over {len(part.ids)} points"


def _check_sizes_and_degrees(ctx, rng):
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
        left = ctx.left_orbit_size(rep)
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
        norm = oracle.brute_inner(tau, tau, ctx)
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
    for rep, codes in zip(part.representatives, part.orbit_codes):
        picks = codes if len(codes) <= 3 else rng.sample(codes, 3)
        picks = [UniMatrix(ctx.codes.point("adjoint", c)) for c in picks]
        for tau in sample_rows:
            base = brute[index[tau]][col_index[rep]]
            for g in picks:
                if char_value_sum(tau, g) != base:
                    return False, (
                        f"character of {tau.text()} varies inside the conjugacy"
                        f" cluster of {rep.text()}"
                    )
    return True, f"cluster-sum route matches the trace on all {len(rows)}x{len(cols)} cells"


def _check_closed_formula(ctx, cap_table):
    rows, cols, brute = ctx.table
    table = build_table(ctx.n, ctx.field, cap_table)
    for r, tau in enumerate(rows):
        for c, x in enumerate(cols):
            try:
                value = table.value(tau, x)
            except ValueError as exc:
                return False, f"closed-form table: {exc}"
            if value != brute[r][c]:
                return False, f"closed form differs at ({tau.text()}, {x.text()})"
    for x in cols:
        lam = ctx.criterion_counterexample(x)
        if lam is not None:
            return False, f"support criterion wrong for ({lam!r}, {x.text()})"
    return True, f"closed form equals the trace on all {len(rows)}x{len(cols)} cells"


def _check_axioms(ctx, cap_table):
    table = build_table(ctx.n, ctx.field, cap_table)
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
    rows = ctx.table[0]
    for tau in rows:
        rewritten = tensor.tensor_rewrite(field, n, tau.cells)
        if rewritten.terms != {tau: 1}:
            return False, f"rewrite of the primary factors of {tau.text()} is {rewritten!r}"
        primaries = [Template(field, n, [cell]) for cell in tau.cells]
        if oracle.product_mismatch(ctx, {tau: 1}, primaries) is not None:
            return False, f"primary factors of {tau.text()} do not multiply to it"
    return True, f"all {len(rows)} characters factor through their primary cells"


def _check_tensor_ring(ctx, pair_cap, rng):
    n, field = ctx.n, ctx.field
    rows = ctx.table[0]
    all_pairs = [(t1, t2) for t1 in rows for t2 in rows]
    if len(all_pairs) <= EXHAUSTIVE_PAIR_LIMIT:
        pairs = all_pairs
        deep_pairs = pairs
        mode = f"all {len(pairs)} pairs"
    else:
        pairs = [(rng.choice(rows), rng.choice(rows)) for _ in range(SAMPLE_PAIRS)]
        deep_pairs = pairs[: max(10, SAMPLE_PAIRS // 16)]
        mode = f"{len(pairs)} sampled pairs ({len(deep_pairs)} via the counting route)"
    # Each ordered pair's rewrite is built once, in the order the loops
    # first ask for it.  The sampled and deep loops keep theirs; the
    # trivial-multiplicity loop reads each pair once, so it keeps nothing.
    products = {}

    def product(t1, t2):
        got = products.get((t1, t2))
        if got is None:
            got = products[t1, t2] = tensor.tensor_product(t1, t2)
        return got

    for t1, t2 in pairs:
        got = product(t1, t2)
        d1 = field.q ** clusters.invariants_of(t1).d
        d2 = field.q ** clusters.invariants_of(t2).d
        if got.total_degree != d1 * d2:
            return False, f"degree not conserved for [{t1.text()}] x [{t2.text()}]"
        if got != product(t2, t1):
            return False, f"product not symmetric for [{t1.text()}] x [{t2.text()}]"
        x = oracle.product_mismatch(ctx, got.terms, (t1, t2))
        if x is not None:
            return False, (
                f"pointwise product mismatch for [{t1.text()}] x [{t2.text()}]"
                f" at column {x.text()}"
            )
    for t1, t2 in deep_pairs:
        counted = tensor.tensor_by_counting(t1, t2, pair_cap)
        if counted != product(t1, t2):
            return False, f"counting route differs for [{t1.text()}] x [{t2.text()}]"
        if oracle.brute_tensor(t1, t2, ctx) != counted:
            return False, f"brute solve differs for [{t1.text()}] x [{t2.text()}]"
    for t1 in rows:
        minus = Template(field, n, [(i, j, -v) for (i, j, v) in t1.cells])
        trivial = Template(field, n, [])
        for t2 in rows:
            got = products.get((t1, t2))
            if got is None:
                got = tensor.tensor_product(t1, t2)
            mult = got.terms.get(trivial, 0)
            expected = field.q ** clusters.invariants_of(t1).i if t2 == minus else 0
            if mult != expected:
                return False, (
                    f"trivial multiplicity in [{t1.text()}] x [{t2.text()}] is {mult},"
                    f" expected {expected}"
                )
    return True, f"rewrite, counting and brute routes agree on {mode}"


def _check_delta_value(ctx):
    codes = ctx.codes
    for c, traced in enumerate(oracle.brute_delta_values(ctx)):
        g = UniMatrix(codes.point("adjoint", c))
        formula = discrete.delta_value(g)
        if traced != Cyclotomic.from_rational(ctx.field.p, formula):
            return False, f"rank formula wrong at {g!r}"
    return True, f"rank formula matches the trace at all {codes.size} group elements"


def _check_delta_decomposition(ctx):
    n, field = ctx.n, ctx.field
    rows, cols, _ = ctx.table
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
    target = [[discrete.delta_value(ctx.column(x)) for x in cols]]
    target += [[0] * len(cols) for _ in range(field.p - 1)]
    x = oracle.sum_mismatch(ctx, decomp.terms, target)
    if x is not None:
        return False, f"decomposition wrong at column {x.text()}"
    return True, (
        f"{len(decomp.terms)} non-degenerate terms, identity value {decomp.identity_value}"
    )


# The checks that draw from the rng, in the order they draw; with two lanes
# they run in the parent, so every sample is the one a single lane takes.
RNG_CHECKS = ("Thm6.2", "Thm3.5", "Thm8.6")
# Lane A: the rng checks, and A.1 and Thm9.1, which draw nothing.  Summed
# one-lane seconds, lane A / B, medians of seven runs at (5,2) and three at
# (6,2) on a 2-vCPU host: 0.118 / 0.111 at (5,2), 2.50 / 4.50 at (6,2).
# Thm9.1 in lane B would make (5,2)'s longer lane longer; A.2 in lane A
# moved certify's two cases by less than their spread over thirty pairs,
# and at (3,3) lane A is already six times lane B; at (6,2) Thm4.1 and
# Thm4.2 keep lane B the longer.
PARENT_CHECKS = RNG_CHECKS + ("A.1", "Thm9.1")


def _outcomes(lane):
    """Run each (key, check) of lane in turn and yield (key, (passed,
    detail, traceback text)) for it.  A check that hits a resource cap
    yields (key, (None, the cap's text, "")) and ends the lane."""
    for key, check in lane:
        tb = ""
        try:
            ok, detail = check()
        except InvariantViolation as exc:
            ok, detail = False, str(exc)
        except ResourceCapExceeded as exc:
            ok, detail = None, str(exc)
        except Exception as exc:  # a crashing fast path fails its check, not the run
            import traceback  # loaded only when a check crashes

            ok, detail, tb = False, f"{type(exc).__name__}: {exc}", traceback.format_exc()
        yield key, (ok, detail, tb)
        if ok is None:
            return


def _report(checks, outcomes: dict, missing: str) -> list[VerifyCheck]:
    """One VerifyCheck per (key, check) of checks, in their order, from
    outcomes[key] = (passed, detail, traceback text): each traceback goes
    to stderr, the first cap (passed None) is raised, and a check with no
    outcome fails with the text missing."""
    results = []
    for key, _ in checks:
        ok, detail, tb = outcomes.get(key, (False, missing, ""))
        if ok is None:
            raise ResourceCapExceeded(detail)
        sys.stderr.write(tb)
        results.append(VerifyCheck(key, ok, detail))
    return results


def run_verify(
    n: int,
    field: Field,
    cap_orbit: int = oracle.DEFAULT_MAX_SPACE,
    cap_pairs: int = tensor.DEFAULT_MAX_PAIRS,
    seed: int = 0,
    jobs: int = 1,
    cap_table: int = DEFAULT_MAX_TABLE,
) -> VerifyReport:
    """Run the full certification suite for one (n, q) over one oracle context.

    With jobs >= 2, where os.fork exists, the checks run in two lanes (see
    the module docstring); the report is the same for every jobs.  A space
    larger than cap_orbit, or a table of more than cap_table rows, raises
    ResourceCapExceeded before any check runs.
    """
    rng = random.Random(seed)
    ctx = oracle.OracleContext(n, field, cap_orbit)
    rows = clusters.bell_poly(n, field.q)
    if rows > cap_table:
        raise ResourceCapExceeded(f"table would have {rows} rows, cap is {cap_table}")
    checks = [
        ("Thm5.1", lambda: _check_counting(n, field)),
        ("Thm4.1", lambda: _check_adjoint_classification(ctx)),
        ("Thm4.2", lambda: _check_coadjoint_classification(ctx)),
        ("Thm6.2", lambda: _check_sizes_and_degrees(ctx, rng)),
        ("Thm3.5", lambda: _check_character_sum(ctx, rng)),
        ("A.1", lambda: _check_closed_formula(ctx, cap_table)),
        ("A.2", lambda: _check_axioms(ctx, cap_table)),
        ("Thm7.1", lambda: _check_primary_factorization(ctx)),
        ("Thm8.6", lambda: _check_tensor_ring(ctx, cap_pairs, rng)),
        ("Thm9.1", lambda: _check_delta_value(ctx)),
        ("Thm9.3", lambda: _check_delta_decomposition(ctx)),
    ]
    if jobs >= 2 and hasattr(os, "fork"):
        from . import lanes  # loaded only when the checks run in two lanes

        results = lanes.run_in_lanes(ctx, checks, PARENT_CHECKS)
    else:
        results = _report(checks, dict(_outcomes(checks)), "check did not run")
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
        "bell": [str(b) for b in clusters.bell_polys(n, field.q)],
        "templates": [
            {
                "template": tau.text(),
                "cluster_size": dual_sizes[tau],
                "adjoint_cluster_size": nil_sizes[tau],
                "left_orbit_size": ctx.left_orbit_size(tau),
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
