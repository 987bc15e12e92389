"""The certification suite: every fast-path result against the brute oracle.

Each check pits one certified identity against explicit enumeration for a
single (n, q) and yields one pass/fail line.  Exhaustive wherever the space
allows; seeded sampling takes over only where pair counts explode, and the
sample size is part of the reported detail.  A falsified identity is
reported as a failure (the CLI turns it into exit code 4) rather than
raising out of the run.

run_verify makes one oracle.OracleContext per run and hands it to every
check that reads the oracle, so the adjoint and coadjoint partitions, the
enumerations taken from their point lists, the column group elements and
the brute table are built once and dropped when the run ends; Thm9.1
traces every group element over the context's one row trie.  Thm9.3
and emit_golden read each row's cluster from the coadjoint partition
instead of walking it again.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

from . import clusters, discrete, oracle, tensor
from .characters import build_table, char_value_closed, char_value_sum, verify_axioms
from .clusters import Template
from .core import UniMatrix, act_left, act_right, coact_left, coact_right, fixes_left, positions
from .cyclotomic import Cyclotomic
from .errors import InvariantViolation
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


def _check_adjoint_classification(ctx):
    n, part = ctx.n, ctx.adjoint
    for x in part.points:
        t, g, h = clusters.adjoint_template_of(x)
        if t != part.representatives[part.orbit_of(x)]:
            return False, f"sweep template of {x!r} disagrees with its orbit's rook point"
        if clusters.template_of_matrix(act_right(act_left(g, x), h)) != t:
            return False, f"witnesses for {x!r} do not reproduce the template"
    for members in part.members():
        base = None
        for x in members:
            ranks = tuple(clusters.rank_invariant(i, j, x) for (i, j) in positions(n))
            if base is None:
                base = ranks
            elif ranks != base:
                return False, "window ranks vary inside an adjoint cluster"
    return True, f"{len(part.representatives)} adjoint clusters over {len(part.points)} points"


def _check_coadjoint_classification(ctx):
    n, part = ctx.n, ctx.coadjoint
    for lam in part.points:
        t, g, h = clusters.coadjoint_template_of(lam)
        if t != part.representatives[part.orbit_of(lam)]:
            return False, f"sweep template of {lam!r} disagrees with its orbit's rook point"
        if clusters.template_of_functional(coact_left(g, coact_right(lam, h))) != t:
            return False, f"witnesses for {lam!r} do not reproduce the template"
    for rep, members in zip(part.representatives, part.members()):
        inv = clusters.invariants_of(rep)
        base = None
        for lam in members:
            ranks = tuple(clusters.rank_invariant_dual(i, j, lam) for (i, j) in positions(n))
            if base is None:
                base = ranks
            elif ranks != base:
                return False, "window ranks vary inside a coadjoint cluster"
            if (
                clusters.lhat_dim(lam) != inv.d
                or clusters.rhat_dim(lam) != inv.d
                or clusters.intersection_dim(lam) != inv.i
            ):
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
    part = ctx.adjoint
    sample_rows = rows if len(rows) <= 12 else rng.sample(rows, 12)
    for rep, members in zip(part.representatives, part.members()):
        picks = members if len(members) <= 3 else rng.sample(members, 3)
        for tau in sample_rows:
            base = char_value_sum(tau, ctx.column(rep))
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
        g = ctx.column(x)
        for lam in ctx.dual:
            direct = fixes_left(g, lam)
            if direct != oracle.fixed_by_template_action(lam, g.off):
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
    cluster_of = dict(zip(ctx.coadjoint.representatives, ctx.coadjoint.members()))
    for tau in rows:
        pool = {lam for lam in cluster_of[tau] if discrete.in_delta(lam)}
        orbits = 0
        while pool:
            orbit = oracle.bfs_left_orbit(next(iter(pool)))
            if not orbit <= pool:
                return False, f"row-covering part of {tau.text()}'s cluster is not left-closed"
            pool -= orbit
            orbits += 1
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


def run_verify(
    n: int,
    field: Field,
    cap_orbit: int = oracle.DEFAULT_MAX_SPACE,
    cap_group: int = oracle.DEFAULT_MAX_SPACE,
    cap_pairs: int = tensor.DEFAULT_MAX_PAIRS,
    sample_pairs: int = 200,
    seed: int = 0,
) -> VerifyReport:
    """Run the full certification suite for one (n, q) over one oracle context."""
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
    results = []
    for key, fn in checks:
        try:
            ok, detail = fn()
        except InvariantViolation as exc:
            ok, detail = False, str(exc)
        results.append(VerifyCheck(key=key, passed=ok, detail=detail))
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
    cluster_of = dict(zip(dual_part.representatives, dual_part.members()))
    identity_col = cols.index(Template(field, n, []))
    delta_terms = []
    delta_identity = 0
    for r, tau in enumerate(rows):
        pool = {lam for lam in cluster_of[tau] if discrete.in_delta(lam)}
        orbits = 0
        while pool:
            pool -= oracle.bfs_left_orbit(next(iter(pool)))
            orbits += 1
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
