"""Command-line front end.

Subcommands: count, clusters, table, tensor, discrete, verify.  The field
is given as --p P --k K (with --q Q accepted for prime q only, to keep the
modulus polynomial unambiguous).  Output is byte-stable for fixed inputs:
json (default machinery), csv for the tabular commands, text for reading.

Exit codes: 0 success, 2 usage, 3 resource cap, 4 a certified identity
failed on this input.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import dataclass, field as dataclass_field

from . import clusters, discrete, tensor, verify
from .characters import build_table
from .clusters import Template, bell_poly, enumerate_templates, invariants_of
from .errors import InvariantViolation, ResourceCapExceeded
from .gf import Field, field_make, is_prime

DEFAULT_CAPS = {
    "orbit": 2**20,   # points in an enumerated algebra/dual space
    "group": 2**20,   # group elements in brute sums
    "pairs": 2**24,   # cluster-pair products in the counting route
    "table": 5000,    # character table rows
    "q": 64,          # field size
}

CAPS_ENV = "SUPERCLUSTER_CAPS"


@dataclass
class RunConfig:
    n: int
    field: Field
    fmt: str = "text"
    seed: int = 0
    caps: dict = dataclass_field(default_factory=lambda: dict(DEFAULT_CAPS))


def _caps_from_env(caps: dict) -> dict:
    raw = os.environ.get(CAPS_ENV, "")
    for part in filter(None, (s.strip() for s in raw.split(","))):
        key, _, value = part.partition("=")
        if key not in caps or not value.isdigit():
            raise ValueError(f"bad {CAPS_ENV} entry {part!r}")
        caps[key] = int(value)
    return caps


def _add_common(sub: argparse.ArgumentParser, with_n: bool = True) -> None:
    if with_n:
        sub.add_argument("--n", type=int, required=True, help="matrix size n >= 1")
    sub.add_argument("--p", type=int, help="field characteristic (prime)")
    sub.add_argument("--k", type=int, default=1, help="extension degree (default 1)")
    sub.add_argument("--q", type=int, help="shorthand for a prime field of size q")
    sub.add_argument("--format", choices=["json", "csv", "text"], default="text")
    sub.add_argument("--jobs", type=int, default=os.cpu_count() or 1,
                     help="verify splits its checks over two processes when N >= 2;"
                          " every other command runs in one; output is the same for every N")
    sub.add_argument("--cap-orbit", type=int, help="max enumerated space size")
    sub.add_argument("--cap-group", type=int, help="max enumerated group size")
    sub.add_argument("--seed", type=int, default=0, help="seed for sampled verification")


def _config(parser: argparse.ArgumentParser, args: argparse.Namespace) -> RunConfig:
    """Validate the common options and build the field; a q over its cap
    raises ResourceCapExceeded."""
    if args.k < 1:
        parser.error("--k must be >= 1")
    if args.q is not None:
        if args.p is not None:
            parser.error("give either --q or --p/--k, not both")
        p, k = args.q, 1
    elif args.p is not None:
        p, k = args.p, args.k
    else:
        parser.error("a field is required: --q Q or --p P [--k K]")
    n = getattr(args, "n", 1)
    if n < 1:
        parser.error("--n must be >= 1")
    caps = dict(DEFAULT_CAPS)
    try:
        _caps_from_env(caps)
    except ValueError as exc:
        parser.error(str(exc))
    if args.cap_orbit is not None:
        caps["orbit"] = args.cap_orbit
    if args.cap_group is not None:
        caps["group"] = args.cap_group
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")
    # The cap comes before the primality test, whose trial division runs to
    # sqrt(p); with p >= 2, k >= cap.bit_length() puts p^k over the cap.
    if p >= 2 and (k >= caps["q"].bit_length() or p**k > caps["q"]):
        q = f"{p}^{k}" if k > 1 else p
        raise ResourceCapExceeded(f"q={q} exceeds the field size cap {caps['q']}")
    if not is_prime(p):
        if args.q is not None:
            parser.error(f"--q {p} is not prime; use --p and --k for extensions")
        parser.error(f"--p {p} is not prime")
    field = field_make(p, k, max_q=caps["q"])
    return RunConfig(n=n, field=field, fmt=args.format, seed=args.seed, caps=caps)


def _emit(text: str) -> None:
    sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _dump_json(data: dict) -> str:
    return json.dumps(data, indent=2)


# -- subcommand bodies --------------------------------------------------------

def _run_count(cfg: RunConfig) -> int:
    q = cfg.field.q
    values = [bell_poly(m, q) for m in range(cfg.n + 1)]
    if cfg.fmt == "json":
        _emit(_dump_json({"n": cfg.n, "q": q, "values": [str(v) for v in values]}))
    elif cfg.fmt == "csv":
        _emit("m,count\n" + "\n".join(f"{m},{v}" for m, v in enumerate(values)))
    else:
        _emit(" ".join(str(v) for v in values))
    return 0


def _cluster_rows(cfg: RunConfig) -> list[dict]:
    field = cfg.field
    rows = []
    for tau in enumerate_templates(cfg.n, field):
        inv = invariants_of(tau)
        rows.append({
            "template": tau.text(),
            "d": inv.d,
            "i": inv.i,
            "d_rows": list(inv.d_rows),
            "degree": str(field.q**inv.d),
            "selfint": str(field.q**inv.i),
            "size": str(clusters.cluster_size(tau)),
            "adjoint_size": str(clusters.adjoint_cluster_size(tau)),
        })
    return rows


def _run_clusters(cfg: RunConfig) -> int:
    rows = _cluster_rows(cfg)
    if cfg.fmt == "json":
        _emit(_dump_json({"n": cfg.n, "q": cfg.field.q, "templates": rows}))
    elif cfg.fmt == "csv":
        head = ["template", "d", "i", "degree", "selfint", "size", "adjoint_size"]
        lines = [",".join(head)]
        for r in rows:
            lines.append(",".join(f'"{r[h]}"' if h == "template" else str(r[h]) for h in head))
        _emit("\n".join(lines))
    else:
        for r in rows:
            _emit(
                f"{r['template']:<24} d={r['d']} i={r['i']} degree={r['degree']}"
                f" selfint={r['selfint']} size={r['size']} adjoint_size={r['adjoint_size']}"
            )
    return 0


def _run_table(cfg: RunConfig) -> int:
    table = build_table(cfg.n, cfg.field, max_rows=cfg.caps["table"])
    if cfg.fmt == "json":
        _emit(table.to_json_text())
    elif cfg.fmt == "csv":
        _emit(table.to_csv())
    else:
        _emit(table.to_text())
    return 0


def _parse_factor(field: Field, n: int, raw: str) -> tuple[int, int, object]:
    """One --factor i,j,a with 1 <= i < j <= n; ValueError otherwise."""
    try:
        i, j, a = raw.split(",", 2)
        i, j, a = int(i), int(j), field.parse(a)
    except ValueError as exc:
        raise ValueError(f"bad --factor {raw!r}; expected i,j,a") from exc
    if not (1 <= i < j <= n):
        raise ValueError(f"bad --factor {raw!r}; need 1 <= i < j <= {n}")
    return i, j, a


def _run_tensor(cfg: RunConfig, cells: list[tuple], check: bool) -> int:
    field = cfg.field
    result = tensor.tensor_rewrite(field, cfg.n, cells)
    if check:
        counted = tensor.fold_by_counting(field, cfg.n, cells, cfg.caps["pairs"])
        if counted != result:
            raise InvariantViolation(
                f"counting route gives {counted!r}, rewrite gives {result!r}"
            )
    if cfg.fmt == "json":
        _emit(_dump_json(result.to_json()))
    else:
        for tau, mult in result.items():
            _emit(f"{mult} x {tau.text()}")
        _emit(f"total_degree {result.total_degree}")
    return 0


def _run_discrete(cfg: RunConfig) -> int:
    decomp = discrete.delta_decompose(cfg.n, cfg.field)
    if cfg.fmt == "json":
        _emit(_dump_json(decomp.to_json()))
    else:
        _emit(f"identity_value {decomp.identity_value}")
        for tau, mult in decomp.items():
            _emit(f"{mult} x {tau.text()}")
    return 0


def _run_verify(cfg: RunConfig, sample_pairs: int, emit_golden: str | None, jobs: int) -> int:
    field = cfg.field
    report = verify.run_verify(
        cfg.n,
        field,
        cap_orbit=cfg.caps["orbit"],
        cap_group=cfg.caps["group"],
        cap_pairs=cfg.caps["pairs"],
        sample_pairs=sample_pairs,
        seed=cfg.seed,
        jobs=jobs,
    )
    if emit_golden:
        verify.write_golden(emit_golden, verify.emit_golden(cfg.n, field, cfg.caps["orbit"]))
    if cfg.fmt == "json":
        _emit(_dump_json(report.to_json()))
    else:
        for check in report.checks:
            _emit(f"{check.key} {'PASS' if check.passed else 'FAIL'} {check.detail}")
        _emit(f"overall {'PASS' if report.passed else 'FAIL'}")
    return 0 if report.passed else 4


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and reused by every main()."""
    parser = argparse.ArgumentParser(
        prog="supercluster",
        description="Exact cluster/supercharacter engine for the unipotent triangular groups",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_count = sub.add_parser("count", help="print the template counts B(0..n, q)")
    _add_common(p_count)

    p_clusters = sub.add_parser("clusters", help="list templates with d, i, sizes, degrees")
    _add_common(p_clusters)

    p_table = sub.add_parser("table", help="emit the full supercharacter table")
    _add_common(p_table)

    p_tensor = sub.add_parser("tensor", help="decompose a tensor product of primary factors")
    _add_common(p_tensor)
    p_tensor.add_argument("--factor", action="append", required=True, metavar="i,j,a",
                          help="primary factor (repeatable)")
    p_tensor.add_argument("--check", action="store_true",
                          help="also certify via the counting route")

    p_discrete = sub.add_parser("discrete", help="decompose the discrete-series character")
    _add_common(p_discrete)

    p_verify = sub.add_parser("verify", help="run the certification suite for (n, q)")
    _add_common(p_verify)
    p_verify.add_argument("--sample-pairs", type=int, default=200,
                          help="tensor pairs to sample when exhaustion is too big")
    p_verify.add_argument("--emit-golden", metavar="PATH",
                          help="write oracle-derived golden data to PATH")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command in ("tensor", "discrete", "verify") and args.format == "csv":
        parser.error(f"{args.command} has no csv format")
    try:
        cfg = _config(parser, args)
        if args.command == "count":
            return _run_count(cfg)
        if args.command == "clusters":
            return _run_clusters(cfg)
        if args.command == "table":
            return _run_table(cfg)
        if args.command == "tensor":
            try:
                cells = [_parse_factor(cfg.field, cfg.n, raw) for raw in args.factor]
            except ValueError as exc:
                parser.error(str(exc))
            return _run_tensor(cfg, cells, args.check)
        if args.command == "discrete":
            return _run_discrete(cfg)
        if args.command == "verify":
            return _run_verify(cfg, args.sample_pairs, args.emit_golden, args.jobs)
    except ResourceCapExceeded as exc:
        print(f"resource cap exceeded: {exc}", file=sys.stderr)
        return 3
    except InvariantViolation as exc:
        print(f"THEOREM FALSIFIED: {exc}", file=sys.stderr)
        return 4
    raise AssertionError("unreachable")


if __name__ == "__main__":
    raise SystemExit(main())
