"""Command-line front end.

Subcommands: count, clusters, table, tensor, discrete, verify.  The field
is given as --p P --k K (with --q Q accepted for prime q only, to keep the
modulus polynomial unambiguous).  Output is byte-stable for fixed inputs:
json (default machinery), csv for the tabular commands, text for reading.

Each command's options are one table (COMMANDS), from which both readers
of the command line are built.  A plain argv is read in one linear pass
(read_plain): the command, then only that command's exact long options,
each as `--opt value` with a value that does not start with "-" (`--factor`
repeatable, every other value option at most once), flags bare, every
required option given, every int readable by int() and every choice in
its list.  Every other argv goes to argparse (build_parser): help,
`--opt=value`, abbreviations, negative values and every usage error.  On
a plain argv both give the same Namespace, so argparse is the reference
and the only source of help and usage messages.

Exit codes: 0 success, 2 usage, 3 resource cap, 4 a certified identity
failed on this input.
"""

from __future__ import annotations

import argparse
import functools
import importlib.util
import json
import os
import sys
from typing import NoReturn

from . import clusters, discrete, tensor
from .characters import DEFAULT_MAX_TABLE, build_table
from .clusters import bell_polys, enumerate_templates, invariants_of
from .errors import DEFAULT_MAX_SPACE, InvariantViolation, ResourceCapExceeded
from .errors import int_str_limit_exceeded
from .gf import DEFAULT_MAX_Q, Field, field_make, is_prime


def _lazy(name: str):
    """supercluster.<name>, in sys.modules and on the package from now on,
    as perfbench's tracer needs, but compiled and run only on its first
    attribute access (importlib.util.LazyLoader); a module already imported
    is returned as it is."""
    fullname = f"{__package__}.{name}"
    module = sys.modules.get(fullname)
    if module is None:
        spec = importlib.util.find_spec(fullname)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[fullname] = module
        spec.loader.exec_module(module)
        setattr(sys.modules[__package__], name, module)
    return module


# Only the verify command runs these two (and packed and lanes, which they
# import); cli never reads oracle, but the tracer looks it up by name.
_lazy("oracle")
verify = _lazy("verify")

DEFAULT_CAPS = {
    "orbit": DEFAULT_MAX_SPACE,         # points in the algebra, in its dual and in the group
    "pairs": tensor.DEFAULT_MAX_PAIRS,  # cluster-pair products in the counting route
    "table": DEFAULT_MAX_TABLE,         # templates: the table's rows in table and verify,
                                        # and those clusters and discrete walk
    "q": DEFAULT_MAX_Q,                 # field size
}

CAPS_ENV = "SUPERCLUSTER_CAPS"


class RunConfig:
    def __init__(self, n: int, field: Field, fmt: str = "text", caps: dict | None = None):
        self.n, self.field, self.fmt = n, field, fmt
        self.caps = dict(DEFAULT_CAPS) if caps is None else caps  # a fresh dict each


def _caps_from_env(caps: dict) -> dict:
    raw = os.environ.get(CAPS_ENV, "")
    for part in filter(None, (s.strip() for s in raw.split(","))):
        key, _, value = part.partition("=")
        if key not in caps or not value.isdigit():
            raise ValueError(f"bad {CAPS_ENV} entry {part!r}")
        caps[key] = int(value)
    return caps


class Option:
    """One long option of a command.  kind is "int", "str", "choice" (one
    of choices), "append" (repeatable, the values in a list) or "flag"
    (bare, True when given); dest is the flag's name with "-" as "_"."""

    __slots__ = ("flag", "dest", "kind", "default", "required", "choices", "metavar", "help")

    def __init__(self, flag: str, kind: str, default=None, required: bool = False,
                 choices: tuple = (), metavar: str | None = None, help: str | None = None):
        self.flag, self.dest, self.kind = flag, flag[2:].replace("-", "_"), kind
        self.default, self.required, self.choices = default, required, choices
        self.metavar, self.help = metavar, help


def _common(formats=("json", "text")) -> tuple[Option, ...]:
    """The options every command reads; formats has csv where the command writes it."""
    return (
        Option("--n", "int", required=True, help="matrix size n >= 1"),
        Option("--p", "int", help="field characteristic (prime)"),
        Option("--k", "int", default=1, help="extension degree (default 1)"),
        Option("--q", "int", help="shorthand for a prime field of size q"),
        Option("--format", "choice", default="text", choices=formats),
        Option("--jobs", "int", default=os.cpu_count() or 1,
               help="verify splits its checks over two processes when N >= 2;"
                    " every other command runs in one; output is the same for every N"),
    )


_TABULAR = ("json", "csv", "text")

# command -> (help, options), in the order argparse lists them
COMMANDS = {
    "count": ("print the template counts B(0..n, q)", _common(_TABULAR)),
    "clusters": ("list templates with d, i, sizes, degrees", _common(_TABULAR)),
    "table": ("emit the full supercharacter table", _common(_TABULAR)),
    "tensor": ("decompose a tensor product of primary factors", _common() + (
        Option("--factor", "append", required=True, metavar="i,j,a",
               help="primary factor (repeatable)"),
        Option("--check", "flag", default=False,
               help="also certify via the counting route"),
    )),
    "discrete": ("decompose the discrete-series character", _common()),
    "verify": ("run the certification suite for (n, q)", _common() + (
        Option("--seed", "int", default=0, help="seed for sampled verification"),
        Option("--emit-golden", "str", metavar="PATH",
               help="write oracle-derived golden data to PATH"),
    )),
}

# what each kind adds to argparse's add_argument
_ARGPARSE_KIND = {
    "int": {"type": int},
    "str": {},
    "choice": {},
    "append": {"action": "append"},
    "flag": {"action": "store_true"},
}

# command -> flag -> Option, for read_plain
_FLAGS = {name: {opt.flag: opt for opt in opts} for name, (_, opts) in COMMANDS.items()}


def read_plain(argv: list[str]) -> argparse.Namespace | None:
    """The Namespace build_parser() returns for a plain argv (see the module
    docstring), read in one pass; None for any other argv."""
    if not argv or argv[0] not in _FLAGS:
        return None
    options = _FLAGS[argv[0]]
    values: dict = {}
    rest = iter(argv[1:])
    for token in rest:
        opt = options.get(token)
        if opt is None:
            return None
        kind, dest = opt.kind, opt.dest
        if kind == "flag":
            if dest in values:
                return None
            values[dest] = True
            continue
        raw = next(rest, "-")  # a missing value declines as a "-" would
        if raw.startswith("-"):
            return None
        if kind == "append":
            if dest in values:
                values[dest].append(raw)
            else:
                values[dest] = [raw]
            continue
        if dest in values:
            return None
        if kind == "int":
            try:
                raw = int(raw)
            except ValueError:
                return None
        elif kind == "choice" and raw not in opt.choices:
            return None
        values[dest] = raw
    for opt in options.values():
        if opt.dest not in values:
            if opt.required:
                return None
            values[opt.dest] = opt.default
    return argparse.Namespace(command=argv[0], **values)


def _usage_error(message: str) -> NoReturn:
    """argparse's usage error: the usage line and message on stderr, exit 2."""
    build_parser().error(message)


def _config(args: argparse.Namespace) -> RunConfig:
    """Validate the common options and build the field; a q over its cap
    raises ResourceCapExceeded."""
    if args.k < 1:
        _usage_error("--k must be >= 1")
    if args.q is not None:
        if args.p is not None:
            _usage_error("give either --q or --p/--k, not both")
        p, k = args.q, 1
    elif args.p is not None:
        p, k = args.p, args.k
    else:
        _usage_error("a field is required: --q Q or --p P [--k K]")
    n = args.n
    if n < 1:
        _usage_error("--n must be >= 1")
    caps = dict(DEFAULT_CAPS)
    try:
        _caps_from_env(caps)
    except ValueError as exc:
        _usage_error(str(exc))
    if args.jobs < 1:
        _usage_error("--jobs must be >= 1")
    # The cap comes before the primality test, whose trial division runs to
    # sqrt(p); with p >= 2, k >= cap.bit_length() puts p^k over the cap.
    if p >= 2 and (k >= caps["q"].bit_length() or p**k > caps["q"]):
        q = f"{p}^{k}" if k > 1 else p
        raise ResourceCapExceeded(f"q={q} exceeds the field size cap {caps['q']}")
    if not is_prime(p):
        if args.q is not None:
            _usage_error(f"--q {p} is not prime; use --p and --k for extensions")
        _usage_error(f"--p {p} is not prime")
    field = field_make(p, k, max_q=caps["q"])
    return RunConfig(n=n, field=field, fmt=args.format, caps=caps)


def _emit(text: str) -> None:
    """text, then a newline unless it ends in one; two writes, no copy."""
    sys.stdout.write(text)
    if not text.endswith("\n"):
        sys.stdout.write("\n")


def _dump_json(data: dict) -> str:
    return json.dumps(data, indent=2)


# -- subcommand bodies --------------------------------------------------------

def _run_count(cfg: RunConfig) -> int:
    q = cfg.field.q
    values = bell_polys(cfg.n, q)
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
    clusters.check_template_count(cfg.n, cfg.field.q, cfg.caps["table"])
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
    """The table, written one row at a time; every check runs in build_table,
    before the first byte."""
    table = build_table(cfg.n, cfg.field, max_rows=cfg.caps["table"])
    if cfg.fmt == "json":
        chunks = table.iter_json_text()
    elif cfg.fmt == "csv":
        chunks = table.iter_csv()
    else:
        chunks = table.iter_text()
    sys.stdout.writelines(chunks)
    if cfg.fmt != "csv":  # the newline _emit adds; csv already ends in one
        sys.stdout.write("\n")
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


def _check_printable_degree(q: int, cells: list[tuple]) -> None:
    """Raise ResourceCapExceeded when the product's total degree q^e,
    e = sum of j - i - 1, has more decimal digits than the interpreter's
    int-to-str limit, where one is set; every multiplicity is at most that
    degree, so every number the product prints fits under it."""
    e = sum(j - i - 1 for i, j, _ in cells)
    limit = int_str_limit_exceeded(q, e)
    if limit:
        raise ResourceCapExceeded(
            f"total degree {q}^{e} has more than {limit} digits, the limit for printing an int"
        )


def _run_tensor(cfg: RunConfig, cells: list[tuple], check: bool) -> int:
    field = cfg.field
    _check_printable_degree(field.q, cells)
    result = tensor.tensor_rewrite(field, cfg.n, cells)
    if check:
        # every counting step raises unless it equals its rewrite step
        tensor.fold_by_counting(field, cfg.n, cells, cfg.caps["pairs"])
    if cfg.fmt == "json":
        _emit(_dump_json(result.to_json()))
    else:
        for tau, mult in result.items():
            _emit(f"{mult} x {tau.text()}")
        _emit(f"total_degree {result.total_degree}")
    return 0


def _run_discrete(cfg: RunConfig) -> int:
    clusters.check_template_count(cfg.n, cfg.field.q, cfg.caps["table"])
    decomp = discrete.delta_decompose(cfg.n, cfg.field)
    if cfg.fmt == "json":
        _emit(_dump_json(decomp.to_json()))
    else:
        _emit(f"identity_value {decomp.identity_value}")
        for tau, mult in decomp.items():
            _emit(f"{mult} x {tau.text()}")
    return 0


def _run_verify(cfg: RunConfig, args: argparse.Namespace) -> int:
    field = cfg.field
    cap_orbit = cfg.caps["orbit"]
    report = verify.run_verify(
        cfg.n,
        field,
        cap_orbit=cap_orbit,
        cap_pairs=cfg.caps["pairs"],
        seed=args.seed,
        jobs=args.jobs,
        cap_table=cfg.caps["table"],
    )
    if args.emit_golden:
        verify.write_golden(args.emit_golden, verify.emit_golden(cfg.n, field, cap_orbit))
    if cfg.fmt == "json":
        _emit(_dump_json(report.to_json()))
    else:
        for check in report.checks:
            _emit(f"{check.key} {'PASS' if check.passed else 'FAIL'} {check.detail}")
        _emit(f"overall {'PASS' if report.passed else 'FAIL'}")
    return 0 if report.passed else 4


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built from COMMANDS once per process, the
    first time an argv is not plain or a usage error is raised."""
    parser = argparse.ArgumentParser(
        prog="supercluster",
        description="Exact cluster/supercharacter engine for the unipotent triangular groups",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, options) in COMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        for opt in options:
            extra = dict(_ARGPARSE_KIND[opt.kind])
            if opt.kind == "choice":
                extra["choices"] = opt.choices
            if opt.metavar is not None:
                extra["metavar"] = opt.metavar
            command.add_argument(opt.flag, dest=opt.dest, default=opt.default,
                                 required=opt.required, help=opt.help, **extra)
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = read_plain(argv)
    if args is None:
        args = build_parser().parse_args(argv)
    try:
        cfg = _config(args)
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
                _usage_error(str(exc))
            return _run_tensor(cfg, cells, args.check)
        if args.command == "discrete":
            return _run_discrete(cfg)
        if args.command == "verify":
            return _run_verify(cfg, args)
    except ResourceCapExceeded as exc:
        print(f"resource cap exceeded: {exc}", file=sys.stderr)
        return 3
    except InvariantViolation as exc:
        print(f"THEOREM FALSIFIED: {exc}", file=sys.stderr)
        return 4
    raise AssertionError("unreachable")


if __name__ == "__main__":
    raise SystemExit(main())
