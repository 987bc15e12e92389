import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import supercluster
from supercluster import cli, field_make, tensor
from supercluster.characters import build_table, table_from_json
from supercluster.errors import InvariantViolation


def run(*args, env=None):
    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    return subprocess.run(
        [sys.executable, "-m", "supercluster", *args],
        capture_output=True,
        text=True,
        env=full_env,
        timeout=300,
    )


def test_count_text():
    out = run("count", "--n", "4", "--q", "2")
    assert out.returncode == 0
    assert out.stdout == "1 1 2 5 15\n"


def test_count_json():
    out = run("count", "--n", "3", "--q", "3", "--format", "json")
    data = json.loads(out.stdout)
    assert data == {"n": 3, "q": 3, "values": ["1", "1", "3", "11"]}


def test_clusters_json():
    out = run("clusters", "--n", "3", "--q", "2", "--format", "json")
    data = json.loads(out.stdout)
    rows = {r["template"]: r for r in data["templates"]}
    assert rows["(1,3)=1"]["d"] == 1
    assert rows["(1,3)=1"]["i"] == 0
    assert rows["(1,3)=1"]["size"] == "4"
    assert rows["(1,3)=1"]["adjoint_size"] == "1"
    assert rows["(1,3)=1"]["degree"] == "2"
    assert len(data["templates"]) == 5


def test_table_json_round_trip():
    out = run("table", "--n", "3", "--p", "3", "--format", "json")
    assert out.returncode == 0
    table = table_from_json(json.loads(out.stdout))
    assert table == build_table(3, field_make(3, 1))


def test_table_csv_golden():
    out = run("table", "--n", "2", "--q", "2", "--format", "csv")
    assert out.stdout == 'template,0,"(1,2)=1"\n0,1,1\n"(1,2)=1",1,-1\n'


def test_output_determinism():
    first = run("table", "--n", "3", "--q", "2", "--format", "json")
    second = run("table", "--n", "3", "--q", "2", "--format", "json")
    assert first.stdout == second.stdout
    assert first.stdout  # non-empty


def test_jobs_do_not_change_output():
    serial = run("table", "--n", "4", "--q", "3", "--format", "csv", "--jobs", "1")
    parallel = run("table", "--n", "4", "--q", "3", "--format", "csv", "--jobs", "2")
    assert serial.returncode == parallel.returncode == 0
    assert serial.stdout == parallel.stdout


def test_tensor_json():
    out = run(
        "tensor", "--n", "3", "--q", "2",
        "--factor", "1,3,1", "--factor", "1,3,1",
        "--format", "json", "--check",
    )
    assert out.returncode == 0
    data = json.loads(out.stdout)
    assert data["total_degree"] == "4"
    assert {"template": "0", "mult": 1} in data["terms"]
    assert len(data["terms"]) == 4


def test_tensor_text_disjoint():
    out = run("tensor", "--n", "3", "--q", "3", "--factor", "1,2,2", "--factor", "2,3,1")
    assert out.returncode == 0
    assert out.stdout == "1 x (1,2)=2;(2,3)=1\ntotal_degree 1\n"


def test_discrete_json():
    out = run("discrete", "--n", "3", "--q", "2", "--format", "json")
    data = json.loads(out.stdout)
    assert data == {
        "identity_value": "3",
        "terms": [
            {"template": "(1,2)=1;(2,3)=1", "mult": 1},
            {"template": "(1,3)=1", "mult": 1},
        ],
    }


def test_verify_passes():
    out = run("verify", "--n", "2", "--q", "2")
    assert out.returncode == 0
    assert "overall PASS" in out.stdout
    for key in ("Thm4.1", "Thm4.2", "Thm3.5", "Thm6.2", "Thm7.1", "Thm8.6",
                "Thm9.1", "Thm9.3", "A.1", "A.2"):
        assert f"{key} PASS" in out.stdout


def test_verify_n3_q3_exits_zero():
    out = run("verify", "--n", "3", "--q", "3")
    assert out.returncode == 0
    assert "overall PASS" in out.stdout


def test_verify_json_report():
    out = run("verify", "--n", "2", "--q", "3", "--format", "json")
    data = json.loads(out.stdout)
    assert data["passed"] is True
    assert {c["key"] for c in data["checks"]} >= {
        "Thm4.1", "Thm4.2", "Thm3.5", "Thm6.2", "Thm7.1", "Thm8.6",
        "Thm9.1", "Thm9.3", "A.1", "A.2",
    }


def test_verify_emit_golden(tmp_path):
    path = tmp_path / "golden.json"
    out = run("verify", "--n", "2", "--q", "2", "--emit-golden", str(path))
    assert out.returncode == 0
    data = json.loads(path.read_text())
    assert data["bell"] == ["1", "1", "2"]
    assert data["table"]["values"] == [["1", "1"], ["1", "-1"]]


def test_usage_errors_exit_2():
    assert run("count", "--n", "3").returncode == 2  # no field
    assert run("count", "--n", "3", "--q", "4").returncode == 2  # q not prime
    assert run("count", "--n", "0", "--q", "2").returncode == 2
    assert run("tensor", "--n", "3", "--q", "2", "--factor", "1,3,1",
               "--format", "csv").returncode == 2
    assert run("count", "--n", "3", "--q", "3", "--p", "3").returncode == 2
    assert run("nonsense").returncode == 2
    bad = [
        ("count", "--n", "3", "--p", "2", "--k", "0"),
        ("count", "--n", "3", "--p", "2", "--k", "-1"),
        ("table", "--n", "2", "--p", "2", "--k", "0"),
        ("tensor", "--n", "3", "--q", "2", "--factor", "1,3"),
        ("tensor", "--n", "3", "--q", "2", "--factor", "1,4,1"),
        ("tensor", "--n", "3", "--q", "3", "--factor", "1,3,x"),
        ("verify", "--n", "5", "--q", "2", "--sample-pairs", "0"),
        ("verify", "--n", "5", "--q", "2", "--sample-pairs", "-3"),
        ("verify", "--n", "5", "--q", "2", "--sample-pairs", "200"),
        # csv only on count, clusters and table; --seed only on verify; the
        # orbit cap is set in SUPERCLUSTER_CAPS alone, and Thm8.6's sample
        # size is fixed, so --sample-pairs is no option
        ("discrete", "--n", "3", "--q", "2", "--format", "csv"),
        ("verify", "--n", "2", "--q", "2", "--format", "csv"),
        ("count", "--n", "3", "--q", "2", "--seed", "1"),
        ("table", "--n", "2", "--q", "2", "--cap-orbit", "10"),
        ("verify", "--n", "2", "--q", "2", "--cap-orbit", "10"),
        ("tensor", "--n", "3", "--q", "2", "--factor", "1,3,1", "--seed", "1"),
    ]
    for argv in bad:
        out = run(*argv)
        assert out.returncode == 2, argv
        assert "Traceback" not in out.stderr, argv


def test_resource_cap_exit_3():
    out = run("verify", "--n", "4", "--q", "2", env={"SUPERCLUSTER_CAPS": "orbit=10"})
    assert out.returncode == 3
    assert "resource cap" in out.stderr
    over_cap = [  # q = 128, q = 2^(10^12) and a prime near 10^18 (no primality test)
        ("table", "--n", "2", "--p", "2", "--k", "7"),
        ("count", "--n", "2", "--p", "2", "--k", "7"),
        ("count", "--n", "2", "--p", "2", "--k", "1000000000000"),
        ("count", "--n", "2", "--q", "1000000000000000003"),
    ]
    for argv in over_cap:
        out = run(*argv)
        assert out.returncode == 3, argv
        assert out.stdout == ""
        assert out.stderr.startswith("resource cap exceeded: ")
        assert out.stderr.count("\n") == 1


def test_caps_env_override():
    out = run("verify", "--n", "3", "--q", "2", env={"SUPERCLUSTER_CAPS": "orbit=4"})
    assert out.returncode == 3
    bad = run("count", "--n", "3", "--q", "2", env={"SUPERCLUSTER_CAPS": "bogus=1"})
    assert bad.returncode == 2
    # the group has as many points as the algebra, so "orbit" caps it too
    gone = run("verify", "--n", "3", "--q", "2", env={"SUPERCLUSTER_CAPS": "group=10"})
    assert gone.returncode == 2
    assert "bad SUPERCLUSTER_CAPS entry 'group=10'" in gone.stderr


def test_theorem_violation_exit_4(monkeypatch):
    def boom(*args, **kwargs):
        raise InvariantViolation("synthetic failure")

    monkeypatch.setattr(cli.tensor, "tensor_rewrite", boom)
    code = cli.main(["tensor", "--n", "3", "--q", "2", "--factor", "1,3,1"])
    assert code == 4


def test_field_extension_flags():
    out = run("count", "--n", "2", "--p", "2", "--k", "2")
    assert out.returncode == 0
    assert out.stdout == "1 1 4\n"


def _main_in_process(argv, capsys):
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parser_is_built_once_and_reused(capsys):
    assert cli.build_parser() is cli.build_parser()
    count = ["count", "--n", "4", "--q", "2"]
    calls = [
        count,
        ["tensor", "--n", "3", "--q", "2", "--factor", "1,3,1", "--factor", "1,3,1", "--check"],
        ["count", "--n", "3"],  # no field: usage error
        count,
    ]
    together = [_main_in_process(argv, capsys) for argv in calls]
    assert [code for code, _, _ in together] == [0, 0, 2, 0]
    assert together[0] == together[3]
    for argv, got in zip(calls, together):
        cli.build_parser.cache_clear()
        assert _main_in_process(argv, capsys) == got


# SHA-256 of `clusters --format csv` stdout, recorded from the exact-rank
# route for the adjoint_size column that the closed form replaced.
CLUSTERS_CSV_DIGESTS = {
    "--n 8 --q 2": "09582554215603919080cd617fbb1812dd4ad30eeabd119dd64a349fd1019890",
    "--n 6 --q 3": "eeee4405c7cb0b337a9c3e09674cf7873995b384f8bd84631cda58b39892beb5",
    "--n 5 --p 2 --k 2": "ef079cff02695b432b20ee27b4e58f9d525b1cfa8546fc4b9378d8271d992559",
    "--n 4 --q 7": "7a9365a94110a526bec8fad5ec8d841c580ce0b6725f77abd44a55a2f142b060",
    "--n 4 --p 3 --k 2": "42f064c1ad00ea643b9c1531065484f4fff47c609365de56afd65959bf8f0976",
}


@pytest.mark.parametrize("args", list(CLUSTERS_CSV_DIGESTS))
def test_clusters_csv_matches_the_rank_route(args, capsys):
    code, out, err = _main_in_process(["clusters", *args.split(), "--format", "csv"], capsys)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == CLUSTERS_CSV_DIGESTS[args]


VERIFY_CASES = ["--n 2 --q 2", "--n 3 --q 3", "--n 4 --q 2", "--n 3 --p 2 --k 2"]


@pytest.mark.parametrize("seed", ["0", "1"])
@pytest.mark.parametrize("args", VERIFY_CASES)
def test_verify_output_is_the_same_for_one_and_two_jobs(args, seed, capsys):
    for fmt in ("text", "json"):
        argv = ["verify", *args.split(), "--seed", seed, "--format", fmt]
        one = _main_in_process([*argv, "--jobs", "1"], capsys)
        two = _main_in_process([*argv, "--jobs", "2"], capsys)
        assert one == two
        assert one[0] == 0 and one[2] == ""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_cli_import_loads_no_pool_or_process_module():
    """Every command pays for what `import supercluster.cli` loads; the
    two verify lanes need os.fork and a pipe, not these, and their own
    module is loaded only by a verify run that forks."""
    names = ("pickle", "multiprocessing", "subprocess", "supercluster.lanes")
    code = f"import sys, supercluster.cli; print(sorted(m for m in {names} if m in sys.modules))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert (out.returncode, out.stdout) == (0, "[]\n")


def test_two_job_verify_starts_no_thread(monkeypatch, capsys):
    """The benchmark's speed probe runs only while threading.active_count()
    is 1; a verify in two lanes must keep it so in the parent's lane."""
    import threading

    from supercluster import verify

    before = threading.active_count()
    seen = []
    tensor_ring = verify._check_tensor_ring

    def counted(*args):
        seen.append(threading.active_count())
        return tensor_ring(*args)

    monkeypatch.setattr(verify, "_check_tensor_ring", counted)
    code, out, _ = _main_in_process(["verify", "--n", "3", "--q", "2", "--jobs", "2"], capsys)
    assert code == 0 and out.endswith("overall PASS\n")
    assert seen == [before] and threading.active_count() == before


TABLE_CASES = {  # argv -> (n, p, k)
    "--n 3 --q 3": (3, 3, 1),
    "--n 3 --p 2 --k 2": (3, 2, 2),
    "--n 1 --q 2": (1, 2, 1),
    "--n 2 --q 3": (2, 3, 1),
}


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
@pytest.mark.parametrize("args", list(TABLE_CASES))
def test_table_stdout_is_the_rendered_table(args, fmt, capsys):
    """The rows written one at a time join to the whole rendered table:
    JSON and text with one newline added, CSV as it is."""
    n, p, k = TABLE_CASES[args]
    table = build_table(n, field_make(p, k))
    want = {
        "json": table.to_json_text() + "\n",
        "csv": table.to_csv(),
        "text": table.to_text() + "\n",
    }[fmt]
    code, out, err = _main_in_process(["table", *args.split(), "--format", fmt], capsys)
    assert (code, out, err) == (0, want, "")


class _CountingSink(io.TextIOBase):
    """A stdout that keeps only the total length and the longest write."""

    def __init__(self):
        self.total = self.longest = 0

    def writable(self):
        return True

    def write(self, text):
        self.total += len(text)
        self.longest = max(self.longest, len(text))
        return len(text)


def test_table_is_written_row_by_row_in_little_memory(monkeypatch):
    """The (5,3) JSON table is 6.4 MB.  Written a row at a time, the engine's
    own allocations peak below half of that and no write holds a hundredth."""
    import tracemalloc

    import supercluster

    supercluster.clear_memos()
    sink = _CountingSink()
    monkeypatch.setattr(sys, "stdout", sink)
    tracemalloc.start()
    try:
        code = cli.main(["table", "--n", "5", "--q", "3", "--format", "json", "--jobs", "1"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and sink.total > 6_000_000
    assert peak < sink.total / 2
    assert sink.longest <= sink.total / 100


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
def test_table_over_its_cap_writes_nothing(fmt, monkeypatch, capsys):
    """(4,2) has 15 rows; with the table cap at 14 the run exits 3 before
    its first byte, the one cap line on stderr."""
    monkeypatch.setenv(cli.CAPS_ENV, "table=14")
    code, out, err = _main_in_process(["table", "--n", "4", "--q", "2", "--format", fmt], capsys)
    assert (code, out) == (3, "")
    assert err == "resource cap exceeded: table would have 15 rows, cap is 14\n"


@pytest.mark.parametrize("command", ["clusters", "discrete"])
@pytest.mark.parametrize("n", ["9", "12", "100000"])
def test_clusters_and_discrete_over_the_table_cap_exit_3_before_any_template(
        command, n, monkeypatch, capsys):
    """B(9, 2) = 21,147 and B(12, 2) = 4,213,597 are over the default table
    cap of 5,000, and B(100000, 2) is never computed in full, so each run
    exits 3 with nothing on stdout and the one cap line on stderr, before
    any template is made."""
    from supercluster import clusters

    def unreachable(*args):
        raise AssertionError("a template was made")

    monkeypatch.setattr(clusters.Template, "__init__", unreachable)
    code, out, err = _main_in_process([command, "--n", n, "--q", "2"], capsys)
    assert (code, out) == (3, "")
    assert err == f"resource cap exceeded: B({n}, 2) templates exceed the table cap 5000\n"


@pytest.mark.parametrize("command", ["clusters", "discrete"])
def test_clusters_and_discrete_run_up_to_the_table_cap(command, monkeypatch, capsys):
    """(4,2) has B = 15 templates: with the table cap at 15 the run is the
    one with the default caps, and at 14 it exits 3."""
    argv = [command, "--n", "4", "--q", "2", "--format", "json"]
    default = _main_in_process(argv, capsys)
    monkeypatch.setenv(cli.CAPS_ENV, "table=15")
    assert _main_in_process(argv, capsys) == default
    assert default[0] == 0 and default[1]
    monkeypatch.setenv(cli.CAPS_ENV, "table=14")
    assert _main_in_process(argv, capsys) == (
        3, "", "resource cap exceeded: B(4, 2) templates exceed the table cap 14\n")


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
def test_a_hook_count_over_d_at_the_last_row_writes_nothing(fmt, monkeypatch, capsys):
    """The last row of (4,2), (3,4)=1, has d = 0 and no hooks.  With one
    more hook at every position of that row, h = 1 > d at its first column
    with an entry, so the run exits 4 before the table's first byte."""
    from supercluster import characters
    from supercluster.clusters import enumerate_templates

    last = enumerate_templates(4, field_make(2, 1))[-1]
    tables = characters._row_tables

    def one_more_hook(tau):
        kill, hooks, phases = tables(tau)
        if tau == last:
            hooks = [h + 1 for h in hooks]
        return kill, hooks, phases

    monkeypatch.setattr(characters, "_row_tables", one_more_hook)
    code, out, err = _main_in_process(["table", "--n", "4", "--q", "2", "--format", fmt], capsys)
    assert (code, out) == (4, "")
    assert err == f"THEOREM FALSIFIED: hook count 1 exceeds d=0 for {last.text()}\n"


def test_a_checked_product_over_the_pair_cap_exits_3_before_any_walk(capsys):
    # |Psi| = 1 and 2^28 at n = 16 over GF(2): the counting step's pair cap
    # is read off the supports, so the product exits 3 and writes nothing
    argv = ["tensor", "--n", "16", "--q", "2", "--factor", "1,16,1", "--factor", "1,16,1", "--check"]
    code, out, err = _main_in_process(argv, capsys)
    assert (code, out) == (3, "")
    assert err == "resource cap exceeded: 1 x 268435456 cluster pairs exceed the cap 16777216\n"


def test_a_wrong_counting_step_fails_the_checked_product_with_exit_4(monkeypatch, capsys):
    # the check rests on each counting step's own comparison with its rewrite
    # step: doubling the pair counts of the second step, [(1,2)=1] x [(2,3)=1],
    # must exit 4 and name that product
    supercluster.clear_memos()
    count_step = tensor._count_step

    def doubled(base, small, weight):
        counts = count_step(base, small, weight)
        if base.cells and small.cells:
            return tuple((tau, 2 * count) for tau, count in counts)
        return counts

    monkeypatch.setattr(tensor, "_count_step", doubled)
    argv = ["tensor", "--n", "3", "--q", "2", "--factor", "1,2,1", "--factor", "2,3,1", "--check"]
    code, out, err = _main_in_process(argv, capsys)
    assert (code, out) == (4, "")
    assert err.startswith("THEOREM FALSIFIED: ")
    assert "[(1,2)=1] x [(2,3)=1]" in err


@pytest.fixture
def digit_limit():
    """sys.set_int_max_str_digits for one test, the old limit restored after."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python has no int-to-str digit limit")
    before = sys.get_int_max_str_digits()
    yield sys.set_int_max_str_digits
    sys.set_int_max_str_digits(before)


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_a_product_too_long_to_print_exits_3_before_any_rewrite(fmt, digit_limit, monkeypatch,
                                                                capsys):
    """15,000 factors (1,3,1) over GF(2): the total degree 2^15000 has 4,516
    digits, over the interpreter's default limit of 4,300 for printing an
    int, so the run exits 3 with the one cap line and rewrites nothing."""
    digit_limit(4300)

    def refused(*args):
        raise AssertionError("tensor_rewrite called")

    monkeypatch.setattr(cli.tensor, "tensor_rewrite", refused)
    argv = ["tensor", "--n", "3", "--q", "2", *["--factor", "1,3,1"] * 15000, "--format", fmt]
    code, out, err = _main_in_process(argv, capsys)
    assert (code, out) == (3, "")
    assert err == (
        "resource cap exceeded: total degree 2^15000 has more than 4300 digits,"
        " the limit for printing an int\n"
    )


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("q,e", [(2, 2126), (61, 358)])
def test_the_total_degree_prints_up_to_the_digit_limit(q, e, fmt, digit_limit, capsys):
    """Under a 640-digit limit, q^e has 640 digits and prints, and q^(e+1)
    has 641 and exits 3; over GF(61), e * bits(q) passes 3 * 640, so the
    exact comparison decides."""
    digit_limit(640)
    argv = ["tensor", "--n", "3", "--q", str(q), "--format", fmt]
    code, out, err = _main_in_process(argv + ["--factor", "1,3,1"] * e, capsys)
    assert (code, err) == (0, "")
    assert str(q**e) in out
    code, out, err = _main_in_process(argv + ["--factor", "1,3,1"] * (e + 1), capsys)
    assert (code, out) == (3, "")
    assert err.startswith(f"resource cap exceeded: total degree {q}^{e + 1} has more than 640")


@pytest.mark.parametrize("n,shown", [(65, str(2**2080)), (66, "2^2145")])
def test_the_space_cap_line_names_a_size_too_long_to_print_as_a_power(n, shown, digit_limit,
                                                                      capsys):
    """Under a 640-digit limit, the 2^2080 points at n = 65 (627 digits)
    are named in full, and the 2^2145 at n = 66 (646 digits) as a power;
    either way verify exits 3 with the one cap line and nothing on stdout."""
    digit_limit(640)
    code, out, err = _main_in_process(["verify", "--n", str(n), "--q", "2"], capsys)
    assert (code, out) == (3, "")
    assert err == f"resource cap exceeded: space of size {shown} exceeds the cap 1048576\n"


# -- the plain reader against argparse -----------------------------------------

def _outcome(argv):
    """(exit code, stdout, stderr) of main(argv) in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


# Values per option dest: (value, whether read_plain reads it).  Every value
# it reads keeps the command small: n <= 3, q <= 9, verify at n <= 2.
_INT = [("1", True), ("2", True), ("+2", True), (" 2", True), ("0", True),
        ("-1", False), ("x", False), ("2.0", False), ("", False)]
_VALUES = {
    "n": [("3", True), *_INT],
    "p": [("2", True), ("3", True), ("4", True), ("-3", False), ("x", False)],
    "k": _INT,
    "q": [("2", True), ("3", True), ("9", True), ("-2", False), ("x", False)],
    "jobs": _INT,
    "seed": [("7", True), *_INT],
    "factor": [("1,3,1", True), ("1,2,1", True), ("2,3,1", True), ("1,3", True),
               ("1,4,1", True), ("x", True), ("", True), ("-1,2,1", False)],
    "emit_golden": [("golden.json", True), ("", True), ("-g", False)],
}
_NOISE = [["--bogus", "1"], ["-x"], ["-h"], ["--help"], ["stray"], ["--"], ["-n", "2"]]
_ALL_FLAGS = sorted({opt.flag for _, opts in cli.COMMANDS.values() for opt in opts})
_FIELDS = [("--q",), ("--q",), ("--p", "--k"), ("--p",), ("--q", "--p"), ()]
_MUTATIONS = ("value", "repeat", "eq", "abbrev", "drop", "noise", "missing", "head")


def _values(command, opt, ok):
    """The values of opt that read_plain reads (ok) or declines."""
    if opt.kind == "choice":
        values = [(v, v in opt.choices) for v in ("json", "csv", "text", "xml", "-")]
    else:
        values = _VALUES[opt.dest]
    if command == "verify" and opt.dest == "n":
        values = [(v, good) for v, good in values if v != "3"]
    return [v for v, good in values if good == ok]


@st.composite
def _argvs(draw):
    """(argv, plain): a command line, and whether read_plain must read it.

    A plain argv, options in random order, then up to two changes, each
    of which makes it not plain: a value read_plain declines (negative,
    non-integer, not a choice), a repeated option other than --factor, an
    option spelled --opt=value or abbreviated, a required option dropped,
    an unknown option, help or a stray token, a missing value, or a
    missing or unknown command (or -h) in front."""
    command = draw(st.sampled_from(list(cli.COMMANDS)))
    field = draw(st.sampled_from(_FIELDS))
    pieces = []  # [option, flag token, value or None]
    for opt in cli.COMMANDS[command][1]:
        if opt.flag in ("--p", "--k", "--q"):
            times = int(opt.flag in field)
        elif opt.kind == "append":
            times = draw(st.sampled_from([1, 1, 2, 3]))
        else:
            times = 1 if opt.required else draw(st.sampled_from([0, 1, 1]))
        for _ in range(times):
            value = None
            if opt.kind != "flag":
                value = draw(st.sampled_from(_values(command, opt, True)))
            pieces.append([opt, opt.flag, value])
    pieces = draw(st.permutations(pieces))
    plain, head = True, [command]
    for change in draw(st.lists(st.sampled_from(_MUTATIONS), max_size=2)):
        if change == "drop":
            required = [opt for opt, _, _ in pieces if opt is not None and opt.required]
            if required:
                gone = draw(st.sampled_from(required))
                pieces = [piece for piece in pieces if piece[0] is not gone]
                plain = False
            continue
        if change in ("noise", "head"):
            plain = False
            if change == "head":
                head = draw(st.sampled_from([[], ["nonsense"], ["-h", command]]))
            else:
                own = {opt.flag for opt in cli.COMMANDS[command][1]}
                other = [[flag, "1"] for flag in _ALL_FLAGS if flag not in own]
                noise = draw(st.sampled_from(_NOISE + other))
                pieces.insert(draw(st.integers(0, len(pieces))), [None, *noise, None][:3])
            continue
        if not pieces:
            continue
        at = len(pieces) - 1 if change == "missing" else draw(st.integers(0, len(pieces) - 1))
        opt, flag, value = pieces[at]
        if opt is None:
            continue
        if change == "value" and value is not None:
            value = draw(st.sampled_from(_values(command, opt, False)))
        elif change == "repeat":
            pieces.insert(draw(st.integers(0, len(pieces))), [opt, flag, value])
            plain = plain and opt.kind == "append"
            continue
        elif change == "eq":
            flag, value = f"{flag}={1 if value is None else value}", None
        elif change == "abbrev":
            flag = opt.flag[: draw(st.integers(2, len(opt.flag) - 1))]
        elif change == "missing" and value is not None:
            value = None
        else:
            continue
        pieces[at] = [opt, flag, value]
        plain = False
    tokens = [token for _, flag, value in pieces for token in (flag, value) if token is not None]
    return [*head, *tokens], plain


@example(case=(["count", "--n", "3", "--q", "2", "--q", "3"], False))
@example(case=(["tensor", "--n", "3", "--q", "2", "--factor", "1,3,1", "--check", "--check"],
               False))
@example(case=(["count", "--n", "-1", "--q", "2"], False))
@example(case=(["count", "--n", "3", "--q", "2", "--format", "xml"], False))
@example(case=(["tensor", "--n", "3", "--q", "2", "--factor"], False))
@example(case=(["verify", "--n", "2", "--q", "2", "--emit-golden"], False))
@example(case=(["tensor", "--q", "2", "--factor", "1,3,1", "--n", "3", "--check"], True))
@settings(derandomize=True, database=None, deadline=None, max_examples=400,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=_argvs())
def test_the_plain_reader_reads_what_argparse_reads(case, tmp_path, monkeypatch):
    """read_plain reads exactly the plain argvs, into the Namespace argparse
    gives them; on every argv, main gives the exit code, stdout and stderr
    that it gives with argparse alone."""
    argv, plain = case
    monkeypatch.chdir(tmp_path)  # where verify --emit-golden writes
    read = cli.read_plain(argv)
    assert (read is not None) == plain, argv
    if read is not None:
        assert vars(read) == vars(cli.build_parser().parse_args(argv))
    with mock.patch.object(cli, "read_plain", return_value=None):
        want = _outcome(argv)
    assert _outcome(argv) == want, argv


def test_a_long_plain_tensor_argv_never_reaches_argparse(monkeypatch, capsys):
    """4,000 --factor options are read in one pass (argparse's time grows
    with their square), and the product's degree is 2^4000."""
    import argparse

    def refused(self, args=None, namespace=None):
        raise AssertionError(f"parse_args({args!r:.60})")

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", refused)
    argv = ["tensor", "--n", "3", "--q", "2", *["--factor", "1,3,1"] * 4000, "--format", "text"]
    code, out, err = _main_in_process(argv, capsys)
    assert (code, err) == (0, "")
    assert out.endswith(f"total_degree {2**4000}\n")
