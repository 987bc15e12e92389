import hashlib
import json
import os
import subprocess
import sys

import pytest

from supercluster import cli, field_make
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
    ]
    for argv in bad:
        out = run(*argv)
        assert out.returncode == 2, argv
        assert "Traceback" not in out.stderr, argv


def test_resource_cap_exit_3():
    out = run("verify", "--n", "4", "--q", "2", "--cap-orbit", "10")
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
