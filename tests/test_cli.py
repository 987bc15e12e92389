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


def test_resource_cap_exit_3():
    out = run("verify", "--n", "4", "--q", "2", "--cap-orbit", "10")
    assert out.returncode == 3
    assert "resource cap" in out.stderr


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
