"""What start-up runs: the modules each command executes, the tracer's view
of the layer modules, and the plain value classes.

The oracle's modules (verify, oracle, packed and lanes) are compiled and
run only on the verify path; cli binds verify and oracle lazily, so that
both are still in sys.modules for perfbench's tracer from start-up.
"""

import json
import os
import subprocess
import sys

import pytest

from supercluster import cli, field_make, oracle
from supercluster.clusters import ClusterInvariants, Template
from supercluster.discrete import DeltaDecomposition
from supercluster.verify import VerifyCheck, VerifyReport

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PERFBENCH = os.path.join(ROOT, "perfbench")

ORACLE_MODULES = ["lanes.py", "oracle.py", "packed.py", "verify.py"]

# Runs one CLI argv with every compile of an engine source file recorded;
# prints the engine files compiled, then whether verify.run_verify resolves
# after `import supercluster.verify`.  With an empty bytecode cache every
# module the run executes is compiled from source.
COMPILED = """
import contextlib, io, json, os, sys
sys.path.insert(0, sys.argv[1])
compiled = set()

def hook(event, args):
    if event == "compile" and isinstance(args[1], str):
        compiled.add(args[1])

sys.addaudithook(hook)
from supercluster import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[2:])
engine = os.path.join(sys.argv[1], "supercluster")
ran = sorted(os.path.basename(f) for f in compiled if os.path.dirname(f) == engine)
import supercluster.verify
print(json.dumps([code, ran, callable(supercluster.verify.run_verify)]))
"""


def _compiled(tmp_path, *argv):
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPYCACHEPREFIX=str(tmp_path))
    out = subprocess.run([sys.executable, "-c", COMPILED, SRC, *argv], capture_output=True,
                         text=True, env=env, timeout=120)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.splitlines()[-1])


@pytest.mark.parametrize("argv", [
    ["table", "--n", "3", "--q", "2"],
    ["tensor", "--n", "3", "--q", "2", "--factor", "1,3,1", "--factor", "1,2,1", "--check"],
    ["count", "--n", "4", "--q", "3"],
    ["clusters", "--n", "3", "--q", "2"],
    ["discrete", "--n", "3", "--q", "2"],
], ids=lambda argv: argv[0])
def test_commands_off_the_verify_path_run_none_of_the_oracle_modules(argv, tmp_path):
    code, ran, resolves = _compiled(tmp_path, *argv)
    assert code == 0
    assert "cli.py" in ran and "clusters.py" in ran
    assert not set(ORACLE_MODULES) & set(ran)
    assert resolves


@pytest.mark.skipif(not hasattr(os, "fork"), reason="lanes is loaded only where verify forks")
def test_verify_runs_every_oracle_module(tmp_path):
    code, ran, resolves = _compiled(tmp_path, "verify", "--n", "2", "--q", "2", "--jobs", "2")
    assert code == 0
    assert set(ORACLE_MODULES) <= set(ran)
    assert resolves


# Imports the engine as perfbench/worker.py does, then installs the tracer
# and runs one table and one verify case under it.
TRACED = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
sys.path.insert(0, sys.argv[2])
import supercluster
from supercluster import cli, gf
from tracing import LAYERS, Tracer
missing = [m for m in LAYERS if f"supercluster.{m}" not in sys.modules]
tracer = Tracer()
tracer.install()
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(["table", "--n", "3", "--q", "2"]),
             cli.main(["verify", "--n", "2", "--q", "2", "--jobs", "1"])]
tracer.uninstall()
calls = {name: s["calls"] for name, s in tracer.summary()["names"].items()}
print(json.dumps([missing, codes, calls]))
"""


def test_the_tracer_finds_every_layer_module_and_traces_verify():
    out = subprocess.run([sys.executable, "-c", TRACED, SRC, PERFBENCH], capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    missing, codes, calls = json.loads(out.stdout.splitlines()[-1])
    assert missing == []
    assert codes == [0, 0]
    assert calls["characters.build_table"] >= 1
    assert calls["verify.run_verify"] == 1
    assert calls["verify.Thm5.1"] == 1 and calls["verify.Thm9.3"] == 1


# -- the plain value classes ---------------------------------------------------

def test_each_run_config_has_its_own_caps(F2):
    one, two = cli.RunConfig(3, F2), cli.RunConfig(3, F2)
    assert one.caps == two.caps == cli.DEFAULT_CAPS
    assert one.caps is not two.caps
    assert one.caps is not cli.DEFAULT_CAPS and two.caps is not cli.DEFAULT_CAPS
    one.caps["table"] = 1
    assert two.caps["table"] == cli.DEFAULT_CAPS["table"] != 1


def test_the_orbit_cap_default_is_the_oracles():
    assert cli.DEFAULT_CAPS["orbit"] == oracle.DEFAULT_MAX_SPACE == 2**20


def test_equal_cluster_invariants_hash_equal():
    a, b = ClusterInvariants(2, 1, (1, 1)), ClusterInvariants(d=2, i=1, d_rows=(1, 1))
    assert a == b and hash(a) == hash(b)
    assert {a: "x"}[b] == "x"
    assert len({a, b, ClusterInvariants(2, 0, (1, 1))}) == 2
    assert a != (2, 1, (1, 1))


def test_report_and_decomposition_json_are_unchanged():
    report = VerifyReport(3, 2, 1, [VerifyCheck("Thm5.1", True, "ok"),
                                    VerifyCheck("A.1", False, "off")])
    assert report.to_json() == {
        "n": 3, "p": 2, "k": 1, "q": 2, "passed": False,
        "checks": [
            {"key": "Thm5.1", "passed": True, "detail": "ok"},
            {"key": "A.1", "passed": False, "detail": "off"},
        ],
    }
    # a one-lane and a two-lane run are compared report to report
    assert report == VerifyReport(3, 2, 1, [VerifyCheck("Thm5.1", True, "ok"),
                                            VerifyCheck("A.1", False, "off")])
    assert report != VerifyReport(3, 2, 1, [VerifyCheck("Thm5.1", True, "ok")])
    field = field_make(3, 1)
    two = field.elements[2]
    terms = {Template(field, 3, [(1, 3, two)]): 2, Template(field, 3, [(1, 3, field.one)]): 1}
    decomp = DeltaDecomposition(3, field, terms, 8)
    assert decomp.to_json() == {
        "identity_value": "8",
        "terms": [{"template": "(1,3)=1", "mult": 1}, {"template": "(1,3)=2", "mult": 2}],
    }
