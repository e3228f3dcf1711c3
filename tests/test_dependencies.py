"""The package has no third-party runtime dependency: the CLI and the
state-space pipeline run with networkx made unimportable, and never
import it when it is available."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SCRIPT = """
import sys
if sys.argv[1] == "blocked":
    sys.modules["networkx"] = None  # importing it now raises ImportError

import repro.cli
from repro.engine import StateSpace, explore, max_cycle_mean_throughput
from repro.engine.ctl import check_space
from repro.moccml.draw import statespace_to_dot
from repro.workbench import CcslSpec, load

model = load(CcslSpec("deps", events=["a", "b", "c"], constraints=[
    ("Alternates", ["a", "b"]),
    ("BoundedPrecedes", ["b", "c", 1])])).execution_model
space = explore(model)
assert check_space(space, "AG !deadlock").verdict.name == "HOLDS"
again = StateSpace.from_json(space.to_json())
assert again.to_json() == space.to_json()
assert max_cycle_mean_throughput(again, "a") > 0
assert statespace_to_dot(again).startswith("digraph")
loaded = sorted(name for name in sys.modules
                if name.split(".")[0] == "networkx"
                and sys.modules[name] is not None)
assert not loaded, loaded
"""


@pytest.mark.parametrize("mode", ["blocked", "available"])
def test_runs_without_networkx(mode):
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", SCRIPT, mode], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
