"""numpy is loaded only by the bulk commands; scalar commands start without it.

Each case runs in a fresh interpreter, since this test process has numpy
loaded already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import primroot
from primroot.cli import main

SRC = Path(primroot.__file__).parents[1]

SCALAR_ARGV = [
    ["least", "--p", "43"],
    ["test", "--g", "3", "--p", "43"],
    ["order", "--a", "10", "--n", "343"],
    ["lift", "--p", "43", "--tau", "19"],
    ["lift", "--p", "43", "--tau", "19", "--mode", "pairs"],
    ["lift", "--p", "7", "--mode", "enumerate", "--k", "2"],
    ["psi", "--u", "3", "--n", "43"],
    ["psi", "--formula", "s", "--g", "3", "--p", "43"],
    ["period", "--base", "10", "--p", "7", "--k", "2"],
]

SURVEY_ARGV = ["survey", "--x", "100", "--z", "10", "--format", "csv"]


def run_fresh(code: str) -> dict:
    """Run code in a new interpreter; its last stdout line is a JSON result."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120, check=True
    )
    return json.loads(done.stdout.splitlines()[-1])


def test_scalar_commands_never_load_numpy():
    code = f"""
import contextlib, io, json, sys
import primroot
from primroot import cli
loaded = ["numpy" in sys.modules]
primroot.least_roots(43)
loaded.append("numpy" in sys.modules)
codes = []
for argv in {SCALAR_ARGV!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(cli.main(argv))
    loaded.append("numpy" in sys.modules)
print(json.dumps({{"loaded": loaded, "codes": codes}}))
"""
    got = run_fresh(code)
    assert got["codes"] == [0] * len(SCALAR_ARGV)
    assert got["loaded"] == [False] * (len(SCALAR_ARGV) + 2)


def test_survey_loads_numpy_and_prints_the_same(capsys):
    code = f"""
import contextlib, io, json, sys
from primroot import cli
out = io.StringIO()
with contextlib.redirect_stdout(out):
    rc = cli.main({SURVEY_ARGV!r})
print(json.dumps({{"rc": rc, "out": out.getvalue(), "numpy": "numpy" in sys.modules}}))
"""
    got = run_fresh(code)
    assert main(SURVEY_ARGV) == 0
    assert got == {"rc": 0, "out": capsys.readouterr().out, "numpy": True}
