"""Each process loads only what it uses.

numpy is loaded only by the bulk commands; scalar commands, constants and
the default charsum start without it.  characters and surveys load only for
the commands and names that need them.  Each case runs in a fresh
interpreter, since this test process has all of them loaded already.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import primroot
from primroot.cli import main

SRC = Path(primroot.__file__).parents[1]

LAZY_MODULES = ["primroot.characters", "primroot.surveys"]

# the commands that need neither characters nor surveys
CORE_ARGV = [
    ["least", "--p", "43"],
    ["test", "--g", "3", "--p", "43"],
    ["order", "--a", "10", "--n", "343"],
    ["lift", "--p", "43", "--tau", "19"],
    ["lift", "--p", "43", "--tau", "19", "--mode", "pairs"],
    ["lift", "--p", "7", "--mode", "enumerate", "--k", "2"],
]
SCALAR_ARGV = CORE_ARGV + [
    ["psi", "--u", "3", "--n", "43"],
    ["psi", "--formula", "s", "--g", "3", "--p", "43"],
    ["period", "--base", "10", "--p", "7", "--k", "2"],
]

SURVEY_ARGV = ["survey", "--x", "100", "--z", "10", "--format", "csv"]
# bulk commands whose prime lists come off the byte sieve
NUMPY_FREE_ARGV = [["constants", "--primes", "10000", "--format", "json"], ["charsum"]]


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
lazy = [[m for m in {LAZY_MODULES!r} if m in sys.modules]]
primroot.least_roots(43)
loaded.append("numpy" in sys.modules)
codes = []
for argv in {SCALAR_ARGV!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(cli.main(argv))
    loaded.append("numpy" in sys.modules)
    lazy.append([m for m in {LAZY_MODULES!r} if m in sys.modules])
print(json.dumps({{"loaded": loaded, "codes": codes, "lazy": lazy}}))
"""
    got = run_fresh(code)
    assert got["codes"] == [0] * len(SCALAR_ARGV)
    assert got["loaded"] == [False] * (len(SCALAR_ARGV) + 2)
    # import primroot and then the core commands, in order, load neither module
    assert got["lazy"][: len(CORE_ARGV) + 1] == [[]] * (len(CORE_ARGV) + 1)


def fractions_loaded_fresh(argvs: list[list[str]]) -> dict:
    """Run each argv in turn in one new interpreter: exit codes, and fractions/decimal loaded after each."""
    code = f"""
import contextlib, io, json, sys
from primroot import cli
codes, loaded = [], []
for argv in {argvs!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(cli.main(argv))
    loaded.append([m for m in ("fractions", "decimal") if m in sys.modules])
print(json.dumps({{"codes": codes, "loaded": loaded}}))
"""
    return run_fresh(code)


def test_core_commands_never_load_fractions():
    # report converts a Fraction without importing fractions (and decimal with it)
    got = fractions_loaded_fresh(CORE_ARGV + [["least", "--p", "43", "--format", "json"]])
    assert got == {"codes": [0] * (len(CORE_ARGV) + 1), "loaded": [[]] * (len(CORE_ARGV) + 1)}


def test_bulk_commands_without_exact_sums_never_load_fractions():
    # surveys imports fractions only inside totient_ratio_sum
    argvs = [
        SURVEY_ARGV,
        ["agreement", "--x", "1000", "--format", "json"],
        ["omega", "--x", "1000"],
        ["fixed-g", "--g", "2", "--x", "1000"],
        ["main-term", "--x", "1000"],
    ]
    assert fractions_loaded_fresh(argvs) == {"codes": [0] * 5, "loaded": [[]] * 5}


def test_import_primroot_loads_neither_lazy_module_nor_numpy():
    # then the package attribute loads the submodule, as perfbench/run.py reads it
    code = f"""
import json, sys
import primroot
import primroot.cli
before = [m for m in {LAZY_MODULES!r} + ["numpy"] if m in sys.modules]
names = [primroot.characters.__name__, primroot.surveys.__name__]
print(json.dumps({{"before": before, "names": names}}))
"""
    assert run_fresh(code) == {"before": [], "names": LAZY_MODULES}


def main_fresh(argv: list[str]) -> dict:
    """cli.main(argv) in a new interpreter: exit code, stdout, and whether numpy loaded."""
    code = f"""
import contextlib, io, json, sys
from primroot import cli
out = io.StringIO()
with contextlib.redirect_stdout(out):
    rc = cli.main({argv!r})
print(json.dumps({{"rc": rc, "out": out.getvalue(), "numpy": "numpy" in sys.modules}}))
"""
    return run_fresh(code)


@pytest.mark.parametrize("argv", NUMPY_FREE_ARGV, ids=lambda argv: argv[0])
def test_small_prime_lists_skip_numpy_and_print_the_same(argv, capsys):
    got = main_fresh(argv)
    assert main(argv) == 0
    assert got == {"rc": 0, "out": capsys.readouterr().out, "numpy": False}


def test_survey_loads_numpy_and_prints_the_same(capsys):
    got = main_fresh(SURVEY_ARGV)
    assert main(SURVEY_ARGV) == 0
    assert got == {"rc": 0, "out": capsys.readouterr().out, "numpy": True}


def test_lazy_names_are_their_modules_objects():
    for module, names in primroot._LAZY_MODULES.items():
        loaded = importlib.import_module(f"primroot.{module}")
        assert getattr(primroot, module) is loaded
        for name in names:
            assert getattr(primroot, name) is getattr(loaded, name)
        assert set(names) <= set(dir(primroot))
    from primroot import stationary_survey

    assert stationary_survey is primroot.surveys.stationary_survey
    with pytest.raises(AttributeError, match="^module 'primroot' has no attribute 'no_such_name'$"):
        primroot.no_such_name
