import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import primroot
from primroot.cli import main
from primroot.report import SCHEMA_VERSION, as_dict, render
from primroot.surveys import SURVEY_COLUMNS, SurveyRow, stationary_survey


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_least_json(capsys):
    rc, out, _ = run_cli(capsys, "least", "--p", "40487", "--format", "json")
    assert rc == 0
    data = json.loads(out)
    assert (data["g"], data["h"], data["gs"]) == (5, 10, 10)
    assert data["schema_version"] == 1


def test_classify_table_output(capsys):
    rc, out, _ = run_cli(capsys, "test", "--g", "19", "--p", "43")
    assert rc == 0
    assert out.strip() == "Nonstationary"
    rc, out, _ = run_cli(capsys, "test", "--g", "3", "--p", "43")
    assert out.strip() == "Stationary"


def test_period_json(capsys):
    rc, out, _ = run_cli(
        capsys, "period", "--base", "10", "--p", "7", "--k", "2", "--format", "json"
    )
    assert rc == 0
    data = json.loads(out)
    assert data["period"] == 42
    assert data["maximal"] is True


def test_order_json(capsys):
    rc, out, _ = run_cli(capsys, "order", "--a", "10", "--n", "343", "--format", "json")
    assert rc == 0
    data = json.loads(out)
    assert data["order"] == 294
    assert data["is_primitive_root"] is True


def test_order_csv_writes_bools_as_digits(capsys):
    rc, out, _ = run_cli(capsys, "order", "--a", "10", "--n", "343", "--format", "csv")
    assert rc == 0
    assert out == "schema_version,element,modulus,order,group_order,is_primitive_root\n1,10,343,294,294,1\n"


def test_lift_modes(capsys):
    rc, out, _ = run_cli(
        capsys, "lift", "--p", "43", "--tau", "19", "--format", "json"
    )
    assert rc == 0
    assert json.loads(out)["bad_residue"] == 0

    rc, out, _ = run_cli(
        capsys, "lift", "--p", "43", "--tau", "19", "--mode", "pairs",
        "--kmax", "2", "--format", "json",
    )
    data = json.loads(out)
    assert data["all_pairs_ok"] is True
    assert data["steps"][1]["shifted_ok"] is True

    rc, out, _ = run_cli(
        capsys, "lift", "--p", "5", "--mode", "enumerate", "--format", "json"
    )
    data = json.loads(out)
    assert data["count"] == 8  # phi(phi(25))
    rc, _, err = run_cli(capsys, "lift", "--p", "5", "--mode", "pairs")
    assert rc == 2  # --tau missing


def test_psi_modes(capsys):
    rc, out, _ = run_cli(
        capsys, "psi", "--u", "6", "--n", "41", "--format", "json"
    )
    data = json.loads(out)
    assert data["psi"] == 1 and data["order_test"] == 1 and data["agree"]

    rc, out, _ = run_cli(
        capsys, "psi", "--formula", "s", "--g", "19", "--p", "43", "--format", "json"
    )
    data = json.loads(out)
    assert data["formula"] == "1/2"
    assert data["table"] == 0
    assert data["class"] == "Nonstationary"


def test_charsum_seeded(capsys):
    rc, out1, _ = run_cli(
        capsys, "charsum", "--trials", "5", "--seed", "9", "--format", "json"
    )
    assert rc == 0
    data = json.loads(out1)
    assert data["all_within_bound"] is True
    rc, out2, _ = run_cli(
        capsys, "charsum", "--trials", "5", "--seed", "9", "--format", "json"
    )
    assert out1 == out2
    rc, out3, _ = run_cli(
        capsys, "charsum", "--trials", "5", "--seed", "10", "--format", "json"
    )
    assert out1 != out3


def test_constants_json(capsys):
    rc, out, _ = run_cli(capsys, "constants", "--primes", "100", "--format", "json")
    data = json.loads(out)
    assert abs((data["a1"] + data["a2"]) / 2 - data["c2"]) < 1e-15


def test_survey_csv_roundtrip(capsys):
    rc, out, err = run_cli(
        capsys, "survey", "--x", "10", "--z", "5", "--format", "csv"
    )
    assert rc == 0
    # data stream is machine clean: header plus one line per prime
    header, *lines = out.splitlines()
    assert header == ",".join(("schema_version", *SURVEY_COLUMNS))
    cells = [[int(c) for c in line.split(",")] for line in lines]
    assert {ver for ver, *_ in cells} == {SCHEMA_VERSION}
    assert tuple(SurveyRow(*row) for _, *row in cells) == stationary_survey(10, 5).rows


def test_survey_json_roundtrip(capsys):
    rc, out, _ = run_cli(capsys, "survey", "--x", "10", "--z", "5", "--format", "json")
    assert json.loads(out) == as_dict(stationary_survey(10, 5))


def test_workers_do_not_change_bytes(capsys):
    rc, out1, _ = run_cli(
        capsys, "survey", "--x", "100", "--z", "10", "--format", "csv", "--workers", "1"
    )
    rc, out2, _ = run_cli(
        capsys, "survey", "--x", "100", "--z", "10", "--format", "csv", "--workers", "2"
    )
    assert out1 == out2


def test_agreement_json(capsys):
    rc, out, _ = run_cli(capsys, "agreement", "--x", "10", "--format", "json")
    data = json.loads(out)
    assert data["n_disagree"] == 0


def test_omega_and_fixed_g_and_gs(capsys):
    rc, out, _ = run_cli(capsys, "omega", "--x", "100", "--format", "json")
    assert rc == 0
    assert json.loads(out)["x"] == 100

    rc, out, _ = run_cli(capsys, "fixed-g", "--g", "2", "--x", "100", "--format", "json")
    assert rc == 0
    assert 0 <= json.loads(out)["fraction"] <= 1

    rc, out, _ = run_cli(capsys, "gs-stats", "--x", "100", "--format", "json")
    assert rc == 0
    assert json.loads(out)["count"] > 0

    rc, out, _ = run_cli(capsys, "totient", "--x", "100", "--k", "2", "--format", "json")
    assert rc == 0
    assert json.loads(out)["exact"] is True


def test_contract_errors_exit_2(capsys):
    rc, _, err = run_cli(capsys, "test", "--g", "3", "--p", "42")
    assert rc == 2
    assert "error" in err
    rc, _, _ = run_cli(capsys, "fixed-g", "--g", "4", "--x", "100")
    assert rc == 2
    rc, _, _ = run_cli(capsys, "order", "--a", "5", "--n", "12")
    assert rc == 2
    rc, _, _ = run_cli(capsys, "survey", "--x", "10", "--z", "1000")
    assert rc == 2
    rc, _, err = run_cli(capsys, "psi", "--formula", "s", "--g", "-1846", "--p", "43")
    assert rc == 2  # g < 1, as for test, not a false NotCoprime mismatch
    assert "g must be >= 1" in err


@pytest.mark.parametrize("value", ["0", "-1"])
@pytest.mark.parametrize(
    "argv, flag",
    [
        (["totient", "--x", "100", "--k"], "--k"),
        (["constants", "--primes"], "--primes"),
        (["lift", "--p", "43", "--tau", "19", "--mode", "pairs", "--kmax"], "--kmax"),
        (["lift", "--p", "5", "--mode", "enumerate", "--k"], "--k"),
        (["charsum", "--trials"], "--trials"),
        (["charsum", "--p"], "--p"),
        (["survey", "--x", "10", "--z", "5", "--workers"], "--workers"),
        (["agreement", "--x", "10", "--workers"], "--workers"),
    ],
)
def test_explicit_nonpositive_values_exit_2(capsys, argv, flag, value):
    # an explicit 0 used to fall back to the default silently
    with pytest.raises(SystemExit) as exc:
        main(argv + [value])
    assert exc.value.code == 2
    assert f"argument {flag}: must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("x", [268435458, 10000000000])
def test_omega_over_the_span_guard_exits_2_before_allocating(capsys, x):
    # 2**28 + 2 is the first x whose walk over m in [1, x] is wider than the guard
    import tracemalloc

    import primroot._kernel  # noqa: F401  numpy loads before the measurement

    tracemalloc.start()
    try:
        rc, out, err = run_cli(capsys, "omega", "--x", str(x))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (rc, out) == (2, "")
    assert err == f"error: range width {x - 1} exceeds budget 268435456\n"
    assert peak < 1 << 20  # one segment's cofactor buffer alone takes 2 MiB


@pytest.mark.parametrize("p", [10007, 1000000007])
def test_lift_enumerate_over_the_table_budget_exits_2_before_the_scan(capsys, p):
    # mod 10007^2 there are phi(10006) * 10006 = 50,050,012 roots, 44 bytes each
    t0 = time.perf_counter()
    rc, out, err = run_cli(capsys, "lift", "--p", str(p), "--mode", "enumerate")
    elapsed = time.perf_counter() - t0
    assert (rc, out) == (2, "")
    assert err.startswith("error: ") and err.endswith("-byte budget\n")
    assert elapsed < 0.5  # the scan for the roots mod 10**9 + 7 alone would take hours


def test_lift_over_budget_at_a_high_level_says_how_many_digits(capsys):
    # phi(phi(5**1001)) has 700 digits: the message gives their count, not the digits
    rc, out, err = run_cli(capsys, "lift", "--p", "5", "--mode", "enumerate", "--k", "1000")
    assert (rc, out) == (2, "")
    assert err.count("\n") == 1 and len(err.encode()) < 200
    assert "a 700-digit number of lift roots" in err and err.endswith("-byte budget\n")


def test_lift_far_over_budget_is_refused_before_any_power_is_built(capsys):
    # 5**(10**7) alone takes seconds to build; the refusal weighs it by its log2
    start = time.perf_counter()
    rc, out, err = run_cli(capsys, "lift", "--p", "5", "--mode", "enumerate", "--k", "10000000")
    assert time.perf_counter() - start < 1
    assert (rc, out) == (2, "")
    assert "a 6989701-digit number of lift roots" in err and err.endswith("-byte budget\n")


def test_lift_pairs_past_the_bit_budget_is_refused_at_once(capsys):
    # 1000003**3000 has 59795 bits; checking its levels would run for hours
    start = time.perf_counter()
    argv = ["lift", "--p", "1000003", "--tau", "2", "--mode", "pairs", "--kmax", "3000"]
    rc, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert (rc, out) == (2, "")
    assert "59795-bit modulus" in err and err.endswith("over the 512-bit budget\n")


def test_a_large_modulus_that_is_no_prime_power_is_refused_at_once(capsys):
    # a 39-digit semiprime: refused by integer roots, never handed to rho
    start = time.perf_counter()
    rc, out, err = run_cli(capsys, "order", "--a", "2", "--n", "300000000000000001940000000000000002091")
    assert time.perf_counter() - start < 1
    assert (rc, out) == (2, "")
    assert err == "error: 300000000000000001940000000000000002091 does not have a cyclic unit group\n"


def test_large_periods_answer_or_exit_2_at_once(capsys):
    # 10 = 1 mod 3 and 10 - 1 = 3**2, so the period of 1/3^k is 3**(k - 2): 3817 digits
    # at k = 8000, and 9542 at k = 20000, past the 4300 that int-to-str conversion takes
    start = time.perf_counter()
    rc, out, err = run_cli(capsys, "period", "--base", "10", "--p", "3", "--k", "8000", "--format", "json")
    assert (rc, err) == (0, "")
    assert json.loads(out)["period"] == 3**7998
    rc, out, err = run_cli(capsys, "period", "--base", "10", "--p", "3", "--k", "20000")
    assert (rc, out) == (2, "")
    assert err == (
        "error: the period of 1/3^20000 in base 10 has 9542 digits, "
        "over the interpreter's 4300-digit limit for printing an int\n"
    )
    # 3**(10**7) alone takes seconds to build: v is read mod 3**2, the digits off log10
    rc, out, err = run_cli(capsys, "period", "--base", "10", "--p", "3", "--k", "10000000")
    assert time.perf_counter() - start < 1
    assert (rc, out) == (2, "")
    assert "has 4771212 digits" in err


def test_rho_past_its_step_cap_exits_2(capsys, monkeypatch):
    # p - 1 = 2 * 62547923166421707407 * 25564905056860924567: rho meets a 40-digit semiprime
    from primroot import arith

    monkeypatch.setattr(arith, "RHO_STEPS", 1 << 12)
    rc, out, err = run_cli(capsys, "least", "--p", "3198063434506805761572335654361544335539")
    assert (rc, out) == (2, "")
    assert err == "error: Brent rho found no factor of a 40-digit cofactor in 4096 steps\n"


def test_usage_errors_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["nonsense"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["least"])  # missing --p
    assert exc.value.code == 2


def test_output_file(tmp_path, capsys):
    target = tmp_path / "least.json"
    rc = main(["least", "--p", "43", "--format", "json", "--output", str(target)])
    assert rc == 0
    assert capsys.readouterr().out == ""
    assert json.loads(target.read_text())["g"] == 3


def test_output_to_missing_directory_exits_2(tmp_path, capsys):
    target = tmp_path / "missing" / "least.json"
    rc, out, err = run_cli(capsys, "least", "--p", "43", "--output", str(target))
    assert rc == 2
    assert out == ""
    assert f"error: cannot write --output {target}" in err
    assert not target.parent.exists()


def test_output_is_replaced_whole_or_not_at_all(tmp_path, capsys, monkeypatch):
    target = tmp_path / "least.json"
    target.write_text("old\n")
    assert main(["least", "--p", "42", "--output", str(target)]) == 2  # 42 is not prime
    assert target.read_text() == "old\n"

    def failing_replace(src, dst):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr("primroot.cli.os.replace", failing_replace)
    assert main(["least", "--p", "43", "--output", str(target)]) == 2
    assert "No space left on device" in capsys.readouterr().err
    assert [f.name for f in tmp_path.iterdir()] == ["least.json"]  # no temp file left
    assert target.read_text() == "old\n"


def test_output_to_symlink_or_device_is_written_in_place(tmp_path, capsys):
    target = tmp_path / "least.json"
    target.write_text("old\n")
    link = tmp_path / "link.json"
    link.symlink_to(target)
    assert main(["least", "--p", "43", "--format", "json", "--output", str(link)]) == 0
    assert link.is_symlink()
    assert json.loads(target.read_text())["g"] == 3
    assert main(["least", "--p", "43", "--output", os.devnull]) == 0
    assert sorted(f.name for f in tmp_path.iterdir()) == ["least.json", "link.json"]


def test_survey_flags_reach_the_run(capsys):
    rc, out, _ = run_cli(
        capsys, "survey", "--x", "50", "--z", "5", "--workers", "3", "--format", "csv"
    )
    assert rc == 0
    assert out == render(stationary_survey(50, 5), "csv", {"rows": SURVEY_COLUMNS}, None) + "\n"


def test_progress_goes_to_stderr_only(capsys):
    rc, out, err = run_cli(capsys, "gs-stats", "--x", "3000", "--format", "json")
    assert rc == 0
    json.loads(out)  # stdout parses cleanly
    assert "gs-stats" in err  # progress lines live on stderr


GOLDEN_LEAST_40487 = '{"schema_version": 1, "p": 40487, "g": 5, "h": 10, "gs": 10}\n'
GOLDEN_SURVEY_X10_Z5 = (
    "schema_version,p,z,n_pr,n_s,n_n,g,h,gs\n"
    "1,11,5,4,4,0,2,2,2\n"
    "1,13,5,3,3,0,2,2,2\n"
    "1,17,5,5,5,0,3,3,3\n"
    "1,19,5,3,3,0,2,2,2\n"
)


def test_golden_bytes(capsys):
    rc, out, _ = run_cli(capsys, "least", "--p", "40487", "--format", "json")
    assert out == GOLDEN_LEAST_40487
    rc, out, _ = run_cli(capsys, "survey", "--x", "10", "--z", "5", "--format", "csv")
    assert out == GOLDEN_SURVEY_X10_Z5


@pytest.mark.parametrize(
    "argv",
    [
        "survey --x 3000 --z 20 --format csv --workers 2",
        "agreement --x 40000",
        "least --p 40487 --format json",
        "period --base 10 --p 7 --k 2 --format json",
        "period --base 10 --p 3 --k 20000",
    ],
)
def test_optimized_interpreter_prints_the_same_bytes(capsys, argv):
    # python -O strips asserts: every check the CLI relies on is a raise
    env = {**os.environ, "PYTHONPATH": str(Path(primroot.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-O", "-m", "primroot.cli", *argv.split()],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert (done.returncode, done.stdout, done.stderr) == run_cli(capsys, *argv.split())


def test_the_process_entry_writes_everything_before_it_exits(tmp_path, capsys):
    # entry() freezes the heap after main returns: the --output file, stdout
    # and the exit status of a process are those of main in-process
    env = {**os.environ, "PYTHONPATH": str(Path(primroot.__file__).parents[1])}
    target = tmp_path / "survey.csv"
    argv = ["survey", "--x", "3000", "--z", "20", "--format", "csv"]
    runs = [
        subprocess.run(
            [sys.executable, "-m", "primroot.cli", *args], env=env, capture_output=True, text=True, timeout=120
        )
        for args in (argv, [*argv, "--output", str(target)], ["least", "--p", "42"])
    ]
    assert [r.returncode for r in runs] == [0, 0, 2]
    _, want, _ = run_cli(capsys, *argv)
    assert runs[0].stdout == target.read_text() == want
    assert runs[1].stdout == ""
    assert runs[2].stderr.startswith("error: ")
