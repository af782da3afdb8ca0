"""Process running, measurement and output checking shared by the workloads."""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / "perfbench" / "_work"


def program_env() -> dict:
    """Environment for a job process: the checkout's src/ on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


@dataclass
class Job:
    """One finished process: exit code, times and its own peak memory."""

    returncode: int
    wall_s: float
    cpu_s: float
    maxrss_mb: float
    stdout: bytes


def spawn(argv: list[str]) -> Job:
    """Run argv to completion and take its rusage from os.wait4.

    wait4 reports this one child (plus the workers it reaped itself), unlike
    RUSAGE_CHILDREN, whose ru_maxrss is a running maximum over every child
    this process ever waited for.
    """
    WORK.mkdir(parents=True, exist_ok=True)
    out_path = WORK / "stdout.tmp"
    with open(out_path, "wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            argv, stdout=out, stderr=subprocess.DEVNULL, stdin=subprocess.DEVNULL,
            env=program_env(), cwd=ROOT,
        )
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Job(
        returncode=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        maxrss_mb=usage.ru_maxrss / 1024,
        stdout=out_path.read_bytes(),
    )


def cli_argv(args: list) -> list[str]:
    """The `primroot ...` command, run from the checkout's sources."""
    return [sys.executable, "-m", "primroot.cli", *map(str, args)]


def setup_seconds(argv: list[str], repeats: int) -> tuple[float, int]:
    """Median spawn-to-exit time of a trivial call, after one untimed warm-up.

    Returns (median seconds, number of failed calls).
    """
    failed = 0
    times = []
    for i in range(repeats + 1):
        job = spawn(argv)
        failed += job.returncode != 0
        if i:
            times.append(job.wall_s)
    return statistics.median(times), failed


def another_pass_fits(batches, seconds: float) -> bool:
    """Whether one more pass of median length fits in the time budget.

    batches: (items, wall s, cpu s) of the passes measured so far.
    """
    walls = [b[1] for b in batches]
    return sum(walls) + statistics.median(walls) <= seconds


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank q-th percentile (0..100) of a non-empty list.

    Always an observed value, which matters for the CLI workloads, where a
    run has only a handful of job latencies.
    """
    ordered = np.sort(np.asarray(values, dtype=np.float64))
    return float(ordered[max(math.ceil(q / 100 * len(ordered)), 1) - 1])


class Checks:
    """Output checks keyed by operation; an operation fails if any check fails.

    With `inject_fault`, the first expectation is replaced by a wrong value,
    which lets the smoke test prove that a bad output is counted.
    """

    def __init__(self, inject_fault: bool = False):
        self.inject_fault = inject_fault
        self.failed_ops: set = set()
        self.messages: list[str] = []

    def expect(self, op, label: str, got, want) -> bool:
        if self.inject_fault:
            self.inject_fault = False
            want = ("injected wrong expectation", want)
        if got == want:
            return True
        self.fail(op, f"{label}: got {got!r}, want {want!r}")
        return False

    def close(self, op, label: str, got: float, want: float, rel: float) -> bool:
        if self.inject_fault:
            self.inject_fault = False
            want = want * 2 + 1
        if abs(got - want) <= rel * abs(want):
            return True
        self.fail(op, f"{label}: got {got!r}, want {want!r} within {rel}")
        return False

    def fail(self, op, message: str) -> None:
        self.failed_ops.add(op)
        if len(self.messages) < 20:
            self.messages.append(f"{op}: {message}")


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _commit() -> str | None:
    if not (ROOT / ".git").exists():  # a plain source checkout
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return (out.stdout.strip() or None) if out.returncode == 0 else None


def _loadavg() -> str | None:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return None


def environment_start() -> dict:
    """Versions, core count and load at the start of a run (read only)."""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "commit": _commit(),
        "src_sha256": _src_digest(),
        "loadavg_start": _loadavg(),
    }


def record_run(env: dict, args, result: dict, detail: dict, messages: list[str]) -> None:
    """Append one run record to perfbench/_work/runs.jsonl and echo its environment.

    detail holds the per-pass (items, wall, cpu) and per-job timings behind
    the medians, so a noisy run can be told apart from a slow one.
    """
    env["loadavg_end"] = _loadavg()
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "env": env, "result": result, "detail": detail,
        "check_failures": messages,
    }
    WORK.mkdir(parents=True, exist_ok=True)
    with open(WORK / "runs.jsonl", "a") as fh:
        fh.write(json.dumps(record) + "\n")
    print("# env " + json.dumps(env))
    for m in messages:
        print("# check failed: " + m)
