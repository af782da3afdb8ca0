"""primroot benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload survey --seed 1 --seconds 30 --trace 0

--trace 0 measures the end-to-end metrics with no tracing: CLI jobs run as
subprocesses, pointwise queries run in a child interpreter.  --trace 1 runs
the workload's job list in-process (workers = 1), once untraced and once
with spans around every call into primroot's layers, and reports the
per-layer metrics.  Every run checks the program's outputs outside the timed
region; the last stdout line is the result JSON.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import time

import harness
import pointwise
import spans
from harness import metric
from workloads import WORKLOADS

WORKLOAD_NAMES = (*WORKLOADS, "pointwise")
SETUP_REPEATS = 11


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny shrinks every input, for the smoke test")
    ap.add_argument("--inject-fault", action="store_true",
                    help="check against one deliberately wrong expected value")
    return ap.parse_args(argv)


def end_to_end(setup_s, batches, p50_ms, p99_ms, peak_rss_mb) -> dict:
    """batches: (items, wall s, cpu s) per pass of the job list.

    wall_s, cpu_s and items_per_s are run totals per pass: on this kind of
    shared host the speed drifts over tens of seconds, and the total over the
    whole run moves less than the median of a few passes.  The latency
    distribution is reported by its own percentiles.
    """
    passes = len(batches)
    wall = sum(b[1] for b in batches)
    return {
        "setup_s": metric(setup_s, "s"),
        "wall_s": metric(wall / passes, "s"),
        "cpu_s": metric(sum(b[2] for b in batches) / passes, "s"),
        "items_per_s": metric(sum(b[0] for b in batches) / wall, "1/s"),
        "query_p50_ms": metric(p50_ms, "ms"),
        "query_p99_ms": metric(p99_ms, "ms"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
    }


# -- untraced runs --------------------------------------------------------------


def measure_setup(argv: list[str], checks) -> float:
    setup_s, failed = harness.setup_seconds(argv, SETUP_REPEATS)
    for i in range(failed):
        checks.fail(("setup", i), "set-up call exited nonzero")
    return setup_s


def run_cli(wl, args, checks) -> tuple[dict, int, dict]:
    setup_s = measure_setup(harness.cli_argv(["least", "--p", 43]), checks)
    commands = wl.commands()
    batches, latencies, outputs, jobs, peak = [], [], [], [], 0.0
    while True:
        out, wall, cpu = {}, 0.0, 0.0
        for cmd in commands:
            job = harness.spawn(harness.cli_argv(cmd.args))
            if job.returncode != 0:
                checks.fail((len(outputs), cmd.label), f"exit code {job.returncode}")
            out[cmd.label] = job.stdout
            jobs.append((cmd.label, job.wall_s, job.cpu_s, job.maxrss_mb))
            wall += job.wall_s
            cpu += job.cpu_s
            peak = max(peak, job.maxrss_mb)
        outputs.append(out)
        batches.append((sum(c.items for c in commands), wall, cpu))
        latencies.append(wall * 1e3)  # one query of a CLI workload is one pass
        if not harness.another_pass_fits(batches, args.seconds):
            break
    check_outputs(wl, checks, outputs)
    attempted = len(outputs) * len(commands) + SETUP_REPEATS + 1
    detail = {"passes": batches, "jobs": jobs}
    p50, p99 = (harness.percentile(latencies, q) for q in (50, 99))
    return end_to_end(setup_s, batches, p50, p99, peak), attempted, detail


def check_outputs(wl, checks, outputs: list[dict]) -> None:
    """Full checks on the first pass; every later pass must repeat it byte for byte."""
    first = outputs[0]
    try:
        wl.check(checks, first, lambda label: (0, label))
    except (ValueError, KeyError, IndexError, TypeError) as exc:  # malformed output
        for label in first:
            checks.fail((0, label), f"output could not be checked: {exc!r}")
    for i, out in enumerate(outputs[1:], 1):
        for label, data in out.items():
            checks.expect((i, label), f"{label} output repeats", data, first[label])


def run_pointwise(args, checks) -> tuple[dict, int, dict]:
    setup_s = measure_setup([sys.executable, "-c", "import primroot"], checks)
    out_path = harness.WORK / "pointwise.json"
    out_path.unlink(missing_ok=True)
    argv = [sys.executable, str(harness.ROOT / "perfbench" / "pointwise.py"), "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--size", args.size, "--out", str(out_path)]
    job = harness.spawn(argv + (["--inject-fault"] if args.inject_fault else []))
    if job.returncode != 0 or not out_path.exists():
        raise SystemExit(f"pointwise job failed with exit code {job.returncode}")
    rep = json.loads(out_path.read_text())
    checks.failed_ops.update(rep["failed_ops"])
    checks.messages += rep["messages"]
    metrics = end_to_end(setup_s, rep["batches"], rep["p50_ms"], rep["p99_ms"], job.maxrss_mb)
    return metrics, rep["attempted"] + SETUP_REPEATS + 1, {"passes": rep["batches"]}


# -- traced runs ----------------------------------------------------------------


def _clear_caches(primroot) -> None:
    """Empty the library's lru caches, so both passes do the same work."""
    for module in (primroot.characters, primroot.surveys):
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


def _bsgs_stats(primroot) -> tuple[int, int]:
    """(hits, lookups) of the baby-step table cache since the last clear."""
    info = getattr(getattr(primroot.characters, "_bsgs_table", None), "cache_info", None)
    if info is None:
        return 0, 0
    stats = info()
    return stats.hits, stats.hits + stats.misses


def cli_pass(primroot, commands, tracer=None) -> tuple[float, dict, dict]:
    """All commands via cli.main in this process; (wall s, outputs, exit codes)."""
    _clear_caches(primroot)
    outputs, codes = {}, {}
    t0 = time.perf_counter()
    for cmd in commands:
        argv = [str(a) for a in cmd.args]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            try:
                if tracer is None:
                    codes[cmd.label] = primroot.cli.main(argv)
                else:
                    codes[cmd.label] = tracer.call("cli.main", spans.CLI_GROUP, primroot.cli.main, argv)
            except SystemExit as exc:
                codes[cmd.label] = exc.code
        outputs[cmd.label] = buf.getvalue().encode()
    return time.perf_counter() - t0, outputs, codes


def trace_cli(wl, primroot, tracer, checks) -> tuple[float, float, int, int]:
    commands = [c for c in wl.commands() if c.traced]
    plain_s, plain_out, _ = cli_pass(primroot, commands)
    tracer.install()
    try:
        traced_s, outputs, codes = cli_pass(primroot, commands, tracer)
    finally:
        tracer.uninstall()
    for label, code in codes.items():
        if code != 0:
            checks.fail((0, label), f"exit code {code}")
    check_outputs(wl, checks, [outputs, plain_out])
    output_bytes = sum(len(v) for v in outputs.values())
    return plain_s, traced_s, output_bytes, 2 * len(commands)


def trace_pointwise(args, primroot, tracer, checks) -> tuple[float, float, int, int]:
    pools = pointwise.Pools(args.seed, args.size)
    batch = pointwise.make_batch(pointwise.query_rng(args.seed), pools, pointwise.TRACE_QUERIES[args.size])
    _clear_caches(primroot)
    plain, _, plain_s, _ = pointwise.timed_batch(primroot, batch)
    _clear_caches(primroot)
    tracer.install()
    try:
        results, _, traced_s, _ = pointwise.timed_batch(primroot, batch)
    finally:
        tracer.uninstall()
    pointwise.check_all(checks, batch, results, pointwise.known_exceptions(primroot), {})
    for op, (a, b) in enumerate(zip(plain, results)):
        if isinstance(a, Exception):
            checks.fail(("untraced", op), f"raised {a!r}")
        else:
            checks.expect(("untraced", op), "untraced answer equals traced", a, b)
    return plain_s, traced_s, 0, 2 * len(batch)


def run_traced(args, checks) -> tuple[dict, int, dict]:
    sys.path.insert(0, str(harness.SRC))
    import primroot
    import primroot.cli

    tracer = spans.Tracer()
    if args.workload == "pointwise":
        plain_s, traced_s, output_bytes, attempted = trace_pointwise(args, primroot, tracer, checks)
    else:
        wl = WORKLOADS[args.workload](args.seed, args.size)
        plain_s, traced_s, output_bytes, attempted = trace_cli(wl, primroot, tracer, checks)
    hits, lookups = _bsgs_stats(primroot)
    tracer.write(harness.WORK / f"spans-{args.workload}.csv.gz")
    metrics = spans.layer_metrics(tracer, plain_s, traced_s, output_bytes, hits, lookups)
    return metrics, attempted, {"untraced_s": plain_s, "traced_s": traced_s}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (harness.SRC / "primroot" / "__init__.py").is_file():
        print(f"error: no primroot sources under {harness.SRC}", file=sys.stderr)
        return 2
    env = harness.environment_start()
    checks = harness.Checks(args.inject_fault)
    if args.trace:
        metrics, attempted, detail = run_traced(args, checks)
    elif args.workload == "pointwise":
        metrics, attempted, detail = run_pointwise(args, checks)
    else:
        metrics, attempted, detail = run_cli(WORKLOADS[args.workload](args.seed, args.size), args, checks)
    failed = len(checks.failed_ops)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    harness.record_run(env, args, result, detail, checks.messages)
    print(f"# fail_ratio {failed / attempted:.6g} ({failed}/{attempted} operations)")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
