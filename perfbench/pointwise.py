"""The pointwise workload: seeded in-process library queries on large inputs.

Run as a script, this is the job process: it imports primroot, runs query
batches until its time is up, checks every answer afterwards and writes a
JSON summary.  run.py spawns it so that its CPU time and peak memory can be
read from os.wait4, apart from the harness's own.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
import time
from array import array
from dataclasses import dataclass
from pathlib import Path

import harness
import oracles

# (kind, weight).  factorize and is_prime exercise Brent rho and wide
# Miller-Rabin; the roots queries run on 9-10 digit primes; psi and dlog
# run BSGS at p ~ 1e5; lift enumerates all roots mod p^2 for small p.
KINDS = (
    ("factorize", 4), ("is_prime", 4), ("least_roots", 2), ("bad_lift", 2),
    ("classify", 3), ("period", 2), ("propagation", 1), ("psi", 2),
    ("dlog", 2), ("lift", 1),
)
EXCEPTION_PRIMES = (40487, 6692367337)
BATCH_QUERIES = {"full": 500, "tiny": 20}  # queries per timed pass
TRACE_QUERIES = {"full": 2000, "tiny": 40}  # queries in the traced run


@dataclass(frozen=True)
class PrimeInfo:
    p: int
    p1_primes: tuple[int, ...]  # distinct primes of p - 1
    g: int  # least primitive root mod p
    h: int  # least primitive root mod p^2 (a stationary root)


def _info(p: int) -> PrimeInfo:
    p1 = tuple(oracles.prime_divisors(p - 1))
    g, h = oracles.least_roots(p, p1)
    return PrimeInfo(p, p1, g, h)


class Pools:
    """Seeded input pools, with oracle facts computed before any timing."""

    def __init__(self, seed: int, size: str):
        rng = random.Random(seed)
        count = 32 if size == "full" else 4
        large = {oracles.next_prime(rng.randrange(10**9, 10**10)) for _ in range(count)}
        self.large = [_info(p) for p in sorted(large | {EXCEPTION_PRIMES[1]})]
        mid = {oracles.next_prime(rng.randrange(90_000, 110_000)) for _ in range(count)}
        self.mid = [_info(p) for p in sorted(mid)]
        self.small = []
        for p in (q for q in range(5, 60) if oracles.is_prime(q)):
            info = _info(p)
            roots = [g for g in range(1, p) if oracles.generates(g, p, p - 1, info.p1_primes)]
            self.small.append((info, roots))
        self.wide_primes = [
            oracles.next_prime(rng.randrange(10 ** (d - 1), 10**d))
            for d in rng.choices(range(12, 20), k=2 * count)
        ]
        self.exceptions = [_info(p) for p in EXCEPTION_PRIMES]


def query_rng(seed: int) -> random.Random:
    """The query stream's generator, kept apart from the pools' own."""
    return random.Random(seed ^ 0x5EED)


def make_batch(rng: random.Random, pools: Pools, n: int) -> list[tuple]:
    """n queries (kind, args, info) drawn from the pools."""
    kinds = rng.choices([k for k, _ in KINDS], weights=[w for _, w in KINDS], k=n)
    out = []
    for kind in kinds:
        info = None
        if kind == "factorize":
            args = (rng.randrange(2, 10**18),)
        elif kind == "is_prime":
            if rng.random() < 0.5:
                args = (rng.choice(pools.wide_primes),)
            else:
                args = (rng.randrange(10**11, 10**19) | 1,)
        elif kind == "least_roots":
            info = rng.choice(pools.exceptions if rng.random() < 0.05 else pools.large)
            args = (info.p,)
        elif kind == "bad_lift":
            info = rng.choice(pools.large)
            args = (info.g, info.p)
        elif kind == "classify":
            info = rng.choice(pools.large)
            args = (rng.randrange(2, 201), info.p)
        elif kind == "period":
            info = rng.choice(pools.large)
            args = (10, info.p, 2)
        elif kind == "propagation":
            info = rng.choice(pools.large)
            args = (info.h, info.p, 4)
        elif kind in ("psi", "dlog"):
            info = rng.choice(pools.mid)
            args = (rng.randrange(1, info.p), info.p)
        else:  # lift
            info, roots = rng.choice(pools.small)
            args = (info.p, 1, roots)
        out.append((kind, args, info))
    return out


def run_query(lib, kind: str, args: tuple):
    """One library call, resolved through the module attributes at call time."""
    if kind == "factorize":
        return lib.arith.factorize(*args).factors
    if kind == "is_prime":
        return lib.arith.is_prime(*args)
    if kind == "least_roots":
        r = lib.roots.least_roots(*args)
        return (r.g, r.h, r.gs)
    if kind == "bad_lift":
        return lib.roots.bad_lift_residue(*args)
    if kind == "classify":
        return lib.roots.classify(*args).value
    if kind == "period":
        r = lib.surveys.period(*args)
        return (r.period, r.maximal)
    if kind == "propagation":
        return lib.roots.stationary_propagation(*args)
    if kind == "psi":
        u, p = args
        spec = lib.roots.CyclicGroupSpec.for_prime(p).with_generator()
        return lib.characters.psi_indicator(u, spec)
    if kind == "dlog":
        u, p = args
        spec = lib.roots.CyclicGroupSpec.for_prime(p).with_generator()
        return (spec.generator, lib.characters.discrete_log(u, spec))
    return lib.roots.lift_enumerate(*args)


def check_query(checks: harness.Checks, op, kind: str, args: tuple, info, got, known) -> None:
    """Verify one answer against the oracles."""
    if kind == "factorize":
        (n,) = args
        ps = [p for p, _ in got]
        ok = (
            math.prod(p**e for p, e in got) == n
            and ps == sorted(set(ps))
            and all(e >= 1 and oracles.is_prime(p) for p, e in got)
        )
        checks.expect(op, f"factorize({n}) recomposes into primes", ok, True)
    elif kind == "is_prime":
        checks.expect(op, f"is_prime{args}", got, oracles.is_prime(args[0]))
    elif kind == "least_roots":
        p = args[0]
        want = (info.g, info.h, info.h)
        if p in known:
            want = (*known[p], known[p][1])
        checks.expect(op, f"least_roots({p})", got, want)
        checks.expect(op, f"least_roots({p}) vs oracle", got, (info.g, info.h, info.h))
    elif kind == "bad_lift":
        tau, p = args
        ok = 0 <= got < p and pow(tau + got * p, p - 1, p * p) == 1
        checks.expect(op, f"bad_lift_residue{args} fails to lift", ok, True)
    elif kind == "classify":
        g, p = args
        if g % p == 0:
            want = "NotCoprime"
        elif not oracles.generates(g, p, p - 1, info.p1_primes):
            want = "NotRoot"
        else:
            want = "Stationary" if pow(g, p - 1, p * p) != 1 else "Nonstationary"
        checks.expect(op, f"classify{args}", got, want)
    elif kind == "period":
        base, p, _ = args
        t, maximal = got
        order = p * (p - 1)
        ok = oracles.is_order(base, t, p * p, order, (p, *info.p1_primes))
        checks.expect(op, f"period{args} is the order of the base", ok, True)
        checks.expect(op, f"period{args} maximal flag", maximal, t == order)
    elif kind == "propagation":
        checks.expect(op, f"stationary_propagation{args}", got, True)
    elif kind == "psi":
        u, p = args
        checks.expect(op, f"psi_indicator{args} vs order test", got,
                      int(oracles.generates(u, p, p - 1, info.p1_primes)))
    elif kind == "dlog":
        u, p = args
        gen, t = got
        ok = oracles.generates(gen, p, p - 1, info.p1_primes) and 0 <= t < p - 1 and pow(gen, t, p) == u
        checks.expect(op, f"discrete_log{args}", ok, True)
    else:
        p, _, _ = args
        p2 = p * p
        order = p * (p - 1)
        order_primes = sorted({p, *info.p1_primes})
        phi_order = math.prod(q - 1 for q in order_primes) * order // math.prod(order_primes)
        ok = (
            len(got) == phi_order
            and got == sorted(set(got))
            and all(1 <= r <= p2 and oracles.generates(r, p2, order, order_primes) for r in got)
        )
        checks.expect(op, f"lift_enumerate({p}, 1) is every root mod p^2", ok, True)


def known_exceptions(lib) -> dict[int, tuple[int, int]]:
    """The catalogued primes whose least root mod p fails mod p^2: p -> (g, h)."""
    return {p: (g, h) for p, g, h in lib.surveys.KNOWN_LEAST_ROOT_EXCEPTIONS}


def check_all(checks: harness.Checks, queries, results, known, lifts: dict, start: int = 0) -> None:
    """Check every answer; operation ids count from `start`.

    lift_enumerate answers are checked in full once per prime (a few
    thousand Lucas tests each) and must then repeat exactly; `lifts` keeps
    them, so it holds at most one list per small prime.
    """
    for op, ((kind, args, info), got) in enumerate(zip(queries, results), start):
        if isinstance(got, Exception):
            checks.fail(op, f"{kind}{args[:2]} raised {got!r}")
        elif kind == "lift" and args[0] in lifts:
            checks.expect(op, f"lift_enumerate({args[0]}, 1) repeats", got, lifts[args[0]])
        else:
            check_query(checks, op, kind, args, info, got, known)
            if kind == "lift":
                lifts[args[0]] = got


def timed_batch(lib, batch) -> tuple[list, list[float], float, float]:
    """Run a batch; returns results, per-query ms, batch wall s and CPU s."""
    results, lat = [], []
    c0 = time.process_time()
    w0 = time.perf_counter()
    for kind, args, _ in batch:
        t0 = time.perf_counter()
        try:
            results.append(run_query(lib, kind, args))
        except Exception as exc:  # a raising query is a failed operation, not a crash
            results.append(exc)
        lat.append((time.perf_counter() - t0) * 1e3)
    return results, lat, time.perf_counter() - w0, time.process_time() - c0


def _library():
    import primroot.arith
    import primroot.characters
    import primroot.roots
    import primroot.surveys

    return primroot


def main() -> int:
    ap = argparse.ArgumentParser(description="pointwise job process")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--out", required=True)
    ap.add_argument("--inject-fault", action="store_true")
    args = ap.parse_args()

    lib = _library()
    pools = Pools(args.seed, args.size)
    rng = query_rng(args.seed)
    checks = harness.Checks(args.inject_fault)
    known = known_exceptions(lib)
    lifts: dict = {}
    latencies, batches = array("d"), []  # compact, so job memory barely grows with the run
    while True:
        batch = make_batch(rng, pools, BATCH_QUERIES[args.size])
        results, lat, wall, cpu = timed_batch(lib, batch)
        # checked batch by batch, so the answers need not stay in memory
        check_all(checks, batch, results, known, lifts, len(latencies))
        latencies.extend(lat)
        batches.append((len(batch), wall, cpu))
        if not harness.another_pass_fits(batches, args.seconds):
            break

    Path(args.out).write_text(json.dumps({
        "batches": batches,
        "p50_ms": harness.percentile(latencies, 50),
        "p99_ms": harness.percentile(latencies, 99),
        "attempted": len(latencies),
        "failed_ops": sorted(checks.failed_ops),
        "messages": checks.messages,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
