"""The CLI workloads: inputs from the seed, the job list, and output checks.

Each workload runs `primroot <subcommand>` jobs; `items` is the work one job
does in the workload's own unit (see BENCHMARK.json).
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass

import numpy as np

import harness
import oracles


@dataclass(frozen=True)
class Command:
    label: str
    args: tuple
    items: int
    traced: bool = True  # part of the in-process traced job list (workers = 1)


def _near(rng: random.Random, base: int) -> int:
    """base moved by at most 1% either way."""
    return base + rng.randrange(-(base // 100), base // 100 + 1)


class Survey:
    """survey at workers 1 and 2 plus agreement over the window [x, 2x]."""

    name = "survey"

    def __init__(self, seed: int, size: str):
        rng = random.Random(seed)
        self.x = _near(rng, 10_000 if size == "full" else 400)
        self.z = 100 if size == "full" else 20
        self.sample_seed = rng.randrange(1 << 32)
        flags = oracles.prime_flags(2 * self.x)
        self.primes = [int(p) for p in np.flatnonzero(flags[self.x :]) + self.x if p % 2]

    def commands(self) -> list[Command]:
        survey = ("survey", "--x", self.x, "--z", self.z, "--format", "csv")
        pairs = len(self.primes) * (2 * self.z - 1)
        return [
            Command("survey_w1", survey + ("--workers", 1), pairs),
            Command("survey_w2", survey + ("--workers", 2), pairs, traced=False),
            Command("agreement", ("agreement", "--x", self.x, "--format", "json"), 0),
        ]

    def check(self, checks: harness.Checks, out: dict[str, bytes], op) -> None:
        text = out["survey_w1"].decode()
        lines = text.splitlines()
        checks.expect(op("survey_w1"), "CSV header", lines[:1], ["schema_version,p,z,n_pr,n_s,n_n,g,h,gs"])
        rows = [tuple(int(c) for c in ln.split(",")) for ln in lines[1:]]
        checks.expect(op("survey_w1"), "survey primes", [r[1] for r in rows], self.primes)
        disagree = []
        for ver, p, z, n_pr, n_s, n_n, g, h, gs in rows:
            g_want, h_want = oracles.least_roots(p, oracles.prime_divisors(p - 1))
            ok = ver == 1 and z == self.z and n_pr == n_s + n_n and (g, h, gs) == (g_want, h_want, h_want)
            checks.expect(op("survey_w1"), f"survey row p={p}", ok, True)
            if g != h:
                disagree.append({"p": p, "g": g, "h": h, "gs": gs})
        naive = oracles.naive_oracles(harness.ROOT)
        for row in random.Random(self.sample_seed).sample(rows, min(4, len(rows))):
            p = row[1]
            checks.expect(op("survey_w1"), f"naive recount p={p}",
                          naive.naive_classify_counts(p, self.z), row[3:6])
        if "survey_w2" in out:
            checks.expect(op("survey_w2"), "CSV bytes at workers 2", out["survey_w2"], out["survey_w1"])
        agreement = json.loads(out["agreement"])
        checks.expect(op("agreement"), "agreement counts",
                      (agreement["n_agree"], agreement["n_disagree"]),
                      (len(rows) - len(disagree), len(disagree)))
        checks.expect(op("agreement"), "agreement exceptions", agreement["exceptions"], disagree)


# fixed-g candidates: non-squares, so the density question is not vacuous
_FIXED_G = [g for g in range(2, 31) if math.isqrt(g) ** 2 != g]


class Density:
    """fixed-g, omega, totient and constants: sieve tables and per-prime factoring."""

    name = "density"

    def __init__(self, seed: int, size: str):
        rng = random.Random(seed)
        full = size == "full"
        self.g = rng.choice(_FIXED_G)
        self.x_fixed = _near(rng, 1_000_000 if full else 20_000)
        self.x_omega = _near(rng, 10_000_000 if full else 100_000)
        self.x_totient = _near(rng, 1_000_000 if full else 20_000)
        self.constants_primes = 10_000  # the acceptance constants are pinned at 10^4 primes
        self.sample_seed = rng.randrange(1 << 32)

    def commands(self) -> list[Command]:
        nth_prime = int(np.flatnonzero(oracles.prime_flags(20 * self.constants_primes))[self.constants_primes - 1])
        return [
            Command("fixed_g", ("fixed-g", "--g", self.g, "--x", self.x_fixed, "--format", "json"), self.x_fixed),
            Command("omega", ("omega", "--x", self.x_omega, "--format", "json"), self.x_omega),
            Command("totient", ("totient", "--x", self.x_totient, "--k", 2, "--format", "json"), self.x_totient),
            Command("constants", ("constants", "--primes", self.constants_primes, "--format", "json"), nth_prime),
        ]

    def check(self, checks: harness.Checks, out: dict[str, bytes], op) -> None:
        spf = oracles.smallest_factor(self.x_omega)
        primes_all = np.flatnonzero(spf[: self.x_omega + 1] == np.arange(self.x_omega + 1))
        primes_all = primes_all[primes_all >= 2]
        self._check_fixed_g(checks, json.loads(out["fixed_g"]), op("fixed_g"), spf, primes_all)
        self._check_omega(checks, json.loads(out["omega"]), op("omega"), spf, primes_all)
        self._check_totient(checks, json.loads(out["totient"]), op("totient"), spf, primes_all)
        rep = json.loads(out["constants"])
        want = oracles.acceptance_constants(harness.ROOT)
        for key in ("a1", "a2", "c2", "c3"):
            checks.close(op("constants"), f"constants {key}", rep[key], want[key], 1e-12)

    def _check_fixed_g(self, checks, rep, op, spf, primes_all) -> None:
        g, x = self.g, self.x_fixed
        primes = primes_all[primes_all <= x]
        hits = [
            int(p) for p in primes[1:]
            if oracles.stationary(g % int(p), int(p), oracles.factor_with(int(p) - 1, spf))
        ]
        checks.expect(op, "fixed-g counts", (rep["g"], rep["x"], rep["stationary_count"], rep["prime_count"]),
                      (g, x, len(hits), len(primes)))
        checks.expect(op, "fixed-g fraction", rep["fraction"], len(hits) / len(primes))
        # the naive order loops settle a seeded sample of small primes outright
        naive = oracles.naive_oracles(harness.ROOT)
        small = [int(p) for p in primes[1:] if p < 1000 and g % p]
        hit_set = set(hits)
        for p in random.Random(self.sample_seed).sample(small, min(3, len(small))):
            # like the program, classify the residue g mod p
            is_hit = naive.naive_order(g % p, p * p) == p * (p - 1)
            checks.expect(op, f"fixed-g naive p={p}", p in hit_set, is_hit)

    def _check_omega(self, checks, rep, op, spf, primes_all) -> None:
        x = self.x_omega
        omega, squarefree, _ = oracles.distinct_factors(primes_all - 1, spf)
        mu = np.where(squarefree, 1 - 2 * (omega % 2), 0)
        # sum of 2^omega(n) over n <= x equals the sum of mu^2(d) * floor(x/d) over d <= x
        sqfree = np.ones(x + 1, dtype=bool)
        for q in range(2, math.isqrt(x) + 1):
            sqfree[q * q :: q * q] = False
        d = np.flatnonzero(sqfree[1:]) + 1
        want = {
            "x": x,
            "prime_count": len(primes_all),
            "sum_omega_shifted": int(omega.sum()),
            "sum_two_omega_shifted": int((1 << omega).sum()),
            "sum_mu_omega_shifted": int((mu * omega).sum()),
            "sum_two_omega_all": int((x // d).sum()),
        }
        checks.expect(op, "omega sums", {k: rep[k] for k in want}, want)

    def _check_totient(self, checks, rep, op, spf, primes_all) -> None:
        x = self.x_totient
        primes = primes_all[primes_all <= x]
        _, _, ratio = oracles.distinct_factors(primes - 1, spf)
        total = math.fsum((ratio**2).tolist())
        checks.expect(op, "totient fields", (rep["x"], rep["k"], rep["exact"], rep["prime_count"]),
                      (x, 2, False, len(primes)))
        checks.close(op, "totient total", rep["total"], total, 1e-12)
        checks.close(op, "totient per prime", rep["per_prime"], total / len(primes), 1e-12)


WORKLOADS = {w.name: w for w in (Survey, Density)}
