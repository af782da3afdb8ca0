"""In-memory span tracing around calls into primroot's layers.

The benchmark wraps each public function it traces in every primroot module
that binds it: roots, surveys and characters import is_prime, factorize and
classify with `from ... import`, so patching only the defining module would
miss most calls.  Spans (name, start, end, parent) go into flat arrays and
are written out once, at the end of the run.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from array import array
from pathlib import Path

import numpy as np

from harness import metric

SIEVE_FNS = (
    "prime_flags", "phi_table", "omega_table", "mobius_table",
    "primes_in_range", "primes_upto", "first_primes",
)
LIFT_FNS = (
    "lifts_to_p2", "bad_lift_residue", "lift_enumerate", "lift_pair_check",
    "stationary_propagation",
)
SPEC_CTORS = ("for_modulus", "for_prime", "for_prime_power", "for_twice_prime_power")
SURVEY_FNS = (
    "stationary_survey", "survey_row", "least_root_agreement", "fixed_g_density",
    "omega_sums", "totient_ratio_sum", "density_constants", "euler_product_constant",
    "period",
)

# (layer group, defining module, function); the span name is module.function
TARGETS = (
    [("arith.is_prime", "arith", "is_prime"), ("arith.factorize", "arith", "factorize")]
    + [("arith.sieve", "arith", fn) for fn in SIEVE_FNS]
    + [
        ("roots.classify", "roots", "classify"),
        ("roots.is_primitive_root", "roots", "is_primitive_root"),
        ("roots.least_roots", "roots", "least_roots"),
    ]
    + [("roots.lift", "roots", fn) for fn in LIFT_FNS]
    + [
        ("modmath.multiplicative_order", "modmath", "multiplicative_order"),
        ("characters.discrete_log", "characters", "discrete_log"),
        ("characters.psi_indicator", "characters", "psi_indicator"),
    ]
    + [(f"surveys.{fn}", "surveys", fn) for fn in SURVEY_FNS]
)
# groups reported with calls and self time
CALL_GROUPS = (
    "arith.is_prime", "arith.factorize", "arith.sieve",
    "roots.classify", "roots.is_primitive_root", "roots.least_roots", "roots.spec", "roots.lift",
    "modmath.multiplicative_order", "characters.discrete_log", "characters.psi_indicator",
)
DISTINCT_GROUPS = ("arith.is_prime", "arith.factorize")
CLI_GROUP = "cli"


def _result_bytes(result) -> int:
    """Table size: ndarray bytes, or 8 bytes (one pointer) per sequence item."""
    nbytes = getattr(result, "nbytes", None)
    if nbytes is not None:
        return int(nbytes)
    return 8 * len(getattr(result, "primes", result))


class Tracer:
    """Records spans from wrappers it installs; restores everything on uninstall."""

    def __init__(self):
        self.names: list[str] = []
        self.groups: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("I")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self._stack = [-1]
        self.distinct = {g: set() for g in DISTINCT_GROUPS}
        self.table_bytes = 0
        self._restore: list[tuple] = []

    def _name_id(self, name: str, group: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.groups.append(group)
        return self._ids[name]

    def call(self, name: str, group: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside one span."""
        nid = self._name_id(name, group)
        idx = len(self.start)
        self.span_name.append(nid)
        self.parent.append(self._stack[-1])
        self.start.append(0)
        self.end.append(0)
        self._stack.append(idx)
        t0 = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            self.end[idx] = time.perf_counter_ns()
            self.start[idx] = t0
            self._stack.pop()

    def _wrap(self, name: str, group: str, fn):
        call = self.call
        if group in self.distinct:
            seen = self.distinct[group]

            def wrapper(n, *args, **kwargs):
                seen.add(n)
                return call(name, group, fn, n, *args, **kwargs)
        elif group == "arith.sieve":

            def wrapper(*args, **kwargs):
                result = call(name, group, fn, *args, **kwargs)
                self.table_bytes += _result_bytes(result)
                return result
        else:

            def wrapper(*args, **kwargs):
                return call(name, group, fn, *args, **kwargs)

        return functools.wraps(fn)(wrapper)

    def install(self) -> None:
        """Wrap every traced function wherever a primroot module binds it."""
        modules = [m for k, m in list(sys.modules.items()) if k == "primroot" or k.startswith("primroot.")]
        for group, owner, fn_name in TARGETS:
            original = getattr(sys.modules.get(f"primroot.{owner}"), fn_name, None)
            if original is None:
                continue
            wrapper = self._wrap(f"{owner}.{fn_name}", group, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._restore.append((module, attr, original))
        spec_cls = getattr(sys.modules.get("primroot.roots"), "CyclicGroupSpec", None)
        for ctor in SPEC_CTORS:
            raw = vars(spec_cls).get(ctor) if spec_cls is not None else None
            if isinstance(raw, classmethod):
                wrapper = self._wrap(f"roots.CyclicGroupSpec.{ctor}", "roots.spec", raw.__func__)
                setattr(spec_cls, ctor, classmethod(wrapper))
                self._restore.append((spec_cls, ctor, raw))

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._restore):
            setattr(target, attr, original)
        self._restore.clear()

    # -- derived numbers -----------------------------------------------------

    def group_totals(self) -> dict[str, dict]:
        """Per layer group: calls and self seconds (span minus child spans)."""
        names = np.frombuffer(self.span_name, dtype=np.uint32)
        dur = np.frombuffer(self.end, dtype=np.int64) - np.frombuffer(self.start, dtype=np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_ns = dur - child
        calls = np.bincount(names, minlength=len(self.names))
        self_by_name = np.bincount(names, weights=self_ns, minlength=len(self.names))
        out: dict[str, dict] = {}
        for i, group in enumerate(self.groups):
            entry = out.setdefault(group, {"calls": 0, "self_s": 0.0})
            entry["calls"] += int(calls[i])
            entry["self_s"] += float(self_by_name[i]) / 1e9
        return out

    def write(self, path: Path) -> None:
        """Spans as gzip CSV: name, start_ns, end_ns, parent index (-1 for a root)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name,start_ns,end_ns,parent\n")
            names = self.names
            for nid, s, e, p in zip(self.span_name, self.start, self.end, self.parent):
                fh.write(f"{names[nid]},{s},{e},{p}\n")


def layer_metrics(tracer: Tracer, plain_s, traced_s, output_bytes, hits, lookups) -> dict:
    """The per-layer metrics of one traced run, named as in BENCHMARK.json."""
    totals = tracer.group_totals()
    empty = {"calls": 0, "self_s": 0.0}
    out = {}
    for group in CALL_GROUPS:
        entry = totals.get(group, empty)
        out[f"{group}.calls"] = metric(entry["calls"], "count")
        out[f"{group}.self_s"] = metric(entry["self_s"], "s")
    for group in DISTINCT_GROUPS:
        calls = totals.get(group, empty)["calls"]
        ratio = len(tracer.distinct[group]) / calls if calls else 0.0
        out[f"{group}.distinct_ratio"] = metric(ratio, "ratio")
    out["arith.sieve.table_bytes"] = metric(tracer.table_bytes, "bytes")
    out["characters.bsgs.lookups"] = metric(lookups, "count")
    out["characters.bsgs.hit_ratio"] = metric(hits / lookups if lookups else 0.0, "ratio")
    for fn in SURVEY_FNS:
        out[f"surveys.{fn}.self_s"] = metric(totals.get(f"surveys.{fn}", empty)["self_s"], "s")
    out["cli.self_s"] = metric(totals.get(CLI_GROUP, empty)["self_s"], "s")
    out["cli.output_bytes"] = metric(output_bytes, "bytes")
    out["trace.spans"] = metric(len(tracer.start), "count")
    out["trace.overhead_s"] = metric(traced_s - plain_s, "s")
    return out
