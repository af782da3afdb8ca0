"""Command-line front end: every operation as a subcommand.

Data goes to stdout (or --output) in the selected format; progress and
errors go to stderr.  Exit codes: 0 success, 2 contract/usage error,
1 internal error.  All randomness derives from --seed, and identical
configurations produce byte-identical output regardless of --workers.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from typing import Callable, NamedTuple

from . import roots
from .errors import ContractError, DomainError, ResourceLimitError
from .modmath import multiplicative_order
from .report import render
from .roots import CyclicGroupSpec

FORMATS = ("table", "json", "csv")

# No command makes a BLAS call, yet OpenBLAS starts a thread pool that spins
# when numpy loads, in this process and in every survey worker, competing for
# the cores the sieve and the workers use.  numpy loads later, on the first
# bulk call, so this still reaches it.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")


def _emit(text: str, output: str | None) -> None:
    text = text if text.endswith("\n") else text + "\n"
    if output:
        _write_output(output, text)
    else:
        sys.stdout.write(text)


def _write_output(path: str, text: str) -> None:
    """Write text to path; an unwritable path is a usage error.

    A regular file, or a new one, is written through a temporary file beside
    it and renamed over it, so a failed write leaves no partial file.  A
    device, FIFO or symlink is written in place, and so is an existing file
    whose directory takes no new files.
    """
    try:
        if _replaceable(path):
            _write_replacing(path, text)
        else:
            with open(path, "w") as fh:
                fh.write(text)
    except OSError as exc:
        raise ContractError(f"cannot write --output {path}: {exc.strerror or exc}") from exc


def _replaceable(path: str) -> bool:
    if not os.path.lexists(path):
        return True
    if os.path.islink(path) or not os.path.isfile(path):
        return False
    return os.access(os.path.dirname(path) or ".", os.W_OK)


def _write_replacing(path: str, text: str) -> None:
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "x") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


class Command(NamedTuple):
    """One subcommand: its help line, its arguments and the call behind it.

    run(ns) returns a report dataclass or a dict of fields; csv and table_key
    tell report.render how to print it.  csv may be a function giving the
    mapping, so that building this table loads no module a command needs.
    """

    help: str
    args: tuple
    run: Callable[[argparse.Namespace], object]
    csv: dict[str, tuple[str, ...]] | Callable[[], dict[str, tuple[str, ...]]] | None = None
    table_key: str | None = None


def _progress(name: str):
    """A progress callback writing `name: done/total` lines to stderr."""
    return lambda done, total: print(f"{name}: {done}/{total}", file=sys.stderr)


def _order(ns) -> dict:
    spec = CyclicGroupSpec.for_modulus(ns.n)
    res = multiplicative_order(ns.a, spec)
    fields = {"element": res.element, "modulus": res.modulus, "order": res.order}
    return {**fields, "group_order": spec.group_order, "is_primitive_root": res.order == spec.group_order}


def _lift(ns) -> dict:
    p = ns.p
    if ns.mode == "enumerate":
        spec_p = CyclicGroupSpec.for_prime(p)
        roots._lift_size(spec_p, ns.k + 1)  # refuse a lift over budget before the scan
        level = [g for g in range(1, p + 1) if roots.is_primitive_root(g, spec_p)]
        for lvl in range(1, ns.k + 1):
            level = roots.lift_enumerate(p, lvl, level)
        return {"p": p, "k": ns.k + 1, "count": len(level), "roots": level}
    if ns.tau is None:
        raise ContractError(f"--tau is required for lift mode {ns.mode!r}")
    if ns.mode == "residue":
        a = roots.bad_lift_residue(ns.tau, p)
        return {"tau": ns.tau, "p": p, "bad_residue": a, "failing_lift": ns.tau + a * p}
    rep = roots.lift_pair_check(ns.tau, p, ns.kmax)
    return {"tau": ns.tau, "p": p, "all_pairs_ok": rep.all_pairs_ok, "steps": rep.steps}


def _psi(ns) -> dict:
    from . import characters

    if ns.formula == "indicator":
        if ns.u is None or ns.n is None:
            raise ContractError("indicator mode needs --u and --n")
        spec = CyclicGroupSpec.for_modulus(ns.n).with_generator()
        value = characters.psi_indicator(ns.u, spec)
        direct = int(multiplicative_order(ns.u, spec).order == spec.group_order)
        return {"u": ns.u, "modulus": ns.n, "psi": value, "order_test": direct, "agree": value == direct}
    if ns.g is None or ns.p is None:
        raise ContractError("s/n modes need --g and --p")
    fn = characters.psi_s_formula if ns.formula == "s" else characters.psi_n_formula
    res = fn(ns.g, ns.p)
    return {
        "g": ns.g,
        "p": ns.p,
        "formula": str(res.formula),
        "table": res.table,
        "class": res.classification.value,
        "matches_table": res.matches_table,
    }


CHARSUM_COLUMNS = ("trial", "modulus", "size_u", "size_v", "magnitude", "bound", "slack")


def _charsum(ns) -> dict:
    from . import characters

    reports = characters.random_bound_trials(ns.trials, ns.seed, ns.p, ns.additive)
    rows = [
        {"trial": i, **{c: getattr(r, c) for c in CHARSUM_COLUMNS[1:]}, "within_bound": r.slack <= 1.0}
        for i, r in enumerate(reports)
    ]
    return {
        "additive": ns.additive,
        "seed": ns.seed,
        "trials": ns.trials,
        "all_within_bound": all(r["within_bound"] for r in rows),
        "rows": rows,
    }


def _surveys():
    """The surveys module, imported on first use, so other commands never load it."""
    from . import surveys

    return surveys


def positive_int(text: str) -> int:
    """argparse type for counts and exponents: an integer >= 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _required(flag: str, **kw) -> tuple[str, dict]:
    return flag, {"type": int, "required": True, **kw}


# Subcommands in help order; the arguments of each in usage order.
COMMANDS = {
    "test": Command(
        "classify g relative to p",
        (_required("--g"), _required("--p")),
        lambda ns: {"g": ns.g, "p": ns.p, "class": roots.classify(ns.g, ns.p).value},
        table_key="class",
    ),
    "order": Command(
        "multiplicative order of a mod n",
        (_required("--a"), _required("--n", help="modulus of the form p^k or 2p^k")),
        _order,
    ),
    "least": Command(
        "least roots g, h, gs of a prime", (_required("--p"),), lambda ns: roots.least_roots(ns.p)
    ),
    "lift": Command(
        "lift diagnostics for a root mod p",
        (
            _required("--p"),
            ("--tau", dict(type=int, help="primitive root mod p (residue/pairs modes)")),
            ("--mode", dict(choices=("residue", "pairs", "enumerate"), default="residue")),
            ("--kmax", dict(type=positive_int, default=4)),
            ("--k", dict(type=positive_int, default=1, help="enumerate: lift from p^k to p^(k+1)")),
        ),
        _lift,
        csv={"steps": ("k", "root_ok", "shifted_ok", "inverse_ok"), "roots": ("root",)},
    ),
    "psi": Command(
        "characteristic function values",
        (
            ("--formula", dict(choices=("indicator", "s", "n"), default="indicator")),
            ("--u", dict(type=int, help="element (indicator mode)")),
            ("--n", dict(type=int, help="modulus (indicator mode)")),
            ("--g", dict(type=int, help="element (s/n modes)")),
            ("--p", dict(type=int, help="prime (s/n modes)")),
        ),
        _psi,
    ),
    "charsum": Command(
        "seeded character-sum bound trials",
        (
            ("--trials", dict(type=positive_int, default=10)),
            ("--p", dict(type=positive_int, default=499, help="largest prime modulus sampled")),
            ("--additive", dict(action="store_true")),
        ),
        _charsum,
        csv={"rows": CHARSUM_COLUMNS},
    ),
    "constants": Command(
        "Euler products a1, a2, c2, c3",
        (("--primes", dict(type=positive_int, default=10_000, dest="prime_count")),),
        lambda ns: _surveys().density_constants(ns.prime_count),
    ),
    "survey": Command(
        "stationary counts over [x, 2x]",
        (_required("--x"), _required("--z")),
        lambda ns: _surveys().stationary_survey(ns.x, ns.z, ns.workers, _progress("survey")),
        csv=lambda: {"rows": _surveys().SURVEY_COLUMNS},
    ),
    "agreement": Command(
        "g(p) vs h(p) over [x, 2x]",
        (_required("--x"),),
        lambda ns: _surveys().least_root_agreement(ns.x, ns.workers, _progress("agreement")),
    ),
    "period": Command(
        "repetend period of 1/p^k",
        (_required("--base"), _required("--p"), ("--k", dict(type=int, default=1))),
        lambda ns: _surveys().period(ns.base, ns.p, ns.k),
    ),
    "omega": Command("omega sums up to x", (_required("--x"),), lambda ns: _surveys().omega_sums(ns.x)),
    "fixed-g": Command(
        "stationary density of one g",
        (_required("--g"), _required("--x")),
        lambda ns: _surveys().fixed_g_density(ns.g, ns.x),
    ),
    "gs-stats": Command(
        "least stationary root stats",
        (_required("--x"),),
        lambda ns: _surveys().least_gs_stats(ns.x, ns.workers, _progress("gs-stats")),
    ),
    "totient": Command(
        "sum of (phi(p-1)/(p-1))^k",
        (_required("--x"), ("--k", dict(type=positive_int, default=1))),
        lambda ns: _surveys().totient_ratio_sum(ns.x, ns.k),
    ),
    "main-term": Command(
        "main term over [x, 2x] against c2 x/log x",
        (_required("--x"),),
        lambda ns: _surveys().mixed_main_term(ns.x),
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="primroot",
        description="Stationary primitive roots: tests, lifts, characters, surveys",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=FORMATS, default="table")
    common.add_argument("--output", default=None, help="write data here instead of stdout")
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--workers", type=positive_int, default=1)

    sub = parser.add_subparsers(dest="command", required=True)
    for name, cmd in COMMANDS.items():
        sp = sub.add_parser(name, parents=[common], help=cmd.help)
        for flag, kw in cmd.args:
            sp.add_argument(flag, **kw)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand; returns the process exit status."""
    ns = build_parser().parse_args(argv)
    cmd = COMMANDS[ns.command]
    try:
        result = cmd.run(ns)
        csv = cmd.csv() if callable(cmd.csv) else cmd.csv
        _emit(render(result, ns.format, csv, cmd.table_key), ns.output)
    except (ContractError, DomainError, ResourceLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - internal failure path
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 1
    return 0


def entry() -> None:
    """The process entry of `primroot` and `python -m primroot.cli`: main, then exit with its status.

    gc.freeze() spares the collection at interpreter exit the heap left by
    main (numpy and the loaded modules); stdout is still flushed and atexit
    still runs.  main never freezes: tests call it in-process.
    """
    status = main()
    gc.freeze()
    sys.exit(status)


if __name__ == "__main__":
    entry()
