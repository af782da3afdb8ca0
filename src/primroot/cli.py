"""Command-line front end: every operation as a subcommand.

Data goes to stdout (or --output) in the selected format; progress and
errors go to stderr.  Exit codes: 0 success, 2 contract/usage error,
1 internal error.  All randomness derives from --seed, and identical
configurations produce byte-identical output regardless of --workers.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field

from . import characters, roots, surveys
from .errors import ContractError, DomainError, ResourceLimitError
from .modmath import multiplicative_order
from .roots import CyclicGroupSpec

FORMATS = ("table", "json", "csv")


@dataclass
class RunConfig:
    """One parsed invocation: subcommand name plus its numeric parameters."""

    name: str
    fmt: str = "table"
    output: str | None = None
    seed: int = 0
    workers: int = 1
    params: dict = field(default_factory=dict)


def _emit(config: RunConfig, text: str) -> None:
    text = text if text.endswith("\n") else text + "\n"
    if config.output:
        _write_output(config.output, text)
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


def _render(config: RunConfig, payload: dict, csv_lines: list[str] | None = None) -> None:
    """payload must be json-ready; csv_lines overrides the flat CSV fallback."""
    if config.fmt == "json":
        _emit(config, json.dumps(payload))
        return
    if config.fmt == "csv":
        if csv_lines is None:
            keys = [k for k, v in payload.items() if not isinstance(v, (list, dict))]
            head = ",".join(keys)
            row = ",".join(str(payload[k]) for k in keys)
            csv_lines = [head, row]
        _emit(config, "\n".join(csv_lines))
        return
    lines = []
    for k, v in payload.items():
        if k == "schema_version":
            continue
        if isinstance(v, list):
            lines.append(f"{k}:")
            lines.extend(f"  {item}" for item in v)
        else:
            lines.append(f"{k} = {v}")
    _emit(config, "\n".join(lines))


def _progress(total_hint: str):
    def report(done: int, total: int) -> None:
        print(f"{total_hint}: {done}/{total}", file=sys.stderr)

    return report


def _with_version(d: dict) -> dict:
    return {"schema_version": surveys.SCHEMA_VERSION, **d}


def _cmd_test(config: RunConfig) -> None:
    g, p = config.params["g"], config.params["p"]
    cls = roots.classify(g, p)
    if config.fmt == "table":
        _emit(config, cls.value)
    else:
        _render(config, _with_version({"g": g, "p": p, "class": cls.value}))


def _cmd_order(config: RunConfig) -> None:
    a, n = config.params["a"], config.params["n"]
    spec = CyclicGroupSpec.for_modulus(n)
    res = multiplicative_order(a, spec)
    _render(
        config,
        _with_version(
            {
                "element": res.element,
                "modulus": res.modulus,
                "order": res.order,
                "group_order": spec.group_order,
                "is_primitive_root": res.order == spec.group_order,
            }
        ),
    )


def _cmd_least(config: RunConfig) -> None:
    r = roots.least_roots(config.params["p"])
    _render(config, _with_version({"p": r.p, "g": r.g, "h": r.h, "gs": r.gs}))


def _cmd_lift(config: RunConfig) -> None:
    p = config.params["p"]
    mode = config.params["mode"]
    if mode in ("residue", "pairs") and "tau" not in config.params:
        raise ContractError(f"--tau is required for lift mode {mode!r}")
    if mode == "residue":
        tau = config.params["tau"]
        a = roots.bad_lift_residue(tau, p)
        _render(
            config,
            _with_version(
                {"tau": tau, "p": p, "bad_residue": a, "failing_lift": tau + a * p}
            ),
        )
    elif mode == "pairs":
        tau = config.params["tau"]
        rep = roots.lift_pair_check(tau, p, config.params["kmax"])
        steps = [
            {
                "k": s.k,
                "root_ok": s.root_ok,
                "shifted_ok": s.shifted_ok,
                "inverse_ok": s.inverse_ok,
            }
            for s in rep.steps
        ]
        _render(
            config,
            _with_version(
                {"tau": tau, "p": p, "all_pairs_ok": rep.all_pairs_ok, "steps": steps}
            ),
            csv_lines=["schema_version,k,root_ok,shifted_ok,inverse_ok"]
            + [
                f"{surveys.SCHEMA_VERSION},{s.k},{int(s.root_ok)},{int(s.shifted_ok)},{int(s.inverse_ok)}"
                for s in rep.steps
            ],
        )
    elif mode == "enumerate":
        k = config.params["k"]
        spec_p = CyclicGroupSpec.for_prime(p)
        level = [g for g in range(1, p + 1) if roots.is_primitive_root(g, spec_p)]
        for lvl in range(1, k):
            level = roots.lift_enumerate(p, lvl, level)
        lifted = roots.lift_enumerate(p, k, level)
        _render(
            config,
            _with_version({"p": p, "k": k + 1, "count": len(lifted), "roots": lifted}),
            csv_lines=["schema_version,root"]
            + [f"{surveys.SCHEMA_VERSION},{r}" for r in lifted],
        )
    else:
        raise ContractError(f"unknown lift mode {mode!r}")


def _cmd_psi(config: RunConfig) -> None:
    formula = config.params["formula"]
    if formula == "indicator":
        if "u" not in config.params or "n" not in config.params:
            raise ContractError("indicator mode needs --u and --n")
        u, n = config.params["u"], config.params["n"]
        spec = CyclicGroupSpec.for_modulus(n).with_generator()
        value = characters.psi_indicator(u, spec)
        direct = int(
            multiplicative_order(u, spec).order == spec.group_order
        )
        _render(
            config,
            _with_version(
                {
                    "u": u,
                    "modulus": n,
                    "psi": value,
                    "order_test": direct,
                    "agree": value == direct,
                }
            ),
        )
        return
    if "g" not in config.params or "p" not in config.params:
        raise ContractError("s/n modes need --g and --p")
    g, p = config.params["g"], config.params["p"]
    fn = characters.psi_s_formula if formula == "s" else characters.psi_n_formula
    res = fn(g, p)
    _render(
        config,
        _with_version(
            {
                "g": g,
                "p": p,
                "formula": str(res.formula),
                "table": res.table,
                "class": res.classification.value,
                "matches_table": res.matches_table,
            }
        ),
    )


def _cmd_charsum(config: RunConfig) -> None:
    trials = config.params["trials"]
    additive = config.params["additive"]
    max_prime = config.params["p"]
    reports = characters.random_bound_trials(
        trials, seed=config.seed, max_prime=max_prime, additive=additive
    )
    rows = [
        {
            "trial": i,
            "modulus": r.modulus,
            "size_u": r.size_u,
            "size_v": r.size_v,
            "magnitude": r.magnitude,
            "bound": r.bound,
            "slack": r.slack,
            "within_bound": r.slack <= 1.0,
        }
        for i, r in enumerate(reports)
    ]
    payload = _with_version(
        {
            "additive": additive,
            "seed": config.seed,
            "trials": trials,
            "all_within_bound": all(r["within_bound"] for r in rows),
            "rows": rows,
        }
    )
    csv_lines = ["schema_version,trial,modulus,size_u,size_v,magnitude,bound,slack"] + [
        f"{surveys.SCHEMA_VERSION},{r['trial']},{r['modulus']},{r['size_u']},"
        f"{r['size_v']},{r['magnitude']!r},{r['bound']!r},{r['slack']!r}"
        for r in rows
    ]
    _render(config, payload, csv_lines=csv_lines)


def _cmd_constants(config: RunConfig) -> None:
    count = config.params["prime_count"]
    rep = surveys.density_constants(count)
    _render(config, rep.as_dict())


def _cmd_survey(config: RunConfig) -> None:
    rep = surveys.stationary_survey(
        config.params["x"],
        config.params["z"],
        workers=config.workers,
        progress=_progress("survey"),
    )
    _render(config, rep.as_dict(), csv_lines=rep.csv_lines())


def _cmd_agreement(config: RunConfig) -> None:
    rep = surveys.least_root_agreement(
        config.params["x"], workers=config.workers, progress=_progress("agreement")
    )
    _render(config, rep.as_dict())


def _cmd_period(config: RunConfig) -> None:
    rep = surveys.period(config.params["base"], config.params["p"], config.params["k"])
    _render(config, rep.as_dict())


def _cmd_omega(config: RunConfig) -> None:
    rep = surveys.omega_sums(config.params["x"])
    _render(config, rep.as_dict())


def _cmd_fixed_g(config: RunConfig) -> None:
    rep = surveys.fixed_g_density(config.params["g"], config.params["x"])
    _render(config, rep.as_dict())


def _cmd_gs_stats(config: RunConfig) -> None:
    rep = surveys.least_gs_stats(
        config.params["x"], workers=config.workers, progress=_progress("gs-stats")
    )
    _render(config, rep.as_dict())


def _cmd_totient(config: RunConfig) -> None:
    rep = surveys.totient_ratio_sum(config.params["x"], config.params["k"])
    _render(config, rep.as_dict())


_HANDLERS = {
    "test": _cmd_test,
    "order": _cmd_order,
    "least": _cmd_least,
    "lift": _cmd_lift,
    "psi": _cmd_psi,
    "charsum": _cmd_charsum,
    "constants": _cmd_constants,
    "survey": _cmd_survey,
    "agreement": _cmd_agreement,
    "period": _cmd_period,
    "omega": _cmd_omega,
    "fixed-g": _cmd_fixed_g,
    "gs-stats": _cmd_gs_stats,
    "totient": _cmd_totient,
}


def dispatch(config: RunConfig) -> int:
    """Run one configured subcommand; returns the process exit status."""
    handler = _HANDLERS.get(config.name)
    if handler is None:
        print(f"unknown subcommand: {config.name}", file=sys.stderr)
        return 2
    try:
        handler(config)
    except (ContractError, DomainError, ResourceLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - internal failure path
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 1
    return 0


def positive_int(text: str) -> int:
    """argparse type for counts and exponents: an integer >= 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="primroot",
        description="Stationary primitive roots: tests, lifts, characters, surveys",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=FORMATS, default="table")
    common.add_argument("--output", default=None, help="write data here instead of stdout")
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--workers", type=int, default=1)

    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("test", parents=[common], help="classify g relative to p")
    sp.add_argument("--g", type=int, required=True)
    sp.add_argument("--p", type=int, required=True)

    sp = sub.add_parser("order", parents=[common], help="multiplicative order of a mod n")
    sp.add_argument("--a", type=int, required=True)
    sp.add_argument("--n", type=int, required=True, help="modulus of the form p^k or 2p^k")

    sp = sub.add_parser("least", parents=[common], help="least roots g, h, gs of a prime")
    sp.add_argument("--p", type=int, required=True)

    sp = sub.add_parser("lift", parents=[common], help="lift diagnostics for a root mod p")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--tau", type=int, help="primitive root mod p (residue/pairs modes)")
    sp.add_argument("--mode", choices=("residue", "pairs", "enumerate"), default="residue")
    sp.add_argument("--kmax", type=positive_int, default=4)
    sp.add_argument("--k", type=positive_int, default=1, help="enumerate: lift from p^k to p^(k+1)")

    sp = sub.add_parser("psi", parents=[common], help="characteristic function values")
    sp.add_argument("--formula", choices=("indicator", "s", "n"), default="indicator")
    sp.add_argument("--u", type=int, help="element (indicator mode)")
    sp.add_argument("--n", type=int, help="modulus (indicator mode)")
    sp.add_argument("--g", type=int, help="element (s/n modes)")
    sp.add_argument("--p", type=int, help="prime (s/n modes)")

    sp = sub.add_parser("charsum", parents=[common], help="seeded character-sum bound trials")
    sp.add_argument("--trials", type=positive_int, default=10)
    sp.add_argument("--p", type=positive_int, default=499, help="largest prime modulus sampled")
    sp.add_argument("--additive", action="store_true")

    sp = sub.add_parser("constants", parents=[common], help="Euler products a1, a2, c2, c3")
    sp.add_argument("--primes", type=positive_int, default=10_000, dest="prime_count")

    sp = sub.add_parser("survey", parents=[common], help="stationary counts over [x, 2x]")
    sp.add_argument("--x", type=int, required=True)
    sp.add_argument("--z", type=int, required=True)

    sp = sub.add_parser("agreement", parents=[common], help="g(p) vs h(p) over [x, 2x]")
    sp.add_argument("--x", type=int, required=True)

    sp = sub.add_parser("period", parents=[common], help="repetend period of 1/p^k")
    sp.add_argument("--base", type=int, required=True)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--k", type=int, default=1)

    sp = sub.add_parser("omega", parents=[common], help="omega sums up to x")
    sp.add_argument("--x", type=int, required=True)

    sp = sub.add_parser("fixed-g", parents=[common], help="stationary density of one g")
    sp.add_argument("--g", type=int, required=True)
    sp.add_argument("--x", type=int, required=True)

    sp = sub.add_parser("gs-stats", parents=[common], help="least stationary root stats")
    sp.add_argument("--x", type=int, required=True)

    sp = sub.add_parser("totient", parents=[common], help="sum of (phi(p-1)/(p-1))^k")
    sp.add_argument("--x", type=int, required=True)
    sp.add_argument("--k", type=positive_int, default=1)

    return parser


def config_from_args(ns: argparse.Namespace) -> RunConfig:
    reserved = {"command", "format", "output", "seed", "workers"}
    params = {k: v for k, v in vars(ns).items() if k not in reserved and v is not None}
    return RunConfig(
        name=ns.command,
        fmt=ns.format,
        output=ns.output,
        seed=ns.seed,
        workers=ns.workers,
        params=params,
    )


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    return dispatch(config_from_args(ns))


if __name__ == "__main__":
    sys.exit(main())
