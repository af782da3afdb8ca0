"""Stationary primitive roots: tests, lifting, character sums, and surveys.

`import primroot` loads arith, errors, modmath and roots.  The names of
characters and surveys, and those two modules themselves, load on first use
through __getattr__, so a process that never asks for them never imports
them.
"""

from importlib import import_module

from .arith import (
    Factorization,
    PrimalityInfo,
    euler_phi,
    factorize,
    first_primes,
    is_prime,
    is_prime_info,
    primes_in_range,
    primes_upto,
)
from .errors import ContractError, DomainError, NotInvertibleError, ResourceLimitError
from .modmath import OrderResult, inv_mod, multiplicative_order
from .roots import (
    CyclicGroupSpec,
    LeastRoots,
    LiftPairReport,
    RootClass,
    bad_lift_residue,
    classify,
    is_primitive_root,
    least_roots,
    lift_enumerate,
    lift_pair_check,
    stationary_propagation,
)

# The names served by __getattr__, by the submodule that defines them.
_LAZY_MODULES = {
    "characters": (
        "CharacterIndex",
        "CharSumReport",
        "PsiFormulaResult",
        "UnitRoot",
        "additive_char_sum",
        "char_sum",
        "character_of_index",
        "discrete_log",
        "psi_indicator",
        "psi_n_formula",
        "psi_s_formula",
        "random_bound_trials",
    ),
    "surveys": (
        "AgreementReport",
        "ConstantsReport",
        "FixedGDensity",
        "GsStatsReport",
        "KNOWN_LEAST_ROOT_EXCEPTIONS",
        "OmegaSumsReport",
        "PeriodResult",
        "StationarySurveyReport",
        "SurveyRow",
        "TotientRatioReport",
        "density_constants",
        "euler_product_constant",
        "fixed_g_density",
        "least_gs_stats",
        "least_root_agreement",
        "mixed_main_term",
        "omega_sums",
        "period",
        "stationary_survey",
        "totient_ratio_sum",
    ),
}
_LAZY = {name: module for module, names in _LAZY_MODULES.items() for name in names}

__version__ = "0.1.0"


def __getattr__(name: str):
    # Looked up on every use, never cached here: a caller that rebinds a
    # function in its module (a tracer, a test's monkeypatch) is seen.
    if name in _LAZY_MODULES:
        return import_module(f".{name}", __name__)
    if name in _LAZY:
        return getattr(import_module(f".{_LAZY[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY_MODULES, *_LAZY})
