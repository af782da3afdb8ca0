"""Stationary primitive roots: tests, lifting, character sums, and surveys."""

from .arith import (
    Factorization,
    PrimalityInfo,
    euler_phi,
    factorize,
    first_primes,
    is_prime,
    is_prime_info,
    mobius,
    omega,
    primes_in_range,
    primes_upto,
)
from .characters import (
    CharacterIndex,
    CharSumReport,
    PsiFormulaResult,
    UnitRoot,
    additive_char_sum,
    char_sum,
    character_of_index,
    discrete_log,
    psi_indicator,
    psi_n_formula,
    psi_s_formula,
    random_bound_trials,
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
    is_primitive_root_2pk,
    least_roots,
    lift_enumerate,
    lift_pair_check,
    lifts_to_p2,
    stationary_propagation,
)
from .surveys import (
    AgreementReport,
    ConstantsReport,
    FixedGDensity,
    GsStatsReport,
    KNOWN_LEAST_ROOT_EXCEPTIONS,
    OmegaSumsReport,
    PeriodResult,
    StationarySurveyReport,
    SurveyRow,
    TotientRatioReport,
    density_constants,
    euler_product_constant,
    fixed_g_density,
    least_gs_stats,
    least_root_agreement,
    mixed_main_term,
    omega_sums,
    period,
    stationary_survey,
    totient_ratio_sum,
    verify_known_exceptions,
)

__version__ = "0.1.0"
