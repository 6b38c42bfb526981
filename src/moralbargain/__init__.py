"""Bargaining with distributional and universalizing preferences.

Solvers for the ultimatum and dictator problems under a combined
inequity-aversion / universalization utility, the symmetric Nash set,
brute-force oracles, and a finite-mixture estimation pipeline for
binary-choice experiments.
"""

from .beliefs import BeliefDistribution
from .curves import PayoffCurve
from .errors import (
    ConvergenceError,
    DomainError,
    IndeterminateError,
    MoralBargainError,
    ValidationError,
)
from .params import (
    ESTIMATION_ENDOWMENT,
    THEORY_ENDOWMENT,
    PreferenceParams,
    Strategy,
)
from .mixture import (
    BinaryGame,
    BootstrapSE,
    ChoiceRecord,
    MixtureFit,
    PredictedBehavior,
    RejectionSummary,
    bootstrap_se,
    default_games,
    em_fit,
    entropy,
    game_coefficients,
    icl,
    implicit_rejection_threshold,
    nec,
    predict_behavior,
    preferred_pattern,
    simulate_choices,
    strategy_utilities,
)
from .nash import (
    NashBounds,
    NashCheck,
    nash_set,
    rho_of_kappa,
    tau_of_kappa,
    verify_nash,
    x1_upper_of,
)
from .solver import (
    RegionMapResult,
    SolverOutputs,
    StaticsResult,
    alpha_bar,
    alpha_tilde,
    classify_many,
    comparative_statics,
    constrained_offer,
    constrained_threshold,
    kappa_tilde,
    optimal_strategy,
    region_map,
    selfish_offer,
)
from .utility import (
    TailIntegrals,
    dg_transfer,
    eval_expected_utility,
    eval_expost_symmetric,
)

__version__ = "0.1.0"

__all__ = [
    "BeliefDistribution",
    "PayoffCurve",
    "PreferenceParams",
    "Strategy",
    "ESTIMATION_ENDOWMENT",
    "THEORY_ENDOWMENT",
    "eval_expected_utility",
    "eval_expost_symmetric",
    "TailIntegrals",
    "dg_transfer",
    "SolverOutputs",
    "RegionMapResult",
    "StaticsResult",
    "optimal_strategy",
    "selfish_offer",
    "constrained_offer",
    "constrained_threshold",
    "alpha_bar",
    "alpha_tilde",
    "kappa_tilde",
    "region_map",
    "classify_many",
    "comparative_statics",
    "NashBounds",
    "NashCheck",
    "tau_of_kappa",
    "x1_upper_of",
    "rho_of_kappa",
    "nash_set",
    "verify_nash",
    "BinaryGame",
    "ChoiceRecord",
    "MixtureFit",
    "BootstrapSE",
    "PredictedBehavior",
    "RejectionSummary",
    "default_games",
    "game_coefficients",
    "strategy_utilities",
    "preferred_pattern",
    "em_fit",
    "bootstrap_se",
    "entropy",
    "icl",
    "nec",
    "implicit_rejection_threshold",
    "predict_behavior",
    "simulate_choices",
    "MoralBargainError",
    "ValidationError",
    "DomainError",
    "IndeterminateError",
    "ConvergenceError",
    "__version__",
]
