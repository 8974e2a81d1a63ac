"""Bounded inference for natural mediation effects behind mediator bridge scores.

The estimand E[Y(1, M(0))] is anchored at its sequential-ignorability value
and shifted by latent-confounding terms whose magnitude is capped by an
envelope eta * (gamma - 1) / gamma. The envelope is calibrated from an
observed benchmark column, from a residual budget, or supplied directly;
posterior uncertainty comes from conjugate linear models, and every
identification claim behind the machinery has an exact finite-state check.
"""

from .calibration import (DEFAULT_GAMMA_CAP, benchmark_envelope,
                          estimate_benchmark_eta, estimate_benchmark_gamma,
                          prepare_benchmark, residual_envelope)
from .data import (BenchmarkSpec, Dataset, SyntheticSpec, canonical_schema,
                   fractional_ranks, generate_synthetic, infer_schema,
                   load_dataset, save_dataset)
from .envelope import (MediationEffects, ScalarDecomposition,
                       mediation_effects, xi_pointwise)
from .errors import (BridgeboundError, ConfigError, NumericalFailure,
                     VerificationFailure)
from .gcomp import (DEFAULT_BURN_IN, DEFAULT_DRAWS, DEFAULT_MEDIATOR_DRAWS,
                    ROUTES, DeltaPrior, RunResult, SensitivitySetting,
                    SweepResult, check_sweep_rows, run, sweep)
from .linear_bayes import NIGParams, default_prior, nig_update, sample_draw
from .oracle import (DiscreteModel, check_bound_and_sharpness, exact_bridge_partition,
                     exact_sensitivity, random_model, run_fuzz)

__version__ = "0.1.0"

__all__ = [
    "BenchmarkSpec", "BridgeboundError", "ConfigError", "Dataset", "DeltaPrior",
    "DiscreteModel", "MediationEffects", "NIGParams", "NumericalFailure",
    "ROUTES", "RunResult", "ScalarDecomposition", "SensitivitySetting",
    "SweepResult", "SyntheticSpec", "VerificationFailure",
    "DEFAULT_BURN_IN", "DEFAULT_DRAWS", "DEFAULT_GAMMA_CAP", "DEFAULT_MEDIATOR_DRAWS",
    "benchmark_envelope", "canonical_schema",
    "check_bound_and_sharpness", "check_sweep_rows", "default_prior",
    "estimate_benchmark_eta", "estimate_benchmark_gamma", "exact_bridge_partition",
    "exact_sensitivity", "fractional_ranks", "generate_synthetic", "infer_schema",
    "load_dataset", "mediation_effects", "nig_update", "prepare_benchmark",
    "random_model", "residual_envelope", "run", "run_fuzz", "sample_draw",
    "save_dataset", "sweep", "xi_pointwise",
]
