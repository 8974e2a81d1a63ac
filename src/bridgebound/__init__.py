"""Bounded inference for natural mediation effects behind mediator bridge scores.

The estimand E[Y(1, M(0))] is anchored at its sequential-ignorability value
and shifted by latent-confounding terms whose magnitude is capped by an
envelope eta * (gamma - 1) / gamma. The envelope is calibrated from an
observed benchmark column, from a residual budget, or supplied directly;
posterior uncertainty comes from conjugate linear models, and every
identification claim behind the machinery has an exact finite-state check
in ``bridgebound.oracle``.

The public names below resolve on first access (PEP 562), each by importing
its home module, so importing the package, or a command that needs only part
of it, loads nothing else.
"""

import importlib

__version__ = "0.1.0"

_HOMES = {
    "calibration": ("DEFAULT_GAMMA_CAP", "benchmark_envelope", "estimate_benchmark_eta",
                    "estimate_benchmark_gamma", "fit_benchmark_gamma", "prepare_benchmark",
                    "residual_envelope"),
    "data": ("BenchmarkSpec", "Dataset", "SyntheticSpec", "fractional_ranks",
             "generate_synthetic", "load_dataset", "save_dataset"),
    "envelope": ("xi_pointwise",),
    "errors": ("BridgeboundError", "ConfigError", "NumericalFailure", "VerificationFailure",
               "ROUTES"),
    "gcomp": ("DEFAULT_BURN_IN", "DEFAULT_DRAWS", "DEFAULT_MEDIATOR_DRAWS", "DeltaPrior",
              "RunResult", "SensitivitySetting", "SweepResult", "check_sweep_rows", "run",
              "sweep"),
    "linear_bayes": ("NIGParams", "default_prior", "nig_update", "sample_draw"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name: str):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{home}", __name__), name)
    globals()[name] = value   # later lookups skip this hook
    return value


def __dir__():
    return sorted({*globals(), *__all__})
