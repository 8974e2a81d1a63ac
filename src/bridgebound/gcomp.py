"""Posterior g-computation with sensitivity envelopes.

Each posterior draw runs the same six steps: sample the mediator model, rebuild
the bridge regressors and sample the outcome model conditionally, push
counterfactual mediator draws through both models, turn the chosen calibration
route into an aggregated envelope Xi_bar per arm, draw the shift Delta_bar from
its prior on [-Xi_bar, +Xi_bar], and assemble theta and the effect contrasts.
Draws are i.i.d. (conjugate models), each driven by its own seed substream, so
results are byte-identical regardless of thread count. Steps 1-3 run once per
draw for any list of settings, whatever their routes and priors; each setting
gets exactly the values a run of its own would.
"""

from __future__ import annotations

import dataclasses
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import _kernels
from .bridge import bridge_log_pair, mediator_means, outcome_design
from .calibration import (
    DEFAULT_GAMMA_CAP,
    benchmark_envelope,
    estimate_benchmark_eta,
    estimate_benchmark_gamma,
    estimate_sigma_eta,
    prepare_benchmark,
    residual_envelope,
)
from .data import Dataset
from .errors import ConfigError, Key, VerificationFailure, check
from .linear_bayes import default_prior, nig_update, sample_draw

ROUTES = ("si_anchor", "benchmark_raw", "benchmark_rank", "residual_budget")
PRIOR_KINDS = ("uniform", "beta", "endpoint_lower", "endpoint_upper")

DEFAULT_DRAWS = 2000
DEFAULT_BURN_IN = 500
DEFAULT_MEDIATOR_DRAWS = 50

_SHAPE = Key("number", (0, math.inf), open=True)
PRIOR_KEYS = {"kind": Key(PRIOR_KINDS), "shape1": _SHAPE, "shape2": _SHAPE}


@dataclass(frozen=True)
class DeltaPrior:
    """Prior for the shift Delta_bar on [-xi_bar, +xi_bar]."""

    kind: str = "uniform"
    shape1: float = 1.0
    shape2: float = 1.0

    def __post_init__(self):
        check("delta_prior", dataclasses.asdict(self), PRIOR_KEYS)


_FACTOR = Key("number", (1, math.inf))
_RATIO = Key("number", (1, math.inf), inf=True)
_SHARE = Key("number", (0, 1))
SETTING_KEYS = {
    "route": Key(ROUTES, required=True),
    "lambda0": _FACTOR, "lambda1": _FACTOR,
    "kappa0": _RATIO, "kappa1": _RATIO,
    "k0": _SHARE, "k1": _SHARE,
    "g0": _RATIO, "g1": _RATIO,
    "delta_prior": Key(PRIOR_KEYS), "comonotone": Key("bool"), "pooled_gamma": Key("bool"),
    "gamma_cap": _FACTOR,
}


@dataclass(frozen=True)
class SensitivitySetting:
    """One point in sensitivity-parameter space plus the prior for the shift."""

    route: str = "si_anchor"
    lambda0: float = 1.0
    lambda1: float = 1.0
    kappa0: float = 1.0
    kappa1: float = 1.0
    k0: float = 0.0
    k1: float = 0.0
    g0: float = 1.0
    g1: float = 1.0
    delta_prior: DeltaPrior = field(default_factory=DeltaPrior)
    comonotone: bool = False
    pooled_gamma: bool = False
    gamma_cap: float = DEFAULT_GAMMA_CAP

    def __post_init__(self):
        check("setting", dataclasses.asdict(self), SETTING_KEYS)


# the arguments of run() and sweep() that shape the draw loop; the pool may
# start one OS thread per worker, so threads is capped
_POSITIVE, _NONNEGATIVE = Key("int", (1, math.inf)), Key("int", (0, math.inf))
RUN_KEYS = {"draws": _POSITIVE, "burn_in": _NONNEGATIVE, "mediator_draws_per_unit": _POSITIVE,
            "seed": _NONNEGATIVE, "threads": Key("int", (1, 256))}


def _delta_base(prior: DeltaPrior, rng: Optional[np.random.Generator]) -> float:
    # base variate on [-1, 1]; scaled by xi_bar afterwards so a sweep can share
    # one base draw across every grid point
    if prior.kind == "uniform":
        return float(rng.uniform(-1.0, 1.0))
    if prior.kind == "beta":
        return float(2.0 * rng.beta(prior.shape1, prior.shape2) - 1.0)
    return -1.0 if prior.kind == "endpoint_lower" else 1.0


def counterfactual_mediator_draws(mean0: np.ndarray, treat_shift: float, sigma2: float,
                                  arm: int, n_per_unit: int, rng: np.random.Generator):
    """Sample n_per_unit mediator values per unit from arm's fitted law.

    Returns (m, l0, l1) as unit-major flat views of one (n, n_per_unit) grid;
    the bridge pair is evaluated at the drawn values with the control-arm
    mean, whichever arm generated them.
    """
    z = rng.standard_normal((mean0.shape[0], n_per_unit))
    m = (mean0[:, None] + treat_shift * arm) + np.sqrt(sigma2) * z
    l0, l1 = bridge_log_pair(m, mean0[:, None], treat_shift, sigma2)
    return m.ravel(), l0.ravel(), l1.ravel()


_CORE_FIELDS = (
    "theta_si", "delta0", "delta1", "xi_bar_0", "xi_bar_1",
    "delta_bar_0", "delta_bar_1", "theta", "nde", "nie", "te",
    "theta_lower", "theta_upper", "nde_lower", "nde_upper",
    "nie_lower", "nie_upper",
)
_ROUTE_FIELDS = {
    "si_anchor": (),
    "benchmark_raw": ("eta_hat_0", "eta_hat_1", "gamma_max_0", "gamma_max_1"),
    "benchmark_rank": ("eta_hat_0", "eta_hat_1", "gamma_max_0", "gamma_max_1"),
    "residual_budget": ("sigma_eta",),
}

_QUANTILES = ((2.5, 0.025), (25.0, 0.25), (50.0, 0.50), (75.0, 0.75), (97.5, 0.975))


def _quantile(arr: np.ndarray, q: float) -> float:
    """Quantile of one record; a non-finite record gives inf or nan, quietly,
    for the output writers to refuse."""
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.quantile(arr, q))


@dataclass(frozen=True)
class RunResult:
    """Per-draw records plus metadata for one sensitivity setting."""

    setting: SensitivitySetting
    records: dict
    n_units: int
    n_draws: int
    burn_in: int
    mediator_draws_per_unit: int
    seed: int

    @property
    def field_order(self):
        return tuple(self.records)

    def summary(self) -> dict:
        out = {}
        for name in self.field_order:
            arr = self.records[name]
            entry = {"mean": _kernels.comp_mean(arr)}
            for label, q in _QUANTILES:
                entry[f"q{label:g}"] = _quantile(arr, q)
            out[name] = entry
        return out


_BENCH_SCALE = {"benchmark_raw": "raw", "benchmark_rank": "rank"}


class _Engine:
    """Dataset-level state shared by every draw of one run or sweep."""

    def __init__(self, data: Dataset, settings: Sequence[SensitivitySetting],
                 mediator_draws_per_unit: int):
        if not settings:
            raise ConfigError("need at least one sensitivity setting")
        self.data = data
        self.settings = list(settings)
        self.n_per_unit = mediator_draws_per_unit

        n = data.n
        self.design_med = np.column_stack([np.ones(n), data.treatment.astype(np.float64),
                                           data.covariates])
        self.med_post = nig_update(default_prior(data.p + 2), self.design_med, data.mediator)
        self.outcome_prior = default_prior(8)
        self.treated = data.arm_indices(1)
        self.treat_col = data.treatment.astype(np.float64)
        self.bench = {}
        for setting in self.settings:
            scale = _BENCH_SCALE.get(setting.route)
            if scale is not None and scale not in self.bench:
                self.bench[scale] = prepare_benchmark(data, scale)

    def run_draw(self, rng: np.random.Generator, t: int, storage):
        data = self.data
        # 1) mediator model draw, then the outcome model conditional on it
        med = sample_draw(self.med_post, rng)
        mean0, shift = mediator_means(data.covariates, med.beta)
        l0_obs, l1_obs = bridge_log_pair(data.mediator, mean0, shift, med.sigma2)
        design_y = outcome_design(data.mediator, self.treat_col, l0_obs, l1_obs)
        out_post = nig_update(self.outcome_prior, design_y, data.outcome)
        out = sample_draw(out_post, rng)
        beta_y = np.ascontiguousarray(out.beta)

        # 2) counterfactual mediator draws, control then treated law
        m0, l0_cf, l1_cf = counterfactual_mediator_draws(
            mean0, shift, med.sigma2, 0, self.n_per_unit, rng)
        m1, l0_cf1, l1_cf1 = counterfactual_mediator_draws(
            mean0, shift, med.sigma2, 1, self.n_per_unit, rng)
        n_pts = m0.shape[0]

        # 3) anchor and the two reference arms, averaged over (unit, draw)
        theta_si = _kernels.outcome_mean_sum(m0, l0_cf, l1_cf, 1.0, beta_y) / n_pts
        delta0 = _kernels.outcome_mean_sum(m0, l0_cf, l1_cf, 0.0, beta_y) / n_pts
        delta1 = _kernels.outcome_mean_sum(m1, l0_cf1, l1_cf1, 1.0, beta_y) / n_pts

        # calibration consumes no variates, so every setting draws its prior
        # base variates from the state a run of its own would reach here
        state = rng.bit_generator.state
        eta_memo, gamma_memo, sigma_eta = {}, {}, None
        for j, setting in enumerate(self.settings):
            # 4) route-specific calibration, computed once per draw and shared
            scale = _BENCH_SCALE.get(setting.route)
            if scale is not None:
                bench = self.bench[scale]
                if scale not in eta_memo:
                    eta_memo[scale] = estimate_benchmark_eta(design_y, data.outcome, bench)
                eta_hat = eta_memo[scale]
                key = (scale, setting.gamma_cap)
                if key not in gamma_memo:
                    gammas = (estimate_benchmark_gamma(data.mediator, l0_obs, l1_obs, bench, arm,
                                                       m0, l0_cf, l1_cf, cap=setting.gamma_cap)
                              for arm in (0, 1))
                    # per arm: the mean of (gamma - 1) / gamma over the points, and the max gamma
                    gamma_memo[key] = [(_kernels.comp_mean((g - 1.0) / g), float(g.max()))
                                       for g in gammas]
                (gap0, gmax0), (gap1, gmax1) = gamma_memo[key]
                if setting.pooled_gamma:
                    gap0, gap1 = (gmax0 - 1.0) / gmax0, (gmax1 - 1.0) / gmax1
                xi0 = benchmark_envelope(eta_hat[0], gap0, setting.lambda0, setting.kappa0)
                xi1 = benchmark_envelope(eta_hat[1], gap1, setting.lambda1, setting.kappa1)
                diag = (*eta_hat, gmax0, gmax1)
            elif setting.route == "residual_budget":
                if sigma_eta is None:
                    pred = design_y[self.treated] @ beta_y
                    sigma_eta = estimate_sigma_eta(data.outcome[self.treated], pred)
                xi0 = residual_envelope(sigma_eta, setting.k0, setting.g0)
                xi1 = residual_envelope(sigma_eta, setting.k1, setting.g1)
                diag = (sigma_eta,)
            else:
                xi0 = xi1 = 0.0
                diag = ()

            # 5) prior base variates, shared by settings with the same prior
            rng.bit_generator.state = state
            base0 = _delta_base(setting.delta_prior, rng)
            base1 = base0 if setting.comonotone else _delta_base(setting.delta_prior, rng)

            # 6) assemble the setting's row, in _CORE_FIELDS + _ROUTE_FIELDS order
            db0, db1 = xi0 * base0, xi1 * base1
            theta = (theta_si + db0) - db1
            nde, nie = theta - delta0, delta1 - theta
            theta_lower = (theta_si - xi0) - xi1
            theta_upper = (theta_si + xi0) + xi1
            storage[j][t] = (
                theta_si, delta0, delta1, xi0, xi1, db0, db1,
                theta, nde, nie, nde + nie, theta_lower, theta_upper,
                theta_lower - delta0, theta_upper - delta0,
                delta1 - theta_upper, delta1 - theta_lower, *diag)


def _run_grid(data: Dataset, settings: Sequence[SensitivitySetting], *,
              draws: int, burn_in: int, mediator_draws_per_unit: int,
              seed: int, threads: int = 1):
    check("run", dict(draws=draws, burn_in=burn_in, seed=seed, threads=threads,
                      mediator_draws_per_unit=mediator_draws_per_unit), RUN_KEYS)
    engine = _Engine(data, settings, mediator_draws_per_unit)
    fields = [_CORE_FIELDS + _ROUTE_FIELDS[s.route] for s in settings]
    # column-major, so each field's column is a contiguous view
    storage = [np.empty((draws, len(f)), order="F") for f in fields]

    def task(t: int):
        # draws are i.i.d.; burn-in is honored as a substream offset so configs
        # that specify it stay reproducible. This is child burn_in + t of
        # SeedSequence(seed).spawn(), built without the burn_in children before it.
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(burn_in + t,)))
        engine.run_draw(rng, t, storage)

    if threads <= 1:
        for t in range(draws):
            task(t)
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(task, range(draws)))

    return [
        RunResult(setting, dict(zip(fields[j], storage[j].T)), data.n, draws,
                  burn_in, mediator_draws_per_unit, seed)
        for j, setting in enumerate(settings)
    ]


def run(data: Dataset, setting: SensitivitySetting, *,
        draws: int = DEFAULT_DRAWS, burn_in: int = DEFAULT_BURN_IN,
        mediator_draws_per_unit: int = DEFAULT_MEDIATOR_DRAWS,
        seed: int, threads: int = 1) -> RunResult:
    """One posterior run at a single sensitivity setting."""
    return _run_grid(data, [setting], draws=draws, burn_in=burn_in,
                     mediator_draws_per_unit=mediator_draws_per_unit,
                     seed=seed, threads=threads)[0]


_AXIS_FIELDS = {
    "kappa": ("kappa0", "kappa1"),
    "lambda": ("lambda0", "lambda1"),
    "k": ("k0", "k1"),
    "g": ("g0", "g1"),
}


@dataclass(frozen=True)
class SweepResult:
    axis: str
    results: tuple
    rows: tuple


def sweep(data: Dataset, base_settings: Sequence[SensitivitySetting], axis: str,
          grid: Sequence[float], *, draws: int = DEFAULT_DRAWS,
          burn_in: int = DEFAULT_BURN_IN,
          mediator_draws_per_unit: int = DEFAULT_MEDIATOR_DRAWS,
          seed: int, threads: int = 1) -> tuple:
    """Evaluate a grid of one sensitivity axis around each base setting.

    The swept axis sets both arms. Every base and grid point shares one model
    pass per draw and differs only through calibration, envelope and prior,
    so each base's SweepResult equals a sweep of that base alone, and a grid
    of length one reproduces run() exactly. Returns one SweepResult per base.
    """
    if axis not in _AXIS_FIELDS:
        raise ConfigError(f"unknown sweep axis {axis!r}; choose from {sorted(_AXIS_FIELDS)}")
    if len(grid) == 0:
        raise ConfigError("sweep grid is empty")
    benchmark_axis = axis in ("kappa", "lambda")
    for base in base_settings:
        if benchmark_axis != base.route.startswith("benchmark"):
            raise ConfigError(f"axis {axis!r} does not apply to route {base.route!r}")
    f0, f1 = _AXIS_FIELDS[axis]
    settings = [dataclasses.replace(base, **{f0: v, f1: v})
                for base in base_settings for v in grid]
    results = _run_grid(data, settings, draws=draws, burn_in=burn_in,
                        mediator_draws_per_unit=mediator_draws_per_unit,
                        seed=seed, threads=threads)
    out = []
    for i in range(len(base_settings)):
        mine = results[i * len(grid):(i + 1) * len(grid)]
        rows = []
        for value, res in zip(grid, mine):
            rec = res.records
            rows.append({
                "axis": axis,
                "value": float(value),
                "si_center": _kernels.comp_mean(rec["delta1"] - rec["theta_si"]),
                "nie_lower": _kernels.comp_mean(rec["nie_lower"]),
                "nie_upper": _kernels.comp_mean(rec["nie_upper"]),
                "nie_lower_q2.5": _quantile(rec["nie_lower"], 0.025),
                "nie_upper_q97.5": _quantile(rec["nie_upper"], 0.975),
                "nde_lower": _kernels.comp_mean(rec["nde_lower"]),
                "nde_upper": _kernels.comp_mean(rec["nde_upper"]),
                "half_width": _kernels.comp_mean(rec["xi_bar_0"] + rec["xi_bar_1"]),
                "theta_si_mean": _kernels.comp_mean(rec["theta_si"]),
            })
        check_sweep_rows(rows)
        out.append(SweepResult(axis, tuple(mine), tuple(rows)))
    return tuple(out)


def check_sweep_rows(rows) -> None:
    """Mechanical contract on a sweep table before it is written anywhere.

    The SI center must be bit-identical across grid points (it never touches
    the swept parameter) and the envelope half-width must be nondecreasing in
    the swept parameter, up to 1e-12 rounding slack.
    """
    if not rows:
        raise VerificationFailure("empty sweep table")
    center = rows[0]["si_center"]
    for row in rows[1:]:
        if row["si_center"] != center:
            raise VerificationFailure(
                f"SI center moved across grid points: {center} vs {row['si_center']}")
    ordered = sorted(rows, key=lambda r: r["value"])
    for prev, cur in zip(ordered, ordered[1:]):
        slack = 1e-12 * max(1.0, abs(prev["half_width"]))
        if cur["half_width"] < prev["half_width"] - slack:
            raise VerificationFailure(
                "envelope half-width decreased in the swept parameter: "
                f"{prev['half_width']} -> {cur['half_width']}")
