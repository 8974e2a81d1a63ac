"""Posterior g-computation with sensitivity envelopes.

Each posterior draw runs the same six steps: sample the mediator model and,
on the rebuilt bridge regressors, the outcome model; integrate the outcome
model over both arms' counterfactual mediator laws, exactly, by a Gauss-Hermite
rule; draw the benchmark routes' envelope points, mediator_draws Monte Carlo
points per unit from the control law (the other routes draw none and ignore
mediator_draws); turn the chosen calibration route into an aggregated envelope
Xi_bar per arm; draw the shift Delta_bar from its prior on [-Xi_bar, +Xi_bar];
and assemble theta and the effect contrasts.
Draws are i.i.d. (conjugate models), each driven by its own seed substream, so
results are byte-identical however many worker processes share them, and a
draw a worker did not finish runs again in the calling process with the same
result, or the same error. Steps 1-3
run once per draw for any list of settings, whatever their routes and priors;
each setting gets exactly the values a run of its own would.
"""

from __future__ import annotations

import dataclasses
import math
import mmap
import os
import sys
import threading
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

# the kernels and the calibration layer are called through their modules, so a
# wrapper set on a module attribute (a test's monkeypatch, perfbench's tracer)
# sees every call, whichever module was imported first
from . import _kernels, calibration
from .bridge import bridge_log_pair, mediator_means, outcome_design
from .calibration import DEFAULT_GAMMA_CAP
from .data import Dataset
# the config tables of settings and run arguments live in errors, so that cli
# parses them without importing this module; they are re-exported here
from .errors import (PRIOR_KEYS, PRIOR_KINDS, ROUTES, RUN_KEYS, SETTING_KEYS,
                     ConfigError, NumericalFailure, VerificationFailure, check)
from .linear_bayes import default_prior, nig_update, sample_draw

DEFAULT_DRAWS = 2000
DEFAULT_BURN_IN = 500
DEFAULT_MEDIATOR_DRAWS = 50


@dataclass(frozen=True)
class DeltaPrior:
    """Prior for the shift Delta_bar on [-xi_bar, +xi_bar]."""

    kind: str = "uniform"
    shape1: float = 1.0
    shape2: float = 1.0

    def __post_init__(self):
        check("delta_prior", dataclasses.asdict(self), PRIOR_KEYS)



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



def _delta_base(prior: DeltaPrior, rng: Optional[np.random.Generator]) -> float:
    # base variate on [-1, 1]; scaled by xi_bar afterwards so a sweep can share
    # one base draw across every grid point
    if prior.kind == "uniform":
        return float(rng.uniform(-1.0, 1.0))
    if prior.kind == "beta":
        return float(2.0 * rng.beta(prior.shape1, prior.shape2) - 1.0)
    return -1.0 if prior.kind == "endpoint_lower" else 1.0


def counterfactual_mediator_draws(mean0: np.ndarray, treat_shift: float, sigma2: float,
                                  arm: int, z: np.ndarray):
    """Mediator values m = mean0 + treat_shift * arm + sqrt(sigma2) * z from arm's fitted law.

    z is an (n, k) standard-normal grid, row i for unit i: random variates or
    quadrature nodes. Returns (m, l0, l1) as unit-major flat views of one (n, k)
    grid; the bridge pair is evaluated at m with the control-arm mean, whichever
    arm generated it, so it depends on z alone.
    """
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
    """np.quantile(arr, q) of one record, bit for bit, without np.unique's
    first-call import of numpy.ma; a non-finite record gives inf or nan,
    quietly, for the output writers to refuse.

    This is numpy's 'linear' method: partition a copy on the same sorted kth
    set (a virtual index at or past the last slot reads the last value from
    both sides), return the last value if it is nan (nan sorts last), else
    interpolate by numpy's _lerp. A partition, not a sort: the two place
    equal values such as 0.0 and -0.0 differently.
    """
    n = arr.size
    v = (n - 1) * q
    lo = hi = -1
    if v < n - 1:
        lo = math.floor(v)
        hi = lo + 1
    part = arr.copy()
    part.partition(sorted({0, -1, lo, hi}))
    if math.isnan(part[-1]):
        return float(part[-1])
    a, b, t = float(part[lo]), float(part[hi]), v - lo
    d = b - a
    return b - d * (1 - t) if t >= 0.5 else a + d * t


@dataclass(frozen=True)
class RunResult:
    """Per-draw records for one sensitivity setting."""

    setting: SensitivitySetting
    records: dict

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

# the probabilists' 3-node Gauss-Hermite rule (nodes 0, +-sqrt(3); weights 2/3,
# 1/6, 1/6) as six equal-weight nodes, so an integral is a plain sum over them / 6
_ANCHOR_Z = np.array([[-math.sqrt(3.0), 0.0, 0.0, 0.0, 0.0, math.sqrt(3.0)]])


class _Engine:
    """Dataset-level state shared by every draw of one run or sweep."""

    def __init__(self, data: Dataset, settings: Sequence[SensitivitySetting],
                 mediator_draws: int):
        if not settings:
            raise ConfigError("need at least one sensitivity setting")
        self.data = data
        self.settings = list(settings)
        self.mediator_draws = mediator_draws

        n = data.n
        self.design_med = np.column_stack([np.ones(n), data.treatment.astype(np.float64),
                                           data.covariates])
        self.med_post = nig_update(default_prior(data.p + 2), self.design_med, data.mediator)
        self.outcome_prior = default_prior(8)
        self.treated = data.arm_indices(1)
        self.treat_col = data.treatment.astype(np.float64)
        # every draw overwrites these in full: the outcome design, and its treated
        # rows for the residual budget. Fresh multi-megabyte temporaries would be
        # mapped anew on every draw, page-faulting each of their pages
        self.design_y = np.empty((n, 8))
        self.design_treated = np.empty((self.treated.size, 8))
        self.bench = {}
        for setting in self.settings:
            scale = _BENCH_SCALE.get(setting.route)
            if scale is not None and scale not in self.bench:
                self.bench[scale] = calibration.prepare_benchmark(data, scale)
        # each benchmark-route draw takes an (n, mediator_draws) grid of envelope
        # points; refuse one numpy cannot even index before any draw or fork
        if self.bench and 8 * n * mediator_draws > sys.maxsize:
            raise MemoryError(f"cannot index {n} x {mediator_draws} envelope points")

    def run_draw(self, rng: np.random.Generator, points_rng: Optional[np.random.Generator],
                 t: int, storage):
        data = self.data
        # 1) mediator model draw, then the outcome model conditional on it
        med = sample_draw(self.med_post, rng)
        mean0, shift = mediator_means(data.covariates, med.beta)
        l0_obs, l1_obs = bridge_log_pair(data.mediator, mean0, shift, med.sigma2)
        design_y = outcome_design(data.mediator, self.treat_col, l0_obs, l1_obs,
                                  out=self.design_y)
        out_post = nig_update(self.outcome_prior, design_y, data.outcome)
        out = sample_draw(out_post, rng)
        beta_y = np.ascontiguousarray(out.beta)

        # 2) the anchor and the treated reference arm: the outcome mean at a = 1,
        # averaged over the units and the control, then the treated, mediator law.
        # At m = mean0_i + shift * arm + sqrt(sigma2) * z the bridge pair depends on z
        # alone and the regressors are affine in m, so the unit average is the
        # integrand at the mean of mean0, a polynomial of degree <= 4 in z that the
        # 3-node rule integrates exactly. a enters the regressors only as beta_a * a,
        # so the control reference arm E[Y(0, M(0))] is the anchor less beta_a
        mbar = np.array([_kernels.comp_mean(mean0)])
        anchor = []
        for arm in (0, 1):
            m, l0, l1 = counterfactual_mediator_draws(mbar, shift, med.sigma2, arm, _ANCHOR_Z)
            anchor.append(_kernels.outcome_mean_sum(m, l0, l1, beta_y) / _ANCHOR_Z.size)
        theta_si, delta1 = anchor
        delta0 = theta_si - float(beta_y[2])

        # 3) the benchmark routes' envelope points: Monte Carlo over the control law
        if points_rng is not None:
            z = points_rng.standard_normal((data.n, self.mediator_draws))
            pts = counterfactual_mediator_draws(mean0, shift, med.sigma2, 0, z)

        # calibration consumes no main-stream variates, so every setting draws its
        # prior base variates from the state a run of its own would reach here
        state = rng.bit_generator.state
        eta_memo, gamma_memo, sigma_eta = {}, {}, None
        for j, setting in enumerate(self.settings):
            # 4) route-specific calibration, computed once per draw and shared
            scale = _BENCH_SCALE.get(setting.route)
            if scale is not None:
                bench = self.bench[scale]
                if scale not in eta_memo:
                    eta_memo[scale] = calibration.estimate_benchmark_eta(design_y, data.outcome,
                                                                         bench)
                eta_hat = eta_memo[scale]
                key = (scale, setting.gamma_cap)
                if key not in gamma_memo:
                    gammas = (calibration.estimate_benchmark_gamma(
                                  data.mediator, l0_obs, l1_obs, bench, arm, *pts,
                                  cap=setting.gamma_cap)
                              for arm in (0, 1))
                    # per arm: the mean of (gamma - 1) / gamma over the points, and the max gamma
                    gamma_memo[key] = [(_kernels.comp_mean((g - 1.0) / g), float(g.max()))
                                       for g in gammas]
                (gap0, gmax0), (gap1, gmax1) = gamma_memo[key]
                if setting.pooled_gamma:
                    gap0, gap1 = (gmax0 - 1.0) / gmax0, (gmax1 - 1.0) / gmax1
                xi0 = calibration.benchmark_envelope(eta_hat[0], gap0, setting.lambda0,
                                                     setting.kappa0)
                xi1 = calibration.benchmark_envelope(eta_hat[1], gap1, setting.lambda1,
                                                     setting.kappa1)
                diag = (*eta_hat, gmax0, gmax1)
            elif setting.route == "residual_budget":
                if sigma_eta is None:
                    # mode='raise' would gather into a temporary and copy it over
                    treated = np.take(design_y, self.treated, axis=0, out=self.design_treated,
                                      mode="clip")
                    pred = treated @ beta_y
                    sigma_eta = calibration.estimate_sigma_eta(data.outcome[self.treated], pred)
                xi0 = calibration.residual_envelope(sigma_eta, setting.k0, setting.g0)
                xi1 = calibration.residual_envelope(sigma_eta, setting.k1, setting.g1)
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


def _available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:   # no CPU affinity on this platform
        return os.cpu_count() or 1


def _run_grid(data: Dataset, settings: Sequence[SensitivitySetting], *,
              draws: int, burn_in: int, mediator_draws: int, seed: int, threads: int):
    check("run", dict(draws=draws, burn_in=burn_in, seed=seed, threads=threads,
                      mediator_draws=mediator_draws), RUN_KEYS)
    engine = _Engine(data, settings, mediator_draws)
    fields = [_CORE_FIELDS + _ROUTE_FIELDS[s.route] for s in settings]
    storage = [_shared_records(draws, len(f)) for f in fields]

    def task(t: int):
        # draws are i.i.d.; burn-in is honored as a substream offset so configs
        # that specify it stay reproducible. This is child burn_in + t of
        # SeedSequence(seed).spawn(), built without the burn_in children before it.
        key = (burn_in + t,)
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))
        # the benchmark routes draw their envelope points from that child's own
        # child 1, so the main stream does not depend on which routes share the grid
        points_rng = (np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key + (1,)))
                      if engine.bench else None)
        engine.run_draw(rng, points_rng, t, storage)

    # a fork copies only the calling thread, so a lock that another thread holds
    # (malloc's, the import lock, a log handler's) would stay locked in the child
    forkable = hasattr(os, "fork") and threading.active_count() == 1
    workers = min(threads, draws, _available_cpus()) if forkable else 1
    _run_draws(task, draws, workers)

    return [RunResult(setting, dict(zip(fields[j], storage[j].T)))
            for j, setting in enumerate(settings)]


def _shared_records(draws: int, width: int) -> np.ndarray:
    """A (draws, width) float64 array in anonymous shared memory, column-major
    so each field's column is a contiguous view; rows a forked worker writes
    into it are this process's rows."""
    try:
        buf = mmap.mmap(-1, 8 * draws * width)
    except (OSError, OverflowError) as exc:   # ENOMEM, or past ssize_t
        raise MemoryError(f"cannot map {draws} x {width} draw records: {exc}") from None
    return np.frombuffer(buf, np.float64).reshape(width, draws).T


def _run_draws(task, draws: int, workers: int) -> None:
    """Run task(t) for every draw t in `workers` processes, this one included.

    Process k takes draws k, k + workers, ...; this one is process 0, and the
    others are forked here, once the engine is built. With one worker nothing
    forks: this is the serial loop. A forked worker writes its rows straight
    into the shared records, marks each finished draw in shared memory, stops
    at its first failure and leaves by os._exit, so it never flushes this
    process's stdio buffers. Once the workers are reaped (killed at once if a
    draw here fails), this process runs every unmarked draw in ascending
    order: a draw depends on t alone, so a lost worker's draws are finished
    here and the lowest failing draw raises its own exception, as at one
    worker. No worker outlives the call.
    """
    done = _shared_records(draws, 1)[:, 0]
    pids = []   # workers not yet reaped
    try:
        for k in range(1, workers):
            pid = os.fork()
            if pid == 0:
                try:
                    for t in range(k, draws, workers):
                        task(t)
                        done[t] = 1.0
                finally:
                    os._exit(0)
            pids.append(pid)
        try:
            for t in range(0, draws, workers):
                task(t)
                done[t] = 1.0
        except Exception:
            if not pids:
                raise
        else:
            while pids:
                os.waitpid(pids[-1], 0)
                pids.pop()
    finally:
        if pids:
            import signal

            for pid in pids:
                os.kill(pid, signal.SIGKILL)
            for pid in pids:
                os.waitpid(pid, 0)
    for t in np.flatnonzero(done == 0.0).tolist():
        task(t)


def run(data: Dataset, setting: SensitivitySetting, *,
        draws: int = DEFAULT_DRAWS, burn_in: int = DEFAULT_BURN_IN,
        mediator_draws: int = DEFAULT_MEDIATOR_DRAWS,
        seed: int, threads: int = 1) -> RunResult:
    """One posterior run at a single sensitivity setting."""
    return _run_grid(data, [setting], draws=draws, burn_in=burn_in,
                     mediator_draws=mediator_draws, seed=seed, threads=threads)[0]


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
          mediator_draws: int = DEFAULT_MEDIATOR_DRAWS,
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
                        mediator_draws=mediator_draws, seed=seed, threads=threads)
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
    the swept parameter, up to 1e-12 rounding slack (none past an infinite
    half-width). A NaN grid value, center or half-width, which no order
    holds, is a numerical failure, raised first.
    """
    if not rows:
        raise VerificationFailure("empty sweep table")
    for row in rows:
        for name in ("value", "si_center", "half_width"):
            if math.isnan(row[name]):
                raise NumericalFailure(f"non-finite value nan at {row['axis']} = "
                                       f"{row['value']}, column {name}")
    center = rows[0]["si_center"]
    for row in rows[1:]:
        if row["si_center"] != center:
            raise VerificationFailure(
                f"SI center moved across grid points: {center} vs {row['si_center']}")
    ordered = sorted(rows, key=lambda r: r["value"])
    for prev, cur in zip(ordered, ordered[1:]):
        width = prev["half_width"]
        slack = 1e-12 * max(1.0, abs(width)) if math.isfinite(width) else 0.0
        if cur["half_width"] < width - slack:
            raise VerificationFailure(
                "envelope half-width decreased in the swept parameter: "
                f"{width} -> {cur['half_width']}")
