"""Posterior g-computation with sensitivity envelopes.

Each posterior draw runs the same six steps: sample the mediator model, whose
draw fixes the pooled mediator law of both arms (bridge.MediatorLaw), and, on
the bridge regressors rebuilt under that law, the outcome model; integrate the
outcome model over both arms' counterfactual mediator laws, exactly, by a
Gauss-Hermite rule; draw the benchmark routes' envelope points, mediator_draws
Monte Carlo points per unit from the control law (the other routes draw none
and ignore mediator_draws), in blocks of whole units whose gammas are summed
as they come, so a draw's memory does not grow with n * mediator_draws; turn
the chosen calibration route into an aggregated envelope Xi_bar per arm; draw
the shift Delta_bar from its prior on [-Xi_bar, +Xi_bar]; and assemble theta
and the effect contrasts.
Draws are i.i.d. (conjugate models) and draw t is a function of t alone: it
seeds child burn_in + t of SeedSequence(seed), takes its envelope points from
that child's child 1 and writes row t of the records. So results are
byte-identical however many worker processes share the draws, and a draw a
worker did not finish runs again in the calling process with the same result,
or the same error. Steps 1-3 and each calibration run once per draw for any list
of settings; each setting gets exactly the values a run of its own would.
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
from .bridge import MediatorLaw, bridge_log_pair, outcome_design
from .calibration import DEFAULT_GAMMA_CAP
from .data import Dataset
# the config tables of settings and run arguments live in errors, so that cli
# parses them without importing this module
from .errors import (PRIOR_KEYS, RUN_KEYS, SETTING_KEYS, ConfigError, NumericalFailure,
                     VerificationFailure, check)
from .linear_bayes import default_prior, nig_update, sample_draw

DEFAULT_DRAWS = 2000
DEFAULT_BURN_IN = 500
DEFAULT_MEDIATOR_DRAWS = 50
# envelope points per block of a draw's walk over the units, rounded down to
# whole units but at least one: a block's arrays stay cache-sized, and a draw
# holds one block of points, not n * mediator_draws
_POINT_BLOCK = 4096


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


def counterfactual_mediator_draws(law: MediatorLaw, arm: int, z: np.ndarray):
    """Mediator values law.sample(arm, z) and their bridge pair under law.

    z is an (n, k) standard-normal grid, row i for unit i: random variates or
    quadrature nodes. Returns (m, l0, l1) as unit-major flat views of one (n, k)
    grid; the bridge pair is evaluated at m under law, whichever arm generated
    it, so it depends on z alone.
    """
    m = law.sample(arm, z)
    l0, l1 = bridge_log_pair(m, law)
    return m.ravel(), l0.ravel(), l1.ravel()


_CORE_FIELDS = (
    "theta_si", "delta0", "delta1", "xi_bar_0", "xi_bar_1",
    "delta_bar_0", "delta_bar_1", "theta", "nde", "nie", "te",
    "theta_lower", "theta_upper", "nde_lower", "nde_upper",
    "nie_lower", "nie_upper",
)
# per route: its benchmark scale or None, the record fields it adds to
# _CORE_FIELDS, and the sweep axes that apply to it (axis a sets a0 and a1)
_ROUTES = {
    "si_anchor": (None, (), ()),
    "benchmark_raw": ("raw", ("eta_hat_0", "eta_hat_1", "gamma_max_0", "gamma_max_1"),
                      ("kappa", "lambda")),
    "benchmark_rank": ("rank", ("eta_hat_0", "eta_hat_1", "gamma_max_0", "gamma_max_1"),
                       ("kappa", "lambda")),
    "residual_budget": (None, ("sigma_eta",), ("k", "g")),
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


# the probabilists' 3-node Gauss-Hermite rule (nodes 0, +-sqrt(3); weights 2/3,
# 1/6, 1/6) as six equal-weight nodes, so an integral is a plain sum over them / 6
_ANCHOR_Z = np.array([[-math.sqrt(3.0), 0.0, 0.0, 0.0, 0.0, math.sqrt(3.0)]])


class _Engine:
    """Dataset-level state and the draw records of one run or sweep."""

    def __init__(self, data: Dataset, settings: Sequence[SensitivitySetting], *,
                 draws: int, burn_in: int, mediator_draws: int, seed: int):
        if not settings:
            raise ConfigError("need at least one sensitivity setting")
        self.data = data
        self.settings = list(settings)
        self.burn_in, self.mediator_draws, self.seed = burn_in, mediator_draws, seed

        n = data.n
        design_med = np.column_stack([np.ones(n), data.treatment.astype(np.float64),
                                      data.covariates])
        self.med_post = nig_update(default_prior(data.p + 2), design_med, data.mediator)
        self.outcome_prior = default_prior(8)
        self.treated = data.arm_indices(1)
        self.treat_col = data.treatment.astype(np.float64)
        # every draw overwrites these in full: the outcome design, and its treated
        # rows for the residual budget. Fresh multi-megabyte temporaries would be
        # mapped anew on every draw, page-faulting each of their pages
        self.design_y = np.empty((n, 8))
        self.design_treated = np.empty((self.treated.size, 8))
        # a draw computes eta_hat and the gamma fits per benchmark scale, gamma per
        # (scale, gamma_cap), and sigma_eta if any setting needs it, before its
        # settings loop
        scales = [_ROUTES[s.route][0] for s in self.settings]
        self.bench = {scale: calibration.prepare_benchmark(data, scale)
                      for scale in dict.fromkeys(scales) if scale}
        self.gamma_keys = tuple(dict.fromkeys((scale, s.gamma_cap)
                                              for scale, s in zip(scales, self.settings)
                                              if scale))
        self.budget = "residual_budget" in (s.route for s in self.settings)
        # a benchmark-route draw holds a block of at least one unit's envelope
        # points; refuse a unit numpy cannot even index before any draw or fork
        if self.bench and 8 * mediator_draws > sys.maxsize:
            raise MemoryError(f"cannot index {mediator_draws} envelope points of one unit")
        self.fields = [_CORE_FIELDS + _ROUTES[s.route][1] for s in self.settings]
        self.records = [_shared_records(draws, len(f)) for f in self.fields]

    def run_draw(self, t: int) -> None:
        """Posterior draw t for every setting, written to row t of self.records."""
        data = self.data
        # draw t is a function of t alone. Burn-in is honored as a substream offset
        # so configs that specify it stay reproducible: the main stream is child
        # burn_in + t of SeedSequence(seed).spawn(), built without the ones before it
        child = self.burn_in + t
        rng = np.random.default_rng(np.random.SeedSequence(self.seed, spawn_key=(child,)))

        # 1) mediator model draw, then the outcome model conditional on it
        med = sample_draw(self.med_post, rng)
        law = MediatorLaw.from_draw(data.covariates, med)
        l0_obs, l1_obs = bridge_log_pair(data.mediator, law)
        design_y = outcome_design(data.mediator, self.treat_col, l0_obs, l1_obs,
                                  self.design_y)
        out_post = nig_update(self.outcome_prior, design_y, data.outcome)
        out = sample_draw(out_post, rng)
        beta_y = np.ascontiguousarray(out.beta)

        # 2) the anchor and the treated reference arm: the outcome mean at a = 1,
        # averaged over the units and the control, then the treated, mediator law,
        # by the 3-node rule on the collapsed law (exact; see MediatorLaw.collapsed).
        # a enters the regressors only as beta_a * a, so the control reference arm
        # E[Y(0, M(0))] is the anchor less beta_a
        unit = law.collapsed()
        anchor = []
        for arm in (0, 1):
            m, l0, l1 = counterfactual_mediator_draws(unit, arm, _ANCHOR_Z)
            anchor.append(_kernels.outcome_mean_sum(m, l0, l1, beta_y) / _ANCHOR_Z.size)
        theta_si, delta1 = anchor
        delta0 = theta_si - float(beta_y[2])

        # 3-4) every calibration the settings read: eta_hat and the two arms' gamma
        # fits per scale; per (scale, cap) and arm, the mean of (gamma - 1) / gamma
        # over the envelope points and the max gamma. The points are Monte Carlo over
        # the control law, drawn from the child's own child 1, so the main stream does
        # not depend on which routes share them. They are walked in blocks of whole
        # units, each block's rows of z drawn from that stream in turn (the variates
        # of one (n, mediator_draws) call), its gammas summed and maxed as they come
        eta = {scale: calibration.estimate_benchmark_eta(design_y, data.outcome, bench)
               for scale, bench in self.bench.items()}
        gaps = {}
        if self.bench:
            fits = {scale: [calibration.fit_benchmark_gamma(data.mediator, l0_obs, l1_obs,
                                                            bench, arm) for arm in (0, 1)]
                    for scale, bench in self.bench.items()}
            # per (scale, cap) and arm: the sum of (gamma - 1) / gamma and the max gamma
            tally = {key: [[_kernels.CompSum(), -math.inf] for _ in (0, 1)]
                     for key in self.gamma_keys}
            points = np.random.default_rng(np.random.SeedSequence(self.seed,
                                                                  spawn_key=(child, 1)))
            step = max(1, _POINT_BLOCK // self.mediator_draws)
            for lo in range(0, data.n, step):
                block = slice(lo, lo + step)
                z = points.standard_normal((min(step, data.n - lo), self.mediator_draws))
                pts = counterfactual_mediator_draws(law.rows(block), 0, z)
                for (scale, cap), arms in tally.items():
                    for fit, entry in zip(fits[scale], arms):
                        g = calibration.estimate_benchmark_gamma(fit, *pts, cap=cap)
                        entry[0].add((g - 1.0) / g)
                        entry[1] = np.maximum(entry[1], g.max())   # a nan gamma stays nan
            size = data.n * self.mediator_draws
            gaps = {key: [(acc.total() / size, float(top)) for acc, top in arms]
                    for key, arms in tally.items()}
        if self.budget:
            # mode='raise' would gather into a temporary and copy it over
            treated = np.take(design_y, self.treated, axis=0, out=self.design_treated,
                              mode="clip")
            sigma_eta = calibration.estimate_sigma_eta(data.outcome[self.treated],
                                                       treated @ beta_y)

        # calibration consumes no main-stream variates, so every setting draws its
        # prior base variates from the state a run of its own would reach here
        state = rng.bit_generator.state
        for j, setting in enumerate(self.settings):
            scale = _ROUTES[setting.route][0]
            if scale is not None:
                (gap0, gmax0), (gap1, gmax1) = gaps[scale, setting.gamma_cap]
                if setting.pooled_gamma:
                    gap0, gap1 = (gmax0 - 1.0) / gmax0, (gmax1 - 1.0) / gmax1
                xi0 = calibration.benchmark_envelope(eta[scale][0], gap0, setting.lambda0,
                                                     setting.kappa0)
                xi1 = calibration.benchmark_envelope(eta[scale][1], gap1, setting.lambda1,
                                                     setting.kappa1)
                diag = (*eta[scale], gmax0, gmax1)
            elif setting.route == "residual_budget":
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

            # 6) assemble the setting's row, in the order of self.fields[j]
            db0, db1 = xi0 * base0, xi1 * base1
            theta = (theta_si + db0) - db1
            nde, nie = theta - delta0, delta1 - theta
            theta_lower = (theta_si - xi0) - xi1
            theta_upper = (theta_si + xi0) + xi1
            self.records[j][t] = (
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
    engine = _Engine(data, settings, draws=draws, burn_in=burn_in,
                     mediator_draws=mediator_draws, seed=seed)
    # a fork copies only the calling thread, so a lock that another thread holds
    # (malloc's, the import lock, a log handler's) would stay locked in the child
    forkable = hasattr(os, "fork") and threading.active_count() == 1
    workers = min(threads, draws, _available_cpus()) if forkable else 1
    _run_draws(engine.run_draw, draws, workers)
    return [RunResult(setting, dict(zip(fields, records.T)))
            for setting, fields, records in zip(settings, engine.fields, engine.records)]


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

    The swept axis sets both arms. kappa and lambda apply to the benchmark
    routes only, k and g to residual_budget only, and si_anchor takes no axis:
    a base the axis does not apply to is a ConfigError before any draw. Every
    base and grid point shares one model pass per draw and differs only
    through calibration, envelope and prior, so each base's SweepResult
    equals a sweep of that base alone, and a grid of length one reproduces
    run() exactly. Returns one SweepResult per base.
    """
    axes = sorted({a for _, _, route_axes in _ROUTES.values() for a in route_axes})
    if axis not in axes:
        raise ConfigError(f"unknown sweep axis {axis!r}; choose from {axes}")
    if len(grid) == 0:
        raise ConfigError("sweep grid is empty")
    for base in base_settings:
        if axis not in _ROUTES[base.route][2]:
            raise ConfigError(f"axis {axis!r} does not apply to route {base.route!r}")
    settings = [dataclasses.replace(base, **{axis + "0": v, axis + "1": v})
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
