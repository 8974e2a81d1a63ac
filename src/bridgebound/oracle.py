"""Exact finite-state verification of the identification and bound results.

Everything here runs on fully enumerated discrete models: finite covariate,
latent, and mediator supports with explicit probability tables and an m-free
potential-outcome mean primitive psi(a, x, u). On such a model every
conditional law, every sensitivity parameter, and every target functional has
a closed-form finite sum, so the package's claims can be checked to rounding
error rather than Monte Carlo error:

* balancing of the bridge pair (covariate law identical given the stratum,
  with or without conditioning on the mediator value),
* the covariate-to-stratum projection of the sensitivity function,
* the sharp bound |Delta| <= eta * (gamma - 1) / gamma, with the two-point
  construction attaining it,
* the stratum-vs-covariate tightening inequalities (the eta direction only
  under decoupling),
* the scalar reduction theta = theta_si + Delta_bar_0 - Delta_bar_1,
* the quantile re-representation on [0, 1] preserving (eta, gamma),
* the variance bound var(psi(U)) <= eta^2 / 4.

check_model runs all of them on one model in a single walk: each mediator
value is partitioned once and each (m, stratum, arm) cell enumerated once,
and the scalar reduction reads the same cells. run_fuzz folds the per-model
worst values over a seeded corpus.

The fuzz generator builds seeded random models whose multi-x strata are exact
by construction: members of a group share bridge laws either by sharing the
latent law and perturbing mediator tables inside the mixture-preserving null
space (decoupled), or by sharing mediator tables and perturbing the latent law
inside the mediator matrix's kernel (non-decoupled).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .envelope import xi_pointwise
from .errors import BridgeboundError

_SUM_TOL = 1e-12
_INTRA_TOL = 1e-12      # members of one stratum agree on the bridge to this
_SEPARATION = 1e-7      # distinct strata differ by at least this
_MODEL_TRIES = 100      # random_model redraws before giving up


@dataclass(frozen=True)
class DiscreteModel:
    """Enumerable model: X ~ p_x, U | a,x ~ p_u, M | a,x,u ~ p_m, psi(a,x,u).

    psi is the mean of Y(1, m), free of m by construction, and constant across
    the x's of one group; groups are the x's sharing identical bridge laws.
    """

    p_x: np.ndarray            # (nx,)
    p_u: np.ndarray            # (2, nx, nu)
    p_m: np.ndarray            # (2, nx, nu, nm)
    psi: np.ndarray            # (2, nx, nu)
    groups: Tuple[int, ...]

    def __post_init__(self):
        p_x = np.asarray(self.p_x, dtype=np.float64)
        p_u = np.asarray(self.p_u, dtype=np.float64)
        p_m = np.asarray(self.p_m, dtype=np.float64)
        psi = np.asarray(self.psi, dtype=np.float64)
        object.__setattr__(self, "p_x", p_x)
        object.__setattr__(self, "p_u", p_u)
        object.__setattr__(self, "p_m", p_m)
        object.__setattr__(self, "psi", psi)
        object.__setattr__(self, "groups", tuple(int(g) for g in self.groups))
        nx = p_x.shape[0]
        if p_u.shape[:2] != (2, nx) or p_m.shape[:3] != (2, nx, p_u.shape[2]):
            raise BridgeboundError("table shapes disagree")
        if psi.shape != p_u.shape or len(self.groups) != nx:
            raise BridgeboundError("psi or groups shape disagrees")
        for name, table in (("p_x", p_x), ("p_u", p_u), ("p_m", p_m)):
            if np.any(table < 0.0) or not np.all(np.isfinite(table)):
                raise BridgeboundError(f"{name} has negative or non-finite entries")
        if abs(p_x.sum() - 1.0) > _SUM_TOL:
            raise BridgeboundError(f"p_x sums to {p_x.sum()}")
        if np.max(np.abs(p_u.sum(axis=2) - 1.0)) > _SUM_TOL:
            raise BridgeboundError("a p_u row does not sum to 1")
        if np.max(np.abs(p_m.sum(axis=3) - 1.0)) > _SUM_TOL:
            raise BridgeboundError("a p_m row does not sum to 1")
        if not np.all(np.isfinite(psi)):
            raise BridgeboundError("psi has non-finite entries")
        for g in set(self.groups):
            members = [x for x in range(nx) if self.groups[x] == g]
            ref = psi[:, members[0], :]
            for x in members[1:]:
                if np.max(np.abs(psi[:, x, :] - ref)) > 1e-9:
                    raise BridgeboundError(f"psi not constant within group {g}")
        bridge = np.einsum("axu,axum->axm", p_u, p_m)
        bridge.flags.writeable = False
        object.__setattr__(self, "_bridge", bridge)

    @property
    def nx(self) -> int:
        return self.p_x.shape[0]

    @property
    def nm(self) -> int:
        return self.p_m.shape[3]

    def bridge_values(self) -> np.ndarray:
        """f[a, x, m] = P(M = m | A = a, X = x), marginal over U (read-only).

        Enumerated once, when the model is built.
        """
        return self._bridge


def exact_bridge_partition(model: DiscreteModel, m: int) -> List[List[int]]:
    """Strata of x values sharing the bridge pair (f0(m|x), f1(m|x))."""
    f = model.bridge_values()
    pairs = np.stack([f[0, :, m], f[1, :, m]], axis=1)
    order = np.lexsort((pairs[:, 1], pairs[:, 0]))
    strata: List[List[int]] = []
    for x in order:
        if strata:
            head = strata[-1][0]
            if np.all(np.abs(pairs[x] - pairs[head]) <= _INTRA_TOL):
                strata[-1].append(int(x))
                continue
        strata.append([int(x)])
    return [sorted(s) for s in strata]


@dataclass(frozen=True)
class StratumSensitivity:
    """Exact sensitivity quantities for one (arm, m, stratum) cell."""

    delta: float
    gamma: float
    eta: float
    f0: np.ndarray             # P(u | a, stratum)
    f1: np.ndarray             # P(u | a, M=m, stratum)
    psi: np.ndarray            # stratum-level psi(u)
    weights: np.ndarray        # P(x | a, stratum), aligned with stratum order
    delta_star: np.ndarray     # covariate-level analogues, one per member x
    gamma_star: np.ndarray
    eta_star: np.ndarray
    decoupled: bool


def exact_sensitivity(model: DiscreteModel, arm: int, m: int,
                      stratum: Sequence[int]) -> StratumSensitivity:
    """Enumerate Delta, gamma, eta and their covariate-level analogues."""
    idx = list(stratum)
    g = model.groups[idx[0]]
    for x in idx:
        if model.groups[x] != g:
            raise BridgeboundError(f"stratum {idx} mixes groups; bridge collision?")
    psi = model.psi[arm, idx[0], :]

    p_x = model.p_x[idx]
    if p_x.sum() <= 0.0:
        raise BridgeboundError(f"stratum {idx} has zero covariate mass")
    weights = p_x / p_x.sum()

    p_u = model.p_u[arm, idx, :]                   # (s, nu)
    p_m_at = model.p_m[arm, idx, :, m]             # (s, nu)
    f0 = weights @ p_u
    joint = weights[:, None] * p_u * p_m_at        # (s, nu), P(x, u, m | a, S) / P(S)
    mass = joint.sum()
    if mass <= 0.0:
        raise BridgeboundError(f"no mediator mass at m={m} in stratum {idx}, arm={arm}")
    f1 = joint.sum(axis=0) / mass

    support = f0 > 0.0
    delta = float(psi @ (f1 - f0))
    # sup of dF1/dF0 is >= 1 for any two laws; the max() guards rounding only
    gamma = max(float(np.max(f1[support] / f0[support])), 1.0)
    eta = float(psi[support].max() - psi[support].min())

    delta_star = np.empty(len(idx))
    gamma_star = np.empty(len(idx))
    eta_star = np.empty(len(idx))
    for j, x in enumerate(idx):
        pu_x = model.p_u[arm, x, :]
        fx = float(pu_x @ model.p_m[arm, x, :, m])
        if fx <= 0.0:
            raise BridgeboundError(f"f_{arm}(m={m} | x={x}) = 0")
        f1_x = pu_x * model.p_m[arm, x, :, m] / fx
        sup_x = pu_x > 0.0
        psi_x = model.psi[arm, x, :]
        delta_star[j] = float(psi_x @ (f1_x - pu_x))
        gamma_star[j] = max(float(np.max(f1_x[sup_x] / pu_x[sup_x])), 1.0)
        eta_star[j] = float(psi_x[sup_x].max() - psi_x[sup_x].min())

    decoupled = bool(np.max(np.abs(p_u - f0[None, :])) <= _INTRA_TOL) if len(idx) > 1 else True
    return StratumSensitivity(delta, gamma, eta, f0, f1, psi, weights,
                              delta_star, gamma_star, eta_star, decoupled)


def bound_gap(sens: StratumSensitivity) -> float:
    """|Delta| minus the envelope; positive values violate the bound."""
    return abs(sens.delta) - xi_pointwise(sens.eta, sens.gamma)


def check_projection(sens: StratumSensitivity) -> float:
    """|Delta - sum_x w_x Delta*_x|: stratum value as mixture of covariate values."""
    return abs(sens.delta - float(sens.weights @ sens.delta_star))


def check_tightening(sens: StratumSensitivity):
    """(gamma_gap, eta_gap): sup-of-covariate-level minus stratum-level.

    gamma_gap >= 0 must hold unconditionally; eta_gap >= 0 is guaranteed only
    when the covariate and latent laws decouple inside the stratum
    (sens.decoupled).
    """
    gamma_gap = float(sens.gamma_star.max() - sens.gamma)
    eta_gap = float(sens.eta_star.max() - sens.eta)
    return gamma_gap, eta_gap


def check_popoviciu(sens: StratumSensitivity) -> float:
    """max variance of psi(U) under f0/f1 minus eta^2 / 4 (<= 0 up to rounding)."""
    worst = -np.inf
    for law in (sens.f0, sens.f1):
        mean = float(law @ sens.psi)
        var = float(law @ (sens.psi - mean) ** 2)
        worst = max(worst, var - 0.25 * sens.eta * sens.eta)
    return worst


def check_quantile_representation(sens: StratumSensitivity) -> dict:
    """Rebuild the cell on [0, 1] via the quantile transform of f0.

    Blocks of width f0(u) carry psi(u) and the density ratio h(u); the two
    conditional means must match the direct sums and (eta, gamma) must be
    preserved exactly.
    """
    cum = np.cumsum(sens.f0)
    widths = np.diff(np.concatenate([[0.0], cum]))
    pos = widths > 0.0
    h = np.zeros_like(sens.f0)
    np.divide(sens.f1, sens.f0, out=h, where=sens.f0 > 0.0)

    mean0_blocks = float(np.sum(sens.psi[pos] * widths[pos]))
    mean0_direct = float(sens.psi @ sens.f0)
    mean1_blocks = float(np.sum(sens.psi[pos] * h[pos] * widths[pos]))
    mean1_direct = float(sens.psi @ sens.f1)
    eta_blocks = float(sens.psi[pos].max() - sens.psi[pos].min())
    gamma_blocks = max(float(h[pos].max()), 1.0)
    return {
        "mean0_residual": abs(mean0_blocks - mean0_direct),
        "mean1_residual": abs(mean1_blocks - mean1_direct),
        "eta_residual": abs(eta_blocks - sens.eta),
        "gamma_residual": abs(gamma_blocks - sens.gamma),
        "total_width_residual": abs(float(cum[-1]) - 1.0),
        "widths": widths,
        "density_ratio": h,
    }


def make_sharpness_model(gamma: float, eta: float) -> DiscreteModel:
    """Two-point construction attaining the bound with equality.

    The baseline latent law puts mass 1/gamma on u1; conditioning on the first
    mediator value concentrates all mass there, so the density ratio is exactly
    gamma; psi = (eta, 0) swings by eta across the two points.
    """
    if gamma < 1.0 or eta < 0.0:
        raise BridgeboundError(f"need gamma >= 1 and eta >= 0, got {gamma}, {eta}")
    p_x = np.array([1.0])
    p_u = np.tile(np.array([1.0 / gamma, 1.0 - 1.0 / gamma]), (2, 1, 1))
    p_m = np.tile(np.array([[0.5, 0.5], [0.0, 1.0]]), (2, 1, 1, 1))
    psi = np.tile(np.array([eta, 0.0]), (2, 1, 1))
    return DiscreteModel(p_x, p_u, p_m, psi, (0,))


def check_bound_and_sharpness(gamma: float, eta: float):
    """Achieved |Delta| and the envelope for the extremal construction.

    Returns (delta_plus, delta_minus, bound): the construction with psi =
    (eta, 0) attains +bound, the flipped psi = (0, eta) attains -bound.
    """
    model = make_sharpness_model(gamma, eta)
    sens = exact_sensitivity(model, 0, 0, [0])
    flipped = DiscreteModel(model.p_x, model.p_u, model.p_m,
                            model.psi[:, :, ::-1], model.groups)
    sens_flip = exact_sensitivity(flipped, 0, 0, [0])
    bound = xi_pointwise(eta, gamma)
    return sens.delta, sens_flip.delta, bound


def self_test_failure():
    """Corrupted check input the harness must flag: eta halved post hoc.

    Returns (model, gap). The sensitivity record is exact for the model, then
    its eta is halved as a stand-in for a broken calibration; the bound check
    has to report a positive violation, proving the harness is not vacuous.
    """
    model = make_sharpness_model(2.0, 1.0)
    sens = exact_sensitivity(model, 0, 0, [0])
    corrupted = replace(sens, eta=0.5 * sens.eta)
    return model, bound_gap(corrupted)


# ---------------------------------------------------------------------------
# seeded fuzz generator
# ---------------------------------------------------------------------------


def _simplex(rng: np.random.Generator, k: int) -> np.ndarray:
    # floor keeps every cell bounded away from zero so ratios stay stable
    return 0.85 * rng.dirichlet(np.full(k, 2.0)) + 0.15 / k


def _pm_perturbation(rng, p_u: np.ndarray, nm: int) -> np.ndarray:
    """Rank-one direction keeping row sums and the p_u-mixture fixed."""
    v = rng.standard_normal(p_u.shape[0])
    v -= (p_u @ v) / (p_u @ p_u) * p_u
    w = rng.standard_normal(nm)
    w -= w.mean()
    return np.outer(v, w)


def _pu_perturbation(rng, pm_stack: np.ndarray) -> Optional[np.ndarray]:
    """Direction in the kernel of the stacked mediator matrices, or None."""
    _, s, vt = np.linalg.svd(pm_stack)
    rank = int(np.sum(s > 1e-12 * s[0])) if s.size else 0
    if rank >= vt.shape[0]:
        return None
    basis = vt[rank:]
    coef = rng.standard_normal(basis.shape[0])
    v = coef @ basis
    norm = np.abs(v).max()
    return v / norm if norm > 0 else None


def _scaled(base: np.ndarray, direction: np.ndarray, rng) -> np.ndarray:
    margin = base.min()
    peak = np.abs(direction).max()
    if peak == 0.0 or margin <= 0.0:
        return base.copy()
    eps = 0.4 * margin / peak * rng.uniform(0.3, 1.0)
    return base + eps * direction


def random_model(rng: np.random.Generator, *, decoupled: bool = True,
                 shared_arms: bool = False,
                 mediator_ignorable: bool = False) -> DiscreteModel:
    """One seeded random model; multi-x strata are exact by construction."""
    for _ in range(_MODEL_TRIES):
        if decoupled:
            nx = int(rng.integers(1, 5))
            nu = int(rng.integers(2, 6))
            nm = int(rng.integers(2, 5))
        else:
            # latent-law perturbations need room in the mediator kernel
            nm = 2
            nu = 5 if shared_arms else int(rng.integers(nm + 1, 6))
            nx = int(rng.integers(2, 5))

        # random partition into groups; non-decoupled models force one
        # multi-member group so the decoupling violation is real
        labels = rng.integers(0, max(1, nx - 1), size=nx) if nx > 1 else np.zeros(1, int)
        if not decoupled and len(set(labels.tolist())) == nx:
            labels[1] = labels[0]
        _, groups = np.unique(labels, return_inverse=True)

        p_x = _simplex(rng, nx)
        p_u = np.empty((2, nx, nu))
        p_m = np.empty((2, nx, nu, nm))
        psi = np.empty((2, nx, nu))

        ok = True
        for g in set(groups.tolist()):
            members = [x for x in range(nx) if groups[x] == g]
            psi_g = rng.uniform(0.0, 1.0, size=(2, nu))
            if shared_arms:
                psi_g[1] = psi_g[0]
            base_pu = np.stack([_simplex(rng, nu) for _ in range(2)])
            if shared_arms:
                base_pu[1] = base_pu[0]
            if mediator_ignorable:
                marginal = np.stack([_simplex(rng, nm) for _ in range(2)])
                base_pm = np.stack([np.tile(marginal[a], (nu, 1)) for a in range(2)])
            else:
                base_pm = np.stack([
                    np.stack([_simplex(rng, nm) for _ in range(nu)]) for _ in range(2)
                ])
            for j, x in enumerate(members):
                psi[:, x, :] = psi_g
                for a in range(2):
                    if j == 0 or mediator_ignorable:
                        p_u[a, x] = base_pu[a]
                        p_m[a, x] = base_pm[a]
                    elif decoupled:
                        p_u[a, x] = base_pu[a]
                        p_m[a, x] = _scaled(base_pm[a],
                                            _pm_perturbation(rng, base_pu[a], nm), rng)
                    else:
                        p_m[a, x] = base_pm[a]
                if not decoupled and j > 0 and not mediator_ignorable:
                    if shared_arms:
                        stack = np.concatenate([base_pm[0].T, base_pm[1].T])
                        v = _pu_perturbation(rng, stack)
                        if v is None:
                            ok = False
                            break
                        p_u[0, x] = _scaled(base_pu[0], v, rng)
                        p_u[1, x] = p_u[0, x]
                    else:
                        for a in range(2):
                            v = _pu_perturbation(rng, base_pm[a].T)
                            if v is None:
                                ok = False
                                break
                            p_u[a, x] = _scaled(base_pu[a], v, rng)
            if not ok:
                break
        if not ok:
            continue

        model = DiscreteModel(p_x, p_u, p_m, psi, tuple(int(g) for g in groups))
        if _well_separated(model):
            return model
    raise BridgeboundError(f"no well-separated model in {_MODEL_TRIES} tries")


def _well_separated(model: DiscreteModel) -> bool:
    """Bridge values must collide inside groups and separate across them."""
    f = model.bridge_values()
    for m in range(model.nm):
        pairs = np.stack([f[0, :, m], f[1, :, m]], axis=1)
        for x1 in range(model.nx):
            for x2 in range(x1 + 1, model.nx):
                gap = np.abs(pairs[x1] - pairs[x2]).max()
                same = model.groups[x1] == model.groups[x2]
                if same and gap > _INTRA_TOL:
                    return False
                if not same and gap < _SEPARATION:
                    return False
    return True


# ---------------------------------------------------------------------------
# corpus runner
# ---------------------------------------------------------------------------

CHECK_THRESHOLDS = {
    "balancing_tv": 1e-10,
    "bound_gap": 1e-10,
    "projection_residual": 1e-10,
    "gamma_gap_min": -1e-10,
    "eta_gap_min_decoupled": -1e-10,
    "quantile_mean0": 1e-10,
    "quantile_mean1": 1e-10,
    "quantile_eta": 0.0,
    "quantile_gamma": 0.0,
    "popoviciu_gap": 1e-12,
    "scalar_identity": 1e-10,
    "xi_bar_sup_gap": 1e-12,
    "delta_bar_envelope_gap": 1e-10,
}

# folded by min; every other statistic is folded by max
_MIN_STATS = ("gamma_gap_min", "eta_gap_min_decoupled", "eta_gap_min_any")


@dataclass
class FuzzReport:
    """Worst observed statistic per check over a model corpus."""

    n_models: int
    seed: int
    stats: dict
    eta_gap_min_any: float     # reported, never asserted

    def failures(self) -> dict:
        return {name: value for name, value in self.stats.items()
                if (value < CHECK_THRESHOLDS[name] if name in _MIN_STATS
                    else value > CHECK_THRESHOLDS[name])}


def _fold(stats: dict, name: str, value) -> None:
    pick = min if name in _MIN_STATS else max
    stats[name] = pick(stats.get(name, value), value)


def check_model(model: DiscreteModel) -> dict:
    """Worst value of every exact check on one model, in a single walk.

    Each mediator value is partitioned once and each (m, stratum, arm) cell
    enumerated once. A cell gives its stratum's balancing TV distance between
    P(x | a, M=m, stratum) and P(x | a, stratum) and its bound, projection,
    tightening, quantile and Popoviciu statistics; eta_gap_min_any covers
    the cells that do not decouple.

    When the latent law and psi are arm-free, the same cells give the scalar
    reduction: theta enumerated directly and as theta_si + Delta_bar_0 -
    Delta_bar_1 (scalar_identity is their gap), and the aggregated envelopes
    xi_bar against their pointwise sup and the aggregated shifts. When the
    mediator tables are also free of u, the anchor theta_si alone must be
    exact, and scalar_identity covers that gap too. Models whose arms differ
    get no reduction entries.
    """
    f = model.bridge_values()
    arm_free = (np.array_equal(model.p_u[0], model.p_u[1])
                and np.array_equal(model.psi[0], model.psi[1]))
    out = {}
    theta_si = 0.0
    delta_bar = [0.0, 0.0]
    xi_bar = [0.0, 0.0]
    xi_max = [0.0, 0.0]
    for m in range(model.nm):
        cell_of = {}
        for stratum in exact_bridge_partition(model, m):
            idx = np.asarray(stratum)
            px = model.p_x[idx]
            for arm in (0, 1):
                joint = px * f[arm, idx, m]
                if joint.sum() <= 0.0:
                    raise BridgeboundError(
                        f"stratum {stratum} carries no mass at m={m}, arm={arm}")
                tv = 0.5 * float(np.abs(joint / joint.sum() - px / px.sum()).sum())
                _fold(out, "balancing_tv", tv)
            sens = [exact_sensitivity(model, arm, m, stratum) for arm in (0, 1)]
            for cell in sens:
                _fold(out, "bound_gap", bound_gap(cell))
                _fold(out, "projection_residual", check_projection(cell))
                ggap, egap = check_tightening(cell)
                _fold(out, "gamma_gap_min", ggap)
                _fold(out, "eta_gap_min_decoupled" if cell.decoupled
                      else "eta_gap_min_any", egap)
                q = check_quantile_representation(cell)
                for key in ("mean0", "mean1", "eta", "gamma"):
                    _fold(out, f"quantile_{key}", q[f"{key}_residual"])
                _fold(out, "popoviciu_gap", check_popoviciu(cell))
            if arm_free:
                # mu1: outcome mean among treated at (m, stratum)
                w1 = px[:, None] * model.p_u[1, idx, :] * model.p_m[1, idx, :, m]
                mu1 = float((w1 * model.psi[1, idx, :]).sum() / w1.sum())
                for x in stratum:
                    cell_of[x] = (mu1, sens)
        if not arm_free:
            continue
        for x in range(model.nx):
            mu1, sens = cell_of[x]
            w = model.p_x[x] * f[0, x, m]
            theta_si += w * mu1
            for arm in (0, 1):
                delta_bar[arm] += w * sens[arm].delta
                xi = xi_pointwise(sens[arm].eta, sens[arm].gamma)
                xi_bar[arm] += w * xi
                xi_max[arm] = max(xi_max[arm], xi)
    if not arm_free:
        return out

    theta_direct = 0.0
    for x in range(model.nx):
        inner = float(np.sum(model.p_u[0, x, :][:, None] * model.p_m[0, x, :, :]
                             * model.psi[0, x, :][:, None]))
        theta_direct += model.p_x[x] * inner
    recombined = theta_si + delta_bar[0] - delta_bar[1]
    identity = abs(theta_direct - recombined)
    out.update(
        theta_direct=theta_direct,
        theta_recombined=recombined,
        delta_bar=tuple(delta_bar),
        xi_bar=tuple(xi_bar),
        scalar_identity=identity,
        xi_bar_sup_gap=max(xi_bar[0] - xi_max[0], xi_bar[1] - xi_max[1]),
        delta_bar_envelope_gap=max(abs(delta_bar[0]) - xi_bar[0],
                                   abs(delta_bar[1]) - xi_bar[1]),
    )
    if identity <= 1e-12 and not np.ptp(model.p_m, axis=2).any():
        anchor_gap = abs(theta_direct - (recombined - delta_bar[0] + delta_bar[1]))
        _fold(out, "scalar_identity", anchor_gap)
    return out


def run_fuzz(n_models: int = 1000, seed: int = 90210) -> FuzzReport:
    """Run every exact check over a seeded corpus of random models.

    The corpus cycles through four kinds: decoupled, non-decoupled, arm-free
    decoupled, and arm-free non-decoupled. check_model walks each model once;
    on arm-free models that walk also checks the scalar-reduction identity.
    Every tenth arm-free decoupled model is mediator-ignorable, where the
    anchor is exact.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    stats = {name: (np.inf if name in _MIN_STATS else 0.0)
             for name in (*CHECK_THRESHOLDS, "eta_gap_min_any")}
    for i in range(n_models):
        kind = i % 4
        model = random_model(rng, decoupled=kind in (0, 2), shared_arms=kind in (2, 3),
                             mediator_ignorable=kind == 2 and (i % 40 == 2))
        res = check_model(model)
        for name in stats:
            if name in res:
                _fold(stats, name, res[name])
    eta_any = stats.pop("eta_gap_min_any")
    return FuzzReport(n_models, seed, stats, float(eta_any if np.isfinite(eta_any) else 0.0))
