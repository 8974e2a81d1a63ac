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

check_models runs all of them on a list of models in shape-grouped batches.
Models of one shape (nx, nu, nm) have their tables stacked on a leading model
axis and validated together, with the public constructor's checks and
messages (the corpus generator builds its models unchecked). Each mediator
value of each model is partitioned once, the strata of all of them form one
cell x covariate membership mask with a model index per cell, and every
(arm, m, stratum) cell of the group is evaluated at once by masked array
operations, the only code that enumerates a conditional law. A cell gives its
balancing TV and stratum mass with its sensitivity quantities; each statistic
is one max or min per model over its run of cells, and the scalar reduction
reads the cells' masses and mu1, one model at a time. check_model is the
one-model case and exact_sensitivity evaluates one cell with the same code.
run_fuzz checks its corpus in chunks of _CHUNK models and folds the per-model
worst values in corpus order, naming the model behind each.

The fuzz generator builds seeded random models whose multi-x strata are exact
by construction: members of a group share bridge laws either by sharing the
latent law and perturbing mediator tables inside the mixture-preserving null
space (decoupled), or by sharing mediator tables and perturbing the latent law
inside the mediator matrix's kernel (non-decoupled).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import List, NamedTuple, Sequence, Tuple

import numpy as np

from .envelope import xi_pointwise
from .errors import BridgeboundError

_SUM_TOL = 1e-12
_INTRA_TOL = 1e-12      # members of one stratum agree on the bridge to this
_SEPARATION = 1e-7      # distinct strata differ by at least this
_MODEL_TRIES = 100      # random_model redraws before giving up
_CHUNK = 1024           # corpus models run_fuzz generates, then checks, per batch
_TABLES = ("p_x", "p_u", "p_m", "psi")


@dataclass(frozen=True)
class DiscreteModel:
    """Enumerable model: X ~ p_x, U | a,x ~ p_u, M | a,x,u ~ p_m, psi(a,x,u).

    psi is the mean of Y(1, m), free of m by construction, and constant across
    the x's of one group; groups are the x's sharing identical bridge laws.
    The constructor converts the tables to float64 and checks them (_validate
    on a one-model stack); random_model builds through _unchecked instead.
    """

    p_x: np.ndarray            # (nx,)
    p_u: np.ndarray            # (2, nx, nu)
    p_m: np.ndarray            # (2, nx, nu, nm)
    psi: np.ndarray            # (2, nx, nu)
    groups: Tuple[int, ...]

    def __post_init__(self):
        for name in _TABLES:
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=np.float64))
        object.__setattr__(self, "groups", tuple(int(g) for g in self.groups))
        _validate(_stack([self]))

    @classmethod
    def _unchecked(cls, p_x, p_u, p_m, psi, groups: Tuple[int, ...]) -> "DiscreteModel":
        """A model of float64 tables taken as they are, without _validate.

        For tables valid by construction; check_models validates every model
        it is given before it reads one.
        """
        model = object.__new__(cls)
        for name, value in zip((*_TABLES, "groups"), (p_x, p_u, p_m, psi, groups)):
            object.__setattr__(model, name, value)
        return model

    @property
    def nx(self) -> int:
        return self.p_x.shape[0]

    @property
    def nm(self) -> int:
        return self.p_m.shape[3]

    def bridge_values(self) -> np.ndarray:
        """f[a, x, m] = P(M = m | A = a, X = x), marginal over U (read-only).

        Enumerated on first use, then kept.
        """
        bridge = self.__dict__.get("_bridge")
        if bridge is None:
            bridge = np.einsum("axu,axum->axm", self.p_u, self.p_m)
            bridge.flags.writeable = False
            object.__setattr__(self, "_bridge", bridge)
        return bridge


class _Tables(NamedTuple):
    """Tables of same-shape models stacked on a leading model axis."""

    p_x: np.ndarray            # (G, nx)
    p_u: np.ndarray            # (G, 2, nx, nu)
    p_m: np.ndarray            # (G, 2, nx, nu, nm)
    psi: np.ndarray            # (G, 2, nx, nu)
    groups: np.ndarray         # (G, nx)


def _stack(models: Sequence[DiscreteModel]) -> _Tables:
    return _Tables(*(np.stack([getattr(model, name) for model in models]) for name in _TABLES),
                   np.array([model.groups for model in models]))


def _shape(model: DiscreteModel) -> tuple:
    """What models must share to be stacked: every table's shape."""
    return (*(getattr(model, name).shape for name in _TABLES), len(model.groups))


def _validate(tables: _Tables) -> None:
    """DiscreteModel's checks on a stack of models, in the constructor's order.

    Raises the message of the first check that some model fails; on a
    one-model stack that is the model's own first error.
    """
    p_x, p_u, p_m, psi, groups = tables
    if ((p_x.ndim, p_u.ndim, p_m.ndim, psi.ndim) != (2, 4, 5, 4)
            or p_u.shape[1:3] != (2, p_x.shape[1]) or p_m.shape[1:4] != p_u.shape[1:]):
        raise BridgeboundError("table shapes disagree")
    if psi.shape != p_u.shape or groups.shape[1] != p_x.shape[1]:
        raise BridgeboundError("psi or groups shape disagrees")
    for name, table in (("p_x", p_x), ("p_u", p_u), ("p_m", p_m)):
        if (table < 0.0).any() or not np.isfinite(table).all():
            raise BridgeboundError(f"{name} has negative or non-finite entries")
    total = p_x.sum(axis=1)
    off = np.abs(total - 1.0) > _SUM_TOL
    if off.any():
        raise BridgeboundError(f"p_x sums to {total[off.argmax()]}")
    if np.max(np.abs(p_u.sum(axis=3) - 1.0)) > _SUM_TOL:
        raise BridgeboundError("a p_u row does not sum to 1")
    if np.max(np.abs(p_m.sum(axis=4) - 1.0)) > _SUM_TOL:
        raise BridgeboundError("a p_m row does not sum to 1")
    if not np.isfinite(psi).all():
        raise BridgeboundError("psi has non-finite entries")
    # each x against the first member of its group
    first = np.argmax(groups[:, :, None] == groups[:, None, :], axis=2)      # (G, nx)
    heads = np.take_along_axis(psi, first[:, None, :, None], axis=2)
    drift = np.abs(psi - heads).max(axis=(1, 3)) > 1e-9                      # (G, nx)
    if drift.any():
        # the group of the first drifting covariate of the first such model
        j = drift.any(axis=1).argmax()
        raise BridgeboundError(f"psi not constant within group {groups[j, drift[j]][0]}")


def exact_bridge_partition(model: DiscreteModel, m: int) -> List[List[int]]:
    """Strata of x values sharing the bridge pair (f0(m|x), f1(m|x)).

    Each x, in lexicographic order of its pair, joins the first stratum whose
    head (first member) matches it on both arms; every open stratum is
    compared, since another stratum's f0 may sort between two members.
    """
    f = model.bridge_values()
    pairs = f[:, :, m].T
    order = np.lexsort((pairs[:, 1], pairs[:, 0]))
    close = np.all(np.abs(pairs[:, None, :] - pairs[None, :, :]) <= _INTRA_TOL, axis=2)
    strata: List[List[int]] = []
    for x in order.tolist():
        for stratum in strata:
            if close[x, stratum[0]]:
                stratum.append(x)
                break
        else:
            strata.append([x])
    return [sorted(s) for s in strata]


@dataclass(frozen=True)
class StratumSensitivity:
    """Exact sensitivity quantities for one (arm, m, stratum) cell.

    _evaluate fills the same fields for a batch of cells: each gains a
    leading cell axis, and the per-member fields span every x, with weight and
    delta_star 0 and gamma_star and eta_star -inf outside the stratum.
    """

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
    balancing_tv: float        # TV of P(x | a, M=m, stratum) from P(x | stratum)
    mass: float                # P(M=m, stratum | a)


def _ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """num / den where den > 0, else 0 (below the floor of 1 every sup takes)."""
    return np.divide(num, den, out=np.zeros_like(num), where=den > 0.0)


def _range(values: np.ndarray, where: np.ndarray) -> np.ndarray:
    """max - min of values over the last axis, restricted to where."""
    return (values.max(axis=-1, where=where, initial=-np.inf)
            - values.min(axis=-1, where=where, initial=np.inf))


def _stratum(members: np.ndarray, k) -> List[int]:
    return np.flatnonzero(members[k]).tolist()


def _evaluate(tables: _Tables, g: np.ndarray, arm: np.ndarray, m: np.ndarray,
              members: np.ndarray, head: np.ndarray) -> StratumSensitivity:
    """Every StratumSensitivity field, for a batch of cells.

    Cell k is (arm[k], m[k], stratum) of model g[k] of tables, with the
    stratum given by the boolean row members[k] over x; its psi is that of
    member head[k]. The only code that turns the tables into cell laws:
    exact_sensitivity and check_models both run on it.
    """
    groups = tables.groups[g]                      # (k, nx)
    mixed = np.any(members & (groups != tables.groups[g, head][:, None]), axis=1)
    if mixed.any():
        idx = _stratum(members, np.argmax(mixed))
        raise BridgeboundError(f"stratum {idx} mixes groups; bridge collision?")
    p_x = tables.p_x[g] * members                  # (k, nx)
    total = p_x.sum(axis=1)
    if np.any(total <= 0.0):
        idx = _stratum(members, np.argmax(total <= 0.0))
        raise BridgeboundError(f"stratum {idx} has zero covariate mass")
    weights = p_x / total[:, None]

    p_u = tables.p_u[g, arm]                       # (k, nx, nu)
    p_m_at = tables.p_m[g, arm, :, :, m]           # (k, nx, nu)
    f0 = np.einsum("kx,kxu->ku", weights, p_u)
    # P(u, m | a, S) / P(S), summed over x first: a one-x stratum is then
    # bit-identical to its covariate-level cell below
    joint = (weights[:, :, None] * p_u * p_m_at).sum(axis=1)
    mass = joint.sum(axis=1)
    if np.any(mass <= 0.0):
        k = np.argmax(mass <= 0.0)
        raise BridgeboundError(f"stratum {_stratum(members, k)} carries no mass "
                               f"at m={m[k]}, arm={arm[k]}")
    f1 = joint / mass[:, None]

    psi = tables.psi[g, arm, head]                 # (k, nu)
    support = f0 > 0.0
    delta = np.sum(psi * (f1 - f0), axis=1)
    # sup of dF1/dF0 is >= 1 for any two laws; the floor guards rounding only
    gamma = _ratio(f1, f0).max(axis=1, where=support, initial=1.0)
    eta = _range(psi, support)

    # covariate level: x alone is its stratum
    fx_joint = p_u * p_m_at
    fx = fx_joint.sum(axis=2)                      # (k, nx)
    dead = members & (fx <= 0.0)
    if dead.any():
        k, x = np.argwhere(dead)[0]
        raise BridgeboundError(f"f_{arm[k]}(m={m[k]} | x={x}) = 0")
    f1_x = fx_joint / np.where(members, fx, 1.0)[:, :, None]
    sup_x = p_u > 0.0
    psi_x = tables.psi[g, arm]                     # (k, nx, nu)
    delta_star = np.where(members, np.sum(psi_x * (f1_x - p_u), axis=2), 0.0)
    gamma_star = np.where(members, _ratio(f1_x, p_u).max(axis=2, where=sup_x, initial=1.0),
                          -np.inf)
    eta_star = np.where(members, _range(psi_x, sup_x), -np.inf)

    spread = np.abs(p_u - f0[:, None, :]).max(axis=(1, 2), where=members[:, :, None],
                                              initial=0.0)
    # P(x | a, M=m, S) = weights * fx / mass against P(x | S) = weights
    tv = 0.5 * np.abs(weights * fx / mass[:, None] - weights).sum(axis=1)
    return StratumSensitivity(delta, gamma, eta, f0, f1, psi, weights,
                              delta_star, gamma_star, eta_star, spread <= _INTRA_TOL,
                              tv, total * mass)


def exact_sensitivity(model: DiscreteModel, arm: int, m: int,
                      stratum: Sequence[int]) -> StratumSensitivity:
    """Enumerate Delta, gamma, eta and their covariate-level analogues.

    One cell through _evaluate; the per-member fields follow stratum's order,
    which must list distinct covariate indices in [0, nx).
    """
    idx = list(stratum)
    if arm not in (0, 1):
        raise BridgeboundError(f"arm must be 0 or 1, got {arm!r}")
    if not 0 <= m < model.nm:
        raise BridgeboundError(f"m must lie in [0, {model.nm}), got {m!r}")
    if not idx or len(set(idx)) < len(idx) or not all(0 <= x < model.nx for x in idx):
        raise BridgeboundError(
            f"stratum must list distinct covariates in [0, {model.nx}), got {idx!r}")
    members = np.zeros((1, model.nx), dtype=bool)
    members[0, idx] = True
    cell = _evaluate(_stack([model]), np.zeros(1, dtype=int), np.array([arm]),
                     np.array([m]), members, np.array([idx[0]]))
    return StratumSensitivity(
        float(cell.delta[0]), float(cell.gamma[0]), float(cell.eta[0]),
        cell.f0[0], cell.f1[0], cell.psi[0], cell.weights[0, idx],
        cell.delta_star[0, idx], cell.gamma_star[0, idx], cell.eta_star[0, idx],
        bool(cell.decoupled[0]), float(cell.balancing_tv[0]), float(cell.mass[0]))


# The checks below read one cell or a batch alike: they reduce over the last
# axis and return one value per cell.

def _xi(eta, gamma):
    """xi_pointwise on arrays: eta * (gamma - 1) / gamma, capped at eta.

    gamma here is a finite density ratio, never the +inf xi_pointwise admits.
    """
    return np.minimum(eta * (gamma - 1.0) / gamma, eta)


def bound_gap(sens: StratumSensitivity):
    """|Delta| minus the envelope; positive values violate the bound."""
    return np.abs(sens.delta) - _xi(sens.eta, sens.gamma)


def check_projection(sens: StratumSensitivity):
    """|Delta - sum_x w_x Delta*_x|: stratum value as mixture of covariate values."""
    return np.abs(sens.delta - np.sum(sens.weights * sens.delta_star, axis=-1))


def check_tightening(sens: StratumSensitivity):
    """(gamma_gap, eta_gap): sup-of-covariate-level minus stratum-level.

    gamma_gap >= 0 must hold unconditionally; eta_gap >= 0 is guaranteed only
    when the covariate and latent laws decouple inside the stratum
    (sens.decoupled).
    """
    gamma_gap = np.max(sens.gamma_star, axis=-1) - sens.gamma
    eta_gap = np.max(sens.eta_star, axis=-1) - sens.eta
    return gamma_gap, eta_gap


def check_popoviciu(sens: StratumSensitivity):
    """max variance of psi(U) under f0/f1 minus eta^2 / 4 (<= 0 up to rounding)."""
    worst = []
    for law in (sens.f0, sens.f1):
        mean = np.sum(law * sens.psi, axis=-1, keepdims=True)
        var = np.sum(law * (sens.psi - mean) ** 2, axis=-1)
        worst.append(var - 0.25 * sens.eta * sens.eta)
    return np.maximum(*worst)


def check_quantile_representation(sens: StratumSensitivity) -> dict:
    """Rebuild the cell on [0, 1] via the quantile transform of f0.

    Blocks of width f0(u) carry psi(u) and the density ratio h(u); the two
    conditional means must match the direct sums and (eta, gamma) must be
    preserved exactly.
    """
    cum = np.cumsum(sens.f0, axis=-1)
    widths = cum.copy()
    widths[..., 1:] -= cum[..., :-1]
    pos = widths > 0.0
    h = _ratio(sens.f1, sens.f0)

    mean0_blocks = np.sum(sens.psi * widths, axis=-1, where=pos)
    mean0_direct = np.sum(sens.psi * sens.f0, axis=-1)
    mean1_blocks = np.sum(sens.psi * h * widths, axis=-1, where=pos)
    mean1_direct = np.sum(sens.psi * sens.f1, axis=-1)
    eta_blocks = _range(sens.psi, pos)
    gamma_blocks = h.max(axis=-1, where=pos, initial=1.0)
    return {
        "mean0_residual": np.abs(mean0_blocks - mean0_direct),
        "mean1_residual": np.abs(mean1_blocks - mean1_direct),
        "eta_residual": np.abs(eta_blocks - sens.eta),
        "gamma_residual": np.abs(gamma_blocks - sens.gamma),
        "total_width_residual": np.abs(cum[..., -1] - 1.0),
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


_ALPHA = {k: np.full(k, 2.0) for k in range(1, 6)}    # random_model's simplex sizes


def _simplex(rng: np.random.Generator, k: int, rows=None) -> np.ndarray:
    # floor keeps every cell bounded away from zero so ratios stay stable; one
    # call for `rows` draws consumes the stream exactly as `rows` single calls
    return 0.85 * rng.dirichlet(_ALPHA[k], size=rows) + 0.15 / k


def _pm_perturbation(rng, p_u: np.ndarray, nm: int) -> np.ndarray:
    """Rank-one direction keeping row sums and the p_u-mixture fixed."""
    v = rng.standard_normal(p_u.shape[0])
    v -= (p_u @ v) / (p_u @ p_u) * p_u
    w = rng.standard_normal(nm)
    w -= w.mean()
    return np.outer(v, w)


def _pu_perturbation(rng, pm_stack: np.ndarray) -> np.ndarray:
    """Direction in the kernel of the stacked mediator matrices.

    random_model only stacks 2 or 4 rows over 3 to 5 latent values, so the
    kernel is never trivial.
    """
    _, s, vt = np.linalg.svd(pm_stack)
    rank = int((s > 1e-12 * s[0]).sum())
    basis = vt[rank:]
    v = rng.standard_normal(basis.shape[0]) @ basis
    return v / np.abs(v).max()


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

        # random partition into groups; nx >= 2 labels from nx - 1 values repeat
        # one, so a non-decoupled model has a multi-member group to decouple
        labels = rng.integers(0, max(1, nx - 1), size=nx).tolist() if nx > 1 else [0]
        # each label's rank among the distinct labels
        distinct = sorted(set(labels))
        groups = [distinct.index(label) for label in labels]

        p_x = _simplex(rng, nx)
        p_u = np.empty((2, nx, nu))
        p_m = np.empty((2, nx, nu, nm))
        psi = np.empty((2, nx, nu))

        for g in set(groups):
            members = [x for x in range(nx) if groups[x] == g]
            psi_g = rng.uniform(0.0, 1.0, size=(2, nu))
            if shared_arms:
                psi_g[1] = psi_g[0]
            base_pu = _simplex(rng, nu, 2)
            if shared_arms:
                base_pu[1] = base_pu[0]
            if mediator_ignorable:
                base_pm = np.repeat(_simplex(rng, nm, 2)[:, None, :], nu, axis=1)
            else:
                base_pm = _simplex(rng, nm, 2 * nu).reshape(2, nu, nm)
            for j, x in enumerate(members):
                psi[:, x] = psi_g
                p_u[:, x] = base_pu
                p_m[:, x] = base_pm
                if j == 0 or mediator_ignorable:
                    continue
                if decoupled:
                    for a in range(2):
                        p_m[a, x] = _scaled(base_pm[a], _pm_perturbation(rng, base_pu[a], nm), rng)
                elif shared_arms:
                    v = _pu_perturbation(rng, np.concatenate([base_pm[0].T, base_pm[1].T]))
                    p_u[:, x] = _scaled(base_pu[0], v, rng)
                else:
                    for a in range(2):
                        p_u[a, x] = _scaled(base_pu[a], _pu_perturbation(rng, base_pm[a].T), rng)

        model = DiscreteModel._unchecked(p_x, p_u, p_m, psi, tuple(groups))
        if _well_separated(model):
            return model
    raise BridgeboundError(f"no well-separated model in {_MODEL_TRIES} tries")


def _well_separated(model: DiscreteModel) -> bool:
    """Bridge values must collide inside groups and separate across them."""
    f = model.bridge_values()
    gap = np.abs(f[:, :, None, :] - f[:, None, :, :]).max(axis=0)   # (nx, nx, nm)
    groups = np.asarray(model.groups)
    same = (groups[:, None] == groups[None, :])[:, :, None]
    return not ((same & (gap > _INTRA_TOL)).any() or (~same & (gap < _SEPARATION)).any())


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

# run_fuzz's model kinds, by corpus index modulo 4
MODEL_KINDS = ("decoupled", "coupled", "arm-free decoupled", "arm-free coupled")


@dataclass
class FuzzReport:
    """Worst observed statistic per check over a model corpus.

    worst names, per statistic (eta_gap_min_any included), the first corpus
    model attaining its most extreme value: {"model": index, "kind": one of
    MODEL_KINDS, "mediator_ignorable": bool}, or None if no model reports it.
    """

    n_models: int
    seed: int
    stats: dict
    eta_gap_min_any: float     # reported, never asserted
    worst: dict

    def failures(self) -> dict:
        # a NaN compares false either way, so it fails
        return {name: value for name, value in self.stats.items()
                if not (value >= CHECK_THRESHOLDS[name] if name in _MIN_STATS
                        else value <= CHECK_THRESHOLDS[name])}


def _partition_mask(model: DiscreteModel):
    """(members, m) of every (m, stratum): one boolean row over x per stratum."""
    rows, ms = [], []
    for m in range(model.nm):
        for stratum in exact_bridge_partition(model, m):
            row = np.zeros(model.nx, dtype=bool)
            row[stratum] = True
            rows.append(row)
            ms.append(m)
    return np.array(rows), np.array(ms)


def check_model(model: DiscreteModel) -> dict:
    """Worst value of every exact check on one model: check_models on [model].

    Each mediator value is partitioned once; the strata of all mediator values
    form one cell x covariate membership mask, and _evaluate computes every
    (arm, m, stratum) cell at once. The checks run on the whole batch and each
    statistic is one max or min over its cells. A cell gives its balancing TV
    distance between P(x | a, M=m, stratum) and P(x | stratum), its mass P(M=m,
    stratum | a), and its bound, projection, tightening, quantile and
    Popoviciu statistics; eta_gap_min_any covers the cells that do not decouple.

    When the latent law and psi are arm-free, the same cells give the scalar
    reduction: theta_si weighs the arm-1 cells' mu1 = E[psi | a=1, M=m, stratum]
    by the arm-0 cells' masses, and theta enumerated from the tables must equal
    theta_si + Delta_bar_0 - Delta_bar_1 (scalar_identity is their gap); the
    aggregated envelopes xi_bar are checked against their pointwise sup and the
    aggregated shifts. When the mediator tables are also free of u, the anchor
    theta_si alone must be exact, and scalar_identity covers that gap too.
    Models whose arms differ get no reduction entries.
    """
    return check_models([model])[0]


def check_models(models: Sequence[DiscreteModel]) -> List[dict]:
    """check_model of every model, in one batched pass per model shape.

    The models of one shape (nx, nu, nm) are stacked and validated, as their
    constructor does, and then their cells, tagged with a model index, go
    through _evaluate and the checks together; each statistic is folded per
    model over its run of cells by reduceat, which keeps NaN. Every entry
    matches a lone check_model call bit for bit. Every model is validated
    before any is checked. If a batch raises, the models are re-validated,
    then re-checked, one at a time in order, so the error is the first
    model's own: of its tables if any model's are invalid, else the first one
    a loop of check_model calls would raise.
    """
    shapes = {}
    for i, model in enumerate(models):
        shapes.setdefault(_shape(model), []).append(i)
    batches = [(idx, [models[i] for i in idx]) for idx in shapes.values()]
    results = [None] * len(models)
    try:
        stacks = [_stack(group) for _, group in batches]
        for tables in stacks:
            _validate(tables)
        for (idx, group), tables in zip(batches, stacks):
            for i, res in zip(idx, _check_group(group, tables)):
                results[i] = res
    except BridgeboundError:
        if len(models) > 1:
            for model in models:
                _validate(_stack([model]))
            for model in models:
                check_model(model)
        raise
    return results


def _check_group(models: Sequence[DiscreteModel], tables: _Tables) -> List[dict]:
    """check_models on models of one shape, given their validated stack."""
    parts = [_partition_mask(model) for model in models]
    members = np.concatenate([rows for rows, _ in parts])      # (s, nx)
    ms = np.concatenate([mvals for _, mvals in parts])         # (s,)
    sizes = [len(mvals) for _, mvals in parts]
    g = np.repeat(np.arange(len(models)), sizes)               # model of each stratum
    bounds = np.cumsum([0, *sizes])
    n = len(ms)
    heads = members.argmax(axis=1)
    cells = _evaluate(tables, np.concatenate([g, g]), np.repeat([0, 1], n),
                      np.concatenate([ms, ms]), np.concatenate([members, members]),
                      np.concatenate([heads, heads]))

    def fold(ufunc, values):
        # per model over its strata, then over the two arms
        return ufunc.reduce(ufunc.reduceat(values.reshape(2, n), bounds[:-1], axis=1))

    gamma_gap, eta_gap = check_tightening(cells)
    decoupled = cells.decoupled
    q = check_quantile_representation(cells)
    stats = {
        "balancing_tv": fold(np.maximum, cells.balancing_tv),
        "bound_gap": fold(np.maximum, bound_gap(cells)),
        "projection_residual": fold(np.maximum, check_projection(cells)),
        "gamma_gap_min": fold(np.minimum, gamma_gap),
        **{f"quantile_{key}": fold(np.maximum, q[f"{key}_residual"])
           for key in ("mean0", "mean1", "eta", "gamma")},
        "popoviciu_gap": fold(np.maximum, check_popoviciu(cells)),
    }
    any_decoupled = fold(np.logical_or, decoupled)
    all_decoupled = fold(np.logical_and, decoupled)
    eta_decoupled = fold(np.minimum, np.where(decoupled, eta_gap, np.inf))
    eta_any = fold(np.minimum, np.where(decoupled, np.inf, eta_gap))
    delta = cells.delta.reshape(2, n)
    xi = _xi(cells.eta, cells.gamma).reshape(2, n)
    mu1 = np.sum(cells.f1 * cells.psi, axis=1)[n:]      # E[psi | a=1, M=m, stratum]
    w = cells.mass[:n]                                   # P(M=m, stratum | a=0)

    results = []
    for j, model in enumerate(models):
        out = {name: float(values[j]) for name, values in stats.items()}
        if any_decoupled[j]:
            out["eta_gap_min_decoupled"] = float(eta_decoupled[j])
        if not all_decoupled[j]:
            out["eta_gap_min_any"] = float(eta_any[j])
        lo, hi = bounds[j], bounds[j + 1]
        out.update(_scalar_reduction(model, mu1[lo:hi], w[lo:hi],
                                     delta[:, lo:hi], xi[:, lo:hi]))
        results.append(out)
    return results


def _scalar_reduction(model: DiscreteModel, mu1, w, delta, xi) -> dict:
    """check_model's scalar-reduction entries from one model's cells.

    mu1 = E[psi | a=1, M=m, stratum] and its weight w = P(M=m, stratum | a=0)
    hold one entry per stratum, delta and xi one row per arm: the model's
    slices of its group's cells. theta_direct, the identity's independent side,
    is enumerated from the tables. The weighted sums are math.fsum of the
    elementwise products, so they do not depend on the arrays' memory layout.
    """
    if not (np.array_equal(model.p_u[0], model.p_u[1])
            and np.array_equal(model.psi[0], model.psi[1])):
        return {}
    theta_si = math.fsum(w * mu1)
    delta_bar = tuple(math.fsum(row * w) for row in delta)
    xi_bar = tuple(math.fsum(row * w) for row in xi)
    xi_max = xi.max(axis=1)

    inner = (model.p_u[0][:, :, None] * model.p_m[0]
             * model.psi[0][:, :, None]).sum(axis=(1, 2))
    theta_direct = float(model.p_x @ inner)
    recombined = theta_si + delta_bar[0] - delta_bar[1]
    identity = abs(theta_direct - recombined)
    out = dict(
        theta_direct=theta_direct,
        theta_recombined=recombined,
        delta_bar=delta_bar,
        xi_bar=xi_bar,
        scalar_identity=identity,
        # np.maximum, unlike max(), keeps a NaN in either place
        xi_bar_sup_gap=float(np.maximum(xi_bar[0] - xi_max[0], xi_bar[1] - xi_max[1])),
        delta_bar_envelope_gap=float(np.maximum(abs(delta_bar[0]) - xi_bar[0],
                                                abs(delta_bar[1]) - xi_bar[1])),
    )
    if identity <= 1e-12 and not np.ptp(model.p_m, axis=2).any():
        anchor_gap = abs(theta_direct - theta_si)
        out["scalar_identity"] = float(np.maximum(identity, anchor_gap))
    return out


def _corpus_kind(i: int) -> Tuple[int, bool]:
    """(index into MODEL_KINDS, mediator_ignorable) of corpus model i."""
    return i % 4, i % 40 == 2


def run_fuzz(n_models: int = 1000, seed: int = 90210) -> FuzzReport:
    """Run every exact check over a seeded corpus of random models.

    The corpus cycles through MODEL_KINDS: decoupled, non-decoupled, arm-free
    decoupled, and arm-free non-decoupled. It is generated serially in chunks
    of _CHUNK models and check_models checks each chunk in one pass per model
    shape; on arm-free models that pass also checks the scalar-reduction
    identity. Every tenth arm-free decoupled model is mediator-ignorable,
    where the anchor is exact.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    names = (*CHECK_THRESHOLDS, "eta_gap_min_any")
    extreme = {}
    worst = dict.fromkeys(names)
    for start in range(0, n_models, _CHUNK):
        chunk = range(start, min(start + _CHUNK, n_models))
        models = []
        try:
            for i in chunk:
                kind, ignorable = _corpus_kind(i)
                models.append(random_model(rng, decoupled=kind in (0, 2),
                                           shared_arms=kind in (2, 3),
                                           mediator_ignorable=ignorable))
        except BridgeboundError:
            check_models(models)    # a model checked before the failed draw raises first
            raise
        for i, res in zip(chunk, check_models(models)):
            kind, ignorable = _corpus_kind(i)
            for name in names:
                if name not in res:
                    continue
                value = res[name]
                if name not in extreme or _worse(name, value, extreme[name]):
                    extreme[name] = value
                    worst[name] = {"model": i, "kind": MODEL_KINDS[kind],
                                   "mediator_ignorable": ignorable}
    # a finite max statistic reads at least 0; a min statistic no model reports
    # reads +inf, and eta_gap_min_any 0
    stats = {}
    for name in names:
        value = extreme.get(name, math.inf if name in _MIN_STATS else 0.0)
        stats[name] = value if name in _MIN_STATS or not math.isfinite(value) else max(0.0, value)
    eta_any = stats.pop("eta_gap_min_any")
    return FuzzReport(n_models, seed, stats,
                      float(eta_any if worst["eta_gap_min_any"] else 0.0), worst)


def _worse(name: str, value: float, than: float) -> bool:
    """Whether value is a more extreme reading of the statistic name than
    `than`. A non-finite value is the most extreme, and the first one stays."""
    if not math.isfinite(than):
        return False
    if not math.isfinite(value):
        return True
    return value < than if name in _MIN_STATS else value > than
