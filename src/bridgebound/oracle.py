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
messages (the corpus generator builds its models unchecked). One _strata call
partitions the group at every mediator value of every model, on the bridge
gaps the generator's well-separation test reads too (_bridge_gap); the strata
form one cell x covariate membership mask with a model index per cell, and
every (arm, m, stratum) cell of the group is evaluated at once by masked array
operations, the only code that enumerates a conditional law. A cell gives its
balancing TV and stratum mass with its sensitivity quantities; each statistic
is one max or min per model over its run of cells, and the scalar reduction
reads the cells' masses and mu1, one model at a time. check_model is the
one-model case, exact_bridge_partition one (model, m) of _strata, and
exact_sensitivity evaluates one cell with the same code.
run_fuzz checks its corpus in chunks of _CHUNK models and folds the per-model
worst values in corpus order, naming the model behind each.

The fuzz generator builds seeded random models whose multi-x strata are exact
by construction: members of a group share bridge laws either by sharing the
latent law and perturbing mediator tables inside the mixture-preserving null
space (decoupled), or by sharing mediator tables and perturbing the latent law
inside the mediator matrix's kernel (non-decoupled). random_model draws a
batch of models of one kind in a few vectorized passes over tables padded to
the largest corpus shape and masked to each model's own; its sums are
elementwise adds in a fixed order and its kernel directions projections by
Gram-Schmidt, with no BLAS or LAPACK call, so the corpus does not depend on
the CPU's kernels. run_fuzz draws its corpus in blocks of _BLOCK models, each
from its own child stream of the seed with one random_model call per kind,
so a shorter corpus is a prefix of a longer one.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
from typing import List, NamedTuple, Sequence, Tuple

import numpy as np

from .envelope import xi_pointwise
from .errors import BridgeboundError

_SUM_TOL = 1e-12
_INTRA_TOL = 1e-12      # members of one stratum agree on the bridge to this
_SEPARATION = 1e-7      # distinct strata differ by at least this
_MODEL_TRIES = 100      # random_model redraws before giving up
_CHUNK = 1024           # corpus models run_fuzz checks per batch
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
        for label in self.groups:
            if not _is_index(label):
                raise BridgeboundError(f"group label {label!r} is not an integer")
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


def _is_index(value) -> bool:
    """An integer, numpy's included, but not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _ordered_sum(a: np.ndarray) -> np.ndarray:
    """Sum over the last axis, first to last, by elementwise adds.

    No BLAS call and no pairwise reduction, so the bits depend on neither the
    CPU's kernels nor the array's layout; padded zeros add nothing.
    """
    total = a[..., 0].copy()
    for j in range(1, a.shape[-1]):
        total += a[..., j]
    return total


def _bridge_gap(p_u: np.ndarray, p_m: np.ndarray) -> np.ndarray:
    """gap[g, x, y, m] = max over a of |f_a(m | x) - f_a(m | y)| in model g.

    f_a(m | x) = P(M = m | A = a, X = x), marginal over U, is an ordered sum,
    so the gaps read the same bits whatever the CPU's kernels and whatever
    zero padding the tables carry. A NaN bridge value gives NaN gaps.
    """
    f = _ordered_sum(p_u[..., None, :] * p_m.swapaxes(3, 4))               # (G, 2, X, M)
    return np.abs(f[:, :, :, None, :] - f[:, :, None, :, :]).max(axis=1)   # (G, X, X, M)


def _strata(p_u: np.ndarray, p_m: np.ndarray):
    """(g, m, members) of the strata of a stack of same-shape models.

    members[k] is stratum k of model g[k] at mediator value m[k], the x's
    sharing a bridge pair, as a boolean row over x. Each x, in index order,
    joins the first stratum whose head (first member) is within _INTRA_TOL of
    it on both arms, or opens one; the walk over x runs on every (model, m)
    at once. Strata come by model, then m, then head.
    """
    close = _bridge_gap(p_u, p_m).transpose(0, 3, 1, 2) <= _INTRA_TOL     # (G, M, X, X)
    nx = close.shape[-1]
    head = np.zeros(close.shape[:-1], dtype=int)                           # (G, M, X)
    for x in range(1, nx):
        joins = (head[..., :x] == np.arange(x)) & close[..., x, :x]
        head[..., x] = np.where(joins.any(axis=-1), joins.argmax(axis=-1), x)
    g, m, first = np.nonzero(head == np.arange(nx))
    return g, m, head[g, m] == first[:, None]


def exact_bridge_partition(model: DiscreteModel, m: int) -> List[List[int]]:
    """Strata of x values sharing the bridge pair (f0(m|x), f1(m|x)).

    The one-model view of _strata, the partition check_models runs: strata
    in order of their heads (first members), members in index order.
    """
    if not _is_index(m) or not 0 <= m < model.nm:
        raise BridgeboundError(f"m must lie in [0, {model.nm}), got {m!r}")
    _, at, members = _strata(model.p_u[None], model.p_m[None])
    return [np.flatnonzero(row).tolist() for row in members[at == m]]


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
    if not _is_index(arm) or arm not in (0, 1):
        raise BridgeboundError(f"arm must be 0 or 1, got {arm!r}")
    if not _is_index(m) or not 0 <= m < model.nm:
        raise BridgeboundError(f"m must lie in [0, {model.nm}), got {m!r}")
    if (not idx or len(set(idx)) < len(idx)
            or not all(_is_index(x) and 0 <= x < model.nx for x in idx)):
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

def bound_gap(sens: StratumSensitivity):
    """|Delta| minus the envelope; positive values violate the bound."""
    return np.abs(sens.delta) - xi_pointwise(sens.eta, sens.gamma)


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


def _sharpness_tables(gamma: np.ndarray, eta: np.ndarray) -> _Tables:
    """make_sharpness_model's tables at each (gamma, eta) of two flat arrays, stacked."""
    bad = ~((1.0 <= gamma) & (gamma < math.inf) & (0.0 <= eta) & (eta < math.inf))
    if bad.any():
        j = np.argmax(bad)
        raise BridgeboundError(
            f"need gamma >= 1 and eta >= 0, both finite, got {gamma[j]}, {eta[j]}")
    k = len(gamma)
    p_u = np.stack([1.0 / gamma, 1.0 - 1.0 / gamma], axis=1)[:, None, None, :]
    psi = np.stack([eta, np.zeros(k)], axis=1)[:, None, None, :]
    return _Tables(np.ones((k, 1)), np.repeat(p_u, 2, axis=1),
                   np.tile(np.array([[0.5, 0.5], [0.0, 1.0]]), (k, 2, 1, 1, 1)),
                   np.repeat(psi, 2, axis=1), np.zeros((k, 1), dtype=int))


def make_sharpness_model(gamma: float, eta: float) -> DiscreteModel:
    """Two-point construction attaining the bound with equality.

    The baseline latent law puts mass 1/gamma on u1; conditioning on the first
    mediator value concentrates all mass there, so the density ratio is exactly
    gamma; psi = (eta, 0) swings by eta across the two points.
    """
    tables = _sharpness_tables(np.array([gamma], dtype=np.float64),
                               np.array([eta], dtype=np.float64))
    return DiscreteModel(*(table[0] for table in tables[:4]), (0,))


def check_bound_and_sharpness(gamma, eta):
    """Achieved |Delta| and the envelope for the extremal construction.

    Returns (delta_plus, delta_minus, bound): the construction with psi =
    (eta, 0) attains +bound, the flipped psi = (0, eta) attains -bound.
    gamma and eta broadcast together; arrays give arrays of their broadcast
    shape, and the cells of every point, both signs, go through one _evaluate
    call. Each cell reduces over one covariate and two latent values only, so
    a point reads the same bits alone or in a grid.
    """
    gamma, eta = np.broadcast_arrays(np.asarray(gamma, dtype=np.float64),
                                     np.asarray(eta, dtype=np.float64))
    tables = _sharpness_tables(gamma.ravel(), eta.ravel())
    flipped = tables._replace(psi=tables.psi[..., ::-1])
    both = _Tables(*(np.concatenate(pair) for pair in zip(tables, flipped)))
    k = len(both.p_x)
    zero = np.zeros(k, dtype=int)
    delta = _evaluate(both, np.arange(k), zero, zero, np.ones((k, 1), dtype=bool),
                      zero).delta.reshape(2, *gamma.shape)
    return delta[0][()], delta[1][()], xi_pointwise(eta, gamma)


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


_NX, _NU, _NM = 4, 5, 4     # the largest corpus shapes; a draw pads its tables to them
_BLOCK = 160                # corpus models drawn together; a multiple of 40, so every
                            # block holds the same mix of kinds


class _DrawFailed(BridgeboundError):
    """random_model found no well-separated draw of one of its models;
    drawn holds the models before that one, in order."""

    def __init__(self, message: str, drawn: list):
        super().__init__(message)
        self.drawn = drawn


class _Draw(NamedTuple):
    """Tables of a batch of models, zero-padded to (_NX, _NU, _NM)."""

    nx: np.ndarray             # (n,)
    nu: np.ndarray             # (n,)
    nm: np.ndarray             # (n,)
    groups: np.ndarray         # (n, _NX)
    p_x: np.ndarray            # (n, _NX)
    p_u: np.ndarray            # (n, 2, _NX, _NU)
    p_m: np.ndarray            # (n, 2, _NX, _NU, _NM)
    psi: np.ndarray            # (n, 2, _NX, _NU)


def _filled(mask: np.ndarray, values: np.ndarray) -> np.ndarray:
    """values in the cells of mask, in C order, and 0 elsewhere."""
    out = np.zeros(mask.shape)
    out[mask] = values
    return out


def _simplex(rng: np.random.Generator, mask: np.ndarray) -> np.ndarray:
    """0.85 * Dirichlet(2) + 0.15 / k over the k cells of each row of mask.

    A Dirichlet(2) row is a row of standard_gamma(2) variates over its sum;
    the floor keeps every cell bounded away from zero so ratios stay stable.
    Cells outside mask, and rows without a cell, read 0.
    """
    gamma = _filled(mask, rng.standard_gamma(2.0, np.count_nonzero(mask)))
    total = _ordered_sum(gamma)[..., None]
    k = mask.sum(axis=-1, keepdims=True)
    share = np.divide(gamma, total, out=np.zeros_like(gamma), where=mask)
    return np.where(mask, 0.85 * share + 0.15 / np.maximum(k, 1), 0.0)


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return _ordered_sum(a * b)[..., None]


def _kernel_direction(z: np.ndarray, rows: Sequence[np.ndarray], valid: np.ndarray):
    """z projected onto the vectors orthogonal to 1 and to every row of rows.

    Over the valid latent values of each of its rows, by Gram-Schmidt in
    ordered sums: the z - A'(AA')^-1 A z of A = (1, rows). A normal z gives
    the isotropic normal law on that kernel whatever basis spans it. Each
    projection runs twice, so what is left stays orthogonal to rounding level
    even when a row is nearly constant.
    """
    def project(v, basis):
        for _ in range(2):
            for q in basis:
                v = v - _dot(v, q) / _dot(q, q) * q
        return v

    basis = []
    for row in (np.where(valid, 1.0, 0.0), *rows):
        basis.append(project(row, basis))
    return project(z, basis)


def _scaled(rng, base: np.ndarray, direction: np.ndarray, valid: np.ndarray) -> np.ndarray:
    """base + eps * direction, rows over their valid cells (trailing axes).

    eps = 0.4 * margin / peak * U(0.3, 1), margin the row's smallest valid
    base cell and peak its largest |direction|: every cell stays positive.
    A zero direction leaves its row as it is.
    """
    axes = tuple(range(1, base.ndim))
    margin = base.min(axis=axes, where=valid, initial=np.inf)
    peak = np.abs(direction).max(axis=axes)
    eps = np.divide(0.4 * margin, peak, out=np.zeros_like(peak), where=peak > 0.0)
    eps *= rng.uniform(0.3, 1.0, size=len(base))
    return base + eps.reshape(-1, *(1,) * len(axes)) * direction


def _draw(rng: np.random.Generator, n: int, decoupled: bool, shared_arms: bool,
          mediator_ignorable: bool) -> _Draw:
    """n models of one kind, each in a few vectorized passes over padded tables.

    Multi-x groups are exact by construction. Each group's first member holds
    its tables; the other members copy them and, unless the mediator is
    ignorable, perturb them in a direction that leaves the bridge pair fixed:
    the mediator tables inside the mixture-preserving null space (decoupled),
    or the latent law inside the kernel of the mediator rows (coupled).
    """
    if decoupled:
        nx = rng.integers(1, 5, n)
        nu = rng.integers(2, 6, n)
        nm = rng.integers(2, 5, n)
    else:
        # latent-law perturbations need room in the mediator kernel
        nm = np.full(n, 2)
        nu = np.full(n, 5) if shared_arms else rng.integers(3, 6, n)
        nx = rng.integers(2, 5, n)
    xs = np.arange(_NX) < nx[:, None]                                # (n, _NX)
    us = np.arange(_NU) < nu[:, None]
    ms = np.arange(_NM) < nm[:, None]

    # random partition into groups; nx >= 2 labels from nx - 1 values repeat
    # one, so a coupled model has a multi-member group to decouple
    labels = np.where(xs, rng.integers(0, np.maximum(1, nx - 1)[:, None], (n, _NX)), 0)
    present = (xs[:, :, None] & (labels[:, :, None] == np.arange(_NX))).any(axis=1)
    below = np.cumsum(present, axis=1) - present     # distinct labels below each value
    groups = np.take_along_axis(below, labels, axis=1)
    same = (groups[:, :, None] == groups[:, None, :]) & xs[:, None, :]
    head = same.argmax(axis=2)                       # first member of each x's group
    first = xs & (head == np.arange(_NX))

    p_x = _simplex(rng, xs)
    # the heads' tables; an arm-free model draws arm 0's psi and latent law
    # and copies them to arm 1
    heads = np.repeat(first[:, None, :, None], 2, axis=1)          # (n, 2, _NX, 1)
    lead = heads[:, :1 if shared_arms else 2] & us[:, None, None, :]
    copies = 2 if shared_arms else 1
    psi = np.repeat(_filled(lead, rng.random(np.count_nonzero(lead))), copies, axis=1)
    p_u = np.repeat(_simplex(rng, lead), copies, axis=1)
    if mediator_ignorable:
        rows = _simplex(rng, heads & ms[:, None, None, :])
        p_m = np.where(us[:, None, None, :, None], rows[:, :, :, None, :], 0.0)
    else:
        p_m = _simplex(rng, (heads & us[:, None, None, :])[..., None] & ms[:, None, None, None, :])
    # every member takes its group's tables
    take = (np.arange(n)[:, None, None], np.arange(2)[:, None], head[:, None, :])
    psi, p_u, p_m = psi[take], p_u[take], p_m[take]

    c, x = np.nonzero(xs & ~first & (not mediator_ignorable))     # the perturbed x's
    valid_u = us[c]
    if decoupled:
        # p_m[a, x] += eps * outer(v, w): v orthogonal to p_u[a, x] keeps the
        # mixture over u, a centred w keeps the rows' sums
        for a in range(2):
            base_u = p_u[c, a, x]
            v = _filled(valid_u, rng.standard_normal(np.count_nonzero(valid_u)))
            v -= _dot(base_u, v) / _dot(base_u, base_u) * base_u
            w = _filled(ms[c], rng.standard_normal(np.count_nonzero(ms[c])))
            w = np.where(ms[c], w - _ordered_sum(w)[:, None] / nm[c, None], 0.0)
            p_m[c, a, x] = _scaled(rng, p_m[c, a, x], v[:, :, None] * w[:, None, :],
                                   valid_u[:, :, None] & ms[c, None, :])
    else:
        # p_u[a, x] += eps * v, v in the kernel of the mediator rows (nm = 2: the
        # ones vector and column m = 0); an arm-free draw shares one v, in the
        # kernel of both arms' rows
        for arms in ([0, 1],) if shared_arms else ([0], [1]):
            z = _filled(valid_u, rng.standard_normal(np.count_nonzero(valid_u)))
            v = _kernel_direction(z, [p_m[c, a, x, :, 0] for a in arms], valid_u)
            p_u[c[:, None], arms, x[:, None]] = _scaled(rng, p_u[c, arms[0], x], v,
                                                        valid_u)[:, None]
    return _Draw(nx, nu, nm, groups, p_x, p_u, p_m, psi)


def _separated(draw: _Draw) -> np.ndarray:
    """Per model: bridge values collide inside groups and separate across them.

    Over each model's own x's and m's in tables padded to any shape; a NaN
    bridge value fails either way.
    """
    xs = np.arange(draw.p_u.shape[2]) < draw.nx[:, None]
    ms = np.arange(draw.p_m.shape[4]) < draw.nm[:, None]
    gap = _bridge_gap(draw.p_u, draw.p_m)                                  # (n, X, X, M)
    same = (draw.groups[:, :, None] == draw.groups[:, None, :])[..., None]
    bad = np.where(same, ~(gap <= _INTRA_TOL), ~(gap >= _SEPARATION))
    valid = (xs[:, :, None] & xs[:, None, :])[..., None] & ms[:, None, None, :]
    return ~(bad & valid).any(axis=(1, 2, 3))


def _well_separated(model: DiscreteModel) -> bool:
    """_separated for one model."""
    shape = (model.nx, model.p_u.shape[2], model.nm, model.groups)
    draw = _Draw(*(np.array([v]) for v in shape), *(getattr(model, t)[None] for t in _TABLES))
    return bool(_separated(draw)[0])


def _models(draw: _Draw) -> List[DiscreteModel]:
    """The models of a draw, in order, each cut to its own shape."""
    models = []
    for i, (nx, nu, nm, groups) in enumerate(zip(draw.nx.tolist(), draw.nu.tolist(),
                                                 draw.nm.tolist(), draw.groups.tolist())):
        models.append(DiscreteModel._unchecked(
            draw.p_x[i, :nx].copy(), draw.p_u[i, :, :nx, :nu].copy(),
            draw.p_m[i, :, :nx, :nu, :nm].copy(), draw.psi[i, :, :nx, :nu].copy(),
            tuple(groups[:nx])))
    return models


def random_model(rng: np.random.Generator, count=None, *, decoupled: bool = True,
                 shared_arms: bool = False, mediator_ignorable: bool = False):
    """count seeded random models of one kind, or one model if count is None.

    Multi-x strata are exact by construction. The models are drawn together
    (_draw), and those that fail the well-separation test are redrawn
    together, each up to _MODEL_TRIES times in all, so a model's variates
    depend on the others of its call. If some model is never well
    separated, raises _DrawFailed holding the models before it.
    """
    n = 1 if count is None else count
    draw = _draw(rng, n, decoupled, shared_arms, mediator_ignorable)
    ok = _separated(draw)
    for _ in range(_MODEL_TRIES - 1):
        redo = np.flatnonzero(~ok)
        if not redo.size:
            break
        fresh = _draw(rng, redo.size, decoupled, shared_arms, mediator_ignorable)
        for table, new in zip(draw, fresh):
            table[redo] = new
        ok[redo] = _separated(fresh)
    models = _models(draw)
    if not ok.all():
        raise _DrawFailed(f"no well-separated model in {_MODEL_TRIES} tries",
                          models[:int(np.argmin(ok))])
    return models[0] if count is None else models


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


def check_model(model: DiscreteModel) -> dict:
    """Worst value of every exact check on one model: check_models on [model].

    One _strata call partitions every mediator value into the strata
    exact_bridge_partition lists; they form one cell x covariate membership
    mask, and _evaluate computes every (arm, m, stratum) cell at once. The
    checks run on the whole batch and each statistic is one max or min over
    its cells. A cell gives its balancing TV distance between P(x | a, M=m,
    stratum) and P(x | stratum), its mass P(M=m, stratum | a), and its bound,
    projection, tightening, quantile and Popoviciu statistics; eta_gap_min_any
    covers the cells that do not decouple.

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
    constructor does, then partitioned by one _strata call, and their cells,
    tagged with a model index, go through _evaluate and the checks together;
    each statistic is folded per model over its run of cells by reduceat,
    which keeps NaN. Every entry matches a lone check_model call bit for bit.
    Every model is validated before any is checked. If a batch raises, the
    models are re-validated, then re-checked, one at a time in order, so the
    error is the first model's own: of its tables if any model's are invalid,
    else the first one a loop of check_model calls would raise.
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
    g, ms, members = _strata(tables.p_u, tables.p_m)          # by model, then m
    bounds = np.searchsorted(g, np.arange(len(models) + 1))   # each model's run of strata
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
    xi = xi_pointwise(cells.eta, cells.gamma).reshape(2, n)
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


# the positions in a block of each (kind, mediator_ignorable): the same in every block
_BLOCK_KINDS = {}
for _j in range(_BLOCK):
    _BLOCK_KINDS.setdefault(_corpus_kind(_j), []).append(_j)


def _draw_block(seed: int, b: int):
    """(models, error) of corpus block b: models b * _BLOCK onwards.

    The block's stream is child b of SeedSequence(seed), and random_model
    draws each kind's models of the block in one call, so a model depends
    on the seed and its block alone. If some kind cannot draw a model, models
    stop before the first such model of the block, and error is its
    _DrawFailed; else models holds the whole block and error is None.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(b,)))
    models = [None] * _BLOCK
    stop, error = _BLOCK, None
    for (kind, ignorable), positions in _BLOCK_KINDS.items():
        try:
            drawn = random_model(rng, len(positions), decoupled=kind in (0, 2),
                                 shared_arms=kind in (2, 3), mediator_ignorable=ignorable)
        except _DrawFailed as exc:
            drawn = exc.drawn
            if positions[len(drawn)] < stop:
                stop, error = positions[len(drawn)], exc
        for j, model in zip(positions, drawn):
            models[j] = model
    return models[:stop], error


def _corpus(seed: int, n_models: int):
    """The first n_models corpus models, in order, drawn a whole block at a time.

    A shorter corpus is a prefix of a longer one. If a block cannot draw a
    model of the corpus, the models before it are yielded, then its error
    raises; a model it cannot draw past n_models is never asked for.
    """
    for b in range(-(-n_models // _BLOCK)):
        models, error = _draw_block(seed, b)
        wanted = n_models - b * _BLOCK
        yield from models[:wanted]
        if error is not None and len(models) < wanted:
            raise error


def run_fuzz(n_models: int = 1000, seed: int = 90210) -> FuzzReport:
    """Run every exact check over a seeded corpus of random models.

    The corpus cycles through MODEL_KINDS: decoupled, non-decoupled, arm-free
    decoupled, and arm-free non-decoupled. Every tenth arm-free decoupled
    model is mediator-ignorable, where the anchor is exact. It is drawn in
    blocks of _BLOCK models, one random_model call per kind a block (see
    _draw_block), and checked in chunks of _CHUNK models: check_models checks
    each chunk in one pass per model shape, and on arm-free models that pass
    also checks the scalar-reduction identity. If a block cannot draw a
    model of the corpus, every model before it is checked first, so
    run_fuzz raises what a one-at-a-time draw and check would.
    """
    names = (*CHECK_THRESHOLDS, "eta_gap_min_any")
    extreme = {}
    worst = dict.fromkeys(names)
    corpus = _corpus(seed, n_models)
    for start in range(0, n_models, _CHUNK):
        chunk = range(start, min(start + _CHUNK, n_models))
        models = []
        try:
            for _ in chunk:
                models.append(next(corpus))
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
