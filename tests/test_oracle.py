import hashlib
import math
import struct

import numpy as np
import pytest

from bridgebound import oracle
from bridgebound.envelope import xi_pointwise
from bridgebound.errors import BridgeboundError
from bridgebound.oracle import (CHECK_THRESHOLDS, MODEL_KINDS, DiscreteModel, FuzzReport,
                                StratumSensitivity, bound_gap,
                                check_bound_and_sharpness,
                                check_model, check_models, check_popoviciu,
                                check_projection,
                                check_quantile_representation,
                                check_tightening,
                                exact_bridge_partition, exact_sensitivity,
                                make_sharpness_model, random_model, run_fuzz,
                                self_test_failure)

from conftest import nan_after_first, rng


def single_x_model(p_u, p_m, psi):
    """One-covariate model; tables are shared by both arms."""
    return DiscreteModel(
        p_x=np.array([1.0]),
        p_u=np.tile(np.asarray(p_u, dtype=float), (2, 1, 1)),
        p_m=np.tile(np.asarray(p_m, dtype=float), (2, 1, 1, 1)),
        psi=np.tile(np.asarray(psi, dtype=float), (2, 1, 1)),
        groups=(0,),
    )


# dyadic tables keep every enumerated quantity exact in binary floating point
TWO_POINT = single_x_model(
    p_u=[0.5, 0.5],
    p_m=[[0.75, 0.25], [0.25, 0.75]],
    psi=[1.0, 0.0],
)


def mirrored_pair_model():
    """Two covariates whose mediator tables swap rows; bridges collide exactly."""
    p_u = np.tile(np.array([0.5, 0.5]), (2, 2, 1))
    rows = np.array([[0.75, 0.25], [0.25, 0.75]])
    p_m = np.stack([np.stack([rows, rows[::-1]]) for _ in range(2)])
    psi = np.tile(np.array([1.0, 0.0]), (2, 2, 1))
    return DiscreteModel(np.array([0.5, 0.5]), p_u, p_m, psi, (0, 0))


def corpus_models(seed, n_models):
    """(index, model) of run_fuzz's corpus, replaying its generator calls."""
    r = rng(seed)
    for i in range(n_models):
        kind = i % 4
        yield i, random_model(r, decoupled=kind in (0, 2), shared_arms=kind in (2, 3),
                              mediator_ignorable=kind == 2 and i % 40 == 2)


def straddled_stratum_model():
    """Group 0 = {0, 2} whose f0 at m=0 brackets x=1's, a different group."""
    f0 = np.array([0.5, 0.5 + 1e-13, 0.5 + 2e-13])
    f1 = np.array([0.9, 0.1, 0.9])
    p_m = np.empty((2, 3, 1, 2))
    for a, f in enumerate((f0, f1)):
        p_m[a, :, 0, 0] = f
        p_m[a, :, 0, 1] = 1.0 - f
    psi = np.array([0.25, 0.75, 0.25])[None, :, None].repeat(2, axis=0)
    return DiscreteModel(np.full(3, 1.0 / 3.0), np.ones((2, 3, 1)), p_m, psi, (0, 1, 0))


class TestPartition:
    def test_identical_bridges_form_one_stratum(self):
        p_u = np.tile(np.array([0.5, 0.5]), (2, 3, 1))
        p_m = np.tile(np.array([[0.75, 0.25], [0.25, 0.75]]), (2, 3, 1, 1))
        psi = np.tile(np.array([1.0, 0.0]), (2, 3, 1))
        model = DiscreteModel(np.array([0.25, 0.25, 0.5]), p_u, p_m, psi, (0, 0, 0))
        assert exact_bridge_partition(model, 0) == [[0, 1, 2]]

    def test_swapped_arm_densities_separate(self):
        # bridge pairs (0.25, 0.75) and (0.75, 0.25) must land in different strata
        p_u = np.ones((2, 2, 1))
        p_m = np.empty((2, 2, 1, 2))
        p_m[0, 0, 0] = [0.25, 0.75]
        p_m[1, 0, 0] = [0.75, 0.25]
        p_m[0, 1, 0] = [0.75, 0.25]
        p_m[1, 1, 0] = [0.25, 0.75]
        psi = np.zeros((2, 2, 1))
        model = DiscreteModel(np.array([0.5, 0.5]), p_u, p_m, psi, (0, 1))
        assert exact_bridge_partition(model, 0) == [[0], [1]]

    def test_duplicated_law_groups_pairs(self):
        p_u = np.tile(np.array([0.5, 0.5]), (2, 3, 1))
        p_m = np.tile(np.array([[0.75, 0.25], [0.25, 0.75]]), (2, 3, 1, 1))
        p_m[:, 2, :, :] = np.array([[0.125, 0.875], [0.125, 0.875]])
        psi = np.tile(np.array([1.0, 0.0]), (2, 3, 1))
        model = DiscreteModel(np.array([0.25, 0.25, 0.5]), p_u, p_m, psi, (0, 0, 1))
        sizes = sorted(len(s) for s in exact_bridge_partition(model, 0))
        assert sizes == [1, 2]
        assert [0, 1] in exact_bridge_partition(model, 0)

    def test_mirrored_pair_collides(self):
        model = mirrored_pair_model()
        for m in (0, 1):
            assert exact_bridge_partition(model, m) == [[0, 1]]

    def test_member_sorting_after_another_stratum_joins_its_head(self):
        # x=1's f0 sorts between x=0's and x=2's, so x=2 must be matched with
        # the head of a stratum that is not the last one opened
        model = straddled_stratum_model()
        assert oracle._well_separated(model)
        assert exact_bridge_partition(model, 0) == [[0, 2], [1]]
        assert exact_bridge_partition(model, 1) == [[0, 2], [1]]


class TestBalancing:
    def test_single_covariate_is_exactly_balanced(self):
        assert check_model(TWO_POINT)["balancing_tv"] == 0.0

    def test_constructed_strata_balance(self):
        assert check_model(mirrored_pair_model())["balancing_tv"] <= 1e-12

    def test_random_models_balance(self):
        r = rng(33)
        for i in range(12):
            model = random_model(r, decoupled=bool(i % 2))
            assert check_model(model)["balancing_tv"] <= 1e-10

    def test_zero_mass_detected(self):
        dead = single_x_model([0.5, 0.5], [[1.0, 0.0], [1.0, 0.0]], [1.0, 0.0])
        with pytest.raises(BridgeboundError, match="carries no mass"):
            check_model(dead)


class TestSensitivity:
    def test_two_point_cell_by_hand(self):
        sens = exact_sensitivity(TWO_POINT, 0, 0, [0])
        assert np.array_equal(sens.f0, [0.5, 0.5])
        assert np.array_equal(sens.f1, [0.75, 0.25])
        assert sens.delta == 0.25
        assert sens.gamma == 1.5
        assert sens.eta == 1.0
        assert sens.weights.tolist() == [1.0]
        assert sens.decoupled
        assert bound_gap(sens) == pytest.approx(0.25 - 1.0 / 3.0, rel=1e-15)

    def test_flipped_psi_flips_delta(self):
        flipped = single_x_model([0.5, 0.5], [[0.75, 0.25], [0.25, 0.75]],
                                 [0.0, 1.0])
        sens = exact_sensitivity(flipped, 0, 0, [0])
        assert sens.delta == -0.25

    def test_independent_mediator_gives_null_cell(self):
        flat = single_x_model([0.5, 0.5], [[0.75, 0.25], [0.75, 0.25]],
                              [1.0, 0.0])
        sens = exact_sensitivity(flat, 0, 0, [0])
        assert sens.delta == 0.0
        assert sens.gamma == 1.0
        assert np.array_equal(sens.f0, sens.f1)

    def test_constant_psi_gives_zero_delta_and_eta(self):
        const = single_x_model([0.5, 0.5], [[0.75, 0.25], [0.25, 0.75]],
                               [0.5, 0.5])
        sens = exact_sensitivity(const, 0, 0, [0])
        assert sens.delta == 0.0 and sens.eta == 0.0
        assert bound_gap(sens) == 0.0

    def test_mixed_group_stratum_rejected(self):
        model = mirrored_pair_model()
        bad = DiscreteModel(model.p_x, model.p_u, model.p_m, model.psi, (0, 1))
        with pytest.raises(BridgeboundError, match="mixes groups"):
            exact_sensitivity(bad, 0, 0, [0, 1])

    @pytest.mark.parametrize("arm,m,stratum,name", [
        (0, 0, [0, 0], "stratum"), (0, 0, [], "stratum"), (0, 0, [2], "stratum"),
        (0, 0, [-1], "stratum"), (0, 0, [1, -1], "stratum"),
        (2, 0, [0], "arm"), (-1, 0, [0], "arm"), (0, 2, [0], "m"), (1, -1, [0], "m"),
    ])
    def test_bad_cell_arguments_rejected(self, arm, m, stratum, name):
        # a repeated member used to weigh twice, an empty stratum to escape as an
        # IndexError and a negative one to wrap to the last covariate
        with pytest.raises(BridgeboundError, match=f"^{name} must"):
            exact_sensitivity(mirrored_pair_model(), arm, m, stratum)


class TestSharpness:
    def test_unit_gamma_collapses(self):
        plus, minus, bound = check_bound_and_sharpness(1.0, 3.0)
        assert plus == 0.0 and minus == 0.0 and bound == 0.0

    def test_two_one_case_exact(self):
        plus, minus, bound = check_bound_and_sharpness(2.0, 1.0)
        assert plus == 0.5 and minus == -0.5 and bound == 0.5

    def test_grid_attained_to_tolerance(self):
        for gamma in (1.1, 1.5, 2.0, 5.0, 50.0):
            for eta in (0.5, 1.0, 6.0):
                plus, minus, bound = check_bound_and_sharpness(gamma, eta)
                assert abs(plus - bound) <= 1e-12
                assert abs(minus + bound) <= 1e-12

    def test_invalid_parameters(self):
        with pytest.raises(BridgeboundError, match="need gamma >= 1"):
            make_sharpness_model(0.5, 1.0)
        with pytest.raises(BridgeboundError, match="eta >= 0"):
            make_sharpness_model(2.0, -1.0)


class TestProjectionAndTightening:
    def test_single_x_projection_is_trivial(self):
        sens = exact_sensitivity(TWO_POINT, 0, 0, [0])
        assert check_projection(sens) == 0.0
        assert sens.delta_star[0] == sens.delta
        ggap, egap = check_tightening(sens)
        assert ggap == 0.0 and egap == 0.0 and sens.decoupled

    def test_mirrored_pair_projects_to_zero(self):
        sens = exact_sensitivity(mirrored_pair_model(), 0, 0, [0, 1])
        # stratum-level shift vanishes while the members carry +-0.25
        assert sens.delta == 0.0
        assert sorted(sens.delta_star.tolist()) == [-0.25, 0.25]
        assert check_projection(sens) == 0.0
        assert np.array_equal(sens.f0, sens.f1)
        assert sens.gamma == 1.0

    def test_mirrored_pair_tightening(self):
        sens = exact_sensitivity(mirrored_pair_model(), 0, 0, [0, 1])
        ggap, egap = check_tightening(sens)
        assert sens.decoupled
        assert ggap == 0.5       # covariate-level sup is 1.5, stratum is 1.0
        assert egap == 0.0
        assert np.array_equal(sens.gamma_star, [1.5, 1.5])

    def test_random_models_tighten(self):
        r = rng(34)
        for i in range(12):
            model = random_model(r, decoupled=bool(i % 2))
            for m in range(model.nm):
                for arm in (0, 1):
                    for stratum in exact_bridge_partition(model, m):
                        sens = exact_sensitivity(model, arm, m, stratum)
                        ggap, egap = check_tightening(sens)
                        assert ggap >= -1e-10
                        if sens.decoupled:
                            assert egap >= -1e-10
                        assert check_projection(sens) <= 1e-10
                        assert bound_gap(sens) <= 1e-10
                        assert check_popoviciu(sens) <= 1e-12


class TestQuantileRepresentation:
    def test_uniform_two_point_blocks(self):
        sens = exact_sensitivity(TWO_POINT, 0, 0, [0])
        q = check_quantile_representation(sens)
        assert np.array_equal(q["widths"], [0.5, 0.5])
        assert np.array_equal(q["density_ratio"], [1.5, 0.5])
        for key in ("mean0_residual", "mean1_residual", "eta_residual",
                    "gamma_residual", "total_width_residual"):
            assert q[key] == 0.0

    def test_identical_laws_have_unit_ratio(self):
        flat = single_x_model([0.5, 0.5], [[0.75, 0.25], [0.75, 0.25]],
                              [1.0, 0.0])
        q = check_quantile_representation(exact_sensitivity(flat, 0, 0, [0]))
        assert np.array_equal(q["density_ratio"], [1.0, 1.0])


class TestPopoviciu:
    def test_binary_extreme_attains_bound(self):
        # mass split evenly across the two psi endpoints: var = eta^2 / 4
        sens = exact_sensitivity(TWO_POINT, 0, 0, [0])
        assert check_popoviciu(sens) == 0.0

    def test_concentrated_law_is_slack(self):
        lop = single_x_model([0.875, 0.125], [[0.75, 0.25], [0.25, 0.75]],
                             [1.0, 0.0])
        assert check_popoviciu(exact_sensitivity(lop, 0, 0, [0])) < 0.0


REDUCTION_KEYS = {"theta_direct", "theta_recombined", "delta_bar", "xi_bar",
                  "scalar_identity", "xi_bar_sup_gap", "delta_bar_envelope_gap"}


class TestScalarReduction:
    def test_requires_arm_free_tables(self):
        model = mirrored_pair_model()
        p_u = model.p_u.copy()
        p_u[1, 0] = [0.25, 0.75]
        p_u[1, 1] = [0.25, 0.75]
        biased = DiscreteModel(model.p_x, p_u, model.p_m, model.psi, model.groups)
        res = check_model(biased)
        assert not REDUCTION_KEYS & set(res)
        assert REDUCTION_KEYS <= set(check_model(model))

    def test_ignorable_model_has_exact_anchor(self):
        flat = single_x_model([0.5, 0.5], [[0.75, 0.25], [0.75, 0.25]],
                              [1.0, 0.0])
        res = check_model(flat)
        assert res["delta_bar"] == (0.0, 0.0)
        assert res["theta_direct"] == res["theta_recombined"]
        assert res["scalar_identity"] == 0.0

    def test_constant_envelope_model(self):
        # gamma = 1.5 and eta = 1 at both mediator values, so the aggregated
        # envelope equals the common pointwise value exactly
        res = check_model(TWO_POINT)
        xi = xi_pointwise(1.0, 1.5)
        assert res["xi_bar"] == (xi, xi)
        assert res["xi_bar_sup_gap"] == 0.0
        assert res["scalar_identity"] <= 1e-15
        assert res["delta_bar_envelope_gap"] <= 0.0

    def test_random_shared_arm_models(self):
        r = rng(35)
        for i in range(8):
            model = random_model(r, decoupled=bool(i % 2), shared_arms=True)
            res = check_model(model)
            assert res["scalar_identity"] <= 1e-10
            assert res["xi_bar_sup_gap"] <= 1e-12
            assert res["delta_bar_envelope_gap"] <= 1e-10

    def test_independent_of_the_weights_layout(self, monkeypatch):
        # the same weights, strided and contiguous, give the same entries bit for bit
        reduce = oracle._scalar_reduction
        pairs = []

        def both_layouts(model, mu1, w, delta, xi):
            strided = np.stack([w, w], axis=1)[:, 0]
            contiguous = np.ascontiguousarray(w)
            assert strided.strides != contiguous.strides
            pairs.append((reduce(model, mu1, strided, delta, xi),
                          reduce(model, mu1, contiguous, delta, xi)))
            return pairs[-1][0]

        monkeypatch.setattr(oracle, "_scalar_reduction", both_layouts)
        check_models([model for _, model in corpus_models(90210, 200)])
        assert sum(1 for a, _ in pairs if a) == 100
        for a, b in pairs:
            assert a == b


def test_check_model_enumerates_each_cell_once(monkeypatch):
    # one partition per mediator value, then every cell in one batched pass:
    # no per-cell exact_sensitivity call
    model = random_model(rng(39), decoupled=False, shared_arms=True)
    strata = sum(len(exact_bridge_partition(model, m)) for m in range(model.nm))
    calls = {"exact_bridge_partition": 0, "exact_sensitivity": 0, "_evaluate": 0}
    cells = []
    for name in calls:
        def counted(*args, _inner=getattr(oracle, name), _name=name):
            calls[_name] += 1
            out = _inner(*args)
            if _name == "_evaluate":
                cells.append(len(out.delta))
            return out
        monkeypatch.setattr(oracle, name, counted)
    res = check_model(model)
    assert "scalar_identity" in res
    assert calls == {"exact_bridge_partition": model.nm, "exact_sensitivity": 0,
                     "_evaluate": 1}
    assert cells == [2 * strata]


def float_bits(value):
    """struct-packed bits of a statistic: a float or a tuple of floats."""
    if isinstance(value, tuple):
        return tuple(float_bits(v) for v in value)
    return struct.pack("<d", value)


def test_batch_matches_each_model_alone_bit_for_bit():
    # all four kinds and many shapes: stacking a shape's models and folding
    # each model's run of cells must not move a bit of any statistic
    models = [model for _, model in corpus_models(90210, 200)]
    assert len({model.p_m.shape for model in models}) >= 10
    for i, (model, got) in enumerate(zip(models, check_models(models))):
        want = check_model(model)
        assert list(got) == list(want), i
        assert ({k: float_bits(v) for k, v in got.items()}
                == {k: float_bits(v) for k, v in want.items()}), i


def test_batch_raises_the_first_failing_models_error():
    # no mediator mass at m=1 (two latent values) and at m=0 (three); the
    # shape of TWO_POINT and no_m1 is evaluated first, yet the batch must
    # raise the error of its lowest-index failing model
    no_m1 = single_x_model([0.5, 0.5], [[1.0, 0.0], [1.0, 0.0]], [1.0, 0.0])
    no_m0 = single_x_model([0.25, 0.25, 0.5], [[0.0, 1.0]] * 3, [1.0, 0.0, 0.5])
    alone = {}
    for model in (no_m1, no_m0):
        with pytest.raises(BridgeboundError, match="carries no mass") as err:
            check_model(model)
        alone[id(model)] = str(err.value)
    assert alone[id(no_m1)] != alone[id(no_m0)]
    for first, second in ((no_m0, no_m1), (no_m1, no_m0)):
        with pytest.raises(BridgeboundError) as err:
            check_models([TWO_POINT, first, second])
        assert str(err.value) == alone[id(first)]


def test_chunks_leave_the_report_alone(monkeypatch):
    whole = run_fuzz(n_models=10, seed=90210)
    monkeypatch.setattr(oracle, "_CHUNK", 3)
    assert run_fuzz(n_models=10, seed=90210) == whole


def test_failed_draw_raises_after_the_models_before_it(monkeypatch):
    # a check that fails ahead of the failed draw raises first, as it would
    # if each model were checked as soon as it is drawn
    dead = single_x_model([0.5, 0.5], [[1.0, 0.0], [1.0, 0.0]], [1.0, 0.0])

    def draws(models):
        models = iter(models)

        def drawn(rng, **kind):
            for model in models:
                return model
            raise BridgeboundError("no draw left")
        return drawn

    monkeypatch.setattr(oracle, "random_model", draws([TWO_POINT, dead]))
    with pytest.raises(BridgeboundError, match="carries no mass"):
        run_fuzz(n_models=4)
    monkeypatch.setattr(oracle, "random_model", draws([TWO_POINT]))
    with pytest.raises(BridgeboundError, match="no draw left"):
        run_fuzz(n_models=4)


# ---------------------------------------------------------------------------
# per-cell reference: check_model as a walk over (m, stratum, arm) cells, each
# enumerated on its own by scalar code
# ---------------------------------------------------------------------------


def ref_sensitivity(model, arm, m, stratum):
    idx = list(stratum)
    psi = model.psi[arm, idx[0], :]
    p_x = model.p_x[idx]
    weights = p_x / p_x.sum()
    p_u = model.p_u[arm, idx, :]
    p_m_at = model.p_m[arm, idx, :, m]
    f0 = weights @ p_u
    joint = weights[:, None] * p_u * p_m_at
    f1 = joint.sum(axis=0) / joint.sum()
    support = f0 > 0.0
    delta = float(psi @ (f1 - f0))
    gamma = max(float(np.max(f1[support] / f0[support])), 1.0)
    eta = float(psi[support].max() - psi[support].min())
    star = np.empty((3, len(idx)))
    for j, x in enumerate(idx):
        pu_x = model.p_u[arm, x, :]
        f1_x = pu_x * model.p_m[arm, x, :, m] / float(pu_x @ model.p_m[arm, x, :, m])
        sup_x = pu_x > 0.0
        psi_x = model.psi[arm, x, :]
        star[:, j] = (float(psi_x @ (f1_x - pu_x)),
                      max(float(np.max(f1_x[sup_x] / pu_x[sup_x])), 1.0),
                      float(psi_x[sup_x].max() - psi_x[sup_x].min()))
    decoupled = bool(np.max(np.abs(p_u - f0[None, :])) <= 1e-12) if len(idx) > 1 else True
    joint_x = weights * (p_u * p_m_at).sum(axis=1)      # P(x, M=m | a, stratum)
    balancing_tv = 0.5 * float(np.abs(joint_x / joint_x.sum() - weights).sum())
    return StratumSensitivity(delta, gamma, eta, f0, f1, psi, weights,
                              *star, decoupled, balancing_tv, float(p_x.sum() * joint.sum()))


def ref_cell_stats(sens):
    """(name, value) of every statistic one cell gives."""
    yield "bound_gap", abs(sens.delta) - xi_pointwise(sens.eta, sens.gamma)
    yield "projection_residual", abs(sens.delta - float(sens.weights @ sens.delta_star))
    yield "gamma_gap_min", float(sens.gamma_star.max() - sens.gamma)
    yield ("eta_gap_min_decoupled" if sens.decoupled else "eta_gap_min_any",
           float(sens.eta_star.max() - sens.eta))
    cum = np.cumsum(sens.f0)
    widths = np.diff(np.concatenate([[0.0], cum]))
    pos = widths > 0.0
    h = np.zeros_like(sens.f0)
    np.divide(sens.f1, sens.f0, out=h, where=sens.f0 > 0.0)
    yield "quantile_mean0", abs(float(np.sum(sens.psi[pos] * widths[pos]))
                                - float(sens.psi @ sens.f0))
    yield "quantile_mean1", abs(float(np.sum(sens.psi[pos] * h[pos] * widths[pos]))
                                - float(sens.psi @ sens.f1))
    yield "quantile_eta", abs(float(sens.psi[pos].max() - sens.psi[pos].min()) - sens.eta)
    yield "quantile_gamma", abs(max(float(h[pos].max()), 1.0) - sens.gamma)
    popoviciu = -np.inf
    for law in (sens.f0, sens.f1):
        mean = float(law @ sens.psi)
        var = float(law @ (sens.psi - mean) ** 2)
        popoviciu = max(popoviciu, var - 0.25 * sens.eta * sens.eta)
    yield "popoviciu_gap", popoviciu


def ref_check_model(model):
    f = model.bridge_values()
    arm_free = (np.array_equal(model.p_u[0], model.p_u[1])
                and np.array_equal(model.psi[0], model.psi[1]))
    out = {}

    def fold(name, value):
        pick = min if name in ("gamma_gap_min", "eta_gap_min_decoupled",
                               "eta_gap_min_any") else max
        out[name] = pick(out.get(name, value), value)

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
                fold("balancing_tv",
                     0.5 * float(np.abs(joint / joint.sum() - px / px.sum()).sum()))
            sens = [ref_sensitivity(model, arm, m, stratum) for arm in (0, 1)]
            for cell in sens:
                for name, value in ref_cell_stats(cell):
                    fold(name, value)
            w1 = px[:, None] * model.p_u[1, idx, :] * model.p_m[1, idx, :, m]
            mu1 = float((w1 * model.psi[1, idx, :]).sum() / w1.sum())
            for x in stratum:
                cell_of[x] = (mu1, sens)
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
        fold("scalar_identity", abs(theta_direct - theta_si))
    return out


def reference_models():
    for i, model in corpus_models(90210, 200):
        yield f"corpus-{i}", model
    yield "two-point", TWO_POINT
    yield "mirrored-pair", mirrored_pair_model()
    yield "zero-f0-entry", make_sharpness_model(1.0, 1.0)
    yield "straddled", straddled_stratum_model()
    yield "mediator-ignorable", random_model(rng(38), shared_arms=True,
                                             mediator_ignorable=True)


@pytest.mark.parametrize("model", [pytest.param(model, id=label)
                                   for label, model in reference_models()])
def test_check_model_matches_per_cell_reference(model):
    # the batched pass sums in another order than the per-cell walk; 2e-15
    # allows a few float64 ulps on O(1) values
    got, want = check_model(model), ref_check_model(model)
    assert set(got) == set(want)
    for name, value in want.items():
        for g, w in zip(np.atleast_1d(got[name]), np.atleast_1d(value)):
            assert abs(g - w) <= 2e-15 * max(1.0, abs(w)), (name, got[name], value)


class TestModelValidation:
    def test_bad_sums_rejected(self):
        with pytest.raises(BridgeboundError, match="p_x"):
            DiscreteModel(np.array([0.6, 0.6]), np.ones((2, 2, 1)),
                          np.ones((2, 2, 1, 1)), np.zeros((2, 2, 1)), (0, 1))
        with pytest.raises(BridgeboundError, match="p_u"):
            single_x_model([0.5, 0.4], [[0.75, 0.25], [0.25, 0.75]], [1.0, 0.0])
        with pytest.raises(BridgeboundError, match="p_m"):
            single_x_model([0.5, 0.5], [[0.8, 0.25], [0.25, 0.75]], [1.0, 0.0])

    def test_negative_mass_rejected(self):
        with pytest.raises(BridgeboundError, match="negative or non-finite"):
            single_x_model([1.5, -0.5], [[0.75, 0.25], [0.25, 0.75]], [1.0, 0.0])

    def test_shape_disagreement(self):
        with pytest.raises(BridgeboundError, match="table shapes disagree"):
            DiscreteModel(np.array([1.0]), np.ones((2, 2, 1)),
                          np.ones((2, 1, 1, 1)), np.zeros((2, 1, 1)), (0,))
        with pytest.raises(BridgeboundError, match="psi or groups shape"):
            DiscreteModel(np.array([1.0]), np.ones((2, 1, 1)),
                          np.ones((2, 1, 1, 1)), np.zeros((2, 1, 1)), (0, 0))

    def test_psi_must_be_group_constant(self):
        model = mirrored_pair_model()
        psi = model.psi.copy()
        psi[:, 1, :] = [0.0, 1.0]
        with pytest.raises(BridgeboundError, match="group"):
            DiscreteModel(model.p_x, model.p_u, model.p_m, psi, model.groups)

    def test_group_constancy_names_the_group(self):
        # x=3 drifts from x=1, the first member of group 1; group 0 is intact
        p_u = np.tile(np.array([0.5, 0.5]), (2, 4, 1))
        p_m = np.tile(np.array([[0.75, 0.25], [0.25, 0.75]]), (2, 4, 1, 1))
        psi = np.tile(np.array([1.0, 0.0]), (2, 4, 1))
        psi[1, 3, 0] += 2e-9
        with pytest.raises(BridgeboundError, match="psi not constant within group 1$"):
            DiscreteModel(np.full(4, 0.25), p_u, p_m, psi, (0, 1, 0, 1))
        # with x=2 drifting too, the first drifting covariate names the group,
        # whatever order the set of labels iterates in
        drifted = psi.copy()
        drifted[1, 2, 0] += 2e-9
        with pytest.raises(BridgeboundError, match="psi not constant within group 3$"):
            DiscreteModel(np.full(4, 0.25), p_u, p_m, drifted, (3, 9, 3, 9))
        psi[1, 3, 0] = 1.0 + 5e-10
        DiscreteModel(np.full(4, 0.25), p_u, p_m, psi, (0, 1, 0, 1))

    def test_non_finite_rejected(self):
        with pytest.raises(BridgeboundError, match="psi has non-finite"):
            single_x_model([0.5, 0.5], [[0.75, 0.25], [0.25, 0.75]],
                           [np.inf, 0.0])

    def test_rank_is_checked(self):
        # a 5-D p_m whose leading axes fit used to escape as einsum's
        # ValueError, and a (2, 1) p_x as a "mixes groups" error at check time
        with pytest.raises(BridgeboundError, match="^table shapes disagree$"):
            DiscreteModel(TWO_POINT.p_x, TWO_POINT.p_u, TWO_POINT.p_m[..., None],
                          TWO_POINT.psi, TWO_POINT.groups)
        model = two_group_model()
        with pytest.raises(BridgeboundError, match="^table shapes disagree$"):
            DiscreteModel(model.p_x[:, None], model.p_u, model.p_m, model.psi, model.groups)


def two_group_model():
    """Two covariates in groups of their own, with distinct mediator laws."""
    p_u = np.tile(np.array([0.5, 0.5]), (2, 2, 1))
    rows = np.array([[0.75, 0.25], [0.25, 0.75]])
    p_m = np.stack([np.stack([rows, rows[:, ::-1] * 0.5 + 0.25]) for _ in range(2)])
    psi = np.tile(np.array([1.0, 0.0]), (2, 2, 1))
    return DiscreteModel(np.array([0.5, 0.5]), p_u, p_m, psi, (0, 1))


def four_x_model():
    """Four covariates in two groups of two, sharing one latent and mediator law."""
    p_u = np.tile(np.array([0.5, 0.5]), (2, 4, 1))
    p_m = np.tile(np.array([[0.75, 0.25], [0.25, 0.75]]), (2, 4, 1, 1))
    psi = np.tile(np.array([1.0, 0.0]), (2, 4, 1))
    return DiscreteModel(np.full(4, 0.25), p_u, p_m, psi, (0, 1, 0, 1))


def _edited(model, name, change):
    """model's constructor arguments, the one named replaced by change(a copy)."""
    args = {"p_x": model.p_x, "p_u": model.p_u, "p_m": model.p_m, "psi": model.psi,
            "groups": model.groups}
    args[name] = change(np.array(args[name]))
    return args


def _set(index, value):
    def change(table):
        table[index] = value
        return table
    return change


# every constructor error TestModelValidation pins: (valid model, argument, edit)
DEFECTS = {
    "p_x sum": (two_group_model, "p_x", _set(0, 0.6)),
    "p_u row sum": (lambda: TWO_POINT, "p_u", _set((0, 0, 1), 0.4)),
    "p_m row sum": (lambda: TWO_POINT, "p_m", _set((1, 0, 0, 0), 0.8)),
    "negative p_u": (lambda: TWO_POINT, "p_u", _set((0, 0), [1.5, -0.5])),
    "non-finite p_m": (lambda: TWO_POINT, "p_m", _set((1, 0, 1, 1), np.nan)),
    "non-finite psi": (lambda: TWO_POINT, "psi", _set((0, 0, 0), np.inf)),
    "table shapes": (lambda: single_x_model([1.0], [[1.0]], [0.0]), "p_u",
                     lambda t: np.ones((2, 2, 1))),
    "groups shape": (lambda: single_x_model([1.0], [[1.0]], [0.0]), "groups",
                     lambda g: (0, 0)),
    "psi drift": (four_x_model, "psi", _set((1, 3, 0), 1.0 + 2e-9)),
    "p_m rank": (lambda: TWO_POINT, "p_m", lambda t: t[..., None]),
    "p_x rank": (two_group_model, "p_x", lambda t: t[:, None]),
}


@pytest.mark.parametrize("defect", sorted(DEFECTS))
def test_batch_validates_as_the_constructor_does(monkeypatch, defect):
    # a model built without checks, after a valid one of its shape: the batch
    # raises the constructor's own message before it evaluates any cell
    make, name, change = DEFECTS[defect]
    valid = make()
    args = _edited(valid, name, change)
    with pytest.raises(BridgeboundError) as alone:
        DiscreteModel(**args)
    bad = DiscreteModel._unchecked(**args)

    def never(*args):
        raise AssertionError("_evaluate ran on an unvalidated batch")

    monkeypatch.setattr(oracle, "_evaluate", never)
    with pytest.raises(BridgeboundError) as batch:
        check_models([valid, bad])
    assert str(batch.value) == str(alone.value)


class TestFuzzMachinery:
    def test_random_model_kinds(self):
        r = rng(36)
        shared = random_model(r, shared_arms=True)
        assert np.array_equal(shared.p_u[0], shared.p_u[1])
        assert np.array_equal(shared.psi[0], shared.psi[1])

        coupled = random_model(r, decoupled=False)
        found_coupled = False
        for m in range(coupled.nm):
            for stratum in exact_bridge_partition(coupled, m):
                if len(stratum) < 2:
                    continue
                for arm in (0, 1):
                    if not exact_sensitivity(coupled, arm, m, stratum).decoupled:
                        found_coupled = True
        assert found_coupled

        plain = random_model(r, decoupled=True)
        for m in range(plain.nm):
            for stratum in exact_bridge_partition(plain, m):
                for arm in (0, 1):
                    assert exact_sensitivity(plain, arm, m, stratum).decoupled

    def test_partition_recovers_declared_groups(self):
        r = rng(37)
        for i in range(10):
            model = random_model(r, decoupled=bool(i % 2))
            expected = sorted(
                sorted(x for x in range(model.nx) if model.groups[x] == g)
                for g in set(model.groups))
            for m in range(model.nm):
                assert sorted(exact_bridge_partition(model, m)) == expected

    def test_ignorable_models_have_unit_gamma(self):
        r = rng(38)
        model = random_model(r, shared_arms=True, mediator_ignorable=True)
        for m in range(model.nm):
            for stratum in exact_bridge_partition(model, m):
                for arm in (0, 1):
                    sens = exact_sensitivity(model, arm, m, stratum)
                    assert sens.gamma <= 1.0 + 1e-12
                    assert abs(sens.delta) <= 1e-12

    def test_small_fuzz_passes(self):
        report = run_fuzz(n_models=40, seed=90210)
        assert report.n_models == 40 and report.seed == 90210
        assert set(report.stats) == set(CHECK_THRESHOLDS)
        assert not report.failures()
        assert math.isfinite(report.eta_gap_min_any)

    def test_coupled_models_have_a_multi_member_group(self):
        # nx >= 2 group labels drawn from nx - 1 values always repeat one, so a
        # coupled model needs no forced merge to break decoupling
        r = rng(42)
        for shared_arms in (False, True):
            for _ in range(300):
                groups = random_model(r, decoupled=False, shared_arms=shared_arms).groups
                assert len(set(groups)) < len(groups), (shared_arms, groups)
        for i, model in corpus_models(90210, 400):
            if MODEL_KINDS[i % 4] in ("coupled", "arm-free coupled"):
                assert len(set(model.groups)) < len(model.groups), i

    def test_fuzz_is_deterministic(self):
        a = run_fuzz(n_models=12, seed=4)
        b = run_fuzz(n_models=12, seed=4)
        assert a.stats == b.stats

    def test_corpus_stream_is_pinned(self):
        # sha256 of the first 40 corpus models' tables for seed 90210, taken
        # with one dirichlet call per simplex row (commit c2a97a8, numpy
        # 2.4.6); drawing a table's rows in one call must not move a bit
        h = hashlib.sha256()
        for _, model in corpus_models(90210, 40):
            for table in (model.p_x, model.p_u, model.p_m, model.psi,
                          np.asarray(model.groups, dtype=np.int64)):
                h.update(table.tobytes())
        assert h.hexdigest() == (
            "3c6e7190c41ac054880d2951bb4e5f3f8225ab2e6e9047d4f8788fcaa103ca25")

    def test_worst_model_is_named(self):
        report = run_fuzz(n_models=80, seed=90210)
        assert set(report.worst) == {*CHECK_THRESHOLDS, "eta_gap_min_any"}
        results = {i: check_model(model) for i, model in corpus_models(90210, 80)}
        for name, entry in report.worst.items():
            i = entry["model"]
            assert entry == {"model": i, "kind": MODEL_KINDS[i % 4],
                             "mediator_ignorable": i % 40 == 2}
            pick = min if name in ("gamma_gap_min", "eta_gap_min_decoupled",
                                   "eta_gap_min_any") else max
            values = [res[name] for res in results.values() if name in res]
            # the first model attaining the extreme
            assert results[i][name] == pick(values)
            assert not any(res.get(name) == pick(values) for j, res in results.items()
                           if j < i)
        # the folded statistic is that extreme, floored at 0 for max statistics
        assert report.stats["bound_gap"] == max(0.0, results[report.worst["bound_gap"]
                                                             ["model"]]["bound_gap"])
        assert report.eta_gap_min_any == results[report.worst["eta_gap_min_any"]
                                                 ["model"]]["eta_gap_min_any"]

    @pytest.mark.parametrize("name", [*CHECK_THRESHOLDS, "eta_gap_min_any"])
    def test_nan_statistic_is_the_worst_and_fails(self, monkeypatch, name):
        # a finite reading, then NaNs: the first NaN is the worst reading
        wrapped, reported = nan_after_first(oracle.check_models, name)
        monkeypatch.setattr(oracle, "check_models", wrapped)
        report = run_fuzz(n_models=8, seed=1)
        assert len(reported) >= 3
        assert report.worst[name]["model"] == reported[1]
        if name == "eta_gap_min_any":   # reported, never asserted
            assert math.isnan(report.eta_gap_min_any) and not report.failures()
        else:
            assert math.isnan(report.stats[name])
            assert list(report.failures()) == [name]

    def test_failures_flags_nan_and_wrong_side_infinity(self):
        clean = run_fuzz(n_models=4, seed=1).stats
        for name, value in (("bound_gap", math.nan), ("gamma_gap_min", math.nan),
                            ("bound_gap", math.inf), ("gamma_gap_min", -math.inf)):
            report = FuzzReport(4, 1, {**clean, name: value}, 0.0, {})
            assert list(report.failures()) == [name]
        # a min statistic that no model reports reads +inf and passes
        assert not FuzzReport(4, 1, {**clean, "gamma_gap_min": math.inf}, 0.0, {}).failures()

    def test_ignorable_worst_model_is_flagged(self):
        # of models 0-2 only model 2 is arm-free, and it is mediator-ignorable,
        # so it is the worst model on every scalar-reduction statistic
        report = run_fuzz(n_models=3, seed=5)
        for name in ("scalar_identity", "xi_bar_sup_gap", "delta_bar_envelope_gap"):
            assert report.worst[name] == {"model": 2, "kind": "arm-free decoupled",
                                          "mediator_ignorable": True}


def test_self_test_failure_is_detected():
    model, gap = self_test_failure()
    assert gap == 0.25
    assert gap > CHECK_THRESHOLDS["bound_gap"]
    # the model itself is fine; only the corrupted record trips the check
    sens = exact_sensitivity(model, 0, 0, [0])
    assert bound_gap(sens) <= 1e-15
