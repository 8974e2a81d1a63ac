import math

import numpy as np
import pytest

from bridgebound.envelope import xi_pointwise
from bridgebound.errors import BridgeboundError
from bridgebound.oracle import (CHECK_THRESHOLDS, DiscreteModel,
                                bound_gap, check_balancing,
                                check_bound_and_sharpness, check_popoviciu,
                                check_projection,
                                check_quantile_representation,
                                check_scalar_reduction, check_tightening,
                                exact_bridge_partition, exact_sensitivity,
                                make_sharpness_model, random_model, run_fuzz,
                                self_test_failure)

from conftest import rng


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


class TestBalancing:
    def test_single_covariate_is_exactly_balanced(self):
        assert check_balancing(TWO_POINT, 0, 0) == 0.0
        assert check_balancing(TWO_POINT, 1, 1) == 0.0

    def test_constructed_strata_balance(self):
        model = mirrored_pair_model()
        for m in (0, 1):
            for arm in (0, 1):
                assert check_balancing(model, m, arm) <= 1e-12

    def test_random_models_balance(self):
        r = rng(33)
        for i in range(12):
            model = random_model(r, decoupled=bool(i % 2))
            for m in range(model.nm):
                for arm in (0, 1):
                    assert check_balancing(model, m, arm) <= 1e-10

    def test_zero_mass_detected(self):
        dead = single_x_model([0.5, 0.5], [[1.0, 0.0], [1.0, 0.0]], [1.0, 0.0])
        with pytest.raises(BridgeboundError, match="carries no mass"):
            check_balancing(dead, 1, 0)


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
        ggap, egap, dec = check_tightening(sens)
        assert ggap == 0.0 and egap == 0.0 and dec

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
        ggap, egap, dec = check_tightening(sens)
        assert dec
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
                        ggap, egap, dec = check_tightening(sens)
                        assert ggap >= -1e-10
                        if dec:
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


class TestScalarReduction:
    def test_requires_arm_free_tables(self):
        model = mirrored_pair_model()
        p_u = model.p_u.copy()
        p_u[1, 0] = [0.25, 0.75]
        p_u[1, 1] = [0.25, 0.75]
        biased = DiscreteModel(model.p_x, p_u, model.p_m, model.psi, model.groups)
        with pytest.raises(BridgeboundError, match="arm-free"):
            check_scalar_reduction(biased)

    def test_ignorable_model_has_exact_anchor(self):
        flat = single_x_model([0.5, 0.5], [[0.75, 0.25], [0.75, 0.25]],
                              [1.0, 0.0])
        res = check_scalar_reduction(flat)
        assert res["delta_bar"] == (0.0, 0.0)
        assert res["theta_direct"] == res["theta_recombined"]
        assert res["identity_residual"] == 0.0

    def test_constant_envelope_model(self):
        # gamma = 1.5 and eta = 1 at both mediator values, so the aggregated
        # envelope equals the common pointwise value exactly
        res = check_scalar_reduction(TWO_POINT)
        xi = xi_pointwise(1.0, 1.5)
        assert res["xi_bar"] == (xi, xi)
        assert res["xi_bar_sup_gap"] == 0.0
        assert res["identity_residual"] <= 1e-15
        assert res["delta_bar_envelope_gap"] <= 0.0

    def test_random_shared_arm_models(self):
        r = rng(35)
        for i in range(8):
            model = random_model(r, decoupled=bool(i % 2), shared_arms=True)
            res = check_scalar_reduction(model)
            assert res["identity_residual"] <= 1e-10
            assert res["xi_bar_sup_gap"] <= 1e-12
            assert res["delta_bar_envelope_gap"] <= 1e-10


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

    def test_non_finite_rejected(self):
        with pytest.raises(BridgeboundError, match="psi has non-finite"):
            single_x_model([0.5, 0.5], [[0.75, 0.25], [0.25, 0.75]],
                           [np.inf, 0.0])


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
        assert report.passed(), report.failures()
        assert math.isfinite(report.eta_gap_min_any)

    def test_fuzz_is_deterministic(self):
        a = run_fuzz(n_models=12, seed=4)
        b = run_fuzz(n_models=12, seed=4)
        assert a.stats == b.stats

    def test_failure_report_thresholds(self):
        report = run_fuzz(n_models=8, seed=4)
        tight = dict(CHECK_THRESHOLDS)
        tight["bound_gap"] = -1.0
        assert not report.passed(tight)
        assert "bound_gap" in report.failures(tight)


def test_self_test_failure_is_detected():
    model, gap = self_test_failure()
    assert gap == 0.25
    assert gap > CHECK_THRESHOLDS["bound_gap"]
    # the model itself is fine; only the corrupted record trips the check
    sens = exact_sensitivity(model, 0, 0, [0])
    assert bound_gap(sens) <= 1e-15
