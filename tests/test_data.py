import csv
import math

import numpy as np
import pytest

from bridgebound.data import (BenchmarkSpec, Dataset, SyntheticSpec,
                              canonical_schema, fractional_rank_within_arm,
                              fractional_ranks, generate_synthetic,
                              infer_schema, load_dataset, save_dataset)
from bridgebound.errors import BridgeboundError, NumericalFailure

from conftest import rng


def small_dataset(benchmark=None):
    treat = np.array([0, 0, 0, 1, 1])
    med = np.array([0.1, -0.4, 1.2, 0.9, 0.0])
    out = np.array([1.0, 0.5, -0.2, 2.0, 1.1])
    return Dataset(treat, med, out, np.empty((5, 0)), (), benchmark)


class TestDatasetValidation:
    def test_treatment_must_be_binary(self):
        with pytest.raises(BridgeboundError, match="must be 0/1"):
            Dataset(np.array([0, 1, 2, 0, 1]), np.zeros(5), np.zeros(5),
                    np.empty((5, 0)))

    def test_arm_minimum_depends_on_p(self):
        # p = 1 needs 3 rows per arm; arm 1 only has 2
        with pytest.raises(BridgeboundError, match="arm 1 has 2 rows"):
            Dataset(np.array([0, 0, 0, 1, 1]), np.zeros(5), np.zeros(5),
                    np.ones((5, 1)))

    def test_non_finite_rejected(self):
        with pytest.raises(BridgeboundError, match="non-finite value in mediator"):
            Dataset(np.array([0, 0, 1, 1]), np.array([0.0, np.nan, 0.0, 0.0]),
                    np.zeros(4), np.empty((4, 0)))
        with pytest.raises(BridgeboundError, match="non-finite value in benchmark"):
            small_dataset(benchmark=np.array([0.0, 1.0, np.inf, 0.0, 1.0]))

    def test_length_mismatch(self):
        with pytest.raises(BridgeboundError, match="column lengths disagree"):
            Dataset(np.array([0, 0, 1, 1]), np.zeros(3), np.zeros(4),
                    np.empty((4, 0)))

    def test_arm_indices(self):
        data = small_dataset(benchmark=np.arange(5.0))
        assert np.array_equal(data.arm_indices(0), [0, 1, 2])
        assert np.array_equal(data.arm_indices(1), [3, 4])

    def test_standardized_rejects_constant_covariate(self):
        treat = np.repeat([0, 1], 4)
        cov = np.column_stack([np.ones(8), np.arange(8.0)])
        data = Dataset(treat, np.zeros(8), np.zeros(8), cov, ("c1", "c2"))
        with pytest.raises(NumericalFailure, match="c1"):
            data.standardized()

    def test_standardized_centers_and_scales(self):
        r = rng(17)
        treat = np.repeat([0, 1], 20)
        cov = r.normal(5.0, 3.0, size=(40, 2))
        data = Dataset(treat, r.normal(size=40), r.normal(size=40), cov)
        std = data.standardized()
        assert np.allclose(std.covariates.mean(axis=0), 0.0, atol=1e-12)
        assert np.allclose(std.covariates.std(axis=0), 1.0, atol=1e-12)


class TestCsvRoundtrip:
    def test_save_load_identity(self, tmp_path):
        data, _ = generate_synthetic(
            SyntheticSpec(n=50, p=2, beta_m=(0.5, 1.0, 0.3, -0.2),
                          benchmark=BenchmarkSpec(0.0, 2.0)), seed=3)
        path = tmp_path / "round.csv"
        save_dataset(data, str(path))
        back = load_dataset(str(path), canonical_schema(2, True))
        assert np.array_equal(back.treatment, data.treatment)
        assert np.array_equal(back.mediator, data.mediator)
        assert np.array_equal(back.outcome, data.outcome)
        assert np.array_equal(back.covariates, data.covariates)
        assert np.array_equal(back.benchmark, data.benchmark)

    def test_survey_style_header(self, tmp_path):
        # externally named columns mapped through an explicit schema
        r = rng(19)
        n = 265
        path = tmp_path / "survey.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["treat", "emo", "p_harm", "age", "educ",
                             "gender", "income"])
            for i in range(n):
                writer.writerow([i % 2, f"{r.normal():.6f}", f"{r.normal():.6f}",
                                 r.integers(18, 80), r.integers(1, 5),
                                 r.integers(0, 2), r.integers(1, 10)])
        schema = {"treatment": "treat", "mediator": "emo", "outcome": "p_harm",
                  "covariates": ["age", "educ", "gender", "income"]}
        data = load_dataset(str(path), schema)
        assert data.n == 265 and data.p == 4
        assert data.covariate_names == ("age", "educ", "gender", "income")
        assert data.benchmark is None

    def test_missing_column_names_offender(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("treat,m\n0,1.0\n1,2.0\n")
        with pytest.raises(BridgeboundError, match="'y'"):
            load_dataset(str(path), canonical_schema(0, False))

    def test_unparseable_cell(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("treat,m,y\n0,1.0,2.0\n0,oops,0.0\n1,0.5,1.0\n1,0.2,0.9\n")
        with pytest.raises(BridgeboundError, match="oops"):
            load_dataset(str(path), canonical_schema(0, False))

    def test_schema_keys_required(self, tmp_path):
        with pytest.raises(BridgeboundError, match="missing the 'mediator' mapping"):
            load_dataset(str(tmp_path / "x.csv"), {"treatment": "treat"})

    def test_infer_schema(self, tmp_path):
        path = tmp_path / "canon.csv"
        path.write_text("treat,m,y,x2,x1,w\n")
        schema = infer_schema(str(path))
        assert schema["covariates"] == ["x1", "x2"]
        assert schema["benchmark"] == "w"
        bare = tmp_path / "bare.csv"
        bare.write_text("treat,m,y\n")
        assert "benchmark" not in infer_schema(str(bare))
        odd = tmp_path / "odd.csv"
        odd.write_text("arm,m,y\n")
        with pytest.raises(BridgeboundError, match="header lacks"):
            infer_schema(str(odd))


class TestRanks:
    def test_frozen_rank_values(self):
        data = small_dataset(benchmark=np.array([3.0, 1.0, 2.0, 5.0, 5.0]))
        assert np.array_equal(fractional_rank_within_arm(data, 0),
                              [1.0, 1.0 / 3.0, 2.0 / 3.0])
        # ties share the highest rank in the tied block
        assert np.array_equal(fractional_rank_within_arm(data, 1), [1.0, 1.0])
        full = fractional_ranks(data)
        assert np.array_equal(full, [1.0, 1.0 / 3.0, 2.0 / 3.0, 1.0, 1.0])

    def test_ranks_invariant_under_monotone_transform(self):
        w = rng(21).permutation(np.arange(40.0))
        treat = np.repeat([0, 1], 20)
        base = Dataset(treat, np.zeros(40), np.zeros(40), np.empty((40, 0)), (), w)
        warped = Dataset(treat, np.zeros(40), np.zeros(40), np.empty((40, 0)), (),
                         np.exp(w / 10.0))
        assert np.array_equal(fractional_ranks(base), fractional_ranks(warped))

    def test_ranks_need_benchmark(self):
        with pytest.raises(BridgeboundError, match="no benchmark column"):
            fractional_rank_within_arm(small_dataset(), 0)


class TestSyntheticGenerator:
    def test_deterministic_in_seed(self):
        spec = SyntheticSpec(n=80, p=2, beta_m=(0.5, 1.2, 0.8, -0.4),
                             c_a=0.7, c_m=0.9,
                             benchmark=BenchmarkSpec(0.0, 2.0, 0.5, 0.4))
        a, truth_a = generate_synthetic(spec, seed=7)
        b, truth_b = generate_synthetic(spec, seed=7)
        assert np.array_equal(a.mediator, b.mediator)
        assert np.array_equal(a.outcome, b.outcome)
        assert np.array_equal(a.benchmark, b.benchmark)
        assert truth_a == truth_b
        c, _ = generate_synthetic(spec, seed=8)
        assert not np.array_equal(a.mediator, c.mediator)

    def test_truth_decomposition(self):
        spec = SyntheticSpec(n=60, p=0, beta_m=(0.0, 1.5), c_a=0.25, c_m=2.0)
        _, truth = generate_synthetic(spec, seed=1)
        assert truth["nie"] == 3.0 and truth["nde"] == 0.25
        assert truth["te"] == 3.25 and truth["mediator_ignorable"]

    def test_ignorability_flag(self):
        leaky = SyntheticSpec(n=60, p=0, beta_m=(0.0, 1.0),
                              benchmark=BenchmarkSpec(0.0, 1.0, 0.5, 0.4))
        _, truth = generate_synthetic(leaky, seed=1)
        assert not truth["mediator_ignorable"]
        one_sided = SyntheticSpec(n=60, p=0, beta_m=(0.0, 1.0),
                                  benchmark=BenchmarkSpec(0.0, 1.0, 0.5, 0.0))
        _, truth = generate_synthetic(one_sided, seed=1)
        assert truth["mediator_ignorable"]

    def test_spec_validation(self):
        with pytest.raises(BridgeboundError, match="beta_m must have length"):
            generate_synthetic(SyntheticSpec(n=60, p=1, beta_m=(0.0, 1.0)), 1)
        with pytest.raises(BridgeboundError, match="sigma_m and sigma_y"):
            generate_synthetic(
                SyntheticSpec(n=60, p=0, beta_m=(0.0, 1.0), sigma_m=-1.0), 1)
        with pytest.raises(BridgeboundError, match="treat_prob must be in"):
            generate_synthetic(
                SyntheticSpec(n=60, p=0, beta_m=(0.0, 1.0), treat_prob=1.0), 1)
        with pytest.raises(BridgeboundError, match="leaves an arm"):
            generate_synthetic(
                SyntheticSpec(n=6, p=4, beta_m=(0.0,) * 6), 1)
        with pytest.raises(BridgeboundError, match="high > low"):
            generate_synthetic(
                SyntheticSpec(n=60, p=0, beta_m=(0.0, 1.0),
                              benchmark=BenchmarkSpec(2.0, 2.0)), 1)

    def test_mediator_coefficients_recoverable(self):
        spec = SyntheticSpec(n=5000, p=1, beta_m=(0.0, 1.0, 0.5))
        data, _ = generate_synthetic(spec, seed=29)
        design = np.column_stack([np.ones(data.n), data.treatment, data.covariates])
        coef, res, *_ = np.linalg.lstsq(design, data.mediator, rcond=None)
        sig2 = res[0] / (data.n - 3)
        se = np.sqrt(sig2 * np.diag(np.linalg.inv(design.T @ design)))
        assert np.all(np.abs(coef - np.array([0.0, 1.0, 0.5])) <= 3.0 * se)

    def test_treated_share_matches_probability(self):
        spec = SyntheticSpec(n=400, p=0, beta_m=(0.0, 1.0), treat_prob=0.3)
        data, _ = generate_synthetic(spec, seed=31)
        assert int(data.treatment.sum()) == 120
