import numpy as np
import pytest
from hypothesis import HealthCheck, settings

import bridgebound as bb

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


BENCH_SPEC = bb.SyntheticSpec(
    n=400, p=2, beta_m=(0.5, 1.2, 0.8, -0.4), c0=1.0, c_a=0.7, c_m=0.9,
    x_scale=0.6, sigma_m=1.0, sigma_y=1.0, treat_prob=0.5,
    confounder_strength=0.0,
    benchmark=bb.BenchmarkSpec(low=0.0, high=2.0, coef_m=0.5, coef_y=0.4),
)

# no covariates: the mediator design is (1, a), so every unit shares one law
P0_SPEC = bb.SyntheticSpec(
    n=300, p=0, beta_m=(0.5, 1.2), c0=1.0, c_a=0.7, c_m=0.9, x_scale=0.6,
    benchmark=bb.BenchmarkSpec(low=0.0, high=2.0, coef_m=0.5, coef_y=0.4),
)

NULL_SPEC = bb.SyntheticSpec(
    n=600, p=2, beta_m=(0.2, 1.0, 0.5, -0.3), c0=0.5, c_a=0.4, c_m=0.0,
    x_scale=0.0, sigma_m=1.0, sigma_y=1.0, treat_prob=0.5,
    confounder_strength=0.0,
)


@pytest.fixture(scope="session")
def bench_data():
    """Small dataset with a benchmark column and a real latent mediator link."""
    data, _ = bb.generate_synthetic(BENCH_SPEC, seed=11)
    return data


@pytest.fixture(scope="session")
def p0_data():
    """Small dataset without covariates, with a benchmark column."""
    data, _ = bb.generate_synthetic(P0_SPEC, seed=3)
    assert data.p == 0
    return data


@pytest.fixture(scope="session")
def null_data():
    """Mediator-ignorable dataset with zero mediator effect on the outcome."""
    data, truth = bb.generate_synthetic(NULL_SPEC, seed=23)
    assert truth["mediator_ignorable"] and truth["nie"] == 0.0
    return data


@pytest.fixture(scope="session")
def bench_run(bench_data):
    """One short benchmark-route run shared by contract tests."""
    setting = bb.SensitivitySetting(route="benchmark_raw", kappa0=1.5, kappa1=1.5)
    return bb.run(bench_data, setting, draws=60, burn_in=10, seed=5, threads=1)


def rng(seed=0):
    return np.random.default_rng(np.random.SeedSequence(seed))


def nan_after_first(check_models, name):
    """check_models, but every model after the first that reports name reads
    NaN for it. Returns (wrapped, reported): reported lists, in order, the
    corpus indices of the models that report name."""
    reported = []

    def wrapped(models):
        results = check_models(models)
        for res in results:
            if name in res:
                if reported:
                    res[name] = np.nan
                reported.append(wrapped.calls)
            wrapped.calls += 1
        return results

    wrapped.calls = 0
    return wrapped, reported
