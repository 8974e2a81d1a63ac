"""Dataset container, CSV loading, within-arm ranks, synthetic generation."""

from __future__ import annotations

import csv
import re
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import BridgeboundError, ConfigError, NumericalFailure


@dataclass(frozen=True)
class Dataset:
    """Immutable column store for one study.

    treatment is 0/1, covariates is (n, p) with p >= 0, benchmark is the
    optional observed proxy used by calibration. Both arms must have at least
    p + 2 rows so the working regressions are identified.
    """

    treatment: np.ndarray
    mediator: np.ndarray
    outcome: np.ndarray
    covariates: np.ndarray
    covariate_names: tuple = ()
    benchmark: Optional[np.ndarray] = None
    benchmark_name: Optional[str] = None

    def __post_init__(self):
        treat = np.asarray(self.treatment)
        med = np.asarray(self.mediator, dtype=np.float64)
        out = np.asarray(self.outcome, dtype=np.float64)
        cov = np.asarray(self.covariates, dtype=np.float64)
        if cov.ndim == 1:
            cov = cov.reshape(-1, 1) if cov.size else cov.reshape(len(med), 0)
        n = med.shape[0]
        if treat.shape[0] != n or out.shape[0] != n or cov.shape[0] != n:
            raise BridgeboundError("column lengths disagree")
        if not np.all(np.isfinite(med)) or not np.all(np.isfinite(out)) or not np.all(np.isfinite(cov)):
            raise BridgeboundError("non-finite value in mediator, outcome, or covariates")
        treat_f = treat.astype(np.float64)
        if not np.all(np.isfinite(treat_f)) or not np.all(np.isin(treat_f, (0.0, 1.0))):
            bad = treat_f[~np.isin(treat_f, (0.0, 1.0))][:5]
            raise BridgeboundError(f"treatment values must be 0/1, got {bad}")
        treat_i = treat_f.astype(np.int8)
        p = cov.shape[1]
        for arm in (0, 1):
            count = int(np.sum(treat_i == arm))
            if count < p + 2:
                raise BridgeboundError(f"arm {arm} has {count} rows, needs at least {p + 2}")
        bench = self.benchmark
        if bench is not None:
            bench = np.asarray(bench, dtype=np.float64)
            if bench.shape[0] != n:
                raise BridgeboundError("benchmark column length disagrees")
            if not np.all(np.isfinite(bench)):
                raise BridgeboundError("non-finite value in benchmark column")
        object.__setattr__(self, "treatment", treat_i)
        object.__setattr__(self, "mediator", med)
        object.__setattr__(self, "outcome", out)
        object.__setattr__(self, "covariates", cov)
        object.__setattr__(self, "covariate_names", tuple(self.covariate_names))
        object.__setattr__(self, "benchmark", bench)

    @property
    def n(self) -> int:
        return self.mediator.shape[0]

    @property
    def p(self) -> int:
        return self.covariates.shape[1]

    def arm_indices(self, arm: int) -> np.ndarray:
        return np.flatnonzero(self.treatment == arm)

    def standardized(self) -> "Dataset":
        """Copy with covariates centered and scaled by the full-sample sd."""
        if self.p == 0:
            return self
        sd = self.covariates.std(axis=0)
        if np.any(sd == 0.0):
            names = [self.covariate_names[j] if self.covariate_names else str(j)
                     for j in np.flatnonzero(sd == 0.0)]
            raise NumericalFailure(f"constant covariate(s) cannot be standardized: {names}")
        cov = (self.covariates - self.covariates.mean(axis=0)) / sd
        return Dataset(self.treatment, self.mediator, self.outcome, cov,
                       self.covariate_names, self.benchmark, self.benchmark_name)


def load_dataset(path: str, schema: dict) -> Dataset:
    """Read a UTF-8 CSV with a header row, mapping columns via schema.

    schema keys: treatment, mediator, outcome, covariates (list, may be
    empty), benchmark (optional).
    """
    required = ("treatment", "mediator", "outcome")
    for key in required:
        if key not in schema:
            raise BridgeboundError(f"schema is missing the '{key}' mapping")
    cov_names = list(schema.get("covariates", ()))
    bench_name = schema.get("benchmark")

    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.DictReader(fh)
            header = reader.fieldnames or []
            wanted = [schema["treatment"], schema["mediator"], schema["outcome"]]
            wanted += cov_names + ([bench_name] if bench_name else [])
            for col in wanted:
                if col not in header:
                    raise BridgeboundError(f"column '{col}' not in CSV header {header}")
            rows = list(reader)
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise ConfigError(f"cannot read data {path}: {exc}") from exc

    def parse(col: str, raw: str) -> float:
        try:
            val = float(raw)
        except (TypeError, ValueError):
            raise BridgeboundError(f"column '{col}': cannot parse {raw!r}") from None
        if not np.isfinite(val):
            raise BridgeboundError(f"column '{col}': non-finite value {raw!r}")
        return val

    n = len(rows)
    treat = np.empty(n)
    med = np.empty(n)
    out = np.empty(n)
    cov = np.empty((n, len(cov_names)))
    bench = np.empty(n) if bench_name else None
    for i, row in enumerate(rows):
        treat[i] = parse(schema["treatment"], row[schema["treatment"]])
        med[i] = parse(schema["mediator"], row[schema["mediator"]])
        out[i] = parse(schema["outcome"], row[schema["outcome"]])
        for j, name in enumerate(cov_names):
            cov[i, j] = parse(name, row[name])
        if bench_name:
            bench[i] = parse(bench_name, row[bench_name])
    return Dataset(treat, med, out, cov, tuple(cov_names), bench, bench_name)


def save_dataset(data: Dataset, path: str, float_format: str = ".17g") -> None:
    """Write the dataset with canonical column names (treat, m, y, x1.., w)."""
    names = ["treat", "m", "y"] + [f"x{j + 1}" for j in range(data.p)]
    if data.benchmark is not None:
        names.append("w")
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(names)
            for i in range(data.n):
                row = [str(int(data.treatment[i])),
                       format(data.mediator[i], float_format),
                       format(data.outcome[i], float_format)]
                row += [format(v, float_format) for v in data.covariates[i]]
                if data.benchmark is not None:
                    row.append(format(data.benchmark[i], float_format))
                writer.writerow(row)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def canonical_schema(p: int, with_benchmark: bool) -> dict:
    schema = {"treatment": "treat", "mediator": "m", "outcome": "y",
              "covariates": [f"x{j + 1}" for j in range(p)]}
    if with_benchmark:
        schema["benchmark"] = "w"
    return schema


def infer_schema(path: str) -> dict:
    """Schema from a canonically named header (treat, m, y, x1.., optional w)."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            header = next(csv.reader(fh), [])
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise ConfigError(f"cannot read data {path}: {exc}") from exc
    missing = {"treat", "m", "y"} - set(header)
    if missing:
        raise BridgeboundError(
            f"cannot infer schema, header lacks {sorted(missing)}; "
            "pass an explicit schema")
    xs = sorted((c for c in header if re.fullmatch(r"x\d+", c)),
                key=lambda c: int(c[1:]))
    schema = {"treatment": "treat", "mediator": "m", "outcome": "y",
              "covariates": xs}
    if "w" in header:
        schema["benchmark"] = "w"
    return schema


def fractional_rank_within_arm(data: Dataset, arm: int) -> np.ndarray:
    """Fractional ranks of the benchmark within one arm, in that arm's row order.

    rank(i) = #{j in arm : W_j <= W_i} / n_arm, so ties share a rank and the
    output lies in (0, 1]. Invariant under strictly increasing transforms of W.
    """
    if data.benchmark is None:
        raise BridgeboundError("dataset has no benchmark column")
    idx = data.arm_indices(arm)
    if idx.size == 0:
        raise BridgeboundError(f"arm {arm} is empty")
    w = data.benchmark[idx]
    ordered = np.sort(w)
    return np.searchsorted(ordered, w, side="right") / idx.size


def fractional_ranks(data: Dataset) -> np.ndarray:
    """Full-length rank column: every row ranked within its own arm."""
    out = np.empty(data.n)
    for arm in (0, 1):
        idx = data.arm_indices(arm)
        out[idx] = fractional_rank_within_arm(data, arm)
    return out


@dataclass(frozen=True)
class BenchmarkSpec:
    """Observed proxy W ~ Uniform(low, high), feeding mediator and outcome."""

    low: float = 0.0
    high: float = 1.0
    coef_m: float = 0.0
    coef_y: float = 0.0


@dataclass(frozen=True)
class SyntheticSpec:
    """Linear Gaussian generator with a known effect decomposition.

    Mediator: m = beta_m . (1, a, x) + coef_m * w + strength * u + eps_m.
    Outcome:  y = c0 + c_a * a + c_m * m + x_scale * (x . beta_m[2:])
                  + coef_y * w + strength * u + eps_y.
    The outcome loads on covariates only through the mediator-model index, so
    the bridge working model is correctly specified. True nie = c_m * beta_m[1],
    true nde = c_a, regardless of the confounder strength.
    """

    n: int
    p: int
    beta_m: Sequence[float]
    c0: float = 0.0
    c_a: float = 0.0
    c_m: float = 0.0
    x_scale: float = 0.0
    sigma_m: float = 1.0
    sigma_y: float = 1.0
    treat_prob: float = 0.5
    confounder_strength: float = 0.0
    benchmark: Optional[BenchmarkSpec] = None


def generate_synthetic(spec: SyntheticSpec, seed: int):
    """Draw one dataset; returns (Dataset, truth dict). Pure in (spec, seed)."""
    beta_m = np.asarray(spec.beta_m, dtype=np.float64)
    if spec.p < 0 or beta_m.shape != (spec.p + 2,):
        raise BridgeboundError(f"beta_m must have length p + 2 = {spec.p + 2}")
    if spec.sigma_m <= 0 or spec.sigma_y <= 0:
        raise BridgeboundError("sigma_m and sigma_y must be positive")
    if not 0.0 < spec.treat_prob < 1.0:
        raise BridgeboundError(f"treat_prob must be in (0, 1), got {spec.treat_prob}")
    n_treat = int(round(spec.n * spec.treat_prob))
    if min(n_treat, spec.n - n_treat) < spec.p + 2:
        raise BridgeboundError(
            f"n = {spec.n} with treat_prob {spec.treat_prob} leaves an arm "
            f"below the minimum of p + 2 = {spec.p + 2} rows"
        )
    if spec.benchmark is not None and not spec.benchmark.high > spec.benchmark.low:
        raise BridgeboundError("benchmark support must have high > low")

    rng = np.random.default_rng(np.random.SeedSequence(seed))
    treat = np.zeros(spec.n)
    treat[rng.permutation(spec.n)[:n_treat]] = 1.0
    x = rng.standard_normal((spec.n, spec.p))
    u = rng.standard_normal(spec.n)
    w = None
    w_term_m = 0.0
    w_term_y = 0.0
    if spec.benchmark is not None:
        w = rng.uniform(spec.benchmark.low, spec.benchmark.high, spec.n)
        w_term_m = spec.benchmark.coef_m * w
        w_term_y = spec.benchmark.coef_y * w

    x_index = x @ beta_m[2:]
    med = (beta_m[0] + beta_m[1] * treat + x_index + w_term_m
           + spec.confounder_strength * u
           + spec.sigma_m * rng.standard_normal(spec.n))
    out = (spec.c0 + spec.c_a * treat + spec.c_m * med + spec.x_scale * x_index
           + w_term_y + spec.confounder_strength * u
           + spec.sigma_y * rng.standard_normal(spec.n))

    names = tuple(f"x{j + 1}" for j in range(spec.p))
    data = Dataset(treat, med, out, x, names, w, "w" if w is not None else None)
    ignorable = spec.confounder_strength == 0.0 and (
        spec.benchmark is None or spec.benchmark.coef_m == 0.0 or spec.benchmark.coef_y == 0.0
    )
    truth = {
        "nie": spec.c_m * beta_m[1],
        "nde": spec.c_a,
        "te": spec.c_m * beta_m[1] + spec.c_a,
        "mediator_ignorable": ignorable,
        "seed": seed,
    }
    return data, truth
