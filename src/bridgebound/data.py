"""Dataset container, CSV loading, within-arm ranks, synthetic generation."""

from __future__ import annotations

import csv
import math
import re
import sys
import warnings
from dataclasses import asdict, dataclass
from typing import Optional, Sequence

import numpy as np

# the config tables of schemas and specs live in errors (see gcomp)
from .errors import (BENCHMARK_KEYS, SCHEMA_KEYS, SPEC_KEYS, BridgeboundError, ConfigError,
                     check)


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
    benchmark: Optional[np.ndarray] = None

    def __post_init__(self):
        treat = np.asarray(self.treatment)
        med = np.asarray(self.mediator, dtype=np.float64)
        out = np.asarray(self.outcome, dtype=np.float64)
        cov = np.asarray(self.covariates, dtype=np.float64)
        bench = None if self.benchmark is None else np.asarray(self.benchmark, dtype=np.float64)
        for name, col in (("treatment", treat), ("mediator", med), ("outcome", out),
                          ("benchmark", bench)):
            if col is not None and col.ndim != 1:
                raise BridgeboundError(f"{name} must be a 1-d column, got shape {col.shape}")
        if cov.ndim > 2:
            raise BridgeboundError(
                f"covariates must have at most 2 dimensions, got shape {cov.shape}")
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
        if bench is not None:
            if bench.shape[0] != n:
                raise BridgeboundError("benchmark column length disagrees")
            if not np.all(np.isfinite(bench)):
                raise BridgeboundError("non-finite value in benchmark column")
        # contiguous columns of its own: a fit's last bits depend on the layout,
        # and the generator builds them this way (no copy then)
        object.__setattr__(self, "treatment", treat_i)
        object.__setattr__(self, "mediator", np.ascontiguousarray(med))
        object.__setattr__(self, "outcome", np.ascontiguousarray(out))
        object.__setattr__(self, "covariates", np.ascontiguousarray(cov))
        object.__setattr__(self, "benchmark",
                           None if bench is None else np.ascontiguousarray(bench))

    @property
    def n(self) -> int:
        return self.mediator.shape[0]

    @property
    def p(self) -> int:
        return self.covariates.shape[1]

    def arm_indices(self, arm: int) -> np.ndarray:
        return np.flatnonzero(self.treatment == arm)


def load_dataset(path: str, schema: dict) -> Dataset:
    """Read a UTF-8 CSV with a header row, mapping columns via schema (SCHEMA_KEYS).

    A leading byte-order mark, as spreadsheet programs write, is skipped.

    Rows keep csv.DictReader's semantics: blank lines are skipped, a
    duplicated header name reads its last column, a short row's missing cell
    is None and extra trailing cells are ignored. After csv.reader has taken
    the header, numpy's C tokenizer parses the schema columns in one pass.
    Whatever it refuses, a non-finite value or a file without rows rewinds
    the handle for one csv.reader pass that defines these semantics: it
    collects every row, then reads each schema cell with float() in
    row-major order, so it also accepts the spellings only float() reads
    (1_0, other scripts' digits) and names the first bad cell.
    """
    check("schema", schema, SCHEMA_KEYS)
    cov_names = list(schema.get("covariates", ()))
    bench_name = schema.get("benchmark")
    wanted = [schema["treatment"], schema["mediator"], schema["outcome"]]
    wanted += cov_names + ([bench_name] if bench_name else [])
    names = list(dict.fromkeys(wanted))

    rows = None
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, [])
            for col in wanted:
                if col not in header:
                    raise BridgeboundError(f"column '{col}' not in CSV header {header}")
            index = {name: j for j, name in enumerate(header)}  # a repeated name keeps its last
            block = _parse_columns(fh, [index[name] for name in names])
            if block is None or block.shape[0] == 0 or not np.all(np.isfinite(block)):
                fh.seek(0)
                next(reader)
                rows = [row + [None] * (len(header) - len(row)) for row in reader if row]
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise ConfigError(f"cannot read data {path}: {exc}") from exc
    if rows is not None:
        cells = []
        for row in rows:
            for name in names:
                raw = row[index[name]]
                try:
                    value = float(raw)
                except (TypeError, ValueError):
                    raise BridgeboundError(f"column '{name}': cannot parse {raw!r}") from None
                if not math.isfinite(value):
                    raise BridgeboundError(f"column '{name}': non-finite value {raw!r}")
                cells.append(value)
        block = np.array(cells, dtype=np.float64).reshape(len(rows), len(names))

    columns = {name: block[:, j] for j, name in enumerate(names)}
    n = block.shape[0]
    cov = (np.column_stack([columns[name] for name in cov_names]) if cov_names
           else np.empty((n, 0)))
    bench = columns[bench_name] if bench_name else None
    return Dataset(columns[schema["treatment"]], columns[schema["mediator"]],
                   columns[schema["outcome"]], cov, bench)


def _parse_columns(fh, usecols: list) -> Optional[np.ndarray]:
    """The rest of fh as a (rows, len(usecols)) float64 block, or None where
    numpy's tokenizer or float parser refuses a row or cell."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)   # "input contained no data"
            return np.loadtxt(fh, delimiter=",", quotechar='"', comments=None, ndmin=2,
                              usecols=usecols)
    except ValueError:   # UnicodeDecodeError too: the csv.reader pass reports it
        return None


_SAVE_BLOCK = 4096


def save_dataset(data: Dataset, path: str) -> None:
    """Write the dataset with canonical column names (treat, m, y, x1.., w).

    Cells are written as csv.writer would write them: treatment as an
    integer, every other value as %.17g, LF line endings.
    """
    names = ["treat", "m", "y"] + [f"x{j + 1}" for j in range(data.p)]
    columns = [data.treatment, data.mediator, data.outcome, data.covariates]
    if data.benchmark is not None:
        names.append("w")
        columns.append(data.benchmark)
    row_format = "%d" + ",%.17g" * (len(names) - 1) + "\n"
    table = np.column_stack(columns)
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(",".join(names) + "\n")
            # one % per block of rows: no per-row tuple, no list of the whole table
            for start in range(0, data.n, _SAVE_BLOCK):
                block = table[start:start + _SAVE_BLOCK]
                fh.write((row_format * block.shape[0]) % tuple(block.ravel().tolist()))
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def infer_schema(path: str) -> dict:
    """Schema from a canonically named header (treat, m, y, x1.., optional w)."""
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
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


def fractional_ranks(data: Dataset) -> np.ndarray:
    """Full-length rank column of the benchmark, every row ranked within its own arm.

    rank(i) = #{j in arm(i) : W_j <= W_i} / n_arm(i), so ties share a rank and
    the output lies in (0, 1]. Invariant under strictly increasing transforms of W.
    """
    if data.benchmark is None:
        raise BridgeboundError("dataset has no benchmark column")
    out = np.empty(data.n)
    for arm in (0, 1):
        idx = data.arm_indices(arm)  # never empty: Dataset requires p + 2 rows per arm
        w = data.benchmark[idx]
        # the count of values <= w[i] is the cumulative count of w[i]'s distinct value
        _, which, counts = np.unique(w, return_inverse=True, return_counts=True)
        out[idx] = np.cumsum(counts)[which] / idx.size
    return out


@dataclass(frozen=True)
class BenchmarkSpec:
    """Observed proxy W ~ Uniform(low, high), feeding mediator and outcome."""

    low: float = 0.0
    high: float = 1.0
    coef_m: float = 0.0
    coef_y: float = 0.0

    def __post_init__(self):
        check("benchmark", asdict(self), BENCHMARK_KEYS)
        if not (self.high > self.low and math.isfinite(self.high - self.low)):
            raise ConfigError("benchmark support must have high > low and a finite width, "
                              f"got low={self.low!r}, high={self.high!r}")


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

    def __post_init__(self):
        fields = asdict(self)
        if self.benchmark is None:  # the default: no benchmark column
            del fields["benchmark"]
        check("spec", fields, SPEC_KEYS)


def generate_synthetic(spec: SyntheticSpec, seed: int):
    """Draw one dataset; returns (Dataset, truth dict). Pure in (spec, seed)."""
    beta_m = np.asarray(spec.beta_m, dtype=np.float64)
    if beta_m.shape != (spec.p + 2,):
        raise BridgeboundError(f"beta_m must have length p + 2 = {spec.p + 2}")
    n_treat = int(round(spec.n * spec.treat_prob))
    if min(n_treat, spec.n - n_treat) < spec.p + 2:
        raise BridgeboundError(
            f"n = {spec.n} with treat_prob {spec.treat_prob} leaves an arm "
            f"below the minimum of p + 2 = {spec.p + 2} rows"
        )
    # the covariates take n x p float64 values; refuse a size numpy cannot index
    if 8 * spec.n * max(spec.p, 1) > sys.maxsize:
        raise MemoryError(f"cannot index {spec.n} x {max(spec.p, 1)} simulated values")

    rng = np.random.default_rng(np.random.SeedSequence(seed))
    treat = np.zeros(spec.n)
    treat[rng.permutation(spec.n)[:n_treat]] = 1.0
    x = rng.standard_normal((spec.n, spec.p))
    u = rng.standard_normal(spec.n)
    w = None
    w_term_m = 0.0
    w_term_y = 0.0
    # huge coefficients can overflow here; Dataset then rejects the column
    with np.errstate(over="ignore", invalid="ignore"):
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

    data = Dataset(treat, med, out, x, w)
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
