"""Dataset container, CSV loading, within-arm ranks, synthetic generation."""

from __future__ import annotations

import csv
import math
import re
from dataclasses import asdict, dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import BridgeboundError, ConfigError, Key, check


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
        object.__setattr__(self, "benchmark", bench)

    @property
    def n(self) -> int:
        return self.mediator.shape[0]

    @property
    def p(self) -> int:
        return self.covariates.shape[1]

    def arm_indices(self, arm: int) -> np.ndarray:
        return np.flatnonzero(self.treatment == arm)


_COLUMN = Key("str", required=True)
SCHEMA_KEYS = {"treatment": _COLUMN, "mediator": _COLUMN, "outcome": _COLUMN,
               "covariates": Key(["str"]), "benchmark": Key("str")}


def load_dataset(path: str, schema: dict) -> Dataset:
    """Read a UTF-8 CSV with a header row, mapping columns via schema (SCHEMA_KEYS).

    One csv.reader pass, then one float64 parse and one finiteness check per
    schema column. Rows keep csv.DictReader's semantics: blank lines are
    skipped, a duplicated header name reads its last column, a short row's
    missing cell is None and extra trailing cells are ignored. Only when a
    column fails are the cells parsed one at a time, in row-major schema
    order, so the error names the first bad cell.
    """
    check("schema", schema, SCHEMA_KEYS)
    cov_names = list(schema.get("covariates", ()))
    bench_name = schema.get("benchmark")
    wanted = [schema["treatment"], schema["mediator"], schema["outcome"]]
    wanted += cov_names + ([bench_name] if bench_name else [])

    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, [])
            for col in wanted:
                if col not in header:
                    raise BridgeboundError(f"column '{col}' not in CSV header {header}")
            rows = [row + [None] * (len(header) - len(row)) for row in reader if row]
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise ConfigError(f"cannot read data {path}: {exc}") from exc

    index = {name: j for j, name in enumerate(header)}  # a repeated name keeps its last column
    cells = {name: [row[index[name]] for row in rows] for name in wanted}
    columns = {}
    for name, col in cells.items():
        try:
            values = np.array(col, dtype=np.float64)
        except (TypeError, ValueError):
            values = None
        if values is None or not np.all(np.isfinite(values)):
            _raise_first_bad_cell(wanted, cells)
        columns[name] = values

    cov = (np.column_stack([columns[name] for name in cov_names]) if cov_names
           else np.empty((len(rows), 0)))
    bench = columns[bench_name] if bench_name else None
    return Dataset(columns[schema["treatment"]], columns[schema["mediator"]],
                   columns[schema["outcome"]], cov, bench)


def _raise_first_bad_cell(wanted: list, cells: dict) -> None:
    """Parse cell by cell in row-major order and raise on the first bad one."""
    for i in range(len(cells[wanted[0]])):
        for name in wanted:
            raw = cells[name][i]
            try:
                val = float(raw)
            except (TypeError, ValueError):
                raise BridgeboundError(f"column '{name}': cannot parse {raw!r}") from None
            if not math.isfinite(val):
                raise BridgeboundError(f"column '{name}': non-finite value {raw!r}")


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
    table = np.column_stack(columns).tolist()
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(",".join(names) + "\n")
            fh.writelines(row_format % tuple(row) for row in table)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


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
        out[idx] = np.searchsorted(np.sort(w), w, side="right") / idx.size
    return out


BENCHMARK_KEYS = dict.fromkeys(("low", "high", "coef_m", "coef_y"), Key("number"))


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


_REAL = Key("number")
_SCALE = Key("number", (0, math.inf), open=True)
SPEC_KEYS = {
    "n": Key("int", required=True), "p": Key("int", (0, math.inf), required=True),
    "beta_m": Key(["number"], required=True),
    "c0": _REAL, "c_a": _REAL, "c_m": _REAL, "x_scale": _REAL, "confounder_strength": _REAL,
    "sigma_m": _SCALE, "sigma_y": _SCALE, "treat_prob": Key("number", (0, 1), open=True),
    "benchmark": Key(BENCHMARK_KEYS),
}


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
