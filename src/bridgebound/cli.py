"""Command line front end.

Four subcommands:

* ``fit``       posterior inference on one dataset under one sensitivity setting
* ``sweep``     the same inference across a grid of one sensitivity parameter
* ``verify``    exact finite-state checks of the identification and bound results
* ``simulate``  draw a synthetic dataset with known ground truth

All output is byte-deterministic for a fixed config and seed: floats are
rendered with format(x, '.17g'), JSON keys are sorted, CSV rows use LF line
endings, and nothing timestamp- or host-dependent is written. Exit codes:
0 success, 2 unusable config or data, 3 numerical failure, 4 verification
failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .data import (BenchmarkSpec, SyntheticSpec, generate_synthetic,
                   infer_schema, load_dataset, save_dataset)
from .errors import (BridgeboundError, ConfigError, NumericalFailure,
                     VerificationFailure)
from .gcomp import (DEFAULT_BURN_IN, DEFAULT_DRAWS, DEFAULT_MEDIATOR_DRAWS,
                    DeltaPrior, SensitivitySetting, run, sweep)
from .oracle import check_bound_and_sharpness, run_fuzz, self_test_failure

DEFAULT_SEED = 1729
SHARPNESS_GAMMAS = (1.1, 1.5, 2.0, 5.0, 50.0)
SHARPNESS_ETAS = (0.5, 1.0, 6.0)

SWEEP_COLUMNS = ("overlay", "axis", "value", "theta_si_mean", "si_center",
                 "half_width", "nde_lower", "nde_upper", "nie_lower",
                 "nie_upper", "nie_lower_q2.5", "nie_upper_q97.5")


# ---------------------------------------------------------------------------
# deterministic rendering
# ---------------------------------------------------------------------------


def format_float(x: float) -> str:
    return format(float(x), ".17g")


def _finite_text(x, where: str) -> str:
    if not math.isfinite(x):
        raise NumericalFailure(f"non-finite value {float(x)} at {where}; refusing to write it")
    return format_float(x)


def render_json(obj, indent: int = 0, path: str = "") -> str:
    """JSON text with sorted keys and '.17g' floats; stable to the byte.

    A NaN or infinite float, which JSON cannot spell, raises NumericalFailure
    naming its key path (e.g. ``summary.theta.mean``).
    """
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        parts = [f'{inner}{json.dumps(str(k))}: {render_json(obj[k], indent + 1, f"{path}.{k}")}'
                 for k in sorted(obj, key=str)]
        return "{\n" + ",\n".join(parts) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(obj)
        if not seq:
            return "[]"
        parts = [f"{inner}{render_json(v, indent + 1, path + f'[{i}]')}"
                 for i, v in enumerate(seq)]
        return "[\n" + ",\n".join(parts) + "\n" + pad + "]"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _finite_text(obj, path.removeprefix(".") or "the top level")
    if isinstance(obj, str):
        return json.dumps(obj)
    raise ConfigError(f"cannot render {type(obj).__name__} as JSON")


def _emit(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        try:
            Path(out).write_text(text if text.endswith("\n") else text + "\n",
                                 encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"cannot write {out}: {exc}") from exc


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------


def load_config(path: Optional[str]) -> dict:
    if path is None:
        return {}
    try:
        raw = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        cfg = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    return cfg


def _require(cfg: dict, key: str):
    if key not in cfg:
        raise ConfigError(f"config key '{key}' is required")
    return cfg[key]


def _take_str(cfg: dict, key: str, required: bool = True) -> Optional[str]:
    value = _require(cfg, key) if required else cfg.get(key)
    if not (isinstance(value, str) or (value is None and not required)):
        raise ConfigError(f"config key '{key}' must be a string")
    return value


def _take_int(cfg: dict, key: str, default: int) -> int:
    value = cfg.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"config key '{key}' must be an integer")
    return value


def _take_floats(cfg: dict, key: str, default) -> list:
    value = cfg.get(key, default)
    if (not isinstance(value, list) or not value
            or any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in value)):
        raise ConfigError(f"config key '{key}' must be a non-empty list of numbers")
    return [float(v) for v in value]


def _check_numbers(raw: dict, where: str) -> None:
    for key, value in raw.items():
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{where} key '{key}' must be a number")


def _take_seed(cfg: dict, args, default: int) -> int:
    seed = args.seed if args.seed is not None else _take_int(cfg, "seed", default)
    if seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {seed}")
    return seed


def setting_from_dict(raw: dict) -> SensitivitySetting:
    if not isinstance(raw, dict):
        raise ConfigError("'setting' must be a JSON object")
    raw = dict(raw)
    prior_raw = raw.pop("delta_prior", None)
    known = {f for f in SensitivitySetting.__dataclass_fields__}
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(f"unknown setting keys: {sorted(unknown)}")
    if "route" not in raw:
        raise ConfigError("setting needs a 'route'")
    if prior_raw is not None:
        if not isinstance(prior_raw, dict):
            raise ConfigError("'delta_prior' must be a JSON object")
        extra = set(prior_raw) - {"kind", "shape1", "shape2"}
        if extra:
            raise ConfigError(f"unknown delta_prior keys: {sorted(extra)}")
        raw["delta_prior"] = DeltaPrior(**prior_raw)
    try:
        return SensitivitySetting(**raw)
    except TypeError as exc:
        raise ConfigError(f"bad setting: {exc}") from exc


def schema_from_config(cfg: dict, data_path: str) -> dict:
    raw = cfg.get("schema")
    if raw is None:
        return infer_schema(data_path)
    if not isinstance(raw, dict):
        raise ConfigError("'schema' must be a JSON object")
    allowed = {"treatment", "mediator", "outcome", "covariates", "benchmark"}
    unknown = set(raw) - allowed
    if unknown:
        raise ConfigError(f"unknown schema keys: {sorted(unknown)}")
    for key in ("treatment", "mediator", "outcome"):
        if key not in raw:
            raise ConfigError(f"schema missing key '{key}'")
    return raw


def _run_kwargs(cfg: dict, args) -> dict:
    threads = args.threads if args.threads is not None else _take_int(cfg, "threads", 1)
    return {
        "draws": _take_int(cfg, "draws", DEFAULT_DRAWS),
        "burn_in": _take_int(cfg, "burn_in", DEFAULT_BURN_IN),
        "mediator_draws_per_unit": _take_int(cfg, "mediator_draws", DEFAULT_MEDIATOR_DRAWS),
        "seed": _take_seed(cfg, args, DEFAULT_SEED),
        "threads": threads,
    }


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_fit(args) -> int:
    cfg = load_config(args.config)
    data_path = _take_str(cfg, "data")
    data = load_dataset(data_path, schema_from_config(cfg, data_path))
    setting = setting_from_dict(_require(cfg, "setting"))
    kwargs = _run_kwargs(cfg, args)
    result = run(data, setting, **kwargs)
    payload = {
        "summary": result.summary(),
        "run": {
            "version": __version__,
            "backend": "numpy",
            "n_units": result.n_units,
            "draws": result.n_draws,
            "burn_in": result.burn_in,
            "mediator_draws": result.mediator_draws_per_unit,
            "seed": result.seed,
            "route": setting.route,
        },
    }
    _emit(render_json(payload), args.out)
    return 0


def cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    data_path = _take_str(cfg, "data")
    data = load_dataset(data_path, schema_from_config(cfg, data_path))
    axis = _take_str(cfg, "axis")
    grid = _take_floats(cfg, "grid", None)
    kwargs = _run_kwargs(cfg, args)

    overlays = cfg.get("overlays")
    if overlays is None:
        overlays = [{"setting": _require(cfg, "setting")}]
    if not isinstance(overlays, list) or not overlays:
        raise ConfigError("'overlays' must be a non-empty list")
    labels, settings = [], []
    for overlay in overlays:
        if not isinstance(overlay, dict) or "setting" not in overlay:
            raise ConfigError("each overlay needs a 'setting'")
        unknown = set(overlay) - {"setting", "label"}
        if unknown:
            raise ConfigError(f"unknown overlay keys: {sorted(unknown)}")
        setting = setting_from_dict(overlay["setting"])
        label = overlay.get("label", setting.route)
        if not isinstance(label, str):
            raise ConfigError("overlay 'label' must be a string")
        if label in labels:
            raise ConfigError(f"duplicate overlay label {label!r}; labels must be distinct")
        labels.append(label)
        settings.append(setting)

    results = sweep(data, settings, axis=axis, grid=grid, **kwargs)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(SWEEP_COLUMNS)
    for label, result in zip(labels, results):
        for row in result.rows:
            # the grid value may be +inf; every computed column must be finite
            value = format_float(row["value"])
            where = f"overlay {label!r}, {row['axis']} = {value}, column"
            writer.writerow([label, row["axis"], value]
                            + [_finite_text(row[c], f"{where} {c}") for c in SWEEP_COLUMNS[3:]])
    _emit(buf.getvalue(), args.out)
    return 0


def cmd_verify(args) -> int:
    cfg = load_config(args.config)
    gammas = _take_floats(cfg, "gammas", list(SHARPNESS_GAMMAS))
    etas = _take_floats(cfg, "etas", list(SHARPNESS_ETAS))
    n_models = _take_int(cfg, "n_models", 100)
    if n_models < 1:
        raise ConfigError(f"n_models must be >= 1, got {n_models}")
    inject_corrupt = cfg.get("inject_corrupt", False)
    if not isinstance(inject_corrupt, bool):
        raise ConfigError("config key 'inject_corrupt' must be true or false")
    seed = _take_seed(cfg, args, 90210)

    max_gap = 0.0
    points = 0
    for gamma in gammas:
        for eta in etas:
            plus, minus, bound = check_bound_and_sharpness(gamma, eta)
            max_gap = max(max_gap, abs(plus - bound), abs(minus + bound))
            points += 1
    sharp_ok = max_gap <= 1e-12

    report = run_fuzz(n_models=n_models, seed=seed)
    failures = report.failures()
    fuzz_ok = not failures

    payload = {
        "sharpness": {"points": points, "max_abs_gap": max_gap, "passed": sharp_ok},
        "fuzz": {
            "n_models": report.n_models,
            "seed": report.seed,
            "stats": report.stats,
            "eta_gap_min_any": report.eta_gap_min_any,
            "failures": failures,
            "passed": fuzz_ok,
        },
        "passed": sharp_ok and fuzz_ok,
    }
    if inject_corrupt:
        # harness self-test: a corrupted check input must surface as a failure
        model, gap = self_test_failure()
        payload["self_test"] = {
            "bound_gap": gap,
            "detected": gap > 1e-10,
            "model": {
                "p_x": model.p_x, "p_u": model.p_u, "p_m": model.p_m,
                "psi": model.psi, "groups": list(model.groups),
            },
        }
        payload["passed"] = False
    _emit(render_json(payload), args.out)
    return 0 if payload["passed"] else 4


def cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    raw = _require(cfg, "spec")
    if not isinstance(raw, dict):
        raise ConfigError("'spec' must be a JSON object")
    raw = dict(raw)
    bench_raw = raw.pop("benchmark", None)
    known = {f for f in SyntheticSpec.__dataclass_fields__}
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(f"unknown spec keys: {sorted(unknown)}")
    for key in ("n", "p"):
        if key in raw:
            raw[key] = _take_int(raw, key, None)
    if "beta_m" in raw:
        raw["beta_m"] = tuple(_take_floats(raw, "beta_m", None))
    _check_numbers({k: v for k, v in raw.items() if k not in ("n", "p", "beta_m")}, "spec")
    if bench_raw is not None:
        if not isinstance(bench_raw, dict):
            raise ConfigError("'benchmark' must be a JSON object")
        _check_numbers(bench_raw, "benchmark")
        try:
            bench_raw = BenchmarkSpec(**bench_raw)
        except TypeError as exc:
            raise ConfigError(f"bad benchmark spec: {exc}") from exc
    try:
        spec = SyntheticSpec(benchmark=bench_raw, **raw)
    except TypeError as exc:
        raise ConfigError(f"bad spec: {exc}") from exc
    seed = _take_seed(cfg, args, DEFAULT_SEED)
    truth_out = _take_str(cfg, "truth_out", required=False)
    if args.out is None:
        raise ConfigError("simulate needs --out for the dataset CSV")
    data, truth = generate_synthetic(spec, seed)
    save_dataset(data, args.out)
    truth_text = render_json(truth)
    if truth_out is not None:
        _emit(truth_text, truth_out)
    sys.stdout.write(truth_text + "\n")
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bridgebound",
        description="Bounded mediation inference behind mediator bridge scores.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="path to a JSON config file")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--threads", type=int, help="worker threads for the draw loop")
        p.add_argument("--out", help="output path (default: stdout)")

    p_fit = sub.add_parser("fit", help="posterior summary under one setting")
    common(p_fit)
    p_fit.set_defaults(func=cmd_fit)

    p_sweep = sub.add_parser("sweep", help="grid sweep over one sensitivity axis")
    common(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_ver = sub.add_parser("verify", help="exact checks of the bound machinery")
    common(p_ver)
    p_ver.set_defaults(func=cmd_verify)

    p_sim = sub.add_parser("simulate", help="synthetic dataset with known truth")
    common(p_sim)
    p_sim.set_defaults(func=cmd_simulate)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except VerificationFailure as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 4
    except (NumericalFailure, np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except BridgeboundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
