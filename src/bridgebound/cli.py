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

Each command imports the modules it runs when it runs: the posterior engine
for ``fit`` and ``sweep``, the data layer alone for ``simulate`` and the exact
oracle alone for ``verify``. The config tables come from ``errors``.
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
from .errors import (RUN_KEYS, SCHEMA_KEYS, SETTING_KEYS, SPEC_KEYS, BridgeboundError,
                     ConfigError, Key, NumericalFailure, VerificationFailure, check)

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


FIT_KEYS = {"data": Key("str", required=True), "schema": Key(SCHEMA_KEYS),
            "setting": Key(SETTING_KEYS, required=True), **RUN_KEYS}
OVERLAY_KEYS = {"label": Key("str"), "setting": Key(SETTING_KEYS, required=True)}
SWEEP_KEYS = {**FIT_KEYS, "setting": Key(SETTING_KEYS), "axis": Key("str", required=True),
              "grid": Key(["number"], inf=True, required=True), "overlays": Key([OVERLAY_KEYS])}
VERIFY_KEYS = {"gammas": Key(["number"], (1, math.inf)), "etas": Key(["number"], (0, math.inf)),
               "n_models": Key("int", (1, math.inf)), "inject_corrupt": Key("bool"),
               "seed": RUN_KEYS["seed"]}
SIMULATE_KEYS = {"spec": Key(SPEC_KEYS, required=True), "truth_out": Key("str"),
                 "seed": RUN_KEYS["seed"]}


def _config(args, table: dict) -> dict:
    """The command's config with --seed/--threads folded in, checked against table."""
    cfg = load_config(args.config)
    for name in ("seed", "threads"):
        if getattr(args, name, None) is not None:
            cfg[name] = getattr(args, name)
    return check("config", cfg, table)


def setting_from_dict(raw: dict):
    from .gcomp import DeltaPrior, SensitivitySetting

    raw = dict(check("setting", raw, SETTING_KEYS))
    if "delta_prior" in raw:
        raw["delta_prior"] = DeltaPrior(**raw["delta_prior"])
    return SensitivitySetting(**raw)


def schema_from_config(cfg: dict, data_path: str) -> Optional[dict]:
    """The config's schema, or None for load_dataset to infer from the header
    of the data file as it reads it.

    data_path is unused; the signature stays only because
    perfbench/setup_probe.py calls it."""
    return cfg.get("schema")


def _run_kwargs(cfg: dict) -> dict:
    from .gcomp import DEFAULT_BURN_IN, DEFAULT_DRAWS, DEFAULT_MEDIATOR_DRAWS

    defaults = {"draws": DEFAULT_DRAWS, "burn_in": DEFAULT_BURN_IN,
                "mediator_draws": DEFAULT_MEDIATOR_DRAWS, "seed": DEFAULT_SEED, "threads": 1}
    return {name: cfg.get(name, default) for name, default in defaults.items()}


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_fit(args) -> int:
    from .data import load_dataset
    from .gcomp import run

    cfg = _config(args, FIT_KEYS)
    data = load_dataset(cfg["data"], schema_from_config(cfg, cfg["data"]))
    setting = setting_from_dict(cfg["setting"])
    kwargs = _run_kwargs(cfg)
    result = run(data, setting, **kwargs)
    del kwargs["threads"]   # the output does not depend on it
    payload = {
        "summary": result.summary(),
        "run": {"version": __version__, "backend": "numpy", "n_units": data.n,
                "route": setting.route, **kwargs},
    }
    _emit(render_json(payload), args.out)
    return 0


def cmd_sweep(args) -> int:
    from .data import load_dataset
    from .gcomp import sweep

    cfg = _config(args, SWEEP_KEYS)
    if ("overlays" in cfg) == ("setting" in cfg):
        raise ConfigError("give exactly one of config keys 'setting' and 'overlays'")
    data = load_dataset(cfg["data"], schema_from_config(cfg, cfg["data"]))
    overlays = cfg["overlays"] if "overlays" in cfg else [{"setting": cfg["setting"]}]
    labels, settings = [], []
    for overlay in overlays:
        setting = setting_from_dict(overlay["setting"])
        label = overlay.get("label", setting.route)
        if label in labels:
            raise ConfigError(f"duplicate overlay label {label!r}; labels must be distinct")
        labels.append(label)
        settings.append(setting)

    results = sweep(data, settings, axis=cfg["axis"], grid=[float(v) for v in cfg["grid"]],
                    **_run_kwargs(cfg))
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
    from .oracle import check_bound_and_sharpness, run_fuzz, self_test_failure

    cfg = _config(args, VERIFY_KEYS)
    # one pass over the grid: gammas down, etas across
    gammas = np.asarray(cfg.get("gammas", SHARPNESS_GAMMAS), dtype=np.float64)
    etas = np.asarray(cfg.get("etas", SHARPNESS_ETAS), dtype=np.float64)
    plus, minus, bound = check_bound_and_sharpness(gammas[:, None], etas[None, :])
    points = bound.size
    max_gap = float(np.max([np.abs(plus - bound), np.abs(minus + bound)]))   # keeps a NaN gap
    sharp_ok = max_gap <= 1e-12

    report = run_fuzz(n_models=cfg.get("n_models", 100), seed=cfg.get("seed", 90210))
    # JSON cannot spell a non-finite statistic, so the run fails here and names it
    broken = [] if math.isfinite(max_gap) else [f"sharpness max_abs_gap = {max_gap}"]
    for name, value in {**report.stats, "eta_gap_min_any": report.eta_gap_min_any}.items():
        if not math.isfinite(value):
            model = report.worst.get(name)
            broken.append(f"fuzz {name} = {value} (" + (
                f"model {model['model']}, {model['kind']})" if model else "no model reports it)"))
    if broken:
        raise VerificationFailure("non-finite check statistic: " + "; ".join(broken))
    failures = report.failures()
    fuzz_ok = not failures

    payload = {
        "sharpness": {"points": points, "max_abs_gap": max_gap, "passed": sharp_ok},
        "fuzz": {
            "n_models": report.n_models,
            "seed": report.seed,
            "stats": report.stats,
            "eta_gap_min_any": report.eta_gap_min_any,
            "worst": report.worst,
            "failures": failures,
            "passed": fuzz_ok,
        },
        "passed": sharp_ok and fuzz_ok,
    }
    if cfg.get("inject_corrupt", False):
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
    from .data import BenchmarkSpec, SyntheticSpec, generate_synthetic, save_dataset

    cfg = _config(args, SIMULATE_KEYS)
    raw = dict(cfg["spec"])
    if "benchmark" in raw:
        raw["benchmark"] = BenchmarkSpec(**raw["benchmark"])
    spec = SyntheticSpec(**raw)
    if args.out is None:
        raise ConfigError("simulate needs --out for the dataset CSV")
    data, truth = generate_synthetic(spec, cfg.get("seed", DEFAULT_SEED))
    save_dataset(data, args.out)
    truth_text = render_json(truth)
    if "truth_out" in cfg:
        _emit(truth_text, cfg["truth_out"])
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
        p.add_argument("--out", help="output path (default: stdout)")

    p_fit = sub.add_parser("fit", help="posterior summary under one setting")
    p_sweep = sub.add_parser("sweep", help="grid sweep over one sensitivity axis")
    for p, func in ((p_fit, cmd_fit), (p_sweep, cmd_sweep)):
        common(p)
        p.add_argument("--threads", type=int,
                       help="worker processes for the draw loop, at most draws and the "
                            "available CPUs")
        p.set_defaults(func=func, sizes="draws, mediator_draws or the sweep grid size")

    p_ver = sub.add_parser("verify", help="exact checks of the bound machinery")
    common(p_ver)
    p_ver.set_defaults(func=cmd_verify, sizes="gammas or etas")

    p_sim = sub.add_parser("simulate", help="synthetic dataset with known truth")
    common(p_sim)
    p_sim.set_defaults(func=cmd_simulate, sizes="spec 'n' or 'p'")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # no bound on a single key rules this out: the draw records take draws x
        # fields, each benchmark-route draw a block of at least one unit's
        # mediator_draws envelope points, and a simulated dataset n x p values
        print(f"config error: {args.sizes} is too large for memory: {exc}", file=sys.stderr)
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
