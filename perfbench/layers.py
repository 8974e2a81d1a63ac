"""Layer map of bridgebound for the traced run: what to wrap and what to report.

A *target* is a function or method of a ``bridgebound`` module, named as
``"module:qualname"``. Every target belongs to a *key* (a layer metric stem
such as ``"linear_bayes.nig_update"``); the self time of all spans of one key
is summed into the ``<key>_s`` metric, and the counters a target records at
its call boundary are summed under ``<key>`` too.

Each per-layer metric carries the end-to-end metric and workload it should
move (``moves``), so a later change can say in advance which numbers it
expects to shift. A target that no longer exists is skipped when tracing and
the metrics built only from it are reported as null with a note, so a
refactor that retires or renames one never crashes the benchmark.

This module imports nothing from bridgebound or numpy: the orchestrator
imports it too, and it must stay cheap.
"""

from __future__ import annotations

F64 = 8  # bytes per float64 element, for the computed byte volumes


def _size(x) -> int:
    return int(getattr(x, "size", 1))


def _nig_rows(a, _r):
    design = a["design"]
    return {"rows": int(design.shape[0]) if getattr(design, "ndim", 1) == 2 else 1}


def _gamma_counts(a, r):
    cap = float(a.get("cap", 20.0))
    clamped = int(((r <= 1.0) | (r >= cap)).sum())
    return {"points": _size(a["pts_m"]), "clamped": clamped}


def _gamma_sup_counts(a, r):
    # computed from array sizes at the call boundary: the four float64 vectors
    # read (mu_c, mu_r, sorted w) and written (the result); cache misses ignored
    points = _size(a["mu_c"])
    volume = F64 * (_size(a["mu_c"]) + _size(a["mu_r"]) + _size(a["w"]) + _size(r))
    return {"points": points, "bytes": volume}


# (key, target, counter). A counter gets the call arguments (by name) and
# the return value, and returns the counts to add under the key; every span
# also adds 1 to the key's "calls".
TARGETS = (
    ("cli.command", "cli:main", None),
    ("cli.config", "cli:load_config", None),
    ("cli.config", "cli:schema_from_config", None),
    ("cli.config", "cli:setting_from_dict", None),
    ("cli.render", "cli:render_json", None),
    ("cli.render", "cli:format_float", None),
    ("cli.render", "cli:_emit", None),
    ("data.load", "data:load_dataset", lambda a, r: {"rows": r.n}),
    ("data.load", "data:infer_schema", None),
    ("data.save", "data:save_dataset", lambda a, r: {"rows": a["data"].n}),
    ("linear_bayes.nig_update", "linear_bayes:nig_update", _nig_rows),
    ("linear_bayes.sample_draw", "linear_bayes:sample_draw", None),
    ("bridge.log_pair", "bridge:bridge_log_pair", lambda a, r: {"points": _size(a["m"])}),
    ("bridge.outcome_design", "bridge:outcome_design", None),
    ("gcomp.draw", "gcomp:_Engine.run_draw", None),
    ("gcomp.cf_draws", "gcomp:counterfactual_mediator_draws",
     lambda a, r: {"points": _size(r[0])}),
    ("gcomp.summary", "gcomp:RunResult.summary", None),
    ("gcomp.summary", "gcomp:sweep", None),
    ("gcomp.run", "gcomp:run", None),
    ("calibration.prepare", "calibration:prepare_benchmark", None),
    ("calibration.eta", "calibration:estimate_benchmark_eta", None),
    ("calibration.gamma", "calibration:estimate_benchmark_gamma", _gamma_counts),
    ("calibration.sigma_eta", "calibration:estimate_sigma_eta", None),
    ("calibration.envelope", "calibration:benchmark_envelope", None),
    ("calibration.envelope", "calibration:residual_envelope", None),
    ("envelope.xi", "envelope:xi_pointwise", lambda a, r: {"points": _size(r)}),
    ("envelope.xi", "envelope:aggregate_xi_bar", None),
    ("kernels.outcome_mean_sum", "_kernels:outcome_mean_sum",
     lambda a, r: {"points": _size(a["m"])}),
    ("kernels.gamma_sup", "_kernels:gamma_sup_logratio", _gamma_sup_counts),
    ("kernels.normal_logpdf", "_kernels:normal_logpdf", None),
    ("kernels.comp_sum", "_kernels:comp_sum", lambda a, r: {"elems": _size(a["x"])}),
    ("oracle.fuzz", "oracle:run_fuzz", lambda a, r: {"models": r.n_models}),
    ("oracle.random_model", "oracle:random_model", None),
    ("oracle.exact_sensitivity", "oracle:exact_sensitivity", None),
    ("oracle.sharpness", "oracle:check_bound_and_sharpness", None),
)

# Target whose call argument `t` is the draw id inherited by every span the
# draw opens on its thread; its spans, grouped by parent, make the draw phases.
DRAW_TARGET = "gcomp:_Engine.run_draw"
DRAW_KEY = "gcomp.draw"

# Per-layer metrics: (name, unit, better, source, moves).
# source is ("self", key): summed self time of the key's spans;
#           ("count", key, counter): summed counter;
#           ("ratio", key, numerator, denominator): ratio of two counters;
#           ("import",): interpreter time to import bridgebound.cli;
#           ("concurrency",): draw-span time over draw-phase wall time;
#           ("overhead",): traced minus untraced iteration wall time.
METRICS = (
    ("cli.import_s", "s", "lower", ("import",), "setup_s everywhere, small"),
    ("cli.config_s", "s", "lower", ("self", "cli.config"), "setup_s everywhere, small"),
    ("cli.render_s", "s", "lower", ("self", "cli.render"), "setup_s everywhere, small"),
    ("data.load_s", "s", "lower", ("self", "data.load"),
     "setup_s, peak_rss_mb and wall_s on ingest_large; about 0 elsewhere"),
    ("data.load_rows", "count", "lower", ("count", "data.load", "rows"),
     "setup_s, peak_rss_mb and wall_s on ingest_large"),
    ("data.save_s", "s", "lower", ("self", "data.save"), "wall_s on ingest_large"),
    ("data.save_rows", "count", "lower", ("count", "data.save", "rows"),
     "wall_s on ingest_large"),
    ("linear_bayes.nig_update_s", "s", "lower", ("self", "linear_bayes.nig_update"),
     "work_per_s on ingest_large (large n)"),
    ("linear_bayes.nig_update_calls", "count", "lower",
     ("count", "linear_bayes.nig_update", "calls"),
     "model passes per overlay on sweep_calibrated, which a shared model pass halves"),
    ("linear_bayes.nig_update_rows", "count", "lower",
     ("count", "linear_bayes.nig_update", "rows"), "work_per_s on ingest_large"),
    ("linear_bayes.sample_draw_s", "s", "lower", ("self", "linear_bayes.sample_draw"),
     "work_per_s on ingest_large"),
    ("linear_bayes.sample_draw_calls", "count", "lower",
     ("count", "linear_bayes.sample_draw", "calls"),
     "model passes per overlay on sweep_calibrated"),
    ("bridge.log_pair_s", "s", "lower", ("self", "bridge.log_pair"),
     "work_per_s on fit_anchor"),
    ("bridge.log_pair_points", "count", "lower", ("count", "bridge.log_pair", "points"),
     "work_per_s on fit_anchor"),
    ("bridge.outcome_design_s", "s", "lower", ("self", "bridge.outcome_design"),
     "work_per_s on fit_anchor"),
    ("gcomp.draw_s", "s", "lower", ("self", "gcomp.draw"), "work_per_s on fit_anchor"),
    ("gcomp.draws", "count", "higher", ("count", "gcomp.draw", "calls"),
     "work_per_s numerator on the three posterior workloads"),
    ("gcomp.cf_draws_s", "s", "lower", ("self", "gcomp.cf_draws"),
     "work_per_s on fit_anchor"),
    ("gcomp.cf_points", "count", "lower", ("count", "gcomp.cf_draws", "points"),
     "work_per_s on fit_anchor"),
    ("gcomp.summary_s", "s", "lower", ("self", "gcomp.summary"), "wall_s, small"),
    ("gcomp.draw_concurrency", "ratio", "higher", ("concurrency",),
     "work_per_s on sweep_calibrated (the only multi-threaded workload)"),
    ("calibration.prepare_s", "s", "lower", ("self", "calibration.prepare"),
     "setup_s on sweep_calibrated"),
    ("calibration.eta_s", "s", "lower", ("self", "calibration.eta"),
     "work_per_s on sweep_calibrated"),
    ("calibration.gamma_s", "s", "lower", ("self", "calibration.gamma"),
     "work_per_s on sweep_calibrated"),
    ("calibration.gamma_points", "count", "lower", ("count", "calibration.gamma", "points"),
     "work_per_s on sweep_calibrated"),
    ("calibration.gamma_clamped_ratio", "ratio", "lower",
     ("ratio", "calibration.gamma", "clamped", "points"),
     "diagnostic on sweep_calibrated: share of points clamped at 1 or gamma_cap"),
    ("calibration.sigma_eta_s", "s", "lower", ("self", "calibration.sigma_eta"),
     "work_per_s on ingest_large"),
    ("calibration.envelope_s", "s", "lower", ("self", "calibration.envelope"),
     "work_per_s on sweep_calibrated"),
    ("envelope.xi_s", "s", "lower", ("self", "envelope.xi"),
     "work_per_s on sweep_calibrated"),
    ("envelope.xi_points", "count", "lower", ("count", "envelope.xi", "points"),
     "work_per_s on sweep_calibrated"),
    ("kernels.outcome_mean_sum_s", "s", "lower", ("self", "kernels.outcome_mean_sum"),
     "work_per_s on fit_anchor"),
    ("kernels.outcome_mean_points", "count", "lower",
     ("count", "kernels.outcome_mean_sum", "points"), "work_per_s on fit_anchor"),
    ("kernels.gamma_sup_s", "s", "lower", ("self", "kernels.gamma_sup"),
     "work_per_s on sweep_calibrated; zero on the other three workloads"),
    ("kernels.gamma_sup_points", "count", "lower", ("count", "kernels.gamma_sup", "points"),
     "work_per_s on sweep_calibrated"),
    ("kernels.gamma_sup_bytes_computed", "B", "lower",
     ("count", "kernels.gamma_sup", "bytes"),
     "work_per_s on sweep_calibrated; computed from array sizes, cache misses ignored"),
    ("kernels.normal_logpdf_s", "s", "lower", ("self", "kernels.normal_logpdf"),
     "work_per_s on fit_anchor"),
    ("kernels.comp_sum_s", "s", "lower", ("self", "kernels.comp_sum"),
     "work_per_s on fit_anchor"),
    ("kernels.comp_sum_elems", "count", "lower", ("count", "kernels.comp_sum", "elems"),
     "work_per_s on fit_anchor"),
    ("oracle.fuzz_s", "s", "lower", ("self", "oracle.fuzz"),
     "work_per_s and wall_s on verify_corpus only"),
    ("oracle.models", "count", "higher", ("count", "oracle.fuzz", "models"),
     "work_per_s numerator on verify_corpus"),
    ("oracle.random_model_s", "s", "lower", ("self", "oracle.random_model"),
     "work_per_s and wall_s on verify_corpus only"),
    ("oracle.exact_sensitivity_s", "s", "lower", ("self", "oracle.exact_sensitivity"),
     "work_per_s and wall_s on verify_corpus only"),
    ("oracle.exact_sensitivity_calls", "count", "lower",
     ("count", "oracle.exact_sensitivity", "calls"), "work_per_s on verify_corpus only"),
    ("oracle.sharpness_s", "s", "lower", ("self", "oracle.sharpness"),
     "wall_s on verify_corpus only"),
    ("trace.overhead_s", "s", "lower", ("overhead",),
     "none: traced minus untraced wall_s of one iteration"),
)


def _union_length(intervals, lo, hi) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    end = lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def aggregate(traces):
    """Per-key self time and counters over the trace files of one iteration.

    Returns (self_s, counts, concurrency, import_s, missing, broken): missing
    holds the targets not found in the traced program, broken the keys whose
    counter failed on a call.
    """
    self_s, counts = {}, {}
    draw_busy = draw_wall = 0.0
    import_s = 0.0
    missing, broken = set(), set()
    for trace in traces:
        keys = trace["keys"]
        import_s += trace["import_s"]
        missing.update(trace["missing"])
        broken.update(trace["broken"])
        spans = trace["spans"]
        children = {}
        for sp in spans:
            children.setdefault(sp[2], []).append((sp[3], sp[4]))
        phases = {}
        for key_idx, sid, parent, t0, t1, _draw, cnt in spans:
            key = keys[key_idx]
            own = (t1 - t0) - _union_length(children.get(sid, ()), t0, t1)
            self_s[key] = self_s.get(key, 0.0) + own
            acc = counts.setdefault(key, {})
            acc["calls"] = acc.get("calls", 0) + 1
            for name, value in (cnt or {}).items():
                acc[name] = acc.get(name, 0) + value
            if key == DRAW_KEY:
                draw_busy += t1 - t0
                lo, hi = phases.get(parent, (t0, t1))
                phases[parent] = (min(lo, t0), max(hi, t1))
        draw_wall += sum(hi - lo for lo, hi in phases.values())
    concurrency = draw_busy / draw_wall if draw_wall > 0.0 else 0.0
    return self_s, counts, concurrency, import_s, missing, broken


def layer_values(traces, overhead_s):
    """Per-layer metric values of one iteration, plus notes for null ones."""
    self_s, counts, concurrency, import_s, missing, broken = aggregate(traces)
    by_key = {}
    for key, target, _ in TARGETS:
        by_key.setdefault(key, []).append(target)
    gone = {key for key, targets in by_key.items() if all(t in missing for t in targets)}
    values, notes = {}, {}
    for name, _unit, _better, source, _moves in METRICS:
        kind = source[0]
        if kind in ("self", "count", "ratio") and source[1] in gone:
            values[name] = None
            notes[name] = "target missing: " + ", ".join(by_key[source[1]])
            continue
        counted = kind == "ratio" or (kind == "count" and source[2] != "calls")
        if counted and source[1] in broken:
            values[name] = None
            notes[name] = "counter failed on a call of: " + ", ".join(by_key[source[1]])
            continue
        if kind == "self":
            values[name] = self_s.get(source[1], 0.0)
        elif kind == "count":
            values[name] = counts.get(source[1], {}).get(source[2], 0)
        elif kind == "ratio":
            acc = counts.get(source[1], {})
            den = acc.get(source[3], 0)
            values[name] = acc.get(source[2], 0) / den if den else 0.0
        elif kind == "import":
            values[name] = import_s
        elif kind == "concurrency":
            if DRAW_TARGET in missing:
                values[name] = None
                notes[name] = "target missing: " + DRAW_TARGET
            else:
                values[name] = concurrency
        else:
            values[name] = overhead_s
    return values, notes
