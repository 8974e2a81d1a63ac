"""The four workloads: their inputs, the CLI invocations of one iteration, and
the semantic checks on what those invocations write.

Every input is made by ``bridgebound simulate`` from the benchmark seed, so
the program only ever sees generated CSVs and configs. Each workload is a
closed loop with one client: the next invocation starts when the previous
one has exited.

The checks are about meaning, not about digests of one commit's output, so a
change that alters the numbers on purpose still passes them. Posterior
intervals are checked against the simulated truth with a margin of one
interval width on each side (about six posterior standard deviations): the
plain 95% interval misses the truth on a few seeds in a hundred by design,
while a real bias shows far beyond that margin.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

# Linear Gaussian study with a known effect decomposition (true NIE 1.08,
# true NDE 0.7); mediator-ignorable unless a benchmark column is added.
STUDY = {"p": 2, "beta_m": [0.5, 1.2, 0.8, -0.4], "c0": 1.0, "c_a": 0.7,
         "c_m": 0.9, "x_scale": 0.6}
BENCHMARK_COLUMN = {"low": 0.0, "high": 2.0, "coef_m": 0.5, "coef_y": 0.4}


@dataclass(frozen=True)
class Step:
    """One CLI invocation: its arguments and the files it writes."""

    argv: tuple
    outputs: tuple
    main: bool = False   # the invocation whose draws are the workload's work


def write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def read_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def _interval_has(lo: float, hi: float, truth: float) -> bool:
    width = hi - lo
    return lo - width <= truth <= hi + width


def _walk_numbers(obj):
    if isinstance(obj, dict):
        for v in obj.values():
            yield from _walk_numbers(v)
    elif isinstance(obj, list):
        for v in obj:
            yield from _walk_numbers(v)
    elif isinstance(obj, (int, float)) and not isinstance(obj, bool):
        yield obj


class Workload:
    name = ""
    why = ""
    units = 1          # work per iteration: posterior draws x overlays, or models
    threads = 1        # draw threads of the main invocation; the reference load runs as wide
    setup_reps = 10    # fresh-interpreter set-up measurements per run
    probe = ()         # setup_probe.py arguments

    def prepare(self, bench) -> None:
        """Write configs and inputs in bench.work; nothing here is timed."""

    def steps(self, bench):
        raise NotImplementedError

    def check(self, bench) -> list:
        """Problems found in the outputs of the last iteration."""
        raise NotImplementedError

    def final_check(self, bench) -> list:
        """Problems found once per run, outside the timed iterations."""
        return []

    def info(self, bench) -> dict:
        return {}

    def _simulate(self, bench, n: int, out: str, with_benchmark: bool = False) -> float:
        spec = dict(STUDY, n=n)
        if with_benchmark:
            spec["benchmark"] = BENCHMARK_COLUMN
        write_json(bench.work / "sim.json", {"spec": spec, "seed": 0})
        res = bench.call(("simulate", "--config", "sim.json", "--seed", str(bench.seed),
                          "--out", out))
        return read_json(res.stdout)["nie"]


class FitAnchor(Workload):
    name = "fit_anchor"
    why = ("Plain single-threaded baseline: nearly all of each draw is anchor integration "
           "(cf draws, bridge_log_pair, outcome_mean_sum); calibration, oracle and big CSV I/O "
           "are bypassed.")
    n, draws, mediator_draws = 2000, 40, 50
    units = draws
    probe = ("fit", "fit.json")

    def prepare(self, bench):
        self.truth = self._simulate(bench, self.n, "study.csv")
        write_json(bench.work / "fit.json", {
            "data": "study.csv", "setting": {"route": "si_anchor"},
            "draws": self.draws, "burn_in": 0, "mediator_draws": self.mediator_draws})

    def steps(self, bench):
        return [Step(("fit", "--config", "fit.json", "--seed", str(bench.seed),
                      "--threads", "1", "--out", "fit.json.out"), ("fit.json.out",), True)]

    def check(self, bench):
        out = read_json(bench.work / "fit.json.out")
        nie = out["summary"]["nie"]
        problems = []
        if out["run"]["n_units"] != self.n or out["run"]["draws"] != self.draws:
            problems.append(f"fit ran {out['run']['draws']} draws on {out['run']['n_units']} units")
        if not _interval_has(nie["q2.5"], nie["q97.5"], self.truth):
            problems.append(f"truth NIE {self.truth} far outside [{nie['q2.5']}, {nie['q97.5']}]")
        return problems

    def info(self, bench):
        out = read_json(bench.work / "fit.json.out")
        nie = out["summary"]["nie"]
        return {"backend": out["run"]["backend"], "draw_threads": 1,
                "truth_nie": self.truth, "truth_in_nie_95": nie["q2.5"] <= self.truth <= nie["q97.5"]}


class SweepCalibrated(Workload):
    name = "sweep_calibrated"
    why = ("gamma_sup_logratio dominates each draw, every overlay re-runs the full model pass, "
           "and it is the only workload on the two-thread draw pool.")
    n, draws, mediator_draws, threads = 2000, 10, 50, 2
    grid = (1.0, 1.5, 2.0, 3.0)
    overlays = ("benchmark_raw", "benchmark_rank")
    units = draws * len(overlays)
    probe = ("sweep", "sweep.json")

    def _argv(self, bench, threads, out):
        return ("sweep", "--config", "sweep.json", "--seed", str(bench.seed),
                "--threads", str(threads), "--out", out)

    def prepare(self, bench):
        self.truth = self._simulate(bench, self.n, "study.csv", with_benchmark=True)
        write_json(bench.work / "sweep.json", {
            "data": "study.csv", "axis": "kappa", "grid": list(self.grid),
            "overlays": [{"label": r, "setting": {"route": r}} for r in self.overlays],
            "draws": self.draws, "burn_in": 0, "mediator_draws": self.mediator_draws})
        # single-threaded reference for the cross-thread byte check
        bench.call(self._argv(bench, 1, "sweep.t1.csv"))

    def steps(self, bench):
        return [Step(self._argv(bench, self.threads, "sweep.csv"), ("sweep.csv",), True)]

    def check(self, bench):
        with open(bench.work / "sweep.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        problems = []
        if len(rows) != len(self.overlays) * len(self.grid):
            return [f"sweep table has {len(rows)} rows"]
        for label in self.overlays:
            mine = sorted((r for r in rows if r["overlay"] == label),
                          key=lambda r: float(r["value"]))
            if len({r["theta_si_mean"] for r in mine}) != 1:
                problems.append(f"{label}: theta_si_mean moves across the grid")
            widths = [float(r["half_width"]) for r in mine]
            if any(b < a for a, b in zip(widths, widths[1:])):
                problems.append(f"{label}: half_width decreases in kappa: {widths}")
            wide = max(mine, key=lambda r: float(r["half_width"]))
            lo, hi = float(wide["nie_lower_q2.5"]), float(wide["nie_upper_q97.5"])
            if not lo <= self.truth <= hi:
                problems.append(f"{label}: truth NIE {self.truth} outside [{lo}, {hi}]")
        return problems

    def final_check(self, bench):
        same = (bench.work / "sweep.t1.csv").read_bytes() == (bench.work / "sweep.csv").read_bytes()
        return [] if same else ["sweep output differs between --threads 1 and --threads 2"]

    def info(self, bench):
        return {"draw_threads": self.threads, "truth_nie": self.truth}


class IngestLarge(Workload):
    name = "ingest_large"
    why = ("Large-n, few-point use of the engine: simulate writes a 50k-row CSV and fit "
           "(residual_budget, L=2) reads it, so per-row parse and nig_update dominate.")
    n, draws, mediator_draws = 50_000, 20, 2
    units = draws
    setup_reps = 5
    probe = ("fit", "fit.json")

    def prepare(self, bench):
        self._simulate(bench, self.n, "large.csv")   # the probes load this copy
        write_json(bench.work / "fit.json", {
            "data": "large.csv",
            "setting": {"route": "residual_budget", "k0": 0.25, "k1": 0.25, "g0": 2.0, "g1": 2.0},
            "draws": self.draws, "burn_in": 0, "mediator_draws": self.mediator_draws})

    def steps(self, bench):
        return [
            Step(("simulate", "--config", "sim.json", "--seed", str(bench.seed),
                  "--out", "large.csv"), ("large.csv",)),
            Step(("fit", "--config", "fit.json", "--seed", str(bench.seed), "--threads", "1",
                  "--out", "fit.json.out"), ("fit.json.out",), True),
        ]

    def check(self, bench):
        out = read_json(bench.work / "fit.json.out")
        problems = []
        if out["run"]["n_units"] != self.n:
            problems.append(f"fit saw {out['run']['n_units']} units, simulated {self.n}")
        if not all(math.isfinite(v) for v in _walk_numbers(out["summary"])):
            problems.append("non-finite value in the fit summary")
        s = out["summary"]
        if not s["xi_bar_0"]["mean"] + s["xi_bar_1"]["mean"] > 0.0:
            problems.append("residual-budget half width is not positive")
        return problems

    def info(self, bench):
        return {"backend": read_json(bench.work / "fit.json.out")["run"]["backend"],
                "draw_threads": 1}


class VerifyCorpus(Workload):
    name = "verify_corpus"
    why = ("The only workload on the exact oracle (pure Python over small arrays); "
           "no CSV and no posterior.")
    n_models = 500
    units = n_models
    probe = ("verify", "verify.json")

    def prepare(self, bench):
        write_json(bench.work / "verify.json", {"n_models": self.n_models})

    def steps(self, bench):
        return [Step(("verify", "--config", "verify.json", "--seed", str(bench.seed),
                      "--out", "verify.json.out"), ("verify.json.out",), True)]

    def check(self, bench):
        out = read_json(bench.work / "verify.json.out")
        if out["passed"] is not True or out["fuzz"]["n_models"] != self.n_models:
            return [f"verify passed={out['passed']} on {out['fuzz']['n_models']} models"]
        return []


WORKLOADS = {w.name: w for w in (FitAnchor, SweepCalibrated, IngestLarge, VerifyCorpus)}
