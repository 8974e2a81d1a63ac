"""Layered end-to-end benchmark of the bridgebound CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace {0,1}

Run it from the root of a checkout: it runs ``src/bridgebound`` from there,
with ``PYTHONPATH=src``, and keeps its scratch files in ``.perfbench/``
(deleted on exit). Workloads are defined in ``workloads.py``; each is a closed
loop with one client that runs whole iterations of real CLI invocations, in
fresh interpreters, for S seconds (at least two iterations; none is started
that would likely end past S), and checks every output.

``--trace 0`` prints the end-to-end metrics, all measured with tracing off
and in *reference seconds*: between iterations the run times ``refload.py``,
a fixed job that uses nothing from bridgebound, run as many times at once as
the workload has draw threads, and scales each iteration's times (and those
of a set-up probe in its lap) by REF_NOMINAL_S over the mean wall time of the
two reference runs around it. The host's speed drift cancels out; a change
to bridgebound does not. Raw seconds are in the details.

* ``wall_s``       median wall time of one iteration (all of its invocations);
* ``setup_s``      median wall time of a fresh interpreter doing the
                   workload's pre-draw steps (see ``setup_probe.py``);
* ``work_per_s``   posterior draws x overlays (oracle models on
                   verify_corpus) per second of the main invocation's median
                   wall time, its set-up included: a draw phase got as a
                   difference of two medians would be far noisier;
* ``peak_rss_mb``  median over iterations of the largest child RSS;
* ``ok_ratio``     1 - failed / attempted invocations; a non-zero exit or an
                   output that fails its check is a failure.

``--trace 1`` alternates untraced iterations with iterations run through
``traced.py``, and prints the per-layer metrics of ``layers.METRICS``
(medians over traced iterations) and ``trace.overhead_s``.

The last line of standard output is the result object; the line before it
holds the details: sample counts, quartiles, the highest percentile with ten
samples beyond it, the thread settings and library versions. Child processes
run with one BLAS thread, so draw threads plus BLAS threads stay within two
cores, and output bytes do not depend on BLAS scheduling.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import layers
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
INVOKE_TIMEOUT_S = 150.0
RUN_BUDGET_S = 160.0      # start no iteration that would end past this
REF_NOMINAL_S = 0.35      # refload.py wall time at nominal host speed
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
E2E_UNITS = {"wall_s": "s", "setup_s": "s", "work_per_s": "1/s", "peak_rss_mb": "MB",
             "ok_ratio": "ratio"}

ENV_PROBE = """
import json, numpy
info = {"numpy": numpy.__version__}
try:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info["blas"] = f"{blas.get('name')} {blas.get('version')}"
except Exception as exc:
    info["blas"] = f"unknown ({exc!r})"
try:
    from bridgebound._kernels import backend_name
    info["backend"] = backend_name()
except ImportError:
    info["backend"] = "unknown"
print(json.dumps(info))
"""


@dataclass
class Call:
    wall: float
    rss_mb: float
    code: int
    stdout: Path


@dataclass
class Iteration:
    ok: bool = True           # every invocation exited with 0
    wall: float = 0.0
    main_wall: float = 0.0
    rss_mb: float = 0.0
    ref: float = 0.0          # mean wall time of the reference loads run around it
    spans: list = field(default_factory=list)


class Bench:
    """Runs child processes in the scratch directory and keeps the tally."""

    def __init__(self, root: Path, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.env = dict(os.environ, **BLAS_ENV)
        src = str(root / "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env["PYTHONPATH"] \
            if self.env.get("PYTHONPATH") else src
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.notes = []
        self.trace_to = None      # (spans file, command id) while tracing
        self._n = 0

    def problem(self, text: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(text)

    def spawn(self, cmd) -> Call:
        self._n += 1
        out = self.work / f"call{self._n}.stdout"
        err = self.work / f"call{self._n}.stderr"
        with open(out, "wb") as fo, open(err, "wb") as fe:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=self.work, env=self.env, stdout=fo, stderr=fe)
            timer = threading.Timer(INVOKE_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.attempted += 1
        if proc.returncode != 0:
            self.failed += 1
            tail = err.read_text(encoding="utf-8", errors="replace").strip()[-300:]
            self.problem(f"exit {proc.returncode}: {' '.join(map(str, cmd[1:]))}: {tail}")
        return Call(wall, usage.ru_maxrss / 1024.0, proc.returncode, out)

    def reference_load(self, width: int) -> float:
        """Wall time of `width` reference loads (refload.py) started together."""
        cmd = [sys.executable, str(HERE / "refload.py")]
        t0 = time.perf_counter()
        procs = [subprocess.Popen(cmd, cwd=self.work, env=self.env, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.DEVNULL) for _ in range(width)]
        try:
            codes = [proc.wait(timeout=INVOKE_TIMEOUT_S) for proc in procs]
        finally:
            for proc in procs:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        wall = time.perf_counter() - t0
        self.attempted += width
        for code in codes:
            if code != 0:
                self.failed += 1
                self.problem(f"exit {code}: refload.py")
        return wall

    def call(self, argv) -> Call:
        """One bridgebound CLI invocation, traced when trace_to is set."""
        if self.trace_to is None:
            return self.spawn([sys.executable, "-m", "bridgebound.cli", *argv])
        spans, command = self.trace_to
        return self.spawn([sys.executable, str(HERE / "traced.py"), "--spans", str(spans),
                           "--command", command, "--", *argv])


def _digest(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def iterate(bench: Bench, wl, reference: dict, traced_as=None) -> Iteration:
    """Run one iteration, then check its outputs (outside the timed calls)."""
    it = Iteration()
    steps = wl.steps(bench)
    for k, step in enumerate(steps):
        if traced_as is not None:
            spans = bench.work / f"spans-{traced_as}-{k}.json"
            bench.trace_to = (spans, f"{wl.name}/{traced_as}/{k}/{step.argv[0]}")
            it.spans.append(spans)
        res = bench.call(step.argv)
        bench.trace_to = None
        it.ok = it.ok and res.code == 0
        it.wall += res.wall
        it.rss_mb = max(it.rss_mb, res.rss_mb)
        if step.main:
            it.main_wall = res.wall
    if not it.ok:
        return it
    try:
        problems = wl.check(bench)
        for step in steps:
            for name in step.outputs:
                digest = _digest(bench.work / name)
                if reference.setdefault(name, digest) != digest:
                    problems.append(f"{name} differs between repetitions of seed {bench.seed}")
    except (OSError, ValueError, KeyError, TypeError) as exc:
        problems = [f"unreadable output: {exc!r}"]
    if problems:
        bench.failed += 1
        for text in problems:
            bench.problem(text)
    return it


def spread(values) -> dict:
    """Median, quartiles, count and the highest percentile with ten samples beyond it."""
    vals = sorted(values)
    n = len(vals)
    out = {"n": n, "median": statistics.median(vals)}
    if n >= 2:
        q1, _, q3 = statistics.quantiles(vals, n=4)
        out.update(q1=q1, q3=q3)
    if n > 10:
        pct = 100.0 * (n - 10) / n
        out.update(p_hi=round(pct, 2), p_hi_value=vals[n - 11])
    return out


def environment(bench: Bench) -> dict:
    info = {"nproc": len(os.sched_getaffinity(0)), "blas_threads": BLAS_ENV,
            "python": sys.version.split()[0]}
    try:
        res = subprocess.run([sys.executable, "-c", ENV_PROBE], cwd=bench.work, env=bench.env,
                             capture_output=True, text=True, timeout=60)
        info.update(json.loads(res.stdout.strip().splitlines()[-1]))
    except (subprocess.SubprocessError, ValueError, IndexError) as exc:
        info["probe_error"] = repr(exc)
    return info


def measure(bench: Bench, wl, seconds: float, trace: bool, t_start: float):
    """Run the workload for `seconds`; return set-up, untraced and traced samples.

    Untraced runs spread their set-up probes evenly over the measured time, so
    set-up and iterations sample the same machine conditions. Untraced laps
    are separated by runs of the reference load; a lap's reference time is
    the mean of the two around it, and a set-up sample is the pair (probe
    wall, reference time) of its lap. The loop starts no lap whose median
    length would take it past `seconds`, so a run lasts about `seconds`
    whatever the length of one iteration.
    """
    wl.prepare(bench)
    probe = [sys.executable, str(HERE / "setup_probe.py"), *wl.probe]
    reps = 0 if trace else wl.setup_reps
    setup, reference, plain, traced, laps = [], {}, [], [], []
    t0 = time.perf_counter()
    before = None if trace else bench.reference_load(wl.threads)
    while True:
        lap = time.perf_counter()
        probed = None
        if len(setup) < min(reps, 1 + (reps - 1) * (lap - t0) / seconds):
            probed = bench.spawn(probe).wall
        it = iterate(bench, wl, reference)
        plain.append(it)
        if trace:
            traced.append(iterate(bench, wl, reference, traced_as=len(traced)))
        else:
            after = bench.reference_load(wl.threads)
            it.ref, before = (before + after) / 2, after
            if probed is not None:
                setup.append((probed, it.ref))
        now = time.perf_counter()
        laps.append(now - lap)
        if now - t0 + statistics.median(laps) > seconds and (trace or len(plain) >= 2):
            break
        if now - t_start + (now - lap) > RUN_BUDGET_S:
            bench.notes.append(f"stopped after {len(plain)} iterations to stay within the time limit")
            break
    while len(setup) < reps:
        probed = bench.spawn(probe).wall
        after = bench.reference_load(wl.threads)
        setup.append((probed, (before + after) / 2))
        before = after
    try:
        late = wl.final_check(bench)
    except OSError as exc:
        late = [f"unreadable output: {exc!r}"]
    for text in late:
        bench.failed += 1
        bench.problem(text)
    return setup, plain, traced


def _ref_s(wall: float, ref: float) -> float:
    """A wall time in reference seconds, given the reference load's wall time."""
    return wall * REF_NOMINAL_S / ref


def end_to_end(bench, wl, setup, plain):
    stats = {
        "wall_s": spread([_ref_s(it.wall, it.ref) for it in plain]),
        "setup_s": spread([_ref_s(w, r) for w, r in setup]),
        "main_wall_s": spread([_ref_s(it.main_wall, it.ref) for it in plain]),
        "peak_rss_mb": spread([it.rss_mb for it in plain]),
        "raw_wall_s": spread([it.wall for it in plain]),
        "raw_setup_s": spread([w for w, _ in setup]),
        "reference_load_s": spread([it.ref for it in plain]),
    }
    values = {
        "wall_s": stats["wall_s"]["median"],
        "setup_s": stats["setup_s"]["median"],
        "work_per_s": wl.units / stats["main_wall_s"]["median"],
        "peak_rss_mb": stats["peak_rss_mb"]["median"],
        "ok_ratio": 1.0 - bench.failed / bench.attempted,
    }
    metrics = {name: {"value": values[name], "unit": E2E_UNITS[name]} for name in E2E_UNITS}
    return metrics, stats


def per_layer(plain, traced):
    plain = [it for it in plain if it.ok]
    traced = [it for it in traced if it.ok]
    overhead = None
    if plain and traced:
        overhead = (statistics.median(it.wall for it in traced)
                    - statistics.median(it.wall for it in plain))
    samples, notes = {}, {}
    for it in traced:
        traces = []
        for path in it.spans:
            with open(path, encoding="utf-8") as fh:
                traces.append(json.load(fh))
        values, why_null = layers.layer_values(traces, overhead)
        notes.update(why_null)
        for name, value in values.items():
            samples.setdefault(name, []).append(value)
    metrics, stats = {}, {}
    for name, unit, _better, _source, moves in layers.METRICS:
        vals = [v for v in samples.get(name, ()) if v is not None]
        entry = {"value": statistics.median(vals) if vals else None, "unit": unit}
        if name in notes or not vals:
            entry["note"] = notes.get(name, "no traced iteration completed")
        metrics[name] = entry
        if vals:
            stats[name] = dict(spread(vals), moves=moves)
    if plain and traced:
        stats["traced_wall_s"] = spread([it.wall for it in traced])
        stats["untraced_wall_s"] = spread([it.wall for it in plain])
    return metrics, stats


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="bridgebound end-to-end benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    t_start = time.perf_counter()

    root = Path.cwd()
    if not (root / "src" / "bridgebound" / "cli.py").is_file():
        print(f"no bridgebound sources under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload]()
    work = root / ".perfbench" / f"{wl.name}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        bench = Bench(root, args.seed, work)
        env = environment(bench)      # before measuring: it also warms numpy's pages
        setup, plain, traced = measure(bench, wl, args.seconds, bool(args.trace), t_start)
        if args.trace:
            metrics, stats = per_layer(plain, traced)
        else:
            metrics, stats = end_to_end(bench, wl, setup, plain)
        try:
            info = wl.info(bench)
        except (OSError, ValueError, KeyError) as exc:
            info = {"error": repr(exc)}
        details = {"workload": wl.name, "why": wl.why, "seed": args.seed,
                   "seconds": args.seconds, "trace": args.trace,
                   "iterations": len(plain) + len(traced), "problems": bench.problems,
                   "notes": bench.notes,
                   "environment": dict(env, **info), "stats": stats}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    result = {"correct": bench.failed == 0 and not bench.problems,
              "attempted": bench.attempted, "failed": bench.failed, "metrics": metrics}
    print(json.dumps(details, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
