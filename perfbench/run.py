#!/usr/bin/env python3
"""Benchmark of the edaem CLI, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload bern-wide --seed 0 --seconds 10 --trace 0

Each workload drives ``edaem.cli.main([...])`` in-process, so it times what a
CLI user waits for; ``--seed`` becomes the run config's seed. With
``--trace 0`` the last line of stdout is one JSON object with the end-to-end
metrics; with ``--trace 1`` it carries the per-layer metrics of a separately
traced pass. Every CLI call is an operation, checked for exit code 0,
byte-identical ``trace.csv`` across the run's calls, and the workload's
quality target.
The lines above the JSON repeat each metric with its unit and a note, the
environment, the checks that failed and the layer split the workload was
chosen for. perfbench/NOTES.md explains the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import gc
import io
import json
import math
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
import traceback
from dataclasses import dataclass
from pathlib import Path

import layers

ROOT = Path(__file__).resolve().parent.parent
# One BLAS thread: on a 2-core machine two threads made gauss-wide slower,
# noisier, and changed its trace bytes (see NOTES.md).
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_REPEATS = 9
# iter_ms_tail is at most p95: on gauss-small-map, p99 read 2.0-4.4 ms over
# five runs.
TAIL_PCT_MAX = 95
DIAGNOSE_MIN_CHECKS = 22


@dataclass(frozen=True)
class Workload:
    name: str
    doc: dict | None  # run config without "seed"; None runs `edaem diagnose default`
    call_s: float  # seconds per call on the reference machine; sets the call count
    min_calls: int  # timed calls that give a p90 or higher tail
    target: float | None = None  # best_raw_f the run must reach ...
    strict: bool = False  # ... or exceed, when strict

    def reached(self, best: float) -> bool:
        return best > self.target if self.strict else best >= self.target


def _run_doc(objective, family, dim, n, shaping, update, iterations, init="default"):
    return {
        "objective": objective,
        "model": {"family": family, "dim": dim, "init": init},
        "shaping": shaping,
        "update": update,
        "n_samples": n,
        "iterations": iterations,
    }


_EYE10 = [[float(i == j) for j in range(10)] for i in range(10)]

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "bern-wide",
            _run_doc("onemax:2000", "bernoulli", 2000, 1000, "quantile:0.5",
                     {"kind": "closed_form"}, 120),
            call_s=4.2, min_calls=2, target=2000.0,
        ),
        Workload(
            "gauss-small-map",
            _run_doc("sphere:10", "gaussian", 10, 200, "quantile:0.25",
                     {"kind": "map_smoothed", "gamma": 0.8}, 500,
                     init={"mean": [0.5] * 10, "cov": _EYE10}),
            call_s=0.85, min_calls=1, target=-1e-6, strict=True,
        ),
        Workload(
            "gauss-wide",
            _run_doc("sphere:100", "gaussian", 100, 1000, "quantile:0.25",
                     {"kind": "closed_form"}, 60),
            call_s=5.9, min_calls=2,
        ),
        Workload("diagnose", None, call_s=0.85, min_calls=10),
    )
}

# The layer split each workload was chosen for, checked on the traced pass.
SPLITS = {
    "bern-wide": (
        "sample + evaluate + log_density > half of the iteration",
        lambda m: m["models.sample.ms"] + m["objectives.evaluate.ms"]
        + m["models.log_density.ms"] > 0.5 * m["engine.iter.ms"],
    ),
    "gauss-small-map": (
        "construct + with_params self time > sample + evaluate",
        lambda m: m["models.construct.ms"] + m["models.with_params.ms"]
        > m["models.sample.ms"] + m["objectives.evaluate.ms"],
    ),
    "gauss-wide": (
        "suff_stats is the largest self time",
        lambda m: max(
            (k for k in m if k.endswith(".ms") and k not in ("engine.iter.ms", "cli.main.ms")),
            key=m.get,
        ) == "models.suff_stats.ms",
    ),
    "diagnose": (
        "oracle.* > half of the call",
        lambda m: sum(m[k] for k in m if k.startswith("oracle.") and k.endswith(".ms"))
        > 0.5 * m["cli.main.ms"],
    ),
}


class BenchRun:
    """The CLI calls of one benchmark run, with their output checks."""

    def __init__(self, w: Workload, seed: int, work: str):
        self.w = w
        self.out = os.path.join(work, "out")
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.ref_trace: bytes | None = None
        self.iters_to_target: list[int] = []
        if w.doc is None:
            self.argv = self.warm_argv = ["diagnose", "default"]
            return
        os.makedirs(work, exist_ok=True)
        argvs = []
        for stem, doc in (("config", w.doc), ("warm", {**w.doc, "iterations": 2})):
            path = os.path.join(work, f"{stem}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump({**doc, "seed": seed}, fh)
            argvs.append(["run", "--config", path, "--out", self.out])
        self.argv, self.warm_argv = argvs

    def call(self, cli, warm: bool = False) -> tuple[float, int]:
        """One CLI call, checked unless it is the warm-up; returns (seconds,
        units of work done)."""
        shutil.rmtree(self.out, ignore_errors=True)
        buf = io.StringIO()
        gc.collect()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                code = cli.main(self.warm_argv if warm else self.argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash is a failed operation, not a crashed benchmark
            traceback.print_exc()
            code = -1
        secs = time.perf_counter() - t0
        problems = [f"exit code {code}"] if code != 0 else []
        units = 0
        if not problems and not warm:
            if self.w.doc is None:
                problems, units = self._check_diagnose(buf.getvalue())
            else:
                problems, units = self._check_run()
        self.record(problems)
        return secs, units

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)

    def _check_run(self) -> tuple[list[str], int]:
        try:
            with open(os.path.join(self.out, "trace.csv"), "rb") as fh:
                data = fh.read()
            best = [float(r["best_raw_f"]) for r in csv.DictReader(io.StringIO(data.decode()))]
        except (OSError, KeyError, ValueError) as exc:
            return [f"trace.csv unreadable: {exc!r}"], 0
        problems = []
        if self.ref_trace is None:
            self.ref_trace = data
        elif data != self.ref_trace:
            problems.append("trace.csv differs from the run's first call")
        if len(best) != self.w.doc["iterations"]:
            problems.append(f"trace.csv has {len(best)} rows, expected {self.w.doc['iterations']}")
        if self.w.target is not None:
            hit = next((i + 1 for i, b in enumerate(best) if self.w.reached(b)), None)
            if hit is None:
                problems.append(f"best_raw_f {max(best, default=None)} never reached {self.w.target}")
            else:
                self.iters_to_target.append(hit)
        return problems, len(best)

    def _check_diagnose(self, stdout: str) -> tuple[list[str], int]:
        found = re.search(r"^(\d+)/(\d+) checks passed$", stdout, re.MULTILINE)
        if found is None:
            return ["diagnose printed no summary line"], 0
        passed, total = int(found[1]), int(found[2])
        if passed != total or total < DIAGNOSE_MIN_CHECKS:
            return [f"diagnose reported {passed}/{total} checks passed"], 0
        return [], 1

    def timed_calls(self, seconds: float) -> int:
        return max(self.w.min_calls, round(seconds / self.w.call_s))


def setup_time(s: BenchRun) -> float | None:
    """One fresh interpreter until ``import edaem.cli`` returns, timed from
    the spawn; None if the import failed."""
    env = dict(os.environ, **BLAS_ENV)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    code = "import edaem.cli, sys; sys.stdout.write('ready\\n'); sys.stdout.flush()"
    t0 = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, "-c", code], stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True
    ) as proc:
        line = proc.stdout.readline()
        secs = time.perf_counter() - t0
        try:
            rc = proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            rc = proc.wait()
    ok = line == "ready\n" and rc == 0
    s.record([] if ok else [f"import edaem.cli failed (exit code {rc})"])
    return secs if ok else None


def percentile(values: list[float], pct: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def tail_pct(n: int) -> int:
    """The highest whole percentile, at most TAIL_PCT_MAX, that leaves at
    least ten of n samples beyond it; 100 (the maximum) if none does."""
    return next((p for p in range(TAIL_PCT_MAX, 0, -1) if n - math.ceil(p * n / 100) >= 10), 100)


def geomean(values: list[float]) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values))


def end_to_end(s: BenchRun, cli, seconds: float, setup_repeats: int) -> dict:
    if setup_repeats:
        setup_time(s)  # writes bytecode; not timed
    s.call(cli, warm=True)

    tracemalloc.start()
    try:
        s.call(cli)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()

    # Iteration boundaries: entry to engine.e_step for runs. For diagnose
    # the unit of repeated work is one oracle check. Its checks take either
    # ~3 ms or ~9 ms, so the median single check lands in the gap between
    # the groups and jumps; the typical check is a call's geometric mean.
    stamps: list[float] = []
    typical: list[float] = []
    if s.w.doc is None:
        targets, make = layers.targets_of(*layers.ORACLE_LAYERS), layers.durations(stamps)
    else:
        targets, make = layers.targets_of("engine.e_step"), layers.entry_stamps(stamps)
    calls = s.timed_calls(seconds)
    run_s, samples, setup = [], [], []
    with layers.patched(targets, make) as status:
        for i in range(calls):
            # Set-up spawns spread over the run, so a slow minute of the
            # machine moves a few of them rather than all.
            while len(setup) < round(setup_repeats * (i + 1) / calls):
                setup.append(setup_time(s))
            stamps.clear()
            secs, _ = s.call(cli)
            run_s.append(secs)
            if s.w.doc is None:
                samples.extend(stamps)
                typical.extend([geomean(stamps)] if stamps else [])
            else:
                samples.extend(b - a for a, b in zip(stamps, stamps[1:]))
    setup = [t for t in setup if t is not None]
    iter_note = f"{len(samples)} samples"
    if typical:
        iter_note = f"median over {len(typical)} calls of a call's geometric-mean check"
    if not samples:  # boundary hook absent: fall back to whole calls
        samples = list(run_s)
        iter_note = "whole calls; " + "; ".join(v for v in status.values() if v != "ok")
    pct = tail_pct(len(samples))
    tail, beyond = percentile(samples, pct)
    return {
        "setup_s": (statistics.median(setup) if setup else 0.0, "s",
                    f"median of {len(setup)} fresh imports spread over the run"),
        "run_s": (statistics.median(run_s), "s", f"median of {len(run_s)} calls"),
        "iter_ms_p50": (1e3 * statistics.median(typical or samples), "ms", iter_note),
        "iter_ms_tail": (1e3 * tail, "ms", f"p{pct} of {len(samples)} samples, {beyond} beyond"),
        "peak_alloc_mb": (peak / 1e6, "MB", "tracemalloc peak over one call"),
        "success_rate": (100.0 * (s.attempted - s.failed) / s.attempted, "%",
                         f"error_rate {s.failed}/{s.attempted}"),
    }


def per_layer(s: BenchRun, cli, seconds: float) -> dict:
    s.call(cli, warm=True)
    tracer = layers.Tracer()
    plain, traced, units = [], [], 0
    status = {}
    for _ in range(max(1, round(seconds / (2 * s.w.call_s)))):
        plain.append(s.call(cli)[0])
        with layers.patched(layers.TARGETS, tracer.wrap) as status:
            secs, u = s.call(cli)
        traced.append(secs)
        units += u
    metrics = layers.layer_metrics(tracer.stats, status, units)
    if s.w.target is None:
        metrics["engine.iters_to_target"] = (0.0, "iter", "n/a: no target for this workload")
    elif s.iters_to_target:
        metrics["engine.iters_to_target"] = (
            float(statistics.median(s.iters_to_target)), "iter", f"target {s.w.target}")
    else:
        metrics["engine.iters_to_target"] = (0.0, "iter", "target never reached")
    metrics["trace.overhead"] = (
        statistics.median(traced) / statistics.median(plain), "ratio",
        f"traced / untraced cli.main, {len(traced)} pairs")
    return metrics


def measure(w: Workload, seed: int, seconds: float, trace: bool, work: str,
            setup_repeats: int = SETUP_REPEATS) -> tuple[BenchRun, dict]:
    """Run one workload; returns its BenchRun (operation counts) and
    {metric: (value, unit, note)}."""
    from edaem import cli

    s = BenchRun(w, seed, work)
    if trace:
        return s, per_layer(s, cli, seconds)
    return s, end_to_end(s, cli, seconds, setup_repeats)


def environment() -> str:
    import numpy
    import scipy

    return (f"python={platform.python_version()} numpy={numpy.__version__} "
            f"scipy={scipy.__version__} nproc={os.cpu_count()} "
            f"affinity={len(os.sched_getaffinity(0))} "
            + " ".join(f"{k}={os.environ.get(k)}" for k in BLAS_ENV))


def report(w: Workload, seed: int, trace: bool, s: BenchRun, metrics: dict) -> None:
    print(f"# perfbench workload={w.name} seed={seed} trace={int(trace)} {environment()}")
    print(f"# operations attempted={s.attempted} failed={s.failed}")
    for problem in s.problems:
        print(f"# FAILED CHECK: {problem}")
    for name, (value, unit, note) in metrics.items():
        print(f"{name:<30} {value:>16.6g} {unit:<15} {note}")
    if trace:
        claim, holds = SPLITS[w.name]
        print(f"# split: {claim}: {'holds' if holds({k: v[0] for k, v in metrics.items()}) else 'DOES NOT HOLD'}")
    print(json.dumps({
        "correct": s.failed == 0,
        "attempted": s.attempted,
        "failed": s.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "edaem" / "cli.py").is_file():
        print(f"perfbench: no edaem sources under {ROOT / 'src'}; "
              "run from a full checkout of the repository", file=sys.stderr)
        return 2
    os.environ.update(BLAS_ENV)  # before numpy is first imported
    sys.path.insert(0, str(ROOT / "src"))
    w = WORKLOADS[args.workload]
    work = ROOT / ".perfbench_tmp" / str(os.getpid())
    try:
        s, metrics = measure(w, args.seed, args.seconds, bool(args.trace), str(work))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    report(w, args.seed, bool(args.trace), s, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
