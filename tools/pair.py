"""Pair benchmark runs of a parent revision and the working tree.

The parent is a plain export of ``--parent`` (``git archive``), made in a
temporary directory; the change is the working tree of the repository, or a
second export of the parent with ``--aa``, which pairs the parent with
itself.  Both sides run the command and workloads that the parent's
``BENCHMARK.json`` declares, each run in a fresh process with its cwd at the
root of its tree, one run per side, seed and workload.  Which side runs
first alternates from pair to pair and from workload to workload, so that a
drift of the machine's speed falls on both sides alike.

The record is written as JSON (``--out``): for each workload and end-to-end
metric the runs of both sides, their medians and quartiles, the per-pair
ratios and wins, the verdict against the metric's bound, and a two-sided
sign-test p over the pairs that did not tie.  ``--claim WORKLOAD:METRIC``
adds the claim block: the change wins at least nine tenths of the pairs, and
the medians differ by more than the parent's interquartile range.

    python3 tools/pair.py --parent HEAD --pairs 10 --first-seed 2101 \\
        --claim bern-wide:iter_ms_p50 --out BENCH_21.json

``--pytest [NODEID]`` pairs one pytest node instead, by default criterion
9 of the acceptance suite: each run is ``python -m pytest`` of that node in
a fresh process with one BLAS thread, with its cwd at the root of its tree,
timed from spawn to exit (``wall_s``).  The alternation, quartiles and sign
test are the same.

    python3 tools/pair.py --parent HEAD --pairs 10 --pytest --out BENCH_26_crit9.json

``--identity`` compares outputs instead of times: each case of
``IDENTITY_RUNS`` (``edaem run`` of a committed config, or ``edaem
diagnose default``) runs once in each tree, in a fresh process with one BLAS
thread.  Each output -- every file the case writes, its stdout, stderr and
exit code -- is reported as identical, or by the fields that differ: a
``trace.csv`` column, a JSON path (list indexes of scalars dropped, so
``free_energy_map`` is one field), with how many entries differ and their
largest absolute and relative difference.  The exit code is 1 when a field
differs that no ``--expect OUTPUT:FIELD`` names.

    python3 tools/pair.py --parent HEAD --identity \\
        --expect trace.csv:free_energy_estimate --expect summary.json:free_energy_map
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import platform
import re
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parent.parent
DEFAULT_NODE = "tests/test_acceptance.py::test_criterion_9_end_to_end_optimization"
PYTEST_METRIC = {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25}
# The benchmark's BLAS pinning, so that a node's time does not depend on
# how many threads BLAS starts.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _run_doc(objective, family, dim, n, shaping, update, iterations, init="default"):
    return {"objective": objective, "model": {"family": family, "dim": dim, "init": init},
            "shaping": shaping, "update": update, "n_samples": n, "iterations": iterations,
            "seed": 0}


# The cases of --identity, all at seed 0: the benchmark's three run workloads,
# each update rule and shaping kind, and a gradient run that exits 3 at
# iteration 20 with a 20-row trace.csv; None is ``edaem diagnose default``.
# The "-wide" Gaussian cases have at least models.BLOCK_CELLS cells per
# generation, so they draw ahead (engine._uses_helper), as gauss-wide does;
# gauss-abort-wide exits 3 at iteration 10.  The "-wide" Bernoulli cases
# have at least engine.SPLIT_MIN_CELLS, so they split each draw between two
# threads, as bern-wide does; leadingones-cdf-stop-wide stops early after 21
# of its 200 iterations.
IDENTITY_RUNS = {
    "bern-wide": _run_doc("onemax:2000", "bernoulli", 2000, 1000, "quantile:0.5",
                          {"kind": "closed_form"}, 120),
    "gauss-small-map": _run_doc("sphere:10", "gaussian", 10, 200, "quantile:0.25",
                                {"kind": "map_smoothed", "gamma": 0.8}, 500,
                                init={"mean": [0.5] * 10,
                                      "cov": [[float(i == j) for j in range(10)]
                                              for i in range(10)]}),
    "gauss-wide": _run_doc("sphere:100", "gaussian", 100, 1000, "quantile:0.25",
                           {"kind": "closed_form"}, 60),
    "onemax-rank-map": _run_doc("onemax:32", "bernoulli", 32, 200, "rank",
                                {"kind": "map_smoothed", "gamma": 0.5}, 60),
    "onemax-exp": _run_doc("onemax:32", "bernoulli", 32, 200, "exp:2",
                           {"kind": "closed_form"}, 60),
    "onemax-identity": _run_doc("onemax:32", "bernoulli", 32, 200, "identity",
                                {"kind": "closed_form"}, 60),
    "leadingones-cdf-map": _run_doc("leadingones:16", "bernoulli", 16, 200, "cdf:0.5",
                                    {"kind": "map_smoothed", "gamma": 0.8}, 60),
    "onemax-gradient": _run_doc("onemax:32", "bernoulli", 32, 200, "quantile:0.5",
                                {"kind": "gradient", "alpha": 1e-3, "k": 2}, 60),
    "sphere-gradient-rank": _run_doc("sphere:5", "gaussian", 5, 100, "rank",
                                     {"kind": "gradient", "alpha": 1e-4, "k": 3}, 40),
    "gradient-abort": _run_doc("sphere:5", "gaussian", 5, 100, "quantile:0.25",
                               {"kind": "gradient", "alpha": 1e-3, "k": 3}, 40),
    "gauss-rank-map-wide": _run_doc("sphere:40", "gaussian", 40, 2000, "rank",
                                    {"kind": "map_smoothed", "gamma": 0.8}, 40),
    "gauss-gradient-wide": _run_doc("sphere:40", "gaussian", 40, 1000, "rank",
                                    {"kind": "gradient", "alpha": 1e-4, "k": 2}, 12),
    "gauss-abort-wide": _run_doc("sphere:40", "gaussian", 40, 1000, "quantile:0.25",
                                 {"kind": "gradient", "alpha": 3e-4, "k": 3}, 40),
    "onemax-rank-map-wide": _run_doc("onemax:1999", "bernoulli", 1999, 1001, "rank",
                                     {"kind": "map_smoothed", "gamma": 0.5}, 40),
    "trap-gradient-wide": _run_doc("trap:5x100", "bernoulli", 500, 1100, "quantile:0.5",
                                   {"kind": "gradient", "alpha": 1e-3, "k": 2}, 30),
    "leadingones-cdf-stop-wide": {**_run_doc("leadingones:999", "bernoulli", 999, 600, "cdf:0.5",
                                             {"kind": "closed_form"}, 200),
                                  "early_stop_window": 10},
    "diagnose": None,
}


def short_commit(rev: str) -> str:
    return subprocess.run(["git", "rev-parse", "--short", rev], cwd=REPO,
                          capture_output=True, text=True, check=True).stdout.strip()


def export(rev: str, dest: Path) -> Path:
    """A plain copy of ``rev``'s committed files in ``dest``."""
    dest.mkdir(parents=True)
    with subprocess.Popen(["git", "archive", rev], cwd=REPO, stdout=subprocess.PIPE) as proc:
        with tarfile.open(fileobj=proc.stdout, mode="r|") as tar:
            tar.extractall(dest, filter="data")
    if proc.returncode != 0:
        raise SystemExit(f"pair: git archive {rev} failed with exit code {proc.returncode}")
    return dest


def run_once(tree: Path, command: list[str], workload: str, seed: int, seconds) -> dict:
    """One benchmark run in a fresh process; its result line, with the
    first ``#`` line of its output as ``machine``."""
    argv = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(argv)} in {tree} exited {proc.returncode}:\n"
                           f"{proc.stdout}{proc.stderr}")
    result = json.loads(lines[-1])
    result["machine"] = next((ln for ln in lines if ln.startswith("#")), "")
    return result


def pytest_once(tree: Path, node: str) -> float:
    """Seconds from spawn to exit of one ``python -m pytest`` of ``node`` in
    ``tree``; a failing node stops the pairing."""
    argv = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", node]
    t0 = time.perf_counter()
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True,
                          env=dict(os.environ, **BLAS_ENV))
    secs = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} in {tree} exited {proc.returncode}:\n"
                           f"{proc.stdout}{proc.stderr}")
    return secs


def pair_pytest(parent_tree: Path, change_tree: Path, node: str, pairs: int,
                log=print) -> dict:
    """Pair the wall time of one pytest node, alternating which side runs
    first from pair to pair; the record of that node."""
    trees = {"parent": parent_tree, "change": change_tree}
    runs = {"parent": [], "change": [], "first_in_pair": []}
    for i in range(pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        runs["first_in_pair"].append(order[0])
        for side in order:
            runs[side].append(pytest_once(trees[side], node))
            log(f"pair {i + 1}/{pairs} {side}: wall_s={runs[side][-1]:.4g}")
    return {
        "pairs": pairs,
        "first_in_pair": runs["first_in_pair"],
        "metrics": {"wall_s": compare(PYTEST_METRIC, runs["parent"], runs["change"])},
    }


def quartiles(values: list[float]) -> dict:
    q1, med, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(med), "q1": float(q1), "q3": float(q3), "runs": list(values)}


def sign_test_p(wins: int, losses: int) -> float:
    """Two-sided exact sign test over the pairs that did not tie."""
    n = wins + losses
    if n == 0:
        return 1.0
    tail = sum(math.comb(n, k) for k in range(min(wins, losses) + 1)) / 2.0**n
    return min(1.0, 2.0 * tail)


def compare(metric: dict, parent: list[float], change: list[float]) -> dict:
    """One metric's pairs: medians, quartiles, ratios, wins, the verdict
    against its bound and whether a gain would be met."""
    lower = metric["better"] == "lower"
    better = [(c < p) if lower else (c > p) for p, c in zip(parent, change)]
    worse = [(c > p) if lower else (c < p) for p, c in zip(parent, change)]
    ps, cs = quartiles(parent), quartiles(change)
    base = ps["median"]
    rel = (cs["median"] - base) / base if base else 0.0
    iqr = ps["q3"] - ps["q1"]
    iqr_rel = iqr / base if base else 0.0
    worsening = rel if lower else -rel
    separated = (max(change) < min(parent)) if lower else (min(change) > max(parent))
    if worsening > metric["bound"]:
        verdict = "worse than the bound"
    elif iqr_rel <= metric["bound"]:
        verdict = "within bound"
    elif separated:
        verdict = (f"within bound; the parent's IQR ({100 * iqr_rel:.1f}% of its median) is wider "
                   "than the bound, but every change run reads better than every parent run")
    else:
        verdict = (f"unresolved: the parent's IQR ({100 * iqr_rel:.1f}% of its median) is wider "
                   "than the bound")
    gap = base - cs["median"] if lower else cs["median"] - base
    return {
        "unit": metric["unit"], "better": metric["better"], "bound": metric["bound"],
        "parent": ps, "change": cs,
        "median_change_rel": rel, "parent_iqr_rel": iqr_rel,
        "ratios": [c / p if p else None for p, c in zip(parent, change)],
        "wins": sum(better), "losses": sum(worse), "ties": len(parent) - sum(better) - sum(worse),
        "verdict": verdict,
        "gain_rule_met": sum(better) >= 0.9 * len(parent) and gap > iqr,
        "sign_test_p": sign_test_p(sum(better), sum(worse)),
    }


def pair(parent_tree: Path, change_tree: Path, seeds: list[int], workloads: list[str] | None,
         log=print) -> dict:
    """Run the interleaved pairs, each for the spec's ``run_seconds``, and
    return the per-workload record."""
    spec = json.loads((parent_tree / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    names = workloads or [w["name"] for w in spec["workloads"]]
    trees = {"parent": parent_tree, "change": change_tree}
    runs = {w: {"parent": [], "change": [], "first_in_pair": []} for w in names}
    machine = []
    for i, seed in enumerate(seeds):
        for j, w in enumerate(names):
            order = ("parent", "change") if (i + j) % 2 == 0 else ("change", "parent")
            runs[w]["first_in_pair"].append(order[0])
            for side in order:
                result = run_once(trees[side], spec["command"], w, seed, seconds)
                runs[w][side].append(result)
                if not machine:
                    machine.append(result["machine"])
                log(f"pair {i + 1}/{len(seeds)} {w} {side}: "
                    + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()))
    out = {}
    for w in names:
        r = runs[w]
        out[w] = {
            "pairs": len(seeds),
            "operations_failed": {
                side: f"{sum(x['failed'] for x in r[side])}/{sum(x['attempted'] for x in r[side])}"
                for side in ("parent", "change")
            },
            "first_in_pair": r["first_in_pair"],
            "metrics": {
                m["name"]: compare(m, *([x["metrics"][m["name"]]["value"] for x in r[side]]
                                        for side in ("parent", "change")))
                for m in spec["end_to_end"]
            },
        }
    return {"command": " ".join(spec["command"]) + " --workload W --seed S "
            f"--seconds {seconds} --trace 0", "machine": machine, "workloads": out}


def identity_outputs(tree: Path, doc: dict | None, out: Path) -> dict[str, str]:
    """Run one case with ``tree``'s package in a fresh process, its cwd at
    the new directory ``out``; its exit code, streams and files, as text."""
    out.mkdir(parents=True)
    args = ["diagnose", "default", "--out", "."]
    if doc is not None:
        (out / "config.json").write_text(json.dumps(doc))
        args = ["run", "--config", "config.json", "--out", "."]
    env = dict(os.environ, **BLAS_ENV, PYTHONPATH=str(tree / "src"))
    proc = subprocess.run([sys.executable, "-m", "edaem.cli", *args], cwd=out,
                          capture_output=True, text=True, env=env)
    files = {p.name: p.read_text() for p in sorted(out.iterdir()) if p.name != "config.json"}
    return {"exit": str(proc.returncode), "stdout": proc.stdout, "stderr": proc.stderr, **files}


def _flatten(value, path: str, out: dict) -> None:
    if isinstance(value, dict):
        for k, v in value.items():
            _flatten(v, f"{path}.{k}" if path else k, out)
    elif isinstance(value, list):
        for i, v in enumerate(value):
            _flatten(v, f"{path}[{i}]", out)
    else:
        out[path] = (re.sub(r"(\[\d+\])+$", "", path) or path, value)


def _leaves(name: str, text: str) -> dict:
    """One output's entries by position, each as (field, value): a CSV cell
    under its column, a JSON leaf under its path without trailing list
    indexes, and any other output as one entry."""
    if name.endswith(".csv"):
        rows = list(csv.reader(io.StringIO(text)))
        header = rows[0] if rows else []
        return {(col, i): (col, cell) for i, row in enumerate(rows[1:])
                for col, cell in zip(header, row)}
    if name.endswith(".json") and text:
        out = {}
        _flatten(json.loads(text), "", out)
        return out
    return {name: (name, text)}


def _number(x) -> float | None:
    if isinstance(x, bool):
        return None
    try:
        v = float(x)
    except (TypeError, ValueError):
        return None
    return v if math.isfinite(v) else None


def diff_output(name: str, parent: str, change: str) -> dict:
    """The fields of one output that differ between the sides: how many of
    their entries differ, and the largest absolute and relative difference
    of those that are finite numbers on both sides (``non_numeric`` counts
    the others, an entry missing on one side among them)."""
    if parent == change:
        return {}
    a, b = _leaves(name, parent), _leaves(name, change)
    fields: dict = {}
    for key in [*a, *(k for k in b if k not in a)]:
        x, y = a.get(key), b.get(key)
        if repr(x) == repr(y):
            continue
        stats = fields.setdefault((x or y)[0], {"entries": 0, "max_abs": None, "max_rel": None,
                                                "non_numeric": 0})
        stats["entries"] += 1
        u, v = (_number(e[1]) if e else None for e in (x, y))
        if u is None or v is None:
            stats["non_numeric"] += 1
            continue
        d = abs(u - v)
        stats["max_abs"] = max(stats["max_abs"] or 0.0, d)
        stats["max_rel"] = max(stats["max_rel"] or 0.0, d / max(abs(u), abs(v)))
    return fields


def _describe(st: dict) -> str:
    text = f"differs in {st['entries']} entries"
    if st["max_abs"] is not None:
        text += f", max abs {st['max_abs']:.3g}, max rel {st['max_rel']:.3g}"
    if st["non_numeric"]:
        text += f", {st['non_numeric']} not numbers on both sides"
    return text + (" (expected)" if st["expected"] else " (UNEXPECTED)")


def identity(parent_tree: Path, change_tree: Path, runs: dict, expected: set, work: Path,
             log=print) -> dict:
    """Run every case in both trees and compare its outputs; the report,
    with ``unexpected`` listing each differing RUN/OUTPUT:FIELD that
    ``expected`` (a set of OUTPUT:FIELD) does not name."""
    report, unexpected = {}, []
    for name, doc in runs.items():
        p, c = (identity_outputs(tree, doc, work / side / name)
                for side, tree in (("parent", parent_tree), ("change", change_tree)))
        log(f"{name}: exit {p['exit']} | {c['exit']}")
        report[name] = {}
        for out in [*p, *(k for k in c if k not in p)]:
            a, b = p.get(out, ""), c.get(out, "")
            fields = report[name][out] = diff_output(out, a, b)
            label = out
            if out.endswith(".csv"):
                label += f" ({max(len(a.splitlines()) - 1, 0)} | "
                label += f"{max(len(b.splitlines()) - 1, 0)} rows)"
            if not fields:
                log(f"  {label}: identical")
            for field, st in fields.items():
                st["expected"] = f"{out}:{field}" in expected
                if not st["expected"]:
                    unexpected.append(f"{name}/{out}:{field}")
                log(f"  {label}: {field} {_describe(st)}")
    log(f"{len(unexpected)} unexpected difference(s)" + "".join(f"\n  {u}" for u in unexpected))
    return {"runs": report, "unexpected": unexpected}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent side")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append", help="one workload (repeatable); default all")
    parser.add_argument("--aa", action="store_true", help="pair the parent with itself")
    parser.add_argument("--claim", help="WORKLOAD:METRIC the change claims to improve")
    parser.add_argument("--pytest", nargs="?", const=DEFAULT_NODE, metavar="NODEID",
                        help=f"pair one pytest node's wall time (default {DEFAULT_NODE})")
    parser.add_argument("--identity", action="store_true",
                        help="compare the outputs of IDENTITY_RUNS instead of timing")
    parser.add_argument("--expect", action="append", default=[], metavar="OUTPUT:FIELD",
                        help="a difference --identity accepts (repeatable)")
    parser.add_argument("--out", help="path of the JSON record (optional with --identity)")
    args = parser.parse_args(argv)
    if args.identity:
        if args.pytest or args.claim or args.workload:
            parser.error("--identity takes no --pytest, --claim or --workload")
        return run_identity(args)
    if args.expect:
        parser.error("--expect goes with --identity")
    if not args.out:
        parser.error("--out is required")
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    if args.claim and args.claim.count(":") != 1:
        parser.error("--claim takes WORKLOAD:METRIC")
    if args.pytest and (args.claim or args.workload):
        parser.error("--pytest pairs one node; it takes no --claim or --workload")
    commit = short_commit(args.parent)
    seeds = list(range(args.first_seed, args.first_seed + args.pairs))
    log = lambda s: print(s, file=sys.stderr, flush=True)  # noqa: E731
    with tempfile.TemporaryDirectory(prefix="pair-") as tmp:
        parent = export(args.parent, Path(tmp) / "parent")
        change = export(args.parent, Path(tmp) / "again") if args.aa else REPO
        if args.pytest:
            record = pair_pytest(parent, change, args.pytest, args.pairs, log=log)
        else:
            record = pair(parent, change, seeds, args.workload, log=log)
    if args.pytest:
        command = f"python -m pytest -q -p no:cacheprovider {args.pytest}"
        method = ("interleaved pairs: one parent run and one change run of the node, back to "
                  "back; which side runs first alternates from pair to pair; each run in a "
                  "fresh process, timed from spawn to exit")
        machine = [f"python={platform.python_version()} nproc={os.cpu_count()} "
                   + " ".join(f"{k}={v}" for k, v in BLAS_ENV.items())]
    else:
        command, machine = record["command"], record["machine"]
        method = ("interleaved pairs: for each seed and workload one parent run and one change "
                  "run, back to back; which side runs first alternates from pair to pair and "
                  "from workload to workload; each run in a fresh process")
    doc = {
        "parent_commit": commit,
        "command": command,
        "method": method,
        "machine": machine,
        "seeds": [] if args.pytest else seeds,
        "quartiles": "numpy.percentile 25 and 75 (linear interpolation) over the runs of one side",
        "ratio": "change / parent, per pair",
        "win": ("the change reads better than the parent in the same pair (lower, or higher for "
                "success_rate); equal values count for neither side"),
        "sign_test": "two-sided exact binomial p of the wins against the losses, ties dropped",
        "parent_tree": "a plain export of the parent commit (git archive), not a worktree",
        "change_tree": "a second export of the parent commit" if args.aa else "the working tree",
    }
    if args.pytest:
        doc["pytest"] = {args.pytest: record}
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
        return 0
    if args.claim:
        w, _, m = args.claim.partition(":")
        c = record["workloads"][w]["metrics"][m]
        p = c["parent"]
        doc["claim"] = {
            "metric": m, "workload": w, "wins": c["wins"], "pairs": args.pairs,
            "parent_iqr": p["q3"] - p["q1"],
            "median_gap": abs(p["median"] - c["change"]["median"]),
            "met": c["gain_rule_met"],
        }
    doc["workloads"] = record["workloads"]
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 0


def run_identity(args) -> int:
    """``--identity``: print the comparison, write it to ``--out`` if given,
    and return 1 on an unexpected difference."""
    with tempfile.TemporaryDirectory(prefix="pair-") as tmp:
        parent = export(args.parent, Path(tmp) / "parent")
        change = export(args.parent, Path(tmp) / "again") if args.aa else REPO
        record = identity(parent, change, IDENTITY_RUNS, set(args.expect), Path(tmp) / "out")
    if args.out:
        doc = {"parent_commit": short_commit(args.parent),
               "change_tree": "a second export of the parent commit" if args.aa
               else "the working tree", "blas": BLAS_ENV, "expected": args.expect,
               "cases": IDENTITY_RUNS, **record}
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 1 if record["unexpected"] else 0


if __name__ == "__main__":
    sys.exit(main())
