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
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
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
    parser.add_argument("--out", required=True, help="path of the JSON record")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    if args.claim and args.claim.count(":") != 1:
        parser.error("--claim takes WORKLOAD:METRIC")
    if args.pytest and (args.claim or args.workload):
        parser.error("--pytest pairs one node; it takes no --claim or --workload")
    commit = subprocess.run(["git", "rev-parse", "--short", args.parent], cwd=REPO,
                            capture_output=True, text=True, check=True).stdout.strip()
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


if __name__ == "__main__":
    sys.exit(main())
