"""Command-line front end: run optimizations, verify the exact-EM
identities, and sweep hyperparameters.

Subcommands:

    edaem run      --config cfg.json [--out DIR] [--seed INT]
    edaem diagnose [FIXTURE_SET] [--out DIR]
    edaem sweep    --config cfg.json --param NAME --values V1,V2,...
                   [--out DIR] [--seed INT] [--jobs INT] [--threshold X]

Exit codes: 0 success; 1 diagnostics found a failing check; 2 config or
argument violation; 3 any failure inside a run, which still writes the
trace.csv rows it completed (no summary.json); 4 I/O failure.  Failures emit
a JSON object on stderr, whose message names a non-edaem cause's type; a sweep
row's status names its run's cause.  Set EDAEM_LOG=debug|info|warning for verbosity.

The CLI composes library calls only; every number it writes is computable
from (config, seed) through the public engine/oracle API.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys

from .config import RunConfig
from .engine import _RULE_PARAMS
from .engine import run as engine_run
from .errors import ConfigError, RunAbortedError
from .fixtures import load_fixture_set
from .traceio import write_csv, write_trace, write_trace_csv

logger = logging.getLogger("edaem")

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_RUNTIME = 3
EXIT_IO = 4

# The update parameters, then the generation size and the shaping parameters.
SWEEP_PARAMS = sum(_RULE_PARAMS.values(), ()) + ("N", "rho", "beta")
SWEEP_COLUMNS = ("param", "value", "index", "seed", "status", "best_raw_f", "iters_to_threshold")


def _setup_logging() -> None:
    level_name = os.environ.get("EDAEM_LOG", "warning").lower()
    level = {
        "debug": logging.DEBUG,
        "info": logging.INFO,
        "warning": logging.WARNING,
        "error": logging.ERROR,
    }.get(level_name, logging.WARNING)
    if not logger.handlers:
        handler = logging.StreamHandler(sys.stderr)
        handler.setFormatter(logging.Formatter("[%(levelname)s] %(message)s"))
        logger.addHandler(handler)
    logger.setLevel(level)


def _fail(exc: Exception, exit_code: int) -> int:
    doc = {"error": type(exc).__name__, "message": str(exc), "exit_code": exit_code}
    print(json.dumps(doc), file=sys.stderr)
    return exit_code


def _resolve_out(config: RunConfig, out_flag: str | None) -> str:
    out = out_flag or config.out_dir
    if not out:
        raise ConfigError("no output directory: set config out_dir or pass --out")
    return out


def cmd_run(args) -> int:
    try:
        config = RunConfig.from_file(args.config)
        if args.seed is not None:
            config = config.with_seed(args.seed)
        out_dir = _resolve_out(config, args.out)
    except ConfigError as exc:
        return _fail(exc, EXIT_CONFIG)
    try:
        trace = engine_run(config)
    except RunAbortedError as exc:
        # Keep the iterations that completed; a partial run has no summary.
        logger.debug("run aborted", exc_info=True)
        try:
            os.makedirs(out_dir, exist_ok=True)
            write_trace_csv(exc.trace, os.path.join(out_dir, "trace.csv"))
        except OSError as io_exc:
            return _fail(io_exc, EXIT_IO)
        return _fail(exc, EXIT_RUNTIME)
    try:
        csv_path, json_path = write_trace(trace, out_dir, config.raw)
    except OSError as exc:
        return _fail(exc, EXIT_IO)
    logger.info("run finished: best_raw_f=%s trace=%s", trace.best_raw_f, csv_path)
    print(f"wrote {csv_path} and {json_path} (best_raw_f={trace.best_raw_f})")
    return EXIT_OK


def cmd_diagnose(args) -> int:
    try:
        fixtures = load_fixture_set(args.fixture_set)
    except ConfigError as exc:
        return _fail(exc, EXIT_CONFIG)
    reports = []
    for fixture in fixtures:
        logger.info("diagnosing fixture %s", fixture.name)
        reports.extend(fixture.reports())

    width_check = max(len(r.check_name) for r in reports)
    width_fix = max(len(r.fixture) for r in reports)
    print(f"{'check':<{width_check}}  {'fixture':<{width_fix}}  result")
    for r in reports:
        print(f"{r.check_name:<{width_check}}  {r.fixture:<{width_fix}}  "
              f"{'PASS' if r.passed else 'FAIL'}")
    n_fail = sum(1 for r in reports if not r.passed)
    print(f"{len(reports) - n_fail}/{len(reports)} checks passed")

    if args.out:
        try:
            os.makedirs(args.out, exist_ok=True)
            path = os.path.join(args.out, "diagnostics.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump([r.to_json_dict() for r in reports], fh, indent=2)
                fh.write("\n")
        except OSError as exc:
            return _fail(exc, EXIT_IO)

    if n_fail:
        failing = [r.to_json_dict() for r in reports if not r.passed]
        print(json.dumps({"failing_checks": failing}), file=sys.stderr)
        return EXIT_CHECK_FAILED
    return EXIT_OK


def _apply_sweep_value(config: RunConfig, param: str, value) -> dict:
    """A copy of the config document with ``param`` set to ``value``."""
    doc = json.loads(json.dumps(config.raw))  # deep copy
    kind = next((k for k, takes in _RULE_PARAMS.items() if param in takes), None)
    if kind is not None:
        if config.rule.kind != kind:
            raise ConfigError(f"sweeping {param} requires update.kind == {kind}")
        doc["update"][param] = value
    elif param == "N":
        doc["n_samples"] = value
    elif param == "rho":
        if config.shaping.kind != "quantile":
            raise ConfigError("sweeping rho requires quantile shaping")
        doc["shaping"] = f"quantile:{value}"
    else:  # beta; cmd_sweep has checked --param against SWEEP_PARAMS
        if config.shaping.kind != "exponential":
            raise ConfigError("sweeping beta requires exponential shaping")
        doc["shaping"] = f"exp:{value}"
    return doc


def _sweep_child(payload):
    """Run one sweep point from a plain-dict config (picklable for the
    process pool); returns an aggregate row."""
    index, param, value, doc, threshold = payload
    row = {
        "param": param,
        "value": value,
        "index": index,
        "seed": doc.get("seed"),
        "status": "ok",
        "best_raw_f": "",
        "iters_to_threshold": "",
    }
    try:
        config = RunConfig.from_dict(doc)
        trace = engine_run(config)
    except Exception as exc:
        logger.debug("sweep point %d failed", index, exc_info=True)
        cause = exc.__cause__ if isinstance(exc, RunAbortedError) else exc
        row["status"] = f"error:{type(cause).__name__}"
        return row
    row["best_raw_f"] = repr(trace.best_raw_f)
    if threshold is not None:
        hits = [r.iteration + 1 for r in trace.records if r.best_raw_f >= threshold]
        row["iters_to_threshold"] = str(hits[0]) if hits else ""
    return row


def cmd_sweep(args) -> int:
    try:
        config = RunConfig.from_file(args.config)
        if args.seed is not None:
            config = config.with_seed(args.seed)
        if args.param not in SWEEP_PARAMS:
            raise ConfigError(f"--param must be one of {SWEEP_PARAMS}, got {args.param!r}")
        raw_values = [v for v in (args.values or "").split(",") if v.strip()]
        if not raw_values:
            raise ConfigError("--values must list at least one value")
        cast = int if args.param in ("k", "N") else float
        try:
            values = [cast(v) for v in raw_values]
        except ValueError as exc:
            raise ConfigError(f"bad --values entry: {exc}") from exc
        out_dir = _resolve_out(config, args.out)
        if args.jobs < 1:
            raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")
        threshold = args.threshold
        if threshold is not None and not math.isfinite(threshold):
            raise ConfigError(f"--threshold must be finite, got {threshold}")
        if threshold is None and config.objective.known_opt is not None:
            threshold = config.objective.known_opt[1]
        payloads = []
        for i, v in enumerate(values):
            doc = _apply_sweep_value(config, args.param, v)
            doc["seed"] = config.seed + i  # each child owns its stream
            doc.pop("out_dir", None)
            payloads.append((i, args.param, v, doc, threshold))
    except ConfigError as exc:
        return _fail(exc, EXIT_CONFIG)

    # A pool starts all its workers at once: no more than there are points.
    jobs = min(args.jobs, len(payloads))
    if jobs > 1:
        # Imported here: only a parallel sweep needs multiprocessing.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(_sweep_child, payloads))
    else:
        rows = [_sweep_child(p) for p in payloads]

    try:
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, "sweep.csv")
        write_csv(path, SWEEP_COLUMNS, ([r[c] for c in SWEEP_COLUMNS] for r in rows))
    except OSError as exc:
        return _fail(exc, EXIT_IO)
    n_err = sum(1 for r in rows if r["status"] != "ok")
    print(f"wrote {path} ({len(rows)} rows, {n_err} failed)")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="edaem",
        description="Estimation-of-distribution optimizers with exact-EM diagnostics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one optimization from a JSON config")
    p_run.add_argument("--config", required=True, help="path to the JSON run config")
    p_run.add_argument("--out", help="output directory (overrides config out_dir)")
    p_run.add_argument("--seed", type=int, help="override the config seed")
    p_run.set_defaults(func=cmd_run)

    p_diag = sub.add_parser("diagnose", help="run the exact-EM identity checks")
    p_diag.add_argument("fixture_set", nargs="?", default="default")
    p_diag.add_argument("--out", help="directory for the JSON report")
    p_diag.set_defaults(func=cmd_diagnose)

    p_sweep = sub.add_parser("sweep", help="run one config across parameter values")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--param", required=True, help=f"one of {SWEEP_PARAMS}")
    p_sweep.add_argument("--values", required=True, help="comma-separated values")
    p_sweep.add_argument("--out", help="output directory (overrides config out_dir)")
    p_sweep.add_argument("--seed", type=int, help="override the base seed")
    p_sweep.add_argument("--jobs", type=int, default=1, help="parallel sweep children")
    p_sweep.add_argument(
        "--threshold",
        type=float,
        help="objective level for iters-to-threshold (default: declared optimum)",
    )
    p_sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
