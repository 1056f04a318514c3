"""Trace persistence: CSV with a frozen column order plus a JSON sidecar.

The CSV format is part of the tool's contract for downstream plotting:
one header line (iter, best_raw_f, mean_raw_f, weighted_mean_shaped_f,
free_energy_estimate, ess), then one line per record, comma-separated,
CRLF line ends, no quoting (no name or float repr, inf and nan included,
holds a comma, quote or line break).  Floats are written with
shortest-roundtrip repr, so identical runs produce byte-identical files.

The sidecar carries the final parameter vector (the model's JSON form),
run summary numbers, the config echo, and -- in MAP mode -- the
per-iteration prior-augmented free energy, which has no column in the
frozen CSV schema.
"""

from __future__ import annotations

import json
import os

from .engine import Trace

TRACE_COLUMNS = (
    "iter",
    "best_raw_f",
    "mean_raw_f",
    "weighted_mean_shaped_f",
    "free_energy_estimate",
    "ess",
)


def write_csv(path: str, columns, rows) -> None:
    """Write a header of ``columns``, then each row's values as their
    ``str`` (a float's shortest-roundtrip repr), comma-separated, with CRLF
    line ends and no quoting: no value written here holds a comma, quote or
    line break.  The lines are formatted here, as csv.writer's first row
    allocates a 128 KB record buffer, more than a whole trace needs."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(columns) + "\r\n")
        for row in rows:
            fh.write(",".join(map(str, row)) + "\r\n")


def write_trace_csv(trace: Trace, path: str) -> None:
    rows = ((r.iteration, r.best_raw_f, r.mean_raw_f, r.weighted_mean_shaped_f,
             r.free_energy_estimate, r.ess) for r in trace.records)
    write_csv(path, TRACE_COLUMNS, rows)


def summary_dict(trace: Trace, config_echo: dict | None = None) -> dict:
    out = {
        "final_params": trace.final_model.to_json_dict(),
        "iterations_run": len(trace.records),
        "best_raw_f": trace.best_raw_f,
        "final_best_raw_f": trace.records[-1].best_raw_f if trace.records else None,
    }
    fe_map = [r.free_energy_map for r in trace.records]
    if any(v is not None for v in fe_map):
        out["free_energy_map"] = fe_map
    if config_echo is not None:
        out["config"] = config_echo
    return out


def write_summary_json(trace: Trace, path: str, config_echo: dict | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(summary_dict(trace, config_echo), fh, indent=2)
        fh.write("\n")


def write_trace(trace: Trace, out_dir: str, config_echo: dict | None = None) -> tuple[str, str]:
    """Write trace.csv and summary.json into ``out_dir``; returns the paths."""
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, "trace.csv")
    json_path = os.path.join(out_dir, "summary.json")
    write_trace_csv(trace, csv_path)
    write_summary_json(trace, json_path, config_echo)
    return csv_path, json_path
