"""Outside-in tracing of edaem's layers.

The benchmark never edits the library. For the length of a pass it
replaces module functions and model-class methods with timing wrappers and
restores them afterwards. ``engine.run``, the oracle checks and the CLI look
these names up through module globals at call time, so the wrappers see
every call; a function imported under another name (``cli.engine_run``,
``cli.write_trace``) is patched under every name an ``edaem`` module holds
it by.

A target that is missing, or whose leading parameters no longer match the
names below, is left unpatched and reported as ``absent``. Its time then
lands in the self time of its caller, and the metrics it fed are reported
as absent instead of failing the run.

This module imports only the standard library at import time, so the
benchmark can pin the BLAS thread count before numpy is first imported.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

_FAILED = object()


@dataclass(frozen=True)
class Target:
    """One wrap target.

    ``attr`` is a function name in ``edaem.<module>``, or
    ``SearchModel.<method>`` for that method on every model class in
    ``edaem.models`` that defines it. ``params`` are the leading parameter
    names the wrapper and its probe rely on.
    """

    layer: str
    module: str
    attr: str
    params: tuple


TARGETS = (
    Target("cli.main", "cli", "main", ("argv",)),
    Target("engine.run", "engine", "run", ("config",)),
    Target("engine.e_step", "engine", "e_step", ("model", "objective", "shaping_spec", "n", "seed")),
    Target("engine.m_step", "engine", "m_step_closed_form", ("pop", "model")),
    Target("engine.m_step", "engine", "m_step_map", ("theta_prev", "theta_tilde", "gamma")),
    Target("engine.m_step", "engine", "m_step_gradient", ("pop", "model", "alpha", "k")),
    Target("engine.free_energy", "engine", "_free_energy", ("pop", "next_model")),
    Target("engine.log_prior", "engine", "_log_prior", ("model", "lam1", "lam2")),
    Target("objectives.evaluate", "objectives", "evaluate_batch", ("obj", "Z")),
    Target("shaping.shape", "shaping", "shape", ("spec", "f_values")),
    Target("traceio.write_trace", "traceio", "write_trace", ("trace", "out_dir")),
    Target("oracle.ppm", "oracle", "verify_ppm_equivalence", ("model", "space")),
    Target("oracle.ngd", "oracle", "verify_ngd_correspondence", ("model", "space")),
    Target("oracle.mc", "oracle", "verify_mc_convergence", ("model", "space", "objective")),
    Target("oracle.em_monotonicity", "oracle", "verify_em_monotonicity", ("model", "space")),
    Target("oracle.free_energy_bound", "oracle", "verify_free_energy_bound", ("model", "space")),
    Target("models.sample", "models", "SearchModel.sample", ("self", "n", "rng_seed")),
    Target("models.log_density", "models", "SearchModel.log_density_batch", ("self", "Z")),
    Target("models.suff_stats", "models", "SearchModel.sufficient_stats_batch", ("self", "Z")),
    Target("models.with_params", "models", "SearchModel.with_params", ("self", "params")),
    Target("models.construct", "models", "SearchModel.__init__", ("self",)),
)

ORACLE_LAYERS = (
    "oracle.ppm",
    "oracle.ngd",
    "oracle.mc",
    "oracle.em_monotonicity",
    "oracle.free_energy_bound",
)


def targets_of(*layers: str) -> tuple:
    return tuple(t for t in TARGETS if t.layer in layers)


def _resolve(t: Target):
    """The (owner, name, function) places to patch for ``t``, or a string
    saying why the target is absent."""
    try:
        mod = importlib.import_module(f"edaem.{t.module}")
    except ImportError:
        return f"module edaem.{t.module} missing"
    if t.attr.startswith("SearchModel."):
        meth = t.attr.split(".", 1)[1]
        base = getattr(mod, "SearchModel", None)
        if not isinstance(base, type):
            return "edaem.models.SearchModel missing"
        places = [
            (cls, meth, vars(cls)[meth])
            for cls in vars(mod).values()
            if isinstance(cls, type) and issubclass(cls, base) and meth in vars(cls)
        ]
    else:
        fn = getattr(mod, t.attr, None)
        places = [] if fn is None else [
            (m, name, fn)
            for m in list(sys.modules.values())
            if getattr(m, "__name__", "").split(".")[0] == "edaem"
            for name, value in list(vars(m).items())
            if value is fn
        ]
    if not places:
        return f"edaem.{t.module}.{t.attr} missing"
    for _, _, fn in places:
        try:
            names = tuple(inspect.signature(fn).parameters)
        except (TypeError, ValueError):
            return f"edaem.{t.module}.{t.attr} has no readable signature"
        if names[: len(t.params)] != t.params:
            return f"edaem.{t.module}.{t.attr} signature changed to {names}"
    return places


@contextlib.contextmanager
def patched(targets, make_wrapper):
    """Patch every present target with ``make_wrapper(target, fn)`` and
    restore the originals on exit. Yields {target: "ok" | "absent: why"}."""
    status = {}
    undo = []
    try:
        for t in targets:
            places = _resolve(t)
            if isinstance(places, str):
                status[t] = f"absent: {places}"
                continue
            status[t] = "ok"
            for owner, name, fn in places:
                setattr(owner, name, make_wrapper(t, fn))
                undo.append((owner, name, fn))
        yield status
    finally:
        for owner, name, fn in reversed(undo):
            setattr(owner, name, fn)


def entry_stamps(stamps: list):
    """Wrapper factory that appends a timestamp at each call's entry."""

    def make(t, fn):
        def wrapper(*args, **kwargs):
            stamps.append(time.perf_counter())
            return fn(*args, **kwargs)

        return wrapper

    return make


def durations(out: list):
    """Wrapper factory that appends each call's duration in seconds."""

    def make(t, fn):
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                out.append(time.perf_counter() - t0)

        return wrapper

    return make


@dataclass
class LayerStat:
    calls: int = 0
    self_s: float = 0.0
    total_s: float = 0.0
    nbytes: int = 0
    hits: float = 0.0  # probe numerator: repairs, kept weights, ESS/N, passed checks
    base: int = 0  # probe denominator
    probe_errors: int = 0


def _probe_nbytes(stat, args, kwargs, out):
    stat.nbytes += int(out.nbytes)


def _probe_repaired(stat, args, kwargs, out):
    import numpy as np

    given = args[1] if len(args) > 1 else kwargs["params"]
    given = np.asarray(getattr(given, "values", given), dtype=np.float64).reshape(-1)
    stat.hits += not np.array_equal(given, out.params.values)
    stat.base += 1


def _probe_kept(stat, args, kwargs, out):
    import numpy as np

    stat.hits += int(np.count_nonzero(out))
    stat.base += int(out.size)


def _probe_ess(stat, args, kwargs, out):
    stat.hits += float(out.ess) / int(out.size)
    stat.base += 1


def _probe_passed(stat, args, kwargs, out):
    stat.hits += bool(out.passed)
    stat.base += 1


PROBES = {
    "models.sample": _probe_nbytes,
    "models.suff_stats": _probe_nbytes,
    "models.with_params": _probe_repaired,
    "shaping.shape": _probe_kept,
    "engine.e_step": _probe_ess,
    **{layer: _probe_passed for layer in ORACLE_LAYERS},
}


class Tracer:
    """Spans nested by a stack and kept in memory as per-layer totals.

    A span's self time is its duration minus the durations of the wrapped
    calls it made. A probe runs after its span closes and its cost counts
    as child time of the caller, so it lands in no layer's self time.
    """

    def __init__(self):
        self.stats = defaultdict(LayerStat)
        self._stack = []

    def wrap(self, t: Target, fn):
        stat = self.stats[t.layer]
        probe = PROBES.get(t.layer)
        stack = self._stack

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            out = _FAILED
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                t1 = time.perf_counter()
                child = stack.pop()
                stat.calls += 1
                stat.self_s += t1 - t0 - child
                stat.total_s += t1 - t0
                if probe is not None and out is not _FAILED:
                    try:
                        probe(stat, args, kwargs, out)
                    except Exception:  # the output's shape changed; count, do not fail the run
                        stat.probe_errors += 1
                if stack:
                    stack[-1] += time.perf_counter() - t0

        return wrapper


# (metric, unit, layers it reads, what it reads); values are per unit of work
# (an iteration of a run, or one `edaem diagnose` call).
LAYER_METRICS = (
    ("models.sample.ms", "ms", ("models.sample",), "self_ms"),
    ("models.sample.bytes", "bytes-computed", ("models.sample",), "nbytes"),
    ("models.log_density.ms", "ms", ("models.log_density",), "self_ms"),
    ("models.suff_stats.ms", "ms", ("models.suff_stats",), "self_ms"),
    ("models.suff_stats.bytes", "bytes-computed", ("models.suff_stats",), "nbytes"),
    ("models.construct.count", "count", ("models.construct",), "calls"),
    ("models.construct.ms", "ms", ("models.construct",), "self_ms"),
    ("models.with_params.count", "count", ("models.with_params",), "calls"),
    ("models.with_params.ms", "ms", ("models.with_params",), "self_ms"),
    ("models.repair_frac", "ratio", ("models.with_params",), "probe_frac"),
    ("objectives.evaluate.ms", "ms", ("objectives.evaluate",), "self_ms"),
    ("shaping.shape.ms", "ms", ("shaping.shape",), "self_ms"),
    ("shaping.kept_frac", "ratio", ("shaping.shape",), "probe_frac"),
    ("engine.e_step.ms", "ms", ("engine.e_step",), "self_ms"),
    ("engine.m_step.ms", "ms", ("engine.m_step",), "self_ms"),
    ("engine.free_energy.ms", "ms", ("engine.free_energy",), "self_ms"),
    ("engine.log_prior.ms", "ms", ("engine.log_prior",), "self_ms"),
    ("engine.run_self.ms", "ms", ("engine.run",), "self_ms"),
    ("engine.iter.ms", "ms", ("engine.run",), "total_ms"),
    ("engine.ess_frac", "ratio", ("engine.e_step",), "probe_frac"),
    ("traceio.write_trace.ms", "ms", ("traceio.write_trace",), "self_ms"),
    ("oracle.ppm.ms", "ms", ("oracle.ppm",), "self_ms"),
    ("oracle.mc.ms", "ms", ("oracle.mc",), "self_ms"),
    ("oracle.em_monotonicity.ms", "ms", ("oracle.em_monotonicity",), "self_ms"),
    ("oracle.free_energy_bound.ms", "ms", ("oracle.free_energy_bound",), "self_ms"),
    ("oracle.ngd.ms", "ms", ("oracle.ngd",), "self_ms"),
    ("oracle.checks_passed", "count", ORACLE_LAYERS, "probe_hits"),
    ("cli.main.ms", "ms", ("cli.main",), "total_ms"),
)


def layer_metrics(stats, status, units: int) -> dict:
    """{metric: (value, unit, note)} per unit of work from a tracer's
    totals. A metric whose layers are all absent reads 0 with an
    ``absent`` note; one whose probe never succeeded reads 0 with ``n/a``."""
    layer_status = defaultdict(list)
    for t, st in status.items():
        layer_status[t.layer].append(st)
    per = 1.0 / max(units, 1)
    out = {}
    for name, unit, lays, kind in LAYER_METRICS:
        sts = [s for lay in lays for s in layer_status.get(lay, ["absent: never patched"])]
        bad = [s for s in sts if s != "ok"]
        if len(bad) == len(sts):
            out[name] = (0.0, unit, "; ".join(sorted(set(bad))))
            continue
        note = "partial: " + "; ".join(bad) if bad else ""
        st = [stats[lay] for lay in lays]
        errors = sum(s.probe_errors for s in st)
        if errors:
            note = f"{note}; probe failed {errors} times".lstrip("; ")
        if kind == "self_ms":
            value = 1e3 * per * sum(s.self_s for s in st)
        elif kind == "total_ms":
            value = 1e3 * per * sum(s.total_s for s in st)
        elif kind == "calls":
            value = per * sum(s.calls for s in st)
        elif kind == "nbytes":
            value = per * sum(s.nbytes for s in st)
        elif kind == "probe_hits":
            value = per * sum(s.hits for s in st)
        else:  # probe_frac
            base = sum(s.base for s in st)
            value = sum(s.hits for s in st) / base if base else 0.0
            if not base:
                note = (note + "; " if note else "") + "n/a: not called"
        out[name] = (value, unit, note)
    return out
