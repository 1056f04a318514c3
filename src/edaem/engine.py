"""The EDA main loop, structured as Monte-Carlo EM.

Each iteration draws a generation from the current search distribution
(the sampling half of an E-step), turns shaped objective values into a
normalized particle posterior over the generation, and refits the
distribution with one of three M-step variants:

* ``closed_form``   -- weighted mean of sufficient statistics, the
  exponential-family weighted MLE.
* ``map_smoothed``  -- convex combination (1 - gamma) * theta_prev +
  gamma * theta_tilde, equivalently the MAP refit under the family's
  conjugate prior with lambda2 = 1/gamma - 1 and lambda1 = lambda2 *
  theta_prev (recomputed every iteration).
* ``gradient``      -- k ascent steps of size alpha on the weighted
  log-likelihood; with k = 1 this is exactly the score-function
  (REINFORCE-style) update, and as k grows it approaches the closed form.

One iteration of ``run`` is ``e_step``, then ``_step``: the closed-form
refit, which every rule starts from; the rule's step; the next model, built
from the unrepaired result once, with the family's fixed floor or jitter
(``models.PROB_FLOOR``, ``EIG_FLOOR``, ``JITTER_SCALE``); and the free
energy, which reads the generation only through that refit and the total of
its weights (see ``_free_energy``).  ``_step`` alone reads the update kind.

Checks.  A run's config is checked once, when it is built (``UpdateRule``,
``ShapingSpec``, the start model and its domain).  Per generation ``run``
checks only what the data can get wrong: finite objective values (the
shaping's one scan; :class:`ObjectiveError` names the sample), weights
not all zero (the shaping's test), a finite total (summed once, by
:class:`Population`), the generation on the support (the refit's one
domain scan), and a repairable covariance and a finite theta for the next
model; ``e_step``'s O(1) checks of n and of the domain pairing remain.  ``_step`` skips the
public M-steps' checks of gamma, alpha and k, and builds each Gaussian from
the exactly symmetric (m, C) its refit or blend made, which the constructor
neither copies nor symmetrizes; only its theta is formed.

Runs are deterministic given the seed for a fixed BLAS library and thread
count: per-iteration sampling seeds derive from a fixed SeedSequence, and
the weighted sums go through BLAS, whose summation order may change with
the library or the number of threads.

The helper thread.  ``run`` keeps at most one, started and joined inside
it, when ``_uses_helper`` holds; that gate reads the family and the
generation's n d cells alone, and the helper's work never changes an
output byte.  ``sample`` makes every generation, once, on the main
thread: ``run`` hands it the helper's part of the draw (``_helper``),
which the family reads.  The helper has two uses:

* Draw-ahead.  A family whose draw is a theta-free array placed by theta
  (the Gaussian's standard normals x from ``_noise``, placed as m + L x)
  can have generation t+1's array drawn from its seed while iteration t
  evaluates, refits and computes its free energy.  ``run`` does this from
  ``models.BLOCK_CELLS`` cells; the helper calls the model's own
  ``_noise`` with the same seed, and the part is that call's future.  The
  one worker runs its draws in order, and ``run`` releases each
  generation before the next is placed, so at most two generations are
  alive at once.
* A split draw.  A family whose draw reads a fixed number of generator
  words per cell (the Bernoulli's ``_draw_rows``) can draw a later row
  range from a generator jumped ahead to that range's first word.  From
  ``SPLIT_MIN_CELLS`` cells, the part is the helper itself, on which
  ``sample`` draws the second half of each generation's rows while it
  draws the first.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import models
from . import objectives as objectives_mod
from . import shaping as shaping_mod
from .errors import (
    ConfigError,
    DegenerateModelError,
    DegenerateUpdateError,
    DegenerateWeightsError,
    DomainError,
    FamilyMismatchError,
    ObjectiveError,
    RunAbortedError,
    ShapingInputError,
    StepSizeError,
)
from .models import ExpectationParams, SearchModel
from .shaping import is_finite_real

# Gradient projections allowed in a row before StepSizeError.
MAX_CONSECUTIVE_PROJECTIONS = 20


@dataclass(frozen=True)
class Population:
    """One generation: samples, raw values and shaped weights w.

    The weights are summed once, here: ``total`` = sum w must be positive
    and finite, else :class:`DegenerateWeightsError` names it.  The particle
    posterior over the samples is ``norm_w`` = w / ``total``.
    ``log_w_shift`` is the log of the constant the shaping divided out
    (nonzero only for exponential shaping); free-energy diagnostics add it
    back so they do not depend on the overflow guard.
    """

    samples: np.ndarray
    raw_f: np.ndarray
    shaped_w: np.ndarray
    log_w_shift: float = 0.0

    def __post_init__(self):
        with np.errstate(over="ignore", invalid="ignore"):
            total = float(self.shaped_w.sum())
        if not 0.0 < total < math.inf:
            raise DegenerateWeightsError(
                f"shaped weights total {total}; the total must be positive and finite"
            )
        object.__setattr__(self, "total", total)

    @functools.cached_property
    def norm_w(self) -> np.ndarray:
        """The particle posterior w / sum w."""
        return self.shaped_w / self.total

    @property
    def size(self) -> int:
        return self.samples.shape[0]

    @property
    def ess(self) -> float:
        """Effective sample size 1 / sum(norm_w^2), in [1, N]."""
        return float(1.0 / (self.norm_w**2).sum())


# The hyperparameters each update kind takes, and each one's range and check.
_RULE_PARAMS = {"closed_form": (), "map_smoothed": ("gamma",), "gradient": ("alpha", "k")}
_PARAM_CHECKS = {
    "gamma": ("a number in (0, 1]", lambda v: is_finite_real(v) and 0.0 < v <= 1.0),
    "alpha": ("a finite number > 0", lambda v: is_finite_real(v) and v > 0.0),
    "k": ("an integer >= 1",
          lambda v: isinstance(v, numbers.Integral) and is_finite_real(v) and v >= 1),
}


@dataclass(frozen=True)
class UpdateRule:
    """Which M-step variant runs, with its hyperparameters.  The one update
    schema: kind, allowed parameters, types and ranges are checked here."""

    kind: str  # "closed_form" | "map_smoothed" | "gradient"
    gamma: float | None = None
    alpha: float | None = None
    k: int | None = None

    def __post_init__(self):
        takes = _RULE_PARAMS.get(self.kind) if isinstance(self.kind, str) else None
        if takes is None:
            raise ConfigError(
                f"update.kind must be one of {', '.join(_RULE_PARAMS)}; got {self.kind!r}"
            )
        extra = [f for f in _PARAM_CHECKS if f not in takes and getattr(self, f) is not None]
        if extra:
            allowed = f"only {', '.join(takes)}" if takes else "no parameters"
            raise ConfigError(f"{self.kind} update takes {allowed}, got {extra}")
        for name in takes:
            what, ok = _PARAM_CHECKS[name]
            if not ok(getattr(self, name)):
                raise ConfigError(f"update.{name} must be {what}, got {getattr(self, name)!r}")


@dataclass(frozen=True)
class IterationRecord:
    """Per-iteration summary.

    ``best_raw_f`` is the generation max; ``weighted_mean_shaped_f`` the
    particle-posterior mean of the shaped values; ``free_energy_estimate``
    the particle free energy E_q[log p(z|theta')] + log sum w + s, which
    grows as log sum w (see ``_free_energy``); ``free_energy_map`` adds
    the unnormalized log-prior and is set only in MAP mode.  Only the final
    parameters are kept, in :attr:`Trace.final_model`.
    """

    iteration: int
    best_raw_f: float
    mean_raw_f: float
    weighted_mean_shaped_f: float
    free_energy_estimate: float
    ess: float
    free_energy_map: Optional[float] = None


@dataclass(frozen=True)
class Trace:
    records: list
    final_model: SearchModel

    @property
    def best_raw_f(self) -> float:
        """Best raw value over the records; -inf for a run aborted at iteration 0."""
        return max((r.best_raw_f for r in self.records), default=-math.inf)


def e_step(model: SearchModel, objective: objectives_mod.Objective,
           shaping_spec: shaping_mod.ShapingSpec, n: int, seed: int,
           *, _helper=None) -> Population:
    """Sample a generation, evaluate and shape it; the shaping rejects
    all-zero weights, and the :class:`Population` sums and checks them,
    once.  The model must share the objective's domain; its samples then go
    to ``batch_eval`` unscanned.  The shaping's scan of the values is their
    one finiteness check; a NaN or infinite value raises
    :class:`ObjectiveError` naming its sample.

    ``_helper`` is private to ``run``: the helper thread's part of the
    draw, which ``model.sample`` reads (see there); the samples are the
    same."""
    if n < 2:
        raise ValueError("generation size n must be >= 2")
    if model.domain != objective.domain:
        raise DomainError(
            f"{model.family_tag!r} samples {model.domain}; objective "
            f"{objective.name!r} takes {objective.domain}"
        )
    Z = model.sample(n, seed, _helper=_helper)
    raw = objectives_mod.evaluate_unchecked(objective, Z)
    try:
        w = shaping_mod.shape(shaping_spec, raw)
    except ShapingInputError:
        bad = np.flatnonzero(~np.isfinite(raw))
        if not bad.size:
            raise
        idx = int(bad[0])
        raise ObjectiveError(f"objective {objective.name!r} returned {raw[idx]} at sample "
                             f"index {idx}", index=idx) from None
    return Population(samples=Z, raw_f=raw, shaped_w=w,
                      log_w_shift=shaping_mod.log_shift(shaping_spec, raw))


def m_step_closed_form(pop: Population, model: SearchModel) -> ExpectationParams:
    """Weighted maximum-likelihood refit: the weighted mean of sufficient
    statistics, unrepaired (it may sit past a family floor)."""
    return model._refit(model._as_batch(pop.samples), pop.shaped_w, pop.total)


def m_step_map(
    theta_prev: ExpectationParams, theta_tilde: ExpectationParams, gamma: float
) -> ExpectationParams:
    """Smoothed update (1 - gamma) * theta_prev + gamma * theta_tilde.

    With the conjugate prior at lambda2 = 1/gamma - 1, lambda1 = lambda2 *
    theta_prev and theta_tilde the unrepaired weighted mean, this convex
    combination is (lambda1 + sum_i w_i T(z_i)) / (lambda2 + sum_i w_i),
    the exact maximizer of the MAP refit objective; gamma = 1 returns
    theta_tilde's values.  Gaussian parameters blend in covariance form
    (``ExpectationParams.blend``).  ``run`` repairs the result once.
    """
    UpdateRule("map_smoothed", gamma=gamma)
    if theta_prev.family_tag != theta_tilde.family_tag:
        raise FamilyMismatchError(
            f"cannot smooth {theta_tilde.family_tag!r} with {theta_prev.family_tag!r}"
        )
    return theta_prev.blend(theta_tilde, gamma)


def m_step_gradient(
    pop: Population, model: SearchModel, alpha: float, k: int
) -> ExpectationParams:
    """k ascent steps of size alpha on sum_i w_i log p(z_i | theta).

    Gradients are recomputed at the current iterate.  Between steps the
    parameters are projected back onto the valid domain (floors / PSD);
    the last step's proposal is returned unrepaired, like the other
    M-steps, and ``run`` repairs it once.  Projection firing more than
    ``MAX_CONSECUTIVE_PROJECTIONS`` times in a row raises
    :class:`StepSizeError`, a hint that alpha is too large.
    """
    UpdateRule("gradient", alpha=alpha, k=k)
    return _ascend(pop.shaped_w, model._as_batch(pop.samples), model, alpha, k)


def _ascend(w, Z, model: SearchModel, alpha: float, k: int) -> ExpectationParams:
    """``m_step_gradient``'s steps on a checked batch, with checked alpha and k."""
    current = model
    consecutive = 0
    for step in range(k):
        if step:  # project the previous step's proposal
            current = current.with_params(theta)
            fired = not np.array_equal(current.params.values, theta)
            consecutive = consecutive + 1 if fired else 0
            if consecutive > MAX_CONSECUTIVE_PROJECTIONS:
                raise StepSizeError(
                    f"projection fired {consecutive} times in a row; "
                    f"step size alpha={alpha} is likely too large"
                )
        grad = w @ current._score_batch(Z)
        theta = current.params.values + alpha * grad
    return ExpectationParams(theta, model.family_tag)


def _free_energy(
    pop: Population, next_model: SearchModel, theta_tilde: ExpectationParams
) -> float:
    """F-hat = sum_i q_i log p(z_i|theta') + log sum_i w_i + s, the free
    energy sum_i q_i [log p(z_i|theta') + log w_i + s] + H[q] of the
    particle posterior q = w / sum w (H its discrete entropy), as log w_i -
    log q_i = log sum w for every kept sample; s is the shaping's
    ``log_w_shift``.  It grows as log sum w (log ceil(rho N) under
    ``quantile:rho``).  The first term is ``next_model._mean_log_density``
    of ``theta_tilde``, the unrepaired refit sum_i q_i T(z_i), a closed form
    that does not read the samples again."""
    mean_logp = next_model._mean_log_density(theta_tilde)
    return mean_logp + math.log(pop.total) + pop.log_w_shift


def _log_prior(model: SearchModel, lam1: np.ndarray, lam2: float) -> float:
    """Unnormalized conjugate log-prior lambda1 . eta(theta) - lambda2 *
    A(theta); the prior's own log-partition is constant in theta and
    dropped."""
    return float(lam1 @ model.natural_params() - lam2 * model.log_partition())


# Cells of a Bernoulli generation from which ``run`` draws its second row
# range on the helper thread, where the split stops losing.  Measured on
# 2 CPUs, p50 of 300-600 interleaved draws at d = 2048, in line against
# split, in ms: 0.39-0.57 against 0.56-0.71 at 262,144 cells and 0.74-0.82
# against 0.84-0.88 at 393,216 (lost in all 4 runs); at 524,288 two wins,
# a tie and two losses in 5 runs (0.61-1.18 against 0.50-1.18); from
# 589,824 cells 4 wins in 5 runs; at 2,000,000 (bern-wide, d = 2000)
# 2.40-3.56 against 1.82-2.30 (won all 4).
SPLIT_MIN_CELLS = 1 << 19


def _uses_helper(model: SearchModel, n: int) -> bool:
    """Whether ``run`` keeps a helper thread, from the family and the
    generation's n d cells alone.  It draws ahead for a family that draws a
    theta-free array (``_noise``) of at least ``models.BLOCK_CELLS`` cells,
    and draws the second row range for a family with ``_draw_rows`` from
    ``SPLIT_MIN_CELLS`` cells.  A smaller draw costs less than the handoff."""
    cells = n * model.dim
    if hasattr(model, "_noise"):
        return cells >= models.BLOCK_CELLS
    return hasattr(model, "_draw_rows") and cells >= SPLIT_MIN_CELLS


def _step(model: SearchModel, pop: Population, rule: UpdateRule):
    """One M-step of ``run`` on ``pop``, a generation of ``model``; returns
    (next_model, theta_tilde, fe, fe_map).  In order: the closed-form refit
    theta_tilde; the rule's step from it (MAP's blend, or ``_ascend``); the
    one build and repair of the next model, where :class:`DegenerateModelError`
    becomes :class:`DegenerateUpdateError` naming the kind; the free energy
    fe under the next model; and, for ``map_smoothed`` only, fe_map = fe plus
    the log-prior gamma implies, else None."""
    kind = rule.kind
    prior = None
    try:
        theta_next = theta_tilde = m_step_closed_form(pop, model)
        if kind == "map_smoothed":
            theta_prev = model.params
            theta_next = theta_prev.blend(theta_tilde, rule.gamma)
            lam2 = 1.0 / rule.gamma - 1.0  # the prior gamma implies
            prior = (lam2 * theta_prev.values, lam2)
        elif kind == "gradient":
            theta_next = _ascend(pop.shaped_w, pop.samples, model, rule.alpha, rule.k)
        next_model = model.with_params(theta_next)
    except DegenerateModelError as exc:
        raise DegenerateUpdateError(f"{kind} update not repairable: {exc}") from exc
    fe = _free_energy(pop, next_model, theta_tilde)
    fe_map = None if prior is None else fe + _log_prior(next_model, *prior)
    return next_model, theta_tilde, fe, fe_map


def run(config) -> Trace:
    """Execute ``config.iterations`` rounds of ``e_step`` and ``_step``, and
    record one :class:`IterationRecord` per iteration; stop early when the
    best raw value has not improved for ``config.early_stop_window``
    iterations.  A failure of an iteration aborts with
    :class:`RunAbortedError`, which carries the trace so far and has the
    failure as its cause.  When ``_uses_helper`` holds, one helper thread
    draws generation t+1's theta-free array during iteration t, or the
    second row range of generation t while ``sample`` draws the first; it is
    joined before ``run`` returns or raises.
    """
    model, n, window = config.model, config.n_samples, config.early_stop_window
    records: list = []
    seeds = np.random.SeedSequence(config.seed).generate_state(config.iterations, dtype=np.uint64)
    best_so_far, stale = -np.inf, 0
    helper = ahead = None
    try:
        if _uses_helper(model, n):
            # Imported here, so that importing edaem loads no thread pool.
            from concurrent.futures import ThreadPoolExecutor

            helper = ThreadPoolExecutor(max_workers=1)
        # The helper draws ahead for a family with _noise, else it draws
        # each generation's second row range.
        draws_ahead = helper is not None and hasattr(model, "_noise")
        for t in range(config.iterations):
            # The helper's part of generation t's draw: the helper, or the
            # future of the array it drew during iteration t - 1 (none at
            # t = 0: sample draws it); generation t + 1's starts now.
            part = ahead if draws_ahead else helper
            if draws_ahead and t + 1 < config.iterations:
                ahead = helper.submit(model._noise, int(seeds[t + 1]), n, model.dim)
            pop = e_step(model, config.objective, config.shaping, n, int(seeds[t]), _helper=part)
            model, _, fe, fe_map = _step(model, pop, config.rule)

            best = float(pop.raw_f.max())
            records.append(IterationRecord(
                iteration=t, best_raw_f=best,
                mean_raw_f=float(pop.raw_f.sum() / pop.size),  # ndarray.mean, bit for bit
                weighted_mean_shaped_f=float(pop.norm_w @ pop.shaped_w),
                free_energy_estimate=fe, ess=pop.ess, free_energy_map=fe_map))
            del pop  # released before the next generation is placed

            if best > best_so_far:
                best_so_far, stale = best, 0
            else:
                stale += 1
            if window is not None and stale >= window:
                break
    except (DegenerateWeightsError, DegenerateUpdateError, ObjectiveError, ShapingInputError,
            StepSizeError) as exc:
        raise RunAbortedError(
            f"run aborted at iteration {len(records)}: {exc}",
            trace=Trace(records=records, final_model=model),
        ) from exc
    finally:
        if helper is not None:
            helper.shutdown(cancel_futures=True)
    return Trace(records=records, final_model=model)
