"""Exact computations on small enumerable spaces, and the diagnostic suite.

On a space small enough to enumerate, the quantities the sampled optimizer
only ever estimates can be computed exactly.  ``space.at(model)`` checks
that the model samples the space's :class:`~edaem.objectives.Domain`
(else :class:`DomainError`, as the E-step does), reads log p(z|theta) at
every state once, and returns an :class:`Exact` view that answers from
that read.  One tilt, p(z|theta) f(z) scaled in log space so that it
cannot overflow, gives L(theta) = log E_p[f], the tilted distribution
p(z|theta) f(z) / E_p[f], the exact EM refit (``run()``'s closed-form
M-step over every state, weighted by the tilted distribution) and the
enumerated gradient, the tilted mean score; F(q, theta) and KL(q || tilted)
of any q, a random q and the view under a rescaled objective read log p.
The free-energy row draws its random q as one array, from the stream that
as many ``random_q`` calls read, and scores them as one batch through the
row kernel of ``free_energy`` and ``kl``: the same floats as one q at a time.

The ``verify_*`` functions are executable forms of identities the sampled
algorithm is built on: the EM refit maximizes a proximal-point objective,
it coincides with a unit-step natural-gradient update, sampled refits
converge to it as the generation grows, and exact EM never decreases
L(theta).  Each reads one view per model and returns a
:class:`CheckReport`; apart from the binary-only proximal-point grid, a
check reads nothing of the space but ``space.at(model)``.  Their
tolerances and the sampled-refit plan are constants (``NGD_*``, ``EM_*``,
``FE_*``, ``MC_*``), the same for every fixture.  The proximal-point grid
contracts the objective table with per-coordinate (1 - t, t) tables, in
blocks of about ``PPM_BLOCK_POINTS`` grid points.

Enumeration is capped at 2**20 states; these diagnostics are desk-scale by
design.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import engine as engine_mod
from . import shaping as shaping_mod
from .errors import DegenerateObjectiveError, DomainError
from .models import PROB_FLOOR, ExpectationParams, SearchModel
from .objectives import Domain

MAX_STATES = 2**20

# Tolerances of the verification suite, the same for every fixture.
# NGD correspondence: objective rescalings s, the allowed growth of
# discrepancy / |grad L|^2 from one s to the next, the level below which
# that ratio is float noise, the bound on the s = 1 discrepancy, and the
# discrepancy, relative to |theta|, below which the two agree to rounding.
NGD_SCALES = (1.0, 0.5, 0.25, 0.125)
NGD_GROWTH_LIMIT = 2.0
NGD_NOISE_FLOOR = 1e-8
NGD_EQUALITY_TOL = 1e-10
NGD_ROUNDING = 8 * 2.0**-52
# EM monotonicity: exact EM steps, and the most any step may lower L.
EM_N_STEPS = 25
EM_STEP_TOL = -1e-12
# Free-energy bound: random q drawn, and the tolerance of each identity.
FE_N_RANDOM_Q = 20
FE_TOL = 1e-10
# Sampled-refit convergence: generation sizes, and the seeds averaged at
# each size.  A fixture's error bound is calibrated for exactly this plan.
MC_N_LIST = (100, 1_000, 10_000, 100_000)
MC_SEEDS = tuple(range(20))
# Grid points in one block of the proximal-point grid search: 500 KB per
# float64 array of the block, whatever the grid size.
PPM_BLOCK_POINTS = 62_500


@dataclass(frozen=True)
class EnumerableSpace:
    """All states of a binary or categorical domain, in lexicographic
    order, with the objective table cached alongside.  The states are
    checked against the domain once, here, so that :meth:`at` reads log p
    on them unchecked."""

    states: np.ndarray  # (M, d) int64
    f_values: np.ndarray  # (M,)
    domain: Domain

    def __post_init__(self):
        self.domain.check(self.states)
        bad = ~np.isfinite(self.f_values)
        if np.any(bad):
            k = int(np.argmax(bad))
            raise DomainError(
                f"objective table is not finite: f = {self.f_values[k]} at state "
                f"{self.states[k].tolist()}"
            )
        if np.any(self.f_values < 0.0):
            raise DomainError(
                "objective table contains negative values; the tilted "
                "distribution and identity shaping assume f(z) >= 0"
            )

    @property
    def n_states(self) -> int:
        return self.states.shape[0]

    @classmethod
    def build(cls, domain: Domain, f: Callable) -> "EnumerableSpace":
        """Enumerate the states of ``domain`` lexicographically and tabulate f.

        ``f`` takes an (M, d) array of states and returns (M,) values.
        """
        if domain.kind == "continuous":
            raise DomainError(f"{domain} has no finite set of states")
        arity, dim = domain.arity or 2, domain.dim
        n = arity**dim
        if n > MAX_STATES:
            raise DomainError(
                f"{arity}^{dim} = {n} states exceeds the enumeration cap {MAX_STATES}"
            )
        # The row-major order of the index grid is lexicographic order.
        grid = np.indices((arity,) * dim, dtype=np.int64).reshape(dim, n)
        states = np.ascontiguousarray(grid.T)
        f_values = np.asarray(f(states), dtype=np.float64).reshape(n)
        return cls(states=states, f_values=f_values, domain=domain)

    def at(self, model: SearchModel) -> "Exact":
        """The exact quantities of ``model`` on this space, from one read
        of log p(z|theta) at every state; a model on another domain raises
        :class:`DomainError`."""
        if model.domain != self.domain:
            raise DomainError(
                f"{model.family_tag!r} samples {model.domain}; the space enumerates {self.domain}"
            )
        return Exact(model, self, model._log_density(self.states), self.f_values)


@dataclass(frozen=True, eq=False)
class Exact:
    """One model on one enumerable space, with ``log_p`` = log p(z|theta)
    at every state and ``f_values`` the objective table it tilts by (the
    space's by default) over the space's checked states; build it with
    :meth:`EnumerableSpace.at` or :meth:`rescaled`.  Each quantity is
    computed from ``log_p`` on first use and kept, p f once, in ``_tilt``.
    A q is a probability vector over the states, in the space's order."""

    model: SearchModel
    space: EnumerableSpace
    log_p: np.ndarray
    f_values: np.ndarray | None = None

    def __post_init__(self):
        if self.f_values is None:
            object.__setattr__(self, "f_values", self.space.f_values)

    @functools.cached_property
    def _tilt(self) -> tuple[np.ndarray, float, np.ndarray]:
        """(w, top, at_top): w = f exp(a - top) <= f for a = log p where f > 0
        (-inf elsewhere), top = max a, at_top = (a == top).  Checks E_p[f] > 0."""
        f = self.f_values
        a = np.where(f > 0.0, self.log_p, -np.inf)
        top = a.max()
        if not np.isfinite(top):
            raise DegenerateObjectiveError("E_p[f] is zero under the model support")
        return f * np.exp(a - top), top, a == top

    @functools.cached_property
    def objective(self) -> float:
        """L(theta) = log sum_z p(z|theta) f(z), accumulated stably from the
        tilt w by scipy's real-valued ``logsumexp`` steps: the states at
        the largest log p among those with f > 0 are summed apart, as m,
        and L = log1p(s / m) + log m + top for the sum s over the others."""
        w, top, at_top = self._tilt
        m = float(np.sum(w * at_top))
        s = np.sum(np.where(at_top, 0.0, w)) / m
        return float(np.log1p(s) + np.log(m) + top)

    @functools.cached_property
    def tilted(self) -> np.ndarray:
        """p(z|theta) f(z) normalized over the states, read-only, zero where
        the tilt is; the tilt is divided by its largest entry first."""
        w = self._tilt[0]
        probs = w / w.max()
        probs /= probs.sum()
        probs.setflags(write=False)
        return probs

    @functools.cached_property
    def em_refit(self) -> ExpectationParams:
        """The exact EM refit, unrepaired: mean sufficient statistics under
        the tilted distribution, the infinite-sample refit."""
        return self.model._refit(self.space.states, self.tilted, 1.0)

    @functools.cached_property
    def em_model(self) -> SearchModel:
        """The model of the exact EM refit, built and repaired once."""
        return self.model.with_params(self.em_refit)

    def _distribution(self, q) -> np.ndarray:
        q = np.asarray(q, dtype=np.float64)
        if q.shape != (self.space.n_states,):
            raise DomainError("q must be a distribution over the space's states")
        if np.any(q < -1e-15) or not abs(q.sum() - 1.0) <= 1e-9:
            raise DomainError("q must be a probability vector over the states")
        return q

    def _rows(self, Q: np.ndarray, act: np.ndarray, kl: bool = True):
        """(F, KL): F(q, theta) and, if ``kl``, KL(q || tilted) (else None)
        of each row of Q, the entries of one q on the states ``act``; each
        row is positive there and its q is zero elsewhere.  F is -inf (a
        flag, not a crash) when f vanishes on ``act``, the KL +inf when the
        tilted distribution does.  The sums run over ``act`` alone and row
        by row, so a row gives the same floats alone as in a batch (zeros
        on the other states would regroup numpy's pairwise sums)."""
        m, f = len(Q), self.f_values[act]
        log_q = np.log(Q)
        if np.any(f <= 0.0):
            F = np.full(m, -np.inf)
        else:
            F = np.sum(Q * (self.log_p[act] + np.log(f)), axis=1) - np.sum(Q * log_q, axis=1)
        if not kl:
            return F, None
        r = self.tilted[act]
        if np.any(r <= 0.0):
            return F, np.full(m, np.inf)
        return F, np.sum(Q * (log_q - np.log(r)), axis=1)

    def free_energy(self, q) -> float:
        """F(q, theta) = sum_z q(z) log(p(z|theta) f(z)) + H[q], with
        0 log 0 = 0.  Returns -inf (a flag, not a crash) when q places mass
        where p*f vanishes."""
        q = self._distribution(q)
        act = q > 0.0
        return float(self._rows(q[None, act], act, kl=False)[0][0])

    @functools.cached_property
    def scores(self) -> np.ndarray:
        """The score of every state with respect to the expectation
        parameters, one row per state, read on the space's checked states."""
        self.model._check_interior()
        return self.model._score_batch(self.space.states)

    @functools.cached_property
    def gradient(self) -> np.ndarray:
        """Enumerated gradient of L(theta) = log E_p[f] with respect to the
        expectation parameters, E_p[f * score] / E_p[f]: the tilted mean."""
        return self.tilted @ self.scores

    def kl(self, q) -> float:
        """KL(q || tilted) with 0 log 0 = 0; +inf when q places mass where
        the tilted distribution has none."""
        q = self._distribution(q)
        act = q > 0.0
        return float(self._rows(q[None, act], act)[1][0])

    def _random_rows(self, rng: np.random.Generator, m: int) -> tuple[np.ndarray, np.ndarray]:
        """(support, Q): the states where f > 0, and m flat Dirichlet draws
        on them, one per row of Q, from the stream m ``random_q`` calls
        read, bit for bit."""
        support = self.f_values > 0.0
        return support, rng.dirichlet(np.ones(int(support.sum())), size=m)

    def random_q(self, rng: np.random.Generator) -> np.ndarray:
        """A random distribution over the states: a flat Dirichlet draw on
        the states where f > 0, zero elsewhere, so that F(q, theta) and the
        KL stay finite."""
        support, Q = self._random_rows(rng, 1)
        q = np.zeros(self.space.n_states)
        q[support] = Q[0]
        return q

    def rescaled(self, s: float) -> "Exact":
        """The view under f_s = 1 + s (f - 1), for f > 0 everywhere and a
        scale s in (0, 1], so that f_s = (1 - s) + s f is positive and
        finite.  It tilts by f_s over the same space, whose states were
        checked when it was built, and shares log p and the scores, which do
        not depend on f (the scores are read here if not yet read)."""
        if not 0.0 < s <= 1.0:
            raise DomainError(f"rescaled needs a scale s in (0, 1], got {s!r}")
        f = self.f_values
        if np.any(f <= 0.0):
            raise DomainError("verify_ngd_correspondence requires f > 0 everywhere")
        view = Exact(self.model, self.space, self.log_p, 1.0 + s * (f - 1.0))
        view.__dict__["scores"] = self.scores
        return view


@dataclass
class CheckReport:
    """One check's outcome; the fixture that ran it stamps its name."""

    check_name: str
    fixture: str = ""
    values: dict = field(default_factory=dict)
    passed: bool = False

    def to_json_dict(self) -> dict:
        return {
            "check_name": self.check_name,
            "fixture": self.fixture,
            "values": self.values,
            "pass": self.passed,
        }


# ---------------------------------------------------------------------------
# verification suite
# ---------------------------------------------------------------------------


def _ppm_blocks(exact: Exact, grid_1d: np.ndarray):
    """L(theta) and KL(tilted(theta_t) || tilted(theta)) at every point of
    the binary product grid grid_1d^d, where theta_t is ``exact``'s model.

    E_p[f] is multilinear in the per-coordinate (1 - t, t) tables.  The
    objective table, scaled by max f, is scattered by state into a (2,)*d
    tensor; each block of grid rows contracts its leading coordinates, and
    one (rows, 2) @ (2, columns) product over the last coordinate gives
    E_p[f] at every point of the block.  The KL is
    sum q log q - sum q log f - sum_j a_j[theta_j] + L(theta), where q is
    the tilted distribution at theta_t and a_j the (log(1 - t), log t)
    table against coordinate j's marginal of q; states with f = 0 carry no
    mass under either tilted distribution.  Blocks hold about
    ``PPM_BLOCK_POINTS`` grid points.  Yields, in row-major order,
    (rows, columns, L, kl): the slices of the flattened leading coordinates
    and of the last one, and two (rows, columns) arrays.
    """
    space, q = exact.space, exact.tilted
    d, n_points = space.domain.dim, len(grid_1d)
    # Column z of row i is p(z_j = z | theta_j = grid_1d[i]), and its log.
    prob_table = np.stack([1.0 - grid_1d, grid_1d], axis=1)
    log_table = np.stack([np.log1p(-grid_1d), np.log(grid_1d)], axis=1)
    f = exact.f_values
    f_max = float(f.max())
    f_tensor = np.zeros((2,) * d)
    f_tensor[tuple(space.states.T)] = f / f_max
    support = f > 0.0
    qa = q[q > 0.0]
    kl_const = float(np.sum(qa * np.log(qa))) - float(q[support] @ np.log(f[support]))
    a = [log_table @ np.bincount(space.states[:, j], weights=q, minlength=2) for j in range(d)]

    rows = max(1, PPM_BLOCK_POINTS // n_points)
    cols = min(n_points, PPM_BLOCK_POINTS)
    n_rows = n_points ** (d - 1)
    # Every block is written into the same two buffers: the arrays yielded
    # are valid until the next block.  Fresh arrays per block made the
    # d = 2 grids at step 1e-3 about 1.6x slower on a 2-CPU machine.
    L_buf, kl_buf = np.empty(rows * cols), np.empty(rows * cols)
    for r0 in range(0, n_rows, rows):
        row_block = slice(r0, min(r0 + rows, n_rows))
        lead = np.arange(row_block.start, row_block.stop)
        idx = np.unravel_index(lead, (n_points,) * (d - 1)) if d > 1 else ()
        head = f_tensor.reshape(1, -1)
        a_head = np.zeros(len(lead))
        for j, i in enumerate(idx):
            head = (prob_table[i, :, None] * head.reshape(len(head), 2, -1)).sum(axis=1)
            a_head += a[j][i]
        head = head.reshape(len(a_head), 2)
        for c0 in range(0, n_points, cols):
            col_block = slice(c0, min(c0 + cols, n_points))
            shape = (len(head), col_block.stop - c0)
            L = L_buf[: shape[0] * shape[1]].reshape(shape)
            np.matmul(head, prob_table[col_block].T, out=L)
            np.log(L, out=L)
            L += np.log(f_max)
            kl = np.subtract(L, a[-1][col_block], out=kl_buf[: L.size].reshape(shape))
            kl -= a_head[:, None]
            kl += kl_const
            yield row_block, col_block, L, kl


def verify_ppm_equivalence(
    model: SearchModel, space: EnumerableSpace, grid_step: float = 1e-3
) -> CheckReport:
    """Grid-maximize theta -> L(theta) - KL(tilted(theta_t) || tilted(theta))
    and check the argmax lands within one grid step of the exact EM refit,
    per coordinate.

    ``_ppm_blocks`` computes L(theta) and the KL at every grid point by
    contracting the scaled objective table with the per-coordinate
    (1 - t, t) tables, in row-major blocks of about ``PPM_BLOCK_POINTS``
    grid points, so no array grows with the grid; the strict > keeps the
    first argmax.  ``grid_step`` must be finite and in
    (0, 1 - 2 PROB_FLOOR].  The count of states where f is zero, which add
    no KL terms, is reported.
    """
    d = space.domain.dim
    if space.domain.kind != "binary" or d > 3:
        raise DomainError("verify_ppm_equivalence supports binary spaces with d <= 3")
    if not 0.0 < grid_step <= 1.0 - 2.0 * PROB_FLOOR:
        raise DomainError(
            f"grid_step = {grid_step!r}; it must be finite and in (0, {1.0 - 2.0 * PROB_FLOOR:g}]"
        )
    n_points = int(round((1.0 - 2.0 * PROB_FLOOR) / grid_step)) + 1
    grid_1d = np.linspace(PROB_FLOOR, 1.0 - PROB_FLOOR, n_points)
    eff_step = float(grid_1d[1] - grid_1d[0])

    exact = space.at(model)
    best_val = -np.inf
    best_theta = None
    for rows, cols, L, kl in _ppm_blocks(exact, grid_1d):
        vals = np.subtract(L, kl, out=kl)
        k = int(np.argmax(vals))
        if vals.flat[k] > best_val:
            best_val = float(vals.flat[k])
            r, c = divmod(k, vals.shape[1])
            lead = np.unravel_index(rows.start + r, (n_points,) * (d - 1))
            best_theta = grid_1d[[*lead, cols.start + c]]

    em = exact.em_model.params.values
    gap = np.abs(best_theta - em)
    tol = max(grid_step, eff_step)
    passed = bool(np.all(gap <= tol + 1e-12))
    return CheckReport(
        check_name="ppm_equivalence",
        values={
            "ppm_argmax": [float(v) for v in best_theta],
            "em_update": [float(v) for v in em],
            "max_abs_gap": float(gap.max()),
            "grid_step": eff_step,
            "excluded_states": int(np.sum(space.f_values <= 0.0)),
        },
        passed=passed,
    )


def verify_ngd_correspondence(model: SearchModel, space: EnumerableSpace) -> CheckReport:
    """Compare theta + I(theta)^{-1} grad L(theta) against the exact EM
    refit, unrepaired (``Exact.em_refit``: the step is not floored either),
    with exact enumerated gradient and Fisher information.

    In expectation parameterization the two coincide (the natural gradient
    of log E_p[f] is exactly the tilted mean minus theta), so the
    discrepancy should be at rounding level.  Rescaling the objective as
    f_s = 1 + s (f - 1) shrinks the gradient; second-order agreement means
    discrepancy / |grad L|^2 stays bounded as s -> 0.  Ratios are compared
    above ``NGD_NOISE_FLOOR`` only: below it they measure float noise
    divided by a vanishing gradient, not the approximation order; and a
    discrepancy within ``NGD_ROUNDING`` |theta| is agreement, whatever its
    ratio, since a gradient near 1e-4 lifts rounding above that floor.
    Under a constant f, grad L = 0 and NGD and EM both stay at theta: there
    every scale's discrepancy must be within ``NGD_EQUALITY_TOL``."""
    exact = space.at(model)
    fisher = model.fisher_information()  # of the model, the same at every scale
    theta = model.params.values
    discs, ratios = [], []
    for s in NGD_SCALES:
        scaled = exact.rescaled(s)
        grad = scaled.gradient
        theta_ngd = theta + np.linalg.solve(fisher, grad)
        disc = float(np.linalg.norm(theta_ngd - scaled.em_refit.values))
        gnorm2 = float(grad @ grad)
        discs.append(disc)
        ratios.append(disc / gnorm2 if gnorm2 > 0.0 else 0.0)

    if np.ptp(exact.f_values) == 0.0:
        passed = max(discs) <= NGD_EQUALITY_TOL
    else:
        rounding = NGD_ROUNDING * float(np.linalg.norm(theta))
        passed = discs[0] <= NGD_EQUALITY_TOL and all(
            discs[i + 1] <= rounding
            or ratios[i + 1] <= max(NGD_GROWTH_LIMIT * ratios[i], NGD_NOISE_FLOOR)
            for i in range(len(ratios) - 1)
        )
    return CheckReport(
        check_name="ngd_correspondence",
        values={
            "scales": [float(s) for s in NGD_SCALES],
            "discrepancies": discs,
            "ratios": ratios,
            "discrepancy": discs[0],
            "equality_tol": NGD_EQUALITY_TOL,
        },
        passed=bool(passed),
    )


def verify_mc_convergence(
    model: SearchModel, space: EnumerableSpace, objective, error_bound: float
) -> CheckReport:
    """Sampled refit error ||theta_N - exact refit|| averaged over
    ``MC_SEEDS``, for each generation size N in ``MC_N_LIST``; the mean
    error must shrink with N (one inversion tolerated) and end below
    ``error_bound``."""
    identity = shaping_mod.ShapingSpec("identity")
    exact = space.at(model).em_model.params.values
    mean_errors = []
    for n in MC_N_LIST:
        errs = []
        for seed in MC_SEEDS:
            pop = engine_mod.e_step(model, objective, identity, n, seed)
            theta = engine_mod.m_step_closed_form(pop, model).values
            del pop  # released before the next generation is drawn
            errs.append(float(np.linalg.norm(theta - exact)))
        mean_errors.append(float(np.mean(errs)))
    inversions = sum(
        1 for i in range(len(mean_errors) - 1) if mean_errors[i + 1] > mean_errors[i]
    )
    passed = bool(inversions <= 1 and mean_errors[-1] <= error_bound)
    return CheckReport(
        check_name="mc_convergence",
        values={
            "n_list": list(MC_N_LIST),
            "mean_errors": mean_errors,
            "inversions": inversions,
            "error_bound": error_bound,
        },
        passed=passed,
    )


def verify_em_monotonicity(model: SearchModel, space: EnumerableSpace) -> CheckReport:
    """Iterate the exact EM refit ``EM_N_STEPS`` times and check L(theta)
    never decreases by more than ``-EM_STEP_TOL`` (exact EM: no sampling
    noise)."""
    exact = space.at(model)
    objective_values = [exact.objective]
    for _ in range(EM_N_STEPS):
        exact = space.at(exact.em_model)
        objective_values.append(exact.objective)
    diffs = np.diff(objective_values)
    passed = bool(np.all(diffs >= EM_STEP_TOL))
    return CheckReport(
        check_name="em_monotonicity",
        values={
            "objective_values": [float(v) for v in objective_values],
            "min_step": float(diffs.min()) if diffs.size else 0.0,
            "n_steps": EM_N_STEPS,
        },
        passed=passed,
    )


def verify_free_energy_bound(
    model: SearchModel, space: EnumerableSpace, seed: int = 0
) -> CheckReport:
    """Check F(q, theta) <= L(theta) for random q, equality at q = tilted,
    and the gap identity F - L = -KL(q || tilted), each to ``FE_TOL``.

    ``FE_N_RANDOM_Q`` random q are Dirichlet draws restricted to the
    support of p*f so the identities stay finite; the -inf flag path is
    exercised separately in unit tests.  The q are drawn as one array, from
    the stream as many ``random_q`` calls read, and scored as one batch by
    the kernel of ``free_energy`` and ``kl``: the same floats as a loop of
    the three.  A q with a zero entry on the support is scored on its own.
    """
    rng = np.random.default_rng(seed)
    exact = space.at(model)
    L = exact.objective

    sat_gap = abs(exact.free_energy(exact.tilted) - L)
    support, Q = exact._random_rows(rng, FE_N_RANDOM_Q)
    whole = np.all(Q > 0.0, axis=1)
    F, kl = np.empty(FE_N_RANDOM_Q), np.empty(FE_N_RANDOM_Q)
    F[whole], kl[whole] = exact._rows(Q[whole], support)
    for i in np.flatnonzero(~whole):  # positive on fewer states: its own sums
        q = np.zeros(space.n_states)
        q[support] = Q[i]
        F[i], kl[i] = exact.free_energy(q), exact.kl(q)
    max_violation = 0.0
    max_identity_err = 0.0
    for F_q, kl_q in zip(F.tolist(), kl.tolist()):
        gap = F_q - L
        max_violation = max(max_violation, gap)
        max_identity_err = max(max_identity_err, abs(gap + kl_q))

    passed = bool(
        sat_gap <= FE_TOL and max_violation <= FE_TOL and max_identity_err <= FE_TOL
    )
    return CheckReport(
        check_name="free_energy_bound",
        values={
            "satiation_gap": float(sat_gap),
            "max_bound_violation": float(max_violation),
            "max_gap_identity_error": float(max_identity_err),
            "n_random_q": FE_N_RANDOM_Q,
            "tol": FE_TOL,
        },
        passed=passed,
    )
