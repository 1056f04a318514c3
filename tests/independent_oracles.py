"""Independent numerical maximizers and score formulas used by the tests.

Everything here is written against textbook definitions (scipy densities,
explicit per-family derivative identities) and deliberately avoids the
library's own update formulas, so agreement is evidence rather than
tautology.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.optimize import minimize
from scipy.special import logsumexp
from scipy.stats import bernoulli, multivariate_normal, rankdata


# ---------------------------------------------------------------------------
# Reference draws: each sampling rule written out in one pass
# ---------------------------------------------------------------------------


def bernoulli_reference_draw(p, n, seed, chunk_cells=2_000_000):
    """The Bernoulli draw rule written out directly, in one pass wherever
    ``n * d`` fits in ``chunk_cells``: raw PCG64 words split by shifts
    into four 16-bit quarters, lowest first; cell k of the C-order (n, d)
    generation takes quarter k and z = b < floor(p 2^16); at each tie
    b == floor(p 2^16), in cell order, one float64 uniform r drawn after
    every word decides z = r < p 2^16 - floor(p 2^16)."""
    p = np.asarray(p, dtype=np.float64)
    d = p.size
    rng = np.random.default_rng(seed)
    scaled = p * 2.0**16
    thr = np.floor(scaled)
    rows = max(1, chunk_cells // d)
    rows += -rows % 4  # whole words per chunk, whatever d is modulo 4
    Z = np.empty((n, d), dtype=np.bool_)
    tie_rows, tie_cols = [], []
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        cells = (stop - start) * d
        words = rng.bit_generator.random_raw((cells + 3) // 4)
        quarters = np.empty(4 * words.size, dtype=np.uint64)
        for j in range(4):
            quarters[j::4] = (words >> np.uint64(16 * j)) & np.uint64(0xFFFF)
        b = quarters[:cells].reshape(stop - start, d).astype(np.float64)
        Z[start:stop] = b < thr
        r, c = np.nonzero(b == thr)
        tie_rows.append(start + r)
        tie_cols.append(c)
    r, c = np.concatenate(tie_rows), np.concatenate(tie_cols)
    Z[r, c] = rng.random(r.size) < (scaled - thr)[c]
    return Z


def categorical_reference_draw(probs, u):
    """The categorical draw from (n, d) uniforms u, as the (n, d, K)
    comparison of each uniform with its site's cumulative sums, capped at
    K - 1."""
    cum = np.cumsum(probs, axis=1)
    Z = (u[:, :, None] > cum[None, :, :]).sum(axis=2)
    return np.minimum(Z, probs.shape[1] - 1).astype(np.int64)


def gaussian_reference_draw(chol, mean, n, seed):
    """n Gaussian draws as m + L x, x standard normal, in one matrix
    product over the (n, d) normals."""
    x = np.random.default_rng(seed).standard_normal((n, len(mean)))
    return x @ np.asarray(chol).T + np.asarray(mean)


# ---------------------------------------------------------------------------
# Gaussian moments in the (mean, second moment) layout
# ---------------------------------------------------------------------------


def gaussian_moment_blend(mean, cov, mean_t, cov_t, gamma):
    """(1 - gamma) (m, S) + gamma (m~, S~) with S = C + m m', blended as
    expectation parameters; returns the blend's mean and S' - m' m'."""
    m, mt = np.asarray(mean, dtype=np.float64), np.asarray(mean_t, dtype=np.float64)
    S = np.asarray(cov) + np.outer(m, m)
    St = np.asarray(cov_t) + np.outer(mt, mt)
    m2 = (1.0 - gamma) * m + gamma * mt
    S2 = (1.0 - gamma) * S + gamma * St
    return m2, S2 - np.outer(m2, m2)


def gaussian_weighted_moments(Z, w):
    """Weighted mean and (biased) weighted covariance from numpy's
    averaging routines."""
    Z = np.asarray(Z, dtype=np.float64)
    return np.average(Z, axis=0, weights=w), np.cov(Z.T, aweights=w, bias=True)


def gaussian_mean_log_density(Z, q, mean, cov):
    """sum_i q_i log N(z_i; m, C), sample by sample, from scipy.stats."""
    return float(np.asarray(q) @ multivariate_normal.logpdf(Z, mean=mean, cov=cov))


# ---------------------------------------------------------------------------
# Bernoulli: per-coordinate grid search (the objective separates per bit)
# ---------------------------------------------------------------------------


def bernoulli_grid_mle(Z, w, floor=1e-3, step=2e-5):
    grid = np.arange(floor, 1.0 - floor + step / 2, step)
    Z = np.asarray(Z, dtype=np.float64)
    out = np.empty(Z.shape[1])
    for j in range(Z.shape[1]):
        ll = (w @ Z[:, j, None]) * np.log(grid) + (w @ (1.0 - Z[:, j, None])) * np.log1p(-grid)
        out[j] = grid[np.argmax(ll)]
    return out


def bernoulli_grid_map(Z, w, theta_prev, gamma, floor=1e-3, step=2e-5):
    """Grid argmax of sum_i w_i log[p(z_i|t) p0(t|lambda)] with the
    conjugate prior p0 ~ exp(lambda1 * logit(t) + lambda2 * log(1 - t))."""
    lam2 = 1.0 / gamma - 1.0
    lam1 = lam2 * np.asarray(theta_prev, dtype=np.float64)
    grid = np.arange(floor, 1.0 - floor + step / 2, step)
    Z = np.asarray(Z, dtype=np.float64)
    sw = w.sum()
    out = np.empty(Z.shape[1])
    for j in range(Z.shape[1]):
        loglik = (w @ Z[:, j, None]) * np.log(grid) + (w @ (1.0 - Z[:, j, None])) * np.log1p(-grid)
        logprior = lam1[j] * (np.log(grid) - np.log1p(-grid)) + lam2 * np.log1p(-grid)
        out[j] = grid[np.argmax(loglik + sw * logprior)]
    return out


def ppm_grid_objective(states, f, theta_t, grid_1d):
    """L(theta) - KL(tilted(theta_t) || tilted(theta)) at every point of the
    product grid grid_1d^d, in row-major order, from the full (G, M) table
    of Bernoulli log densities.  Returns the (G, d) grid and the (G,)
    objective.  States with f = 0 carry no tilted mass and are left out."""
    states = np.asarray(states)
    f = np.asarray(f, dtype=np.float64)
    thetas = np.array(list(itertools.product(grid_1d, repeat=states.shape[1])))
    support = f > 0.0
    log_pf = (
        bernoulli.logpmf(states[None, support, :], thetas[:, None, :]).sum(axis=2)
        + np.log(f[support])
    )  # (G, M) over the support
    L = logsumexp(log_pf, axis=1)
    log_tilted = log_pf - L[:, None]
    log_q = bernoulli.logpmf(states[support], theta_t).sum(axis=1) + np.log(f[support])
    log_q -= logsumexp(log_q)
    q = np.exp(log_q)
    kl = np.sum(q * (log_q - log_tilted), axis=1)
    return thetas, L - kl


# ---------------------------------------------------------------------------
# Gaussian: quasi-Newton over (m, cholesky(C)), density from scipy.stats
# ---------------------------------------------------------------------------


def _unpack_chol(x, d):
    m = x[:d]
    L = np.zeros((d, d))
    idx = np.tril_indices(d)
    L[idx] = x[d:]
    L[np.diag_indices(d)] = np.exp(np.diag(L))  # positive diagonal
    return m, L


def _pack_chol(m, C):
    d = len(m)
    L = np.linalg.cholesky(C)
    L = L.copy()
    L[np.diag_indices(d)] = np.log(np.diag(L))
    return np.concatenate([m, L[np.tril_indices(d)]])


def _gaussian_prior_terms(m, C, d):
    """eta and A for the (mean, lower-half second moment) layout:
    eta = (C^-1 m, halfvec(-C^-1/2) with doubled off-diagonals),
    A = m' C^-1 m / 2 + log|C| / 2."""
    P = np.linalg.inv(C)
    eta_m = P @ m
    H = -0.5 * P
    rows, cols = np.tril_indices(d)
    eta_S = np.array([H[i, j] * (1.0 if i == j else 2.0) for i, j in zip(rows, cols)])
    A = 0.5 * m @ P @ m + 0.5 * np.linalg.slogdet(C)[1]
    return np.concatenate([eta_m, eta_S]), A


def gaussian_numeric_mle(Z, w, lam1=None, lam2=0.0):
    """Maximize sum_i w_i log N(z_i; m, C) [+ sum(w) * (lam1.eta - lam2 A)]
    numerically; returns (m, S) with S the second moment."""
    Z = np.asarray(Z, dtype=np.float64)
    n, d = Z.shape
    sw = float(np.sum(w))

    def neg(x):
        m, L = _unpack_chol(x, d)
        C = L @ L.T
        try:
            val = float(w @ multivariate_normal.logpdf(Z, mean=m, cov=C))
        except np.linalg.LinAlgError:
            return 1e12
        if lam1 is not None:
            eta, A = _gaussian_prior_terms(m, C, d)
            val += sw * (lam1 @ eta - lam2 * A)
        return -val

    x0 = _pack_chol(Z.mean(axis=0) + 0.05, np.cov(Z.T, ddof=0) + 0.3 * np.eye(d))
    res = minimize(neg, x0, method="Nelder-Mead",
                   options={"xatol": 1e-9, "fatol": 1e-12, "maxiter": 40000,
                            "maxfev": 40000})
    m, L = _unpack_chol(res.x, d)
    C = L @ L.T
    return m, C + np.outer(m, m)


# ---------------------------------------------------------------------------
# Categorical: quasi-Newton over per-site logits (last category pinned at 0)
# ---------------------------------------------------------------------------


def categorical_numeric_mle(Z, w, arity, lam1=None, lam2=0.0):
    """Maximize sum_i w_i sum_j log softmax(eta_j)[z_ij]
    [+ sum(w) * (lam1.eta - lam2 A)]; returns (d, K) probabilities."""
    Z = np.asarray(Z, dtype=np.int64)
    n, d = Z.shape
    K = arity
    sw = float(np.sum(w))
    if lam1 is not None:
        lam1 = np.asarray(lam1, dtype=np.float64).reshape(d, K - 1)

    def neg(x):
        eta = np.concatenate([x.reshape(d, K - 1), np.zeros((d, 1))], axis=1)
        logZ = logsumexp(eta, axis=1)  # per site
        logp = eta - logZ[:, None]
        val = 0.0
        for j in range(d):
            val += float(w @ logp[j, Z[:, j]])
        if lam1 is not None:
            # eta_k = log(p_k / p_K) is exactly the pinned logit; A = -log p_K
            A = float(np.sum(logZ - eta[:, K - 1]))
            val += sw * (float(np.sum(lam1 * eta[:, : K - 1])) - lam2 * A)
        return -val

    x0 = np.zeros(d * (K - 1))
    res = minimize(neg, x0, method="BFGS", options={"gtol": 1e-12, "maxiter": 10000})
    eta = np.concatenate([res.x.reshape(d, K - 1), np.zeros((d, 1))], axis=1)
    p = np.exp(eta - logsumexp(eta, axis=1)[:, None])
    return p


# ---------------------------------------------------------------------------
# score-function (log-derivative-trick) updates, spelled out per family
# ---------------------------------------------------------------------------


def bernoulli_score_update(Z, w, p, alpha):
    Z = np.asarray(Z, dtype=np.float64)
    scores = Z / p - (1.0 - Z) / (1.0 - p)
    return p + alpha * (w @ scores)


def categorical_score_update(Z, w, probs, alpha):
    Z = np.asarray(Z, dtype=np.int64)
    d, K = probs.shape
    theta = probs[:, : K - 1].reshape(-1).copy()
    grad = np.zeros((d, K - 1))
    for i in range(Z.shape[0]):
        for j in range(d):
            v = Z[i, j]
            if v == K - 1:
                grad[j, :] += w[i] * (-1.0 / probs[j, K - 1])
            else:
                grad[j, v] += w[i] * (1.0 / probs[j, v])
    return theta + alpha * grad.reshape(-1)


def gaussian_score_update(Z, w, mean, second_moment, alpha):
    """One explicit step on (m, halfvec(S)): d logp/dC = (P u u' P - P) / 2
    with C = S - m m', then the chain rule for the tied layout."""
    Z = np.asarray(Z, dtype=np.float64)
    d = Z.shape[1]
    m = np.asarray(mean, dtype=np.float64)
    S = np.asarray(second_moment, dtype=np.float64)
    C = S - np.outer(m, m)
    P = np.linalg.inv(C)
    rows, cols = np.tril_indices(d)
    grad_m = np.zeros(d)
    grad_S = np.zeros(rows.shape[0])
    for zi, wi in zip(Z, w):
        u = zi - m
        Pu = P @ u
        GC = 0.5 * (np.outer(Pu, Pu) - P)
        # dC/dm_k = -(e_k m' + m e_k'): contributes -2 (GC m)_k
        grad_m += wi * (Pu - 2.0 * GC @ m)
        gs = np.array(
            [GC[i, j] * (1.0 if i == j else 2.0) for i, j in zip(rows, cols)]
        )
        grad_S += wi * gs
    theta = np.concatenate([m, S[rows, cols]])
    return theta + alpha * np.concatenate([grad_m, grad_S])


# ---------------------------------------------------------------------------
# A whole run, written out from the README: draw, weight, refit, repair
# ---------------------------------------------------------------------------

# The README's fixed repair constants.
PROB_FLOOR, EIG_FLOOR, JITTER_SCALE, MAX_JITTER_DOUBLINGS = 1e-3, 1e-12, 1e-10, 10


def reference_shape(spec, f):
    """``quantile:R``: weight 1 on the ceil(R N) largest values (R N rounded
    to 9 decimals), ties to the lower sample index; ``rank``: the average
    ascending rank from 1, over N."""
    kind, _, arg = spec.partition(":")
    n = f.size
    if kind == "rank":
        return rankdata(f, method="average") / n
    w = np.zeros(n)
    w[np.argsort(-f, kind="stable")[: math.ceil(round(float(arg) * n, 9))]] = 1.0
    return w


def reference_repair_cov(C):
    """C when its smallest eigenvalue is at least EIG_FLOOR; otherwise C plus
    jitter max(JITTER_SCALE tr(C) / d, EIG_FLOOR), doubling, until it is at
    least 2 EIG_FLOOR."""
    d = C.shape[0]
    if np.linalg.eigvalsh(C)[0] >= EIG_FLOOR:
        return C
    jitter = max(JITTER_SCALE * np.trace(C) / d, EIG_FLOOR)
    for _ in range(MAX_JITTER_DOUBLINGS):
        C = C + jitter * np.eye(d)
        jitter *= 2.0
        if np.linalg.eigvalsh(C)[0] >= 2.0 * EIG_FLOOR:
            return C
    raise ValueError("covariance not repairable")


def _bernoulli_steps(p0, f):
    def draw(p, n, seed):
        return bernoulli_reference_draw(p, n, seed)

    def refit(Z, w):
        return w @ np.asarray(Z, dtype=np.float64) / w.sum()

    def blend(p, pt, gamma):
        return np.clip((1.0 - gamma) * p + gamma * pt, PROB_FLOOR, 1.0 - PROB_FLOOR)

    def log_density(p, Z):
        return bernoulli.logpmf(np.asarray(Z, dtype=np.float64), p).sum(axis=1)

    def prior(p_prev, p, lam2):
        # lambda1 . eta - lambda2 A with lambda1 = lambda2 theta_prev,
        # eta = logit p and A = -sum log(1 - p).
        return lam2 * (p_prev @ (np.log(p) - np.log1p(-p))) + lam2 * np.sum(np.log1p(-p))

    return np.asarray(p0, dtype=np.float64), draw, refit, blend, log_density, prior, lambda p: p


def _gaussian_steps(m0, C0, f):
    def draw(mc, n, seed):
        return gaussian_reference_draw(np.linalg.cholesky(mc[1]), mc[0], n, seed)

    def refit(Z, w):
        return gaussian_weighted_moments(Z, w)

    def blend(mc, mct, gamma):
        # The README's covariance form of the (m, S) blend.
        (m, C), (mt, Ct) = mc, mct
        delta = m - mt
        C2 = (1.0 - gamma) * C + gamma * Ct + gamma * (1.0 - gamma) * np.outer(delta, delta)
        return (1.0 - gamma) * m + gamma * mt, reference_repair_cov(C2)

    def log_density(mc, Z):
        return multivariate_normal.logpdf(Z, mean=mc[0], cov=mc[1])

    def theta(mc):
        m, C = mc
        return np.concatenate([m, (C + np.outer(m, m))[np.tril_indices(m.size)]])

    def prior(mc_prev, mc, lam2):
        eta, A = _gaussian_prior_terms(mc[0], mc[1], mc[0].size)
        return lam2 * (theta(mc_prev) @ eta) - lam2 * A

    start = (np.asarray(m0, dtype=np.float64), np.asarray(C0, dtype=np.float64))
    return start, draw, refit, blend, log_density, prior, theta


def reference_run(family, init, f, shaping, gamma, n, iterations, seed):
    """``run()`` as the README states it, for ``closed_form`` (``gamma``
    None) and ``map_smoothed``: per iteration draw N points, weight them by
    the shaping of f, refit the weighted mean of T(z) and, for MAP, blend it
    with the previous parameters, then repair once.  Records hold the
    trace.csv columns and the prior-augmented free energy; the second value
    returned is the final theta.

    ``init`` is the Bernoulli p or the Gaussian (m, C); f maps an (N, d)
    batch to N values."""
    if family == "bernoulli":
        params, draw, refit, blend, log_density, prior, theta = _bernoulli_steps(init, f)
    else:
        params, draw, refit, blend, log_density, prior, theta = _gaussian_steps(*init, f)
    seeds = np.random.SeedSequence(seed).generate_state(iterations, dtype=np.uint64)
    records = []
    for t in range(iterations):
        Z = draw(params, n, int(seeds[t]))
        raw = np.asarray(f(Z), dtype=np.float64)
        w = reference_shape(shaping, raw)
        q = w / w.sum()
        tilde = refit(Z, w)
        nxt = blend(params, tilde, 1.0 if gamma is None else gamma)
        # F = sum_i q_i [log p(z_i | theta') + log w_i] + H[q], over q_i > 0.
        act = q > 0.0
        fe = float(q[act] @ (log_density(nxt, Z[act]) + np.log(w[act]) - np.log(q[act])))
        fe_map = None if gamma is None else fe + prior(params, nxt, 1.0 / gamma - 1.0)
        records.append({
            "iter": t,
            "best_raw_f": raw.max(),
            "mean_raw_f": raw.mean(),
            "weighted_mean_shaped_f": q @ w,
            "free_energy_estimate": fe,
            "ess": 1.0 / np.sum(q * q),
            "free_energy_map": fe_map,
        })
        params = nxt
    return records, theta(params)


# ---------------------------------------------------------------------------
# Textbook EDAs, each written from its own paper's update equations
# ---------------------------------------------------------------------------


def truncation_select(Z, f, rho):
    """Truncation selection: the ceil(rho N) rows of Z with the largest f
    (rho N rounded to 9 decimals), ties to the lower row index."""
    n = len(f)
    best = np.argsort(-np.asarray(f), kind="stable")[: math.ceil(round(rho * n, 9))]
    return np.asarray(Z)[np.sort(best)]


def _bernoulli_eda(p0, f, n, rho, iterations, seed, update):
    # Shared by UMDA and PBIL: draw N bit strings from the product of
    # Bernoullis p, select by truncation, update p from the selected rows
    # and clip it into the run's floors [PROB_FLOOR, 1 - PROB_FLOOR] (the
    # textbook algorithms have none).  Returns the (best f, mean f) of each
    # generation and the final p.
    p = np.clip(np.asarray(p0, dtype=np.float64), PROB_FLOOR, 1.0 - PROB_FLOOR)
    seeds = np.random.SeedSequence(seed).generate_state(iterations, dtype=np.uint64)
    records = []
    for t in range(iterations):
        Z = bernoulli_reference_draw(p, n, int(seeds[t]))
        raw = np.asarray(f(Z), dtype=np.float64)
        records.append((raw.max(), raw.mean()))
        selected_mean = truncation_select(Z, raw, rho).mean(axis=0)
        p = np.clip(update(p, selected_mean), PROB_FLOOR, 1.0 - PROB_FLOOR)
    return records, p


def umda_run(p0, f, n, rho, iterations, seed):
    """UMDA with truncation selection (Muehlenbein and Paass, PPSN IV 1996):
    each marginal p_j becomes the frequency of ones at bit j among the
    selected strings."""
    return _bernoulli_eda(p0, f, n, rho, iterations, seed, lambda p, freq: freq)


def pbil_run(p0, f, n, rho, alpha, iterations, seed):
    """PBIL (Baluja, CMU-CS-94-163, 1994) learning from the mean of the
    selected strings: p <- (1 - alpha) p + alpha * mean(selected), with
    learning rate alpha."""
    return _bernoulli_eda(p0, f, n, rho, iterations, seed,
                          lambda p, freq: (1.0 - alpha) * p + alpha * freq)


def cem_run(m0, C0, f, n, rho, iterations, seed):
    """The cross-entropy method for continuous optimization with a Gaussian
    family (Rubinstein 1999; de Boer, Kroese, Mannor and Rubinstein, Ann.
    Oper. Res. 2005), unsmoothed: the next mean and covariance are the
    elite sample's mean and its covariance about that mean.  Returns the
    final (m, C)."""
    m, C = np.asarray(m0, dtype=np.float64), np.asarray(C0, dtype=np.float64)
    seeds = np.random.SeedSequence(seed).generate_state(iterations, dtype=np.uint64)
    for t in range(iterations):
        Z = gaussian_reference_draw(np.linalg.cholesky(C), m, n, int(seeds[t]))
        elite = truncation_select(Z, f(Z), rho)
        m = elite.mean(axis=0)
        C = reference_repair_cov(np.cov(elite.T, bias=True))
    return m, C


def smoothed_cem_step(m, C, elite, gamma):
    """One CEM step with smoothed updating (de Boer et al. 2005): the elite
    mean and the covariance about it, each blended into (m, C) at rate
    gamma."""
    mt = elite.mean(axis=0)
    return (1.0 - gamma) * m + gamma * mt, (1.0 - gamma) * C + gamma * np.cov(elite.T, bias=True)


def rank_mu_cma_step(m, C, elite, weights, gamma):
    """One rank-mu CMA-ES step (Hansen, arXiv:1604.00772: the weighted
    recombination of the mean and the rank-mu update) with step size
    sigma = 1, no rank-one term (c_1 = 0, no evolution paths) and learning
    rates c_m = c_mu = gamma, for weights summing to 1: m' = m + c_m sum_i
    w_i y_i and C' = (1 - c_mu) C + c_mu sum_i w_i y_i y_i^T, with
    y_i = x_i - m centred on the old mean."""
    Y = elite - m
    return m + gamma * (weights @ Y), (1.0 - gamma) * C + gamma * (Y.T * weights) @ Y
