"""Oracles for the tests, sharing no code with what they check.

The brute-force ensemble oracles marginalize z analytically on a discrete
weight grid and evaluate the mixture CDF directly, with scipy.stats
densities. The scipy references are the public scipy.linalg calls that the
kernels' direct LAPACK solves stand in for. The CAR full conditional is the
definition of the temporal prior, and the point-by-point grid cell is the
definition that GridSpec.cells_of vectorizes. The numpy-scalar logit sweep
and the masked inverse logit are the forms that update_q and inv_logit
replaced, kept as their bit-for-bit references.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import linalg
from scipy.stats import norm

from pmfusion.ensemble import MixtureDistribution
from pmfusion.errors import DomainError, OutOfDomainError
from pmfusion.geo import GridSpec


def default_weight_grid(n: int = 2000) -> np.ndarray:
    return (np.arange(n, dtype=float) + 0.5) / n


def brute_force_weight_posterior(
    y: np.ndarray,
    mu1: np.ndarray,
    var1: np.ndarray,
    mu2: np.ndarray,
    var2: np.ndarray,
    grid: np.ndarray | None = None,
    prior: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact discrete posterior over a single site's weight, z marginalized.

    posterior(w) on the grid is proportional to
    prior(w) * prod_t [w phi1(y_t) + (1 - w) phi2(y_t)]; the default grid is
    2,000 midpoints of (0, 1) and the default prior is flat (Beta(1, 1)).
    """
    if grid is None:
        grid = default_weight_grid()
    grid = np.asarray(grid, dtype=float)
    if np.any(grid <= 0.0) or np.any(grid >= 1.0):
        raise DomainError("weight grid must lie strictly inside (0, 1)")
    y = np.asarray(y, dtype=float)
    ll1 = norm.logpdf(y, loc=mu1, scale=np.sqrt(var1))
    ll2 = norm.logpdf(y, loc=mu2, scale=np.sqrt(var2))
    logw = np.log(grid)[:, None]
    log1mw = np.log1p(-grid)[:, None]
    loglik = np.logaddexp(logw + ll1[None, :], log1mw + ll2[None, :]).sum(axis=1)
    if prior is not None:
        loglik = loglik + np.log(np.asarray(prior, dtype=float))
    post = np.exp(loglik - loglik.max())
    return grid, post / post.sum()


def brute_force_mixture_cdf(m: MixtureDistribution, x) -> float | np.ndarray:
    """Direct mixture CDF: w Phi((x-mu1)/sd1) + (1-w) Phi((x-mu2)/sd2)."""
    c = m.w * norm.cdf(x, loc=m.mu1, scale=np.sqrt(m.var1)) + (1.0 - m.w) * norm.cdf(
        x, loc=m.mu2, scale=np.sqrt(m.var2)
    )
    return c


def weight_posterior_mean(grid: np.ndarray, post: np.ndarray) -> float:
    return float(np.dot(grid, post))


# -- scipy references for pmfusion.kernels' LAPACK solves -----------------


def scipy_tri_solve(l, b, trans=0):
    return linalg.solve_triangular(l, b, lower=True, trans=trans)


def scipy_chol_factor_solve(l, b):
    return linalg.cho_solve((l, True), b)


def scipy_tridiag_mvn(prec_diag, prec_off, b, rng):
    """sample_tridiag_mvn through scipy's banded Cholesky and banded solves."""
    t = prec_diag.shape[0]
    ab = np.zeros((2, t))
    ab[1] = prec_diag
    ab[0, 1:] = prec_off
    u = linalg.cholesky_banded(ab, lower=False)
    mean = linalg.cho_solve_banded((u, False), b)
    z = rng.standard_normal(t)
    return mean + linalg.solve_banded((0, 1), u, z)


# -- numpy-scalar references for the weight-field sampler loops ------------


def masked_inv_logit(q):
    """1 / (1 + exp(-q)) on q >= 0 and exp(q) / (1 + exp(q)) elsewhere, by
    boolean-mask scatters."""
    arr = np.asarray(q, dtype=float)
    out = np.empty_like(arr)
    pos = arr >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-arr[pos]))
    e = np.exp(arr[~pos])
    out[~pos] = e / (1.0 + e)
    return float(out) if np.isscalar(q) else out


def _log1pexp(x):
    return x if x > 30.0 else math.log1p(math.exp(x))


def numpy_scalar_update_q(z_sum, t_s, q, prec, r, step_sd, rng):
    """The sequential logit MH sweep with every per-site operand a numpy
    scalar read from its array."""
    s_count = q.shape[0]
    accepted = np.zeros(s_count, dtype=bool)
    normals = rng.standard_normal(s_count)
    uniforms = rng.random(s_count)
    for s in range(s_count):
        var_s = 1.0 / prec[s, s]
        mean_s = q[s] - r[s] * var_s
        prop = q[s] + step_sd[s] * normals[s]
        d_lik = z_sum[s] * (prop - q[s]) - t_s[s] * (_log1pexp(prop) - _log1pexp(q[s]))
        d_pri = ((q[s] - mean_s) ** 2 - (prop - mean_s) ** 2) / (2.0 * var_s)
        if math.log(uniforms[s]) < d_lik + d_pri:
            dq = prop - q[s]
            r += prec[:, s] * dq
            q[s] = prop
            accepted[s] = True
    return accepted


# -- model and geometry definitions ----------------------------------------


def car_full_conditional(t: int, series: np.ndarray, eta: float, sigma2: float) -> tuple[float, float]:
    """Mean and variance of a_t given the rest of the series under the CAR model.

    t is 1-based with 1 <= t <= T; series holds the full vector a_1..a_T
    (the value at t itself is ignored). The mean is eta times the average of
    the lag neighbors, the variance sigma2 over their count.
    """
    series = np.asarray(series, dtype=float)
    horizon = series.shape[0]
    if not 1 <= t <= horizon:
        raise DomainError(f"t={t} outside 1..{horizon}")
    neighbors = []
    if t > 1:
        neighbors.append(series[t - 2])
    if t < horizon:
        neighbors.append(series[t])
    n_t = float(len(neighbors))
    return eta * float(np.sum(neighbors)) / n_t, sigma2 / n_t


def grid_contains(grid: GridSpec, x: float, y: float) -> bool:
    xmin, ymin, xmax, ymax = grid.extent
    return xmin <= x <= xmax and ymin <= y <= ymax


def grid_cell_of(grid: GridSpec, x: float, y: float) -> tuple[int, int]:
    """(row, col) of one point; boundary points go to the higher cell,
    clipped so the far edge still belongs to the last cell."""
    if not grid_contains(grid, x, y):
        raise OutOfDomainError(f"point ({x}, {y}) outside grid extent {grid.extent}")
    col = min(int((x - grid.origin_x) / grid.cell_km), grid.n_cols - 1)
    row = min(int((y - grid.origin_y) / grid.cell_km), grid.n_rows - 1)
    return row, col
