"""Oracles for the tests, sharing no code with what they check.

The brute-force ensemble oracles marginalize z analytically on a discrete
weight grid and evaluate the mixture CDF directly, with scipy.stats
densities. The scipy references are the public scipy.linalg calls that the
kernels' direct LAPACK solves stand in for, and scipy_kriging is
ExpKriging's arithmetic rebuilt on every call. The bisection, the
broadcast distance matrix and the csv.writer bytes are the forms that
mixture_quantiles_arrays, distance_matrix and write_csv replaced. The CAR
full conditional is the definition of the temporal prior, and the
point-by-point grid cell is the definition that GridSpec.cells_of
vectorizes. The numpy-scalar logit sweep and the masked inverse logit are
the forms that update_q and inv_logit replaced, kept as their bit-for-bit
references. The numpy-scalar sweep, the range move that solves both
quadratic forms and the per-row inv_logit membership draw are also the
forms that the array accept tests replaced. membership_prob is the
vectorized membership probability the ensemble module once exported; the
samplers draw from _EnsembleProblem.assignment_probs. SingleChainBlocks is the
one-chain downscaler sampler in the record layout, fitted to one table at a
time, whose residual sums the grid statistics of the batch must equal.
cell_read_csv is the per-cell reader that io.read_csv's column-wise
conversion replaced. The dict_* functions are the per-row key loops that
io.key_index and io.key_rows replaced, and the loaders and joins as they
were built on them and on cell_read_csv. Recorder is the consumer of a
chain's kept states that keeps a copy of each, for the tests that inspect
draws; the package streams every predictive and records none.
"""

from __future__ import annotations

import csv
import io
import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np
from scipy import linalg
from scipy.special import ndtr
from scipy.stats import norm

from pmfusion import io as pio
from pmfusion.chain import Chain
from pmfusion.config import MCMCConfig
from pmfusion.downscaler import A_PRIOR_VAR, _Blocks, _Predictor, _run_chains, _training_set
from pmfusion.ensemble import MixtureDistribution, WeightFieldSamples
from pmfusion.errors import DomainError, InsufficientDataError, OutOfDomainError, ParseError, SchemaError
from pmfusion.geo import CTM, SAT, SOURCES, GridSpec, Location, distance_matrix
from pmfusion.kernels import (
    ETA_GRID,
    car_logdet_table,
    car_neighbor_count,
    car_precision_tridiag,
    chol_factor_solve,
    clipped_logit,
    inv_logit,
    jittered_cholesky,
    norm_logpdf,
    sample_from_log_weights,
    sample_tridiag_mvn,
    tri_solve,
)
from pmfusion.tables import N_COVARIATES, ObservationTable, PredictiveTable


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


def bisection_mixture_quantiles(w, mu1, var1, mu2, var2, p, tol=1e-10):
    """Mixture quantiles by bisection on the exact CDF, every row until the
    widest bracket is below tol in units of its wider SD: the solver that
    bracketed Newton replaced."""
    sd1, sd2 = np.sqrt(var1), np.sqrt(var2)
    lo = np.minimum(mu1 - 10 * sd1, mu2 - 10 * sd2)
    hi = np.maximum(mu1 + 10 * sd1, mu2 + 10 * sd2)
    scale = np.maximum(sd1, sd2)

    def cdf(x):
        return w * ndtr((x - mu1) / sd1) + (1.0 - w) * ndtr((x - mu2) / sd2)

    for _ in range(100):
        mid = 0.5 * (lo + hi)
        below = cdf(mid) < p
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
        if np.max((hi - lo) / np.maximum(scale, 1e-300)) < tol:
            break
    return 0.5 * (lo + hi)


# -- broadcast and csv-module references for geo and io ---------------------


def broadcast_distance_matrix(xa, xb=None):
    """Distances through an (n, m, 2) difference array, with the diagonal
    zeroed and the square matrix symmetrized: the form distance_matrix
    computes without 3-D temporaries."""
    square = xb is None
    xb = xa if square else xb
    diff = xa[:, None, :] - xb[None, :, :]
    d = np.sqrt(np.sum(diff * diff, axis=-1))
    if square:
        np.fill_diagonal(d, 0.0)
        d = 0.5 * (d + d.T)
    return d


def csv_writer_bytes(fmt, columns, meta) -> bytes:
    """A file of this format as csv.writer (QUOTE_MINIMAL) writes the cells:
    str for text and integers, repr for numbers, empty for NaN."""
    out = io.StringIO(newline="")
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(fmt.columns)
    cells = []
    for kind, values in zip(fmt.kinds, columns):
        if kind == "s":
            cells.append([str(v) for v in values])
        elif kind == "i":
            cells.append([str(int(v)) for v in values])
        else:
            cells.append(["" if v != v else repr(v) for v in np.asarray(values, dtype=float).tolist()])
    writer.writerows(zip(*cells))
    out.write("# " + " ".join(f"{k}={v}" for k, v in meta.items()) + "\n")
    return out.getvalue().encode()


# -- scipy references for pmfusion.kernels' LAPACK solves -----------------


def scipy_kriging(d_obs, d_cross, values, range_km):
    """ExpKriging's (mean, residual) with the factor, its trtri inverse and
    the trmm product rebuilt for this call: the reference for the operators
    it keeps."""
    chol, _ = jittered_cholesky(np.exp(-d_obs / range_km))
    inv_t = linalg.lapack.dtrtri(chol.T, lower=0)[0]
    lk = linalg.blas.dtrmm(1.0, inv_t, np.exp(-d_cross / range_km).T, side=1, lower=0).T
    return lk.T @ (inv_t.T @ values), np.maximum(1.0 - np.sum(lk * lk, axis=0), 0.0)


def scipy_tri_solve(l, b, trans=0):
    return linalg.solve_triangular(l, b, lower=True, trans=trans)


def scipy_chol_factor_solve(l, b):
    return linalg.cho_solve((l, True), b)


def scipy_tridiag_mvn(prec_diag, prec_off, b, rng):
    """sample_tridiag_mvn through scipy's banded Cholesky and banded solves,
    U x = z by solve_banded's general banded LU (LAPACK gbsv)."""
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


# -- the weight-field steps before their accept tests moved to arrays ------


def solving_update_rho(q, tau2, rho, d, corr_chol, step, rng, mcmc, quad=None, logdet=None):
    """The range move that solves both states' quadratic forms and sums the
    full MVN log density; quad and logdet are accepted and ignored."""
    prop = float(rho * math.exp(step * rng.standard_normal()))
    chol_prop, _ = jittered_cholesky(np.exp(-d / prop))

    def log_target(r, chol):
        half = tri_solve(chol, q)
        log_lik = -0.5 * (
            q.shape[0] * math.log(2.0 * math.pi * tau2)
            + 2.0 * float(np.sum(np.log(np.diag(chol))))
            + float(half @ half) / tau2
        )
        return log_lik + (mcmc.rho_prior_shape - 1.0) * math.log(r) - mcmc.rho_prior_rate * r

    delta = log_target(prop, chol_prop) - log_target(rho, corr_chol) + math.log(prop) - math.log(rho)
    if math.log(rng.random()) < delta:
        return prop, True, chol_prop
    return rho, False, corr_chol


def membership_prob(y, mu1, var1, mu2, var2, w):
    """Posterior probability that y came from component 1."""
    delta = norm_logpdf(y, mu1, var1) - norm_logpdf(y, mu2, var2)
    return inv_logit(clipped_logit(w) + delta)


def inv_logit_assignment_sums(prob, q, rng):
    """Step 1 with a per-row inv_logit(q_s + delta_ll) membership probability."""
    p = inv_logit(q[prob.row_site] + prob.delta_ll)
    z = rng.random(prob.rows.size) < p
    return np.bincount(prob.row_site, weights=z.astype(float), minlength=prob.s_count)


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


# -- the single-chain downscaler sampler -----------------------------------


def mvn_logpdf_zero_mean(x: np.ndarray, chol_lower: np.ndarray) -> float:
    """Log density of N(0, C) at x given the lower Cholesky factor of C."""
    x = np.asarray(x, dtype=float)
    w = tri_solve(chol_lower, x)
    n = x.shape[0]
    return -0.5 * (
        n * np.log(2.0 * np.pi)
        + 2.0 * float(np.sum(np.log(np.diag(chol_lower))))
        + float(w @ w)
    )


class Recorder:
    """A consumer of downscaler._run_chains that keeps a copy of each field of
    every kept state; finish() stacks them by field, indexed by kept draw."""

    def __init__(self):
        self.draws = {}

    def add(self, state: dict) -> None:
        for name, value in state.items():
            self.draws.setdefault(name, []).append(np.array(value, copy=True))

    def finish(self) -> dict:
        return {name: np.array(values) for name, values in self.draws.items()}


class RecordedFit(SimpleNamespace):
    """A chain's DownscalerFit fields, its predictions those of its own
    consumers, and its draws by state field (fit.gamma, fit.v1, ...)."""

    def __len__(self) -> int:
        return self.sigma2_y.shape[0]


def record_chains(blocks, consumers=None) -> list[RecordedFit]:
    """_run_chains(blocks, consumers) with a Recorder ahead of each chain's
    consumers (consumers[f], by default none): each chain's fit with its draws."""
    consumers = consumers or [[] for _ in range(blocks.F)]
    fits = _run_chains(blocks, [[Recorder(), *own] for own in consumers])
    return [RecordedFit(**{**vars(fit), "predictions": fit.predictions[1:]}, **fit.predictions[0]) for fit in fits]


def recorded_fit(data, source, mcmc, requests=()) -> RecordedFit:
    """fit_downscaler(data, source, mcmc, requests), its draws recorded."""
    chain = _training_set(data, source, None, mcmc.seed)
    predictors = [_Predictor(data, source, chain, *request) for request in requests]
    return record_chains(_Blocks(data, source, mcmc, [chain]), [predictors])[0]


# sweeps between rebuilds of SingleChainBlocks' running residual, to cap its round-off
_REFRESH_EVERY = 128


class SingleChainBlocks:
    """The downscaler's Gibbs/MH blocks for one chain on one table, in the
    record layout: a residual kept over the chain's records, and the per-day
    and per-site sums taken from it. pmfusion.downscaler._Blocks builds the
    same statistics on the (day x site) grid for F chains at once."""

    def __init__(self, data: ObservationTable, source: str, mcmc: MCMCConfig):
        if source not in (CTM, SAT):
            raise ValueError(f"unknown source {source!r}")
        self.source = source
        self.mcmc = mcmc
        mask = data.usable_mask(source)
        bad = [
            data.sites[s].site_id
            for s in range(data.n_sites)
            if not mask[data.site_idx == s].any()
        ]
        if bad:
            raise InsufficientDataError(
                f"sites with no usable {source} records: {', '.join(bad)}"
            )
        if data.n_days < 2:
            raise InsufficientDataError("need a horizon of at least 2 days")

        self.sites = data.sites
        self.S = data.n_sites
        self.T = data.n_days
        # usable records grouped by site, so that per-site sums and per-site
        # terms work on contiguous runs
        rows = np.flatnonzero(mask)[np.argsort(data.site_idx[mask], kind="stable")]
        self.site = data.site_idx[rows]
        self.day0 = data.day[rows] - 1
        self.y = data.y[rows]
        self.x = data.x_for(source)[rows]
        self.n = self.y.shape[0]

        if source == SAT:
            z_raw = data.z[rows]
            self.z_mean = z_raw.mean(axis=0)
            self.z_sd = z_raw.std(axis=0)
            flat = np.flatnonzero(self.z_sd <= 0)
            if flat.size:
                raise InsufficientDataError(
                    f"constant covariate column(s) {flat.tolist()}; "
                    "gamma is not identifiable under a flat prior"
                )
            self.zmat = (z_raw - self.z_mean) / self.z_sd
            self.ztz = self.zmat.T @ self.zmat
            self.ztz_chol, _ = jittered_cholesky(self.ztz)
            self.p_cov = N_COVARIATES
        else:
            self.z_mean = np.zeros(N_COVARIATES)
            self.z_sd = np.ones(N_COVARIATES)
            self.zmat = self.ztz = self.ztz_chol = None
            self.p_cov = 0

        self.counts_day = np.bincount(self.day0, minlength=self.T).astype(float)
        self.sum_x2_day = np.bincount(self.day0, weights=self.x**2, minlength=self.T)
        # records per site, where each site's run starts, and per-site sums of 1, x and x^2
        self.site_runs = np.bincount(self.site, minlength=self.S)
        self.site_start = np.cumsum(self.site_runs) - self.site_runs
        self.site_gram = [np.add.reduceat(w, self.site_start) for w in (np.ones(self.n), self.x, self.x**2)]
        self.n_t = car_neighbor_count(self.T)
        self.logdet_table = car_logdet_table(self.T)
        self.d_sites = distance_matrix(self.sites)
        diam = float(self.d_sites.max())
        self.theta_floor = max(diam * 1e-4, 1e-6)

        rng = np.random.default_rng(mcmc.seed)
        self.rng = rng

        # starting values from a pooled least-squares line through (x, y)
        xbar, ybar = self.x.mean(), self.y.mean()
        vx = float(np.var(self.x))
        b0 = float(np.cov(self.x, self.y)[0, 1] / vx) if vx > 0 and self.n > 1 else 0.0
        day_sum = np.bincount(self.day0, weights=self.y - b0 * self.x, minlength=self.T)
        day_mean = np.where(
            self.counts_day > 0, day_sum / np.maximum(self.counts_day, 1.0), ybar - b0 * xbar
        )
        self.alpha0 = day_mean.copy()
        self.beta0 = np.full(self.T, b0)
        self.gamma = np.zeros(self.p_cov)
        self.v1 = np.zeros(self.S)
        self.v2 = np.zeros(self.S)
        self.a = np.array([1.0, 0.0, 1.0])
        resid = self.y - self.alpha0[self.day0] - b0 * self.x
        self.sigma2_y = max(float(np.var(resid)), 1e-3)
        self.sigma2_a = max(float(np.var(self.alpha0)), 0.1)
        self.sigma2_b = 0.1
        self.eta_a = 0.5
        self.eta_b = 0.5
        self.theta1 = max(diam / 4.0, self.theta_floor)
        self.theta2 = max(diam / 4.0, self.theta_floor)
        self._set_range_cache(1, self._range_chol(self.theta1))
        self._set_range_cache(2, self._range_chol(self.theta2))
        self.chain = Chain(mcmc, theta1=0.5, theta2=0.5)
        self.n_sweeps = 0
        self.rebuild_residual()

    # -- residual helpers ------------------------------------------------

    def _site_effects(self) -> tuple[np.ndarray, np.ndarray]:
        alpha1 = self.a[0] * self.v1
        beta1 = self.a[1] * self.v1 + self.a[2] * self.v2
        return alpha1, beta1

    @property
    def resid(self) -> np.ndarray:
        """y - alpha0 - beta0 x - alpha1 - beta1 x - z gamma, kept by increments."""
        if self._site_shift is not None:
            d_alpha1, d_beta1 = (np.repeat(d, self.site_runs) for d in self._site_shift)
            self._resid -= d_alpha1 + d_beta1 * self.x
            self._site_shift = None
        return self._resid

    @resid.setter
    def resid(self, value: np.ndarray) -> None:
        self._resid, self._site_shift = value, None

    def rebuild_residual(self) -> None:
        """Recompute resid from the state; call after setting state directly."""
        alpha1, beta1 = self._site_effects()
        d0, s = self.day0, self.site
        self.resid = self.y - self.alpha0[d0] - alpha1[s] - (self.beta0[d0] + beta1[s]) * self.x
        if self.p_cov:
            self.resid -= self.zmat @ self.gamma
        self._by_site = None

    def _site_sums(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-site sums of resid and x * resid, kept while only site terms change."""
        if self._by_site is None:
            sr = np.add.reduceat(self.resid, self.site_start)
            self._by_site = sr, np.add.reduceat(self.x * self.resid, self.site_start)
        return self._by_site

    def _shift_site_terms(self, d_alpha1: np.ndarray, d_beta1: np.ndarray) -> None:
        """Take a change of the site terms out of the per-site sums now and out
        of resid when it is next read, so that consecutive site blocks pass
        over the records once."""
        sr, sxr = self._site_sums()
        n, sx, sxx = self.site_gram
        self._by_site = sr - d_alpha1 * n - d_beta1 * sx, sxr - d_alpha1 * sx - d_beta1 * sxx
        if self._site_shift is not None:
            d_alpha1, d_beta1 = d_alpha1 + self._site_shift[0], d_beta1 + self._site_shift[1]
        self._site_shift = d_alpha1, d_beta1

    def _range_chol(self, theta: float) -> np.ndarray:
        """Cholesky factor of the unit-variance site correlation at range theta."""
        chol, _ = jittered_cholesky(np.exp(-self.d_sites / theta))
        return chol

    def _set_range_cache(self, which: int, chol: np.ndarray) -> None:
        rinv = chol_factor_solve(chol, np.eye(self.S))
        if which == 1:
            self.chol_r1, self.rinv1 = chol, rinv
        else:
            self.chol_r2, self.rinv2 = chol, rinv

    # -- Gibbs blocks ----------------------------------------------------

    def draw_gamma(self) -> None:
        if not self.p_cov:
            return
        # Z' r for r = resid + Z gamma, the residual without the covariate term
        mean = chol_factor_solve(self.ztz_chol, self.zmat.T @ self.resid + self.ztz @ self.gamma)
        z = self.rng.standard_normal(self.p_cov)
        gamma = mean + np.sqrt(self.sigma2_y) * tri_solve(self.ztz_chol, z, trans=1)
        self.resid -= self.zmat @ (gamma - self.gamma)
        self.gamma = gamma
        self._by_site = None

    def _daily_series_draw(
        self, weights_diag: np.ndarray, wr_day: np.ndarray,
        eta: float, sigma2_car: float,
    ) -> np.ndarray:
        prior_diag, prior_off = car_precision_tridiag(self.n_t, eta, sigma2_car)
        post_diag = prior_diag + weights_diag / self.sigma2_y
        b = wr_day / self.sigma2_y
        return sample_tridiag_mvn(post_diag, prior_off, b, self.rng)

    def draw_alpha0(self) -> None:
        wr = np.bincount(self.day0, weights=self.resid, minlength=self.T)
        wr += self.counts_day * self.alpha0
        alpha0 = self._daily_series_draw(self.counts_day, wr, self.eta_a, self.sigma2_a)
        self.resid -= (alpha0 - self.alpha0)[self.day0]
        self.alpha0 = alpha0
        self._by_site = None

    def draw_beta0(self) -> None:
        wr = np.bincount(self.day0, weights=self.x * self.resid, minlength=self.T)
        wr += self.sum_x2_day * self.beta0
        beta0 = self._daily_series_draw(self.sum_x2_day, wr, self.eta_b, self.sigma2_b)
        self.resid -= (beta0 - self.beta0)[self.day0] * self.x
        self.beta0 = beta0
        self._by_site = None

    def _draw_site_field(self, v: np.ndarray, k0: float, k1: float, rinv: np.ndarray) -> np.ndarray:
        """Draw the site field v, which enters a record at site s as v[s] (k0 + k1 x)."""
        sr, sxr = self._site_sums()
        n, sx, sxx = self.site_gram
        g = k0 * k0 * n + 2.0 * k0 * k1 * sx + k1 * k1 * sxx
        prec = rinv.copy()
        prec.flat[:: self.S + 1] += g / self.sigma2_y
        chol, _ = jittered_cholesky(prec)
        mean = chol_factor_solve(chol, (k0 * sr + k1 * sxr + g * v) / self.sigma2_y)
        z = self.rng.standard_normal(self.S)
        new = mean + tri_solve(chol, z, trans=1)
        self._shift_site_terms(k0 * (new - v), k1 * (new - v))
        return new

    def draw_v1(self) -> None:
        self.v1 = self._draw_site_field(self.v1, self.a[0], self.a[1], self.rinv1)

    def draw_v2(self) -> None:
        self.v2 = self._draw_site_field(self.v2, 0.0, self.a[2], self.rinv2)

    def draw_a(self) -> None:
        sr, sxr = self._site_sums()
        alpha1, beta1 = self._site_effects()
        n, sx, sxx = self.site_gram
        # A's regressors in a record are f = (v1, v1 x, v2 x); f'f and f'e, with
        # e = resid + alpha1 + beta1 x the residual without the site terms,
        # are sums over sites
        e, xe = sr + alpha1 * n + beta1 * sx, sxr + alpha1 * sx + beta1 * sxx
        u = np.array([self.v1, self.v1, self.v2])
        ftf = (u[:, None] * np.array([[n, sx, sx], [sx, sxx, sxx], [sx, sxx, sxx]]) * u).sum(axis=2)
        prec = ftf / self.sigma2_y + np.eye(3) / A_PRIOR_VAR
        rhs = (u * np.array([e, xe, xe])).sum(axis=1) / self.sigma2_y
        chol, _ = jittered_cholesky(prec)
        mean = chol_factor_solve(chol, rhs)
        z = self.rng.standard_normal(3)
        a = mean + tri_solve(chol, z, trans=1)
        # reflect into the identified half-space A11 >= 0, A22 >= 0; the joint
        # sign flips leave alpha1, beta1 and both GP priors invariant
        if a[0] < 0:
            a[0], a[1] = -a[0], -a[1]
            self.v1 = -self.v1
        if a[2] < 0:
            a[2] = -a[2]
            self.v2 = -self.v2
        self.a = a
        new_alpha1, new_beta1 = self._site_effects()
        self._shift_site_terms(new_alpha1 - alpha1, new_beta1 - beta1)

    def _inv_gamma(self, shape: float, rate: float) -> float:
        return float(rate / self.rng.gamma(shape, 1.0))

    def draw_sigma2_y(self) -> None:
        ssr = float(self.resid @ self.resid)
        self.sigma2_y = self._inv_gamma(self.mcmc.ig_a + 0.5 * self.n, self.mcmc.ig_b + 0.5 * ssr)

    @staticmethod
    def _car_quads(series: np.ndarray, n_t: np.ndarray) -> tuple[float, float]:
        qd = float(np.dot(n_t * series, series))
        qw = 2.0 * float(np.dot(series[:-1], series[1:]))
        return qd, qw

    def draw_car_variance(self, series: np.ndarray, eta: float) -> float:
        qd, qw = self._car_quads(series, self.n_t)
        quad = qd - eta * qw
        return self._inv_gamma(self.mcmc.ig_a + 0.5 * self.T, self.mcmc.ig_b + 0.5 * quad)

    def draw_eta(self, series: np.ndarray, sigma2_car: float) -> float:
        _, qw = self._car_quads(series, self.n_t)
        logw = 0.5 * self.logdet_table + ETA_GRID * (qw / (2.0 * sigma2_car))
        return float(ETA_GRID[sample_from_log_weights(logw[None], [self.rng])[0]])

    def draw_sigma2_alpha0(self) -> None:
        self.sigma2_a = self.draw_car_variance(self.alpha0, self.eta_a)

    def draw_sigma2_beta0(self) -> None:
        self.sigma2_b = self.draw_car_variance(self.beta0, self.eta_b)

    def draw_eta_alpha0(self) -> None:
        self.eta_a = self.draw_eta(self.alpha0, self.sigma2_a)

    def draw_eta_beta0(self) -> None:
        self.eta_b = self.draw_eta(self.beta0, self.sigma2_b)

    def _log_range_prior(self, theta: float) -> float:
        return (self.mcmc.rho_prior_shape - 1.0) * np.log(theta) - self.mcmc.rho_prior_rate * theta

    def draw_theta(self, which: int) -> bool:
        """Random-walk MH on log theta_which; returns whether the move was accepted."""
        theta = self.theta1 if which == 1 else self.theta2
        v = self.v1 if which == 1 else self.v2
        chol = self.chol_r1 if which == 1 else self.chol_r2
        name = f"theta{which}"
        prop = float(theta * np.exp(self.chain.step(name) * self.rng.standard_normal()))
        accepted = False
        if prop >= self.theta_floor:
            chol_prop = self._range_chol(prop)
            cur = mvn_logpdf_zero_mean(v, chol) + self._log_range_prior(theta) + np.log(theta)
            new = mvn_logpdf_zero_mean(v, chol_prop) + self._log_range_prior(prop) + np.log(prop)
            if np.log(self.rng.random()) < new - cur:
                accepted = True
                self._set_range_cache(which, chol_prop)
                if which == 1:
                    self.theta1 = prop
                else:
                    self.theta2 = prop
        self.chain.tried(name, accepted)
        return accepted

    def sweep(self) -> None:
        self.draw_gamma()
        self.draw_alpha0()
        self.draw_beta0()
        self.draw_v1()
        self.draw_v2()
        self.draw_a()
        self.draw_sigma2_y()
        self.draw_sigma2_alpha0()
        self.draw_eta_alpha0()
        self.draw_sigma2_beta0()
        self.draw_eta_beta0()
        self.draw_theta(1)
        self.draw_theta(2)
        self.n_sweeps += 1
        if self.n_sweeps % _REFRESH_EVERY == 0:
            self.rebuild_residual()


# The per-cell reader that io.read_csv's column-wise conversion replaced:
# every cell converted and checked as its row is read.

_CELL_DTYPE = {"s": object, "i": np.int64, "f": float, "p": float, "m": float}


def _cell(text, kind, path, line, column):
    value = text.strip()
    if kind == "s" or not value:
        if value:
            return value
        if kind == "m":
            return math.nan
        raise ParseError(f"{path}:{line}: empty value in column '{column}'")
    try:
        number = float(value)
    except ValueError:
        raise ParseError(f"{path}:{line}: non-numeric value '{value}' in column '{column}'") from None
    if not math.isfinite(number):
        raise ParseError(f"{path}:{line}: non-finite value '{value}' in column '{column}'")
    if kind == "p" and number <= 0:
        raise ParseError(f"{path}:{line}: non-positive value '{number!r}' in column '{column}'")
    if kind == "i":
        if not number.is_integer() or abs(number) > 2**53:
            raise ParseError(f"{path}:{line}: column '{column}' must be an integer, got '{text}'")
        return int(number)
    return number


def cell_read_csv(path, fmt):
    """io.read_csv, one cell at a time in file order."""
    path = Path(path)
    expected = fmt.columns
    lines = []
    cols = [[] for _ in expected]
    header = None
    with open(path, encoding="utf-8-sig", newline="") as f:
        reader = csv.reader(f)
        try:
            for rec in reader:
                if not rec or rec[0].startswith("#"):
                    continue
                line = reader.line_num
                if header is None:
                    header = [c.strip() for c in rec]
                    for col in expected:
                        if col not in header:
                            raise SchemaError(f"{path}: missing column '{col}' in header (line {line})")
                    if tuple(header) != expected:
                        raise SchemaError(
                            f"{path}: header must be exactly '{','.join(expected)}', got '{','.join(header)}'"
                        )
                    continue
                if len(rec) != len(expected):
                    raise ParseError(f"{path}:{line}: expected {len(expected)} fields, got {len(rec)}")
                for text, kind, column, out in zip(rec, fmt.kinds, expected, cols):
                    out.append(_cell(text, kind, path, line, column))
                lines.append(line)
        except csv.Error as e:
            raise ParseError(f"{path}:{reader.line_num}: {e}") from None
        except UnicodeDecodeError as e:
            raise ParseError(f"{path}: not UTF-8 text ({e.reason})") from None
    if header is None:
        raise SchemaError(f"{path}: empty file, expected header {','.join(expected)}")
    return lines, [np.asarray(c, dtype=_CELL_DTYPE[k]) for c, k in zip(cols, fmt.kinds)]


# The per-row key handling that io.key_index and io.key_rows replaced: dicts
# filled row by row. The loaders below are the loaders as they were, each
# cell_read_csv followed by these loops.


def dict_key_index(*columns):
    """key_index by a dict filled in row order."""
    code_of: dict = {}
    code = [code_of.setdefault(key, len(code_of)) for key in zip(*(c.tolist() for c in columns))]
    first: dict = {}
    for row, c in enumerate(code):
        first.setdefault(c, row)
    return np.asarray(code, dtype=np.int64), np.asarray(list(first.values()), dtype=np.int64)


def dict_key_rows(table, query):
    """key_rows by a dict of the table's keys, the first row of each kept."""
    row_of: dict = {}
    for row, key in enumerate(zip(*(c.tolist() for c in table))):
        row_of.setdefault(key, row)
    return np.asarray([row_of.get(key, -1) for key in zip(*(c.tolist() for c in query))], dtype=np.int64)


def dict_refuse_repeats(path, lines, keys, name):
    first: dict = {}
    for line, key in zip(lines, keys):
        if key in first:
            raise ParseError(f"{path}:{line}: duplicate {name} {key!r}, first at line {first[key]}")
        first[key] = line


def dict_load_monitors(path):
    lines, (ids, x, y) = cell_read_csv(path, pio.MONITORS)
    dict_refuse_repeats(path, lines, ids, "site_id")
    return [Location(*row) for row in zip(ids.tolist(), x.tolist(), y.tolist())]


def dict_load_obs(path):
    lines, (ids, day, y) = cell_read_csv(path, pio.OBS)
    keep = ~np.isnan(y)
    ids, day, y = ids[keep], day[keep], y[keep]
    dict_refuse_repeats(path, np.asarray(lines)[keep].tolist(), zip(ids, day.tolist()), "(site_id, day)")
    return ids, day, y


def dict_load_grid(path, spec, n_days=None):
    lines, (day, row, col, value) = cell_read_csv(path, pio.GRID)
    dict_refuse_repeats(path, lines, zip(day.tolist(), row.tolist(), col.tolist()), "(day, row, col)")
    bad = (day < 1) | (row < 0) | (row >= spec.n_rows) | (col < 0) | (col >= spec.n_cols)
    if bad.any():
        k = int(bad.argmax())
        if day[k] < 1:
            raise ParseError(f"{path}:{lines[k]}: day must be >= 1")
        raise ParseError(f"{path}:{lines[k]}: cell ({row[k]}, {col[k]}) outside {spec.n_rows}x{spec.n_cols} grid")
    t = n_days if n_days is not None else int(day.max(initial=0))
    for line, d in zip(lines, day.tolist()):
        if d > t:
            raise SchemaError(f"{path}:{line}: day {d} beyond horizon {t}")
    if t * spec.n_rows * spec.n_cols > 2**27:
        raise SchemaError(f"{path}: {t} days of a {spec.n_rows}x{spec.n_cols} grid exceed {2**27} cells")
    values = np.full((t, spec.n_rows, spec.n_cols), np.nan)
    values[day - 1, row, col] = value
    return values, np.isfinite(values)


def dict_load_covariates(path):
    lines, (ids, day, *z) = cell_read_csv(path, pio.COVARIATES)
    dict_refuse_repeats(path, lines, zip(ids, day.tolist()), "(site_id, day)")
    return ids, day, np.column_stack(z)


def dict_load_weights(path):
    lines, (ids, *cols) = cell_read_csv(path, pio.WEIGHTS)
    dict_refuse_repeats(path, lines, ids, "site_id")
    return ids, dict(zip(pio.WEIGHTS.columns[1:], cols))


def dict_load_predictive(path, locations):
    lines, (ids, day, source, mu, var) = cell_read_csv(path, pio.PREDICTIVE)
    dict_refuse_repeats(path, lines, zip(ids, day.tolist(), source), "(site_id, day, source)")
    col_of = {s: k for k, s in enumerate(SOURCES)}
    order: dict = {}
    rows, ks = [], []
    for line, sid, d, src, v in zip(lines, ids, day.tolist(), source, var.tolist()):
        if sid not in locations:
            raise SchemaError(f"{path}:{line}: unknown site_id '{sid}'")
        if src not in col_of:
            raise ParseError(f"{path}:{line}: unknown source '{src}'")
        if v <= 0:
            raise ParseError(f"{path}:{line}: non-positive value '{v!r}' in column 'var'")
        rows.append(order.setdefault((sid, d), len(order)))
        ks.append(col_of[src])
    n = len(order)
    table_mu, table_var, avail = np.zeros((n, 2)), np.ones((n, 2)), np.zeros((n, 2), dtype=bool)
    table_mu[rows, ks] = mu
    table_var[rows, ks] = var
    avail[rows, ks] = True
    return PredictiveTable(
        ids=np.asarray([sid for sid, _ in order], dtype=object),
        day=np.asarray([d for _, d in order], dtype=np.int64),
        mu=table_mu, var=table_var, available=avail, locations=dict(locations),
    )


def dict_load_weight_samples(path, locations):
    lines, (sample, ids, q_col, tau2_col, rho_col) = cell_read_csv(path, pio.WEIGHT_SAMPLES)
    dict_refuse_repeats(path, lines, zip(sample.tolist(), ids), "(sample, site_id)")
    by_id = {l.site_id: l for l in locations}
    site_order: dict = {}
    for line, sid in zip(lines, ids):
        if sid not in by_id:
            raise SchemaError(f"{path}:{line}: unknown site_id '{sid}'")
        site_order.setdefault(sid, len(site_order))
    if not lines:
        raise SchemaError(f"{path}: no sample rows")
    if sample.min() < 0:
        raise ParseError(f"{path}:{lines[int(sample.argmin())]}: sample must be >= 0")
    n_samples, n_sites = int(sample.max()) + 1, len(site_order)
    if n_samples * n_sites > len(lines):
        raise SchemaError(f"{path}: incomplete sample grid (missing site rows)")
    s = np.asarray([site_order[sid] for sid in ids], dtype=np.int64)
    q = np.full((n_samples, n_sites), np.nan)
    tau2, rho = np.full(n_samples, np.nan), np.full(n_samples, np.nan)
    q[sample, s] = q_col
    tau2[sample] = tau2_col
    rho[sample] = rho_col
    if np.isnan(q).any():
        raise SchemaError(f"{path}: incomplete sample grid (missing site rows)")
    return WeightFieldSamples(
        locations=[by_id[sid] for sid in site_order], q=q, tau2=tau2, rho=rho,
        t_s=np.zeros(n_sites, dtype=np.int64), acceptance={},
    )


def dict_observed(obs, predictive_path, inputs):
    """The observation of every predictive row, joined through a dict."""
    ids, day, y = obs
    y_of = dict(zip(zip(ids, day.tolist()), y))
    out = np.empty(inputs.n_records)
    for i, key in enumerate(zip(inputs.ids, inputs.day.tolist())):
        if key not in y_of:
            raise SchemaError(f"{predictive_path}: no observation for (site_id, day) {key}")
        out[i] = y_of[key]
    return out


def dict_row_weights(inputs, w_of_site):
    both = inputs.both_available()
    missing = set(inputs.ids[both]).difference(w_of_site)
    if missing:
        raise SchemaError(f"no weight row for site '{min(missing)}'")
    w = np.full(inputs.n_records, np.nan)
    w[both] = [w_of_site[sid] for sid in inputs.ids[both]]
    return w


def dict_site_index(ids, locations):
    order = {l.site_id: i for i, l in enumerate(locations)}
    try:
        return np.array([order[sid] for sid in ids], dtype=np.int64)
    except KeyError as exc:
        raise SchemaError(f"record id {exc.args[0]!r} not among the weight-field sites") from None


def dict_join_observations(monitors, ids, day, covariates):
    """assemble_observations' site index and covariate rows, by dicts."""
    by_id = {l.site_id: k for k, l in enumerate(monitors)}
    for sid in ids:
        if sid not in by_id:
            raise SchemaError(f"observation references unknown site_id '{sid}'")
    site_idx = np.asarray([by_id[s] for s in ids], dtype=np.int64)
    z = np.zeros((ids.shape[0], N_COVARIATES))
    cov_ids, cov_day, z_all = covariates
    row_of = {key: i for i, key in enumerate(zip(cov_ids, cov_day.tolist()))}
    if len(row_of) < len(cov_ids):
        raise SchemaError("covariates repeat a (site_id, day) row")
    for i, key in enumerate(zip(ids, day.tolist())):
        if key not in row_of:
            raise SchemaError(f"no covariate row for site '{key[0]}' day {key[1]}")
        z[i] = z_all[row_of[key]]
    return site_idx, z
