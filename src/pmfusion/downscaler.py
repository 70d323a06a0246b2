"""Spatio-temporal downscaler: calibrates one gridded source against monitors.

Model for monitor value Y_st at site s, day t with linked grid value X_st:

    Y_st = alpha_st + beta_st * X_st + Z_st @ gamma + eps_st,
    eps_st ~ N(0, sigma2_y)

    alpha_st = alpha0_t + alpha1_s      beta_st = beta0_t + beta1_s

The daily terms alpha0, beta0 follow independent first-order temporal CAR
models (dependence eta, conditional variance sigma2 / n_t). The site terms
are a linear coregionalization (alpha1_s, beta1_s)' = A @ (v1_s, v2_s)' of
two independent unit-variance GPs with exponential covariance and ranges
theta1, theta2; A is 2x2 lower triangular with nonnegative diagonal
(samples reflected into that half-space). The covariate block Z enters the
satellite model only; covariates are standardized internally and gamma gets
a flat prior. Variances get IG(a, b) priors, GP ranges Gamma(shape, rate).

Estimation is MCMC: conditionally conjugate Gibbs blocks for gamma, the
daily series, the latent fields, A and the variances, a discrete grid
update for each eta, and adaptive random-walk Metropolis on log theta.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain import Chain
from .config import MCMCConfig
from .errors import DomainError, InsufficientDataError, OutOfDomainError, SchemaError
from .geo import CTM, SAT, Location, distance_matrix
from .kernels import (
    ETA_GRID,
    ExpKriging,
    car_logdet_table,
    car_neighbor_count,
    car_precision_tridiag,
    chol_factor_solve_stack,
    cholesky_stack,
    jittered_cholesky,
    sample_from_log_weights,
    sample_tridiag_mvn_stack,
    tri_solve_stack,
)
from .tables import N_COVARIATES, ObservationTable

# N(0, A_PRIOR_VAR) prior on each free element of the coregionalization matrix
A_PRIOR_VAR = 1.0e3
_A_PRIOR_PREC = np.eye(3) / A_PRIOR_VAR


@dataclass
class DownscalerFit:
    """One chain's source, sites, horizon, covariate scaler and range acceptance,
    and by request the predictions it streamed, one SourcePredictions per batch."""

    source: str
    sites: list[Location]
    n_days: int
    z_mean: np.ndarray
    z_sd: np.ndarray
    acceptance: dict
    predictions: list


@dataclass
class SourcePredictions:
    """Posterior predictive summaries for one source at arbitrary targets."""

    ids: np.ndarray
    day: np.ndarray
    mu: np.ndarray
    var: np.ndarray
    available: np.ndarray


@dataclass
class _Training:
    """One chain: the records usable for the source that it holds out (rows
    of the data table), its generator's seed, and the scaler and Gram matrix
    of its standardized covariates. Every chain fits all sites of the table."""

    held: np.ndarray
    seed: int
    z_mean: np.ndarray
    z_sd: np.ndarray
    ztz: np.ndarray | None = None
    ztz_chol: np.ndarray | None = None


def _training_set(data: ObservationTable, source: str, train: np.ndarray | None, seed: int) -> _Training:
    """One chain's records: those usable for the source that train masks (None:
    all records). A site with none of them is latent in the chain. Raises
    InsufficientDataError when there is no such record."""
    if source not in (CTM, SAT):
        raise DomainError(f"unknown source {source!r}, expected {CTM!r} or {SAT!r}")
    usable = data.usable_mask(source)
    mask = usable if train is None else train & usable
    if not mask.any():
        raise InsufficientDataError(f"no usable {source} record to train on")
    if data.n_days < 2:
        raise InsufficientDataError("need a horizon of at least 2 days")
    held = np.flatnonzero(usable & ~mask)
    if source == CTM:
        return _Training(held, seed, np.zeros(N_COVARIATES), np.ones(N_COVARIATES))
    z_raw = data.z[mask]
    z_mean, z_sd = z_raw.mean(axis=0), z_raw.std(axis=0)
    flat = np.flatnonzero(z_sd <= 0)
    if flat.size:
        raise InsufficientDataError(
            f"constant covariate column(s) {flat.tolist()}; "
            "gamma is not identifiable under a flat prior"
        )
    # the Gram matrix of the standardized covariates, from a copy of them freed on return
    zs = (z_raw - z_mean) / z_sd
    ztz = zs.T @ zs
    return _Training(held, seed, z_mean, z_sd, ztz, jittered_cholesky(ztz)[0])


def _dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Row-wise inner products, each row reduced alone whatever the row count."""
    return (u * v).sum(axis=-1)


class _Blocks:
    """Full-conditional updates for F chains of one source's model, in lockstep.

    Chain f fits the records of chains[f] on all S sites of data, a site
    with no training record latent: its sums by site are exactly zero, so
    it enters through the GP prior only. State variables carry a chain axis.

    The usable records are the filled cells of data's (day x site) grid,
    T x S, held once per batch: the planes M, M x and M x^2 (M the usable
    mask) and the sums by day and by site of 1, x, x^2, y, x y, z and z x.
    A chain keeps of its own only its held-out cells. Every statistic a
    block reads (sums of r and x r by day and by site, Z'r and r'r, r the
    residual) is the full-grid sum, contracted with each chain's state,
    less the sum over the chain's held-out cells. BLAS products, LAPACK
    solves, random draws and accept decisions run chain by chain with
    shapes that do not depend on F, each chain drawing from its own
    generator: its draws equal a batch of one's bit for bit.

    Each draw_* method is one Gibbs/MH block, reading only the state, so
    the blocks can be exercised and checked in isolation.
    """

    def __init__(self, data: ObservationTable, source: str, mcmc: MCMCConfig, chains: list[_Training]):
        self.source, self.mcmc = source, mcmc
        self.F = F = len(chains)
        self.S = S = data.n_sites
        self.T = T = data.n_days
        self.sites = list(data.sites)
        self.p_cov = p = N_COVARIATES if source == SAT else 0

        use = np.flatnonzero(data.usable_mask(source))
        day0, site, y, x = data.day[use] - 1, data.site_idx[use], data.y[use], data.x_for(source)[use]
        z = data.z[use][:, :p]

        def sums(w: np.ndarray) -> list[np.ndarray]:
            """The columns of w summed by day, (k, T), and by site, (k, S)."""
            return [np.array([np.bincount(i, c, n) for c in w.T]).reshape(-1, n) for i, n in ((day0, T), (site, S))]
        gram = np.array([np.ones_like(x), x, x * x])
        self.planes = np.zeros((3, T, S))
        self.planes[:, day0, site] = gram
        self._kept = [None, None]
        self.gram, self.ysums = sums(gram.T), sums(np.column_stack([y, x * y]))
        # z and z x by day, (2, T, p), and by site, (2, S, p)
        self.zsums = [np.stack([t[:p].T, t[p:].T]) for t in sums(np.hstack([z, z * x[:, None]]))]
        self.yy, self.zy, self.zz = float(y @ y), z.T @ y, z.T @ z

        held = np.concatenate([c.held for c in chains])
        self.h_chain = np.repeat(np.arange(F), [c.held.size for c in chains])
        self.h_day, self.h_col = self.h_chain * T + data.day[held] - 1, self.h_chain * S + data.site_idx[held]
        self.h_y, self.h_x, self.h_z = data.y[held], data.x_for(source)[held], data.z[held][:, :p].T.copy()
        self.n = use.size - np.bincount(self.h_chain, minlength=F)
        # whether a chain has training cells at a site, (F, S)
        self.seen = np.bincount(site, minlength=S) > np.bincount(self.h_col, minlength=F * S).reshape(F, S)
        # sums of 1, x and x^2 over each chain's training cells, by day (F, 3, T) and by site (F, 3, S)
        w = (np.ones(held.size), self.h_x, self.h_x * self.h_x)
        self.grams = [self._less_held(axis, self.gram[axis], w) for axis in (0, 1)]
        (self.counts_day, _, self.sum_x2_day), self.site_gram = (g.transpose(1, 0, 2) for g in self.grams)
        n, sx, sxx = self.site_gram
        # per-site Gram terms of the coregionalization regressors (v1, v1 x, v2 x)
        self.gram3 = np.array([[n, sx, sx], [sx, sxx, sxx], [sx, sxx, sxx]])
        self.z_mean, self.z_sd = np.array([c.z_mean for c in chains]), np.array([c.z_sd for c in chains])
        self.ztz, self.ztz_chol = (np.array([getattr(c, k) for c in chains]) for k in ("ztz", "ztz_chol"))
        self.n_t = car_neighbor_count(T)
        self.logdet_table = car_logdet_table(T)
        self.d_sites = distance_matrix(self.sites)
        diam = float(self.d_sites.max())
        self.theta_floor = max(diam * 1e-4, 1e-6)
        self.rngs = [np.random.default_rng(c.seed) for c in chains]
        self.shape_y = [mcmc.ig_a + 0.5 * n for n in self.n.tolist()]
        self.mvn_const = float(S * np.log(2.0 * np.pi))

        self.alpha0, self.beta0 = np.zeros((2, F, T))
        self.v1, self.v2 = np.zeros((2, F, S))
        self.gamma = np.zeros((F, p))
        self.a = np.tile([1.0, 0.0, 1.0], (F, 1))
        # starting values from each chain's pooled least-squares line through (x, y)
        n, (sum_y, sum_xy) = self.n, (t.sum(axis=1) for t in self._grid_sums(0)[:2])
        xbar, ybar = sx.sum(axis=1) / n, sum_y / n
        vx = self.sum_x2_day.sum(axis=1) / n - xbar * xbar
        cov = (sum_xy - n * xbar * ybar) / np.maximum(n - 1, 1)
        b0 = np.divide(cov, vx, out=np.zeros(F), where=(vx > 0) & (n > 1))
        self.beta0[:] = b0[:, None]
        day_mean = self._grid_sums(0)[0] / np.maximum(self.counts_day, 1.0)
        self.alpha0 = np.where(self.counts_day > 0, day_mean, (ybar - b0 * xbar)[:, None])
        mean_r = self._grid_sums(0)[0].sum(axis=1) / n
        self.sigma2_y = np.maximum(self._ssr() / n - mean_r * mean_r, 1e-3)
        self.sigma2_a = np.maximum(np.var(self.alpha0, axis=1), 0.1)
        self.sigma2_b = np.full(F, 0.1)
        self.eta_a = np.full(F, 0.5)
        self.eta_b = np.full(F, 0.5)
        self.theta1 = np.full(F, max(diam / 4.0, self.theta_floor))
        self.theta2 = self.theta1.copy()
        self.chol_r1, self.rinv1, self.chol_r2, self.rinv2 = (np.empty((F, S, S)) for _ in range(4))
        self.eyes = np.broadcast_to(np.eye(S), (F, S, S))
        self.logdet_r1, self.logdet_r2 = np.empty(F), np.empty(F)
        everyone = np.arange(F)
        self._set_range_cache(1, everyone, *self._range_chol(self.theta1))
        self._set_range_cache(2, everyone, *self._range_chol(self.theta2))
        self.chain = Chain(mcmc, theta1=np.full(F, 0.5), theta2=np.full(F, 0.5))

    # -- sums over the training cells --------------------------------------

    def _normals(self, k: int) -> np.ndarray:
        """k standard normals from each chain's generator, one row per chain."""
        return np.array([rng.standard_normal(k) for rng in self.rngs])

    def _site_effects(self) -> tuple[np.ndarray, np.ndarray]:
        alpha1 = self.a[:, 0:1] * self.v1
        beta1 = self.a[:, 1:2] * self.v1 + self.a[:, 2:3] * self.v2
        return alpha1, beta1

    def _less_held(self, axis: int, full: np.ndarray, w) -> np.ndarray:
        """full, k sums by day (axis 0) or site (axis 1), less each chain's sums of
        w[i] over its held-out cells: (F, k, T) by day, (F, k, S) by site, exactly
        zero at a chain's latent sites."""
        idx, n = (self.h_day, self.T) if axis == 0 else (self.h_col, self.S)
        out = full - np.array([np.bincount(idx, wi, self.F * n).reshape(self.F, n) for wi in w]).transpose(1, 0, 2)
        return out if axis == 0 else np.where(self.seen[:, None], out, 0.0)

    def _terms(self):
        """The state as coefficients of a cell's regressors (by day, of 1 and
        x, (F, T); by site, of 1 and x, (F, S); of the raw covariates, (F, p),
        their centring folded into the day intercepts), and
        r = y - alpha - beta x - z gamma at held-out cells."""
        (b, d), g = self._site_effects(), self.gamma / self.z_sd[:, : self.p_cov]
        a, c = self.alpha0 - _dot(g, self.z_mean[:, : self.p_cov])[:, None], self.beta0
        r = self.h_y - a.ravel()[self.h_day] - b.ravel()[self.h_col]
        r -= (c.ravel()[self.h_day] + d.ravel()[self.h_col]) * self.h_x
        for zj, gj in zip(self.h_z, g.T):
            r -= zj * gj[self.h_chain]
        return (a, c), (b, d), g, r

    def _grid_sums(self, axis: int, terms=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Sums of r and x r over each chain's training cells, by day (axis 0,
        (F, T)) or by site (axis 1, (F, S)), and the sum of
        squares of the residual without this axis' terms, (F,). A chain's
        sums are taken on the grid when its terms of the other axis or its
        gamma have changed since they last were, and are otherwise shifted
        through this axis' training Grams: the site blocks move only the
        site terms, the daily series only the day terms."""
        state = ((self.alpha0, self.beta0), self._site_effects())
        key, own = np.hstack([*state[1 - axis], self.gamma]), np.stack(state[axis], axis=1)
        kept = self._kept[axis]
        stale = np.ones(self.F, dtype=bool) if kept is None else (kept[0] != key).any(axis=1)
        if stale.any():
            fresh = key, own, *self._fresh_sums(axis, self._terms() if terms is None else terms)
            if not stale.all():
                fresh = tuple(np.where(stale.reshape((-1,) + (1,) * (f.ndim - 1)), f, k) for f, k in zip(fresh, kept))
            self._kept[axis] = kept = fresh
        shift, grams = own - kept[1], self.grams[axis]
        sums = kept[2] - grams[:, :2] * shift[:, :1] - grams[:, 1:] * shift[:, 1:]
        return sums[:, 0], sums[:, 1], kept[3]

    def _fresh_sums(self, axis: int, terms) -> tuple[np.ndarray, np.ndarray]:
        """_grid_sums taken on the grid, the sums of r and x r stacked, (F, 2, T or S):
        the full grid's sums, their cross terms one product with the planes per
        chain, less the held-out cells'. The sum of squares is expanded from y'y."""
        (u, v), (p, q), g, r_held = terms[axis], terms[1 - axis], terms[2], terms[3]
        planes = self.planes if axis == 0 else self.planes.transpose(0, 2, 1)
        cross = np.matmul(planes, np.stack((p, q), axis=-1)[:, None])
        gram = self.gram[axis]
        sums = self.ysums[axis] - gram[:2] * u[:, None] - gram[1:] * v[:, None]
        sums = sums - cross[:, :2, :, 0] - cross[:, 1:, :, 1]
        # sum over the grid of (y - p - q x - z g)^2, p + q x the other axis' terms
        (n, x, xx), (y, xy) = self.gram[1 - axis], self.ysums[1 - axis]
        ss = self.yy - 2.0 * (_dot(p, y) + _dot(q, xy)) + _dot(p, p * n + 2.0 * q * x) + _dot(q, q * xx)
        if self.p_cov:
            zg, zg_other = (np.matmul(self.zsums[k], g[:, None, :, None])[..., 0] for k in (axis, 1 - axis))
            sums = sums - zg
            ss += 2.0 * (_dot(p, zg_other[:, 0]) + _dot(q, zg_other[:, 1]) - _dot(g, self.zy))
            ss += _dot(g, np.matmul(self.zz, g[..., None])[..., 0])
        idx = self.h_day if axis == 0 else self.h_col
        e_held = r_held + u.ravel()[idx] + v.ravel()[idx] * self.h_x
        ss -= np.bincount(self.h_chain, e_held * e_held, self.F)
        return self._less_held(axis, sums, (r_held, r_held * self.h_x)), ss

    def _z_sums(self, terms, r_sum: np.ndarray) -> np.ndarray:
        """Z'r over each chain's training cells, (F, p), Z standardized by its
        scaler: the raw-scale sums less z_mean times r_sum (sum of r), over z_sd."""
        g, r_held = terms[2], terms[3]
        zr = self.zy - np.matmul(self.zz, g[..., None])[..., 0]
        for axis in (0, 1):
            uz = np.matmul(np.stack(terms[axis], axis=1)[:, :, None], self.zsums[axis])[:, :, 0]
            zr = zr - uz[:, 0] - uz[:, 1]
        zr = zr - np.array([np.bincount(self.h_chain, zj * r_held, self.F) for zj in self.h_z]).T
        return (zr - self.z_mean * r_sum[:, None]) / self.z_sd

    def _ssr(self) -> np.ndarray:
        """r'r over each chain's training cells, from the per-site sums; expanded
        from y'y, it loses about eps y'y / r'r of relative precision."""
        sr, sxr, ss = self._grid_sums(1)
        alpha1, beta1 = self._site_effects()
        n, sx, sxx = self.site_gram
        ss = ss - _dot(alpha1, 2.0 * sr + alpha1 * n + 2.0 * beta1 * sx) - _dot(beta1, 2.0 * sxr + beta1 * sxx)
        return np.maximum(ss, 0.0)

    def _range_chol(self, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Cholesky factors of the unit-variance site correlation at each of
        the ranges theta, and their log-determinants."""
        chol = cholesky_stack(np.exp(-self.d_sites / theta[:, None, None]))
        diag = chol.reshape(chol.shape[0], -1)[:, :: self.S + 1]
        return chol, 2.0 * np.log(diag).sum(axis=1)

    def _set_range_cache(self, which: int, chains: np.ndarray, chol: np.ndarray, logdet: np.ndarray) -> None:
        rinv = chol_factor_solve_stack(chol, self.eyes[: chol.shape[0]])
        if which == 1:
            self.chol_r1[chains], self.rinv1[chains], self.logdet_r1[chains] = chol, rinv, logdet
        else:
            self.chol_r2[chains], self.rinv2[chains], self.logdet_r2[chains] = chol, rinv, logdet

    # -- Gibbs blocks ----------------------------------------------------

    def draw_gamma(self) -> None:
        if not self.p_cov:
            return
        terms = self._terms()
        # Z'(r + Z gamma), for the residual without the covariate term
        rhs = self._z_sums(terms, self._grid_sums(1, terms)[0].sum(axis=1))
        rhs += np.matmul(self.ztz, self.gamma[..., None])[..., 0]
        mean = chol_factor_solve_stack(self.ztz_chol, rhs)
        z = self._normals(self.p_cov)
        self.gamma = mean + np.sqrt(self.sigma2_y)[:, None] * tri_solve_stack(self.ztz_chol, z, trans=1)

    def _daily_series_draw(
        self, weights_diag: np.ndarray, wr_day: np.ndarray,
        eta: np.ndarray, sigma2_car: np.ndarray,
    ) -> np.ndarray:
        prior_diag, prior_off = car_precision_tridiag(self.n_t, eta[:, None], sigma2_car[:, None])
        s2y = self.sigma2_y[:, None]
        return sample_tridiag_mvn_stack(prior_diag + weights_diag / s2y, prior_off, wr_day / s2y, self.rngs)

    def draw_alpha0(self) -> None:
        wr = self._grid_sums(0)[0] + self.counts_day * self.alpha0
        self.alpha0 = self._daily_series_draw(self.counts_day, wr, self.eta_a, self.sigma2_a)

    def draw_beta0(self) -> None:
        wr = self._grid_sums(0)[1] + self.sum_x2_day * self.beta0
        self.beta0 = self._daily_series_draw(self.sum_x2_day, wr, self.eta_b, self.sigma2_b)

    def _draw_site_field(self, v: np.ndarray, k0, k1, rinv: np.ndarray) -> np.ndarray:
        """Draw the site field v, which enters a record at site s as v[s] (k0 + k1 x);
        k0 and k1 are per-chain columns or floats."""
        sr, sxr, _ = self._grid_sums(1)
        n, sx, sxx = self.site_gram
        g = k0 * k0 * n + 2.0 * k0 * k1 * sx + k1 * k1 * sxx
        s2y = self.sigma2_y[:, None]
        prec = rinv.copy()
        prec.reshape(self.F, -1)[:, :: self.S + 1] += g / s2y
        chol = cholesky_stack(prec)
        mean = chol_factor_solve_stack(chol, (k0 * sr + k1 * sxr + g * v) / s2y)
        return mean + tri_solve_stack(chol, self._normals(self.S), trans=1)

    def draw_v1(self) -> None:
        self.v1 = self._draw_site_field(self.v1, self.a[:, 0:1], self.a[:, 1:2], self.rinv1)

    def draw_v2(self) -> None:
        self.v2 = self._draw_site_field(self.v2, 0.0, self.a[:, 2:3], self.rinv2)

    def draw_a(self) -> None:
        sr, sxr, _ = self._grid_sums(1)
        alpha1, beta1 = self._site_effects()
        n, sx, sxx = self.site_gram
        # A's regressors in a record are f = (v1, v1 x, v2 x); f'f and f'e, with
        # e = r + alpha1 + beta1 x the residual without the site terms,
        # are sums over sites
        e, xe = sr + alpha1 * n + beta1 * sx, sxr + alpha1 * sx + beta1 * sxx
        u = np.array([self.v1, self.v1, self.v2])
        s2y = self.sigma2_y[:, None]
        ftf = (u[:, None] * self.gram3 * u).sum(axis=-1)
        prec = ftf.transpose(2, 0, 1) / s2y[:, None] + _A_PRIOR_PREC
        rhs = (u * np.array([e, xe, xe])).sum(axis=-1).T / s2y
        chol = cholesky_stack(prec)
        mean = chol_factor_solve_stack(chol, rhs)
        a = mean + tri_solve_stack(chol, self._normals(3), trans=1)
        # reflect into the identified half-space A11 >= 0, A22 >= 0; the joint
        # sign flips leave alpha1, beta1 and both GP priors invariant
        flip = a[:, 0::2] < 0
        if flip.any():
            sign = np.where(flip, -1.0, 1.0)
            a *= sign[:, [0, 0, 1]]
            self.v1 = self.v1 * sign[:, 0:1]
            self.v2 = self.v2 * sign[:, 1:2]
        self.a = a

    def _inv_gamma(self, shape: list[float], rate: list[float]) -> np.ndarray:
        return np.array([r / rng.gamma(k, 1.0) for rng, k, r in zip(self.rngs, shape, rate)])

    def draw_sigma2_y(self) -> None:
        rate = [self.mcmc.ig_b + 0.5 * ssr for ssr in self._ssr().tolist()]
        self.sigma2_y = self._inv_gamma(self.shape_y, rate)

    def _car_neighbor_quad(self, series: np.ndarray) -> list[float]:
        """2 sum_t a_t a_{t+1} of each chain's series."""
        lag0, lag1 = series[:, :-1], series[:, 1:]
        return [2.0 * float(np.dot(lag0[f], lag1[f])) for f in range(self.F)]

    def draw_car_variance(self, series: np.ndarray, eta: np.ndarray) -> np.ndarray:
        ig_b, weighted = self.mcmc.ig_b, self.n_t * series
        rate = [
            ig_b + 0.5 * (float(np.dot(weighted[f], series[f])) - e * q)
            for f, (e, q) in enumerate(zip(eta.tolist(), self._car_neighbor_quad(series)))
        ]
        return self._inv_gamma([self.mcmc.ig_a + 0.5 * self.T] * self.F, rate)

    def draw_eta(self, series: np.ndarray, sigma2_car) -> np.ndarray:
        qw = np.array(self._car_neighbor_quad(series))
        logw = 0.5 * self.logdet_table + ETA_GRID * (qw / (2.0 * sigma2_car))[:, None]
        return ETA_GRID[sample_from_log_weights(logw, self.rngs)]

    def draw_sigma2_alpha0(self) -> None:
        self.sigma2_a = self.draw_car_variance(self.alpha0, self.eta_a)

    def draw_sigma2_beta0(self) -> None:
        self.sigma2_b = self.draw_car_variance(self.beta0, self.eta_b)

    def draw_eta_alpha0(self) -> None:
        self.eta_a = self.draw_eta(self.alpha0, self.sigma2_a)

    def draw_eta_beta0(self) -> None:
        self.eta_b = self.draw_eta(self.beta0, self.sigma2_b)

    def _log_range_target(self, v, chol, logdet, theta) -> np.ndarray:
        """log N(v; 0, R(theta)) + log prior(theta) + log theta, per chain,
        with R(theta) = chol chol' and logdet = log |R(theta)|."""
        w = tri_solve_stack(chol, v)
        shape1, rate = self.mcmc.rho_prior_shape - 1.0, self.mcmc.rho_prior_rate
        return np.array([
            -0.5 * (self.mvn_const + ld + float(r @ r)) + (shape1 * lt - rate * t) + lt
            for r, ld, lt, t in zip(w, logdet.tolist(), np.log(theta).tolist(), theta.tolist())
        ])

    def draw_theta(self, which: int) -> np.ndarray:
        """Random-walk MH on log theta_which; returns which chains accepted the move.

        A proposal below the chain's floor is rejected without a uniform draw."""
        theta = self.theta1 if which == 1 else self.theta2
        v = self.v1 if which == 1 else self.v2
        chol, logdet = (self.chol_r1, self.logdet_r1) if which == 1 else (self.chol_r2, self.logdet_r2)
        name = f"theta{which}"
        prop = theta * np.exp(self.chain.step(name) * [rng.standard_normal() for rng in self.rngs])
        accepted = np.zeros(self.F, dtype=bool)
        live = np.nonzero(prop >= self.theta_floor)[0]
        if live.size:
            # every chain is live in most calls: then take views, not copies
            sel = live if live.size < self.F else slice(None)
            chol_prop, logdet_prop = self._range_chol(prop[sel])
            cur = self._log_range_target(v[sel], chol[sel], logdet[sel], theta[sel])
            new = self._log_range_target(v[sel], chol_prop, logdet_prop, prop[sel])
            ok = np.log([self.rngs[f].random() for f in live.tolist()]) < new - cur
            moved = live[ok]
            if moved.size:
                accepted[moved] = True
                self._set_range_cache(which, moved, chol_prop[ok], logdet_prop[ok])
                theta[moved] = prop[moved]
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


# the sampler state a consumer's add() receives at each kept iteration, by name: its _Blocks attribute
_STATE = {
    "gamma": "gamma", "alpha0": "alpha0", "beta0": "beta0", "a_coreg": "a", "v1": "v1", "v2": "v2",
    "sigma2_y": "sigma2_y", "sigma2_alpha0": "sigma2_a", "sigma2_beta0": "sigma2_b",
    "eta_alpha0": "eta_a", "eta_beta0": "eta_b", "theta1": "theta1", "theta2": "theta2",
}


def _run_chains(blocks: _Blocks, consumers) -> list[DownscalerFit]:
    """Run a batch of chains, recording nothing. consumers[f] lists chain f's
    consumers: at each kept iteration each one's add() gets the chain's live
    state, a mapping from _STATE name to a value or view that is valid during
    the call. Returns each chain's fit in batch order, its predictions what
    its consumers' finish() return, in list order."""
    chain = blocks.chain
    for _, j in chain:
        blocks.sweep()
        if j is not None:
            for f, own in enumerate(consumers):
                state = {key: getattr(blocks, name)[f] for key, name in _STATE.items()}
                for consumer in own:
                    consumer.add(state)
    acc1, acc2 = chain.acceptance_of("theta1"), chain.acceptance_of("theta2")
    step1, step2 = chain.step("theta1"), chain.step("theta2")
    return [
        DownscalerFit(
            source=blocks.source,
            sites=blocks.sites,
            n_days=blocks.T,
            z_mean=blocks.z_mean[f],
            z_sd=blocks.z_sd[f],
            acceptance={
                "theta1": float(acc1[f]),
                "theta2": float(acc2[f]),
                "step_theta": (float(step1[f]), float(step2[f])),
            },
            predictions=[consumer.finish() for consumer in own],
        )
        for f, own in enumerate(consumers)
    ]


def fit_downscaler(data: ObservationTable, source: str, mcmc: MCMCConfig, requests) -> DownscalerFit:
    """Run the MCMC on every record of data and stream the posterior
    predictive of each request from the chain's kept states.

    Parameters
    ----------
    data     : ObservationTable; records with a missing value for `source`
               are excluded from that source's likelihood
    source   : "ctm" (no covariate block) or "sat" (covariates included)
    mcmc     : chain configuration; the run is deterministic given mcmc.seed
    requests : iterable of (targets, loc_idx, ids, batches), each read and
               checked before the chain runs (see _Predictor)

    Returns the chain's DownscalerFit: fit.predictions[i] lists request i's
    SourcePredictions, one per batch. No draw is kept.

    Raises InsufficientDataError when no record is usable for the source,
    the horizon is shorter than 2 days, or a covariate is constant; a site
    with no usable record is latent, entering through the GP prior only.
    """
    chain = _training_set(data, source, None, mcmc.seed)
    predictors = [_Predictor(data, source, chain, *request) for request in requests]
    return _run_chains(_Blocks(data, source, mcmc, [chain]), [predictors])[0]


class _Predictor:
    """The posterior predictive of one request, built up from a chain of this
    source, one kept state at a time: add() each state, then finish().

    A request is (targets, loc_idx, ids, batches). targets is a list of
    Location or an (m, 2) array of km coordinates; record i sits at
    targets[loc_idx[i]] and carries the site id ids[i]. batches is an
    iterable, read once, of (days, linked_x, z, seed): record i of a batch is
    on day days[i] with linked grid value linked_x[i] (NaN, a missing
    satellite retrieval, makes it unavailable); z holds raw-scale
    covariates, required for a satellite chain; seed seeds its generator.
    A target at the location of one of the chain's sites reads that site's
    latent fields from the state, so its prediction is
    alpha0[d] + a11 v1[s] + (beta0[d] + a21 v1[s] + a22 v2[s]) x (+ z gamma).
    At any other target the fields are drawn from their GP conditionals
    given the chain's sites, per state: each state's conditional is built
    once and shared by all batches, and every batch draws its fields from
    its own generator, in state order. The variance is the spread of the
    per-state predictions plus the mean residual variance. The work arrays
    are allocated here, so add() allocates none per batch.
    """

    def __init__(self, data: ObservationTable, source: str, chain: _Training, targets, loc_idx, ids, batches):
        loc_idx = np.asarray(loc_idx, dtype=np.int64)
        n = loc_idx.shape[0]
        ids = np.asarray(ids, dtype=object)
        if ids.shape != (n,):
            raise SchemaError("loc_idx and ids must have equal length")
        if n and not 0 <= loc_idx.min() <= loc_idx.max() < len(targets):
            raise SchemaError(f"loc_idx must index the {len(targets)} targets")
        self.out, self.live = [], []
        for days, linked_x, z, seed in batches:
            days = np.asarray(days, dtype=np.int64)
            linked_x = np.asarray(linked_x, dtype=float)
            if days.shape[0] != n or linked_x.shape[0] != n:
                raise SchemaError("loc_idx, days, linked_x must have equal length")
            if days.min(initial=1) < 1 or days.max(initial=1) > data.n_days:
                raise OutOfDomainError(f"target days must lie in 1..{data.n_days}")
            if source == SAT:
                if z is None:
                    raise SchemaError("satellite predictions need the covariate block z")
                z = np.asarray(z, dtype=float)
                if z.shape != (n, N_COVARIATES):
                    raise SchemaError(f"z must have shape ({n}, {N_COVARIATES})")
            avail = np.isfinite(linked_x)
            pred = SourcePredictions(
                ids=ids, day=days, mu=np.full(n, np.nan), var=np.full(n, np.nan), available=avail
            )
            self.out.append(pred)
            if avail.any():
                sub = np.flatnonzero(avail)
                zg = (z[sub] - chain.z_mean) / chain.z_sd if source == SAT else None
                self.live.append(_Batch(pred, loc_idx[sub], days[sub] - 1, linked_x[sub], zg, seed))
        self.count, self.s2y_acc, self.S, self.krige1 = 0, 0.0, data.n_sites, None
        if self.live:
            d_cross = distance_matrix(data.sites, targets)
            near = d_cross.argmin(axis=0)
            kriged = np.flatnonzero(d_cross[near, np.arange(near.size)] > 0)
            # a target's fields are an entry of theirs at the chain's sites, then at the kriged targets
            near[kriged] = self.S + np.arange(kriged.size)
            for b in self.live:
                b.loc = near[b.loc]
            if kriged.size:
                d_sites, d_cross = distance_matrix(data.sites), d_cross[:, kriged]
                # a rejected range proposal repeats theta, and with it the field operators
                self.krige1, self.krige2 = ExpKriging(d_sites, d_cross), ExpKriging(d_sites, d_cross)
            # the fields v1, v2 and beta1, which a batch spends before the next one draws
            self.fields = np.empty((3, self.S + kriged.size))

    def add(self, state: dict) -> None:
        """Update every batch with one kept state, a mapping from _STATE name to value."""
        if not self.live:
            return
        S = self.S
        if self.krige1 is not None:
            mean1, resid1 = self.krige1(state["v1"], float(state["theta1"]))
            mean2, resid2 = self.krige2(state["v2"], float(state["theta2"]))
            sd1, sd2 = np.sqrt(resid1), np.sqrt(resid2)
        a11, a21, a22 = state["a_coreg"]
        alpha0, beta0 = state["alpha0"], state["beta0"]
        self.count += 1
        self.s2y_acc += float(state["sigma2_y"])
        v1, v2, beta1 = self.fields
        for b in self.live:
            # v1 and v2: the state's at the chain's sites, mean + sd z at the kriged targets;
            # beta1 = a21 v1 + a22 v2, alpha1 = a11 v1 (over v1): each step of the plain
            # expressions, in their order and so to their bits
            v1[:S], v2[:S] = state["v1"], state["v2"]
            if self.krige1 is not None:
                u1, u2 = v1[S:], v2[S:]
                np.add(mean1, np.multiply(sd1, b.rng.standard_normal(out=u1), out=u1), out=u1)
                np.add(mean2, np.multiply(sd2, b.rng.standard_normal(out=u2), out=u2), out=u2)
            np.add(np.multiply(a21, v1, out=beta1), np.multiply(a22, v2, out=v2), out=beta1)
            alpha1 = np.multiply(a11, v1, out=v1)
            # pred = alpha0[day] + alpha1[loc] + (beta0[day] + beta1[loc]) x (+ zg gamma) and the
            # Welford update likewise; take's "raise" mode copies via a temporary; checked indices never clip
            pred, delta, t = b.work
            np.add(alpha0.take(b.day0, out=pred, mode="clip"), alpha1.take(b.loc, out=delta, mode="clip"), out=pred)
            np.add(beta0.take(b.day0, out=delta, mode="clip"), beta1.take(b.loc, out=t, mode="clip"), out=delta)
            np.add(pred, np.multiply(delta, b.x, out=delta), out=pred)
            if b.zg is not None:
                np.add(pred, np.matmul(b.zg, state["gamma"], out=delta), out=pred)
            np.subtract(pred, b.mean, out=delta)
            np.add(b.mean, np.divide(delta, self.count, out=t), out=b.mean)
            np.add(b.m2, np.multiply(delta, np.subtract(pred, b.mean, out=pred), out=pred), out=b.m2)

    def finish(self) -> list[SourcePredictions]:
        for b in self.live:
            b.out.mu[b.out.available] = b.mean
            b.out.var[b.out.available] = b.m2 / max(self.count - 1, 1) + self.s2y_acc / self.count
        return self.out


class _Batch:
    """The available rows of one batch of a request, its generator, its
    running (Welford) mean and sum of squared deviations, and three work rows."""

    def __init__(self, out, loc, day0, x, zg, seed):
        self.out, self.loc, self.day0, self.x, self.zg = out, loc, day0, x, zg
        self.rng = np.random.default_rng(seed)
        self.mean = np.zeros(x.size)
        self.m2 = np.zeros(x.size)
        self.work = np.empty((3, x.size))


def _held_out_predictor(data: ObservationTable, source: str, chain: _Training, seed: int) -> _Predictor:
    """The predictor of a chain's held-out records, at their sites among the
    chain's: one batch seeded with seed."""
    held = chain.held
    batch = (data.day[held], data.x_for(source)[held], data.z[held] if source == SAT else None, seed)
    return _Predictor(data, source, chain, data.sites, data.site_idx[held], data.record_ids[held], [batch])


def cv_predict(
    data: ObservationTable,
    fold_of_record: np.ndarray,
    source: str,
    mcmc: MCMCConfig,
    *,
    full_seed: int | None = None,
    full_requests=(),
) -> tuple[SourcePredictions, DownscalerFit | None]:
    """Out-of-sample predictive for every usable record via fold-held-out refits.

    fold_of_record assigns each record of `data` to a fold. A fold with a
    record usable for the source gets a chain fit on the other folds' usable
    records, seeded with a child of mcmc.seed by its position among those
    folds; a fold with none runs no chain. Every chain fits all sites of
    data, a site without training records latent in it, so all chains run
    as one lockstep batch, each equal to its own fit. A fold's predictive
    streams from its chain's live state, read at its sites. Given full_seed,
    a chain on every record runs last in the batch: it is fit_downscaler(data,
    source, mcmc seeded with full_seed, full_requests), its requests checked
    with the folds' before any chain runs. Returns the predictions and that
    chain's fit, or None without full_seed. Raises InsufficientDataError
    when no record, or no training record of a chain, is usable.
    """
    fold_of_record = np.asarray(fold_of_record, dtype=np.int64)
    if fold_of_record.shape[0] != data.n_records:
        raise SchemaError("fold assignment length must match the record count")
    usable = data.usable_mask(source)
    mu, var = np.full((2, data.n_records), np.nan)
    folds = np.unique(fold_of_record[usable])
    if not folds.size:
        raise InsufficientDataError(f"no usable {source} record")
    seeds = [int(c.generate_state(1)[0]) for c in np.random.SeedSequence(mcmc.seed).spawn(2 * folds.size)]
    # every fold's training set is checked in fold order before any chain runs
    chains = [_training_set(data, source, fold_of_record != fold, seeds[2 * k]) for k, fold in enumerate(folds)]
    consumers = [[_held_out_predictor(data, source, c, seeds[2 * k + 1])] for k, c in enumerate(chains)]
    if full_seed is not None:
        chains.append(_training_set(data, source, None, full_seed))
        consumers.append([_Predictor(data, source, chains[-1], *request) for request in full_requests])
    fits = _run_chains(_Blocks(data, source, mcmc, chains), consumers)
    for c, fit in zip(chains[: folds.size], fits):
        (held,), = fit.predictions
        mu[c.held] = held.mu
        var[c.held] = held.var
    pred = SourcePredictions(ids=data.record_ids, day=data.day.copy(), mu=mu, var=var, available=usable)
    return pred, fits[-1] if full_seed is not None else None
