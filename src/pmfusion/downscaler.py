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

from dataclasses import dataclass, replace

import numpy as np

from .chain import Chain
from .config import MCMCConfig
from .errors import InsufficientDataError, OutOfDomainError
from .geo import CTM, SAT, Location, distance_matrix
from .kernels import (
    ETA_GRID,
    ExpKriging,
    car_logdet_table,
    car_neighbor_count,
    car_precision_tridiag,
    chol_factor_solve,
    jittered_cholesky,
    mvn_logpdf_zero_mean,
    sample_from_log_weights,
    sample_tridiag_mvn,
    tri_solve,
)
from .tables import N_COVARIATES, ObservationTable

# N(0, A_PRIOR_VAR) prior on each free element of the coregionalization matrix
A_PRIOR_VAR = 1.0e3

# sweeps between rebuilds of the running residual, to cap its round-off
_REFRESH_EVERY = 128


@dataclass
class DownscalerFit:
    """Posterior sample set from fit_downscaler, arrays indexed by sample."""

    source: str
    sites: list[Location]
    n_days: int
    gamma: np.ndarray
    alpha0: np.ndarray
    beta0: np.ndarray
    a_coreg: np.ndarray  # (A11, A21, A22), lower-triangular by construction
    v1: np.ndarray
    v2: np.ndarray
    sigma2_y: np.ndarray
    sigma2_alpha0: np.ndarray
    sigma2_beta0: np.ndarray
    eta_alpha0: np.ndarray
    eta_beta0: np.ndarray
    theta1: np.ndarray
    theta2: np.ndarray
    z_mean: np.ndarray
    z_sd: np.ndarray
    acceptance: dict

    def __len__(self) -> int:
        return self.sigma2_y.shape[0]


@dataclass
class SourcePredictions:
    """Posterior predictive summaries for one source at arbitrary targets."""

    ids: np.ndarray
    day: np.ndarray
    mu: np.ndarray
    var: np.ndarray
    available: np.ndarray


class _Blocks:
    """Full-conditional updates for one source's model.

    Holds the data layout and the current state; each draw_* method is one
    Gibbs/MH block so the blocks can be exercised and checked in isolation.
    """

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
        return float(ETA_GRID[sample_from_log_weights(logw, self.rng)])

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


def fit_downscaler(data: ObservationTable, source: str, mcmc: MCMCConfig) -> DownscalerFit:
    """Run the MCMC and return the thinned post-burn-in sample set.

    Parameters
    ----------
    data   : ObservationTable; records with a missing value for `source`
             are excluded from that source's likelihood
    source : "ctm" (no covariate block) or "sat" (covariates included)
    mcmc   : chain configuration; the run is deterministic given mcmc.seed

    Raises InsufficientDataError when any site has no usable record for the
    source, the horizon is shorter than 2 days, or a covariate is constant.
    """
    blocks = _Blocks(data, source, mcmc)
    n_kept = mcmc.n_kept
    out = DownscalerFit(
        source=source,
        sites=blocks.sites,
        n_days=blocks.T,
        gamma=np.zeros((n_kept, blocks.p_cov)),
        alpha0=np.zeros((n_kept, blocks.T)),
        beta0=np.zeros((n_kept, blocks.T)),
        a_coreg=np.zeros((n_kept, 3)),
        v1=np.zeros((n_kept, blocks.S)),
        v2=np.zeros((n_kept, blocks.S)),
        sigma2_y=np.zeros(n_kept),
        sigma2_alpha0=np.zeros(n_kept),
        sigma2_beta0=np.zeros(n_kept),
        eta_alpha0=np.zeros(n_kept),
        eta_beta0=np.zeros(n_kept),
        theta1=np.zeros(n_kept),
        theta2=np.zeros(n_kept),
        z_mean=blocks.z_mean,
        z_sd=blocks.z_sd,
        acceptance={},
    )
    chain = blocks.chain
    for _, j in chain:
        blocks.sweep()
        if j is not None:
            out.gamma[j] = blocks.gamma
            out.alpha0[j] = blocks.alpha0
            out.beta0[j] = blocks.beta0
            out.a_coreg[j] = blocks.a
            out.v1[j] = blocks.v1
            out.v2[j] = blocks.v2
            out.sigma2_y[j] = blocks.sigma2_y
            out.sigma2_alpha0[j] = blocks.sigma2_a
            out.sigma2_beta0[j] = blocks.sigma2_b
            out.eta_alpha0[j] = blocks.eta_a
            out.eta_beta0[j] = blocks.eta_b
            out.theta1[j] = blocks.theta1
            out.theta2[j] = blocks.theta2
    out.acceptance = {
        **chain.acceptance(),
        "step_theta": (chain.step("theta1"), chain.step("theta2")),
    }
    return out


def predict_at(
    fit: DownscalerFit,
    locations: list[Location],
    loc_idx: np.ndarray,
    days: np.ndarray,
    linked_x: np.ndarray,
    z: np.ndarray | None = None,
    *,
    seed: int = 0,
) -> SourcePredictions:
    """Posterior predictive mean/variance at arbitrary targets.

    Targets are records (locations[loc_idx[i]], days[i]) with linked grid
    value linked_x[i] (NaN marks a missing satellite retrieval, yielding
    available=False). Latent site fields at new locations are drawn from
    their GP conditionals given the fitted monitors, per posterior sample;
    at a fitted monitor the conditional collapses onto the sampled value.
    The returned variance is the spread of per-sample predictions plus the
    mean residual variance, i.e. a full posterior predictive.

    z holds raw-scale covariates (standardized internally with the scaler
    from the fit); required when the fit used the satellite source.
    """
    batch = (days, linked_x, z, seed)
    return predict_batches(fit, locations, loc_idx, [batch])[0]


def predict_batches(
    fit: DownscalerFit,
    locations: list[Location],
    loc_idx: np.ndarray,
    batches,
) -> list[SourcePredictions]:
    """predict_at for several record batches on the same targets.

    batches is an iterable, read once, of (days, linked_x, z, seed) as in
    predict_at; each gives the same result as its own predict_at call, and
    only its available rows are kept. Each posterior sample's GP conditional
    at the locations is built once and shared by all batches; every batch
    draws its fields from its own generator, in sample order.
    """
    loc_idx = np.asarray(loc_idx, dtype=np.int64)
    n = loc_idx.shape[0]
    ids = np.array([locations[i].site_id for i in loc_idx], dtype=object)
    out, live = [], []
    for days, linked_x, z, seed in batches:
        days = np.asarray(days, dtype=np.int64)
        linked_x = np.asarray(linked_x, dtype=float)
        if days.shape[0] != n or linked_x.shape[0] != n:
            raise ValueError("loc_idx, days, linked_x must have equal length")
        if days.min(initial=1) < 1 or days.max(initial=1) > fit.n_days:
            raise OutOfDomainError(f"target days must lie in 1..{fit.n_days}")
        if fit.source == SAT:
            if z is None:
                raise ValueError("satellite predictions need the covariate block z")
            z = np.asarray(z, dtype=float)
            if z.shape != (n, N_COVARIATES):
                raise ValueError(f"z must have shape ({n}, {N_COVARIATES})")
        avail = np.isfinite(linked_x)
        pred = SourcePredictions(
            ids=ids, day=days, mu=np.full(n, np.nan), var=np.full(n, np.nan), available=avail
        )
        out.append(pred)
        if avail.any():
            sub = np.flatnonzero(avail)
            zg = (z[sub] - fit.z_mean) / fit.z_sd if fit.source == SAT else None
            live.append(_Batch(pred, loc_idx[sub], days[sub] - 1, linked_x[sub], zg, seed))
    if not live:
        return out

    d_sites = distance_matrix(fit.sites)
    d_cross = distance_matrix(fit.sites, locations)
    n_loc = len(locations)
    # a rejected range proposal repeats theta, and with it the field operators
    krige1, krige2 = ExpKriging(d_sites, d_cross), ExpKriging(d_sites, d_cross)
    count = 0
    s2y_acc = 0.0
    for j in range(len(fit)):
        mean1, resid1 = krige1(fit.v1[j], float(fit.theta1[j]))
        mean2, resid2 = krige2(fit.v2[j], float(fit.theta2[j]))
        sd1, sd2 = np.sqrt(resid1), np.sqrt(resid2)
        a11, a21, a22 = fit.a_coreg[j]
        count += 1
        s2y_acc += float(fit.sigma2_y[j])
        for b in live:
            v1_star = mean1 + sd1 * b.rng.standard_normal(n_loc)
            v2_star = mean2 + sd2 * b.rng.standard_normal(n_loc)
            alpha1 = a11 * v1_star
            beta1 = a21 * v1_star + a22 * v2_star
            pred = (
                fit.alpha0[j][b.day0]
                + alpha1[b.loc]
                + (fit.beta0[j][b.day0] + beta1[b.loc]) * b.x
            )
            if b.zg is not None:
                pred = pred + b.zg @ fit.gamma[j]
            delta = pred - b.mean
            b.mean += delta / count
            b.m2 += delta * (pred - b.mean)

    for b in live:
        b.out.mu[b.out.available] = b.mean
        b.out.var[b.out.available] = b.m2 / max(count - 1, 1) + s2y_acc / count
    return out


class _Batch:
    """The available rows of one predict_batches batch, its generator and its
    running (Welford) mean and sum of squared deviations."""

    def __init__(self, out, loc, day0, x, zg, seed):
        self.out, self.loc, self.day0, self.x, self.zg = out, loc, day0, x, zg
        self.rng = np.random.default_rng(seed)
        self.mean = np.zeros(x.size)
        self.m2 = np.zeros(x.size)


def cv_predict(
    data: ObservationTable,
    fold_of_record: np.ndarray,
    source: str,
    mcmc: MCMCConfig,
) -> SourcePredictions:
    """Out-of-sample predictive for every record via fold-held-out refits.

    fold_of_record assigns each record of `data` to a fold; for each fold
    the model is refit on the complement and the fold's records predicted.
    Fold fits use independent child seeds of mcmc.seed, so the result is
    deterministic and independent of fold ordering.
    """
    fold_of_record = np.asarray(fold_of_record, dtype=np.int64)
    if fold_of_record.shape[0] != data.n_records:
        raise ValueError("fold assignment length must match the record count")
    n = data.n_records
    mu = np.full(n, np.nan)
    var = np.full(n, np.nan)
    avail = data.usable_mask(source)
    ids = np.array([data.sites[i].site_id for i in data.site_idx], dtype=object)

    folds = np.unique(fold_of_record)
    seed_seq = np.random.SeedSequence(mcmc.seed)
    children = seed_seq.spawn(2 * folds.size)
    for k, fold in enumerate(folds):
        held = fold_of_record == fold
        train = data.subset(~held)
        fit_seed = int(children[2 * k].generate_state(1)[0])
        pred_seed = int(children[2 * k + 1].generate_state(1)[0])
        fit = fit_downscaler(train, source, replace(mcmc, seed=fit_seed))
        held_idx = np.flatnonzero(held & avail)
        if held_idx.size == 0:
            continue
        held_sites = np.unique(data.site_idx[held_idx])
        remap = {int(s): i for i, s in enumerate(held_sites)}
        loc_list = [data.sites[int(s)] for s in held_sites]
        loc_idx = np.array([remap[int(s)] for s in data.site_idx[held_idx]])
        pred = predict_at(
            fit,
            loc_list,
            loc_idx,
            data.day[held_idx],
            data.x_for(source)[held_idx],
            data.z[held_idx] if source == SAT else None,
            seed=pred_seed,
        )
        mu[held_idx] = pred.mu
        var[held_idx] = pred.var
    return SourcePredictions(ids=ids, day=data.day.copy(), mu=mu, var=var, available=avail)
