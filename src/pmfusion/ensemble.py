"""Spatially varying model averaging of the two downscalers.

Given per-(site, day) Gaussian predictive summaries (mu, sigma2) for the
CTM-based model (component 1) and the satellite-based model (component 2),
the observed monitor values follow the two-component mixture

    p(y_st) = w_s N(y | mu1, var1) + (1 - w_s) N(y | mu2, var2)

with a site-level weight w_s whose logit q_s = logit(w_s) is a zero-mean
GP with covariance tau2 * exp(-d / rho). Estimation augments the mixture
with daily memberships z_st and cycles four updates:

  1. z_st | rest  ~ Bernoulli of the posterior membership probability;
  2. q_s  | rest  by random-walk MH against the Bernoulli likelihood
     sum_t [z_st q_s - log(1 + e^{q_s})] plus the univariate GP
     conditional prior of q_s given q_{-s};
  3. tau2 | rest  ~ IG(a + S/2, b + q' C(rho)^{-1} q / 2), C the
     correlation matrix;
  4. rho  | rest  by MH with a log-normal proposal; the acceptance ratio
     multiplies the MVN likelihood of q, the Gamma(shape, rate) prior and
     the proposal Jacobian rho_new / rho_old.

An accept test's last bits reach no state unless its comparison flips, so
the tests are formed on arrays (steps 1 and 2) or from the quadratic form
the tau2 draw already holds (step 4); the state updates keep their own
arithmetic.

The two-stage alternative replaces 2-4 with per-site conjugate
Beta(1 + sum z, 1 + T_s - sum z) weights and kriges the logits of the
posterior medians afterwards. Component summaries are treated as fixed
known inputs; fit them out-of-sample (cross-validated) to avoid rewarding
overfit components.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .chain import Chain
from .config import MCMCConfig
from .errors import DomainError, NoInputsError, SchemaError
from .geo import Location, distance_matrix
from .io import key_rows
from .kernels import (
    ExpKriging,
    chol_factor_solve,
    clipped_logit,
    inv_logit,
    jittered_cholesky,
    ndtr,
    ndtri,
    norm_logpdf,
    tri_solve,
)

# refresh r = P q from scratch periodically to cap round-off accumulation
_REFRESH_EVERY = 128
_SQRT_2PI = math.sqrt(2.0 * math.pi)
# a membership probability inv_logit(q + delta_ll) is formed as
# 1 / (1 + exp(-q) exp(-delta_ll)) with q clipped to +-_SPLIT_Q, except on
# rows with |delta_ll| > _SPLIT_LL: no factor or product then leaves the
# normal range, and a clipped q keeps |q + delta_ll| > 100 and its sign
_SPLIT_Q, _SPLIT_LL = 400.0, 300.0


@dataclass
class WeightFieldSamples:
    """Posterior sample set of (q, tau2, rho) over a fixed site list."""

    locations: list[Location]
    q: np.ndarray  # (n_samples, S)
    tau2: np.ndarray
    rho: np.ndarray
    t_s: np.ndarray  # usable-day count per site
    acceptance: dict = field(default_factory=dict)

    @property
    def site_ids(self) -> list[str]:
        return [l.site_id for l in self.locations]

    def __len__(self) -> int:
        return self.tau2.shape[0]

    def w_samples(self) -> np.ndarray:
        return inv_logit(self.q)

    def summary(self) -> dict[str, np.ndarray]:
        w = self.w_samples()
        return {
            "w_mean": w.mean(axis=0),
            "w_lo": np.quantile(w, 0.025, axis=0),
            "w_hi": np.quantile(w, 0.975, axis=0),
            "q_mean": self.q.mean(axis=0),
        }


@dataclass(frozen=True)
class MixtureDistribution:
    """Two-component Normal mixtures; w is the weight on component 1 (CTM).

    The fields are scalars or equal-shape arrays, one entry per predictive.
    """

    w: float | np.ndarray
    mu1: float | np.ndarray
    var1: float | np.ndarray
    mu2: float | np.ndarray
    var2: float | np.ndarray

    def __post_init__(self):
        if not np.all((self.w >= 0.0) & (self.w <= 1.0)):
            raise DomainError("mixture weight must lie in [0, 1]")
        if not np.all((self.var1 > 0) & (self.var2 > 0) & np.isfinite(self.var1) & np.isfinite(self.var2)):
            raise DomainError("component variances must be finite and positive")
        if not np.all(np.isfinite(self.mu1) & np.isfinite(self.mu2)):
            raise DomainError("component means must be finite")

    @property
    def mean(self):
        return self.w * self.mu1 + (1.0 - self.w) * self.mu2

    @property
    def variance(self):
        m = self.mean
        second = self.w * (self.var1 + self.mu1**2) + (1.0 - self.w) * (
            self.var2 + self.mu2**2
        )
        return second - m * m

    @property
    def sd(self):
        return np.sqrt(np.maximum(self.variance, 0.0))

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        c = self.w * ndtr((x - self.mu1) / np.sqrt(self.var1)) + (
            1.0 - self.w
        ) * ndtr((x - self.mu2) / np.sqrt(self.var2))
        return float(c) if c.ndim == 0 else c

    def quantile(self, p: float):
        """Inverse CDF at level p in [Phi(-10) (about 7.6e-24), 1)."""
        if not ndtr(-10.0) <= p < 1.0:
            raise DomainError("quantile level must lie in [Phi(-10), 1)")
        return mixture_quantiles_arrays(self.w, self.mu1, self.var1, self.mu2, self.var2, p)


def predict_mixture(w, mu: np.ndarray, var: np.ndarray, available: np.ndarray) -> MixtureDistribution:
    """Combine the available component predictives of each row into a mixture.

    mu, var and available are (n, 2) arrays with the CTM model in column 0
    and the satellite model in column 1; w (scalar or (n,)) is the weight on
    the CTM model and is read only where both exist. A row with one source
    collapses onto it (w forced to 1 or 0). Raises NoInputsError when a row
    has neither.
    """
    a1, a2 = available[:, 0], available[:, 1]
    if not np.all(a1 | a2):
        raise NoInputsError("no available component to combine")
    return MixtureDistribution(
        np.where(a1 & a2, w, np.where(a1, 1.0, 0.0)),
        np.where(a1, mu[:, 0], mu[:, 1]),
        np.where(a1, var[:, 0], var[:, 1]),
        np.where(a2, mu[:, 1], mu[:, 0]),
        np.where(a2, var[:, 1], var[:, 0]),
    )


def mixture_quantiles_arrays(
    w: np.ndarray,
    mu1: np.ndarray,
    var1: np.ndarray,
    mu2: np.ndarray,
    var2: np.ndarray,
    p: float,
    tol: float = 1e-10,
) -> np.ndarray:
    """Vectorized mixture quantiles, to tol in units of the wider SD.

    The components' own p-quantiles bracket each root. Newton steps on the
    exact CDF start from their w-weighted mean; a step that leaves the
    bracket or fails to halve the last one is a bisection instead (rtsafe).
    Only unconverged rows are iterated, for at most 100 passes. A level
    above 1/2 is solved as 1 - p on the mirrored mixture, so the CDF keeps
    its relative precision in either tail.
    """
    w, mu1, var1, mu2, var2 = np.broadcast_arrays(w, mu1, var1, mu2, var2)
    shape = w.shape
    sign = -1.0 if p > 0.5 else 1.0
    p = min(p, 1.0 - p)  # exact for p >= 1/2
    w, mu1, mu2 = w.ravel(), sign * mu1.ravel(), sign * mu2.ravel()
    sd1, sd2 = np.sqrt(var1).ravel(), np.sqrt(var2).ravel()
    a, b = mu1 + sd1 * ndtri(p), mu2 + sd2 * ndtri(p)
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    x = np.clip(w * a + (1.0 - w) * b, lo, hi)
    stop = tol * np.maximum(sd1, sd2)
    last = hi - lo
    out, rows = np.empty_like(x), np.arange(x.size)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for _ in range(100):
            u1, u2 = (x - mu1) / sd1, (x - mu2) / sd2
            f = w * ndtr(u1) + (1.0 - w) * ndtr(u2) - p
            pdf = (w / sd1 * np.exp(-0.5 * u1 * u1) + (1.0 - w) / sd2 * np.exp(-0.5 * u2 * u2)) / _SQRT_2PI
            below = f < 0
            lo, hi = np.where(below, x, lo), np.where(below, hi, x)
            step = f / pdf
            newton = x - step
            bisect = ~((lo <= newton) & (newton <= hi)) | (np.abs(step) > 0.5 * last)
            newton = np.where(bisect, 0.5 * (lo + hi), newton)
            last, x = np.abs(newton - x), newton
            done = last <= stop
            if done.all():
                break
            if done.any():
                out[rows[done]] = x[done]
                keep = ~done
                rows, x, lo, hi, last, stop, w, mu1, mu2, sd1, sd2 = (
                    v[keep] for v in (rows, x, lo, hi, last, stop, w, mu1, mu2, sd1, sd2)
                )
    out[rows] = x
    return (sign * out).reshape(shape)[()]


# -- MCMC steps ----------------------------------------------------------


def update_q(
    z_sum: np.ndarray,
    t_s: np.ndarray,
    q: np.ndarray,
    prec: np.ndarray,
    r: np.ndarray,
    step_sd: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """Step 2: sequential random-walk MH sweep over the site logits.

    prec is the precision of the GP prior (tau2 * C(rho))^{-1}; r must
    equal prec @ q on entry and is kept in sync in place. Returns the
    per-site acceptance indicator array.

    Site s moves by delta_s when log u_s is below its Bernoulli
    log-likelihood ratio plus -delta_s**2 prec_ss / 2 - delta_s r_s, the
    log ratio of its GP conditional. Only r_s depends on the sites visited
    before s, so the rest of every test is formed on arrays first.
    """
    s_count = q.shape[0]
    prop = q + step_sd * rng.standard_normal(s_count)
    with np.errstate(divide="ignore"):
        log_u = np.log(rng.random(s_count))  # a uniform of 0 accepts
    delta = prop - q
    lik = z_sum * delta - t_s * (_log1pexp(prop) - _log1pexp(q))
    a = log_u - lik + 0.5 * delta * delta * prec.diagonal()
    accepted = np.zeros(s_count, dtype=bool)
    cols = prec.T  # cols[s] is prec[:, s], indexed faster
    for s, (a_s, d_s) in enumerate(zip(a.tolist(), delta.tolist())):
        if a_s + d_s * r.item(s) < 0.0:
            r += cols[s] * d_s
            accepted[s] = True
    q[accepted] = prop[accepted]
    return accepted


def _log1pexp(x: np.ndarray) -> np.ndarray:
    return np.logaddexp(0.0, x)


def update_tau2(quad: float, s_count: int, mcmc: MCMCConfig, rng: np.random.Generator) -> float:
    """Step 3: the conjugate IG(ig_a + S/2, ig_b + quad / 2) draw of tau2,
    given quad = q' C(rho)^{-1} q over the S sites."""
    return float((mcmc.ig_b + 0.5 * quad) / rng.gamma(mcmc.ig_a + 0.5 * s_count, 1.0))


def update_rho(
    q: np.ndarray,
    tau2: float,
    rho: float,
    d: np.ndarray,
    corr_chol: np.ndarray,
    step: float,
    rng: np.random.Generator,
    mcmc: MCMCConfig,
    quad: float | None = None,
) -> tuple[float, bool, np.ndarray]:
    """Step 4: log-normal random-walk MH on the weight-field range.

    d is the site distance matrix, corr_chol the Cholesky factor of
    C(rho) = exp(-d / rho) and step the SD of log(rho_prop / rho). The
    target is the MVN(0, tau2 * C) density of q times the Gamma prior of
    mcmc. quad is q' C(rho)^{-1} q at the current range, solved here when
    the caller does not hold it. Returns (rho, accepted, the factor at the
    returned rho).
    """
    prop = float(rho * math.exp(step * rng.standard_normal()))
    chol_prop, _ = jittered_cholesky(np.exp(-d / prop))

    def log_target(r: float, chol: np.ndarray, quad: float | None) -> float:
        if quad is None:
            half = tri_solve(chol, q)
            quad = float(half @ half)
        log_lik = -float(np.log(chol.diagonal()).sum()) - 0.5 * quad / tau2
        return log_lik + (mcmc.rho_prior_shape - 1.0) * math.log(r) - mcmc.rho_prior_rate * r

    # + log(prop) - log(rho) is the Jacobian of the log-normal proposal
    delta = log_target(prop, chol_prop, None) - log_target(rho, corr_chol, quad) + math.log(prop) - math.log(rho)
    u = rng.random()
    if u == 0.0 or math.log(u) < delta:
        return prop, True, chol_prop
    return rho, False, corr_chol


# -- fitters -------------------------------------------------------------


class _EnsembleProblem:
    """Aligned arrays for the weight-field samplers."""

    def __init__(self, y, inputs, locations):
        self.locations = list(locations)
        self.s_count = len(self.locations)
        self.y = np.asarray(y, dtype=float)
        if self.y.shape[0] != inputs.n_records:
            raise SchemaError(f"y length {self.y.shape[0]} must match the {inputs.n_records} predictive records")
        site_ids = np.asarray([l.site_id for l in self.locations], dtype=object)
        self.site_idx = key_rows((site_ids,), (inputs.ids,))
        if (self.site_idx < 0).any():
            sid = inputs.ids[np.argmax(self.site_idx < 0)]
            raise SchemaError(f"record id {sid!r} not among the weight-field sites")
        self.rows = np.flatnonzero(inputs.both_available())
        self.row_site = self.site_idx[self.rows]
        y_b, mu, var = self.y[self.rows], inputs.mu[self.rows], inputs.var[self.rows]
        self.delta_ll = norm_logpdf(y_b, mu[:, 0], var[:, 0]) - norm_logpdf(y_b, mu[:, 1], var[:, 1])
        self.t_s = np.bincount(self.row_site, minlength=self.s_count).astype(float)
        self.odds_ll = np.exp(-np.clip(self.delta_ll, -_SPLIT_LL, _SPLIT_LL))
        self.unsplit = np.flatnonzero(np.abs(self.delta_ll) > _SPLIT_LL)

    def assignment_probs(self, q: np.ndarray) -> np.ndarray:
        """Each row's P(z = 1) = inv_logit(q_s + delta_ll) given the site logits."""
        p = 1.0 / (1.0 + np.exp(-q.clip(-_SPLIT_Q, _SPLIT_Q))[self.row_site] * self.odds_ll)
        if self.unsplit.size:
            p[self.unsplit] = inv_logit(q[self.row_site[self.unsplit]] + self.delta_ll[self.unsplit])
        return p

    def draw_assignment_sums(self, q: np.ndarray, rng) -> np.ndarray:
        """Step 1: draw every membership; returns the per-site sums of z."""
        z = rng.random(self.rows.size) < self.assignment_probs(q)
        return np.bincount(self.row_site, weights=z.astype(float), minlength=self.s_count)


class _Range:
    """The range state both fitters share: site distances, rho (started at a
    quarter of the site diameter) and the Cholesky factor of C(rho)."""

    def __init__(self, locations):
        self.d = distance_matrix(locations)
        self.rho = max(float(self.d.max()) / 4.0, 1e-3)
        self.chol, _ = jittered_cholesky(np.exp(-self.d / self.rho))

    def move(self, q: np.ndarray, quad: float, tau2: float, chain: Chain, rng) -> bool:
        """Step 4 with the chain's rho step, counted as one rho try; quad is
        q' C(rho)^{-1} q at the current range."""
        self.rho, accepted, self.chol = update_rho(
            q, tau2, self.rho, self.d, self.chol, chain.step("rho"), rng, chain.mcmc, quad
        )
        chain.tried("rho", accepted)
        return accepted


def fit_joint(y, inputs, locations, mcmc: MCMCConfig) -> WeightFieldSamples:
    """Joint MCMC over memberships, logits and GP hyperparameters.

    y aligns with inputs row-wise; only rows with both components present
    enter the likelihood. Sites with no such rows keep their GP prior.
    Inputs should be out-of-sample (stage-1) predictive summaries.
    """
    prob = _EnsembleProblem(y, inputs, locations)
    rng = np.random.default_rng(mcmc.seed)
    s_count = prob.s_count
    field = _Range(prob.locations)

    q = np.zeros(s_count)
    tau2 = 1.0
    prec = chol_factor_solve(field.chol, np.eye(s_count)) / tau2
    r = prec @ q

    chain = Chain(mcmc, q=np.full(s_count, math.sqrt(mcmc.kappa_w)), rho=math.sqrt(mcmc.kappa_rho))
    out_q, out_tau2, out_rho = np.zeros((mcmc.n_kept, s_count)), np.zeros(mcmc.n_kept), np.zeros(mcmc.n_kept)

    for it, j in chain:
        z_sum = prob.draw_assignment_sums(q, rng)
        chain.tried("q", update_q(z_sum, prob.t_s, q, prec, r, chain.step("q"), rng))

        # q' C^{-1} q with the current precision
        quad = tau2 * float(q @ r)
        tau2_new = update_tau2(quad, s_count, mcmc, rng)
        prec *= tau2 / tau2_new
        r *= tau2 / tau2_new
        tau2 = tau2_new

        if field.move(q, quad, tau2, chain, rng):
            prec = chol_factor_solve(field.chol, np.eye(s_count)) / tau2
            r = prec @ q
        elif it % _REFRESH_EVERY == 0:
            r = prec @ q

        if j is not None:
            out_q[j], out_tau2[j], out_rho[j] = q, tau2, field.rho
    return WeightFieldSamples(prob.locations, out_q, out_tau2, out_rho, prob.t_s, chain.acceptance())


def fit_site_weights(y, inputs, locations, mcmc: MCMCConfig) -> tuple[np.ndarray, np.ndarray]:
    """Stage A of the two-stage fit: independent conjugate site weights.

    Gibbs alternates memberships z | w with w_s | z ~ Beta(1 + sum z,
    1 + T_s - sum z), all sites in parallel. Returns (w_samples with shape
    (n_kept, S), t_s).
    """
    prob = _EnsembleProblem(y, inputs, locations)
    rng = np.random.default_rng(mcmc.seed)
    w = np.full(prob.s_count, 0.5)
    out_w = np.zeros((mcmc.n_kept, prob.s_count))
    for _, j in Chain(mcmc):
        z_sum = prob.draw_assignment_sums(clipped_logit(w), rng)
        w = rng.beta(1.0 + z_sum, 1.0 + prob.t_s - z_sum)
        if j is not None:
            out_w[j] = w
    return out_w, prob.t_s


def fit_two_stage(y, inputs, locations, mcmc: MCMCConfig) -> WeightFieldSamples:
    """Two-stage estimation: conjugate site weights, then GP hyperparameters.

    The kriging data are the logits of the per-site posterior medians,
    treated as known; tau2 and rho are then sampled against that fixed
    vector with steps 3 and 4. Sites with no usable days are excluded from
    the field.
    """
    w_samples, t_s = fit_site_weights(y, inputs, locations, mcmc)
    keep = t_s > 0
    if not keep.any():
        raise NoInputsError("no site with both components available")
    kept_locs = [l for l, k in zip(locations, keep) if k]
    q_med = clipped_logit(np.median(w_samples[:, keep], axis=0))

    rng = np.random.default_rng(np.random.SeedSequence(mcmc.seed).spawn(1)[0].generate_state(1)[0])
    field = _Range(kept_locs)
    chain = Chain(mcmc, rho=math.sqrt(mcmc.kappa_rho))
    out_tau2, out_rho = np.zeros(mcmc.n_kept), np.zeros(mcmc.n_kept)
    half = tri_solve(field.chol, q_med)
    for _, j in chain:
        quad = float(half @ half)
        tau2 = update_tau2(quad, q_med.shape[0], mcmc, rng)
        if field.move(q_med, quad, tau2, chain, rng):
            half = tri_solve(field.chol, q_med)
        if j is not None:
            out_tau2[j], out_rho[j] = tau2, field.rho
    out_q = np.tile(q_med, (mcmc.n_kept, 1))
    return WeightFieldSamples(kept_locs, out_q, out_tau2, out_rho, t_s[keep], chain.acceptance())


def krige_weights(
    field: WeightFieldSamples,
    targets,
    seed: int = 0,
    chunk: int = 2048,
) -> dict[str, np.ndarray]:
    """Krige the logit field to targets and push draws through inv_logit.

    For each posterior sample the logits are kriged (simple kriging, known
    mean 0) with that sample's (tau2, rho), a conditional draw is taken, and
    the weight is its inverse logit. Returns per-target posterior summaries
    {w_mean, w_lo, w_hi, q_mean}. Far from all monitors the draws revert to
    N(0, tau2), i.e. weights centered on 1/2 with wide intervals.
    """
    rng = np.random.default_rng(seed)
    d_obs = distance_matrix(field.locations)
    d_cross = distance_matrix(field.locations, targets)
    n_t = d_cross.shape[1]
    n_s = len(field)
    w_mean = np.zeros(n_t)
    w_lo = np.zeros(n_t)
    w_hi = np.zeros(n_t)
    q_mean = np.zeros(n_t)
    for start in range(0, n_t, chunk):
        stop = min(start + chunk, n_t)
        # a rejected range proposal repeats rho, and with it the operators
        krige = ExpKriging(d_obs, d_cross[:, start:stop])
        draws = np.zeros((n_s, stop - start))
        for j in range(n_s):
            mean, resid = krige(field.q[j], float(field.rho[j]))
            var = float(field.tau2[j]) * resid
            draws[j] = mean + np.sqrt(var) * rng.standard_normal(stop - start)
        w_draws = inv_logit(draws)
        w_mean[start:stop] = w_draws.mean(axis=0)
        w_lo[start:stop], w_hi[start:stop] = np.quantile(w_draws, [0.025, 0.975], axis=0)
        q_mean[start:stop] = draws.mean(axis=0)
    return {"w_mean": w_mean, "w_lo": w_lo, "w_hi": w_hi, "q_mean": q_mean}
