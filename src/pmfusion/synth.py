"""Forward generative scenes with known truth.

generate_scene runs the full hierarchy forward: latent site fields from
their GPs, daily series from the CAR models, two gridded proxy fields,
covariate fields, a weight field on the logit scale, daily source regimes
z_st ~ Bernoulli(w_s), and monitor observations from the regime's
calibration model. Satellite cells are masked Bernoulli(sat_missing_rate).
The scene also carries the exact per-source component predictives
(mean = alpha_st + beta_st X + Z gamma, variance = sigma2_y), so ensemble
estimation can be tested in isolation from downscaler fitting.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .geo import CTM, SAT, GridSpec, Location, coords_array, distance_matrix, link_points
from .kernels import inv_logit, jittered_cholesky, sample_tridiag_mvn, car_neighbor_count
from .tables import COVARIATE_NAMES, N_COVARIATES, ObservationTable, PredictiveTable

_N_FEATURES = 64


@dataclass(frozen=True)
class FieldBank:
    """Smooth stationary random field built from seeded cosine features."""

    freqs: np.ndarray  # (F, 2) angular frequencies, 1/km
    phases: np.ndarray  # (F,)
    sd: float

    @classmethod
    def draw(cls, rng: np.random.Generator, length_km: float, sd: float) -> "FieldBank":
        freqs = rng.standard_normal((_N_FEATURES, 2)) / length_km
        phases = rng.uniform(0.0, 2.0 * np.pi, _N_FEATURES)
        return cls(freqs=freqs, phases=phases, sd=sd)

    def at(self, xy: np.ndarray) -> np.ndarray:
        proj = xy @ self.freqs.T + self.phases
        return self.sd * np.sqrt(2.0 / self.freqs.shape[0]) * np.cos(proj).sum(axis=1)


@dataclass(frozen=True)
class CovariateModel:
    """Six covariate fields; wind and temp also move day to day."""

    banks: tuple[FieldBank, ...]
    daily: np.ndarray  # (6, T)

    def at(self, xy: np.ndarray, days: np.ndarray) -> np.ndarray:
        out = np.empty((xy.shape[0], N_COVARIATES))
        day0 = np.asarray(days, dtype=np.int64) - 1
        for j, bank in enumerate(self.banks):
            out[:, j] = bank.at(xy) + self.daily[j][day0]
        return out


def _ar1_series(rng: np.random.Generator, t: int, phi: float, sd: float) -> np.ndarray:
    out = np.zeros(t)
    innov_sd = sd * np.sqrt(max(1.0 - phi * phi, 1e-12))
    out[0] = sd * rng.standard_normal()
    for i in range(1, t):
        out[i] = phi * out[i - 1] + innov_sd * rng.standard_normal()
    return out


@dataclass(frozen=True)
class SceneConfig:
    """True parameter values and sizes for a forward-generated scene."""

    n_sites: int = 20
    n_days: int = 30
    ctm_grid: GridSpec = field(
        default_factory=lambda: GridSpec(-10.0, -10.0, 12.0, 10, 10, CTM)
    )
    sat_grid: GridSpec = field(
        default_factory=lambda: GridSpec(0.0, 0.0, 4.0, 25, 25, SAT)
    )
    gamma: tuple = (0.5, -0.3, 0.2, 0.4, -0.2, 0.3)
    a_coreg: tuple = (1.2, 0.3, 0.8)
    theta1: float = 40.0
    theta2: float = 25.0
    eta_alpha0: float = 0.8
    eta_beta0: float = 0.6
    sigma2_alpha0: float = 1.0
    sigma2_beta0: float = 0.02
    sigma2_y: float = 1.0
    tau2: float = 1.0
    rho: float = 35.0
    alpha0_level: float = 3.0
    beta0_level: float = 1.0
    sat_missing_rate: float = 0.61
    obs_rate: float = 1.0
    x_base: float = 8.0
    x_spatial_sd: float = 2.5
    x_spatial_range: float = 30.0
    x_daily_sd: float = 2.0
    x_daily_ar: float = 0.6
    x_noise_sd: float = 1.0
    cov_daily_sd: float = 0.8
    seed: int = 0

    def __post_init__(self):
        if self.n_sites < 1 or self.n_days < 2:
            raise DomainError("need at least 1 site and 2 days")
        if self.seed < 0:
            raise DomainError("seed must be >= 0")
        if not 0.0 <= self.sat_missing_rate <= 1.0:
            raise DomainError("sat_missing_rate must lie in [0, 1]")
        if not 0.0 < self.obs_rate <= 1.0:
            raise DomainError("obs_rate must lie in (0, 1]")
        if len(self.gamma) != N_COVARIATES or len(self.a_coreg) != 3:
            raise DomainError("gamma needs 6 entries, a_coreg needs 3")
        if self.a_coreg[0] < 0 or self.a_coreg[2] < 0:
            raise DomainError("coregionalization diagonal must be nonnegative")
        if not (0.0 <= self.eta_alpha0 <= 1.0 and 0.0 <= self.eta_beta0 <= 1.0):
            raise DomainError("CAR dependence must lie in [0, 1]")
        for name in ("sigma2_alpha0", "sigma2_beta0", "sigma2_y", "tau2"):
            if not getattr(self, name) >= 0:
                raise DomainError(f"{name} must be >= 0")
        if not (self.theta1 > 0 and self.theta2 > 0 and self.rho > 0):
            raise DomainError("GP ranges must be positive")
        ext_sat = self.sat_grid.extent
        ext_ctm = self.ctm_grid.extent
        if not (
            ext_ctm[0] <= ext_sat[0]
            and ext_ctm[1] <= ext_sat[1]
            and ext_ctm[2] >= ext_sat[2]
            and ext_ctm[3] >= ext_sat[3]
        ):
            raise DomainError("satellite grid must sit inside the CTM grid")


@dataclass
class SceneTruth:
    """Everything the generator drew, plus the assembled data tables."""

    config: SceneConfig
    sites: list[Location]
    v1: np.ndarray
    v2: np.ndarray
    alpha0: np.ndarray
    beta0: np.ndarray
    q: np.ndarray
    w: np.ndarray
    regime: np.ndarray  # per record: 1 = CTM generated the day, 2 = satellite
    obs: ObservationTable
    inputs: PredictiveTable
    ctm_values: np.ndarray  # (T, rows, cols)
    sat_values: np.ndarray  # (T, rows, cols), pre-masking
    sat_present: np.ndarray  # (T, rows, cols) bool
    covariates: CovariateModel
    site_cell_ctm: np.ndarray
    site_cell_sat: np.ndarray


def _gp_draw(xy: np.ndarray, variance: float, range_km: float, rng) -> np.ndarray:
    d = distance_matrix(xy)
    chol, _ = jittered_cholesky(variance * np.exp(-d / range_km) + 1e-12 * np.eye(len(xy)))
    return chol @ rng.standard_normal(len(xy))


def _car_draw(t: int, eta: float, sigma2: float, rng) -> np.ndarray:
    if sigma2 == 0.0:
        return np.zeros(t)
    n_t = car_neighbor_count(t)
    eta_eff = min(eta, 0.9995)  # keep the joint prior proper at eta = 1
    diag = n_t / sigma2
    off = np.full(t - 1, -eta_eff / sigma2)
    return sample_tridiag_mvn(diag, off, np.zeros(t), rng)


def _grid_field(
    grid: GridSpec, cfg: SceneConfig, rng: np.random.Generator, t: int
) -> np.ndarray:
    bank = FieldBank.draw(rng, cfg.x_spatial_range, cfg.x_spatial_sd)
    centers = grid.all_centers()
    spatial = bank.at(centers).reshape(grid.n_rows, grid.n_cols)
    daily = _ar1_series(rng, t, cfg.x_daily_ar, cfg.x_daily_sd)
    noise = cfg.x_noise_sd * rng.standard_normal((t, grid.n_rows, grid.n_cols))
    return cfg.x_base + spatial[None, :, :] + daily[:, None, None] + noise


def generate_scene(cfg: SceneConfig) -> SceneTruth:
    """Run the generative model forward; bit-identical for a given config."""
    rng = np.random.default_rng(cfg.seed)
    ext = cfg.sat_grid.extent
    xy = np.column_stack(
        [
            rng.uniform(ext[0], ext[2], cfg.n_sites),
            rng.uniform(ext[1], ext[3], cfg.n_sites),
        ]
    )
    sites = [Location(f"m{i:03d}", float(x), float(y)) for i, (x, y) in enumerate(xy)]

    v1 = _gp_draw(xy, 1.0, cfg.theta1, rng)
    v2 = _gp_draw(xy, 1.0, cfg.theta2, rng)
    alpha0 = cfg.alpha0_level + _car_draw(cfg.n_days, cfg.eta_alpha0, cfg.sigma2_alpha0, rng)
    beta0 = cfg.beta0_level + _car_draw(cfg.n_days, cfg.eta_beta0, cfg.sigma2_beta0, rng)
    q = _gp_draw(xy, cfg.tau2, cfg.rho, rng) if cfg.tau2 > 0 else np.zeros(cfg.n_sites)
    w = inv_logit(q)

    ctm_values = _grid_field(cfg.ctm_grid, cfg, rng, cfg.n_days)
    sat_values = _grid_field(cfg.sat_grid, cfg, rng, cfg.n_days)
    sat_present = rng.random(sat_values.shape) >= cfg.sat_missing_rate

    banks = []
    for _ in range(N_COVARIATES):
        banks.append(FieldBank.draw(rng, cfg.x_spatial_range, 1.0))
    daily = np.zeros((N_COVARIATES, cfg.n_days))
    for j, name in enumerate(COVARIATE_NAMES):
        if name in ("wind", "temp"):
            daily[j] = _ar1_series(rng, cfg.n_days, cfg.x_daily_ar, cfg.cov_daily_sd)
    cov_model = CovariateModel(banks=tuple(banks), daily=daily)

    site_cell_ctm = link_points(sites, cfg.ctm_grid)
    site_cell_sat = link_points(sites, cfg.sat_grid)

    site_idx = np.repeat(np.arange(cfg.n_sites), cfg.n_days)
    day = np.tile(np.arange(1, cfg.n_days + 1), cfg.n_sites)
    day0 = day - 1
    rc_ctm = site_cell_ctm[site_idx]
    rc_sat = site_cell_sat[site_idx]
    x_ctm = ctm_values[day0, rc_ctm[:, 0], rc_ctm[:, 1]]
    x_sat_true = sat_values[day0, rc_sat[:, 0], rc_sat[:, 1]]
    sat_avail = sat_present[day0, rc_sat[:, 0], rc_sat[:, 1]]

    z = cov_model.at(xy[site_idx], day)
    gamma = np.asarray(cfg.gamma, dtype=float)
    zg = z @ gamma
    alpha_st = alpha0[day0] + cfg.a_coreg[0] * v1[site_idx]
    beta_st = beta0[day0] + cfg.a_coreg[1] * v1[site_idx] + cfg.a_coreg[2] * v2[site_idx]
    mean_ctm = alpha_st + beta_st * x_ctm + zg
    mean_sat = alpha_st + beta_st * x_sat_true + zg

    regime = np.where(rng.random(site_idx.size) < w[site_idx], 1, 2).astype(np.int8)
    mean_regime = np.where(regime == 1, mean_ctm, mean_sat)
    y = mean_regime + np.sqrt(cfg.sigma2_y) * rng.standard_normal(site_idx.size)

    keep = (
        rng.random(site_idx.size) < cfg.obs_rate
        if cfg.obs_rate < 1.0
        else np.ones(site_idx.size, dtype=bool)
    )
    obs = ObservationTable(
        sites=sites,
        site_idx=site_idx[keep],
        day=day[keep],
        y=y[keep],
        x_ctm=x_ctm[keep],
        x_sat=np.where(sat_avail, x_sat_true, np.nan)[keep],
        z=z[keep],
        n_days=cfg.n_days,
    )
    var_col = np.full(keep.sum(), max(cfg.sigma2_y, 1e-12))
    inputs = PredictiveTable(
        ids=obs.record_ids,
        day=day[keep],
        mu=np.column_stack([mean_ctm[keep], mean_sat[keep]]),
        var=np.column_stack([var_col, var_col]),
        available=np.column_stack(
            [np.ones(keep.sum(), dtype=bool), sat_avail[keep]]
        ),
        locations={s.site_id: s for s in sites},
    )
    return SceneTruth(
        config=cfg,
        sites=sites,
        v1=v1,
        v2=v2,
        alpha0=alpha0,
        beta0=beta0,
        q=q,
        w=w,
        regime=regime[keep],
        obs=obs,
        inputs=inputs,
        ctm_values=ctm_values,
        sat_values=sat_values,
        sat_present=sat_present,
        covariates=cov_model,
        site_cell_ctm=site_cell_ctm,
        site_cell_sat=site_cell_sat,
    )


@dataclass
class SplitScene:
    """Direct component predictives with a half-domain quality split.

    Component summaries are calibrated by construction: y - mu_k is exactly
    N(0, var_k) marginally, with component 1 sharper left of the midline and
    component 2 sharper right of it.
    """

    locations: list[Location]
    site_idx: np.ndarray
    day: np.ndarray
    y: np.ndarray
    truth: np.ndarray
    inputs: PredictiveTable
    err1: np.ndarray
    err2: np.ndarray


def generate_split_scene(
    n_sites: int = 60,
    n_days: int = 120,
    domain_km: float = 200.0,
    err_good: float = 1.0,
    err_bad: float = 3.0,
    meas_sd: float = 0.5,
    seed: int = 0,
) -> SplitScene:
    rng = np.random.default_rng(seed)
    xy = rng.uniform(0.0, domain_km, (n_sites, 2))
    locations = [Location(f"m{i:03d}", float(x), float(y)) for i, (x, y) in enumerate(xy)]
    err1 = np.where(xy[:, 0] < domain_km / 2.0, err_good, err_bad)
    err2 = np.where(xy[:, 0] < domain_km / 2.0, err_bad, err_good)

    bank = FieldBank.draw(rng, domain_km / 4.0, 2.0)
    daily = _ar1_series(rng, n_days, 0.7, 2.0)
    site_idx = np.repeat(np.arange(n_sites), n_days)
    day = np.tile(np.arange(1, n_days + 1), n_sites)
    truth = 10.0 + bank.at(xy)[site_idx] + daily[day - 1] + 0.5 * rng.standard_normal(site_idx.size)

    e1 = rng.standard_normal(site_idx.size)
    e2 = rng.standard_normal(site_idx.size)
    e0 = rng.standard_normal(site_idx.size)
    mu1 = truth + err1[site_idx] * e1
    mu2 = truth + err2[site_idx] * e2
    y = truth + meas_sd * e0
    var1 = err1[site_idx] ** 2 + meas_sd**2
    var2 = err2[site_idx] ** 2 + meas_sd**2

    inputs = PredictiveTable(
        ids=np.asarray([l.site_id for l in locations], dtype=object)[site_idx],
        day=day,
        mu=np.column_stack([mu1, mu2]),
        var=np.column_stack([var1, var2]),
        available=np.ones((site_idx.size, 2), dtype=bool),
        locations={l.site_id: l for l in locations},
    )
    return SplitScene(
        locations=locations,
        site_idx=site_idx,
        day=day,
        y=y,
        truth=truth,
        inputs=inputs,
        err1=err1,
        err2=err2,
    )
