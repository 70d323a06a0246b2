"""Downscaler MCMC: conjugate blocks against dense oracles, recovery runs.

The block-level checks freeze every other parameter, draw one Gibbs block
repeatedly, and compare Monte Carlo moments with the analytic full
conditional computed by an independent dense linear-algebra route.
"""

import weakref
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import cho_solve
from scipy.stats import chi2

from pmfusion import downscaler, kernels
from pmfusion.chain import Chain
from pmfusion.config import MCMCConfig
from pmfusion.downscaler import _Blocks, cv_predict, fit_downscaler
from pmfusion.errors import DomainError, InsufficientDataError, OutOfDomainError, SchemaError
from pmfusion.geo import CTM, SAT, Location, distance_matrix
from pmfusion.kernels import ETA_GRID, jittered_cholesky
from pmfusion.tables import N_COVARIATES, ObservationTable
import oracles
from oracles import (
    record_chains,
    recorded_fit,
    scipy_chol_factor_solve,
    scipy_kriging,
    scipy_tri_solve,
    scipy_tridiag_mvn,
)


def build_table(rng, n_sites, n_days, *, alpha=0.0, beta=1.0, gamma=None,
                noise_sd=1.0, domain=100.0):
    """Balanced panel with y = alpha + beta*x + z@gamma + noise, x shared by
    both sources."""
    sites = [
        Location(f"s{i:02d}", float(rng.uniform(0, domain)), float(rng.uniform(0, domain)))
        for i in range(n_sites)
    ]
    site_idx = np.repeat(np.arange(n_sites), n_days)
    day = np.tile(np.arange(1, n_days + 1), n_sites)
    n = site_idx.size
    x = rng.normal(8.0, 3.0, n)
    z = rng.normal(0.0, 1.0, (n, N_COVARIATES))
    g = np.zeros(N_COVARIATES) if gamma is None else np.asarray(gamma, dtype=float)
    y = alpha + beta * x + z @ g + noise_sd * rng.standard_normal(n)
    return ObservationTable(
        sites=sites, site_idx=site_idx, day=day, y=y,
        x_ctm=x.copy(), x_sat=x.copy(), z=z, n_days=n_days,
    )


def one_chain(data, source, mcmc):
    """fit_downscaler's batch: one chain on every record, seeded with mcmc.seed."""
    return _Blocks(data, source, mcmc, [downscaler._training_set(data, source, None, mcmc.seed)])


def with_y(data, y):
    """data with its monitor values replaced by y."""
    return ObservationTable(
        sites=data.sites, site_idx=data.site_idx, day=data.day, y=y,
        x_ctm=data.x_ctm, x_sat=data.x_sat, z=data.z, n_days=data.n_days,
    )


def copy_state(source, target):
    """target, its sampler state set to a copy of source's."""
    for name in ("alpha0", "beta0", "gamma", "v1", "v2", "a", "sigma2_y", "sigma2_a", "sigma2_b", "eta_a", "eta_b"):
        setattr(target, name, getattr(source, name).copy())
    return target


def fix_state(blocks, rng):
    """Overwrite the state of chain 0 (of a batch of one) with a reproducible
    non-trivial value."""
    blocks.alpha0[0] = rng.normal(2.0, 0.5, blocks.T)
    blocks.beta0[0] = rng.normal(1.0, 0.2, blocks.T)
    blocks.v1[0] = rng.normal(0.0, 1.0, blocks.S)
    blocks.v2[0] = rng.normal(0.0, 1.0, blocks.S)
    blocks.a[0] = [1.3, 0.4, 0.9]
    if blocks.p_cov:
        blocks.gamma[0] = rng.normal(0.0, 0.5, blocks.p_cov)
    blocks.sigma2_y[0] = 0.8
    blocks.sigma2_a[0] = 0.6
    blocks.sigma2_b[0] = 0.05
    blocks.eta_a[0] = 0.7
    blocks.eta_b[0] = 0.4


def site_effects(blocks):
    """alpha1, beta1 of chain 0."""
    alpha1, beta1 = blocks._site_effects()
    return alpha1[0], beta1[0]


class Records:
    """The records a batch of one fitted to all of data reads: its source's
    usable records, with the covariates standardized by the chain's scaler."""

    def __init__(self, blocks, data):
        use = data.usable_mask(blocks.source)
        self.site, self.day0, self.y = data.site_idx[use], data.day[use] - 1, data.y[use]
        self.x = data.x_for(blocks.source)[use]
        self.zmat = (data.z[use] - blocks.z_mean[0]) / blocks.z_sd[0]
        self.data = data

    def resid_no_site(self, blocks):
        """y minus everything except the site-level terms and noise (chain 0)."""
        zg = self.zmat @ blocks.gamma[0] if blocks.p_cov else 0.0
        return self.y - blocks.alpha0[0][self.day0] - blocks.beta0[0][self.day0] * self.x - zg

    def resid(self, blocks):
        """y minus every fitted term (chain 0)."""
        alpha1, beta1 = site_effects(blocks)
        return self.resid_no_site(blocks) - alpha1[self.site] - beta1[self.site] * self.x


def tridiag_dense(diag, off):
    q = np.diag(diag)
    idx = np.arange(diag.shape[0] - 1)
    q[idx, idx + 1] = off
    q[idx + 1, idx] = off
    return q


def check_moments(draws, mean, cov, n_se=3.0):
    """Every marginal mean and variance within n_se Monte Carlo errors."""
    m = draws.shape[0]
    var = np.diag(cov)
    se_mean = np.sqrt(var / m)
    se_var = var * np.sqrt(2.0 / (m - 1))
    assert np.all(np.abs(draws.mean(axis=0) - mean) < n_se * se_mean)
    assert np.all(np.abs(draws.var(axis=0, ddof=1) - var) < n_se * se_var)


class TestConjugateBlocks:
    N_DRAWS = 10_000

    def make_blocks(self, source, seed=0):
        rng = np.random.default_rng(seed)
        data = build_table(rng, 6, 8, noise_sd=1.0)
        blocks = one_chain(data, source, MCMCConfig(n_iter=10, burn_in=5, thin=1, seed=seed))
        fix_state(blocks, rng)
        return blocks, Records(blocks, data)

    def test_gamma_block_matches_analytic_conditional(self):
        blocks, rec = self.make_blocks(SAT, seed=1)
        zmat = rec.zmat
        r = rec.resid(blocks) + zmat @ blocks.gamma[0]
        ztz = zmat.T @ zmat
        mean = np.linalg.solve(ztz, zmat.T @ r)
        cov = blocks.sigma2_y[0] * np.linalg.inv(ztz)
        draws = np.empty((self.N_DRAWS, N_COVARIATES))
        for k in range(self.N_DRAWS):
            blocks.draw_gamma()
            draws[k] = blocks.gamma[0]
        check_moments(draws, mean, cov)

    def daily_series_oracle(self, blocks, weights_diag, wr, eta, s2_car):
        diag = blocks.n_t / s2_car + weights_diag / blocks.sigma2_y[0]
        off = np.full(blocks.T - 1, -eta / s2_car)
        q = tridiag_dense(diag, off)
        cov = np.linalg.inv(q)
        return cov @ (wr / blocks.sigma2_y[0]), cov

    def test_alpha0_block_matches_dense_oracle(self):
        blocks, rec = self.make_blocks(CTM, seed=2)
        r = rec.resid(blocks) + blocks.alpha0[0][rec.day0]
        wr = np.bincount(rec.day0, weights=r, minlength=blocks.T)
        mean, cov = self.daily_series_oracle(
            blocks, blocks.counts_day[0], wr, blocks.eta_a[0], blocks.sigma2_a[0]
        )
        draws = np.empty((self.N_DRAWS, blocks.T))
        for k in range(self.N_DRAWS):
            blocks.draw_alpha0()
            draws[k] = blocks.alpha0[0]
        check_moments(draws, mean, cov)

    def test_beta0_block_matches_dense_oracle(self):
        blocks, rec = self.make_blocks(CTM, seed=3)
        r = rec.resid(blocks) + blocks.beta0[0][rec.day0] * rec.x
        wr = np.bincount(rec.day0, weights=rec.x * r, minlength=blocks.T)
        mean, cov = self.daily_series_oracle(
            blocks, blocks.sum_x2_day[0], wr, blocks.eta_b[0], blocks.sigma2_b[0]
        )
        draws = np.empty((self.N_DRAWS, blocks.T))
        for k in range(self.N_DRAWS):
            blocks.draw_beta0()
            draws[k] = blocks.beta0[0]
        check_moments(draws, mean, cov)

    def test_v1_block_matches_dense_oracle(self):
        blocks, rec = self.make_blocks(CTM, seed=4)
        e = rec.resid_no_site(blocks)
        a = blocks.a[0]
        coef = a[0] + a[1] * rec.x
        r = e - a[2] * blocks.v2[0][rec.site] * rec.x
        g = np.bincount(rec.site, weights=coef * coef, minlength=blocks.S)
        b = np.bincount(rec.site, weights=coef * r, minlength=blocks.S) / blocks.sigma2_y[0]
        prec = blocks.rinv1[0] + np.diag(g / blocks.sigma2_y[0])
        cov = np.linalg.inv(prec)
        mean = cov @ b
        draws = np.empty((self.N_DRAWS, blocks.S))
        for k in range(self.N_DRAWS):
            blocks.draw_v1()
            draws[k] = blocks.v1[0]
        check_moments(draws, mean, cov)

    def test_coregionalization_block_matches_analytic_conditional(self):
        # regenerate y so the residual really carries positive coefficients;
        # the posterior then sits far inside the identified half-space,
        # reflections never fire, and plain Normal moments apply
        blocks, rec = self.make_blocks(CTM, seed=5)
        rng = np.random.default_rng(55)
        a_true = np.array([1.5, 0.6, 1.2])
        v1s, v2s = blocks.v1[0][rec.site], blocks.v2[0][rec.site]
        y = (
            blocks.alpha0[0][rec.day0]
            + blocks.beta0[0][rec.day0] * rec.x
            + a_true[0] * v1s
            + (a_true[1] * v1s + a_true[2] * v2s) * rec.x
            + 0.3 * rng.standard_normal(blocks.n[0])
        )
        data = with_y(rec.data, y)
        blocks = copy_state(blocks, one_chain(data, CTM, blocks.mcmc))
        blocks.sigma2_y[0] = 0.09
        rec = Records(blocks, data)
        e = rec.resid_no_site(blocks)
        f = np.column_stack([v1s, v1s * rec.x, v2s * rec.x])
        prec = f.T @ f / blocks.sigma2_y[0] + np.eye(3) / 1.0e3
        cov = np.linalg.inv(prec)
        mean = cov @ (f.T @ e / blocks.sigma2_y[0])
        assert mean[0] > 5 * np.sqrt(cov[0, 0])
        assert mean[2] > 5 * np.sqrt(cov[2, 2])
        v1_fix, v2_fix = blocks.v1.copy(), blocks.v2.copy()
        draws = np.empty((self.N_DRAWS, 3))
        for k in range(self.N_DRAWS):
            blocks.v1, blocks.v2 = v1_fix.copy(), v2_fix.copy()
            blocks.draw_a()
            draws[k] = blocks.a[0]
        check_moments(draws, mean, cov)

    def test_noise_variance_block_matches_inverse_gamma(self):
        blocks, rec = self.make_blocks(CTM, seed=6)
        resid = rec.resid(blocks)
        shape = blocks.mcmc.ig_a + 0.5 * blocks.n[0]
        rate = blocks.mcmc.ig_b + 0.5 * float(resid @ resid)
        mean = rate / (shape - 1.0)
        sd = mean / np.sqrt(shape - 2.0)
        draws = np.array([
            (blocks.draw_sigma2_y(), blocks.sigma2_y[0])[1] for _ in range(self.N_DRAWS)
        ])
        assert abs(draws.mean() - mean) < 3.0 * sd / np.sqrt(self.N_DRAWS)
        assert abs(draws.var(ddof=1) - sd**2) < 4.0 * sd**2 * np.sqrt(2.0 / self.N_DRAWS)

    def test_car_variance_block_matches_inverse_gamma(self):
        blocks, _ = self.make_blocks(CTM, seed=7)
        series = blocks.alpha0[0]
        eta = 0.65
        qd = float(np.dot(blocks.n_t * series, series))
        qw = 2.0 * float(np.dot(series[:-1], series[1:]))
        shape = blocks.mcmc.ig_a + 0.5 * blocks.T
        rate = blocks.mcmc.ig_b + 0.5 * (qd - eta * qw)
        mean = rate / (shape - 1.0)
        sd = mean / np.sqrt(shape - 2.0)
        draws = np.array([
            blocks.draw_car_variance(series[None], np.array([eta]))[0] for _ in range(self.N_DRAWS)
        ])
        assert abs(draws.mean() - mean) < 3.0 * sd / np.sqrt(self.N_DRAWS)

    def test_temporal_dependence_block_matches_grid_posterior(self):
        blocks, _ = self.make_blocks(CTM, seed=8)
        series = blocks.alpha0[0]
        s2 = 0.7
        qw = 2.0 * float(np.dot(series[:-1], series[1:]))
        logw = 0.5 * blocks.logdet_table + ETA_GRID * (qw / (2.0 * s2))
        p = np.exp(logw - logw.max())
        p /= p.sum()
        mean = float(p @ ETA_GRID)
        var = float(p @ (ETA_GRID - mean) ** 2)
        m = 20_000
        draws = np.array([blocks.draw_eta(series[None], s2)[0] for _ in range(m)])
        assert abs(draws.mean() - mean) < 3.0 * np.sqrt(var / m)
        assert abs(draws.var(ddof=1) - var) < 4.0 * var * np.sqrt(2.0 / m)


def trained_sites(data, train):
    """Whether each site of data has a record in train."""
    return np.isin(np.arange(data.n_sites), data.site_idx[train])


def oracle_in_state(blocks, f, data, train):
    """The record-layout sampler of oracles.py on data.subset(train), in the
    state of chain f of blocks, its site fields those at the sites it keeps."""
    one = oracles.SingleChainBlocks(data.subset(train), blocks.source, blocks.mcmc)
    for name in ("alpha0", "beta0", "gamma", "a"):
        setattr(one, name, getattr(blocks, name)[f].copy())
    for name in ("v1", "v2"):
        setattr(one, name, getattr(blocks, name)[f][trained_sites(data, train)])
    one.rebuild_residual()
    return one


class TestGridStatistics:
    """The statistics the blocks read, built on the (day x site) grid, equal
    the record-layout sums of oracles.SingleChainBlocks in the same state."""

    # the largest error allowed, as a share of the largest value of its statistic
    RTOL = 1e-12
    GAMMA = [0.5, -0.3, 0.0, 0.2, 0.1, -0.1]

    def batch(self, kind, source, rng, *, alpha=3.0):
        from pmfusion.crossval import make_folds

        data = with_missing_sat(build_table(rng, 7, 12, alpha=alpha, beta=1.2, gamma=self.GAMMA), rng)
        plan = make_folds(data, kind, k=4, seed=2).fold_of_record
        folds = np.unique(plan)
        trains = [plan != fold for fold in folds]
        chains = [downscaler._training_set(data, source, t, s) for t, s in zip(trains, fold_seeds(folds.size))]
        return data, trains, _Blocks(data, source, MCMCConfig(n_iter=10, burn_in=5, thin=1), chains)

    def statistics(self, blocks):
        terms = blocks._terms()
        (rd, xrd, _), (rs, xrs, _) = blocks._grid_sums(0, terms), blocks._grid_sums(1, terms)
        stats = {"day r": rd, "day x r": xrd, "site r": rs, "site x r": xrs, "r'r": blocks._ssr(),
                 "day counts": blocks.counts_day, "day x^2": blocks.sum_x2_day}
        stats.update(zip(("site counts", "site x", "site x^2"), blocks.site_gram))
        if blocks.p_cov:
            stats["Z'r"] = blocks._z_sums(terms, rd.sum(axis=1))
        return stats

    def oracle_statistics(self, one):
        r = one.resid
        sr, sxr = one._site_sums()
        stats = {"day r": np.bincount(one.day0, r, one.T), "day x r": np.bincount(one.day0, one.x * r, one.T),
                 "site r": sr, "site x r": sxr, "r'r": r @ r,
                 "day counts": one.counts_day, "day x^2": one.sum_x2_day}
        stats.update(zip(("site counts", "site x", "site x^2"), one.site_gram))
        if one.p_cov:
            stats["Z'r"] = one.zmat.T @ r
        return stats

    def assert_match(self, blocks, data, trains):
        """Each chain's statistics equal the oracle's on its training records;
        by site, at the sites it trains on, and at its latent sites (none
        under kfold) they are exactly zero."""
        got = self.statistics(blocks)
        latent = 0
        for f, train in enumerate(trains):
            want = self.oracle_statistics(oracle_in_state(blocks, f, data, train))
            assert want.keys() == got.keys()
            kept = trained_sites(data, train)
            latent += np.count_nonzero(~kept)
            for name, w in want.items():
                g = got[name][f]
                if name.startswith("site"):
                    assert np.all(g[~kept] == 0.0), name
                    g = g[kept]
                assert_allclose(g, w, rtol=0, atol=self.RTOL * np.max(np.abs(w)), err_msg=name)
        return latent

    @pytest.mark.parametrize("kind", ["kfold", "spatial"])
    @pytest.mark.parametrize("source", [CTM, SAT])
    def test_statistics_equal_the_record_layout_sums(self, kind, source):
        rng = np.random.default_rng(81)
        data, trains, blocks = self.batch(kind, source, rng)
        blocks.alpha0 = rng.normal(2.0, 0.5, blocks.alpha0.shape)
        blocks.beta0 = rng.normal(1.0, 0.2, blocks.beta0.shape)
        blocks.v1 = rng.normal(0.0, 1.0, blocks.v1.shape)
        blocks.v2 = rng.normal(0.0, 1.0, blocks.v2.shape)
        blocks.a = np.tile([1.3, 0.4, 0.9], (blocks.F, 1))
        blocks.gamma = rng.normal(0.0, 0.5, blocks.gamma.shape)
        assert (self.assert_match(blocks, data, trains) > 0) == (kind == "spatial")

    @pytest.mark.parametrize("source", [CTM, SAT])
    def test_statistics_hold_along_a_chain(self, source):
        data, trains, blocks = self.batch("spatial", source, np.random.default_rng(82))
        for sweep in range(60):
            blocks.sweep()
            if sweep % 20 == 19:
                self.assert_match(blocks, data, trains)

    @pytest.mark.parametrize("source", [CTM, SAT])
    def test_sum_of_squares_loses_at_most_eps_y2_over_r2(self, source):
        """r'r, expanded from y'y, against the direct per-record sum on a scene
        whose monitor values sit 1e4 above a unit-variance residual."""
        data, trains, blocks = self.batch("kfold", source, np.random.default_rng(83), alpha=1e4)
        blocks.alpha0[:] = 1e4
        blocks.beta0[:] = 1.2
        blocks.gamma = np.asarray(self.GAMMA)[: blocks.p_cov] * blocks.z_sd[:, : blocks.p_cov]
        ssr = blocks._ssr()
        for f, train in enumerate(trains):
            one = oracle_in_state(blocks, f, data, train)
            direct, yy = one.resid @ one.resid, one.y @ one.y
            assert yy / direct > 1e7
            assert abs(ssr[f] - direct) <= 8.0 * np.finfo(float).eps * yy

    @pytest.mark.parametrize("kind", ["kfold", "spatial"])
    def test_no_array_grows_with_chains_times_records(self, kind):
        from pmfusion.crossval import make_folds

        rng = np.random.default_rng(84)
        data = with_missing_sat(build_table(rng, 12, 40), rng)
        plan = make_folds(data, kind, k=10, seed=3).fold_of_record
        for source in (CTM, SAT):
            chains = [downscaler._training_set(data, source, plan != f, 0) for f in np.unique(plan)]
            blocks = _Blocks(data, source, MCMCConfig(n_iter=10, burn_in=5, thin=1), chains)
            blocks.sweep()
            n = int(data.usable_mask(source).sum())
            limit = min(blocks.F * n, blocks.F * blocks.T * blocks.S)
            arrays = [v for v in vars(blocks).values() if isinstance(v, np.ndarray)]
            arrays += [a for v in vars(blocks).values() if isinstance(v, (list, tuple))
                       for a in v if isinstance(a, np.ndarray)]
            assert blocks.F >= 10 and len(arrays) > 30
            assert max(a.size for a in arrays) < limit


class TestTemporalDependenceSampler:
    def test_flat_target_is_uniform_over_grid(self):
        """With a zero series and a flattened normalization table the sampled
        dependence parameter is uniform over all 1,000 grid points."""
        rng = np.random.default_rng(11)
        data = build_table(rng, 4, 6)
        blocks = one_chain(data, CTM, MCMCConfig(n_iter=10, burn_in=5, thin=1, seed=11))
        blocks.logdet_table = np.zeros_like(blocks.logdet_table)
        m = 50_000
        draws = np.array([blocks.draw_eta(np.zeros((1, blocks.T)), 1.0)[0] for _ in range(m)])
        idx = np.rint(draws * ETA_GRID.size - 0.5).astype(int)
        counts = np.bincount(idx, minlength=ETA_GRID.size)
        expected = m / ETA_GRID.size
        stat = float(((counts - expected) ** 2 / expected).sum())
        assert stat < chi2.ppf(0.999, ETA_GRID.size - 1)

    def test_grid_values_are_cell_midpoints(self):
        rng = np.random.default_rng(12)
        data = build_table(rng, 4, 6)
        blocks = one_chain(data, CTM, MCMCConfig(n_iter=10, burn_in=5, thin=1, seed=12))
        for _ in range(50):
            eta = blocks.draw_eta(blocks.alpha0, 0.5)[0]
            assert eta in ETA_GRID


class TestSignConstraints:
    def test_diagonal_stays_nonnegative_under_diffuse_posterior(self):
        rng = np.random.default_rng(21)
        data = build_table(rng, 5, 6, noise_sd=1.0)
        blocks = one_chain(data, CTM, MCMCConfig(n_iter=10, burn_in=5, thin=1, seed=21))
        fix_state(blocks, rng)
        blocks.sigma2_y[0] = 1.0e6  # posterior ~ prior, reflections fire often
        v1_fix, v2_fix = blocks.v1.copy(), blocks.v2.copy()
        for _ in range(2_000):
            blocks.v1, blocks.v2 = v1_fix.copy(), v2_fix.copy()
            blocks.draw_a()
            a = blocks.a[0]
            assert a[0] >= 0.0
            assert a[2] >= 0.0

    def test_sign_convention_does_not_split_chains(self):
        """(a11, a21, v1) -> (-a11, -a21, -v1) is the same model state; one
        constrained draw, with the noise vector flipped the same way, lands
        both representations on the identical canonical state."""

        class FlippedNormals:
            def __init__(self, seed, signs):
                self.base = np.random.default_rng(seed)
                self.signs = signs

            def standard_normal(self, n=None):
                return self.base.standard_normal(n) * self.signs

        rng = np.random.default_rng(22)
        data = build_table(rng, 5, 6, noise_sd=1.0)
        mcmc = MCMCConfig(n_iter=10, burn_in=5, thin=1, seed=22)
        one = one_chain(data, CTM, mcmc)
        two = one_chain(data, CTM, mcmc)
        fix_state(one, np.random.default_rng(23))
        fix_state(two, np.random.default_rng(23))
        signs = np.array([-1.0, -1.0, 1.0])
        two.v1 = -two.v1
        two.a = two.a * signs
        one.rngs[0] = np.random.default_rng(777)
        two.rngs[0] = FlippedNormals(777, signs)
        one.draw_a()
        two.draw_a()
        assert_allclose(one.a, two.a, rtol=1e-9, atol=1e-12)
        assert_allclose(one.v1, two.v1, rtol=1e-9, atol=1e-12)


class TestFitDownscaler:
    def test_ctm_fit_ignores_covariates_bitwise(self):
        rng = np.random.default_rng(31)
        data = build_table(rng, 5, 12, noise_sd=0.8)
        other = ObservationTable(
            sites=data.sites, site_idx=data.site_idx, day=data.day, y=data.y,
            x_ctm=data.x_ctm, x_sat=data.x_sat,
            z=np.random.default_rng(99).normal(size=data.z.shape),
            n_days=data.n_days,
        )
        mcmc = MCMCConfig(n_iter=60, burn_in=30, thin=1, seed=5)
        fit_a = recorded_fit(data, CTM, mcmc)
        fit_b = recorded_fit(other, CTM, mcmc)
        assert fit_a.gamma.shape == (30, 0)
        for name in ("alpha0", "beta0", "a_coreg", "v1", "v2", "sigma2_y",
                     "sigma2_alpha0", "sigma2_beta0", "eta_alpha0", "eta_beta0",
                     "theta1", "theta2"):
            assert np.array_equal(getattr(fit_a, name), getattr(fit_b, name))

    def test_same_seed_reproduces_fit_bitwise(self):
        rng = np.random.default_rng(32)
        data = build_table(rng, 5, 10)
        mcmc = MCMCConfig(n_iter=40, burn_in=20, thin=2, seed=7)
        fit_a = recorded_fit(data, SAT, mcmc)
        fit_b = recorded_fit(data, SAT, mcmc)
        assert np.array_equal(fit_a.gamma, fit_b.gamma)
        assert np.array_equal(fit_a.sigma2_y, fit_b.sigma2_y)
        assert np.array_equal(fit_a.v1, fit_b.v1)

    def test_noise_variance_recovered_within_15_percent(self):
        rng = np.random.default_rng(33)
        data = build_table(rng, 50, 200, alpha=0.0, beta=1.0, noise_sd=1.0)
        fit = recorded_fit(data, CTM, MCMCConfig(n_iter=600, burn_in=300, thin=2, seed=33))
        assert abs(float(fit.sigma2_y.mean()) - 1.0) < 0.15

    def test_retained_samples_give_finite_log_density(self):
        rng = np.random.default_rng(34)
        data = build_table(rng, 6, 15, noise_sd=1.2)
        fit = recorded_fit(data, CTM, MCMCConfig(n_iter=120, burn_in=60, thin=2, seed=34))
        day0 = data.day - 1
        s = data.site_idx
        for j in range(len(fit)):
            a11, a21, a22 = fit.a_coreg[j]
            alpha1 = a11 * fit.v1[j]
            beta1 = a21 * fit.v1[j] + a22 * fit.v2[j]
            mean = (
                fit.alpha0[j][day0] + alpha1[s]
                + (fit.beta0[j][day0] + beta1[s]) * data.x_ctm
            )
            ll = -0.5 * np.sum((data.y - mean) ** 2) / fit.sigma2_y[j] \
                - 0.5 * data.n_records * np.log(2 * np.pi * fit.sigma2_y[j])
            assert np.isfinite(ll)
            assert fit.sigma2_y[j] > 0 and fit.sigma2_alpha0[j] > 0 and fit.sigma2_beta0[j] > 0
            assert 0.0 < fit.eta_alpha0[j] < 1.0 and 0.0 < fit.eta_beta0[j] < 1.0
            assert fit.theta1[j] > 0 and fit.theta2[j] > 0
            assert a11 >= 0 and a22 >= 0

    def test_adaptation_lands_in_working_band(self):
        rng = np.random.default_rng(35)
        data = build_table(rng, 12, 25, noise_sd=1.0)
        fit = fit_downscaler(data, CTM, MCMCConfig(n_iter=900, burn_in=450, thin=2, seed=35), [])
        assert 0.15 < fit.acceptance["theta1"] < 0.75
        assert 0.15 < fit.acceptance["theta2"] < 0.75

    def test_a_site_with_no_usable_records_is_latent(self):
        rng = np.random.default_rng(36)
        data = build_table(rng, 4, 6)
        x_sat = data.x_sat.copy()
        x_sat[data.site_idx == 2] = np.nan
        blank = with_x_sat(data, x_sat)
        blocks = one_chain(blank, SAT, MCMCConfig(n_iter=10, burn_in=5, thin=1))
        assert np.all(blocks.site_gram[:, 0, 2] == 0.0)
        assert np.array_equal(blocks.site_gram[0, 0] > 0, np.arange(4) != 2)
        batch = (blank.day, blank.x_sat, blank.z, 1)
        fit = fit_downscaler(blank, SAT, MCMCConfig(n_iter=10, burn_in=5, thin=1),
                             [(blank.sites, blank.site_idx, blank.record_ids, [batch])])
        (pred,), = fit.predictions
        assert np.array_equal(pred.available, blank.site_idx != 2)
        assert np.isfinite(pred.mu[pred.available]).all()

    def test_rejects_a_table_with_no_usable_record(self):
        rng = np.random.default_rng(36)
        data = build_table(rng, 4, 6)
        with pytest.raises(InsufficientDataError, match="no usable sat record"):
            fit_downscaler(with_x_sat(data, np.full(data.n_records, np.nan)), SAT,
                           MCMCConfig(n_iter=10, burn_in=5, thin=1), [])

    def test_rejects_constant_covariate(self):
        rng = np.random.default_rng(37)
        data = build_table(rng, 4, 6)
        z = data.z.copy()
        z[:, 3] = 2.5
        broken = ObservationTable(
            sites=data.sites, site_idx=data.site_idx, day=data.day, y=data.y,
            x_ctm=data.x_ctm, x_sat=data.x_sat, z=z, n_days=data.n_days,
        )
        with pytest.raises(InsufficientDataError, match="3"):
            fit_downscaler(broken, SAT, MCMCConfig(n_iter=10, burn_in=5, thin=1), [])

    def test_unknown_source_is_a_domain_error(self):
        data = build_table(np.random.default_rng(38), 4, 6)
        with pytest.raises(DomainError, match="'modis'"):
            fit_downscaler(data, "modis", MCMCConfig(n_iter=10, burn_in=5, thin=1), [])

    def test_it_streams_what_the_recorded_chain_streams(self):
        """The tests' recorded fits run the chain fit_downscaler runs: every
        prediction and the acceptance are equal, bit for bit, and the fit
        holds no draw."""
        rng = np.random.default_rng(39)
        data = build_table(rng, 6, 10, gamma=[0.5, -0.3, 0.0, 0.2, 0.1, -0.1])
        mcmc = MCMCConfig(n_iter=60, burn_in=30, thin=2, seed=9)
        requests = [request(data.sites, data.site_idx, data.day, data.x_sat, data.z, seed=s) for s in (1, 2)]
        fit = fit_downscaler(data, SAT, mcmc, requests)
        want = recorded_fit(data, SAT, mcmc, requests)
        assert set(vars(fit)) == {"source", "sites", "n_days", "z_mean", "z_sd", "acceptance", "predictions"}
        assert fit.acceptance == want.acceptance and len(fit.predictions) == len(want.predictions) == 2
        for (got,), (ref,) in zip(fit.predictions, want.predictions):
            assert np.array_equal(got.mu, ref.mu) and np.array_equal(got.var, ref.var)


class TestLapackSolvesInTheSampler:
    """The sweep's direct LAPACK solves and reused range factor change no bit."""

    @pytest.mark.parametrize("which", [1, 2])
    def test_accepted_range_keeps_the_proposal_factor(self, which):
        rng = np.random.default_rng(41)
        blocks = one_chain(build_table(rng, 12, 6), CTM, MCMCConfig(n_iter=10, burn_in=5, thin=1, seed=4))
        fix_state(blocks, rng)
        for _ in range(200):
            if blocks.draw_theta(which):
                break
        else:
            pytest.fail("no range proposal accepted in 200 tries")
        theta = (blocks.theta1 if which == 1 else blocks.theta2)[0]
        chol = (blocks.chol_r1 if which == 1 else blocks.chol_r2)[0]
        rinv = (blocks.rinv1 if which == 1 else blocks.rinv2)[0]
        want, _ = jittered_cholesky(np.exp(-blocks.d_sites / theta))
        assert np.array_equal(chol, want)
        assert np.array_equal(rinv, cho_solve((want, True), np.eye(blocks.S)))

    @pytest.mark.parametrize("source", [CTM, SAT])
    def test_fit_equals_the_scipy_solves_bitwise(self, source, monkeypatch):
        rng = np.random.default_rng(42)
        data = build_table(rng, 9, 15, gamma=[0.5, -0.3, 0.0, 0.2, 0.1, -0.1])
        mcmc = MCMCConfig(n_iter=80, burn_in=40, thin=2, seed=11)
        fit = recorded_fit(data, source, mcmc)
        assert fit.acceptance["theta1"] > 0 and fit.acceptance["theta2"] > 0
        # the same sampler, every solve made chain by chain through scipy.linalg
        monkeypatch.setattr(downscaler, "tri_solve_stack", lambda l, b, trans=0: np.array(
            [scipy_tri_solve(lf, bf, trans) for lf, bf in zip(l, b)]))
        monkeypatch.setattr(downscaler, "chol_factor_solve_stack", lambda l, b: np.array(
            [scipy_chol_factor_solve(lf, bf) for lf, bf in zip(l, b)]))
        monkeypatch.setattr(downscaler, "sample_tridiag_mvn_stack", lambda d, off, b, rngs: np.array(
            [scipy_tridiag_mvn(*args) for args in zip(d, off, b, rngs)]))
        ref = recorded_fit(data, source, mcmc)
        for name in ("gamma", "alpha0", "beta0", "a_coreg", "v1", "v2", "sigma2_y",
                     "sigma2_alpha0", "sigma2_beta0", "eta_alpha0", "eta_beta0",
                     "theta1", "theta2"):
            assert np.array_equal(getattr(fit, name), getattr(ref, name)), name


class TestCovariateRecovery:
    def test_credible_interval_covers_injected_effect(self):
        """A covariate effect of 2.0 is recovered by the 95% interval in at
        least 90 of 100 independently generated panels."""
        gamma_true = np.array([2.0, 0.5, -1.0, 0.0, 0.3, 0.0])
        hits = 0
        for rep in range(100):
            rng = np.random.default_rng(4_000 + rep)
            data = build_table(rng, 8, 30, gamma=gamma_true, noise_sd=1.0)
            fit = recorded_fit(
                data, SAT, MCMCConfig(n_iter=300, burn_in=100, thin=1, seed=rep)
            )
            target = 2.0 * fit.z_sd[0]  # slope on the internally scaled column
            lo, hi = np.quantile(fit.gamma[:, 0], [0.025, 0.975])
            hits += int(lo <= target <= hi)
        assert hits >= 90


@pytest.fixture(scope="module")
def noiseless():
    rng = np.random.default_rng(41)
    data = build_table(rng, 12, 30, alpha=2.0, beta=1.5, noise_sd=0.0)
    return data, MCMCConfig(n_iter=400, burn_in=200, thin=2, seed=41)


def request(locations, loc_idx, days, x, z=None, *, seed=0):
    """A request of one batch, the records at locations[loc_idx] carrying their site ids."""
    ids = np.asarray([l.site_id for l in locations], dtype=object)[loc_idx]
    return locations, loc_idx, ids, [(days, x, z, seed)]


def predict_one(data, source, mcmc, *args, **kw):
    """The batch of request(*args, **kw), streamed by fit_downscaler."""
    (pred,), = fit_downscaler(data, source, mcmc, [request(*args, **kw)]).predictions
    return pred


class TestPredictive:
    def test_noiseless_fit_reproduces_observations(self, noiseless):
        data, mcmc = noiseless
        pred = predict_one(data, CTM, mcmc, data.sites, data.site_idx, data.day, data.x_ctm, seed=1)
        assert pred.available.all()
        resid = data.y - pred.mu
        r2 = 1.0 - float(resid @ resid) / float(np.sum((data.y - data.y.mean()) ** 2))
        assert r2 > 0.99
        assert np.all(np.abs(resid) <= 2.0 * np.sqrt(pred.var))

    def test_variance_splits_into_spread_plus_noise(self):
        rng = np.random.default_rng(42)
        data = build_table(rng, 10, 20, noise_sd=1.0)
        fit = recorded_fit(data, CTM, MCMCConfig(n_iter=200, burn_in=100, thin=2, seed=42),
                           [request(data.sites, data.site_idx, data.day, data.x_ctm, seed=3)])
        (pred,), = fit.predictions
        day0 = data.day - 1
        s = data.site_idx
        per_sample = (
            fit.alpha0[:, day0]
            + (fit.a_coreg[:, 0:1] * fit.v1)[:, s]
            + (fit.beta0[:, day0] + (fit.a_coreg[:, 1:2] * fit.v1
                                     + fit.a_coreg[:, 2:3] * fit.v2)[:, s]) * data.x_ctm
        )
        # at fitted monitors the field conditionals collapse, so the manual
        # reconstruction must agree up to the jitter-level draw noise
        assert_allclose(pred.mu, per_sample.mean(axis=0), atol=5e-3)
        expected_var = per_sample.var(axis=0, ddof=1) + fit.sigma2_y.mean()
        assert_allclose(pred.var, expected_var, rtol=2e-2, atol=5e-3)

    def test_missing_linked_value_is_unavailable(self):
        rng = np.random.default_rng(43)
        data = build_table(rng, 6, 10)
        x = data.x_sat[:12].copy()
        x[5] = np.nan
        pred = predict_one(
            data, SAT, MCMCConfig(n_iter=60, burn_in=30, thin=1, seed=43),
            data.sites, data.site_idx[:12], data.day[:12], x, data.z[:12], seed=2
        )
        assert not pred.available[5]
        assert np.isnan(pred.mu[5]) and np.isnan(pred.var[5])
        assert np.isfinite(pred.mu[pred.available]).all()

    def test_satellite_predictions_require_covariates(self):
        rng = np.random.default_rng(44)
        data = build_table(rng, 6, 10)
        mcmc = MCMCConfig(n_iter=40, burn_in=20, thin=1, seed=44)
        with pytest.raises(SchemaError, match="covariate"):
            predict_one(data, SAT, mcmc, data.sites, data.site_idx[:4], data.day[:4], data.x_sat[:4])

    def test_misshapen_targets_are_schema_errors(self):
        rng = np.random.default_rng(44)
        data = build_table(rng, 6, 10)
        mcmc = MCMCConfig(n_iter=40, burn_in=20, thin=1, seed=44)
        idx, day, x, z = data.site_idx[:4], data.day[:4], data.x_sat[:4], data.z[:4]
        with pytest.raises(SchemaError, match="equal length"):
            predict_one(data, SAT, mcmc, data.sites, idx, day[:3], x, z)
        with pytest.raises(SchemaError, match="shape"):
            predict_one(data, SAT, mcmc, data.sites, idx, day, x, z[:, :3])

    def test_day_outside_horizon_rejected(self, noiseless):
        data, mcmc = noiseless
        with pytest.raises(OutOfDomainError):
            predict_one(data, CTM, mcmc, data.sites, np.array([0]), np.array([data.n_days + 1]),
                        np.array([5.0]))

    def test_new_location_draws_are_seeded(self):
        rng = np.random.default_rng(45)
        data = build_table(rng, 8, 12, noise_sd=1.0)
        targets = [Location("new0", 31.0, 57.0), Location("new1", 72.0, 18.0)]
        idx = np.array([0, 1, 0])
        days = np.array([1, 5, 9])
        x = np.array([7.0, 9.5, 8.2])
        requests = [request(targets, idx, days, x, seed=seed) for seed in (10, 10, 11)]
        fit = fit_downscaler(data, CTM, MCMCConfig(n_iter=80, burn_in=40, thin=2, seed=45), requests)
        (a,), (b,), (c,) = fit.predictions
        assert np.array_equal(a.mu, b.mu) and np.array_equal(a.var, b.var)
        assert not np.array_equal(a.mu, c.mu)


def per_call_reference(fit, locations, loc_idx, days, x, z, seed):
    """(mu, var) of one batch, the fields at a location of a fitted site read
    from each sample and elsewhere drawn from the sample's GP conditional,
    rebuilt for the batch: the reference for the operators a request's
    batches share."""
    mu = np.full(x.shape[0], np.nan)
    var = np.full(x.shape[0], np.nan)
    sub = np.flatnonzero(np.isfinite(x))
    if sub.size == 0:
        return mu, var
    rng = np.random.default_rng(seed)
    at = {(l.x_km, l.y_km): s for s, l in enumerate(fit.sites)}
    site = [at.get((l.x_km, l.y_km)) for l in locations]
    fitted = [i for i, s in enumerate(site) if s is not None]
    kriged = [i for i, s in enumerate(site) if s is None]
    d_sites = distance_matrix(fit.sites)
    d_cross = distance_matrix(fit.sites, [locations[i] for i in kriged])
    mean = np.zeros(sub.size)
    m2 = np.zeros(sub.size)
    s2y = 0.0
    for j in range(len(fit)):
        fields = []
        for v, theta in ((fit.v1[j], float(fit.theta1[j])), (fit.v2[j], float(fit.theta2[j]))):
            cond_mean, resid = scipy_kriging(d_sites, d_cross, v, theta)
            field = np.empty(len(locations))
            field[fitted] = v[[site[i] for i in fitted]]
            field[kriged] = cond_mean + np.sqrt(resid) * rng.standard_normal(len(kriged))
            fields.append(field)
        a11, a21, a22 = fit.a_coreg[j]
        alpha1 = a11 * fields[0]
        beta1 = a21 * fields[0] + a22 * fields[1]
        d0, loc = days[sub] - 1, loc_idx[sub]
        pred = fit.alpha0[j][d0] + alpha1[loc] + (fit.beta0[j][d0] + beta1[loc]) * x[sub]
        if z is not None:
            pred = pred + ((z - fit.z_mean) / fit.z_sd)[sub] @ fit.gamma[j]
        delta = pred - mean
        mean += delta / (j + 1)
        m2 += delta * (pred - mean)
        s2y += float(fit.sigma2_y[j])
    mu[sub] = mean
    var[sub] = m2 / max(len(fit) - 1, 1) + s2y / len(fit)
    return mu, var


class TestRequestBatches:
    @pytest.mark.parametrize("source", [CTM, SAT])
    def test_batches_match_separate_calls_bit_for_bit(self, source):
        rng = np.random.default_rng(46)
        data = build_table(rng, 8, 12, noise_sd=1.0)
        # the fitted monitors, read from the chain, and new locations, kriged
        targets = list(data.sites) + [Location(f"new{i}", *rng.uniform(0, 100, 2)) for i in range(6)]
        m = len(targets)
        idx = np.arange(m)
        batches = []
        for d in (2, 4, 5, 9):
            x = rng.normal(8.0, 3.0, m)
            x[rng.random(m) < 0.3] = np.nan
            if d == 4:
                x[:] = np.nan  # a day with no available target draws nothing
            z = rng.normal(0.0, 1.0, (m, N_COVARIATES)) if source == SAT else None
            batches.append((np.full(m, d), x, z, 100 + d))
        # the coordinate-array form of the targets, as the surface passes them, then
        # each batch as a request of its own, all streamed from one chain
        xy = np.array([[t.x_km, t.y_km] for t in targets])
        requests = [(xy, idx, np.array([t.site_id for t in targets], dtype=object), batches)]
        requests += [request(targets, idx, *batch[:3], seed=batch[3]) for batch in batches]
        fit = recorded_fit(data, source, MCMCConfig(n_iter=60, burn_in=30, thin=2, seed=46), requests)
        got, *singles = fit.predictions
        assert len(got) == len(batches)
        for (days, x, z, seed), batch, (single,) in zip(batches, got, singles):
            ref_mu, ref_var = per_call_reference(fit, targets, idx, days, x, z, seed)
            assert list(batch.ids) == list(single.ids) == [t.site_id for t in targets]
            for pred in (batch, single):
                assert np.array_equal(pred.available, np.isfinite(x))
                assert np.array_equal(pred.mu, ref_mu, equal_nan=True)
                assert np.array_equal(pred.var, ref_var, equal_nan=True)
        assert not got[1].available.any() and np.isnan(got[1].mu).all()
        assert np.isfinite(got[2].mu[got[2].available]).all()

    def test_repeated_ranges_reuse_the_operators_bit_for_bit(self, monkeypatch):
        rng = np.random.default_rng(47)
        data = build_table(rng, 8, 12, noise_sd=1.0)
        mcmc = MCMCConfig(n_iter=60, burn_in=30, thin=2, seed=47)
        fit = recorded_fit(data, SAT, mcmc)
        # runs of one range, as rejected proposals leave them, on offset patterns
        fit.theta1 = np.repeat(fit.theta1[::3], 3)[: len(fit)]
        fit.theta2[1::2] = fit.theta2[0::2][: len(fit) // 2]
        distinct = 1 + np.count_nonzero(np.diff(fit.theta1)) + 1 + np.count_nonzero(np.diff(fit.theta2))
        targets = list(data.sites) + [Location(f"new{i}", *rng.uniform(0, 100, 2)) for i in range(5)]
        m = len(targets)
        idx = np.arange(m)
        batches = [
            (np.full(m, d), rng.normal(8.0, 3.0, m), rng.normal(0.0, 1.0, (m, N_COVARIATES)), 200 + d)
            for d in (3, 7)
        ]
        # the chain's predictor, fed the recorded states with their ranges edited
        chain = downscaler._training_set(data, SAT, None, mcmc.seed)
        predictor = downscaler._Predictor(data, SAT, chain, targets, idx, [t.site_id for t in targets], batches)
        calls = []
        factor = kernels.jittered_cholesky
        monkeypatch.setattr(kernels, "jittered_cholesky", lambda c: calls.append(1) or factor(c))
        for j in range(len(fit)):
            predictor.add({name: getattr(fit, name)[j] for name in downscaler._STATE})
        got = predictor.finish()
        assert len(calls) == distinct < 2 * len(fit)
        monkeypatch.undo()
        for (days, x, z, seed), pred in zip(batches, got):
            ref_mu, ref_var = per_call_reference(fit, targets, idx, days, x, z, seed)
            assert np.array_equal(pred.mu, ref_mu) and np.array_equal(pred.var, ref_var)

    def test_each_batch_is_validated(self, noiseless, monkeypatch):
        """A bad request fails before the chain is built."""
        data, mcmc = noiseless
        monkeypatch.setattr(downscaler, "_Blocks", None)
        good = (data.day[:3], data.x_ctm[:3], None, 0)
        bad = (np.array([1, 2, data.n_days + 1]), data.x_ctm[:3], None, 0)
        with pytest.raises(OutOfDomainError):
            fit_downscaler(data, CTM, mcmc, [(data.sites, data.site_idx[:3], ["a", "b", "c"], [good, bad])])
        with pytest.raises(SchemaError, match="ids"):
            fit_downscaler(data, CTM, mcmc, [(data.sites, data.site_idx[:3], ["a", "b"], [good])])
        with pytest.raises(SchemaError, match=r"\(n, 2\)"):
            fit_downscaler(data, CTM, mcmc, [(np.zeros((4, 3)), data.site_idx[:3], ["a", "b", "c"], [good])])
        with pytest.raises(SchemaError, match="index the 2 targets"):
            fit_downscaler(data, CTM, mcmc, [(data.sites[:2], np.array([0, 1, 2]), ["a", "b", "c"], [good])])


class TestCvPredict:
    MCMC = MCMCConfig(n_iter=40, burn_in=20, thin=2, seed=54)

    def test_ten_fold_covers_every_record_once(self):
        from pmfusion.crossval import make_folds

        rng = np.random.default_rng(51)
        data = build_table(rng, 10, 100, noise_sd=1.0)
        assert data.n_records == 1000
        plan = make_folds(data, "kfold", k=10, seed=1)
        pred, full = cv_predict(data, plan.fold_of_record, CTM,
                                MCMCConfig(n_iter=80, burn_in=40, thin=2, seed=51))
        assert full is None
        assert pred.mu.shape == (1000,)
        assert np.isfinite(pred.mu).all()
        assert np.all(pred.var > 0)
        assert pred.available.all()

    def test_spatial_plan_runs_one_fit_per_site(self):
        from pmfusion.crossval import make_folds

        rng = np.random.default_rng(52)
        data = build_table(rng, 6, 15, noise_sd=1.0)
        plan = make_folds(data, "spatial")
        assert plan.n_folds == 6
        mcmc = MCMCConfig(n_iter=40, burn_in=20, thin=2, seed=52)
        pred_a, _ = cv_predict(data, plan.fold_of_record, CTM, mcmc)
        pred_b, _ = cv_predict(data, plan.fold_of_record, CTM, mcmc)
        assert np.isfinite(pred_a.mu).all()
        assert np.array_equal(pred_a.mu, pred_b.mu)
        assert np.array_equal(pred_a.var, pred_b.var)

    def batch_sizes(self, monkeypatch):
        """The chain count of every batch cv_predict builds, in call order."""
        sizes, blocks = [], downscaler._Blocks
        monkeypatch.setattr(downscaler, "_Blocks", lambda *args: sizes.append(len(args[3])) or blocks(*args))
        return sizes

    def test_a_fold_without_usable_records_runs_no_chain(self, monkeypatch):
        """Fold 1 holds only records missing their retrieval: the satellite
        runs no chain for it, and the other folds keep the seeds, and so the
        predictions, they have with those records in fold 0."""
        rng = np.random.default_rng(54)
        data = with_missing_sat(build_table(rng, 6, 12), rng)
        plan = np.array([0, 2, 3])[np.arange(data.n_records) % 3]
        gap = np.where((plan == 0) & ~data.usable_mask(SAT), 1, plan)
        assert np.unique(gap).size == 4 and (gap == 1).any()
        sizes = self.batch_sizes(monkeypatch)
        got, _ = cv_predict(data, gap, SAT, self.MCMC)
        want, _ = cv_predict(data, plan, SAT, self.MCMC)
        cv_predict(data, gap, CTM, replace(self.MCMC, n_iter=4, burn_in=2))
        assert sizes == [3, 3, 4]
        assert np.array_equal(got.available, data.usable_mask(SAT))
        assert np.isfinite(got.mu[got.available]).all()
        assert np.array_equal(got.mu, want.mu, equal_nan=True)
        assert np.array_equal(got.var, want.var, equal_nan=True)

    def test_a_chain_without_usable_training_records_is_refused(self):
        rng = np.random.default_rng(55)
        data = with_missing_sat(build_table(rng, 4, 6), rng)
        # fold 0 holds every usable satellite record, so its chain trains on none
        plan = np.where(data.usable_mask(SAT), 0, 1)
        with pytest.raises(InsufficientDataError, match="no usable sat record to train on"):
            cv_predict(data, plan, SAT, self.MCMC)
        blank = with_x_sat(data, np.full(data.n_records, np.nan))
        with pytest.raises(InsufficientDataError, match="no usable sat record"):
            cv_predict(blank, plan, SAT, self.MCMC)

    def test_fold_vector_length_checked(self):
        rng = np.random.default_rng(53)
        data = build_table(rng, 4, 6)
        with pytest.raises(SchemaError, match="length"):
            cv_predict(data, np.zeros(3, dtype=int), CTM, MCMCConfig(10, 5, 1))


FIT_ARRAYS = ("gamma", "alpha0", "beta0", "a_coreg", "v1", "v2", "sigma2_y", "sigma2_alpha0",
              "sigma2_beta0", "eta_alpha0", "eta_beta0", "theta1", "theta2", "z_mean", "z_sd")


def with_x_sat(data, x_sat):
    """data with the satellite values x_sat."""
    return ObservationTable(
        sites=data.sites, site_idx=data.site_idx, day=data.day, y=data.y,
        x_ctm=data.x_ctm, x_sat=x_sat, z=data.z, n_days=data.n_days,
    )


def with_missing_sat(data, rng, rate=0.3):
    """data with a share of satellite values missing, every site keeping some."""
    x_sat = data.x_sat.copy()
    drop = rng.random(data.n_records) < rate
    first = np.unique(data.site_idx, return_index=True)[1]
    drop[first] = False
    x_sat[drop] = np.nan
    return with_x_sat(data, x_sat)


def fold_seeds(n_folds, seed=0):
    return [int(c.generate_state(1)[0]) for c in np.random.SeedSequence(seed).spawn(n_folds)]


def solo(data, source, mcmc, chain):
    """One chain run as a batch of one."""
    return _Blocks(data, source, mcmc, [chain])


def cv_predict_fold_by_fold(data, plan, source, mcmc):
    """cv_predict with every fold's chain run as a batch of one."""
    blocks_cls, run = downscaler._Blocks, downscaler._run_chains
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(downscaler, "_Blocks", lambda *args: args)
        mp.setattr(downscaler, "_run_chains",
                   lambda args, consumers: [fit for c, own in zip(args[3], consumers)
                                            for fit in run(solo(*args[:3], c), [own])])
        return cv_predict(data, plan, source, mcmc)[0]


class TestFoldBatch:
    """F folds advanced as one lockstep batch equal their single-chain fits,
    each a batch of one, bit for bit."""

    MCMC = MCMCConfig(n_iter=120, burn_in=60, thin=2, seed=0)

    @pytest.mark.parametrize("kind", ["kfold", "spatial"])
    @pytest.mark.parametrize("source", [CTM, SAT])
    def test_every_fold_equals_its_single_chain_fit(self, kind, source):
        from pmfusion.crossval import make_folds

        rng = np.random.default_rng(71)
        data = with_missing_sat(build_table(rng, 7, 12, gamma=[0.5, -0.3, 0.0, 0.2, 0.1, -0.1]), rng)
        plan = make_folds(data, kind, k=4, seed=2).fold_of_record
        folds = np.unique(plan)
        seeds = fold_seeds(folds.size, seed=kind == "kfold")
        chains = [downscaler._training_set(data, source, plan != f, s) for f, s in zip(folds, seeds)]
        fits = record_chains(_Blocks(data, source, self.MCMC, chains))
        assert len(fits) == folds.size > 1
        for chain, fit in zip(chains, fits):
            want = record_chains(solo(data, source, self.MCMC, chain))[0]
            assert [l.site_id for l in fit.sites] == [l.site_id for l in want.sites]
            for name in FIT_ARRAYS:
                assert np.array_equal(getattr(fit, name), getattr(want, name)), name
            assert fit.acceptance == want.acceptance

    def test_range_proposals_below_the_floor_draw_no_uniform(self):
        rng = np.random.default_rng(72)
        data = build_table(rng, 6, 10)
        plan = np.arange(data.n_records) % 3
        mcmc = MCMCConfig(n_iter=60, burn_in=30, thin=1, seed=0)
        seeds = fold_seeds(3, seed=5)
        chains = [downscaler._training_set(data, CTM, plan != f, s) for f, s in enumerate(seeds)]
        blocks = _Blocks(data, CTM, mcmc, chains)
        singles = [solo(data, CTM, mcmc, chain) for chain in chains]
        # steps of 40 on log theta put about 4 proposals in 10 below the floor
        blocks.chain = Chain(mcmc, theta1=np.full(3, 40.0), theta2=np.full(3, 40.0))
        for one in singles:
            one.chain = Chain(mcmc, theta1=np.full(1, 40.0), theta2=np.full(1, 40.0))
        live = []
        factor = blocks._range_chol
        blocks._range_chol = lambda theta: live.append(theta.size) or factor(theta)
        for _ in range(30):
            blocks.sweep()
            for f, one in enumerate(singles):
                one.sweep()
                assert blocks.rngs[f].bit_generator.state == one.rngs[0].bit_generator.state
                assert (blocks.theta1[f], blocks.theta2[f]) == (one.theta1[0], one.theta2[0])
                assert np.array_equal(blocks.v1[f], one.v1[0]) and np.array_equal(blocks.v2[f], one.v2[0])
        assert sum(live) < 2 * 30 * 3
        for f, one in enumerate(singles):
            assert blocks.chain.step("theta1")[f] == one.chain.step("theta1")[0]

    @pytest.mark.parametrize("gap_km", [0.0, 1e-9])
    def test_a_stack_with_one_jittered_factor(self, gap_km, monkeypatch):
        from pmfusion.crossval import make_folds

        rng = np.random.default_rng(73)
        data = build_table(rng, 5, 10)
        # s01 sits gap_km from s00: their correlation matrix is singular at
        # any range when they share a location, else at ranges far above the gap
        sites = list(data.sites)
        sites[1] = Location("s01", sites[0].x_km + gap_km, sites[0].y_km)
        data = ObservationTable(
            sites=sites, site_idx=data.site_idx, day=data.day, y=data.y,
            x_ctm=data.x_ctm, x_sat=data.x_sat, z=data.z, n_days=data.n_days,
        )
        jitter = []
        factor = kernels.jittered_cholesky

        def counted(c):
            out = factor(c)
            jitter.append(out[1] > 0)
            return out

        plan = make_folds(data, "spatial").fold_of_record
        mcmc = MCMCConfig(n_iter=40, burn_in=20, thin=2, seed=3)
        chains = [downscaler._training_set(data, CTM, plan != f, 0) for f in range(5)]
        blocks = _Blocks(data, CTM, mcmc, chains)
        theta = np.array([30.0, 1e12, 30.0])
        monkeypatch.setattr(kernels, "jittered_cholesky", counted)
        chol, _ = blocks._range_chol(theta)
        # the stack fell back to matrix by matrix, jittering the singular matrices only
        assert jitter == ([True] * 3 if gap_km == 0 else [False, True, False])
        monkeypatch.undo()
        for c, t in zip(chol, theta):
            assert np.array_equal(c, jittered_cholesky(np.exp(-blocks.d_sites / t))[0])
        got, _ = cv_predict(data, plan, CTM, mcmc)
        want = cv_predict_fold_by_fold(data, plan, CTM, mcmc)
        assert np.array_equal(got.mu, want.mu) and np.array_equal(got.var, want.var)

    @pytest.mark.parametrize("source", [CTM, SAT])
    def test_a_fold_short_of_one_site_runs_in_the_one_batch_carrying_the_site(self, source, monkeypatch):
        from pmfusion.crossval import make_folds

        rng = np.random.default_rng(74)
        full = build_table(rng, 6, 10, gamma=[0.4, 0.0, -0.2, 0.1, 0.0, 0.3])
        # s03 keeps one record, so the fold holding it trains on five sites
        data = with_missing_sat(full.subset((full.site_idx != 3) | (full.day == 4)), rng)
        plan = make_folds(data, "kfold", k=4, seed=1).fold_of_record
        batches = []
        blocks_cls = downscaler._Blocks
        monkeypatch.setattr(downscaler, "_Blocks", lambda *a: batches.append(blocks_cls(*a)) or batches[-1])
        mcmc = MCMCConfig(n_iter=60, burn_in=30, thin=2, seed=9)
        got, _ = cv_predict(data, plan, source, mcmc)
        (blocks,) = batches
        assert blocks.F == 4 and blocks.S == 6
        # s03 is latent in the fold that holds its record out, and only there
        assert (blocks.site_gram[0][:, 3] > 0).tolist() == [f != plan[data.site_idx == 3][0] for f in range(4)]
        monkeypatch.undo()
        want = cv_predict_fold_by_fold(data, plan, source, mcmc)
        assert np.array_equal(got.mu, want.mu, equal_nan=True)
        assert np.array_equal(got.var, want.var, equal_nan=True)


    @pytest.mark.parametrize("kind", ["kfold", "spatial"])
    @pytest.mark.parametrize("source", [CTM, SAT])
    def test_the_full_data_chain_equals_fit_downscaler(self, kind, source, monkeypatch):
        """It is the last chain of the one batch, whether or not the folds
        hold out whole sites. No predictor outlives the batch."""
        from pmfusion.crossval import make_folds

        rng = np.random.default_rng(75)
        data = with_missing_sat(build_table(rng, 6, 10, gamma=[0.3, -0.2, 0.0, 0.1, 0.2, 0.0]), rng)
        plan = make_folds(data, kind, k=3, seed=4).fold_of_record
        n_folds = np.unique(plan).size
        requests = [request(data.sites, data.site_idx, data.day, data.x_for(source), data.z, seed=5)]
        batches = []
        blocks_cls = downscaler._Blocks
        monkeypatch.setattr(downscaler, "_Blocks", lambda *a: batches.append(a[3]) or blocks_cls(*a))
        # every chain's draws recorded as it runs, and each batch's predictors watched
        ran = []

        def record(blocks, consumers):
            assert all(p() is None for p in ran), "an earlier batch's predictor is alive"
            ran.extend(weakref.ref(p) for own in consumers for p in own)
            return record_chains(blocks, consumers)

        monkeypatch.setattr(downscaler, "_run_chains", record)
        pred, got = cv_predict(data, plan, source, self.MCMC, full_seed=17, full_requests=requests)
        assert [len(b) for b in batches] == [n_folds + 1]
        assert batches[0][-1].held.size == 0 and batches[0][-1].seed == 17
        assert len(ran) == n_folds + 1 and all(p() is None for p in ran)
        monkeypatch.undo()
        want = recorded_fit(data, source, MCMCConfig(n_iter=120, burn_in=60, thin=2, seed=17), requests)
        assert [l.site_id for l in got.sites] == [l.site_id for l in want.sites]
        for name in FIT_ARRAYS:
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
        (streamed,), = got.predictions
        (ref,), = want.predictions
        assert np.array_equal(streamed.mu, ref.mu, equal_nan=True)
        assert np.array_equal(streamed.var, ref.var, equal_nan=True)
        assert got.acceptance == want.acceptance  # the adapted steps included
        # unrecorded, the full-data chain's fit holds its predictions and no draw
        _, fit = cv_predict(data, plan, source, self.MCMC, full_seed=17, full_requests=requests)
        assert not set(downscaler._STATE) & set(vars(fit))
        assert np.array_equal(fit.predictions[0][0].mu, ref.mu, equal_nan=True)
        folds_alone, none = cv_predict(data, plan, source, self.MCMC)
        assert none is None
        assert np.array_equal(pred.mu, folds_alone.mu, equal_nan=True)
        assert np.array_equal(pred.var, folds_alone.var, equal_nan=True)

    @pytest.mark.parametrize("kind", ["kfold", "spatial"])
    @pytest.mark.parametrize("source", [CTM, SAT])
    def test_each_fold_streams_the_predictive_of_its_chain_run_alone(self, kind, source):
        """A fold's held-out (mu, var), streamed from its chain's live state in
        the batch, equals the same request streamed from its chain run alone."""
        from pmfusion.crossval import make_folds

        rng = np.random.default_rng(76)
        data = with_missing_sat(build_table(rng, 6, 10, gamma=[0.2, 0.0, -0.3, 0.1, 0.0, 0.4]), rng)
        plan = make_folds(data, kind, k=3, seed=5).fold_of_record
        folds = np.unique(plan)
        pred, _ = cv_predict(data, plan, source, self.MCMC)
        seeds = fold_seeds(2 * folds.size, seed=self.MCMC.seed)
        usable = data.usable_mask(source)
        for k, fold in enumerate(folds):
            chain = downscaler._training_set(data, source, plan != fold, seeds[2 * k])
            held = np.flatnonzero((plan == fold) & usable)
            held_sites, loc_idx = np.unique(data.site_idx[held], return_inverse=True)
            z = data.z[held] if source == SAT else None
            batch = (data.day[held], data.x_for(source)[held], z, seeds[2 * k + 1])
            targets = [data.sites[s] for s in held_sites]
            predictor = downscaler._Predictor(data, source, chain, targets, loc_idx, data.record_ids[held], [batch])
            (want,), = downscaler._run_chains(solo(data, source, self.MCMC, chain), [[predictor]])[0].predictions
            assert np.array_equal(pred.mu[held], want.mu) and np.array_equal(pred.var[held], want.var)
        assert np.isfinite(pred.mu[usable]).all() and np.isnan(pred.mu[~usable]).all()
        assert (source == SAT) == (~usable).any()

    def test_each_chain_of_a_cv_batch_feeds_its_own_consumers(self):
        rng = np.random.default_rng(77)
        data = build_table(rng, 6, 10)
        plan = np.arange(data.n_records) % 3
        chains = [downscaler._training_set(data, CTM, plan != f, s) for f, s in enumerate(fold_seeds(3, seed=6))]
        consumers = [[downscaler._held_out_predictor(data, CTM, c, 100 + f)] for f, c in enumerate(chains)]
        # the full-data chain between the folds', so the fits are not picked by position
        chains.insert(1, downscaler._training_set(data, CTM, None, 17))
        consumers.insert(1, [])
        fits = record_chains(_Blocks(data, CTM, self.MCMC, chains), consumers)
        assert len(fits) == 4 and fits[1].predictions == []
        want = recorded_fit(data, CTM, MCMCConfig(n_iter=120, burn_in=60, thin=2, seed=17))
        for name in FIT_ARRAYS:
            assert np.array_equal(getattr(fits[1], name), getattr(want, name)), name
        for fit, own in zip(fits, consumers):
            assert fit.predictions == [p.out for p in own]
            assert all(p.count == self.MCMC.n_kept for p in own)


def recorded_cv_predict(data, plan, source, mcmc):
    """cv_predict(data, plan, source, mcmc) with its batch's kept states
    recorded: the predictions and each fold chain's recorded fit."""
    fits = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(downscaler, "_run_chains", lambda blocks, consumers: fits.extend(record_chains(blocks, consumers)) or fits)
        pred, _ = cv_predict(data, plan, source, mcmc)
    return pred, fits


class TestHeldOutSitesInTheChain:
    """Every fold chain carries all sites; a held-out record is predicted
    from its chain's state at its site, never kriged."""

    MCMC = MCMCConfig(n_iter=120, burn_in=60, thin=2, seed=0)

    def scene(self, kind, seed):
        from pmfusion.crossval import make_folds

        rng = np.random.default_rng(seed)
        data = with_missing_sat(build_table(rng, 6, 10, gamma=[0.3, 0.0, -0.2, 0.1, 0.2, -0.1]), rng)
        return data, make_folds(data, kind, k=3, seed=seed).fold_of_record

    @pytest.mark.parametrize("kind", ["kfold", "spatial"])
    @pytest.mark.parametrize("source", [CTM, SAT])
    def test_a_held_out_mean_is_the_kept_states_mean_at_its_site(self, kind, source, monkeypatch):
        data, plan = self.scene(kind, 91)
        monkeypatch.setattr(downscaler, "ExpKriging", None)  # no held-out site is kriged
        pred, fits = recorded_cv_predict(data, plan, source, self.MCMC)
        usable = data.usable_mask(source)
        for fold, fit in zip(np.unique(plan), fits):
            held = np.flatnonzero((plan == fold) & usable)
            d0, s, x = data.day[held] - 1, data.site_idx[held], data.x_for(source)[held]
            a11, a21, a22 = (fit.a_coreg[:, i : i + 1] for i in range(3))
            v1, v2 = fit.v1[:, s], fit.v2[:, s]
            per_state = fit.alpha0[:, d0] + a11 * v1 + (fit.beta0[:, d0] + a21 * v1 + a22 * v2) * x
            if source == SAT:
                per_state += fit.gamma @ ((data.z[held] - fit.z_mean) / fit.z_sd).T
            assert_allclose(pred.mu[held], per_state.mean(axis=0), rtol=1e-12)
            assert_allclose(pred.var[held], per_state.var(axis=0, ddof=1) + fit.sigma2_y.mean(), rtol=1e-10)

    @pytest.mark.parametrize("kind", ["kfold", "spatial"])
    @pytest.mark.parametrize("source", [CTM, SAT])
    def test_a_folds_held_out_records_reach_its_chain_by_roundoff_only(self, kind, source):
        """Editing the monitor values, linked values and covariates of one
        fold's held-out records moves that fold's chain by roundoff only: its
        sums are the full grid's less its held-out cells'. Its held-out
        predictive is then its unedited chain's states streamed through the
        edited records, while the other folds, which train on them, move."""
        data, plan = self.scene(kind, 92)
        pred, fits = recorded_cv_predict(data, plan, source, self.MCMC)
        rows = plan == 1
        y, x_ctm, x_sat, z = data.y.copy(), data.x_ctm.copy(), data.x_sat.copy(), data.z.copy()
        y[rows] += 40.0
        x_ctm[rows] += 2.5
        x_sat[rows] += 2.5  # a missing satellite value stays missing
        z[rows] += 0.8
        edited = ObservationTable(sites=data.sites, site_idx=data.site_idx, day=data.day, y=y,
                                  x_ctm=x_ctm, x_sat=x_sat, z=z, n_days=data.n_days)
        got, moved = recorded_cv_predict(edited, plan, source, self.MCMC)
        for name in downscaler._STATE:
            assert_allclose(getattr(moved[1], name), getattr(fits[1], name), rtol=1e-6, atol=1e-6, err_msg=name)
        assert not np.allclose(moved[0].alpha0, fits[0].alpha0, rtol=1e-3)
        chain = downscaler._training_set(edited, source, ~rows, 0)
        replay = downscaler._held_out_predictor(edited, source, chain, 0)
        for j in range(self.MCMC.n_kept):
            replay.add({name: getattr(fits[1], name)[j] for name in downscaler._STATE})
        (want,) = replay.finish()
        held = np.flatnonzero(rows & data.usable_mask(source))
        assert_allclose(got.mu[held], want.mu, rtol=1e-6)
        assert_allclose(got.var[held], want.var, rtol=1e-6)
        assert np.abs(got.mu[held] - pred.mu[held]).min() > 0.1
