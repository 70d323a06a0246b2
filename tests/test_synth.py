"""Generated scenes obey their own stated laws, and the brute-force
oracles agree with independent density arithmetic."""

import numpy as np
import pytest
from scipy.stats import norm

from pmfusion.ensemble import MixtureDistribution
from pmfusion.errors import DomainError
from pmfusion.synth import SceneConfig, generate_scene, generate_split_scene
from pmfusion.geo import SAT, GridSpec
from pmfusion.tables import COVARIATE_NAMES

from oracles import (
    brute_force_mixture_cdf,
    brute_force_weight_posterior,
    default_weight_grid,
    weight_posterior_mean,
)


class TestGenerateScene:
    def test_seeded_generation_is_bit_identical(self):
        cfg = SceneConfig(n_sites=8, n_days=12, seed=42)
        a = generate_scene(cfg)
        b = generate_scene(cfg)
        for name in ("v1", "v2", "alpha0", "beta0", "q", "w", "regime"):
            assert np.array_equal(getattr(a, name), getattr(b, name))
        assert np.array_equal(a.obs.y, b.obs.y)
        assert np.array_equal(a.obs.x_sat, b.obs.x_sat, equal_nan=True)
        assert np.array_equal(a.sat_present, b.sat_present)
        assert np.array_equal(a.inputs.mu, b.inputs.mu)

    def test_seed_changes_the_draw(self):
        a = generate_scene(SceneConfig(n_sites=8, n_days=12, seed=0))
        b = generate_scene(SceneConfig(n_sites=8, n_days=12, seed=1))
        assert not np.array_equal(a.obs.y, b.obs.y)

    def test_missing_rate_extremes(self):
        full = generate_scene(SceneConfig(n_sites=6, n_days=10, sat_missing_rate=0.0))
        assert full.sat_present.all()
        assert np.isfinite(full.obs.x_sat).all()
        assert full.inputs.available.all()
        none = generate_scene(SceneConfig(n_sites=6, n_days=10, sat_missing_rate=1.0))
        assert not none.sat_present.any()
        assert np.isnan(none.obs.x_sat).all()
        assert not none.inputs.available[:, 1].any()

    def test_sat_column_masks_exactly_where_unavailable(self):
        scene = generate_scene(SceneConfig(n_sites=10, n_days=20, seed=3))
        assert np.array_equal(np.isnan(scene.obs.x_sat), ~scene.inputs.available[:, 1])
        assert scene.inputs.available[:, 0].all()

    def test_noiseless_identity_collapses_to_linked_proxy(self):
        """With a flat calibration (intercept 0, slope 1, no covariates, no
        site fields, no noise) each observation equals the linked value of
        whichever source generated that day."""
        cfg = SceneConfig(
            n_sites=6,
            n_days=15,
            gamma=(0.0,) * 6,
            a_coreg=(0.0, 0.0, 0.0),
            sigma2_alpha0=0.0,
            sigma2_beta0=0.0,
            sigma2_y=0.0,
            alpha0_level=0.0,
            beta0_level=1.0,
            sat_missing_rate=0.0,
            seed=7,
        )
        scene = generate_scene(cfg)
        picked = np.where(scene.regime == 1, scene.inputs.mu[:, 0], scene.inputs.mu[:, 1])
        assert np.array_equal(scene.obs.y, picked)
        # and the CTM column really is the linked grid cell
        day0 = scene.obs.day - 1
        rc = scene.site_cell_ctm[scene.obs.site_idx]
        assert np.array_equal(scene.obs.x_ctm, scene.ctm_values[day0, rc[:, 0], rc[:, 1]])

    def test_regimes_follow_site_weights(self):
        cfg = SceneConfig(n_sites=12, n_days=400, tau2=1.5, seed=5)
        scene = generate_scene(cfg)
        for s in range(cfg.n_sites):
            rows = scene.obs.site_idx == s
            frac = np.mean(scene.regime[rows] == 1)
            se = np.sqrt(scene.w[s] * (1.0 - scene.w[s]) / rows.sum())
            assert abs(frac - scene.w[s]) < 4.0 * se + 1e-6

    def test_component_predictives_are_calibrated(self):
        cfg = SceneConfig(n_sites=15, n_days=300, seed=9)
        scene = generate_scene(cfg)
        mu = np.where(scene.regime == 1, scene.inputs.mu[:, 0], scene.inputs.mu[:, 1])
        zscore = (scene.obs.y - mu) / np.sqrt(scene.inputs.var[:, 0])
        n = zscore.size
        assert abs(zscore.mean()) < 4.0 / np.sqrt(n)
        assert abs(zscore.var() - 1.0) < 4.0 * np.sqrt(2.0 / n)

    def test_subsampled_observations(self):
        cfg = SceneConfig(n_sites=10, n_days=50, obs_rate=0.6, seed=13)
        scene = generate_scene(cfg)
        n_full = 10 * 50
        assert scene.obs.n_records < n_full
        se = np.sqrt(0.6 * 0.4 * n_full)
        assert abs(scene.obs.n_records - 0.6 * n_full) < 5.0 * se
        assert scene.inputs.ids.size == scene.obs.n_records
        assert scene.regime.size == scene.obs.n_records

    def test_only_wind_and_temp_move_day_to_day(self):
        scene = generate_scene(SceneConfig(n_sites=4, n_days=6, seed=1))
        obs = scene.obs
        s0 = obs.site_idx == 0
        z = obs.z[s0]
        for j, name in enumerate(COVARIATE_NAMES):
            spread = np.ptp(z[:, j])
            if name in ("wind", "temp"):
                assert spread > 1e-8
            else:
                assert spread < 1e-12

    def test_config_validation(self):
        with pytest.raises(ValueError, match="day"):
            SceneConfig(n_days=1)
        with pytest.raises(ValueError, match="sat_missing_rate"):
            SceneConfig(sat_missing_rate=1.2)
        with pytest.raises(ValueError, match="sigma2_y"):
            SceneConfig(sigma2_y=-0.5)
        with pytest.raises(ValueError, match="diagonal"):
            SceneConfig(a_coreg=(-0.1, 0.2, 0.5))
        with pytest.raises(ValueError, match="inside"):
            SceneConfig(sat_grid=GridSpec(-50.0, 0.0, 4.0, 25, 25, SAT))

    @pytest.mark.parametrize(
        "field, value",
        [
            ("n_sites", 0),
            ("n_days", 1),
            ("seed", -1),
            ("sat_missing_rate", 2.0),
            ("obs_rate", 0.0),
            ("gamma", (0.5,)),
            ("a_coreg", (-0.1, 0.2, 0.5)),
            ("eta_alpha0", 1.5),
            ("tau2", -1.0),
            ("sigma2_y", np.nan),
            ("rho", -1.0),
            ("theta1", np.nan),
            ("sat_grid", GridSpec(-50.0, 0.0, 4.0, 25, 25, SAT)),
        ],
    )
    def test_every_config_check_is_a_domain_error(self, field, value):
        with pytest.raises(DomainError):
            SceneConfig(**{field: value})


class TestSplitScene:
    def test_split_scene_calibration(self):
        sc = generate_split_scene(n_sites=40, n_days=150, seed=2)
        n = sc.y.size
        zy = (sc.y - sc.truth) / 0.5
        assert abs(zy.mean()) < 4.0 / np.sqrt(n)
        assert abs(zy.var() - 1.0) < 4.0 * np.sqrt(2.0 / n)
        left = sc.site_idx[np.array([l.x_km for l in sc.locations])[sc.site_idx] < 100.0]
        assert np.all(sc.err1[np.unique(left)] == 1.0)
        assert np.all(sc.err2[np.unique(left)] == 3.0)
        # declared variance matches the construction exactly
        assert np.array_equal(
            sc.inputs.var[:, 0], sc.err1[sc.site_idx] ** 2 + 0.25
        )
        z1 = (sc.inputs.mu[:, 0] - sc.truth) / sc.err1[sc.site_idx]
        assert abs(z1.var() - 1.0) < 4.0 * np.sqrt(2.0 / n)

    def test_split_scene_component_skill_differs_by_half(self):
        sc = generate_split_scene(n_sites=50, n_days=100, seed=8)
        xs = np.array([l.x_km for l in sc.locations])[sc.site_idx]
        e1 = sc.inputs.mu[:, 0] - sc.truth
        west = xs < 100.0
        assert np.std(e1[west]) < 0.5 * np.std(e1[~west])


class TestWeightPosteriorOracle:
    def test_identical_components_leave_the_prior(self):
        y = np.array([1.0, 2.0, 3.0])
        grid, post = brute_force_weight_posterior(y, 0.0, 1.0, 0.0, 1.0)
        assert post == pytest.approx(np.full(grid.size, 1.0 / grid.size), abs=1e-15)
        assert weight_posterior_mean(grid, post) == pytest.approx(0.5, abs=1e-12)

    def test_prior_reweighting(self):
        grid = default_weight_grid()
        _, post = brute_force_weight_posterior(
            np.array([0.0]), 0.0, 1.0, 0.0, 1.0, grid=grid, prior=grid
        )
        # Beta(2, 1) mean, up to midpoint-rule error
        assert weight_posterior_mean(grid, post) == pytest.approx(2.0 / 3.0, abs=1e-4)

    def test_separated_components_identify_the_generator(self):
        rng = np.random.default_rng(0)
        y = rng.normal(0.0, 1.0, 60)
        grid, post = brute_force_weight_posterior(y, 0.0, 1.0, 8.0, 1.0)
        assert weight_posterior_mean(grid, post) > 0.9

    def test_matches_direct_density_product(self):
        rng = np.random.default_rng(1)
        y = rng.normal(1.0, 2.0, 12)
        grid = np.linspace(0.05, 0.95, 19)
        g, post = brute_force_weight_posterior(y, 0.5, 1.5, -0.5, 2.5, grid=grid)
        raw = np.array(
            [
                np.prod(
                    w * norm.pdf(y, 0.5, np.sqrt(1.5))
                    + (1 - w) * norm.pdf(y, -0.5, np.sqrt(2.5))
                )
                for w in grid
            ]
        )
        np.testing.assert_allclose(post, raw / raw.sum(), rtol=1e-10)

    def test_grid_must_be_interior(self):
        with pytest.raises(DomainError):
            brute_force_weight_posterior(
                np.array([0.0]), 0.0, 1.0, 0.0, 1.0, grid=np.array([0.0, 0.5])
            )

    def test_default_grid_is_midpoints(self):
        g = default_weight_grid(4)
        np.testing.assert_allclose(g, [0.125, 0.375, 0.625, 0.875])


class TestMixtureCdfOracle:
    def test_agrees_with_the_distribution_object(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            m = MixtureDistribution(
                float(rng.uniform(0.05, 0.95)),
                float(rng.normal(0, 5)),
                float(rng.uniform(0.2, 4.0)),
                float(rng.normal(0, 5)),
                float(rng.uniform(0.2, 4.0)),
            )
            x = rng.normal(0, 6, 9)
            np.testing.assert_allclose(brute_force_mixture_cdf(m, x), m.cdf(x), rtol=1e-13)
