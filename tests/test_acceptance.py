"""Ten release gates, one per numbered guarantee of the engine.

Each test prints a single `[ k/10] <name>: PASS/FAIL (<measurements>)` line
with the observed values next to their pinned thresholds. Run with `-s` to
see the lines as they happen. The statistical gates use scenes generated
from the model itself, so their thresholds are calibrated, not tuned.
"""

import math
import subprocess
import sys
import time

import numpy as np
import pytest
from scipy.stats import norm

from pmfusion import io as pio
from pmfusion.config import MCMCConfig
from pmfusion.ensemble import (
    MixtureDistribution,
    _EnsembleProblem,
    fit_joint,
    fit_site_weights,
    fit_two_stage,
    krige_weights,
    mixture_quantiles_arrays,
    update_q,
    update_rho,
    update_tau2,
)
from pmfusion.geo import CTM, SAT, GridSpec, Location, distance_matrix
from pmfusion.kernels import clipped_logit, inv_logit, jittered_cholesky
from pmfusion.pipeline import PipelineConfig, save_pipeline_config
from pmfusion.synth import SceneConfig, generate_scene, generate_split_scene
from pmfusion.tables import PredictiveTable

from oracles import brute_force_weight_posterior, weight_posterior_mean

N_GATES = 10


def report(index: int, name: str, ok: bool, detail: str):
    status = "PASS" if ok else "FAIL"
    print(f"[{index:2d}/{N_GATES}] {name}: {status} ({detail})")
    assert ok, f"{name}: {detail}"


def take(inputs: PredictiveTable, mask: np.ndarray) -> PredictiveTable:
    return PredictiveTable(
        ids=inputs.ids[mask],
        day=inputs.day[mask],
        mu=inputs.mu[mask],
        var=inputs.var[mask],
        available=inputs.available[mask],
        locations=inputs.locations,
    )


# ---------------------------------------------------------------- 1


def scalar_membership(y, mu1, var1, mu2, var2, w):
    l1 = -0.5 * math.log(2 * math.pi * var1) - (y - mu1) ** 2 / (2 * var1)
    l2 = -0.5 * math.log(2 * math.pi * var2) - (y - mu2) ** 2 / (2 * var2)
    a = math.log(w) + l1
    b = math.log(1 - w) + l2
    m = max(a, b)
    return math.exp(a - m) / (math.exp(a - m) + math.exp(b - m))


def test_01_conditional_draws_match_density_oracles():
    t0 = time.perf_counter()
    rng = np.random.default_rng(90)
    n = 10_000
    y = rng.normal(0, 4, n)
    mu1 = rng.normal(0, 3, n)
    mu2 = rng.normal(0, 3, n)
    var1 = rng.uniform(0.2, 6.0, n)
    var2 = rng.uniform(0.2, 6.0, n)
    w = rng.uniform(0.02, 0.98, n)
    # the probabilities the samplers draw memberships from, one site per row
    ids = np.array([f"s{i:05d}" for i in range(n)], dtype=object)
    rows = PredictiveTable(ids=ids, day=np.ones(n, dtype=np.int64), mu=np.column_stack([mu1, mu2]),
                           var=np.column_stack([var1, var2]), available=np.ones((n, 2), dtype=bool))
    sites = [Location(sid, float(i), 0.0) for i, sid in enumerate(ids)]
    probs = _EnsembleProblem(y, rows, sites).assignment_probs(clipped_logit(w))
    oracle = np.array(
        [scalar_membership(y[i], mu1[i], var1[i], mu2[i], var2[i], w[i]) for i in range(n)]
    )
    prob_err = float(np.abs(probs - oracle).max())

    s_count = 40
    layout = np.random.default_rng(17).uniform(0, 300, (s_count, 2))
    locs = [Location(f"s{i:02d}", float(x), float(y_)) for i, (x, y_) in enumerate(layout)]
    q = 1.2 * np.random.default_rng(18).standard_normal(s_count)
    rho = 80.0
    corr = np.exp(-distance_matrix(locs) / rho)
    quad = float(q @ np.linalg.solve(corr, q))
    a, b = 0.001, 0.001
    analytic_mean = (b + 0.5 * quad) / (a + 0.5 * s_count - 1.0)
    draw_rng = np.random.default_rng(99)
    m = 100_000
    total = 0.0
    mcmc = MCMCConfig(ig_a=a, ig_b=b)
    for _ in range(m):
        total += update_tau2(quad, s_count, mcmc, draw_rng)
    rel_err = abs(total / m - analytic_mean) / analytic_mean
    elapsed = time.perf_counter() - t0
    report(
        1,
        "conditional-draw oracles",
        prob_err < 1e-12 and rel_err < 0.02 and elapsed < 30.0,
        f"membership err {prob_err:.1e} < 1e-12; variance-draw mean off by "
        f"{100 * rel_err:.2f}% < 2%; {elapsed:.0f} s < 30 s",
    )


# ---------------------------------------------------------------- 2


def test_02_disabled_likelihood_recovers_priors():
    t0 = time.perf_counter()
    rng = np.random.default_rng(12345)
    layout = np.random.default_rng(5).uniform(0, 60, (8, 2))
    locs = [Location(f"s{i}", float(x), float(y)) for i, (x, y) in enumerate(layout)]
    corr = np.exp(-distance_matrix(locs) / 40.0)
    chol, _ = jittered_cholesky(corr)
    prec = np.linalg.inv(corr)
    q = np.zeros(8)
    r = prec @ q
    silent = np.zeros(8)  # no member-count terms: the sweep targets the GP prior
    step = np.full(8, 1.0)
    n_iter, burn = 100_000, 10_000
    sums = np.zeros(8)
    squares = np.zeros(8)
    for it in range(n_iter):
        update_q(silent, silent, q, prec, r, step, rng)
        if it >= burn:
            sums += q
            squares += q * q
    kept = n_iter - burn
    q_mean = sums / kept
    q_var = squares / kept - q_mean**2
    mean_err = float(np.abs(q_mean).max())
    var_err = float(np.abs(q_var - 1.0).max())

    single = [Location("a", 0.0, 0.0)]
    q1 = np.array([0.3])  # C = [1] makes the field term constant in the range
    rho = 100.0
    total = 0.0
    d1 = distance_matrix(single)
    chol1, _ = jittered_cholesky(np.exp(-d1 / rho))
    mcmc = MCMCConfig()
    for it in range(n_iter):
        rho, _, chol1 = update_rho(q1, 1.0, rho, d1, chol1, math.sqrt(2.0), rng, mcmc)
        if it >= burn:
            total += rho
    rho_mean = total / kept
    elapsed = time.perf_counter() - t0
    report(
        2,
        "prior recovery with likelihood disabled",
        mean_err < 0.05 and var_err < 0.10 and abs(rho_mean - 100.0) < 10.0 and elapsed < 300.0,
        f"logit means |max| {mean_err:.3f} < 0.05; variances within {100 * var_err:.1f}% < 10%; "
        f"range mean {rho_mean:.1f} in 100+/-10; {elapsed:.0f} s < 5 min",
    )


# ---------------------------------------------------------------- 3


def test_03_site_weight_posterior_matches_grid_oracle():
    t0 = time.perf_counter()
    worst = 0.0
    for rep in range(20):
        rng = np.random.default_rng(3000 + rep)
        t_days = int(rng.integers(12, 31))
        w_true = float(rng.uniform(0.2, 0.8))
        mu1 = rng.normal(10, 1, t_days)
        mu2 = rng.normal(10, 1, t_days)
        var1 = rng.uniform(0.5, 2.0, t_days)
        var2 = rng.uniform(0.5, 2.0, t_days)
        z = rng.random(t_days) < w_true
        y = np.where(z, mu1, mu2) + np.sqrt(np.where(z, var1, var2)) * rng.standard_normal(t_days)
        loc = [Location(f"p{rep}", 0.0, 0.0)]
        inputs = PredictiveTable(
            ids=np.array([f"p{rep}"] * t_days, dtype=object),
            day=np.arange(1, t_days + 1),
            mu=np.column_stack([mu1, mu2]),
            var=np.column_stack([var1, var2]),
            available=np.ones((t_days, 2), dtype=bool),
            locations={f"p{rep}": loc[0]},
        )
        w_samples, _ = fit_site_weights(
            y, inputs, loc, MCMCConfig(n_iter=6000, burn_in=2000, thin=1, seed=rep)
        )
        grid, post = brute_force_weight_posterior(y, mu1, var1, mu2, var2)
        worst = max(worst, abs(float(w_samples[:, 0].mean()) - weight_posterior_mean(grid, post)))
    elapsed = time.perf_counter() - t0
    report(
        3,
        "site-weight grid oracle",
        worst < 0.02 and elapsed < 120.0,
        f"worst posterior-mean gap {worst:.4f} < 0.02 over 20 problems on a 2000-point grid; "
        f"{elapsed:.0f} s < 2 min",
    )


# ---------------------------------------------------------------- 4


def test_04_mixture_quantiles_invert_the_cdf():
    rng = np.random.default_rng(14)
    worst_round = 0.0
    for _ in range(1000):
        m = MixtureDistribution(
            float(rng.uniform(0.02, 0.98)),
            float(rng.normal(0, 3)),
            float(rng.uniform(0.1, 9.0)),
            float(rng.normal(0, 3)),
            float(rng.uniform(0.1, 9.0)),
        )
        for p in (0.025, 0.5, 0.975):
            worst_round = max(worst_round, abs(m.cdf(m.quantile(p)) - p))

    # fine-grid inversion on overlapping mixtures, in units of the mixture SD
    worst_grid = 0.0
    for _ in range(50):
        sd1 = float(rng.uniform(0.5, 2.0))
        sd2 = float(rng.uniform(0.5, 2.0))
        mu1 = float(rng.normal(0, 2))
        mu2 = mu1 + float(rng.uniform(0.0, 2.0)) * (sd1 + sd2)
        w = float(rng.uniform(0.1, 0.9))
        m = MixtureDistribution(w, mu1, sd1**2, mu2, sd2**2)
        mean = w * mu1 + (1 - w) * mu2
        second = w * (sd1**2 + mu1**2) + (1 - w) * (sd2**2 + mu2**2)
        sd = math.sqrt(second - mean**2)
        xs = np.linspace(min(mu1 - 6 * sd1, mu2 - 6 * sd2), max(mu1 + 6 * sd1, mu2 + 6 * sd2), 100_001)
        cdf = w * norm.cdf(xs, mu1, sd1) + (1 - w) * norm.cdf(xs, mu2, sd2)
        for p in (0.025, 0.5, 0.975):
            by_grid = float(np.interp(p, cdf, xs))
            worst_grid = max(worst_grid, abs(m.quantile(p) - by_grid) / sd)
    report(
        4,
        "mixture quantile inversion",
        worst_round < 1e-8 and worst_grid < 1e-6,
        f"|CDF(quantile(p)) - p| max {worst_round:.1e} < 1e-8 over 1000 mixtures; "
        f"fine-grid gap {worst_grid:.1e} < 1e-6 SD",
    )


# ---------------------------------------------------------------- 5, 7, 9


def weight_scene(seed: int):
    """50 sites over ~1000 km with logit weights drawn from their own GP
    (marginal variance 1, range 300 km); days generated from the mixture."""
    rng = np.random.default_rng(seed)
    s_count, t_days = 50, 300
    xy = rng.uniform(0, 1000, (s_count, 2))
    locs = [Location(f"s{i:02d}", float(x), float(y)) for i, (x, y) in enumerate(xy)]
    chol, _ = jittered_cholesky(np.exp(-distance_matrix(locs) / 300.0))
    q_true = chol @ rng.standard_normal(s_count)
    w_true = inv_logit(q_true)
    site_idx = np.repeat(np.arange(s_count), t_days)
    day = np.tile(np.arange(1, t_days + 1), s_count)
    n = site_idx.size
    level = 10 + rng.normal(0, 2, n)
    mu1 = level + rng.normal(0, 2, n)
    mu2 = level + rng.normal(0, 2, n)
    z = rng.random(n) < w_true[site_idx]
    y = np.where(z, mu1, mu2) + rng.standard_normal(n)
    inputs = PredictiveTable(
        ids=np.array([locs[i].site_id for i in site_idx], dtype=object),
        day=day,
        mu=np.column_stack([mu1, mu2]),
        var=np.ones((n, 2)),
        available=np.ones((n, 2), dtype=bool),
        locations={l.site_id: l for l in locs},
    )
    return locs, w_true, site_idx, day, y, inputs


@pytest.fixture(scope="module")
def weight_field_fit():
    locs, w_true, site_idx, day, y, inputs = weight_scene(101)
    train = day <= 200
    t0 = time.perf_counter()
    fit = fit_joint(
        y[train], take(inputs, train), locs,
        MCMCConfig(n_iter=10_000, burn_in=5_000, thin=4, seed=101),
    )
    elapsed = time.perf_counter() - t0
    return {
        "locs": locs, "w_true": w_true, "site_idx": site_idx, "day": day,
        "y": y, "inputs": inputs, "fit": fit, "elapsed": elapsed,
    }


def test_05_weight_field_recovery_on_generated_scene(weight_field_fit):
    ctx = weight_field_fit
    w_draws = inv_logit(ctx["fit"].q)
    w_mean = w_draws.mean(axis=0)
    lo = np.quantile(w_draws, 0.025, axis=0)
    hi = np.quantile(w_draws, 0.975, axis=0)
    corr = float(np.corrcoef(w_mean, ctx["w_true"])[0, 1])
    coverage = float(np.mean((ctx["w_true"] >= lo) & (ctx["w_true"] <= hi)))
    ok = corr > 0.7 and coverage >= 0.85 and ctx["elapsed"] < 900.0
    report(
        5,
        "weight-field recovery (50 sites x 200 days)",
        ok,
        f"corr(w_hat, w_true) {corr:.3f} > 0.7; interval coverage {100 * coverage:.0f}% >= 85%; "
        f"{ctx['elapsed']:.0f} s < 15 min at 10k iterations",
    )


# ---------------------------------------------------------------- 6, 8


@pytest.fixture(scope="module")
def split_fits():
    scene = generate_split_scene(n_sites=60, n_days=120, seed=11)
    mcmc = MCMCConfig(n_iter=10_000, burn_in=5_000, thin=4, seed=11)
    joint = fit_joint(scene.y, scene.inputs, scene.locations, mcmc)
    two = fit_two_stage(scene.y, scene.inputs, scene.locations, mcmc)
    return scene, joint, two


def ensemble_stats(scene, field):
    summ = field.summary()
    col = {l.site_id: i for i, l in enumerate(field.locations)}
    sids = [scene.locations[i].site_id for i in scene.site_idx]
    w_row = np.array([summ["w_mean"][col[s]] for s in sids])
    mu1, mu2 = scene.inputs.mu[:, 0], scene.inputs.mu[:, 1]
    v1, v2 = scene.inputs.var[:, 0], scene.inputs.var[:, 1]
    mean = w_row * mu1 + (1 - w_row) * mu2
    second = w_row * (v1 + mu1**2) + (1 - w_row) * (v2 + mu2**2)
    sd = np.sqrt(second - mean**2)
    rmse = float(np.sqrt(np.mean((scene.y - mean) ** 2)))
    return rmse, float(sd.mean())


def test_06_ensemble_beats_both_sources_on_split_scene(split_fits):
    scene, joint, _ = split_fits
    rmse_ens, sd_ens = ensemble_stats(scene, joint)
    rmse1 = float(np.sqrt(np.mean((scene.y - scene.inputs.mu[:, 0]) ** 2)))
    rmse2 = float(np.sqrt(np.mean((scene.y - scene.inputs.mu[:, 1]) ** 2)))
    sd1 = float(np.sqrt(scene.inputs.var[:, 0]).mean())
    sd2 = float(np.sqrt(scene.inputs.var[:, 1]).mean())
    best_rmse = min(rmse1, rmse2)
    best_sd = sd1 if rmse1 <= rmse2 else sd2
    ok = rmse_ens <= 1.02 * best_rmse and sd_ens <= 0.85 * best_sd
    report(
        6,
        "ensemble dominance on a half-domain quality split",
        ok,
        f"rmse {rmse_ens:.3f} <= 1.02 * min({rmse1:.3f}, {rmse2:.3f}); "
        f"avg sd {sd_ens:.3f} <= 0.85 * {best_sd:.3f}",
    )


def test_07_held_out_intervals_hit_nominal_coverage(weight_field_fit):
    ctx = weight_field_fit
    test = ctx["day"] > 200
    w_mean = inv_logit(ctx["fit"].q).mean(axis=0)
    w_row = w_mean[ctx["site_idx"][test]]
    mu1 = ctx["inputs"].mu[test, 0]
    mu2 = ctx["inputs"].mu[test, 1]
    ones = np.ones(test.sum())
    lo = mixture_quantiles_arrays(w_row, mu1, ones, mu2, ones, 0.025)
    hi = mixture_quantiles_arrays(w_row, mu1, ones, mu2, ones, 0.975)
    y = ctx["y"][test]
    coverage = 100.0 * float(np.mean((y >= lo) & (y <= hi)))
    report(
        7,
        "held-out interval calibration",
        92.0 <= coverage <= 98.0,
        f"95% interval coverage {coverage:.2f}% in [92, 98] over {test.sum()} held-out records",
    )


def test_08_joint_and_two_stage_agree(split_fits):
    scene, joint, two = split_fits
    rmse_joint, _ = ensemble_stats(scene, joint)
    rmse_two, _ = ensemble_stats(scene, two)
    diff = abs(rmse_joint - rmse_two)
    report(
        8,
        "joint vs two-stage estimation",
        diff < 0.15,
        f"rmse {rmse_joint:.3f} vs {rmse_two:.3f}, |diff| {diff:.4f} < 0.15",
    )


def test_09_kriging_exact_at_monitors_reverts_far_away(weight_field_fit):
    ctx = weight_field_fit
    fit = ctx["fit"]
    at_monitors = krige_weights(fit, fit.locations, seed=4)
    site_post = inv_logit(fit.q).mean(axis=0)
    monitor_gap = float(np.abs(at_monitors["w_mean"] - site_post).max())
    far = krige_weights(fit, [Location("far", 1.0e7, 1.0e7)], seed=5)
    far_gap = abs(float(far["w_mean"][0]) - 0.5)
    report(
        9,
        "kriged weights: exact at monitors, prior mean far away",
        monitor_gap < 0.05 and far_gap < 0.05,
        f"max gap at monitors {monitor_gap:.1e} < 0.05; far-field weight "
        f"{far['w_mean'][0]:.3f} within 0.05 of 1/2",
    )


# ---------------------------------------------------------------- 10


def test_10_pipeline_scale_run_reproducible_single_threaded(tmp_path_factory, pmfusion_env):
    root = tmp_path_factory.mktemp("scale")
    scene_cfg = SceneConfig(
        n_sites=63,
        n_days=365,
        seed=77,
        ctm_grid=GridSpec(-12.0, -12.0, 12.0, 11, 11, CTM),
        sat_grid=GridSpec(0.0, 0.0, 4.0, 25, 25, SAT),
    )
    truth = generate_scene(scene_cfg)
    days = (45, 135, 225, 315)
    paths = pio.export_scene(truth, root / "scene", grid_days=list(days))
    pipe = PipelineConfig(
        monitors=str(paths["monitors"]),
        obs=str(paths["obs"]),
        grid_ctm=str(paths["grid_ctm"]),
        ctm_grid=scene_cfg.ctm_grid,
        out_dir=str(root / "runs_a"),
        grid_sat=str(paths["grid_sat"]),
        sat_grid=scene_cfg.sat_grid,
        covariates=str(paths["covariates"]),
        target_grid=GridSpec(0.0, 0.0, 1.0, 100, 100),
        n_days=365,
        surface_days=days,
        seed=9,
    )
    cfg_path = save_pipeline_config(root / "config.json", pipe)
    env = dict(pmfusion_env)
    for var in ("PMFUSION_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"

    def launch(extra):
        return subprocess.run(
            [sys.executable, "-m", "pmfusion", "run-all", "--config", str(cfg_path), *extra],
            capture_output=True, text=True, env=env, cwd=root,
        )

    t0 = time.perf_counter()
    first = launch([])
    elapsed = time.perf_counter() - t0
    assert first.returncode == 0, first.stderr
    second = launch(["--out-dir", str(root / "runs_b")])
    assert second.returncode == 0, second.stderr

    run_a = root / "runs_a" / f"run_{pipe.digest()}"
    run_b = root / "runs_b" / f"run_{pipe.digest()}"
    artifact_names = (
        "cv_predictive.csv", "site_weights.csv", "weight_samples.csv",
        "full_predictive.csv", "weight_surface.csv", "surface.csv", "evaluation.csv",
    )
    identical = all(
        (run_a / name).read_bytes() == (run_b / name).read_bytes()
        for name in artifact_names
    )
    surf = pio.load_surface(run_a / "surface.csv")
    complete = surf.n_cells == len(days) * 100 * 100 and set(surf.day) == set(days)
    report(
        10,
        "pipeline at scale: 63 sites x 365 days onto a 100x100 grid",
        elapsed < 1800.0 and identical and complete,
        f"single-threaded run {elapsed:.0f} s < 30 min; "
        f"{surf.n_cells} surface cells over days {sorted(int(d) for d in set(surf.day))}; "
        f"rerun byte-identical: {identical}",
    )
