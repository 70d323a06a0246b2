"""Calibrating a gridded proxy to point monitors with a varying-coefficient model.

The scene generator draws each day at each monitor from one of two regimes,
one tied to the chemical-transport field and one to the satellite field.
Fitting the satellite downscaler on the records its own regime produced
recovers the generator's noise level exactly and keeps the coefficient
posteriors tight (the site-level covariates stay partly confounded with the
spatial intercept field, which the posterior widths reflect). Fitting it on
everything inflates the noise severalfold, because one model is then forced
to explain days the other field generated. Closing that gap is the job of
the weight field in demos/03.
"""

import numpy as np

from pmfusion import (
    COVARIATE_NAMES,
    CTM,
    SAT,
    GaussianSummary,
    MCMCConfig,
    SceneConfig,
    evaluate,
    fit_downscaler,
    generate_scene,
    predict_batches,
)

truth = generate_scene(SceneConfig(n_sites=35, n_days=60, sat_missing_rate=0.35, seed=21))
obs = truth.obs
print(f"scene: {len(obs.sites)} monitors x {obs.n_days} days, "
      f"{obs.n_records} records, "
      f"{np.isnan(obs.x_sat).mean():.0%} of satellite links missing, "
      f"{(truth.regime == 2).mean():.0%} of days satellite-generated")

mcmc = MCMCConfig(n_iter=2000, burn_in=1000, thin=2, seed=21)
own = fit_downscaler(obs.subset(truth.regime == 2), SAT, mcmc)
mixed = fit_downscaler(obs, SAT, mcmc)

print("\nsatellite covariate coefficients (posterior mean +/- sd):")
print("            own regime        all records    generator")
for j, name in enumerate(COVARIATE_NAMES):
    a, b = own.gamma[:, j], mixed.gamma[:, j]
    print(f"  {name:8s} {a.mean():6.2f} +/- {a.std():4.2f} "
          f"  {b.mean():6.2f} +/- {b.std():4.2f}   {truth.config.gamma[j]:+9.2f}")
print(f"noise variance: own regime {own.sigma2_y.mean():.2f}, "
      f"all records {mixed.sigma2_y.mean():.2f} (generator {truth.config.sigma2_y:.2f})")
print(f"post-burn acceptance: " +
      ", ".join(f"{k} {v:.2f}" for k, v in sorted(own.acceptance.items())
                if isinstance(v, float)))

# in-sample predictive at the monitor records; honest coverage either way,
# but the mixed fit pays for its regime confusion with wider intervals
print("\nfit          records   rmse   95% cover   avg sd")
for label, fit, data in (("own regime", own, obs.subset(truth.regime == 2)),
                         ("all records", mixed, obs)):
    usable = np.isfinite(data.x_sat)
    batch = (data.day[usable], data.x_sat[usable], data.z[usable], 7)
    pred = predict_batches(fit, data.sites, data.site_idx[usable], data.record_ids[usable], [batch])[0]
    rep = evaluate(data.y[usable], GaussianSummary(pred.mu, pred.var))
    print(f"{label:12s} {usable.sum():6d}  {rep.rmse:6.3f} {rep.coverage95:9.1f}%  {rep.avg_posterior_sd:7.3f}")
