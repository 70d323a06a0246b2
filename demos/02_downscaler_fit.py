"""Calibrating a gridded proxy to point monitors with a varying-coefficient model.

The scene generator draws each day at each monitor from one of two regimes,
one tied to the chemical-transport field and one to the satellite field.
The satellite downscaler is fitted twice, on the records its own regime
produced and on everything, and each fit streams its in-sample predictive
at the monitor records from the live chain, keeping no posterior draw;
the table also gives each fit's acceptance of its two GP range moves.
Both fits reach nominal 95% coverage, but the one on everything pays for
its regime confusion with an error and intervals more than twice as large,
because one model is then forced to explain days the other field
generated. Closing that gap is the job of the weight field in demos/03.
"""

import numpy as np

from pmfusion import (
    SAT,
    GaussianSummary,
    MCMCConfig,
    SceneConfig,
    evaluate,
    fit_downscaler,
    generate_scene,
)

truth = generate_scene(SceneConfig(n_sites=35, n_days=60, sat_missing_rate=0.35, seed=21))
obs = truth.obs
print(f"scene: {len(obs.sites)} monitors x {obs.n_days} days, "
      f"{obs.n_records} records, "
      f"{np.isnan(obs.x_sat).mean():.0%} of satellite links missing, "
      f"{(truth.regime == 2).mean():.0%} of days satellite-generated")

mcmc = MCMCConfig(n_iter=2000, burn_in=1000, thin=2, seed=21)
print("\nfit          records   rmse   95% cover   avg sd   theta acceptance")
for label, data in (("own regime", obs.subset(truth.regime == 2)), ("all records", obs)):
    # one request: the records with a satellite link, predicted at their monitors
    usable = np.isfinite(data.x_sat)
    batch = (data.day[usable], data.x_sat[usable], data.z[usable], 7)
    fit = fit_downscaler(data, SAT, mcmc, [(data.sites, data.site_idx[usable], data.record_ids[usable], [batch])])
    (pred,), = fit.predictions
    rep = evaluate(data.y[usable], GaussianSummary(pred.mu, pred.var))
    acc = fit.acceptance
    print(f"{label:12s} {usable.sum():6d}  {rep.rmse:6.3f} {rep.coverage95:9.1f}%  {rep.avg_posterior_sd:7.3f}"
          f"   {acc['theta1']:.2f}, {acc['theta2']:.2f}")
