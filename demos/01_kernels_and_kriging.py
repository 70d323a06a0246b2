"""Exponential-covariance building blocks: field draws and simple kriging.

Draws a Gaussian-process field at scattered sites, then kriges it onto a
west-east transect. Three things to notice in the output: the predictor
reproduces the field exactly at the sites, the predictive SD grows with
distance from data, and far from every site the field reverts to its
prior mean with the full marginal SD.
"""

import numpy as np

from pmfusion import ExpCovParams, Location, distance_matrix, krige
from pmfusion.kernels import jittered_cholesky

rng = np.random.default_rng(42)

# 40 sites scattered over a 200 km square
xy = rng.uniform(0, 200, (40, 2))
sites = [Location(f"s{i:02d}", float(x), float(y)) for i, (x, y) in enumerate(xy)]

params = ExpCovParams(marginal_variance=2.0, range_km=60.0)
corr = np.exp(-distance_matrix(sites) / params.range_km)
chol, jitter = jittered_cholesky(corr)
field = np.sqrt(params.marginal_variance) * (chol @ rng.standard_normal(len(sites)))

print(f"field over {len(sites)} sites: sd {field.std():.2f} "
      f"(marginal {np.sqrt(params.marginal_variance):.2f}), jitter used {jitter:.1e}")

# kriging back onto the sites is exact up to jitter
at_sites = krige(sites, field, sites, params)
gap = np.max(np.abs(at_sites.mean - field))
print(f"max |kriged - field| at the sites: {gap:.2e}")

# transect through the domain, then far beyond it
targets = [Location(f"t{k}", float(x), 100.0) for k, x in enumerate(np.arange(0, 601, 50))]
preds = krige(sites, field, targets, params)

print("\n   x_km    mean     sd   nearest-site-km")
for t, mean, sd in zip(targets, preds.mean, preds.sd):
    d_near = min(np.hypot(t.x_km - s.x_km, t.y_km - s.y_km) for s in sites)
    print(f"  {t.x_km:5.0f}  {mean:6.2f}  {sd:5.2f}   {d_near:6.1f}")

print(f"\nfar target: mean {preds.mean[-1]:.3f} -> 0, sd {preds.sd[-1]:.3f} -> "
      f"{np.sqrt(params.marginal_variance):.3f}")
