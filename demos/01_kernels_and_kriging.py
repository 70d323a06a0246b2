"""Exponential-covariance building blocks: field draws and simple kriging.

Draws a Gaussian-process field at scattered sites, then kriges it onto a
west-east transect with `ExpKriging`, the kernel behind the surface stage.
Three things to notice in the output: the predictor reproduces the field
exactly at the sites, the predictive SD grows with distance from data, and
far from every site the field reverts to its prior mean with the full
marginal SD.
"""

import numpy as np

from pmfusion import Location, distance_matrix
from pmfusion.kernels import ExpKriging, jittered_cholesky

rng = np.random.default_rng(42)

# 40 sites scattered over a 200 km square
xy = rng.uniform(0, 200, (40, 2))
sites = [Location(f"s{i:02d}", float(x), float(y)) for i, (x, y) in enumerate(xy)]

# marginal variance (sill) and range of the exponential covariance
sill, range_km = 2.0, 60.0
d_sites = distance_matrix(sites)
chol, jitter = jittered_cholesky(np.exp(-d_sites / range_km))
field = np.sqrt(sill) * (chol @ rng.standard_normal(len(sites)))

print(f"field over {len(sites)} sites: sd {field.std():.2f} "
      f"(marginal {np.sqrt(sill):.2f}), jitter used {jitter:.1e}")

# the kernel kriges on the correlation scale: the conditional mean does not
# depend on the sill, and the predictive variance is sill * residual
at_sites, _ = ExpKriging(d_sites, d_sites)(field, range_km)
gap = np.max(np.abs(at_sites - field))
print(f"max |kriged - field| at the sites: {gap:.2e}")

# transect through the domain, then far beyond it
targets = [Location(f"t{k}", float(x), 100.0) for k, x in enumerate(np.arange(0, 601, 50))]
means, resid = ExpKriging(d_sites, distance_matrix(sites, targets))(field, range_km)
sds = np.sqrt(sill * resid)

print("\n   x_km    mean     sd   nearest-site-km")
for t, mean, sd in zip(targets, means, sds):
    d_near = min(np.hypot(t.x_km - s.x_km, t.y_km - s.y_km) for s in sites)
    print(f"  {t.x_km:5.0f}  {mean:6.2f}  {sd:5.2f}   {d_near:6.1f}")

print(f"\nfar target: mean {means[-1]:.3f} -> 0, sd {sds[-1]:.3f} -> {np.sqrt(sill):.3f}")
