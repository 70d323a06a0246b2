"""Record containers passed between the fitting stages.

ObservationTable holds monitor PM2.5 records joined with the linked gridded
values and cell-level covariates. PredictiveTable holds per-(site, day)
Gaussian predictive summaries for the two sources and is the interface
between the downscalers (stage 1/3) and the ensemble weight model (stage 2).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InsufficientDataError, SchemaError
from .geo import SOURCES, Location

COVARIATE_NAMES = ("elev", "forest", "road", "emis", "wind", "temp")
N_COVARIATES = len(COVARIATE_NAMES)


def source_column(source: str) -> int:
    """The column of a source in wide arrays, in SOURCES order."""
    if source not in SOURCES:
        raise SchemaError(f"unknown source {source!r}; expected one of {SOURCES}")
    return SOURCES.index(source)


@dataclass
class ObservationTable:
    """Monitor records with linked grid values and covariates.

    sites    : unique monitor locations, order defines site_idx
    site_idx : (n,) int index into sites
    day      : (n,) int, 1-based calendar day within the study period
    y        : (n,) observed PM2.5, finite
    x_ctm    : (n,) linked CTM value, finite (complete coverage)
    x_sat    : (n,) linked satellite value, NaN where the retrieval is missing
    z        : (n, 6) covariates in COVARIATE_NAMES order, finite
    n_days   : study horizon T; day <= T. CAR adjacency is calendar-based,
               so gaps in monitor coverage leave the horizon unchanged.
    """

    sites: list[Location]
    site_idx: np.ndarray
    day: np.ndarray
    y: np.ndarray
    x_ctm: np.ndarray
    x_sat: np.ndarray
    z: np.ndarray
    n_days: int

    def __post_init__(self):
        self.site_idx = np.asarray(self.site_idx, dtype=np.int64)
        self.day = np.asarray(self.day, dtype=np.int64)
        self.y = np.asarray(self.y, dtype=float)
        self.x_ctm = np.asarray(self.x_ctm, dtype=float)
        self.x_sat = np.asarray(self.x_sat, dtype=float)
        self.z = np.asarray(self.z, dtype=float)
        n = self.y.shape[0]
        if n == 0:
            raise InsufficientDataError("observation table is empty")
        for name, arr in [
            ("site_idx", self.site_idx),
            ("day", self.day),
            ("x_ctm", self.x_ctm),
            ("x_sat", self.x_sat),
        ]:
            if arr.shape[0] != n:
                raise SchemaError(f"{name} length {arr.shape[0]} != {n}")
        if self.z.shape != (n, N_COVARIATES):
            raise SchemaError(f"z must have shape ({n}, {N_COVARIATES})")
        ids = [s.site_id for s in self.sites]
        if len(set(ids)) != len(ids):
            raise SchemaError("duplicate site ids")
        if self.site_idx.min() < 0 or self.site_idx.max() >= len(self.sites):
            raise SchemaError("site_idx out of range")
        if self.day.min() < 1:
            raise SchemaError("day indices are 1-based")
        if self.n_days < int(self.day.max()):
            raise SchemaError("n_days smaller than the largest day present")
        if not np.all(np.isfinite(self.y)):
            raise SchemaError("y must be finite")
        if not np.all(np.isfinite(self.x_ctm)):
            raise SchemaError("x_ctm must be finite (complete coverage)")
        if not np.all(np.isfinite(self.z)):
            raise SchemaError("covariates must be finite")
        key = self.site_idx * (self.n_days + 1) + self.day
        if np.unique(key).size != n:
            raise SchemaError("duplicate (site, day) records")

    @property
    def n_records(self) -> int:
        return self.y.shape[0]

    @property
    def n_sites(self) -> int:
        return len(self.sites)

    @property
    def site_ids(self) -> list[str]:
        return [s.site_id for s in self.sites]

    @property
    def record_ids(self) -> np.ndarray:
        """(n,) object array: the site id of each record."""
        return np.asarray(self.site_ids, dtype=object)[self.site_idx]

    def x_for(self, source: str) -> np.ndarray:
        return self.x_ctm if source_column(source) == 0 else self.x_sat

    def usable_mask(self, source: str) -> np.ndarray:
        """Records usable in the likelihood of the given source's model."""
        return np.isfinite(self.x_for(source))

    def subset(self, mask: np.ndarray) -> "ObservationTable":
        """Restrict to the masked records, dropping sites left with none.

        The horizon n_days is preserved so day indexing stays comparable
        across folds.
        """
        mask = np.asarray(mask, dtype=bool)
        if not mask.any():
            raise InsufficientDataError("subset would be empty")
        old_idx = self.site_idx[mask]
        kept_sites = np.unique(old_idx)
        remap = -np.ones(len(self.sites), dtype=np.int64)
        remap[kept_sites] = np.arange(kept_sites.size)
        return ObservationTable(
            sites=[self.sites[i] for i in kept_sites],
            site_idx=remap[old_idx],
            day=self.day[mask],
            y=self.y[mask],
            x_ctm=self.x_ctm[mask],
            x_sat=self.x_sat[mask],
            z=self.z[mask],
            n_days=self.n_days,
        )


@dataclass
class PredictiveTable:
    """Per-(site, day) Gaussian predictive summaries for both sources.

    ids       : (n,) record identifiers (site or grid-cell ids)
    day       : (n,) int
    mu, var   : (n, 2) float, columns ordered (ctm, sat); NaN where unavailable
    available : (n, 2) bool; the ctm column is normally all True
    """

    ids: np.ndarray
    day: np.ndarray
    mu: np.ndarray
    var: np.ndarray
    available: np.ndarray
    locations: dict[str, Location] = field(default_factory=dict)

    def __post_init__(self):
        self.ids = np.asarray(self.ids, dtype=object)
        self.day = np.asarray(self.day, dtype=np.int64)
        self.mu = np.asarray(self.mu, dtype=float)
        self.var = np.asarray(self.var, dtype=float)
        self.available = np.asarray(self.available, dtype=bool)
        n = self.ids.shape[0]
        if self.mu.shape != (n, 2) or self.var.shape != (n, 2):
            raise SchemaError("mu/var must have shape (n, 2)")
        if self.available.shape != (n, 2):
            raise SchemaError("available must have shape (n, 2)")
        avail_var = self.var[self.available]
        if avail_var.size and (
            not np.all(np.isfinite(self.mu[self.available]))
            or not np.all(np.isfinite(avail_var))
            or np.any(avail_var <= 0)
        ):
            raise SchemaError("available components need finite mu and positive var")

    @property
    def n_records(self) -> int:
        return self.ids.shape[0]

    def both_available(self) -> np.ndarray:
        return self.available[:, 0] & self.available[:, 1]
