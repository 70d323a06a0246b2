"""Record-table validation, per-source views, and MCMC settings."""

import numpy as np
import pytest

from pmfusion.config import MCMCConfig
from pmfusion.errors import DomainError
from pmfusion.geo import CTM, SAT, Location
from pmfusion.tables import COVARIATE_NAMES, ObservationTable, PredictiveTable, source_column


def _table(n_sites=3, n_days=4, seed=0, sat_nan=()):
    rng = np.random.default_rng(seed)
    sites = [Location(f"s{i}", *rng.uniform(0, 50, 2)) for i in range(n_sites)]
    site_idx = np.repeat(np.arange(n_sites), n_days)
    day = np.tile(np.arange(1, n_days + 1), n_sites)
    n = site_idx.size
    x_sat = rng.normal(8, 2, n)
    x_sat[list(sat_nan)] = np.nan
    return ObservationTable(
        sites=sites,
        site_idx=site_idx,
        day=day,
        y=rng.normal(10, 3, n),
        x_ctm=rng.normal(8, 2, n),
        x_sat=x_sat,
        z=rng.normal(0, 1, (n, 6)),
        n_days=n_days,
    )


class TestObservationTable:
    def test_basic_properties(self):
        t = _table()
        assert t.n_records == 12
        assert t.n_sites == 3
        assert t.site_ids == ["s0", "s1", "s2"]

    def test_duplicate_record_rejected(self):
        t = _table()
        with pytest.raises(ValueError):
            ObservationTable(
                sites=t.sites,
                site_idx=np.array([0, 0]),
                day=np.array([1, 1]),
                y=np.zeros(2),
                x_ctm=np.zeros(2),
                x_sat=np.zeros(2),
                z=np.zeros((2, 6)),
                n_days=4,
            )

    def test_day_beyond_horizon_rejected(self):
        t = _table()
        with pytest.raises(ValueError):
            ObservationTable(
                sites=t.sites,
                site_idx=np.array([0]),
                day=np.array([9]),
                y=np.zeros(1),
                x_ctm=np.zeros(1),
                x_sat=np.zeros(1),
                z=np.zeros((1, 6)),
                n_days=4,
            )

    def test_nonfinite_response_rejected(self):
        t = _table()
        y = t.y.copy()
        y[0] = np.nan
        with pytest.raises(ValueError):
            ObservationTable(
                sites=t.sites,
                site_idx=t.site_idx,
                day=t.day,
                y=y,
                x_ctm=t.x_ctm,
                x_sat=t.x_sat,
                z=t.z,
                n_days=t.n_days,
            )

    def test_usable_masks(self):
        t = _table(sat_nan=(0, 5))
        assert t.usable_mask(CTM).all()
        sat = t.usable_mask(SAT)
        assert not sat[0] and not sat[5]
        assert sat.sum() == t.n_records - 2

    def test_x_for_selects_source(self):
        t = _table()
        np.testing.assert_array_equal(t.x_for(CTM), t.x_ctm)
        np.testing.assert_array_equal(t.x_for(SAT), t.x_sat)
        with pytest.raises(ValueError):
            t.x_for("radar")

    def test_subset_drops_empty_sites_and_remaps(self):
        t = _table(n_sites=3, n_days=4)
        keep = t.site_idx != 1  # drop site s1 entirely
        sub = t.subset(keep)
        assert sub.n_sites == 2
        assert sub.site_ids == ["s0", "s2"]
        assert sub.n_records == 8
        assert sub.n_days == t.n_days  # horizon preserved for CAR alignment
        # remapped indices still point at the right site objects
        for i in range(sub.n_records):
            orig = np.flatnonzero(keep)[i]
            assert sub.sites[sub.site_idx[i]].site_id == t.sites[t.site_idx[orig]].site_id


class TestPredictiveTable:
    def _inputs(self, n=6):
        rng = np.random.default_rng(1)
        sites = {f"s{i}": Location(f"s{i}", *rng.uniform(0, 10, 2)) for i in range(2)}
        ids = np.array(["s0", "s0", "s0", "s1", "s1", "s1"], dtype=object)[:n]
        return ids, sites, rng

    def test_both_available(self):
        ids, sites, rng = self._inputs()
        avail = np.ones((6, 2), dtype=bool)
        avail[2, 1] = False
        t = PredictiveTable(
            ids=ids,
            day=np.array([1, 2, 3, 1, 2, 3]),
            mu=rng.normal(size=(6, 2)),
            var=np.full((6, 2), 1.0),
            available=avail,
            locations=sites,
        )
        assert t.both_available().sum() == 5

    def test_nonpositive_variance_rejected_where_available(self):
        ids, sites, rng = self._inputs()
        var = np.full((6, 2), 1.0)
        var[1, 0] = 0.0
        with pytest.raises(ValueError):
            PredictiveTable(
                ids=ids,
                day=np.array([1, 2, 3, 1, 2, 3]),
                mu=np.zeros((6, 2)),
                var=var,
                available=np.ones((6, 2), dtype=bool),
                locations=sites,
            )

    def test_unavailable_entries_exempt_from_checks(self):
        ids, sites, rng = self._inputs()
        mu = np.zeros((6, 2))
        var = np.ones((6, 2))
        mu[0, 1] = np.nan
        var[0, 1] = -3.0
        avail = np.ones((6, 2), dtype=bool)
        avail[0, 1] = False
        PredictiveTable(
            ids=ids,
            day=np.array([1, 2, 3, 1, 2, 3]),
            mu=mu,
            var=var,
            available=avail,
            locations=sites,
        )


class TestSourceColumn:
    def test_mapping(self):
        assert source_column(CTM) == 0
        assert source_column(SAT) == 1
        with pytest.raises(ValueError):
            source_column("lidar")

    def test_covariate_names(self):
        assert COVARIATE_NAMES == ("elev", "forest", "road", "emis", "wind", "temp")


class TestMCMCConfig:
    def test_kept_iterations(self):
        c = MCMCConfig(n_iter=100, burn_in=40, thin=3, seed=0)
        kept = list(c.kept_iterations())
        assert kept[0] == 40
        assert kept[-1] <= 99
        assert all(b - a == 3 for a, b in zip(kept, kept[1:]))
        assert c.n_kept == len(kept)

    def test_validation(self):
        with pytest.raises(ValueError):
            MCMCConfig(n_iter=100, burn_in=100, thin=1)
        with pytest.raises(ValueError):
            MCMCConfig(n_iter=100, burn_in=10, thin=0)
        with pytest.raises(ValueError):
            MCMCConfig(n_iter=0, burn_in=0, thin=1)
        # every rejection is a DomainError, which stays a ValueError
        bad = [
            dict(n_iter=100, burn_in=100, thin=1),
            dict(n_iter=100, burn_in=10, thin=0),
            dict(n_iter=0, burn_in=0, thin=1),
            dict(n_iter=100, burn_in=-1, thin=1),
            dict(n_iter=100, burn_in=10, thin=1, kappa_w=0.0),
            dict(n_iter=100, burn_in=10, thin=1, ig_b=0.0),
            dict(n_iter="100", burn_in=10, thin=1),
            dict(n_iter=100.0, burn_in=10, thin=1),
            dict(n_iter=100, burn_in=10.5, thin=1),
            dict(n_iter=100, burn_in=10, thin=True),
            dict(n_iter=True, burn_in=0, thin=1),
        ]
        for kw in bad:
            with pytest.raises(DomainError):
                MCMCConfig(**kw)
