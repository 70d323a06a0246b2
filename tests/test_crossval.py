"""Fold plans are content-addressed partitions; evaluation is calibrated."""

import numpy as np
import pytest

from pmfusion.crossval import EvalReport, evaluate, make_folds
from pmfusion.ensemble import MixtureDistribution
from pmfusion.errors import DomainError, EmptyInputError, SchemaError, TooFewRecordsError
from pmfusion.geo import Location
from pmfusion.kernels import GaussianSummary
from pmfusion.tables import N_COVARIATES, ObservationTable


def panel(rng, n_sites=7, n_days=20, order=None):
    sites = [
        Location(f"m{i:02d}", float(rng.uniform(0, 50)), float(rng.uniform(0, 50)))
        for i in range(n_sites)
    ]
    site_idx = np.repeat(np.arange(n_sites), n_days)
    day = np.tile(np.arange(1, n_days + 1), n_sites)
    n = site_idx.size
    if order is not None:
        site_idx = site_idx[order]
        day = day[order]
    x = rng.normal(10, 3, n)
    return ObservationTable(
        sites=sites, site_idx=site_idx, day=day, y=x + rng.standard_normal(n),
        x_ctm=x, x_sat=x.copy(), z=rng.normal(size=(n, N_COVARIATES)), n_days=n_days,
    )


class TestMakeFolds:
    def test_kfold_partitions_evenly(self):
        rng = np.random.default_rng(1)
        data = panel(rng)
        plan = make_folds(data, "kfold", k=10, seed=3)
        assert plan.n_folds == 10
        assert plan.fold_of_record.shape == (140,)
        counts = np.bincount(plan.fold_of_record, minlength=10)
        assert counts.sum() == 140
        assert counts.max() - counts.min() <= 1

    def test_kfold_assignment_is_content_addressed(self):
        """Shuffling the record order must not change which fold a given
        (site, day) lands in."""
        rng = np.random.default_rng(2)
        data = panel(rng)
        order = np.random.default_rng(9).permutation(data.n_records)
        shuffled = panel(np.random.default_rng(2), order=order)
        a = make_folds(data, "kfold", k=5, seed=11)
        b = make_folds(shuffled, "kfold", k=5, seed=11)
        key_a = {
            (data.sites[data.site_idx[i]].site_id, int(data.day[i])): int(a.fold_of_record[i])
            for i in range(data.n_records)
        }
        for i in range(shuffled.n_records):
            key = (shuffled.sites[shuffled.site_idx[i]].site_id, int(shuffled.day[i]))
            assert b.fold_of_record[i] == key_a[key]

    def test_kfold_seed_changes_plan(self):
        rng = np.random.default_rng(3)
        data = panel(rng)
        a = make_folds(data, "kfold", k=7, seed=0)
        b = make_folds(data, "kfold", k=7, seed=1)
        assert not np.array_equal(a.fold_of_record, b.fold_of_record)

    def test_spatial_is_leave_one_monitor_out(self):
        rng = np.random.default_rng(4)
        data = panel(rng, n_sites=5, n_days=8)
        plan = make_folds(data, "spatial")
        assert plan.n_folds == 5
        for s in range(5):
            rows = data.site_idx == s
            assert np.unique(plan.fold_of_record[rows]).size == 1
        # fold ids follow the sorted site-id ranking
        rank = {sid: i for i, sid in enumerate(sorted(s.site_id for s in data.sites))}
        for i in range(data.n_records):
            sid = data.sites[data.site_idx[i]].site_id
            assert plan.fold_of_record[i] == rank[sid]

    def test_too_few_records_rejected(self):
        rng = np.random.default_rng(5)
        data = panel(rng, n_sites=2, n_days=3)
        with pytest.raises(TooFewRecordsError):
            make_folds(data, "kfold", k=10)

    @pytest.mark.parametrize("k", [-3, 0, 1, 2.0, 3.5, True, "4"])
    def test_kfold_count_below_two_or_not_an_integer_is_rejected(self, k):
        data = panel(np.random.default_rng(8))
        with pytest.raises(DomainError, match=f"got {k!r}"):
            make_folds(data, "kfold", k=k)

    def test_spatial_ignores_the_fold_count(self):
        data = panel(np.random.default_rng(9), n_sites=3, n_days=4)
        assert make_folds(data, "spatial", k=-3).n_folds == 3

    def test_spatial_needs_two_sites(self):
        rng = np.random.default_rng(6)
        data = panel(rng, n_sites=1, n_days=5)
        with pytest.raises(TooFewRecordsError):
            make_folds(data, "spatial")

    def test_unknown_kind_rejected(self):
        rng = np.random.default_rng(7)
        data = panel(rng)
        with pytest.raises(SchemaError, match="kind"):
            make_folds(data, "bootstrap")


class TestEvaluate:
    def test_calibrated_predictions_score_nominal_coverage(self):
        rng = np.random.default_rng(21)
        n = 4_000
        mu = rng.normal(12, 4, n)
        sd = rng.uniform(0.5, 2.0, n)
        y = mu + sd * rng.standard_normal(n)
        rep = evaluate(y, GaussianSummary(mu, sd**2))
        assert rep.n_pairs == n
        assert abs(rep.coverage95 - 95.0) < 1.5
        assert rep.rmse == pytest.approx(float(np.sqrt(np.mean((y - mu) ** 2))), rel=1e-12)
        assert rep.rmse == pytest.approx(float(np.sqrt(np.mean(sd**2))), rel=0.05)
        assert rep.avg_posterior_sd == pytest.approx(float(sd.mean()), rel=1e-12)
        assert 0.7 < rep.r2 <= 1.0

    def test_accepts_mixture_predictions(self):
        rng = np.random.default_rng(22)
        n = 200
        y = rng.normal(5, 2, n)
        noise = rng.normal(0, 0.5, (n, 2))
        preds = MixtureDistribution(0.4, y + noise[:, 0], 1.0, y - noise[:, 1], 2.0)
        rep = evaluate(y, preds)
        assert np.isfinite(rep.rmse)
        assert 0.0 <= rep.coverage95 <= 100.0

    def test_degenerate_spread_gives_nan_r2(self):
        y = np.array([1.0, 2.0, 3.0])
        preds = GaussianSummary(np.full(3, 2.0), np.ones(3))
        rep = evaluate(y, preds)
        assert np.isnan(rep.r2)
        assert np.isfinite(rep.rmse)

    def test_empty_input_rejected(self):
        with pytest.raises(EmptyInputError):
            evaluate(np.array([]), GaussianSummary(np.array([]), np.array([])))

    def test_misaligned_lengths_rejected(self):
        with pytest.raises(SchemaError, match="align"):
            evaluate(np.array([1.0, 2.0]), GaussianSummary(np.ones(1), np.ones(1)))

    def test_report_label_fields_default_empty(self):
        rep = EvalReport(rmse=1.0, coverage95=95.0, avg_posterior_sd=1.0, r2=0.5, n_pairs=10)
        assert rep.method == "" and rep.estimation == "" and rep.input_derivation == ""
