"""Every file format round-trips; bad files fail with file:line messages."""

import time

import numpy as np
import pytest

from pmfusion import io as pio
from pmfusion.crossval import EvalReport
from pmfusion.ensemble import WeightFieldSamples
from pmfusion.errors import OutOfDomainError, ParseError, SchemaError
from pmfusion.geo import CTM, SAT, GridSpec, Location
from pmfusion.io import (
    PREDICTIONS,
    CsvFormat,
    SurfaceOutput,
    assemble_observations,
    config_hash,
    emit_covariates,
    emit_evaluation,
    emit_grid,
    emit_monitors,
    emit_obs,
    emit_predictive,
    emit_surface,
    emit_weight_samples,
    emit_weights,
    export_scene,
    grid_spec_from_dict,
    grid_spec_to_dict,
    load_covariates,
    load_evaluation,
    load_grid,
    load_json,
    load_monitors,
    load_obs,
    load_predictive,
    load_surface,
    load_weight_samples,
    load_weights,
    read_csv,
    read_meta,
    save_json,
    scene_hash,
    write_csv,
)
from pmfusion.synth import SceneConfig, generate_scene
from pmfusion.tables import PredictiveTable

from oracles import csv_writer_bytes


@pytest.fixture
def sites():
    return [Location("a01", 1.5, 2.5), Location("b02", 10.0, 0.25), Location("c03", 3.0, 8.0)]


class TestMonitors:
    def test_round_trip(self, tmp_path, sites):
        p = emit_monitors(tmp_path / "monitors.csv", sites, {"seed": 5})
        back = load_monitors(p)
        assert back == sites
        assert read_meta(p)["seed"] == "5"

    def test_id_starting_with_hash_is_refused_not_dropped(self, tmp_path):
        # the reader takes a row whose first field starts with '#' for a comment
        p = tmp_path / "monitors.csv"
        with pytest.raises(SchemaError, match=r"monitors\.csv: a value in column 'site_id' starts with '#'"):
            emit_monitors(p, [Location("#1", 0.0, 0.0), Location("b", 1.0, 1.0)])
        assert not p.exists()
        inner = [Location("a#1", 0.0, 0.0), Location("b", 1.0, 1.0)]
        assert load_monitors(emit_monitors(p, inner)) == inner

    def test_duplicate_id_reports_line(self, tmp_path, sites):
        p = emit_monitors(tmp_path / "monitors.csv", sites + [Location("a01", 0.0, 0.0)])
        with pytest.raises(ParseError, match=r"monitors\.csv:5: duplicate"):
            load_monitors(p)

    def test_missing_column_named(self, tmp_path):
        p = tmp_path / "monitors.csv"
        p.write_text("site_id,x_km\na,1.0\n")
        with pytest.raises(SchemaError, match="y_km"):
            load_monitors(p)

    def test_non_numeric_reports_file_and_line(self, tmp_path):
        p = tmp_path / "monitors.csv"
        p.write_text("site_id,x_km,y_km\na,1.0,2.0\nb,oops,3.0\n")
        with pytest.raises(ParseError, match=r"monitors\.csv:3: non-numeric value 'oops'"):
            load_monitors(p)

    def test_quoted_field_spanning_lines_keeps_later_line_numbers(self, tmp_path):
        p = tmp_path / "ml.csv"
        p.write_text('site_id,x_km,y_km\n"a\nb",1,2\nc,oops,3\n')
        with pytest.raises(ParseError, match=r"ml\.csv:4: non-numeric value 'oops'"):
            load_monitors(p)


class TestObs:
    def test_round_trip_drops_empty_values(self, tmp_path):
        ids = np.array(["a", "b", "a"], dtype=object)
        day = np.array([1, 2, 3])
        y = np.array([10.5, np.nan, 12.25])
        p = emit_obs(tmp_path / "obs.csv", ids, day, y)
        rid, rday, ry = load_obs(p)
        assert list(rid) == ["a", "a"]
        assert list(rday) == [1, 3]
        np.testing.assert_array_equal(ry, [10.5, 12.25])

    def test_row_without_pm25_is_still_parsed(self, tmp_path):
        p = tmp_path / "obs.csv"
        p.write_text("site_id,day,pm25\nm000,abc,\n")
        with pytest.raises(ParseError, match=r"obs\.csv:2: non-numeric value 'abc' in column 'day'"):
            load_obs(p)

    def test_fractional_day_rejected(self, tmp_path):
        p = tmp_path / "obs.csv"
        p.write_text("site_id,day,pm25\na,1.5,3.0\n")
        with pytest.raises(ParseError, match="obs.csv:2.*integer"):
            load_obs(p)

    @pytest.mark.parametrize("day", [0, 9])
    def test_day_outside_the_horizon_rejected(self, tmp_path, day):
        p = tmp_path / "obs.csv"
        p.write_text(f"site_id,day,pm25\na,1,3.0\nb,8,\n# note\na,{day},4.0\n")
        with pytest.raises(OutOfDomainError, match=rf"obs\.csv:5: day {day} outside the horizon 1\.\.8$"):
            load_obs(p, n_days=8)
        if day > 8:
            assert list(load_obs(p, n_days=day)[1]) == [1, day]


class TestGrid:
    def test_absent_row_and_empty_field_both_mean_missing(self, tmp_path):
        spec = GridSpec(0.0, 0.0, 1.0, 2, 2, CTM)
        p = tmp_path / "grid.csv"
        p.write_text("day,row,col,value\n1,0,0,4.0\n1,0,1,\n2,1,1,7.0\n")
        values, present = load_grid(p, spec, n_days=2)
        assert values.shape == (2, 2, 2)
        assert values[0, 0, 0] == 4.0 and values[1, 1, 1] == 7.0
        assert present.sum() == 2
        assert not present[0, 0, 1] and not present[0, 1, 0]

    def test_round_trip_with_mask(self, tmp_path):
        rng = np.random.default_rng(3)
        spec = GridSpec(0.0, 0.0, 2.0, 4, 5, SAT)
        vals = rng.normal(8, 2, (3, 4, 5))
        present = rng.random((3, 4, 5)) > 0.4
        vals[~present] = np.nan
        p = emit_grid(tmp_path / "grid.csv", vals, meta={"seed": 0})
        rvals, rpresent = load_grid(p, spec, n_days=3)
        np.testing.assert_array_equal(rpresent, present)
        np.testing.assert_array_equal(rvals[present], vals[present])

    def test_horizon_inferred_from_max_day(self, tmp_path):
        spec = GridSpec(0.0, 0.0, 1.0, 1, 1, CTM)
        p = tmp_path / "grid.csv"
        p.write_text("day,row,col,value\n3,0,0,1.0\n")
        values, _ = load_grid(p, spec)
        assert values.shape == (3, 1, 1)

    def test_cell_outside_grid_rejected(self, tmp_path):
        spec = GridSpec(0.0, 0.0, 1.0, 2, 2, CTM)
        p = tmp_path / "grid.csv"
        p.write_text("day,row,col,value\n1,2,0,1.0\n")
        with pytest.raises(ParseError, match=r"grid\.csv:2.*outside"):
            load_grid(p, spec)

    def test_day_beyond_horizon_rejected(self, tmp_path):
        spec = GridSpec(0.0, 0.0, 1.0, 1, 1, CTM)
        p = tmp_path / "grid.csv"
        p.write_text("day,row,col,value\n5,0,0,1.0\n")
        with pytest.raises(SchemaError, match="beyond"):
            load_grid(p, spec, n_days=3)

    def test_day_beyond_horizon_names_the_first_such_line(self, tmp_path):
        spec = GridSpec(0.0, 0.0, 1.0, 2, 1, CTM)
        p = tmp_path / "grid.csv"
        p.write_text("day,row,col,value\n# seed=1\n1,0,0,1.0\n4,0,0,1.0\n9,1,0,2.0\n")
        with pytest.raises(SchemaError, match=r"^.*grid\.csv:4: day 4 beyond horizon 3$"):
            load_grid(p, spec, n_days=3)


# every spelling float() accepts for a non-finite number
NON_FINITE = ["nan", "NaN", "-nan", "+NAN", "inf", "-inf", "+inf", "Infinity", "-INFINITY", " inf "]


class TestNonFiniteNumbers:
    """An empty cell is the only way to write "missing"; nan and inf are errors."""

    @pytest.mark.parametrize("text", NON_FINITE)
    def test_pm25(self, tmp_path, text):
        p = tmp_path / "obs.csv"
        p.write_text(f"site_id,day,pm25\na,1,3.0\na,2,{text}\n")
        with pytest.raises(ParseError, match=rf"obs\.csv:3: non-finite value .* column 'pm25'"):
            load_obs(p)

    @pytest.mark.parametrize("text", NON_FINITE)
    def test_grid_value(self, tmp_path, text):
        spec = GridSpec(0.0, 0.0, 1.0, 2, 2, CTM)
        p = tmp_path / "grid.csv"
        p.write_text(f"day,row,col,value\n1,0,0,4.0\n1,0,1,\n1,1,1,{text}\n")
        with pytest.raises(ParseError, match=rf"grid\.csv:4: non-finite value .* column 'value'"):
            load_grid(p, spec, n_days=1)

    @pytest.mark.parametrize("text", NON_FINITE)
    def test_covariate(self, tmp_path, text):
        p = tmp_path / "covariates.csv"
        p.write_text(f"site_id,day,elev,forest,road,emis,wind,temp\na,1,1,2,3,{text},5,6\n")
        with pytest.raises(ParseError, match=rf"covariates\.csv:2: non-finite value .* column 'emis'"):
            load_covariates(p)

    @pytest.mark.parametrize("text", NON_FINITE)
    def test_monitor_coordinate(self, tmp_path, text):
        p = tmp_path / "monitors.csv"
        p.write_text(f"# comment\nsite_id,x_km,y_km\na,1.0,2.0\nb,3.0,{text}\n")
        with pytest.raises(ParseError, match=rf"monitors\.csv:4: non-finite value .* column 'y_km'"):
            load_monitors(p)

    def test_empty_cell_still_means_missing(self, tmp_path):
        p = tmp_path / "obs.csv"
        p.write_text("site_id,day,pm25\na,1,3.0\na,2,\n")
        ids, day, y = load_obs(p)
        assert list(day) == [1] and list(y) == [3.0]


class TestCovariates:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(4)
        ids = np.array(["a", "b"], dtype=object)
        day = np.array([1, 2])
        z = rng.normal(size=(2, 6))
        p = emit_covariates(tmp_path / "covariates.csv", ids, day, z)
        rid, rday, rz = load_covariates(p)
        assert list(rid) == ["a", "b"]
        np.testing.assert_array_equal(rz, z)


class TestPredictive:
    def make_table(self, sites):
        locs = {s.site_id: s for s in sites}
        ids = np.array(["a01", "a01", "b02"], dtype=object)
        day = np.array([1, 2, 1])
        mu = np.array([[1.0, 2.0], [3.0, 0.0], [5.0, 6.0]])
        var = np.array([[0.5, 0.7], [0.9, 1.0], [1.1, 1.3]])
        avail = np.array([[True, True], [True, False], [True, True]])
        return PredictiveTable(ids=ids, day=day, mu=mu, var=var, available=avail, locations=locs)

    def test_round_trip_preserves_availability(self, tmp_path, sites):
        table = self.make_table(sites)
        p = emit_predictive(tmp_path / "predictive.csv", table)
        back = load_predictive(p, table.locations)
        np.testing.assert_array_equal(back.available, table.available)
        np.testing.assert_array_equal(back.mu[back.available], table.mu[table.available])
        np.testing.assert_array_equal(back.var[back.available], table.var[table.available])
        assert list(back.ids) == list(table.ids)
        np.testing.assert_array_equal(back.day, table.day)

    def test_unknown_site_rejected(self, tmp_path, sites):
        p = tmp_path / "predictive.csv"
        p.write_text("site_id,day,source,mu,var\nzz,1,ctm,1.0,1.0\n")
        with pytest.raises(SchemaError, match="unknown site_id 'zz'"):
            load_predictive(p, {s.site_id: s for s in sites})

    def test_unknown_source_rejected(self, tmp_path, sites):
        p = tmp_path / "predictive.csv"
        p.write_text("site_id,day,source,mu,var\na01,1,lidar,1.0,1.0\n")
        with pytest.raises(ParseError, match="unknown source 'lidar'"):
            load_predictive(p, {s.site_id: s for s in sites})

    @pytest.mark.parametrize("var", ["0.0", "-1.0"])
    def test_non_positive_var_rejected(self, tmp_path, sites, var):
        p = tmp_path / "predictive.csv"
        p.write_text(f"site_id,day,source,mu,var\na01,1,ctm,1.0,1.0\na01,2,ctm,1.0,{var}\n")
        with pytest.raises(ParseError, match=r"predictive\.csv:3: non-positive .* column 'var'"):
            load_predictive(p, {s.site_id: s for s in sites})

    def test_duplicate_row_rejected(self, tmp_path, sites):
        p = tmp_path / "predictive.csv"
        p.write_text(
            "site_id,day,source,mu,var\na01,1,ctm,1.0,1.0\na01,1,ctm,2.0,1.0\n"
        )
        with pytest.raises(ParseError, match=r":3: duplicate"):
            load_predictive(p, {s.site_id: s for s in sites})


class TestWeights:
    def test_round_trip(self, tmp_path):
        ids = ["a", "b", "c"]
        summary = {
            "w_mean": np.array([0.2, 0.5, 0.8]),
            "w_lo": np.array([0.1, 0.3, 0.6]),
            "w_hi": np.array([0.3, 0.7, 0.95]),
            "q_mean": np.array([-1.4, 0.0, 1.4]),
        }
        p = emit_weights(tmp_path / "weights.csv", ids, summary)
        rid, back = load_weights(p)
        assert list(rid) == ids
        for key in summary:
            np.testing.assert_array_equal(back[key], summary[key])


class TestWeightSamples:
    def field(self, sites):
        rng = np.random.default_rng(6)
        return WeightFieldSamples(
            locations=sites,
            q=rng.normal(size=(5, 3)),
            tau2=rng.uniform(0.5, 2.0, 5),
            rho=rng.uniform(20, 60, 5),
            t_s=np.array([4, 4, 4]),
            acceptance={},
        )

    def test_round_trip(self, tmp_path, sites):
        field = self.field(sites)
        p = emit_weight_samples(tmp_path / "weight_samples.csv", field)
        back = load_weight_samples(p, sites)
        np.testing.assert_array_equal(back.q, field.q)
        np.testing.assert_array_equal(back.tau2, field.tau2)
        np.testing.assert_array_equal(back.rho, field.rho)
        assert [l.site_id for l in back.locations] == [l.site_id for l in sites]

    def test_negative_sample_rejected(self, tmp_path, sites):
        p = tmp_path / "weight_samples.csv"
        p.write_text("sample,site_id,q,tau2,rho\n0,a01,0.1,1.0,30.0\n-1,a01,0.2,1.0,30.0\n")
        with pytest.raises(ParseError, match=r"weight_samples\.csv:3: sample must be >= 0"):
            load_weight_samples(p, sites[:1])

    def test_missing_site_row_rejected(self, tmp_path, sites):
        p = tmp_path / "weight_samples.csv"
        p.write_text(
            "sample,site_id,q,tau2,rho\n0,a01,0.1,1.0,30.0\n0,b02,0.2,1.0,30.0\n"
            "1,a01,0.3,1.1,31.0\n"
        )
        with pytest.raises(SchemaError, match="incomplete"):
            load_weight_samples(p, sites[:2])

    @pytest.mark.parametrize("column", ["tau2", "rho"])
    @pytest.mark.parametrize("value", ["0.0", "-0.0", "-1.0"])
    def test_non_positive_variance_or_range_rejected(self, tmp_path, sites, column, value):
        rows = [["0", "a01", "0.1", "1.0", "30.0"], ["1", "a01", "0.2", "1.1", "31.0"]]
        rows[1]["sample,site_id,q,tau2,rho".split(",").index(column)] = value
        p = tmp_path / "weight_samples.csv"
        p.write_text("sample,site_id,q,tau2,rho\n" + "".join(",".join(r) + "\n" for r in rows))
        message = rf"weight_samples\.csv:3: non-positive value '{float(value)!r}' in column '{column}'$"
        with pytest.raises(ParseError, match=message):
            load_weight_samples(p, sites[:1])

    @pytest.mark.parametrize(
        "rows, where",
        [
            (["0,a01,0.1,1.0,-30.0", "1,a01,0.2,-1.1,31.0"], r"2: non-positive value '-30\.0' in column 'rho'"),
            (["0,a01,0.1,1.0,30.0", "1,a01,0.2,0.0,-31.0"], r"3: non-positive value '0\.0' in column 'tau2'"),
        ],
    )
    def test_first_non_positive_setting_in_file_order(self, tmp_path, sites, rows, where):
        p = tmp_path / "weight_samples.csv"
        p.write_text("sample,site_id,q,tau2,rho\n" + "\n".join(rows) + "\n")
        with pytest.raises(ParseError, match=rf"weight_samples\.csv:{where}$"):
            load_weight_samples(p, sites[:1])

    def test_unknown_site_rejected(self, tmp_path, sites):
        p = tmp_path / "weight_samples.csv"
        p.write_text("sample,site_id,q,tau2,rho\n0,zz,0.1,1.0,30.0\n")
        with pytest.raises(SchemaError, match="unknown site_id"):
            load_weight_samples(p, sites)


class TestSurface:
    def make_surface(self, n, rng):
        sd = rng.uniform(0.5, 1.5, n)
        mean = rng.normal(10, 3, n)
        return SurfaceOutput(
            day=np.repeat(1, n),
            row=np.arange(n) // 100,
            col=np.arange(n) % 100,
            mean=mean,
            sd=sd,
            q025=mean - 1.96 * sd,
            q975=mean + 1.96 * sd,
            w=rng.uniform(0, 1, n),
        )

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(7)
        surf = self.make_surface(500, rng)
        p = emit_surface(tmp_path / "surface.csv", surf, {"seed": 1})
        back = load_surface(p)
        for name in ("day", "row", "col", "mean", "sd", "q025", "q975", "w"):
            np.testing.assert_array_equal(getattr(back, name), getattr(surf, name))

    def test_large_surface_loads_quickly(self, tmp_path):
        rng = np.random.default_rng(8)
        surf = self.make_surface(16_063, rng)
        p = emit_surface(tmp_path / "surface.csv", surf)
        t0 = time.perf_counter()
        back = load_surface(p)
        assert time.perf_counter() - t0 < 1.0
        assert back.n_cells == 16_063

    def test_validation(self):
        base = dict(
            day=np.array([1]), row=np.array([0]), col=np.array([0]),
            mean=np.array([1.0]), sd=np.array([0.5]),
        )
        with pytest.raises(ValueError, match="order"):
            SurfaceOutput(**base, q025=np.array([2.0]), q975=np.array([1.0]), w=np.array([0.5]))
        with pytest.raises(ValueError, match="weights"):
            SurfaceOutput(**base, q025=np.array([0.0]), q975=np.array([2.0]), w=np.array([1.5]))
        with pytest.raises(ValueError, match="length"):
            SurfaceOutput(**base, q025=np.array([0.0]), q975=np.array([2.0]), w=np.array([0.5, 0.5]))


class TestEvaluation:
    def test_round_trip_with_nan_r2(self, tmp_path):
        reports = [
            EvalReport(rmse=1.5, coverage95=94.0, avg_posterior_sd=1.2, r2=0.8,
                       n_pairs=100, method="ensemble", estimation="joint",
                       input_derivation="cv"),
            EvalReport(rmse=2.0, coverage95=90.0, avg_posterior_sd=1.4, r2=float("nan"),
                       n_pairs=50, method="ctm", estimation="two_stage",
                       input_derivation="full"),
        ]
        p = emit_evaluation(tmp_path / "evaluation.csv", reports)
        back = load_evaluation(p)
        assert back[0] == reports[0]
        assert back[1].method == "ctm" and np.isnan(back[1].r2)
        assert back[1].n_pairs == 50


class TestMetaAndJson:
    def test_meta_line_round_trip(self, tmp_path):
        p = emit_obs(
            tmp_path / "obs.csv",
            np.array(["a"], dtype=object), np.array([1]), np.array([2.0]),
            meta={"seed": 11, "config": "deadbeef0123"},
        )
        meta = read_meta(p)
        assert meta == {"seed": "11", "config": "deadbeef0123"}

    def test_comments_skipped_anywhere(self, tmp_path):
        p = tmp_path / "obs.csv"
        p.write_text("# preamble\nsite_id,day,pm25\n# mid comment\na,1,3.5\n")
        ids, day, y = load_obs(p)
        assert list(ids) == ["a"] and y[0] == 3.5

    def test_config_hash_is_order_insensitive(self):
        assert config_hash({"a": 1, "b": [2, 3]}) == config_hash({"b": [2, 3], "a": 1})
        assert config_hash({"a": 1}) != config_hash({"a": 2})
        assert len(config_hash({})) == 12

    def test_json_round_trip_and_parse_error(self, tmp_path):
        p = save_json(tmp_path / "config.json", {"k": [1, 2], "s": "x"})
        assert load_json(p) == {"k": [1, 2], "s": "x"}
        bad = tmp_path / "bad.json"
        bad.write_text("{\n  broken\n}")
        with pytest.raises(ParseError, match=r"bad\.json:2"):
            load_json(bad)

    def test_grid_spec_dict_round_trip(self):
        spec = GridSpec(-3.0, 2.0, 12.0, 7, 9, CTM)
        assert grid_spec_from_dict(grid_spec_to_dict(spec)) == spec


class TestAssembleObservations:
    def pieces(self, tmp_path):
        scene = generate_scene(SceneConfig(n_sites=5, n_days=8, seed=21))
        paths = export_scene(scene, tmp_path / "scene")
        monitors = load_monitors(paths["monitors"])
        obs = load_obs(paths["obs"])
        cov = load_covariates(paths["covariates"])
        ctm = load_grid(paths["grid_ctm"], scene.config.ctm_grid, n_days=8)
        sat = load_grid(paths["grid_sat"], scene.config.sat_grid, n_days=8)
        return scene, monitors, obs, cov, ctm, sat

    def test_rebuilt_table_matches_the_generator(self, tmp_path):
        scene, monitors, obs, cov, ctm, sat = self.pieces(tmp_path)
        table = assemble_observations(
            monitors, obs, ctm, scene.config.ctm_grid,
            sat=sat, sat_spec=scene.config.sat_grid, covariates=cov, n_days=8,
        )
        assert table.n_records == scene.obs.n_records
        np.testing.assert_array_equal(table.y, scene.obs.y)
        np.testing.assert_array_equal(table.x_ctm, scene.obs.x_ctm)
        np.testing.assert_array_equal(table.x_sat, scene.obs.x_sat)
        np.testing.assert_array_equal(table.z, scene.obs.z)
        assert table.n_days == 8

    def test_satellite_optional(self, tmp_path):
        scene, monitors, obs, cov, ctm, _ = self.pieces(tmp_path)
        table = assemble_observations(monitors, obs, ctm, scene.config.ctm_grid, n_days=8)
        assert np.isnan(table.x_sat).all()
        assert np.all(table.z == 0.0)

    def test_unknown_observation_site_rejected(self, tmp_path):
        scene, monitors, obs, cov, ctm, sat = self.pieces(tmp_path)
        ids, day, y = obs
        bad = (np.append(ids, "zz"), np.append(day, 1), np.append(y, 5.0))
        with pytest.raises(SchemaError, match="unknown site_id 'zz'"):
            assemble_observations(monitors, bad, ctm, scene.config.ctm_grid)

    def test_missing_ctm_value_rejected(self, tmp_path):
        scene, monitors, obs, cov, ctm, sat = self.pieces(tmp_path)
        values, present = ctm
        values = values.copy()
        rc = scene.site_cell_ctm[scene.obs.site_idx[0]]
        values[scene.obs.day[0] - 1, rc[0], rc[1]] = np.nan
        with pytest.raises(SchemaError, match="no ctm grid value"):
            assemble_observations(monitors, obs, (values, present), scene.config.ctm_grid, n_days=8)

    def test_monitor_without_a_measured_day_rejected(self, tmp_path):
        scene, monitors, obs, cov, ctm, sat = self.pieces(tmp_path)
        ids, day, y = obs
        keep = (ids != "m001") & (ids != "m003")
        with pytest.raises(SchemaError, match="no measured day: m001, m003$"):
            assemble_observations(
                monitors, (ids[keep], day[keep], y[keep]), ctm, scene.config.ctm_grid, n_days=8
            )

    def test_missing_covariate_row_rejected(self, tmp_path):
        scene, monitors, obs, cov, ctm, sat = self.pieces(tmp_path)
        cov_ids, cov_day, z = cov
        short = (cov_ids[:-1], cov_day[:-1], z[:-1])
        with pytest.raises(SchemaError, match="no covariate row"):
            assemble_observations(
                monitors, obs, ctm, scene.config.ctm_grid, covariates=short, n_days=8
            )

    def test_repeated_covariate_row_rejected(self, tmp_path):
        # a later copy of a (site_id, day) with other values used to win
        scene, monitors, obs, cov, ctm, sat = self.pieces(tmp_path)
        cov_ids, cov_day, z = cov
        repeated = (np.append(cov_ids, cov_ids[0]), np.append(cov_day, cov_day[0]), np.vstack([z, z[:1] + 9.0]))
        with pytest.raises(SchemaError, match=r"covariates repeat a \(site_id, day\) row"):
            assemble_observations(
                monitors, obs, ctm, scene.config.ctm_grid, covariates=repeated, n_days=8
            )


class TestExportScene:
    def test_exports_complete_and_hashed(self, tmp_path):
        cfg = SceneConfig(n_sites=4, n_days=6, seed=33)
        scene = generate_scene(cfg)
        paths = export_scene(scene, tmp_path / "scene")
        for key in ("monitors", "obs", "covariates", "grid_ctm", "grid_sat",
                    "truth_weights", "scene"):
            assert paths[key].exists()
        desc = load_json(paths["scene"])
        assert desc["seed"] == 33
        assert desc["config"] == scene_hash(cfg)
        assert grid_spec_from_dict(desc["ctm_grid"]) == cfg.ctm_grid
        assert read_meta(paths["obs"])["config"] == scene_hash(cfg)
        ids, weights = load_weights(paths["truth_weights"])
        np.testing.assert_allclose(weights["w_mean"], scene.w)

    def test_grid_day_subset_keeps_monitor_cells(self, tmp_path):
        cfg = SceneConfig(n_sites=4, n_days=6, seed=34, sat_missing_rate=0.0)
        scene = generate_scene(cfg)
        paths = export_scene(scene, tmp_path / "scene", grid_days=[2])
        values, present = load_grid(paths["grid_ctm"], cfg.ctm_grid, n_days=6)
        assert present[1].all()
        assert not present[0].all()
        rc = scene.site_cell_ctm
        for d in range(6):
            assert present[d, rc[:, 0], rc[:, 1]].all()


META = {"seed": 4, "config": "0123456789ab"}
TAIL = "# seed=4 config=0123456789ab\n"


def _predictive_table():
    return PredictiveTable(
        ids=np.array(["a01", "a01", "b02"], dtype=object),
        day=np.array([1, 2, 1]),
        mu=np.array([[1.0, 2.0], [3.0, 0.0], [5.0, 6.5]]),
        var=np.array([[0.5, 0.7], [0.9, 1.0], [1.1, 1.3]]),
        available=np.array([[True, True], [True, False], [True, True]]),
    )


GOLDEN = {
    "monitors": (
        lambda p: emit_monitors(p, [Location("a01", 1.5, 2.5), Location("b02", 1 / 3, -0.0)], META),
        "site_id,x_km,y_km\na01,1.5,2.5\nb02,0.3333333333333333,-0.0\n",
    ),
    "obs": (
        lambda p: emit_obs(
            p, np.array(["a01", "b02"], dtype=object), np.array([1, 12]), np.array([10.25, np.nan]), META
        ),
        "site_id,day,pm25\na01,1,10.25\nb02,12,\n",
    ),
    "grid": (
        lambda p: emit_grid(
            p, np.array([[[1.5, np.nan]], [[np.nan, 1e-20]]]), np.array([[[True, True]], [[False, True]]]), META
        ),
        "day,row,col,value\n1,0,0,1.5\n1,0,1,\n2,0,1,1e-20\n",
    ),
    "covariates": (
        lambda p: emit_covariates(
            p, np.array(["a01"], dtype=object), np.array([3]),
            np.array([[0.1, 0.2, 0.3, 1e6, -2.5, 12345678.9]]), META,
        ),
        "site_id,day,elev,forest,road,emis,wind,temp\na01,3,0.1,0.2,0.3,1000000.0,-2.5,12345678.9\n",
    ),
    "predictive": (
        lambda p: emit_predictive(p, _predictive_table(), META),
        "site_id,day,source,mu,var\na01,1,ctm,1.0,0.5\na01,2,ctm,3.0,0.9\nb02,1,ctm,5.0,1.1\n"
        "a01,1,sat,2.0,0.7\nb02,1,sat,6.5,1.3\n",
    ),
    "weights": (
        lambda p: emit_weights(
            p, ["a01", "b02"],
            {"w_mean": np.array([0.25, 0.5]), "w_lo": np.array([0.125, 0.1]),
             "w_hi": np.array([0.75, 0.9]), "q_mean": np.array([-1.0986122886681098, 0.0])},
            META,
        ),
        "site_id,w_mean,w_lo,w_hi,q_mean\na01,0.25,0.125,0.75,-1.0986122886681098\nb02,0.5,0.1,0.9,0.0\n",
    ),
    "weight_samples": (
        lambda p: emit_weight_samples(
            p,
            WeightFieldSamples(
                locations=[Location("a01", 1.5, 2.5), Location("b02", 0.0, 0.0)],
                q=np.array([[0.5, -0.5], [1.0, 2.0]]), tau2=np.array([1.5, 2.0]),
                rho=np.array([30.0, 31.5]), t_s=np.array([1, 1]), acceptance={},
            ),
            META,
        ),
        "sample,site_id,q,tau2,rho\n0,a01,0.5,1.5,30.0\n0,b02,-0.5,1.5,30.0\n"
        "1,a01,1.0,2.0,31.5\n1,b02,2.0,2.0,31.5\n",
    ),
    "surface": (
        lambda p: emit_surface(
            p,
            SurfaceOutput(
                day=np.array([1, 2]), row=np.array([0, 3]), col=np.array([4, 0]),
                mean=np.array([10.5, 1 / 3]), sd=np.array([0.5, 0.25]), q025=np.array([9.5, 0.0]),
                q975=np.array([11.5, 0.75]), w=np.array([0.0, 1.0]),
            ),
            META,
        ),
        "day,row,col,mean,sd,q025,q975,w\n1,0,4,10.5,0.5,9.5,11.5,0.0\n"
        "2,3,0,0.3333333333333333,0.25,0.0,0.75,1.0\n",
    ),
    "evaluation": (
        lambda p: emit_evaluation(
            p,
            [
                EvalReport(rmse=1.5, coverage95=94.0, avg_posterior_sd=1.2, r2=0.8, n_pairs=100,
                           method="ensemble", estimation="joint", input_derivation="cv"),
                EvalReport(rmse=2.0, coverage95=90.0, avg_posterior_sd=1.4, r2=float("nan"), n_pairs=50,
                           method="ctm", estimation="downscaler", input_derivation="kfold"),
            ],
            META,
        ),
        "method,estimation,input_derivation,n_pairs,rmse,coverage95,avg_posterior_sd,r2\n"
        "ensemble,joint,cv,100,1.5,94.0,1.2,0.8\nctm,downscaler,kfold,50,2.0,90.0,1.4,\n",
    ),
    "predictions": (
        lambda p: write_csv(
            p, PREDICTIONS,
            (["a01", "b02"], [2, 12], [10.5, 1 / 3], [0.5, 0.25], [9.5, 0.0], [11.5, 0.75], [1.0, 0.25]),
            META,
        ),
        "site_id,day,mean,sd,q025,q975,w\na01,2,10.5,0.5,9.5,11.5,1.0\n"
        "b02,12,0.3333333333333333,0.25,0.0,0.75,0.25\n",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_writer_bytes_are_fixed(tmp_path, name):
    """repr floats, an empty field for a missing number, the meta line last."""
    write, body = GOLDEN[name]
    p = write(tmp_path / f"{name}.csv")
    assert p.read_bytes() == (body + TAIL).encode()


class TestWriterMatchesCsvModule:
    """write_csv's bytes against csv.writer's for the same cells."""

    IDS = ["plain", "a,b", 'say "hi"', "two\nlines", '",\n"', " spaced ", "ünï"]

    def test_rows_over_several_chunks(self, tmp_path):
        rng = np.random.default_rng(12)
        n = 2 * pio._WRITE_CHUNK + 37
        floats = [rng.normal(0.0, 10.0 ** rng.integers(-5, 6), n) for _ in range(5)]
        floats[0][::97] = -0.0
        floats[1][::89] = 0.0
        floats[2][::83] = np.nan  # an empty cell, as for a missing number
        columns = (rng.choice(np.array(self.IDS, dtype=object), n), rng.integers(-5, 400, n), *floats)
        path = write_csv(tmp_path / "p.csv", PREDICTIONS, columns, META)
        assert path.read_bytes() == csv_writer_bytes(PREDICTIONS, columns, META)
        assert b"-0.0," in path.read_bytes() and b",," in path.read_bytes()

    @pytest.mark.parametrize("fmt", [pio.OBS, pio.EVALUATION], ids=["obs", "evaluation"])
    def test_missing_cells_and_text(self, fmt, tmp_path):
        values = {"s": self.IDS, "i": list(range(7)), "f": [1.5, -0.0, 2e-300, 1e300, 0.1, 3.0, 7.25],
                  "m": [np.nan, -0.0, 1.0, np.nan, 2.5, np.nan, 1 / 3]}
        columns = [values[k] for k in fmt.kinds]
        path = write_csv(tmp_path / "f.csv", fmt, columns, META)
        assert path.read_bytes() == csv_writer_bytes(fmt, columns, META)

    @pytest.mark.parametrize("kind", ["i", "f", "m", "p"])
    def test_columns_format_as_cell_by_cell(self, kind):
        """Whole-column formatting gives the bytes of str(int(v)) and repr(v) per cell."""
        rng = np.random.default_rng(13)
        if kind == "i":
            cases = [rng.integers(-2**62, 2**62, 500), rng.integers(-5, 400, 500).tolist(),
                     np.array([0.0, 3.0, -7.0, 2.0**52]), [True, False, 5, -0]]
            want = [[str(int(v)) for v in c] for c in cases]
        else:
            special = [np.nan, -0.0, 0.0, 5e-324, 2.2e-308, 1e300, -1e-300, 1e-300, -1e300, np.inf, None]
            cases = [rng.normal(0.0, 10.0 ** rng.integers(-300, 300, 500)), special, [1, -2, 3], []]
            want = [["" if v != v else repr(v) for v in np.asarray(c, dtype=float).tolist()] for c in cases]
        for case, cells in zip(cases, want):
            assert pio._format(kind, case) == cells

    def test_quoted_ids_read_back(self, tmp_path):
        ids = [*self.IDS, "cr\rid"]
        locs = [Location(sid, float(i), 2.0) for i, sid in enumerate(ids)]
        back = load_monitors(emit_monitors(tmp_path / "m.csv", locs, META))
        assert [l.site_id for l in back] == [sid.strip() for sid in ids]


FORMATS = {name: v for name, v in vars(pio).items() if isinstance(v, CsvFormat)}
GOOD_CELL = {"s": "a", "i": "7", "f": "1.5", "p": "2e-300", "m": ""}
PARSED_CELL = {"s": "a", "i": 7, "f": 1.5, "p": 2e-300, "m": None}
BAD_CELL = {
    "s": (" ", "empty value in column '{}'"),
    "i": ("2.5", "column '{}' must be an integer, got '2.5'"),
    "f": ("x1", "non-numeric value 'x1' in column '{}'"),
    "p": ("-0", "non-positive value '-0.0' in column '{}'"),
    "m": ("inf", "non-finite value 'inf' in column '{}'"),
}


def test_every_format_is_covered():
    assert len(FORMATS) == 10


@pytest.mark.parametrize(
    "name,kind",
    [(name, kind) for name, fmt in sorted(FORMATS.items()) for kind in sorted(set(fmt.kinds))],
)
def test_bad_cell_names_file_line_and_column(tmp_path, name, kind):
    fmt = FORMATS[name]
    col = fmt.kinds.index(kind)
    good = [GOOD_CELL[k] for k in fmt.kinds]
    bad = list(good)
    bad[col] = BAD_CELL[kind][0]
    p = tmp_path / "t.csv"
    p.write_text("\n".join([",".join(fmt.columns), "# note", ",".join(good), ",".join(bad)]) + "\n")
    message = BAD_CELL[kind][1].format(fmt.columns[col])
    with pytest.raises(ParseError, match=rf"t\.csv:4: {message}$"):
        read_csv(p, fmt)
    p.write_text("\n".join([",".join(fmt.columns), ",".join(good)]) + "\n")
    lines, cols = read_csv(p, fmt)
    got = [None if k == "m" and np.isnan(c[0]) else c.tolist()[0] for k, c in zip(fmt.kinds, cols)]
    assert lines == [2] and got == [PARSED_CELL[k] for k in fmt.kinds]


# per format: a loader call and three rows whose third repeats the first's key
# with another value, which used to replace it without an error
REPEATED_KEY = {
    "monitors": (lambda p, sites: load_monitors(p), "site_id,x_km,y_km",
                 ["a01,1.0,2.0", "b02,3.0,4.0", "a01,5.0,6.0"]),
    "obs": (lambda p, sites: load_obs(p), "site_id,day,pm25",
            ["a01,1,5.0", "a01,2,6.0", "a01,1,50.0"]),
    "grid": (lambda p, sites: load_grid(p, GridSpec(0.0, 0.0, 1.0, 2, 2)), "day,row,col,value",
             ["1,0,0,5.0", "1,0,1,6.0", "1,0,0,50.0"]),
    "covariates": (lambda p, sites: load_covariates(p), "site_id,day,elev,forest,road,emis,wind,temp",
                   ["a01,1,0,0,0,0,0,0", "a01,2,0,0,0,0,0,0", "a01,1,9,9,9,9,9,9"]),
    "predictive": (lambda p, sites: load_predictive(p, {s.site_id: s for s in sites}),
                   "site_id,day,source,mu,var",
                   ["a01,1,ctm,1.0,1.0", "a01,1,sat,1.0,1.0", "a01,1,ctm,2.0,1.0"]),
    "weights": (lambda p, sites: load_weights(p), "site_id,w_mean,w_lo,w_hi,q_mean",
                ["a01,0.5,0.4,0.6,0.0", "b02,0.5,0.4,0.6,0.0", "a01,0.9,0.8,1.0,2.2"]),
    "weight_samples": (lambda p, sites: load_weight_samples(p, sites), "sample,site_id,q,tau2,rho",
                       ["0,a01,0.1,1.0,30.0", "0,b02,0.2,1.0,30.0", "0,a01,5.0,1.0,30.0"]),
}


@pytest.mark.parametrize("name", sorted(REPEATED_KEY))
def test_repeated_key_names_file_and_both_lines(tmp_path, sites, name):
    load, header, rows = REPEATED_KEY[name]
    p = tmp_path / f"{name}.csv"
    p.write_text("\n".join([header, *rows]) + "\n")
    with pytest.raises(ParseError, match=rf"{name}\.csv:4: duplicate .*, first at line 2$"):
        load(p, sites)
    p.write_text("\n".join([header, *rows[:2]]) + "\n")
    load(p, sites)
