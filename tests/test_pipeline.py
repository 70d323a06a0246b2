"""End-to-end orchestration: artifacts, determinism, failure tagging, CLI."""

import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pmfusion
from pmfusion import cli, downscaler, pipeline
from pmfusion import io as pio
from pmfusion.config import MCMCConfig
from pmfusion.downscaler import fit_downscaler
from pmfusion.errors import DomainError, OverwriteError, SchemaError, StageError
from pmfusion.geo import CTM, SAT, GridSpec, Location
from pmfusion.pipeline import (
    JOINT,
    TWO_STAGE,
    PipelineConfig,
    _load_inputs,
    _nearest_site_rows,
    cv_component_table,
    load_pipeline_config,
    run_pipeline,
    save_pipeline_config,
)
from pmfusion.synth import SceneConfig, generate_scene
from pmfusion.tables import ObservationTable


@pytest.fixture(scope="module")
def scene(tmp_path_factory):
    root = tmp_path_factory.mktemp("scene")
    cfg = SceneConfig(n_sites=8, n_days=14, sat_missing_rate=0.45, seed=50)
    truth = generate_scene(cfg)
    paths = pio.export_scene(truth, root)
    return truth, paths, root


def make_config(truth, paths, out_dir, **kw):
    cfg = truth.config
    base = dict(
        monitors=str(paths["monitors"]),
        obs=str(paths["obs"]),
        grid_ctm=str(paths["grid_ctm"]),
        ctm_grid=cfg.ctm_grid,
        out_dir=str(out_dir),
        grid_sat=str(paths["grid_sat"]),
        sat_grid=cfg.sat_grid,
        covariates=str(paths["covariates"]),
        target_grid=GridSpec(10.0, 10.0, 16.0, 5, 5),
        n_days=cfg.n_days,
        n_folds=4,
        downscaler_mcmc=MCMCConfig(n_iter=240, burn_in=120, thin=2),
        ensemble_mcmc=MCMCConfig(n_iter=400, burn_in=200, thin=2),
        surface_days=(1, 7),
        seed=3,
    )
    base.update(kw)
    return PipelineConfig(**base)


@pytest.fixture(scope="module")
def result(scene, tmp_path_factory):
    truth, paths, _ = scene
    out = tmp_path_factory.mktemp("runs")
    return run_pipeline(make_config(truth, paths, out))


class TestRunPipeline:
    def test_artifacts_exist_and_parse(self, scene, result):
        truth, _, _ = scene
        for name in ("cv_predictive", "site_weights", "weight_samples",
                     "full_predictive", "weight_surface", "surface", "evaluation"):
            assert result.paths[name].exists(), name
        locs = {s.site_id: s for s in truth.sites}
        cv = pio.load_predictive(result.paths["cv_predictive"], locs)
        assert cv.n_records == truth.obs.n_records
        assert cv.available[:, 0].all()
        full = pio.load_predictive(result.paths["full_predictive"], locs)
        assert full.available[:, 0].all()
        np.testing.assert_array_equal(
            full.available[:, 1], np.isfinite(truth.obs.x_sat)
        )
        ids, weights = pio.load_weights(result.paths["site_weights"])
        assert list(ids) == [s.site_id for s in truth.sites]
        assert np.all((weights["w_mean"] >= 0) & (weights["w_mean"] <= 1))
        field = pio.load_weight_samples(result.paths["weight_samples"], truth.sites)
        assert field.q.shape[0] == 100  # (400 - 200) / 2 kept draws
        manifest = pio.load_json(result.run_dir / "manifest.json")
        assert manifest["status"] == "complete"
        assert manifest["stage"] == "done"
        assert set(manifest["artifacts"]) == set(result.paths)
        assert {"stage1-cv-downscalers", "stage2-ensemble"} <= set(manifest["timings_s"])
        assert "stage3-full-fits" not in manifest["timings_s"]  # the full fits run in stage 1
        cfg_back = load_pipeline_config(result.run_dir / "config.json")
        assert cfg_back.digest() == result.config.digest()

    def test_run_dir_carries_the_config_digest(self, result):
        assert result.run_dir.name == f"run_{result.config.digest()}"
        assert pio.read_meta(result.paths["surface"])["config"] == result.config.digest()

    def test_reports_cover_sources_and_ensemble(self, result):
        by_method = {r.method: r for r in result.reports}
        assert set(by_method) == {"ctm", "sat", "ensemble"}
        assert by_method["ensemble"].estimation == JOINT
        for rep in result.reports:
            assert rep.n_pairs > 0
            assert np.isfinite(rep.rmse)
            assert rep.input_derivation == "kfold"
        assert by_method["sat"].n_pairs < by_method["ctm"].n_pairs

    def test_surface_covers_requested_days(self, result):
        surf = pio.load_surface(result.paths["surface"])
        assert set(surf.day) == {1, 7}
        assert surf.n_cells == 2 * 25
        assert np.all(surf.sd > 0)
        assert np.all((surf.q025 <= surf.mean) & (surf.mean <= surf.q975))
        ids, kriged = pio.load_weights(result.paths["weight_surface"])
        assert len(ids) == 25
        assert np.all((kriged["w_mean"] > 0) & (kriged["w_mean"] < 1))

    def test_rerun_reproduces_artifacts_byte_for_byte(self, scene, result):
        truth, paths, _ = scene
        cfg = replace(result.config, overwrite=True)
        again = run_pipeline(cfg)
        assert again.run_dir == result.run_dir
        for name in ("cv_predictive", "site_weights", "weight_samples",
                     "full_predictive", "surface", "evaluation"):
            assert again.paths[name].read_bytes() == result.paths[name].read_bytes(), name

    def test_existing_run_refused_without_overwrite(self, result):
        with pytest.raises(OverwriteError, match="overwrite"):
            run_pipeline(result.config)

    def test_two_stage_variant(self, scene, result, tmp_path):
        truth, paths, _ = scene
        cfg = make_config(truth, paths, tmp_path, variant=TWO_STAGE)
        out = run_pipeline(cfg)
        assert np.all(out.weights.q == out.weights.q[0])
        rep_two = next(r for r in out.reports if r.method == "ensemble")
        rep_joint = next(r for r in result.reports if r.method == "ensemble")
        assert rep_two.estimation == TWO_STAGE
        assert abs(rep_two.rmse - rep_joint.rmse) < 0.5

    def test_two_stage_with_a_site_the_satellite_never_sees(self, scene, tmp_path):
        truth, paths, _ = scene
        row, col = truth.site_cell_sat[0]
        lines = paths["grid_sat"].read_text().splitlines()
        kept = [l for l in lines if l.split(",")[1:3] != [str(row), str(col)]]
        assert len(kept) < len(lines)
        grid_sat = tmp_path / "grid_sat.csv"
        grid_sat.write_text("\n".join(kept) + "\n")
        cfg = make_config(truth, paths, tmp_path / "runs", grid_sat=str(grid_sat), variant=TWO_STAGE)
        out = run_pipeline(cfg)
        assert "m000" not in out.weights.site_ids
        rep = next(r for r in out.reports if r.method == "ensemble")
        assert rep.n_pairs == out.cv_inputs.n_records

    @pytest.mark.parametrize("derivation", ["kfold", "spatial"])
    def test_stage1_streams_what_fit_downscaler_on_seed_child_3_or_4_streams(
        self, scene, tmp_path, derivation, monkeypatch
    ):
        """Each source's full-data chain (seed child 3 + k) streams its full
        predictive (child 7 + k) and each surface day's components (child
        10 + k, plus the day) bit for bit as fit_downscaler on the same requests."""
        truth, paths, _ = scene
        mcmc = MCMCConfig(n_iter=40, burn_in=20, thin=2)
        cfg = make_config(truth, paths, tmp_path, derivation=derivation, downscaler_mcmc=mcmc, ensemble_mcmc=mcmc)
        runs = []
        cv_predict = pipeline.cv_predict

        def spy(data, plan, source, mcmc, *, full_seed, full_requests):
            # each request's batches read once into a list, so they can be passed again
            requests = [(*request[:3], list(request[3])) for request in full_requests]
            pred, fit = cv_predict(data, plan, source, mcmc, full_seed=full_seed, full_requests=requests)
            runs.append((source, full_seed, requests, fit.acceptance, [list(p) for p in fit.predictions]))
            return pred, fit

        monkeypatch.setattr(pipeline, "cv_predict", spy)
        cv_inputs = run_pipeline(cfg).cv_inputs
        monkeypatch.undo()
        data, _, _ = _load_inputs(cfg)
        seed = [int(c.generate_state(1)[0]) for c in np.random.SeedSequence(cfg.seed).spawn(12)]
        assert [run[0] for run in runs] == [CTM, SAT]
        for k, (source, full_seed, requests, acceptance, streamed) in enumerate(runs):
            full, surface = requests
            assert full_seed == seed[3 + k]
            assert [batch[3] for batch in full[3]] == [seed[7 + k]]
            assert [batch[3] for batch in surface[3]] == [seed[10 + k] + d for d in cfg.surface_days]
            want = fit_downscaler(data, source, replace(mcmc, seed=seed[3 + k]), requests)
            assert acceptance == want.acceptance
            assert [len(p) for p in streamed] == [len(p) for p in want.predictions] == [1, len(cfg.surface_days)]
            for got, ref in zip(sum(streamed, []), sum(want.predictions, [])):
                assert np.array_equal(got.mu, ref.mu, equal_nan=True), source
                assert np.array_equal(got.var, ref.var, equal_nan=True), source
        folds_only, no_fits = cv_component_table(data, derivation, cfg.n_folds, mcmc, cfg.seed, seed[0:2])
        assert no_fits == {CTM: None, SAT: None}
        assert np.array_equal(folds_only.mu, cv_inputs.mu) and np.array_equal(folds_only.var, cv_inputs.var)

    def test_failed_stage_is_tagged_and_recorded(self, scene, tmp_path):
        truth, paths, _ = scene
        bad_obs = tmp_path / "obs.csv"
        text = paths["obs"].read_text()
        lines = text.splitlines()
        lines.insert(1, "zz,1,5.0")
        bad_obs.write_text("\n".join(lines) + "\n")
        cfg = make_config(truth, paths, tmp_path / "runs", obs=str(bad_obs))
        with pytest.raises(StageError, match="stage 'load' failed") as exc:
            run_pipeline(cfg)
        assert exc.value.stage == "load"
        manifest = pio.load_json(tmp_path / "runs" / f"run_{cfg.digest()}" / "manifest.json")
        assert manifest["status"] == "failed"
        assert "zz" in manifest["error"]

    def test_without_satellite(self, scene, tmp_path):
        truth, paths, _ = scene
        cfg = make_config(
            truth, paths, tmp_path,
            grid_sat=None, sat_grid=None, covariates=None,
            surface_days=(2,),
        )
        out = run_pipeline(cfg)
        assert {r.method for r in out.reports} == {"ctm", "ensemble"}
        text = out.paths["cv_predictive"].read_text()
        assert ",sat," not in text
        surf = pio.load_surface(out.paths["surface"])
        assert np.all(surf.w == 1.0)


class TestNearestSiteRows:
    def test_same_day_row_else_first_row_of_nearest_monitor_with_records(self):
        # a has no records, b has days 3 and 1 (in that order), c has day 2
        sites = [Location("a", 0.0, 0.0), Location("b", 10.0, 0.0), Location("c", 100.0, 0.0)]
        data = ObservationTable(
            sites=sites,
            site_idx=[1, 2, 1],
            day=[3, 2, 1],
            y=[5.0, 6.0, 7.0],
            x_ctm=[1.0, 1.0, 1.0],
            x_sat=[np.nan] * 3,
            z=np.arange(18.0).reshape(3, 6),
            n_days=3,
        )
        # t0 lies nearest to a, which has no row to give, so b serves it
        targets = [Location("t0", 1.0, 0.0), Location("t1", 95.0, 0.0)]
        day1, day2 = _nearest_site_rows(data, targets, (1, 2))
        np.testing.assert_array_equal(day1, data.z[[2, 1]])
        np.testing.assert_array_equal(day2, data.z[[0, 1]])


class TestPipelineConfig:
    def test_json_round_trip(self, scene, tmp_path):
        truth, paths, _ = scene
        cfg = make_config(truth, paths, tmp_path)
        p = save_pipeline_config(tmp_path / "config.json", cfg)
        back = load_pipeline_config(p)
        assert back == cfg
        assert back.digest() == cfg.digest()

    def test_digest_ignores_out_dir_and_overwrite(self, scene, tmp_path):
        truth, paths, _ = scene
        a = make_config(truth, paths, tmp_path / "x")
        b = make_config(truth, paths, tmp_path / "y", overwrite=True)
        assert a.digest() == b.digest()
        c = make_config(truth, paths, tmp_path / "x", seed=99)
        assert c.digest() != a.digest()

    def test_validation(self, scene, tmp_path):
        truth, paths, _ = scene
        with pytest.raises(ValueError, match="variant"):
            make_config(truth, paths, tmp_path, variant="stacking")
        with pytest.raises(ValueError, match="n_folds"):
            make_config(truth, paths, tmp_path, n_folds=1)
        with pytest.raises(ValueError, match="go together"):
            make_config(truth, paths, tmp_path, sat_grid=None)


# a valid config's JSON form; no file it names is read when it loads
VALID_CONFIG = PipelineConfig(
    monitors="monitors.csv", obs="obs.csv", grid_ctm="grid_ctm.csv", ctm_grid=GridSpec(-12.0, -12.0, 12.0, 11, 11, CTM),
    out_dir="runs", grid_sat="grid_sat.csv", sat_grid=GridSpec(0.0, 0.0, 4.0, 25, 25, SAT),
    covariates="covariates.csv", target_grid=GridSpec(10.0, 10.0, 16.0, 5, 5), n_days=14, n_folds=4,
    downscaler_mcmc=MCMCConfig(n_iter=240, burn_in=120, thin=2), ensemble_mcmc=MCMCConfig(n_iter=400, burn_in=200),
    surface_days=(1, 7), seed=3,
).to_dict()
GRIDS, CHAINS = ("ctm_grid", "sat_grid", "target_grid"), ("downscaler_mcmc", "ensemble_mcmc")
# every field, the fields inside the grid and chain objects, and an unknown key at each level
CONFIG_FIELDS = [(k,) for k in [*VALID_CONFIG, "bogus"]] + [
    (k, inner) for k in GRIDS + CHAINS for inner in [*VALID_CONFIG[k], "bogus"]
]
DELETE = object()
# each JSON type, NaN and the infinities, and numbers out of range; the grid
# sizes among them give at most 25 target cells or are refused unallocated
ODD_VALUES = [
    DELETE, None, True, False, 0, -1, 1, 2, 2.7, -0.5, 10**10, 10**400, float("nan"), float("inf"),
    float("-inf"), 1e300, "", "x", "3", "spatial", "two_stage", [], [1, 7], [0], {}, {"bogus": 1},
]


def as_written(written, loaded) -> bool:
    """loaded holds the JSON value written: a bool only equals a bool, an
    integer the float of its value, NaN equals NaN, a tuple reads as a list,
    and an object holds every key written (a key left out may take a default)."""
    a, b = written, loaded
    if isinstance(a, bool) or isinstance(b, bool):
        return type(a) is type(b) and a == b
    if isinstance(a, dict) and isinstance(b, dict):
        return all(k in b and as_written(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(map(as_written, a, b))
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return a == b or a != a and b != b
    return type(a) is type(b) and a == b


def check_mutated_load(d: dict, cfg_path: Path) -> None:
    """A config loads exactly as written, a GridSpec in every grid field and
    an MCMCConfig in every chain field, or is refused with a SchemaError or
    DomainError that starts with the config's path."""
    cfg_path.write_text(json.dumps(d))
    try:
        cfg = load_pipeline_config(cfg_path)
    except (SchemaError, DomainError) as e:
        assert str(e).startswith(f"{cfg_path}: ")
        return
    assert isinstance(cfg.ctm_grid, GridSpec)
    assert all(getattr(cfg, g) is None or isinstance(getattr(cfg, g), GridSpec) for g in GRIDS[1:])
    assert all(isinstance(getattr(cfg, m), MCMCConfig) for m in CHAINS)
    # nothing truncated, coerced or dropped
    assert as_written({k: v for k, v in d.items() if k != "config_hash"}, cfg.to_dict())


def mutated(edits) -> dict:
    d = json.loads(json.dumps(VALID_CONFIG))
    for path, value in edits:
        owner = d if len(path) == 1 else d.get(path[0])
        if not isinstance(owner, dict):
            continue
        if value is DELETE:
            owner.pop(path[-1], None)
        else:
            owner[path[-1]] = value
    return d


@settings(derandomize=True, max_examples=600, deadline=None, database=None)
@given(st.lists(st.tuples(st.sampled_from(CONFIG_FIELDS), st.sampled_from(ODD_VALUES)), min_size=1, max_size=3))
def test_a_config_with_mutated_fields_loads_as_written_or_fails_typed(tmp_path_factory, edits):
    check_mutated_load(mutated(edits), tmp_path_factory.getbasetemp() / "mutated_config.json")


def test_a_config_with_any_one_mutated_field_loads_as_written_or_fails_typed(tmp_path):
    for field_path in CONFIG_FIELDS:
        for value in ODD_VALUES:
            check_mutated_load(mutated([(field_path, value)]), tmp_path / "config.json")


def run_cli(*args, cwd, env):
    return subprocess.run(
        [sys.executable, "-m", "pmfusion", *args],
        capture_output=True, text=True, cwd=cwd, env=env,
    )


@pytest.fixture(scope="module")
def cli_scene(tmp_path_factory, pmfusion_env):
    root = tmp_path_factory.mktemp("cli")
    out = run_cli(
        "synth", "--out", str(root / "scene"), "--sites", "5", "--days", "8",
        "--missing-rate", "0.3", "--seed", "7", "--sat-cells", "10",
        cwd=root, env=pmfusion_env,
    )
    assert out.returncode == 0, out.stderr
    return root


@pytest.fixture(scope="module")
def cli_run(cli_scene, pmfusion_env):
    """One `run-all` on the CLI scene with short chains: (run directory, process result)."""
    cfg_path = cli_scene / "scene" / "pipeline_config.json"
    d = json.loads(cfg_path.read_text())
    d["downscaler_mcmc"] = {"n_iter": 160, "burn_in": 80, "thin": 2, "seed": 0}
    d["ensemble_mcmc"] = {"n_iter": 300, "burn_in": 150, "thin": 2, "seed": 0}
    d["n_folds"] = 3
    d["surface_days"] = [3]
    cfg_path.write_text(json.dumps(d))
    out = run_cli("run-all", "--config", str(cfg_path), cwd=cli_scene, env=pmfusion_env)
    cfg = load_pipeline_config(cfg_path)
    return Path(cfg.out_dir) / f"run_{cfg.digest()}", out


class TestCli:
    def test_synth_writes_inputs_and_config(self, cli_scene):
        scene = cli_scene / "scene"
        for name in ("monitors.csv", "obs.csv", "covariates.csv", "grid_ctm.csv",
                     "grid_sat.csv", "truth_weights.csv", "scene.json",
                     "pipeline_config.json"):
            assert (scene / name).exists(), name

    def test_run_all_produces_a_complete_run(self, cli_scene, cli_run, pmfusion_env):
        cfg_path = cli_scene / "scene" / "pipeline_config.json"
        _, out = cli_run
        assert out.returncode == 0, out.stderr
        runs = list((cli_scene / "scene" / "runs").glob("run_*"))
        assert len(runs) == 1
        manifest = pio.load_json(runs[0] / "manifest.json")
        assert manifest["status"] == "complete"
        for name in ("surface.csv", "evaluation.csv", "site_weights.csv"):
            assert (runs[0] / name).exists()
        # rerunning without --overwrite is an error the shell can see
        again = run_cli("run-all", "--config", str(cfg_path), cwd=cli_scene, env=pmfusion_env)
        assert again.returncode != 0
        assert "overwrite" in again.stderr

    def test_evaluate_subcommand(self, cli_scene, cli_run, pmfusion_env):
        run_dir, run = cli_run
        assert run.returncode == 0, run.stderr
        scene = cli_scene / "scene"
        out_csv = cli_scene / "scores.csv"
        out = run_cli(
            "evaluate",
            "--monitors", str(scene / "monitors.csv"),
            "--obs", str(scene / "obs.csv"),
            "--predictive", str(run_dir / "cv_predictive.csv"),
            "--weights", str(run_dir / "site_weights.csv"),
            "--out", str(out_csv),
            cwd=cli_scene, env=pmfusion_env,
        )
        assert out.returncode == 0, out.stderr
        got = {r.method: r for r in pio.load_evaluation(out_csv)}
        want = {r.method: r for r in pio.load_evaluation(run_dir / "evaluation.csv")}
        # the command and the pipeline score through the same report code
        for method in ("ctm", "sat", "ensemble"):
            for name in ("rmse", "coverage95", "avg_posterior_sd", "r2", "n_pairs"):
                assert getattr(got[method], name) == getattr(want[method], name), (method, name)

    def test_missing_input_is_a_clean_failure(self, cli_scene, pmfusion_env):
        out = run_cli(
            "evaluate",
            "--monitors", str(cli_scene / "nope.csv"),
            "--obs", str(cli_scene / "nope.csv"),
            "--predictive", str(cli_scene / "nope.csv"),
            "--out", str(cli_scene / "x.csv"),
            cwd=cli_scene, env=pmfusion_env,
        )
        assert out.returncode != 0
        assert "nope.csv" in out.stderr


# (subcommand, input file) pairs for the unreadable-file contract; TABLE_COMMANDS
# load the monitor, observation, grid and covariate files into one table. The
# observation file keeps the subcommand alone as its id
TABLE_COMMANDS = ("fit-downscaler", "cv", "run-all")
UNREADABLE = (
    [(c, "obs") for c in ("evaluate", "fit-ensemble", *TABLE_COMMANDS)]
    + [(c, "monitors") for c in ("evaluate", "fit-ensemble", *TABLE_COMMANDS, "predict", "krige-weights")]
    + [(c, n) for n in ("grid_ctm", "grid_sat", "covariates") for c in TABLE_COMMANDS]
    + [(c, "predictive") for c in ("evaluate", "fit-ensemble", "predict")]
    + [(c, "weights") for c in ("evaluate", "predict")]
    + [("krige-weights", "samples"), ("krige-weights", "targets")]
)


def run_main(capsys, *args):
    """cli.main in this process: (exit code, stderr lines)."""
    code = cli.main([str(a) for a in args])
    return code, capsys.readouterr().err.splitlines()


class TestCliInProcess:
    @pytest.mark.parametrize(
        "arg, value",
        [
            ("--sites", 0),
            ("--days", 1),
            ("--seed", -1),
            ("--missing-rate", 2),
            ("--rho", -1),
            ("--tau2", -1),
            ("--sat-cells", 0),
            ("--sat-cell-km", 0),
            ("--sat-cell-km", "nan"),
            ("--ctm-cell-km", 0),
            ("--grid-days", "abc"),
            ("--grid-days", 0),
            ("--grid-days", 999),
        ],
    )
    def test_synth_refuses_a_bad_argument_before_writing(self, arg, value, tmp_path, capsys):
        out = tmp_path / "scene"
        code, err = run_main(capsys, "synth", "--out", out, "--sites", 5, "--days", 8, arg, value)
        assert code == 2
        assert len(err) == 1 and err[0].startswith("error:")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["evaluate", "fit-ensemble"])
    def test_unmatched_observation_is_a_typed_error(self, command, scene, result, tmp_path, capsys):
        _, paths, _ = scene
        lines = paths["obs"].read_text().splitlines()
        assert lines[1].startswith("m000,1,")
        obs = tmp_path / "obs.csv"
        obs.write_text("\n".join(lines[:1] + lines[2:]) + "\n")
        predictive = result.paths["cv_predictive"]
        common = ("--monitors", paths["monitors"], "--obs", obs, "--predictive", predictive)
        if command == "evaluate":
            args = (*common, "--out", tmp_path / "scores.csv")
        else:
            args = (*common, "--out-weights", tmp_path / "w.csv", "--out-samples", tmp_path / "s.csv")
        code, err = run_main(capsys, command, *args)
        assert code == 2
        assert len(err) == 1 and err[0].startswith("error:")
        assert str(predictive) in err[0] and "('m000', 1)" in err[0]

    @pytest.mark.parametrize("command", ["evaluate", "fit-ensemble", "fit-downscaler"])
    def test_repeated_observation_row_is_a_typed_error(self, command, scene, result, tmp_path, capsys):
        _, paths, _ = scene
        lines = paths["obs"].read_text().splitlines()
        assert lines[1].startswith("m000,1,")
        obs = tmp_path / "obs.csv"
        obs.write_text("\n".join(lines + ["m000,1,500.0"]) + "\n")
        predictive = result.paths["cv_predictive"]
        common = ("--monitors", paths["monitors"], "--obs", obs)
        if command == "evaluate":
            args = (*common, "--predictive", predictive, "--out", tmp_path / "scores.csv")
        elif command == "fit-ensemble":
            args = (*common, "--predictive", predictive,
                    "--out-weights", tmp_path / "w.csv", "--out-samples", tmp_path / "s.csv")
        else:
            args = (*common, "--grid-ctm", paths["grid_ctm"], "--scene", paths["scene"],
                    "--source", CTM, "--iters", 40, "--out", tmp_path / "pred.csv")
        code, err = run_main(capsys, command, *args)
        assert code == 2
        assert len(err) == 1 and err[0].startswith("error:")
        assert f"{obs}:{len(lines) + 1}:" in err[0] and "('m000', 1)" in err[0]

    @pytest.mark.parametrize("command", ["cv", "fit-downscaler"])
    def test_observation_past_the_scene_horizon_is_a_typed_error(self, command, scene, tmp_path, capsys):
        truth, paths, _ = scene
        lines = paths["obs"].read_text().splitlines()
        obs = tmp_path / "obs.csv"
        day = truth.config.n_days + 1
        obs.write_text("\n".join(lines + [f"m000,{day},5.0"]) + "\n")
        args = ("--monitors", paths["monitors"], "--obs", obs, "--grid-ctm", paths["grid_ctm"],
                "--scene", paths["scene"], "--iters", 40, "--out", tmp_path / "p.csv")
        if command == "fit-downscaler":
            args += ("--source", CTM)
        code, err = run_main(capsys, command, *args)
        assert code == 2
        assert err == [f"error: {obs}:{len(lines) + 1}: day {day} outside the horizon 1..{day - 1}"]
        assert not (tmp_path / "p.csv").exists()

    @pytest.mark.parametrize("column", ["tau2", "rho"])
    def test_krige_weights_refuses_a_non_positive_sample_setting(self, column, scene, result, tmp_path, capsys):
        _, paths, _ = scene
        lines = result.paths["weight_samples"].read_text().splitlines()
        k = lines[0].split(",").index(column)
        row = lines[1].split(",")
        row[k] = "-1.0"
        samples = tmp_path / "weight_samples.csv"
        samples.write_text("\n".join([lines[0], ",".join(row), *lines[2:]]) + "\n")
        out = tmp_path / "out.csv"
        code, err = run_main(capsys, "krige-weights", "--monitors", paths["monitors"], "--samples", samples,
                             "--targets", paths["monitors"], "--out", out)
        assert code == 2
        assert err == [f"error: {samples}:2: non-positive value '-1.0' in column '{column}'"]
        assert not out.exists()

    @pytest.mark.parametrize("case", ["missing", "header", "non-finite"])
    @pytest.mark.parametrize(
        "command,name", UNREADABLE, ids=[c if n == "obs" else f"{c}-{n}" for c, n in UNREADABLE]
    )
    def test_unreadable_observation_file_is_a_typed_error(self, command, name, case, scene, result, tmp_path, capsys):
        truth, paths, _ = scene
        files = {key: paths[key] for key in ("monitors", "obs", "grid_ctm", "grid_sat", "covariates")}
        files.update(predictive=result.paths["cv_predictive"], weights=result.paths["site_weights"],
                     samples=result.paths["weight_samples"], targets=paths["monitors"])
        lines = Path(files[name]).read_text().splitlines()
        bad = files[name] = tmp_path / f"{name}.csv"
        if case == "header":
            bad.write_text("\n".join([lines[0].rsplit(",", 1)[0] + ",bogus"] + lines[1:]) + "\n")
        elif case == "non-finite":
            bad.write_text("\n".join(lines[:1] + [lines[1].rsplit(",", 1)[0] + ",inf"] + lines[2:]) + "\n")
        table = ("--monitors", files["monitors"], "--obs", files["obs"], "--grid-ctm", files["grid_ctm"],
                 "--grid-sat", files["grid_sat"], "--covariates", files["covariates"],
                 "--scene", paths["scene"], "--iters", 40, "--out", tmp_path / "p.csv")
        common = ("--monitors", files["monitors"], "--obs", files["obs"], "--predictive", files["predictive"])
        if command == "evaluate":
            args = (*common, "--weights", files["weights"], "--out", tmp_path / "scores.csv")
        elif command == "fit-ensemble":
            args = (*common, "--out-weights", tmp_path / "w.csv", "--out-samples", tmp_path / "s.csv")
        elif command == "fit-downscaler":
            args = (*table, "--source", CTM)
        elif command == "cv":
            args = table
        elif command == "predict":
            args = ("--monitors", files["monitors"], "--predictive", files["predictive"],
                    "--weights", files["weights"], "--out", tmp_path / "out.csv")
        elif command == "krige-weights":
            args = ("--monitors", files["monitors"], "--samples", files["samples"],
                    "--targets", files["targets"], "--out", tmp_path / "out.csv")
        else:
            cfg = make_config(truth, paths, tmp_path / "runs", **{name: str(bad)})
            args = ("--config", save_pipeline_config(tmp_path / "config.json", cfg))
        code, err = run_main(capsys, command, *args)
        assert code == 2
        assert len(err) == 1 and err[0].startswith("error:") and str(bad) in err[0]
        if case == "non-finite":
            assert f"{bad}:2:" in err[0]

    @pytest.mark.parametrize("folds", [-3, 0, 1])
    def test_cv_rejects_a_fold_count_below_two(self, folds, scene, tmp_path, capsys):
        _, paths, _ = scene
        out = tmp_path / "p.csv"
        code, err = run_main(
            capsys, "cv", "--monitors", paths["monitors"], "--obs", paths["obs"],
            "--grid-ctm", paths["grid_ctm"], "--scene", paths["scene"], "--iters", 40,
            "--folds", folds, "--out", out,
        )
        assert code == 2
        assert err == [f"error: kfold needs an integer fold count of at least 2, got {folds}"]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["evaluate", "predict"])
    def test_weights_without_a_needed_site_are_a_typed_error(self, command, scene, result, tmp_path, capsys):
        _, paths, _ = scene
        sid = result.cv_inputs.ids[result.cv_inputs.both_available()][0]
        lines = result.paths["site_weights"].read_text().splitlines()
        weights = tmp_path / "weights.csv"
        weights.write_text("\n".join(l for l in lines if not l.startswith(f"{sid},")) + "\n")
        args = ["--monitors", paths["monitors"], "--predictive", result.paths["cv_predictive"],
                "--weights", weights, "--out", tmp_path / "out.csv"]
        if command == "evaluate":
            args += ["--obs", paths["obs"]]
        code, err = run_main(capsys, command, *args)
        assert code == 2
        assert len(err) == 1 and err[0].startswith("error:") and sid in err[0]

    def test_run_all_names_a_monitor_without_a_measured_day(self, scene, tmp_path, capsys):
        truth, paths, _ = scene
        # every pm25 cell of m000 emptied: load_obs drops those rows
        lines = [
            f"{l.rsplit(',', 1)[0]}," if l.startswith("m000,") else l
            for l in paths["obs"].read_text().splitlines()
        ]
        obs = tmp_path / "obs.csv"
        obs.write_text("\n".join(lines) + "\n")
        cfg = make_config(truth, paths, tmp_path / "runs", obs=str(obs))
        cfg_path = save_pipeline_config(tmp_path / "config.json", cfg)
        code, err = run_main(capsys, "run-all", "--config", cfg_path)
        assert code == 2
        assert len(err) == 1 and err[0].startswith("error:") and "m000" in err[0]
        assert "stage 'load'" in err[0]
        manifest = pio.load_json(tmp_path / "runs" / f"run_{cfg.digest()}" / "manifest.json")
        assert manifest["status"] == "failed"
        assert "stage1-cv-downscalers" not in manifest["timings_s"]

    def test_run_all_rejects_a_surface_day_outside_the_horizon_at_load(self, scene, tmp_path, capsys):
        truth, paths, _ = scene
        cfg = make_config(truth, paths, tmp_path / "runs", surface_days=(999,))
        cfg_path = save_pipeline_config(tmp_path / "config.json", cfg)
        code, err = run_main(capsys, "run-all", "--config", cfg_path)
        assert code == 2
        assert len(err) == 1 and err[0].startswith("error:") and "surface day 999" in err[0]
        assert "stage 'load'" in err[0]
        manifest = pio.load_json(tmp_path / "runs" / f"run_{cfg.digest()}" / "manifest.json")
        assert manifest["status"] == "failed"
        assert "stage1-cv-downscalers" not in manifest["timings_s"]

    def test_run_all_refuses_a_target_grid_outside_the_ctm_grid_at_config_load(self, scene, tmp_path, capsys):
        truth, paths, _ = scene
        d = make_config(truth, paths, tmp_path / "runs").to_dict()
        d["target_grid"].update(origin_x=500.0, origin_y=500.0)
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(d))
        code, err = run_main(capsys, "run-all", "--config", cfg_path)
        assert code == 2
        assert err == [f"error: {cfg_path}: target_grid has no cell inside ctm_grid"]
        assert not (tmp_path / "runs").exists()

    def test_run_all_refuses_a_surface_day_the_ctm_grid_lacks_at_load(self, scene, tmp_path, capsys):
        truth, _, _ = scene
        # full grids on days 3 and 7 only; on day 5 the grids hold the monitors' cells alone
        paths = pio.export_scene(truth, tmp_path / "scene", grid_days=[3, 7])
        cfg = make_config(truth, paths, tmp_path / "runs", surface_days=(3, 5))
        _, present = pio.load_grid(paths["grid_ctm"], cfg.ctm_grid, cfg.n_days)
        cells = cfg.ctm_grid.cells_of(cfg.target_grid.all_centers())
        assert (cells >= 0).all()
        missing = int((~present[4, cells[:, 0], cells[:, 1]]).sum())
        assert 0 < missing < len(cells)
        cfg_path = save_pipeline_config(tmp_path / "config.json", cfg)
        code, err = run_main(capsys, "run-all", "--config", cfg_path)
        assert code == 2
        assert err == [
            f"error: stage 'load' failed: {paths['grid_ctm']}: surface day 5 has no CTM value at "
            f"{missing} of the {len(cells)} target cells inside the CTM grid"
        ]
        manifest = pio.load_json(tmp_path / "runs" / f"run_{cfg.digest()}" / "manifest.json")
        assert manifest["status"] == "failed"
        assert "stage1-cv-downscalers" not in manifest["timings_s"]
        # the grid days load, satellite gaps and all
        _, _, sat = _load_inputs(replace(cfg, surface_days=(3, 7)))
        assert not sat[1][2].all()

    @pytest.mark.parametrize(
        "command,bad",
        [
            ("fit-ensemble", "burn_in"),
            ("fit-downscaler", "burn_in"),
            ("cv", "burn_in"),
            ("run-all", "burn_in"),
            ("run-all", "n_iter"),
            ("run-all", "thin"),
        ],
    )
    def test_bad_chain_settings_are_a_typed_error(self, command, bad, scene, result, tmp_path, capsys):
        truth, paths, _ = scene
        chain = ("--iters", 100, "--burn-in", 100)
        table = ("--monitors", paths["monitors"], "--obs", paths["obs"], "--grid-ctm", paths["grid_ctm"],
                 "--scene", paths["scene"], "--out", tmp_path / "p.csv")
        if command == "fit-ensemble":
            args = ("--monitors", paths["monitors"], "--obs", paths["obs"],
                    "--predictive", result.paths["cv_predictive"], "--out-weights", tmp_path / "w.csv",
                    "--out-samples", tmp_path / "s.csv", *chain)
        elif command == "fit-downscaler":
            args = (*table, "--source", CTM, *chain)
        elif command == "cv":
            args = (*table, *chain)
        else:
            d = make_config(truth, paths, tmp_path / "runs").to_dict()
            mcmc = d["downscaler_mcmc"]
            mcmc[bad] = {"burn_in": mcmc["n_iter"], "n_iter": "240", "thin": True}[bad]
            cfg_path = tmp_path / "config.json"
            cfg_path.write_text(json.dumps(d))
            args = ("--config", cfg_path)
        code, err = run_main(capsys, command, *args)
        assert code == 2
        assert len(err) == 1 and err[0].startswith("error:") and bad in err[0]

    @pytest.mark.parametrize(
        "edit,named",
        [
            (lambda d: d.update(bogus=1), "unknown key 'bogus'"),
            (lambda d: d.pop("obs"), "missing key 'obs'"),
            (lambda d: d["ctm_grid"].pop("origin_y"), "ctm_grid: missing key 'origin_y'"),
            (lambda d: d.update(variant="mixed"), "variant"),
            (lambda d: d.update(n_folds=1), "n_folds"),
            (lambda d: d.update(seed=-1), "seed"),
            (lambda d: d.update(surface_days="abc"), "surface_days"),
            (lambda d: d.update(out_dir=5), "out_dir must be a path string"),
            (lambda d: d.update(overwrite="yes"), "overwrite must be true or false"),
            (lambda d: d.update(ctm_grid=None), "ctm_grid must be a JSON object, got None"),
            (lambda d: d.update(downscaler_mcmc="x"), "downscaler_mcmc must be a JSON object, got 'x'"),
            (lambda d: d.update(downscaler_mcmc=[240, 120]), "downscaler_mcmc must be a JSON object, got [240, 120]"),
            (lambda d: d.update(downscaler_mcmc=None), "downscaler_mcmc must be a JSON object, got None"),
            (lambda d: d.update(ensemble_mcmc=None), "ensemble_mcmc must be a JSON object, got None"),
            (lambda d: d["ctm_grid"].update(n_rows=2.7), "ctm_grid: n_rows must be an integer, got 2.7"),
            (lambda d: d["ctm_grid"].update(n_cols=True), "ctm_grid: n_cols must be an integer, got True"),
            (lambda d: d["sat_grid"].update(bogus=1), "sat_grid: unknown key 'bogus'"),
            # refused before all_centers() would allocate 10^20 cells
            (lambda d: d["target_grid"].update(n_rows=10**10, n_cols=10**10),
             "target_grid: a 10000000000x10000000000 grid exceeds 134217728 cells"),
        ],
        ids=["unknown-key", "missing-obs", "grid-without-origin_y", "variant", "n_folds", "seed", "surface_days",
             "out_dir-number", "overwrite-string", "ctm_grid-null", "downscaler_mcmc-string",
             "downscaler_mcmc-list", "downscaler_mcmc-null", "ensemble_mcmc-null", "grid-fractional-rows",
             "grid-boolean-cols", "grid-unknown-key", "target_grid-oversized"],
    )
    def test_malformed_config_is_a_typed_error(self, edit, named, scene, tmp_path, capsys):
        truth, paths, _ = scene
        d = make_config(truth, paths, tmp_path / "runs").to_dict()
        edit(d)
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(d))
        code, err = run_main(capsys, "run-all", "--config", cfg_path)
        assert code == 2
        assert len(err) == 1 and err[0].startswith(f"error: {cfg_path}: ") and named in err[0]
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("key, value", [("origin_x", float("nan")), ("origin_y", float("inf"))])
    def test_run_all_refuses_a_non_finite_grid_origin_at_load(self, key, value, scene, tmp_path, capsys):
        truth, paths, _ = scene
        d = make_config(truth, paths, tmp_path / "runs").to_dict()
        d["target_grid"][key] = value
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(d))
        code, err = run_main(capsys, "run-all", "--config", cfg_path)
        assert code == 2
        assert len(err) == 1 and err[0].startswith(f"error: {cfg_path}: target_grid: ") and "origin" in err[0]
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("key, value", [("kappa_rho", float("nan")), ("rho_prior_rate", float("inf"))])
    def test_run_all_refuses_a_non_finite_ensemble_setting_at_load(self, key, value, scene, tmp_path, capsys):
        truth, paths, _ = scene
        d = make_config(truth, paths, tmp_path / "runs").to_dict()
        d["ensemble_mcmc"][key] = value
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(d))
        code, err = run_main(capsys, "run-all", "--config", cfg_path)
        assert code == 2
        assert len(err) == 1 and err[0].startswith(f"error: {cfg_path}: ensemble_mcmc: {key} must be finite")
        assert not (tmp_path / "runs").exists()

    def test_evaluate_names_the_line_of_a_non_positive_var(self, scene, result, tmp_path, capsys):
        _, paths, _ = scene
        lines = result.paths["cv_predictive"].read_text().splitlines()
        fields = lines[3].split(",")
        predictive = tmp_path / "cv_predictive.csv"
        predictive.write_text("\n".join(lines[:3] + [",".join(fields[:4] + ["-1.0"])] + lines[4:]) + "\n")
        code, err = run_main(
            capsys, "evaluate", "--monitors", paths["monitors"], "--obs", paths["obs"],
            "--predictive", predictive, "--out", tmp_path / "scores.csv",
        )
        assert code == 2
        assert len(err) == 1 and err[0].startswith(f"error: {predictive}:4: ") and "'var'" in err[0]

    def test_fit_ensemble_prints_the_two_stage_range_acceptance(self, scene, result, tmp_path, capsys):
        _, paths, _ = scene
        code = cli.main([str(a) for a in (
            "fit-ensemble", "--monitors", paths["monitors"], "--obs", paths["obs"],
            "--predictive", result.paths["cv_predictive"], "--variant", TWO_STAGE,
            "--iters", 200, "--out-weights", tmp_path / "w.csv", "--out-samples", tmp_path / "s.csv",
        )])
        assert code == 0
        line = next(l for l in capsys.readouterr().out.splitlines() if "acceptance" in l)
        assert "'rho':" in line

    @pytest.mark.parametrize("command", ["fit-downscaler", "cv"])
    @pytest.mark.parametrize("key", ["n_days", "ctm_grid"])
    def test_scene_without_a_key_is_a_typed_error(self, command, key, scene, tmp_path, capsys):
        _, paths, _ = scene
        d = pio.load_json(paths["scene"])
        del d[key]
        scene_path = tmp_path / "scene.json"
        scene_path.write_text(json.dumps(d))
        source = ("--source", CTM) if command == "fit-downscaler" else ()
        code, err = run_main(
            capsys, command, "--monitors", paths["monitors"], "--obs", paths["obs"],
            "--grid-ctm", paths["grid_ctm"], "--scene", scene_path, "--out", tmp_path / "p.csv", *source,
        )
        assert code == 2
        assert err == [f"error: {scene_path}: missing key '{key}'"]
        assert not (tmp_path / "p.csv").exists()

    @pytest.mark.parametrize("source", [CTM, SAT])
    def test_fit_downscaler_writes_one_source(self, source, scene, tmp_path, capsys):
        _, paths, _ = scene
        out = tmp_path / "pred.csv"
        code, err = run_main(
            capsys, "fit-downscaler",
            "--monitors", paths["monitors"], "--obs", paths["obs"],
            "--grid-ctm", paths["grid_ctm"], "--grid-sat", paths["grid_sat"],
            "--covariates", paths["covariates"], "--scene", paths["scene"],
            "--source", source, "--iters", 40, "--out", out,
        )
        assert code == 0, err
        monitors = pio.load_monitors(paths["monitors"])
        table = pio.load_predictive(out, {l.site_id: l for l in monitors})
        k = (CTM, SAT).index(source)
        assert table.n_records > 0
        assert table.available[:, k].all() and not table.available[:, 1 - k].any()


def blank_satellite_at_one_monitor(truth, paths, tmp_path):
    """The id of a monitor alone in its satellite cell, and a copy of the
    scene's satellite grid file without that cell on any day."""
    cells = [tuple(c) for c in truth.site_cell_sat.tolist()]
    site = next(s for s, c in enumerate(cells) if cells.count(c) == 1)
    values, present = pio.load_grid(paths["grid_sat"], truth.config.sat_grid, truth.config.n_days)
    present[:, cells[site][0], cells[site][1]] = False
    return truth.sites[site].site_id, pio.emit_grid(tmp_path / "grid_sat.csv", values, present)


class TestOneFoldPlan:
    """Both sources' Stage-1 chains run on one fold plan over the record table."""

    MCMC = MCMCConfig(n_iter=40, burn_in=20, thin=2)

    def test_each_kfold_fold_holds_out_the_same_records_for_both_sources(self, scene, tmp_path, monkeypatch):
        truth, paths, _ = scene
        data, _, _ = _load_inputs(make_config(truth, paths, tmp_path))
        plans, batches = [], []
        make_folds, blocks = pipeline.make_folds, downscaler._Blocks

        def planned(*args, **kw):
            plans.append(make_folds(*args, **kw))
            return plans[-1]

        def batch(data, source, mcmc, chains):
            batches.append((source, chains))
            return blocks(data, source, mcmc, chains)

        monkeypatch.setattr(pipeline, "make_folds", planned)
        monkeypatch.setattr(downscaler, "_Blocks", batch)
        cv_component_table(data, "kfold", 4, MCMCConfig(n_iter=4, burn_in=2, thin=1), 5, [11, 12])
        (plan,), ((ctm, ctm_chains), (sat, sat_chains)) = plans, batches
        assert (ctm, sat) == (CTM, SAT) and len(ctm_chains) == len(sat_chains) == 4
        usable = data.usable_mask(SAT)
        assert not usable.all()
        # the satellite chain of a fold leaves out only its records without a retrieval
        for fold, (c, s) in enumerate(zip(ctm_chains, sat_chains)):
            assert np.array_equal(c.held, np.flatnonzero(plan.fold_of_record == fold))
            assert np.array_equal(s.held, c.held[usable[c.held]])

    @pytest.mark.parametrize("derivation", ["kfold", "spatial"])
    def test_a_monitor_without_satellite_data_is_latent_in_every_satellite_chain(
        self, derivation, scene, tmp_path, capsys, monkeypatch
    ):
        truth, paths, _ = scene
        site_id, grid_sat = blank_satellite_at_one_monitor(truth, paths, tmp_path)
        cfg = make_config(truth, paths, tmp_path / "runs", grid_sat=str(grid_sat), derivation=derivation,
                          downscaler_mcmc=self.MCMC, ensemble_mcmc=self.MCMC)
        data, _, _ = _load_inputs(cfg)
        site = data.site_ids.index(site_id)
        assert (data.site_idx == site).any() and not data.usable_mask(SAT)[data.site_idx == site].any()
        sizes, run = [], downscaler._run_chains

        def checked(blocks, consumers):
            fits = run(blocks, consumers)
            if blocks.source == SAT:
                assert blocks.S == data.n_sites
                r, xr, _ = blocks._grid_sums(1)
                for name, stat in zip(("n", "x", "x^2", "r", "x r"), (*blocks.site_gram, r, xr)):
                    assert np.all(stat[:, site] == 0.0), name
                sizes.append(blocks.F)
            return fits

        monkeypatch.setattr(downscaler, "_run_chains", checked)
        code, err = run_main(capsys, "run-all", "--config", save_pipeline_config(tmp_path / "config.json", cfg))
        assert code == 0, err
        out = tmp_path / "p.csv"
        code = cli.main([str(a) for a in (
            "fit-downscaler", "--monitors", paths["monitors"], "--obs", paths["obs"],
            "--grid-ctm", paths["grid_ctm"], "--grid-sat", grid_sat, "--covariates", paths["covariates"],
            "--scene", paths["scene"], "--source", SAT, "--iters", 40, "--out", out,
        )])
        assert code == 0
        assert f"on {int(data.usable_mask(SAT).sum())} records;" in capsys.readouterr().out
        # under spatial folds the monitor's own fold has no satellite record and runs no chain
        folds = cfg.n_folds if derivation == "kfold" else data.n_sites - 1
        assert sizes == [folds + 1, 1]
        cv = (Path(cfg.out_dir) / f"run_{cfg.digest()}" / "cv_predictive.csv").read_text().splitlines()
        assert any(l.startswith(f"{site_id},") and ",ctm," in l for l in cv)
        assert not any(l.startswith(f"{site_id},") and ",sat," in l for l in cv)
        assert not any(l.startswith(f"{site_id},") for l in out.read_text().splitlines())


def test_cli_import_skips_the_scipy_package_inits(pmfusion_env):
    # kernels loads the compiled LAPACK, BLAS and ndtr modules from their
    # files; the package __init__s import numpy.f2py and numpy.testing
    skipped = ("scipy.linalg", "scipy.special", "scipy._lib._array_api", "numpy.f2py", "numpy.testing")
    code = f"import sys, pmfusion.cli; print([m for m in {skipped!r} if m in sys.modules])"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=pmfusion_env)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_cli_import_leaves_scipy_stats_unloaded(pmfusion_env):
    # scipy.stats serves only the test oracles; the program never needs it
    code = "import sys, pmfusion.cli; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=pmfusion_env)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize("module", ["pmfusion.cli", "pmfusion.pipeline"])
def test_import_leaves_scipy_and_the_scene_generator_unloaded(pmfusion_env, module):
    # kernels finds the compiled modules without running scipy's own
    # __init__, and only `pmfusion synth` needs the scene generator
    code = f"import sys, {module}; print([m for m in ('scipy', 'pmfusion.synth') if m in sys.modules])"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=pmfusion_env)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_scene_generator_names_load_on_first_use(pmfusion_env):
    code = (
        "from pmfusion import SceneConfig, generate_scene\n"
        "truth = generate_scene(SceneConfig(n_sites=4, n_days=3, seed=1))\n"
        "print(SceneConfig.__module__, generate_scene.__module__, truth.obs.n_records > 0)"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=pmfusion_env)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["pmfusion.synth", "pmfusion.synth", "True"]
    with pytest.raises(AttributeError, match="no attribute 'generate_scenes'"):
        pmfusion.generate_scenes
