"""Command-line interface.

Subcommands: synth, fit-downscaler, fit-ensemble, krige-weights, predict,
cv, evaluate, run-all. Exit code 0 on success. A failure prints one
`error:` line (stage-tagged for pipeline runs) and exits 2 for bad input,
an input file that cannot be read included, or 3 when an output cannot be
written. Set PMFUSION_THREADS to cap BLAS thread counts for reproducible
single-threaded runs.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import io as pio
from .config import MCMCConfig
from .crossval import KFOLD, SPATIAL
from .downscaler import fit_downscaler, predict_batches
from .ensemble import fit_joint, fit_two_stage, krige_weights, predict_mixture
from .errors import DomainError, OutOfDomainError, PmFusionError, SchemaError
from .geo import CTM, SAT, GridSpec
from .pipeline import (
    JOINT,
    TWO_STAGE,
    PipelineConfig,
    _reports,
    _source_view,
    combine_predictions,
    cv_component_table,
    load_pipeline_config,
    row_weights,
    run_pipeline,
    save_pipeline_config,
)
from .tables import PredictiveTable


def _add_mcmc_args(p: argparse.ArgumentParser, iters: int = 10_000):
    p.add_argument("--iters", type=int, default=iters, help="MCMC iterations")
    p.add_argument("--burn-in", type=int, default=None, help="burn-in (default iters/2)")
    p.add_argument("--thin", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)


def _mcmc_from(args) -> MCMCConfig:
    burn = args.burn_in if args.burn_in is not None else args.iters // 2
    return MCMCConfig(n_iter=args.iters, burn_in=burn, thin=args.thin, seed=args.seed)


def _geometry(scene_path) -> tuple[GridSpec, GridSpec | None, int]:
    d = pio.load_json(scene_path)
    try:
        ctm = pio.grid_spec_from_dict(d["ctm_grid"])
        sat = pio.grid_spec_from_dict(d["sat_grid"]) if d.get("sat_grid") else None
        return ctm, sat, int(d["n_days"])
    except KeyError as e:
        raise SchemaError(f"{scene_path}: missing key {e}") from None
    except (SchemaError, TypeError, ValueError) as e:
        raise SchemaError(f"{scene_path}: {e}") from None


def _load_table(args, require_sat: bool):
    ctm_spec, sat_spec, n_days = _geometry(args.scene)
    if args.grid_sat and sat_spec is None:
        raise SchemaError(f"{args.scene}: no satellite grid geometry")
    if require_sat and not args.grid_sat:
        raise SchemaError("--grid-sat is required for the satellite source")
    data, _, _ = pio.load_inputs(
        args.monitors, args.obs, args.grid_ctm, ctm_spec, args.grid_sat, sat_spec, args.covariates, n_days
    )
    return data


def _observed(obs_path, predictive_path, inputs: PredictiveTable) -> np.ndarray:
    """The observation of every predictive row, in row order.

    Raises SchemaError naming the predictive file and the first (site_id,
    day) row that has no observation.
    """
    ids, day, y = pio.load_obs(obs_path)
    row = pio.key_rows((ids, day), (inputs.ids, inputs.day))
    if (row < 0).any():
        i = int(np.argmax(row < 0))
        key = (inputs.ids[i], inputs.day.item(i))
        raise SchemaError(f"{predictive_path}: no observation for (site_id, day) {key}")
    return y[row]


def _cmd_synth(args) -> int:
    from .synth import SceneConfig, generate_scene

    # every argument is checked before a file is written
    sat_grid = GridSpec(0.0, 0.0, args.sat_cell_km, args.sat_cells, args.sat_cells, SAT)
    ctm_cell = args.ctm_cell_km
    if not 0 < ctm_cell < np.inf:
        raise DomainError("--ctm-cell-km must be a positive number")
    margin = ctm_cell
    ctm_n = int(np.ceil((sat_grid.n_cols * sat_grid.cell_km + 2 * margin) / ctm_cell))
    cfg = SceneConfig(
        n_sites=args.sites,
        n_days=args.days,
        ctm_grid=GridSpec(-margin, -margin, ctm_cell, ctm_n, ctm_n, CTM),
        sat_grid=sat_grid,
        sat_missing_rate=args.missing_rate,
        tau2=args.tau2,
        rho=args.rho,
        seed=args.seed,
    )
    grid_days = _parse_days(args.grid_days, cfg.n_days)
    truth = generate_scene(cfg)
    paths = pio.export_scene(truth, args.out, grid_days)
    if args.write_config:
        out = Path(args.out)
        pipe = PipelineConfig(
            monitors=str(paths["monitors"]),
            obs=str(paths["obs"]),
            grid_ctm=str(paths["grid_ctm"]),
            ctm_grid=cfg.ctm_grid,
            out_dir=str(out / "runs"),
            grid_sat=str(paths["grid_sat"]),
            sat_grid=cfg.sat_grid,
            covariates=str(paths["covariates"]),
            target_grid=cfg.sat_grid,
            n_days=cfg.n_days,
            surface_days=tuple(grid_days) if grid_days else None,
            seed=args.seed,
        )
        paths["pipeline_config"] = save_pipeline_config(out / "pipeline_config.json", pipe)
    for name, p in sorted(paths.items()):
        print(f"{name}: {p}")
    return 0


def _parse_days(text: str | None, n_days: int) -> list[int] | None:
    """The days of a comma list such as --grid-days, each in 1..n_days."""
    if not text:
        return None
    try:
        days = [int(x) for x in text.split(",") if x.strip()]
    except ValueError:
        raise DomainError(f"--grid-days must be a comma list of days, got {text!r}") from None
    for day in days:
        if not 1 <= day <= n_days:
            raise OutOfDomainError(f"--grid-days: day {day} outside 1..{n_days}")
    return days


def _cmd_fit_downscaler(args) -> int:
    source = args.source
    view, _ = _source_view(_load_table(args, require_sat=source == SAT), source)
    fit = fit_downscaler(view, source, _mcmc_from(args))
    batch = (view.day, view.x_for(source), view.z if source == SAT else None, args.seed + 1)
    pred = predict_batches(fit, view.sites, view.site_idx, view.record_ids, [batch])[0]
    preds = (pred, None) if source == CTM else (None, pred)
    table = combine_predictions(view, *preds)
    meta = {"seed": args.seed, "config": pio.config_hash({"cmd": "fit-downscaler", "source": source, "seed": args.seed})}
    pio.emit_predictive(args.out, table, meta)
    acc = {k: round(v, 3) for k, v in fit.acceptance.items() if isinstance(v, float)}
    print(f"fitted {source} downscaler on {view.n_records} records; acceptance {acc}")
    print(f"wrote {args.out}")
    return 0


def _cmd_fit_ensemble(args) -> int:
    monitors = pio.load_monitors(args.monitors)
    inputs = pio.load_predictive(args.predictive, {l.site_id: l for l in monitors})
    aligned = _observed(args.obs, args.predictive, inputs)
    fitter = fit_joint if args.variant == JOINT else fit_two_stage
    field = fitter(aligned, inputs, monitors, _mcmc_from(args))
    meta = {"seed": args.seed, "config": pio.config_hash({"cmd": "fit-ensemble", "variant": args.variant, "seed": args.seed})}
    pio.emit_weights(args.out_weights, field.site_ids, field.summary(), meta)
    pio.emit_weight_samples(args.out_samples, field, meta)
    acc = {k: round(v, 3) for k, v in field.acceptance.items() if isinstance(v, float)}
    print(f"fitted {args.variant} ensemble over {len(field.locations)} sites; acceptance {acc}")
    print(f"wrote {args.out_weights} and {args.out_samples}")
    return 0


def _cmd_krige_weights(args) -> int:
    monitors = pio.load_monitors(args.monitors)
    field = pio.load_weight_samples(args.samples, monitors)
    targets = pio.load_monitors(args.targets)
    kriged = krige_weights(field, targets, seed=args.seed)
    meta = {"seed": args.seed, "config": pio.config_hash({"cmd": "krige-weights", "seed": args.seed})}
    pio.emit_weights(args.out, [t.site_id for t in targets], kriged, meta)
    print(f"kriged weights at {len(targets)} targets; wrote {args.out}")
    return 0


def _cmd_predict(args) -> int:
    monitors = pio.load_monitors(args.monitors)
    inputs = pio.load_predictive(args.predictive, {l.site_id: l for l in monitors})
    mix = predict_mixture(
        row_weights(inputs, pio.load_weights(args.weights)), inputs.mu, inputs.var, inputs.available
    )
    columns = (inputs.ids, inputs.day, mix.mean, mix.sd, mix.quantile(0.025), mix.quantile(0.975), mix.w)
    meta = {"seed": 0, "config": pio.config_hash({"cmd": "predict"})}
    pio.write_csv(args.out, pio.PREDICTIONS, columns, meta)
    print(f"wrote {inputs.ids.shape[0]} mixture predictions to {args.out}")
    return 0


def _cmd_cv(args) -> int:
    data = _load_table(args, require_sat=False)
    seeds = np.random.SeedSequence(args.seed).spawn(2)
    table, _ = cv_component_table(
        data, args.derivation, args.folds, _mcmc_from(args), args.seed, seeds
    )
    meta = {"seed": args.seed, "config": pio.config_hash({"cmd": "cv", "derivation": args.derivation, "folds": args.folds, "seed": args.seed})}
    pio.emit_predictive(args.out, table, meta)
    print(f"wrote held-out predictives for {table.ids.shape[0]} records to {args.out}")
    return 0


def _cmd_evaluate(args) -> int:
    monitors = pio.load_monitors(args.monitors)
    inputs = pio.load_predictive(args.predictive, {l.site_id: l for l in monitors})
    y = _observed(args.obs, args.predictive, inputs)
    site_weights = pio.load_weights(args.weights) if args.weights else None
    reports = _reports(y, inputs, site_weights, "given", "file")
    meta = {"seed": 0, "config": pio.config_hash({"cmd": "evaluate"})}
    pio.emit_evaluation(args.out, reports, meta)
    for r in reports:
        print(
            f"{r.method:10s} rmse={r.rmse:.3f} coverage95={r.coverage95:.1f}% "
            f"avg_sd={r.avg_posterior_sd:.3f} r2={r.r2:.3f} n={r.n_pairs}"
        )
    return 0


def _cmd_run_all(args) -> int:
    cfg = load_pipeline_config(args.config)
    updates = {}
    if args.out_dir:
        updates["out_dir"] = args.out_dir
    if args.overwrite:
        updates["overwrite"] = True
    if args.seed is not None:
        updates["seed"] = args.seed
    if args.variant:
        updates["variant"] = args.variant
    if updates:
        cfg = replace(cfg, **updates)
    result = run_pipeline(cfg)
    print(f"run directory: {result.run_dir}")
    for name, p in sorted(result.paths.items()):
        print(f"  {name}: {p}")
    for r in result.reports:
        print(
            f"  {r.method:10s} rmse={r.rmse:.3f} coverage95={r.coverage95:.1f}% "
            f"avg_sd={r.avg_posterior_sd:.3f}"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="pmfusion",
        description="Bayesian fusion of gridded PM2.5 proxies against monitor data",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic scene as CSV inputs")
    p.add_argument("--out", required=True)
    p.add_argument("--sites", type=int, default=63)
    p.add_argument("--days", type=int, default=60)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--missing-rate", type=float, default=0.61)
    p.add_argument("--tau2", type=float, default=1.0)
    p.add_argument("--rho", type=float, default=35.0)
    p.add_argument("--sat-cells", type=int, default=25, help="satellite grid side length")
    p.add_argument("--sat-cell-km", type=float, default=4.0)
    p.add_argument("--ctm-cell-km", type=float, default=12.0)
    p.add_argument("--grid-days", default=None, help="comma list of days to export full grids for")
    p.add_argument("--no-config", dest="write_config", action="store_false")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("fit-downscaler", help="fit one source and emit predictives")
    p.add_argument("--monitors", required=True)
    p.add_argument("--obs", required=True)
    p.add_argument("--grid-ctm", required=True)
    p.add_argument("--grid-sat", default=None)
    p.add_argument("--covariates", default=None)
    p.add_argument("--scene", required=True, help="scene.json with grid geometry")
    p.add_argument("--source", choices=[CTM, SAT], required=True)
    p.add_argument("--out", required=True)
    _add_mcmc_args(p, iters=2000)
    p.set_defaults(func=_cmd_fit_downscaler)

    p = sub.add_parser("fit-ensemble", help="fit the weight field from predictives")
    p.add_argument("--monitors", required=True)
    p.add_argument("--obs", required=True)
    p.add_argument("--predictive", required=True)
    p.add_argument("--variant", choices=[JOINT, TWO_STAGE], default=JOINT)
    p.add_argument("--out-weights", required=True)
    p.add_argument("--out-samples", required=True)
    _add_mcmc_args(p)
    p.set_defaults(func=_cmd_fit_ensemble)

    p = sub.add_parser("krige-weights", help="krige sampled weights to targets")
    p.add_argument("--monitors", required=True)
    p.add_argument("--samples", required=True, help="weight_samples.csv")
    p.add_argument("--targets", required=True, help="targets in monitors.csv format")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_krige_weights)

    p = sub.add_parser("predict", help="combine predictives and weights into mixtures")
    p.add_argument("--monitors", required=True)
    p.add_argument("--predictive", required=True)
    p.add_argument("--weights", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("cv", help="held-out predictives via cross-validation")
    p.add_argument("--monitors", required=True)
    p.add_argument("--obs", required=True)
    p.add_argument("--grid-ctm", required=True)
    p.add_argument("--grid-sat", default=None)
    p.add_argument("--covariates", default=None)
    p.add_argument("--scene", required=True)
    p.add_argument("--derivation", choices=[KFOLD, SPATIAL], default=KFOLD)
    p.add_argument("--folds", type=int, default=10)
    p.add_argument("--out", required=True)
    _add_mcmc_args(p, iters=2000)
    p.set_defaults(func=_cmd_cv)

    p = sub.add_parser("evaluate", help="score predictives against observations")
    p.add_argument("--monitors", required=True)
    p.add_argument("--obs", required=True)
    p.add_argument("--predictive", required=True)
    p.add_argument("--weights", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("run-all", help="full three-stage pipeline from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--variant", choices=[JOINT, TWO_STAGE], default=None)
    p.add_argument("--overwrite", action="store_true")
    p.set_defaults(func=_cmd_run_all)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except PmFusionError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
