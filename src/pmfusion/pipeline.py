"""Three-stage orchestration from input CSVs to surface artifacts.

Stage 1 runs each source's downscaler under cross-validation, both sources
on one fold plan over the record table, assembling the out-of-sample
component predictives, and on all its observations, the full-data chain
running last in the folds' batch. That chain streams the source's full-data
predictive and, given a target grid, its surface predictive, so a source's
Stage 1 reads only the load and writes all three of its component
predictives. Stage 2 fits the ensemble weight field to the held-out
predictives. Stage 3 combines the full-data predictives, kriges the weight
field to the target grid, and mixes the surface predictives into a
predictive surface.

Outputs land in <out_dir>/run_<confighash>/ so distinct configurations never
collide; an existing run directory is refused unless overwrite is set. Every
CSV artifact carries the seed and config hash; manifest.json records stage
status so partial runs are recognizable.
"""

from __future__ import annotations

import time
from collections.abc import Iterator
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from itertools import repeat
from numbers import Integral
from pathlib import Path

import numpy as np

from . import io as pio
from .config import MCMCConfig
from .crossval import KFOLD, SPATIAL, EvalReport, evaluate, make_folds
from .downscaler import SourcePredictions, cv_predict
from .ensemble import (
    WeightFieldSamples,
    fit_joint,
    fit_two_stage,
    krige_weights,
    predict_mixture,
)
from .errors import DomainError, OutOfDomainError, OverwriteError, SchemaError, StageError
from .geo import CTM, SAT, SOURCES, GridSpec, distance_matrix
from .kernels import GaussianSummary
from .tables import ObservationTable, PredictiveTable

JOINT = "joint"
TWO_STAGE = "two_stage"
VARIANTS = (JOINT, TWO_STAGE)


@dataclass(frozen=True)
class PipelineConfig:
    """Everything run_pipeline needs; loadable from one JSON file."""

    monitors: str
    obs: str
    grid_ctm: str
    ctm_grid: GridSpec
    out_dir: str
    grid_sat: str | None = None
    sat_grid: GridSpec | None = None
    covariates: str | None = None
    target_grid: GridSpec | None = None
    n_days: int | None = None
    variant: str = JOINT
    derivation: str = KFOLD
    n_folds: int = 10
    downscaler_mcmc: MCMCConfig = field(default_factory=lambda: MCMCConfig(n_iter=2000, burn_in=1000, thin=4))
    ensemble_mcmc: MCMCConfig = field(default_factory=MCMCConfig)
    surface_days: tuple | None = None
    seed: int = 0
    overwrite: bool = False

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise SchemaError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if self.derivation not in (KFOLD, SPATIAL):
            raise SchemaError(f"derivation must be '{KFOLD}' or '{SPATIAL}', got {self.derivation!r}")
        _check_integer("n_folds", self.n_folds, 2)
        _check_integer("seed", self.seed, 0)
        if self.n_days is not None:
            _check_integer("n_days", self.n_days, 1)
        if self.surface_days is not None:
            if not isinstance(self.surface_days, (tuple, list)):
                raise SchemaError(f"surface_days must be a list of days, got {self.surface_days!r}")
            for day in self.surface_days:
                _check_integer("surface_days", day, 1)
        if (self.grid_sat is None) != (self.sat_grid is None):
            raise SchemaError("grid_sat path and sat_grid geometry go together")
        if self.target_grid is not None and (self.ctm_grid.cells_of(self.target_grid.all_centers()) < 0).all():
            raise DomainError("target_grid has no cell inside ctm_grid")

    def to_dict(self) -> dict:
        d = asdict(self)
        if self.surface_days is not None:
            d["surface_days"] = [int(x) for x in self.surface_days]
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "PipelineConfig":
        """Config from its JSON form; raises SchemaError naming the key of a bad field."""
        names = [f.name for f in fields(cls)]
        unknown = sorted(set(d).difference(names, ("config_hash",)))
        if unknown:
            raise SchemaError(f"unknown key '{unknown[0]}'")
        required = [f.name for f in fields(cls) if f.default is MISSING and f.default_factory is MISSING]
        missing = [name for name in required if name not in d]
        if missing:
            raise SchemaError(f"missing key '{missing[0]}'")
        d = {k: v for k, v in d.items() if k != "config_hash"}
        for name in ("monitors", "obs", "grid_ctm", "out_dir", "grid_sat", "covariates"):
            value = d.get(name)
            if not isinstance(value, str) and not (value is None and name not in required):
                raise SchemaError(f"{name} must be a path string, got {value!r}")
        if not isinstance(d.get("overwrite", False), bool):
            raise SchemaError(f"overwrite must be true or false, got {d['overwrite']!r}")
        for name in ("ctm_grid", "sat_grid", "target_grid"):
            if name in required or d.get(name) is not None:
                d[name] = _parse_object(name, pio.grid_spec_from_dict, d[name])
        for name in ("downscaler_mcmc", "ensemble_mcmc"):
            if name in d:
                d[name] = _parse_object(name, lambda m: MCMCConfig(**m), d[name])
        if isinstance(d.get("surface_days"), list):
            d["surface_days"] = tuple(d["surface_days"])
        return cls(**d)

    def digest(self) -> str:
        d = self.to_dict()
        d.pop("out_dir", None)
        d.pop("overwrite", None)
        return pio.config_hash(d)


def _check_integer(key: str, value, low: int):
    if isinstance(value, bool) or not isinstance(value, Integral) or value < low:
        raise SchemaError(f"{key} must be an integer >= {low}, got {value!r}")


def _parse_object(key: str, parse, value):
    """parse(value) of a JSON object; any other value, or a failure, is a
    SchemaError naming the key."""
    if not isinstance(value, dict):
        raise SchemaError(f"{key} must be a JSON object, got {value!r}")
    try:
        return parse(value)
    except (TypeError, ValueError) as e:
        raise SchemaError(f"{key}: {e}") from None


def load_pipeline_config(path) -> PipelineConfig:
    """Config from a JSON file; raises SchemaError naming the file and the
    key of the first bad field."""
    d = pio.load_json(path)
    if not isinstance(d, dict):
        raise SchemaError(f"{path}: a config must be a JSON object")
    try:
        return PipelineConfig.from_dict(d)
    except (SchemaError, DomainError) as e:
        raise type(e)(f"{path}: {e}") from None


def save_pipeline_config(path, cfg: PipelineConfig):
    d = cfg.to_dict()
    d["config_hash"] = cfg.digest()
    return pio.save_json(path, d)


@dataclass
class PipelineResult:
    run_dir: Path
    config: PipelineConfig
    paths: dict
    reports: list
    weights: WeightFieldSamples
    cv_inputs: PredictiveTable
    surface: pio.SurfaceOutput | None


def combine_predictions(
    data: ObservationTable,
    pred_ctm: SourcePredictions | None,
    pred_sat: SourcePredictions | None,
) -> PredictiveTable:
    """Stack per-source record-aligned predictions into one component table.

    A source given as None is unavailable on every row.
    """
    n = data.n_records
    mu, var, avail = np.zeros((n, 2)), np.ones((n, 2)), np.zeros((n, 2), dtype=bool)
    for k, pred in enumerate((pred_ctm, pred_sat)):
        if pred is None:
            continue
        ok = pred.available & np.isfinite(pred.mu)
        mu[ok, k] = pred.mu[ok]
        var[ok, k] = pred.var[ok]
        avail[:, k] = ok
    return PredictiveTable(data.record_ids, data.day.copy(), mu, var, avail, {s.site_id: s for s in data.sites})


def row_weights(inputs: PredictiveTable, site_weights) -> np.ndarray:
    """Weight on the CTM model of each row where both sources exist; NaN elsewhere.

    site_weights is (site ids, summary columns), as io.load_weights returns
    it; only w_mean is read. Raises SchemaError for a site that such a row
    needs and site_weights lacks, naming the least such id.
    """
    both = inputs.both_available()
    ids = inputs.ids[both]
    row = pio.key_rows((site_weights[0],), (ids,))
    if (row < 0).any():
        raise SchemaError(f"no weight row for site '{min(ids[row < 0])}'")
    w = np.full(inputs.n_records, np.nan)
    w[both] = site_weights[1]["w_mean"][row]
    return w


def _load_inputs(cfg: PipelineConfig):
    """The record table and the (values, present) grids. A surface day
    outside the horizon the grids were loaded for, or without a CTM value at
    a target cell inside the CTM grid, is an error here; satellite gaps are
    not."""
    data, ctm, sat = pio.load_inputs(
        cfg.monitors, cfg.obs, cfg.grid_ctm, cfg.ctm_grid, cfg.grid_sat, cfg.sat_grid, cfg.covariates, cfg.n_days
    )
    n_days = ctm[0].shape[0]
    for d in cfg.surface_days or ():
        if not 1 <= d <= n_days:
            raise OutOfDomainError(f"surface day {d} outside horizon 1..{n_days}")
    if cfg.target_grid is not None:
        cells = cfg.ctm_grid.cells_of(cfg.target_grid.all_centers())
        rows, cols = cells[cells[:, 0] >= 0].T
        for d in cfg.surface_days or range(1, n_days + 1):
            missing = int(np.count_nonzero(~ctm[1][d - 1, rows, cols]))
            if missing:
                raise SchemaError(f"{cfg.grid_ctm}: surface day {d} has no CTM value at {missing} of the "
                                  f"{rows.size} target cells inside the CTM grid")
    return data, ctm, sat


def cv_component_table(
    data: ObservationTable,
    derivation: str,
    n_folds: int,
    mcmc: MCMCConfig,
    fold_seed: int,
    seeds,
    full=None,
) -> tuple[PredictiveTable, dict]:
    """Held-out component predictives for both sources over one record table,
    and by source the fit of a chain on all its records (None without full,
    or for a source with no usable record). One fold plan over the table
    serves both sources; each source's chains fit all its sites, a monitor
    with no usable record of the source latent in them. seeds holds each
    source's integer seed; full(source) gives cv_predict's full_seed and
    full_requests for that chain, called in the source's run."""
    fold_of_record = make_folds(data, derivation, n_folds, seed=fold_seed).fold_of_record
    per_source, fits = dict.fromkeys(SOURCES), dict.fromkeys(SOURCES)
    for k, source in enumerate(SOURCES):
        if data.usable_mask(source).any():
            chain = {} if full is None else full(source)
            source_mcmc = replace(mcmc, seed=seeds[k])
            per_source[source], fits[source] = cv_predict(data, fold_of_record, source, source_mcmc, **chain)
    return combine_predictions(data, *per_source.values()), fits


def _surface_targets(cfg: PipelineConfig, data: ObservationTable):
    """The surface days, the target-grid cell centres as one (m, 2) array,
    their rows and columns, and their rNNNcNNN ids; None without a target grid."""
    grid = cfg.target_grid
    if grid is None:
        return None
    days = range(1, data.n_days + 1) if cfg.surface_days is None else cfg.surface_days
    days = tuple(int(d) for d in days)
    centers = grid.all_centers()
    rr, cc = np.divmod(np.arange(centers.shape[0]), grid.n_cols)
    target_ids = np.array([f"r{r:03d}c{c:03d}" for r, c in zip(rr.tolist(), cc.tolist())], dtype=object)
    return days, centers, rr, cc, target_ids


def _surface_request(data: ObservationTable, source: str, grid, spec: GridSpec, targets, seed: int):
    """The request of a source's surface predictive: one batch per surface
    day over the target cells, seeded seed + day, each cell linked to the
    source grid's value that day (NaN outside the grid) and, for the
    satellite, to the covariates of the nearest monitor. The batches are
    built as they are read, so only their available rows stay in memory."""
    days, centers, _, _, target_ids = targets
    m = centers.shape[0]
    values, _ = grid
    cells = spec.cells_of(centers)
    inside = cells[:, 0] >= 0

    def linked(d):
        x = np.full(m, np.nan)
        x[inside] = values[d - 1, cells[inside, 0], cells[inside, 1]]
        return x

    zs = _nearest_site_rows(data, centers, days) if source == SAT else repeat(None)
    return centers, np.arange(m), target_ids, ((np.full(m, d, dtype=np.int64), linked(d), z, seed + d)
                                               for d, z in zip(days, zs))


def _stage1(cfg: PipelineConfig, data: ObservationTable, ctm, sat, targets, seeds) -> tuple[PredictiveTable, dict]:
    """Both sources' held-out component predictives, and by source its chain
    on all its records (seeds[3 + k]), which streams the full predictive
    (seeds[7 + k]) and, given targets, the surface predictive (seeds[10 + k]
    plus the day). Each source's requests are built in its own run; the full
    predictive's targets are the monitors, each fitted one read from the chain."""
    grids = {CTM: (ctm, cfg.ctm_grid), SAT: (sat, cfg.sat_grid)}

    def full(source):
        k = SOURCES.index(source)
        batch = (data.day, data.x_for(source), data.z if source == SAT else None, seeds[7 + k])
        requests = [(data.sites, data.site_idx, data.record_ids, [batch])]
        if targets is not None:
            requests.append(_surface_request(data, source, *grids[source], targets, seeds[10 + k]))
        return {"full_seed": seeds[3 + k], "full_requests": requests}

    return cv_component_table(data, cfg.derivation, cfg.n_folds, cfg.downscaler_mcmc, cfg.seed, seeds[0:2], full)


def _stage2(cfg: PipelineConfig, data, cv_inputs: PredictiveTable, seed: int) -> WeightFieldSamples:
    mcmc = replace(cfg.ensemble_mcmc, seed=seed)
    fitter = fit_joint if cfg.variant == JOINT else fit_two_stage
    return fitter(data.y, cv_inputs, data.sites, mcmc)


def _full_predictive(data, fits) -> PredictiveTable:
    """The full-data component table, from each source's first request."""
    preds = (None if fits[s] is None else fits[s].predictions[0][0] for s in (CTM, SAT))
    return combine_predictions(data, *preds)


def _nearest_site_rows(data: ObservationTable, targets, days) -> Iterator[np.ndarray]:
    """Raw covariate rows for targets (Locations or an (m, 2) km array), one
    block per day: the same-day row of the nearest monitor with records, else
    that monitor's first row."""
    sites, first = np.unique(data.site_idx, return_index=True)
    nearest = distance_matrix([data.sites[s] for s in sites], targets).argmin(axis=0)
    for day in days:
        row = first.copy()
        sel = np.flatnonzero(data.day == day)
        row[np.searchsorted(sites, data.site_idx[sel])] = sel
        yield data.z[row[nearest]]


def _surface_stage(targets, fits, weights, seed: int):
    """The weight field kriged to the target cells, and the day-by-day
    mixture of the sources' surface predictives, streamed in Stage 1."""
    days, centers, rr, cc, _ = targets
    m = centers.shape[0]
    kriged = krige_weights(weights, centers, seed=seed)
    preds = {k: fits[s].predictions[1] for k, s in enumerate((CTM, SAT)) if fits[s] is not None}
    rows = []
    for i, d in enumerate(days):
        mu = np.zeros((m, 2))
        var = np.ones((m, 2))
        avail = np.zeros((m, 2), dtype=bool)
        for k, day_preds in preds.items():
            pred, day_preds[i] = day_preds[i], None  # freed once mixed
            mu[:, k], var[:, k], avail[:, k] = pred.mu, pred.var, pred.available
        usable = avail.any(axis=1)
        mix = predict_mixture(kriged["w_mean"][usable], mu[usable], var[usable], avail[usable])
        rows.append(
            (
                np.full(m, d, dtype=np.int64)[usable],
                rr[usable],
                cc[usable],
                mix.mean,
                mix.sd,
                mix.quantile(0.025),
                mix.quantile(0.975),
                mix.w,
            )
        )

    surface = pio.SurfaceOutput(*(np.concatenate(col) for col in zip(*rows)))
    return surface, kriged


def _reports(
    y, inputs: PredictiveTable, site_weights, estimation: str, derivation: str
) -> list[EvalReport]:
    """Held-out scores of each source and, given site weights, of their mixture.

    y aligns with the rows of inputs. site_weights is read by row_weights,
    only for rows where both sources exist; None leaves the ensemble out.
    """
    reps = []
    for k, name in enumerate(SOURCES):
        ok = inputs.available[:, k]
        if ok.any():
            rep = evaluate(y[ok], GaussianSummary(inputs.mu[ok, k], inputs.var[ok, k]))
            reps.append(
                replace(rep, method=name, estimation="downscaler", input_derivation=derivation)
            )
    if site_weights is not None:
        any_ok = inputs.available.any(axis=1)
        w_row = row_weights(inputs, site_weights)
        mix = predict_mixture(
            w_row[any_ok], inputs.mu[any_ok], inputs.var[any_ok], inputs.available[any_ok]
        )
        rep = evaluate(y[any_ok], mix)
        reps.append(
            replace(rep, method="ensemble", estimation=estimation, input_derivation=derivation)
        )
    return reps


def run_pipeline(cfg: PipelineConfig) -> PipelineResult:
    """Execute all three stages and write the artifact set.

    Artifacts: cv_predictive.csv, site_weights.csv, full_predictive.csv,
    weight_surface.csv, surface.csv, evaluation.csv (plus weight_samples.csv,
    config.json, manifest.json). Deterministic given the config seed.
    """
    digest = cfg.digest()
    run_dir = Path(cfg.out_dir) / f"run_{digest}"
    if run_dir.exists():
        if not cfg.overwrite:
            raise OverwriteError(
                f"{run_dir} already exists; pass overwrite to replace it"
            )
    run_dir.mkdir(parents=True, exist_ok=True)
    meta = {"seed": cfg.seed, "config": digest}
    manifest = {
        "status": "running",
        "stage": "load",
        "seed": cfg.seed,
        "config": digest,
        "started": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "artifacts": {},
        "timings_s": {},
    }
    pio.save_json(run_dir / "manifest.json", manifest)
    save_pipeline_config(run_dir / "config.json", cfg)
    # children by index: 0-1 stage-1 CTM/SAT folds, 2 stage 2, 3-4 stage-1 CTM/SAT full-data
    # chains, 5-6 unused, 7-8 and 10-11 the full and surface predictives those chains stream,
    # 9 the kriging; fixed, because renumbering would change every artifact
    seeds = [int(c.generate_state(1)[0]) for c in np.random.SeedSequence(cfg.seed).spawn(12)]
    paths = {}
    reports = []
    surface = None

    def checkpoint(stage=None, status="running"):
        manifest["status"] = status
        if stage is not None:
            manifest["stage"] = stage
        manifest["artifacts"] = {k: str(v) for k, v in paths.items()}
        pio.save_json(run_dir / "manifest.json", manifest)

    def run_stage(stage, fn):
        t0 = time.perf_counter()
        checkpoint(stage=stage)
        try:
            out = fn()
        except Exception as e:
            manifest["error"] = str(e)
            checkpoint(status="failed")
            raise StageError(stage, e) from e
        manifest["timings_s"][stage] = round(time.perf_counter() - t0, 3)
        return out

    data, ctm, sat = run_stage("load", lambda: _load_inputs(cfg))
    targets = _surface_targets(cfg, data)

    cv_inputs, fits = run_stage("stage1-cv-downscalers", lambda: _stage1(cfg, data, ctm, sat, targets, seeds))
    paths["cv_predictive"] = pio.emit_predictive(run_dir / "cv_predictive.csv", cv_inputs, meta)
    checkpoint()

    weights = run_stage("stage2-ensemble", lambda: _stage2(cfg, data, cv_inputs, seeds[2]))
    summary = weights.summary()
    paths["site_weights"] = pio.emit_weights(run_dir / "site_weights.csv", weights.site_ids, summary, meta)
    paths["weight_samples"] = pio.emit_weight_samples(
        run_dir / "weight_samples.csv", weights, meta
    )
    checkpoint()

    full_inputs = run_stage("stage3-full-predictive", lambda: _full_predictive(data, fits))
    paths["full_predictive"] = pio.emit_predictive(run_dir / "full_predictive.csv", full_inputs, meta)
    checkpoint()

    if targets is not None:
        surface, kriged = run_stage("stage3-surface", lambda: _surface_stage(targets, fits, weights, seeds[9]))
        paths["weight_surface"] = pio.emit_weights(run_dir / "weight_surface.csv", targets[-1], kriged, meta)
        paths["surface"] = pio.emit_surface(run_dir / "surface.csv", surface, meta)
        checkpoint()

    site_weights = (np.asarray(weights.site_ids, dtype=object), summary)
    reports = run_stage(
        "evaluate",
        lambda: _reports(data.y, cv_inputs, site_weights, cfg.variant, cfg.derivation),
    )
    paths["evaluation"] = pio.emit_evaluation(run_dir / "evaluation.csv", reports, meta)

    manifest["finished"] = time.strftime("%Y-%m-%dT%H:%M:%S")
    checkpoint(stage="done", status="complete")
    return PipelineResult(
        run_dir=run_dir,
        config=cfg,
        paths=paths,
        reports=reports,
        weights=weights,
        cv_inputs=cv_inputs,
        surface=surface,
    )
