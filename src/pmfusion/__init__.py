"""Bayesian fusion of gridded PM2.5 proxies against sparse monitor data.

Two statistical downscalers calibrate a chemical-transport-model field and a
satellite-derived field to point observations with spatio-temporally varying
coefficients; a spatially varying Bayesian model average combines their
predictive densities through a logit-scale Gaussian-process weight field.
"""

import os as _os

# honor the thread cap before any BLAS pool spins up
_threads = _os.environ.get("PMFUSION_THREADS")
if _threads:
    for _var in (
        "OPENBLAS_NUM_THREADS",
        "OMP_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    ):
        _os.environ.setdefault(_var, _threads)
del _os, _threads

from .config import MCMCConfig
from .crossval import KFOLD, SPATIAL, EvalReport, FoldPlan, evaluate, make_folds
from .downscaler import (
    DownscalerFit,
    SourcePredictions,
    cv_predict,
    fit_downscaler,
)
from .ensemble import (
    MixtureDistribution,
    WeightFieldSamples,
    fit_joint,
    fit_site_weights,
    fit_two_stage,
    krige_weights,
    predict_mixture,
    update_q,
    update_rho,
    update_tau2,
)
from .errors import (
    DomainError,
    EmptyInputError,
    InputFileError,
    InsufficientDataError,
    NoInputsError,
    NotPositiveDefiniteError,
    OutOfDomainError,
    OverwriteError,
    ParseError,
    PmFusionError,
    SchemaError,
    StageError,
    TooFewRecordsError,
)
from .geo import CTM, SAT, SOURCES, GridSpec, Location, distance_matrix, link_points
from .io import SurfaceOutput, assemble_observations, config_hash, export_scene
from .kernels import GaussianSummary, inv_logit, logit
from .pipeline import (
    JOINT,
    TWO_STAGE,
    PipelineConfig,
    PipelineResult,
    load_pipeline_config,
    run_pipeline,
    save_pipeline_config,
)
from .tables import COVARIATE_NAMES, ObservationTable, PredictiveTable

__version__ = "0.1.0"

# the scene generator is imported on first use; a pipeline run never needs it
_SYNTH_NAMES = ("SceneConfig", "SceneTruth", "SplitScene", "generate_scene", "generate_split_scene")


def __getattr__(name):
    if name in _SYNTH_NAMES:
        from . import synth

        return getattr(synth, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "CTM",
    "SAT",
    "SOURCES",
    "JOINT",
    "TWO_STAGE",
    "KFOLD",
    "SPATIAL",
    "COVARIATE_NAMES",
    "MCMCConfig",
    "GridSpec",
    "Location",
    "ObservationTable",
    "PredictiveTable",
    "GaussianSummary",
    "DownscalerFit",
    "SourcePredictions",
    "WeightFieldSamples",
    "MixtureDistribution",
    "EvalReport",
    "FoldPlan",
    "SceneConfig",
    "SceneTruth",
    "SplitScene",
    "SurfaceOutput",
    "PipelineConfig",
    "PipelineResult",
    "fit_downscaler",
    "cv_predict",
    "fit_joint",
    "fit_two_stage",
    "fit_site_weights",
    "krige_weights",
    "predict_mixture",
    "update_q",
    "update_tau2",
    "update_rho",
    "make_folds",
    "evaluate",
    "generate_scene",
    "generate_split_scene",
    "run_pipeline",
    "load_pipeline_config",
    "save_pipeline_config",
    "assemble_observations",
    "export_scene",
    "config_hash",
    "distance_matrix",
    "link_points",
    "logit",
    "inv_logit",
    "PmFusionError",
    "DomainError",
    "OutOfDomainError",
    "NotPositiveDefiniteError",
    "InsufficientDataError",
    "TooFewRecordsError",
    "NoInputsError",
    "EmptyInputError",
    "InputFileError",
    "ParseError",
    "SchemaError",
    "StageError",
    "OverwriteError",
]
