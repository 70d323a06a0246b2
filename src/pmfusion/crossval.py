"""Fold plans and held-out evaluation metrics.

Fold assignment is a pure function of record content (site id, day) and the
seed, never of record order, so shuffled inputs produce identical plans.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, EmptyInputError, SchemaError, TooFewRecordsError
from .tables import ObservationTable

KFOLD = "kfold"
SPATIAL = "spatial"


@dataclass(frozen=True)
class FoldPlan:
    """Assignment of every record to one held-out fold."""

    kind: str
    n_folds: int
    fold_of_record: np.ndarray
    seed: int


def make_folds(data: ObservationTable, kind: str, k: int = 10, seed: int = 0) -> FoldPlan:
    """Build a fold plan over the records of `data`.

    kind="kfold"  : records shuffled (by content order, seeded) into k folds;
                    DomainError unless k is an integer of at least 2
    kind="spatial": leave-one-monitor-out; one fold per site, k ignored
    """
    n = data.n_records
    if kind == KFOLD:
        if isinstance(k, bool) or not isinstance(k, (int, np.integer)) or k < 2:
            raise DomainError(f"kfold needs an integer fold count of at least 2, got {k!r}")
        if n < k:
            raise TooFewRecordsError(f"{n} records cannot fill {k} folds")
        # canonical content order makes the plan invariant to record order
        canon = np.lexsort((data.day, data.record_ids))
        rng = np.random.default_rng(seed)
        perm = rng.permutation(n)
        fold = np.empty(n, dtype=np.int64)
        fold[canon] = perm % k
        return FoldPlan(kind=kind, n_folds=k, fold_of_record=fold, seed=seed)
    if kind == SPATIAL:
        # one fold per site, numbered in site-id order
        unique_ids, rank = np.unique(np.asarray(data.site_ids, dtype=object), return_inverse=True)
        if unique_ids.size < 2:
            raise TooFewRecordsError("spatial folds need at least 2 sites")
        return FoldPlan(kind=kind, n_folds=unique_ids.size, fold_of_record=rank[data.site_idx], seed=seed)
    raise SchemaError(f"unknown fold kind {kind!r}")


@dataclass(frozen=True)
class EvalReport:
    """Held-out summary metrics in the layout of the comparison tables."""

    rmse: float
    coverage95: float  # percent of y inside the central 95% interval
    avg_posterior_sd: float
    r2: float
    n_pairs: int
    method: str = ""
    estimation: str = ""
    input_derivation: str = ""


def evaluate(y, pred) -> EvalReport:
    """Score held-out observations against their predictive distributions.

    pred holds one predictive per entry of y in arrays and exposes .mean,
    .sd and .quantile(p) (GaussianSummary or MixtureDistribution). Metrics:
    RMSE of the predictive mean, percent coverage of the central 95%
    interval, average predictive SD, and squared Pearson correlation.
    """
    y = np.asarray(y, dtype=float)
    mean = np.asarray(pred.mean, dtype=float)
    if mean.shape != y.shape:
        raise SchemaError("y and predictions must align")
    if y.shape[0] == 0:
        raise EmptyInputError("nothing to evaluate")
    sd = pred.sd
    lo = pred.quantile(0.025)
    hi = pred.quantile(0.975)
    rmse = float(np.sqrt(np.mean((y - mean) ** 2)))
    coverage = float(np.mean((y >= lo) & (y <= hi)) * 100.0)
    avg_sd = float(np.mean(sd))
    sy, sm = np.std(y), np.std(mean)
    if sy > 0 and sm > 0:
        r = float(np.corrcoef(y, mean)[0, 1])
        r2 = r * r
    else:
        r2 = float("nan")
    return EvalReport(
        rmse=rmse,
        coverage95=coverage,
        avg_posterior_sd=avg_sd,
        r2=r2,
        n_pairs=int(y.shape[0]),
    )
