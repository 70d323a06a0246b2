"""In-memory spans around pmfusion's layer boundaries, for the traced run.

The program itself carries no tracing. `Tracer.install` wraps each function
in TARGETS and rebinds every attribute of a loaded pmfusion module that
refers to the original object, so `from ... import` copies such as
`pipeline.fit_downscaler` or `downscaler.solve_triangular` are traced too.
A span is (name, start_ns, end_ns, parent); all spans of one run share the
run id written with them. Counters (sweeps, flops, acceptances, bytes) are
taken at the same boundaries from arguments and return values.

`layer_metrics` turns the per-name totals into the per-layer metrics of
BENCHMARK.json; MOVES says which end-to-end metric each should move, and on
which workload.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from collections import defaultdict

KJ, SG, ST = "kfold-joint", "surface-grid", "spatial-two-stage"


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _n_samples(samples, kwargs) -> int:
    return len(range(0, len(samples), max(kwargs.get("sample_stride", 1), 1)))


def _fit(c, args, kwargs, out):
    mcmc = _arg(args, kwargs, 2, "mcmc")
    post = mcmc.n_iter - mcmc.burn_in
    c["downscaler.sweeps"] += mcmc.n_iter
    c["downscaler.theta_tried"] += 2 * post
    c["downscaler.theta_accepted"] += (out.acceptance["theta1"] + out.acceptance["theta2"]) * post


def _predict(c, args, kwargs, out):
    fit = _arg(args, kwargs, 0, "fit")
    c["downscaler.target_samples"] += len(_arg(args, kwargs, 1, "locations")) * _n_samples(fit, kwargs)


def _ensemble_fit(c, args, kwargs, out):
    c["ensemble.iters"] += _arg(args, kwargs, 3, "mcmc").n_iter


def _update_q(c, args, kwargs, out):
    c["ensemble.q_accepted"] += int(out.sum())
    c["ensemble.q_tried"] += out.size


def _update_rho(c, args, kwargs, out):
    c["ensemble.rho_accepted"] += bool(out[1])


def _krige(c, args, kwargs, out):
    field = _arg(args, kwargs, 0, "field")
    c["ensemble.krige_target_samples"] += len(_arg(args, kwargs, 1, "targets")) * _n_samples(field, kwargs)


def _mixq(c, args, kwargs, out):
    c["ensemble.mixq_rows"] += out.size


def _chol(c, args, kwargs, out):
    c["kernels.jitter_events"] += out[1] > 0


def _trsm(c, args, kwargs, out):
    n = _arg(args, kwargs, 0, "a").shape[0]
    b = _arg(args, kwargs, 1, "b")
    c["kernels.trsm_flop"] += n * n * (b.shape[1] if b.ndim == 2 else 1)


def _evaluate(c, args, kwargs, out):
    c["crossval.evaluate_rows"] += out.n_pairs


def _emit(c, args, kwargs, out):
    c["io.bytes_written"] += os.path.getsize(out)


# (span name, home module, attribute or Class.method, counter hook)
TARGETS = (
    ("pipeline.run", "pmfusion.pipeline", "run_pipeline", None),
    ("pipeline.load", "pmfusion.pipeline", "_load_inputs", None),
    ("pipeline.stage1", "pmfusion.pipeline", "_stage1", None),
    ("pipeline.stage2", "pmfusion.pipeline", "_stage2", None),
    ("pipeline.fits", "pmfusion.pipeline", "_stage3_fits", None),
    ("pipeline.full_predictive", "pmfusion.pipeline", "_full_predictive", None),
    ("pipeline.surface", "pmfusion.pipeline", "_surface_stage", None),
    ("pipeline.evaluate", "pmfusion.pipeline", "_reports", None),
    ("io.load", "pmfusion.io", "load_monitors", None),
    ("io.load", "pmfusion.io", "load_obs", None),
    ("io.load", "pmfusion.io", "load_grid", None),
    ("io.load", "pmfusion.io", "load_covariates", None),
    ("io.load", "pmfusion.io", "assemble_observations", None),
    ("io.emit", "pmfusion.io", "emit_predictive", _emit),
    ("io.emit", "pmfusion.io", "emit_weights", _emit),
    ("io.emit", "pmfusion.io", "emit_weight_samples", _emit),
    ("io.emit", "pmfusion.io", "emit_surface", _emit),
    ("io.emit", "pmfusion.io", "emit_evaluation", _emit),
    ("io.save_json", "pmfusion.io", "save_json", None),
    ("crossval.evaluate", "pmfusion.crossval", "evaluate", _evaluate),
    ("downscaler.fit", "pmfusion.downscaler", "fit_downscaler", _fit),
    ("downscaler.sweep", "pmfusion.downscaler", "_Blocks.sweep", None),
    ("downscaler.predict", "pmfusion.downscaler", "predict_at", _predict),
    ("ensemble.fit", "pmfusion.ensemble", "fit_joint", _ensemble_fit),
    ("ensemble.fit", "pmfusion.ensemble", "fit_two_stage", _ensemble_fit),
    ("ensemble.update_q", "pmfusion.ensemble", "update_q", _update_q),
    ("ensemble.update_rho", "pmfusion.ensemble", "update_rho", _update_rho),
    ("ensemble.krige", "pmfusion.ensemble", "krige_weights", _krige),
    ("ensemble.mixq", "pmfusion.ensemble", "mixture_quantiles_arrays", _mixq),
    ("ensemble.mixture_quantile", "pmfusion.ensemble", "MixtureDistribution.quantile", None),
    ("kernels.chol", "pmfusion.kernels", "jittered_cholesky", _chol),
    ("kernels.tridiag", "pmfusion.kernels", "sample_tridiag_mvn", None),
    ("kernels.trsm", "scipy.linalg", "solve_triangular", _trsm),
    ("kernels.cho_solve", "scipy.linalg", "cho_solve", None),
)


class Tracer:
    """Spans and counters of one run, kept in memory until `write`."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []  # (name, start_ns, end_ns, parent index or -1)
        self.counters: defaultdict = defaultdict(float)
        self.missing: list[str] = []
        self._stack: list[int] = []

    def wrap(self, name, fn, hook):
        spans, stack, counters, clock = self.spans, self._stack, self.counters, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if hook is not None:
                hook(counters, args, kwargs, out)
            return out

        return traced

    def install(self) -> None:
        """Wrap every target; a target the program no longer has is listed in `missing`."""
        modules = [m for n, m in list(sys.modules.items()) if n == "pmfusion" or n.startswith("pmfusion.")]
        for name, home, attr, hook in TARGETS:
            try:
                owner = importlib.import_module(home)
            except ModuleNotFoundError:
                owner = None
            owner_name, _, method = attr.rpartition(".")
            if owner_name:
                owner = getattr(owner, owner_name, None)
            original = getattr(owner, method, None)
            if original is None:
                self.missing.append(f"{home}.{attr}")
                continue
            traced = self.wrap(name, original, hook)
            if owner_name:
                setattr(owner, method, traced)
                continue
            bound = 0
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, traced)
                        bound += 1
            if not bound:
                self.missing.append(f"{home}.{attr}")

    def layer_totals(self) -> dict:
        """Per span name: calls, total and self seconds; plus the counters."""
        totals: dict = {}
        for (name, start, end, _), own in zip(self.spans, self_times(self.spans)):
            t = totals.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            t["calls"] += 1
            t["total_s"] += (end - start) * 1e-9
            t["self_s"] += own * 1e-9
        return {
            "spans": totals,
            "counters": dict(self.counters),
            "n_spans": len(self.spans),
            "missing": self.missing,
        }

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(
                {
                    "run_id": self.run_id,
                    "clock": "perf_counter_ns",
                    "fields": ["name", "start_ns", "end_ns", "parent"],
                    "spans": self.spans,
                },
                fh,
                separators=(",", ":"),
            )


def self_times(spans) -> list[int]:
    """Each span's duration minus the time its direct children cover, in ns."""
    child = [0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - c for (_, start, end, _), c in zip(spans, child)]


def check_spans(path) -> list[str]:
    """Problems with a written span file: bad nesting or negative self time."""
    with open(path) as fh:
        data = json.load(fh)
    spans = data["spans"]
    problems = []
    for i, (name, start, end, parent) in enumerate(spans):
        if end < start:
            problems.append(f"span {i} {name} ends before it starts")
        if parent >= 0:
            _, p_start, p_end, _ = spans[parent]
            if not (parent < i and p_start <= start and end <= p_end):
                problems.append(f"span {i} {name} is not inside its parent {parent}")
    problems += [f"span {i} {spans[i][0]} has negative self time" for i, own in enumerate(self_times(spans)) if own < 0]
    if not data.get("run_id"):
        problems.append("spans carry no run id")
    return problems


# per-layer metric -> (unit, better, what it should move)
MOVES = {
    "pipeline.import_s": ("s", "lower", "setup_s and wall_norm_s on all three"),
    "pipeline.load_s": ("s", "lower", "setup_s on all three"),
    "pipeline.stage1_s": ("s", "lower", f"wall_norm_s on {KJ} and {ST}"),
    "pipeline.stage2_s": ("s", "lower", f"wall_norm_s on {KJ}"),
    "pipeline.fits_s": ("s", "lower", "wall_norm_s on all three"),
    "pipeline.full_predictive_s": ("s", "lower", "wall_norm_s on all three"),
    "pipeline.surface_s": ("s", "lower", f"wall_norm_s and peak_rss_mb on {SG}"),
    "pipeline.evaluate_s": ("s", "lower", f"wall_norm_s on {KJ} and {SG}"),
    "pipeline.unstaged_s": ("s", "lower", f"wall_norm_s on {SG} and {KJ}"),
    "downscaler.fit_calls": ("count", "lower", "wall_norm_s on all three (22, 6 and 42 fits)"),
    "downscaler.sweeps": ("count", "lower", f"wall_norm_s on {KJ} and {ST}"),
    "downscaler.sweep_ms": ("ms", "lower", f"wall_norm_s on {KJ} and {ST}"),
    "downscaler.fit_self_s": ("s", "lower", f"wall_norm_s on {KJ} and {ST}"),
    "downscaler.theta_accept": ("ratio", "higher", "fused_rmse_ratio on all three"),
    "downscaler.predict_calls": ("count", "lower", f"wall_norm_s on {SG}"),
    "downscaler.predict_s": ("s", "lower", f"wall_norm_s on {SG}"),
    "downscaler.predict_us_per_target_sample": ("us", "lower", f"wall_norm_s on {SG}"),
    "ensemble.fit_s": ("s", "lower", f"wall_norm_s on {KJ}"),
    "ensemble.iter_ms": ("ms", "lower", f"wall_norm_s on {KJ}"),
    "ensemble.update_q_calls": ("count", "lower", f"wall_norm_s on {KJ}; 0 on {ST}"),
    "ensemble.q_accept": ("ratio", "higher", f"fused_rmse_ratio on {KJ} and {SG}"),
    "ensemble.rho_accept": ("ratio", "higher", "fused_rmse_ratio on all three"),
    "ensemble.update_rho_s": ("s", "lower", f"wall_norm_s on {KJ}"),
    "ensemble.krige_s": ("s", "lower", f"wall_norm_s on {SG}"),
    "ensemble.krige_us_per_target_sample": ("us", "lower", f"wall_norm_s on {SG}"),
    "ensemble.mixq_rows": ("count", "lower", f"wall_norm_s on {SG}"),
    "ensemble.mixq_s": ("s", "lower", f"wall_norm_s on {SG}"),
    "ensemble.mixture_quantile_calls": ("count", "lower", f"wall_norm_s on {KJ}"),
    "kernels.chol_calls": ("count", "lower", f"wall_norm_s on all three, call overhead most on {KJ}"),
    "kernels.chol_s": ("s", "lower", "wall_norm_s on all three"),
    "kernels.jitter_events": ("count", "lower", "wall_norm_s on all three"),
    "kernels.tridiag_calls": ("count", "lower", f"wall_norm_s on {KJ} and {ST}"),
    "kernels.tridiag_s": ("s", "lower", f"wall_norm_s on {KJ} and {ST}"),
    "kernels.trsm_calls": ("count", "lower", f"wall_norm_s on all three, call overhead most on {KJ}"),
    "kernels.trsm_s": ("s", "lower", f"wall_norm_s on all three, most on {SG}"),
    "kernels.trsm_gflop": ("Gflop", "lower", f"wall_norm_s on {SG}"),
    "kernels.trsm_gflops": ("Gflop/s", "higher", f"wall_norm_s on {SG}"),
    "kernels.cho_solve_calls": ("count", "lower", "wall_norm_s on all three"),
    "kernels.cho_solve_s": ("s", "lower", "wall_norm_s on all three"),
    "crossval.evaluate_rows": ("count", "lower", f"wall_norm_s on {KJ} and {SG}"),
    "crossval.evaluate_s": ("s", "lower", f"wall_norm_s on {KJ} and {SG}"),
    "crossval.evaluate_us_per_row": ("us", "lower", f"wall_norm_s on {KJ} and {SG}"),
    "crossval.fused_rmse": ("ug/m3", "lower", "fused_rmse_ratio on all three"),
    "crossval.fused_cov95_gap": ("pp", "lower", "fused_cov95_ratio on all three"),
    "io.load_s": ("s", "lower", "setup_s on all three"),
    "io.emit_s": ("s", "lower", f"wall_norm_s on {SG} and {KJ}"),
    "io.bytes_written": ("bytes", "lower", f"wall_norm_s on {SG} and {KJ}"),
    "trace.overhead_s": ("s", "lower", "nothing: traced wall_norm_s minus the untraced median"),
    "trace.spans": ("count", "lower", "nothing: spans recorded in the traced run"),
    "host.wall_s": ("s", "lower", "nothing: wall_norm_s before scaling by the canary"),
    "host.cpu_s": ("s", "lower", "nothing: cpu_norm_s before scaling by the canary"),
    "host.setup_s": ("s", "lower", "nothing: setup_s before scaling by the canary"),
    "host.canary_ms": ("ms", "lower", "nothing: host speed, the divisor of every scaled time"),
}


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return num / den * scale if den else 0.0


def layer_metrics(layers: dict, import_s: float, wall_s: float, overhead_s: float, evaluation: dict) -> dict:
    """Per-layer metrics of one traced run, keyed as in MOVES, but for the host.* ones.

    wall_s is the run's measured wall time, overhead_s its scaled wall time
    minus the untraced median, and evaluation holds the rows of the run's
    evaluation.csv by method.
    """
    spans, c = layers["spans"], defaultdict(float, layers["counters"])

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    def total(name):
        return spans.get(name, {}).get("total_s", 0.0)

    def own(name):
        return spans.get(name, {}).get("self_s", 0.0)

    stages = ("load", "stage1", "stage2", "fits", "full_predictive", "surface", "evaluate")
    m = {f"pipeline.{s}_s": total(f"pipeline.{s}") for s in stages}
    m["pipeline.import_s"] = import_s
    m["pipeline.unstaged_s"] = wall_s - import_s - sum(m[f"pipeline.{s}_s"] for s in stages)
    m.update(
        {
            "downscaler.fit_calls": calls("downscaler.fit"),
            "downscaler.sweeps": int(c["downscaler.sweeps"]),
            "downscaler.sweep_ms": _ratio(total("downscaler.sweep"), c["downscaler.sweeps"], 1e3),
            "downscaler.fit_self_s": own("downscaler.fit") + own("downscaler.sweep"),
            "downscaler.theta_accept": _ratio(c["downscaler.theta_accepted"], c["downscaler.theta_tried"]),
            "downscaler.predict_calls": calls("downscaler.predict"),
            "downscaler.predict_s": total("downscaler.predict"),
            "downscaler.predict_us_per_target_sample": _ratio(
                total("downscaler.predict"), c["downscaler.target_samples"], 1e6
            ),
            "ensemble.fit_s": total("ensemble.fit"),
            "ensemble.iter_ms": _ratio(total("ensemble.fit"), c["ensemble.iters"], 1e3),
            "ensemble.update_q_calls": calls("ensemble.update_q"),
            "ensemble.q_accept": _ratio(c["ensemble.q_accepted"], c["ensemble.q_tried"]),
            "ensemble.rho_accept": _ratio(c["ensemble.rho_accepted"], calls("ensemble.update_rho")),
            "ensemble.update_rho_s": total("ensemble.update_rho"),
            "ensemble.krige_s": total("ensemble.krige"),
            "ensemble.krige_us_per_target_sample": _ratio(
                total("ensemble.krige"), c["ensemble.krige_target_samples"], 1e6
            ),
            "ensemble.mixq_rows": int(c["ensemble.mixq_rows"]),
            "ensemble.mixq_s": total("ensemble.mixq"),
            "ensemble.mixture_quantile_calls": calls("ensemble.mixture_quantile"),
            "kernels.chol_calls": calls("kernels.chol"),
            "kernels.chol_s": total("kernels.chol"),
            "kernels.jitter_events": int(c["kernels.jitter_events"]),
            "kernels.tridiag_calls": calls("kernels.tridiag"),
            "kernels.tridiag_s": total("kernels.tridiag"),
            "kernels.trsm_calls": calls("kernels.trsm"),
            "kernels.trsm_s": total("kernels.trsm"),
            "kernels.trsm_gflop": c["kernels.trsm_flop"] * 1e-9,
            "kernels.trsm_gflops": _ratio(c["kernels.trsm_flop"] * 1e-9, total("kernels.trsm")),
            "kernels.cho_solve_calls": calls("kernels.cho_solve"),
            "kernels.cho_solve_s": total("kernels.cho_solve"),
            "crossval.evaluate_rows": int(c["crossval.evaluate_rows"]),
            "crossval.evaluate_s": total("crossval.evaluate"),
            "crossval.evaluate_us_per_row": _ratio(total("crossval.evaluate"), c["crossval.evaluate_rows"], 1e6),
            "crossval.fused_rmse": evaluation["ensemble"]["rmse"],
            "crossval.fused_cov95_gap": abs(evaluation["ensemble"]["coverage95"] - 95.0),
            "io.load_s": total("io.load"),
            "io.emit_s": total("io.emit") + total("io.save_json"),
            "io.bytes_written": int(c["io.bytes_written"]),
            "trace.overhead_s": overhead_s,
            "trace.spans": layers["n_spans"],
        }
    )
    return m
