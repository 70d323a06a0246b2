"""Benchmark of the pmfusion pipeline, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds a synthetic scene from the seed (untimed), writes it as the CSV
bundle plus a pipeline config, then repeats rounds for S seconds. A round
is one set-up measurement (a fresh interpreter imports pmfusion and runs
the load stage) followed by one `python -m pmfusion run-all` in a fresh
single-threaded subprocess; with --trace 1 the run is followed by a traced
one (perfbench/tracing.py), which gives the per-layer metrics and the
tracing overhead. A round is started only if it is expected to end within
S seconds; at least one is made, and two with --trace 1.

All children share one CPU with the host-speed canary (launch.py canary),
which times a fixed kernel every 50 ms. A shared host slows the benchmark
in two ways, and both are taken out: wall times exclude the time the
hypervisor ran other guests on that CPU (steal time, from /proc/stat), and
every timing is scaled by REF_CANARY_MS over the canary's median during
that child, for the slowdown other tenants cause while the CPU is ours.
The unscaled timings are per-layer metrics. Each metric is the median over the rounds. Every
run's artifacts are checked; the last line of standard output is the JSON
result.

Workloads (see README.md for why each exists):
  kfold-joint        63 monitors x 120 days, 10-fold CV, joint ensemble
  surface-grid       63 monitors x 60 days, 2 folds, 80x80 surface on 4 days
  spatial-two-stage  20 monitors x 90 days, leave-one-monitor-out CV,
                     two-stage ensemble
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from tracing import MOVES, check_spans, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
THREAD_VARS = ("PMFUSION_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# the seven files gate 10 compares byte for byte
ARTIFACTS = (
    "cv_predictive.csv",
    "site_weights.csv",
    "weight_samples.csv",
    "full_predictive.csv",
    "weight_surface.csv",
    "surface.csv",
    "evaluation.csv",
)
MANIFEST_ARTIFACTS = {name.removesuffix(".csv") for name in ARTIFACTS}
# a run still going this long after the benchmark started is killed and failed
DEADLINE_S = 170.0
# the canary's time on an idle core of the reference host (2-vCPU Intel Xeon
# at 2.0 GHz); scaled timings read as seconds on that host
REF_CANARY_MS = 2.0
# CPUs this process may use, before a benchmark pins it to one
NPROC = len(os.sched_getaffinity(0))

E2E = {
    "wall_norm_s": ("s", "lower"),
    "cpu_norm_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
    "fused_rmse_ratio": ("ratio", "lower"),
    "fused_cov95_ratio": ("ratio", "higher"),
}


@dataclass(frozen=True)
class Workload:
    sites: int
    days: int
    derivation: str
    n_folds: int
    variant: str
    downscaler: tuple  # n_iter, burn_in, thin
    ensemble: tuple
    grid: tuple  # cell_km, n_rows, n_cols of the target grid
    surface_days: tuple


WORKLOADS = {
    "kfold-joint": Workload(63, 120, "kfold", 10, "joint", (40, 20, 2), (1500, 750, 5), (10.0, 10, 10), (45,)),
    "surface-grid": Workload(
        63, 60, "kfold", 2, "joint", (40, 20, 2), (1000, 500, 20), (1.25, 80, 80), (10, 25, 40, 55)
    ),
    "spatial-two-stage": Workload(
        20, 90, "spatial", 2, "two_stage", (40, 20, 2), (1500, 750, 5), (10.0, 10, 10), (45,)
    ),
}


def tiny(w: Workload) -> Workload:
    """The same workload at a size that runs in seconds, for the self-check."""
    return Workload(
        12, 30, w.derivation, 2, w.variant, (20, 10, 2), (200, 100, 4), (10.0, 10, 10), (15,)
    )


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def make_inputs(w: Workload, seed: int, inputs: Path, work: Path) -> tuple[Path, dict]:
    """Scene and CSV bundle under INPUTS, config under WORK; returns the config path and expected counts.

    The artifacts carry a digest of the config, input paths included, so
    INPUTS must not depend on --trace for the artifacts of a traced and an
    untraced invocation of one seed to compare equal.
    """
    import numpy as np
    from pmfusion import io as pio
    from pmfusion.config import MCMCConfig
    from pmfusion.geo import CTM, SAT, GridSpec
    from pmfusion.pipeline import PipelineConfig, save_pipeline_config
    from pmfusion.synth import SceneConfig, generate_scene

    scene = SceneConfig(
        n_sites=w.sites,
        n_days=w.days,
        seed=seed,
        ctm_grid=GridSpec(-12.0, -12.0, 12.0, 11, 11, CTM),
        sat_grid=GridSpec(0.0, 0.0, 4.0, 25, 25, SAT),
    )
    truth = generate_scene(scene)
    paths = pio.export_scene(truth, inputs, grid_days=list(w.surface_days))
    cell, rows, cols = w.grid
    cfg = PipelineConfig(
        monitors=str(paths["monitors"]),
        obs=str(paths["obs"]),
        grid_ctm=str(paths["grid_ctm"]),
        ctm_grid=scene.ctm_grid,
        out_dir=str(work / "runs"),
        grid_sat=str(paths["grid_sat"]),
        sat_grid=scene.sat_grid,
        covariates=str(paths["covariates"]),
        target_grid=GridSpec(0.0, 0.0, cell, rows, cols),
        n_days=w.days,
        variant=w.variant,
        derivation=w.derivation,
        n_folds=w.n_folds,
        downscaler_mcmc=MCMCConfig(*w.downscaler),
        ensemble_mcmc=MCMCConfig(*w.ensemble),
        surface_days=w.surface_days,
        seed=seed,
    )
    obs = truth.obs
    expected = {
        "ctm": int(np.isfinite(obs.x_ctm).sum()),
        "sat": int(np.isfinite(obs.x_sat).sum()),
        "ensemble": obs.n_records,
        "surface_cells": len(w.surface_days) * rows * cols,
        "surface_days": sorted(w.surface_days),
    }
    return save_pipeline_config(work / "config.json", cfg), expected


def steal_s() -> float:
    """Seconds the hypervisor has kept this process's CPUs from running, from /proc/stat."""
    cpus = {f"cpu{i}" for i in os.sched_getaffinity(0)}
    try:
        with open("/proc/stat") as fh:
            ticks = sum(int(f[8]) for f in map(str.split, fh) if f[0] in cpus and len(f) > 8)
    except OSError:
        return 0.0
    return ticks / os.sysconf("SC_CLK_TCK")


def launch(args: list, log: Path, deadline: float) -> tuple[float, float, float, int, tuple]:
    """Run launch.py with ARGS.

    Returns wall s less the CPU's steal time, cpu s, peak RSS MiB, the exit
    code and the (start, end) of the run on the monotonic clock the canary
    stamps its samples with.
    """
    with open(log, "wb") as fh:
        stolen = steal_s()
        m0, t0 = time.monotonic(), time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "launch.py"), *map(str, args)],
            env=child_env(),
            stdout=fh,
            stderr=subprocess.STDOUT,
            cwd=ROOT,
        )
        timer = threading.Timer(max(deadline - time.monotonic(), 1.0), proc.send_signal, (signal.SIGKILL,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
        span = (m0, time.monotonic())
        wall -= steal_s() - stolen
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, proc.returncode, span


@contextlib.contextmanager
def host_canary(path: Path, deadline: float):
    """Run the canary beside the block; yields a function that reads its samples."""
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "launch.py"), "canary", str(path)],
        env=child_env(),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        cwd=ROOT,
    )
    try:
        while len(read_canary(path)) < 5:
            if proc.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError(f"the host canary did not start (exit code {proc.poll()})")
            time.sleep(0.05)
        yield lambda: read_canary(path)
    finally:
        proc.terminate()
        proc.wait()


def read_canary(path: Path) -> list[tuple[float, float]]:
    """The canary's (monotonic s, ms) samples; a line cut short by the kill is skipped."""
    if not path.exists():
        return []
    samples = []
    for line in path.read_text().splitlines():
        parts = line.split()
        if len(parts) == 2:
            samples.append((float(parts[0]), float(parts[1])))
    return samples


def canary_ms(samples: list, span: tuple) -> float:
    """Median canary ms during SPAN, or of the five samples nearest it if fewer fall inside."""
    t0, t1 = span
    inside = [ms for t, ms in samples if t0 <= t <= t1]
    if len(inside) < 5:
        mid = (t0 + t1) / 2
        inside = [ms for _, ms in sorted(samples, key=lambda s: abs(s[0] - mid))[:5]]
    return statistics.median(inside)


def read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


def artifact_digest(run_dir: Path) -> str:
    h = hashlib.sha256()
    for name in ARTIFACTS:
        p = run_dir / name
        if p.exists():
            h.update(name.encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def check_run(out_dir: Path, code: int, expected: dict) -> tuple[list[str], dict]:
    """Problems with one run's artifacts, and the facts read from them."""
    if code != 0:
        return [f"exit code {code}"], {}
    try:
        return _check_artifacts(out_dir, expected)
    except (OSError, ValueError, KeyError) as exc:
        return [f"unreadable artifacts: {exc!r}"], {}


def _check_artifacts(out_dir: Path, expected: dict) -> tuple[list[str], dict]:
    run_dirs = list(out_dir.glob("run_*"))
    if len(run_dirs) != 1:
        return [f"expected one run directory, found {len(run_dirs)}"], {}
    run_dir = run_dirs[0]
    problems = []
    manifest = json.loads((run_dir / "manifest.json").read_text())
    if manifest.get("status") != "complete":
        problems.append(f"manifest status {manifest.get('status')!r}")
    listed = set(manifest.get("artifacts", {}))
    if listed != MANIFEST_ARTIFACTS:
        problems.append(f"manifest lists {sorted(listed)}")
    problems += [f"missing {name}" for name in ARTIFACTS if not (run_dir / name).is_file()]
    if problems:
        return problems, {}
    rows = {r["method"]: r for r in read_csv(run_dir / "evaluation.csv")}
    if set(rows) != {"ctm", "sat", "ensemble"}:
        problems.append(f"evaluation rows {sorted(rows)}")
    evaluation = {
        method: {k: float(row[k] or "nan") for k in ("n_pairs", "rmse", "coverage95", "avg_posterior_sd", "r2")}
        for method, row in rows.items()
    }
    for method, values in evaluation.items():
        if not all(math.isfinite(v) for v in values.values()):
            problems.append(f"evaluation row {method} is not finite")
        if values["n_pairs"] != expected.get(method):
            problems.append(f"evaluation {method} n_pairs {values['n_pairs']:.0f} != {expected.get(method)}")
    surface = read_csv(run_dir / "surface.csv")
    days = sorted({int(r["day"]) for r in surface})
    if len(surface) != expected["surface_cells"] or days != expected["surface_days"]:
        problems.append(f"surface has {len(surface)} cells on days {days}")
    return problems, {
        "digest": artifact_digest(run_dir),
        "timings_s": manifest.get("timings_s", {}),
        "evaluation": evaluation,
    }


def one_run(work: Path, config: Path, index: int, traced: bool, expected: dict, deadline: float, run_id: str) -> dict:
    name = f"run{index}{'-traced' if traced else ''}"
    out_dir, info_path = work / name, work / f"{name}.info.json"
    head = [info_path] + ([work / f"{name}.spans.json", run_id] if traced else [])
    wall, cpu, rss, code, span = launch(
        ["run", *head, "--", "run-all", "--config", config, "--out-dir", out_dir],
        work / f"{name}.log",
        deadline,
    )
    info = json.loads(info_path.read_text()) if info_path.exists() else {}
    # writing the spans is the benchmark's own work
    wall -= info.get("export_s", 0.0)
    problems, facts = check_run(out_dir, code, expected)
    if traced and not problems:
        problems += check_spans(work / f"{name}.spans.json")
    return {
        "name": name,
        "traced": traced,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": rss,
        "span": span,
        "import_s": info.get("import_s"),
        "problems": problems,
        "layers": info.get("layers"),
        **facts,
    }


def environment(digest: str | None) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # the layout of show_config differs across numpy versions
        blas = "unknown"
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"], capture_output=True, text=True
        )
        commit = proc.stdout.strip() or None
    lines = sum(len(p.read_text().splitlines()) for p in sorted((SRC / "pmfusion").glob("*.py")))
    return {
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "python": sys.version.split()[0],
        "nproc": NPROC,
        "pinned_cpu": min(os.sched_getaffinity(0)),
        "threads": {var: child_env()[var] for var in THREAD_VARS},
        "git_commit": commit,
        "src_lines": lines,
        "artifacts_sha256": digest,
    }


def config_hash(w: Workload) -> str:
    return hashlib.sha256(repr(w).encode()).hexdigest()[:16]


def code_hash() -> str:
    h = hashlib.sha256()
    for p in sorted((SRC / "pmfusion").rglob("*.py")):
        h.update(str(p.relative_to(SRC)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()[:16]


def remembered_digest(key: str, digest: str) -> str:
    """The artifact digest first seen for this code, workload and seed."""
    path = OUT / "digests" / f"{key}.sha256"
    path.parent.mkdir(parents=True, exist_ok=True)
    if not path.exists():
        path.write_text(digest)
    return path.read_text().strip()


def bench(workload: str, seed: int, seconds: float, trace: bool, small: bool = False) -> dict:
    """Run one benchmark invocation and return its full result record."""
    start = time.monotonic()
    deadline = start + DEADLINE_S
    w = WORKLOADS[workload]
    if small:
        w = tiny(w)
    key = f"{workload}{'-tiny' if small else ''}-s{seed}-t{int(trace)}"
    work, inputs = OUT / key, OUT / "inputs" / key[:-3]
    for d in (work, inputs):
        shutil.rmtree(d, ignore_errors=True)
    work.mkdir(parents=True)
    config, expected = make_inputs(w, seed, inputs, work)
    # every child and the canary share one CPU, so the canary sees what the child sees
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    # Set-up and runs alternate, so that both medians sample the same
    # stretch of host time; a round that would end past `seconds` is not
    # started, so the invocation lasts `seconds` plus the input build.
    # A traced invocation makes two rounds at least, so that the counts of
    # two traced runs can be compared.
    min_rounds = 2 if trace else 1
    setup, runs = [], []
    with host_canary(work / "canary.txt", deadline) as canary_samples:
        t0 = time.perf_counter()
        while True:
            index = len(setup)
            wall, _, _, code, span = launch(["load", config], work / f"setup{index}.log", deadline)
            if code != 0:
                raise RuntimeError(f"set-up run failed; see {work / f'setup{index}.log'}")
            setup.append({"wall_s": wall, "span": span})
            runs.append(one_run(work, config, index, False, expected, deadline, ""))
            if trace:
                runs.append(one_run(work, config, index, True, expected, deadline, f"{key}-r{index}"))
            elapsed = time.perf_counter() - t0
            if time.monotonic() > deadline:
                break
            if len(setup) >= min_rounds and elapsed * (len(setup) + 1) / len(setup) > seconds:
                break
        samples = canary_samples()
    for r in setup + runs:
        r["canary_ms"] = canary_ms(samples, r["span"])
        scale = REF_CANARY_MS / r["canary_ms"]
        r["wall_norm_s"] = r["wall_s"] * scale
        if "cpu_s" in r:
            r["cpu_norm_s"] = r["cpu_s"] * scale

    digests = {r["digest"] for r in runs if "digest" in r}
    digest = digests.pop() if len(digests) == 1 else None
    if len(digests) > 1:
        for r in runs:
            r["problems"].append("artifacts differ between runs of the same code")
    elif digest is not None and digest != remembered_digest(f"{code_hash()}-{key[:-3]}-{config_hash(w)}", digest):
        for r in runs:
            r["problems"].append("artifacts differ from an earlier invocation with this code and seed")

    plain = [r for r in runs if not r["traced"] and not r["problems"]]
    metrics = {}
    if plain:
        ev = plain[0]["evaluation"]
        metrics = {
            "wall_norm_s": statistics.median(r["wall_norm_s"] for r in plain),
            "cpu_norm_s": statistics.median(r["cpu_norm_s"] for r in plain),
            "setup_s": statistics.median(r["wall_norm_s"] for r in setup),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
            "fused_rmse_ratio": ev["ensemble"]["rmse"] / min(ev["ctm"]["rmse"], ev["sat"]["rmse"]),
            "fused_cov95_ratio": ev["ensemble"]["coverage95"] / ev["ctm"]["coverage95"],
        }
    traced = [r for r in runs if r["traced"] and not r["problems"]]
    if plain and traced:
        raw = {
            "host.wall_s": statistics.median(r["wall_s"] for r in plain),
            "host.cpu_s": statistics.median(r["cpu_s"] for r in plain),
            "host.setup_s": statistics.median(r["wall_s"] for r in setup),
            "host.canary_ms": statistics.median(r["canary_ms"] for r in plain),
        }
        per_run = [
            {
                **layer_metrics(
                    r["layers"], r["import_s"], r["wall_s"], r["wall_norm_s"] - metrics["wall_norm_s"], r["evaluation"]
                ),
                **raw,
            }
            for r in traced
        ]
        for name, (unit, _, _) in MOVES.items():
            values = [m[name] for m in per_run]
            if unit in ("count", "bytes"):
                if len(set(values)) > 1:
                    for r in traced:
                        r["problems"].append(f"{name} differs between traced runs: {values}")
                metrics[name] = values[0]
            else:
                metrics[name] = statistics.median(values)
    failed = sum(bool(r["problems"]) for r in runs)
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "small": small,
        "expected": expected,
        "setup_s": setup,
        "runs": runs,
        "attempted": len(runs),
        "failed": failed,
        "correct": failed == 0 and bool(plain) and (bool(traced) or not trace),
        "untraced_targets": sorted({t for r in traced for t in r["layers"]["missing"]}),
        "metrics": metrics,
        "environment": environment(digest),
        "work_dir": str(work),
        "inputs_dir": str(inputs),
        "elapsed_s": time.monotonic() - start,
    }


def units() -> dict:
    return {**{k: v[0] for k, v in E2E.items()}, **{k: v[0] for k, v in MOVES.items()}}


def report(result: dict) -> None:
    """Human-readable lines: each run, every metric with its unit, the environment."""
    for i, r in enumerate(result["setup_s"]):
        print(f"{f'setup{i}':>14}: wall_s={r['wall_s']:.3f} canary_ms={r['canary_ms']:.3f} setup_s={r['wall_norm_s']:.3f}")
    for r in result["runs"]:
        print(
            f"{r['name']:>14}: wall_s={r['wall_s']:.3f} cpu_s={r['cpu_s']:.3f} canary_ms={r['canary_ms']:.3f} "
            f"wall_norm_s={r['wall_norm_s']:.3f} peak_rss_mb={r['peak_rss_mb']:.1f} "
            f"sha256={(r.get('digest') or '-')[:16]} {'; '.join(r['problems']) or 'ok'}"
        )
    if result["untraced_targets"]:
        print(f"warning: the program no longer has {result['untraced_targets']}; their metrics read 0")
    unit_of = units()
    for name, value in result["metrics"].items():
        print(f"{name:>42} {value:>16.6g} {unit_of[name]}")
    print(json.dumps({"environment": result["environment"]}))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "pmfusion" / "__init__.py").is_file():
        print(f"pmfusion sources not found under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    result = bench(args.workload, args.seed, args.seconds, bool(args.trace))
    work = Path(result["work_dir"])
    (work / "result.json").write_text(json.dumps(result, indent=1, default=str))
    report(result)
    if result["correct"]:
        # keep the spans and the result; the scene and artifacts are large
        for p in [Path(result["inputs_dir"]), *work.glob("run*/")]:
            if p.is_dir():
                shutil.rmtree(p)
    names = list(MOVES) if args.trace else list(E2E)
    unit_of = units()
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {
                    n: {"value": result["metrics"][n], "unit": unit_of[n]}
                    for n in names
                    if n in result["metrics"]
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
