"""Child process of the benchmark: one pmfusion run, or one set-up measurement.

    python3 launch.py load CONFIG
        import pmfusion and run the pipeline's load stage on CONFIG.
    python3 launch.py run INFO [SPANS RUN_ID] -- ARGS...
        import pmfusion, then run `python -m pmfusion ARGS...` in this
        process. With SPANS, every function in tracing.TARGETS is wrapped
        first and the spans are written to SPANS at the end. INFO receives
        the timings as JSON.
    python3 launch.py canary OUT
        the host-speed canary: until killed or orphaned, time a fixed kernel in thread
        CPU time every CANARY_PERIOD_S and append "monotonic_s ms" to OUT.

The parent puts the absolute source path on PYTHONPATH and caps every BLAS
pool at one thread before starting this process.
"""

import json
import os
import runpy
import sys
import time
from pathlib import Path

CANARY_PERIOD_S = 0.05


def canary(out_path: str) -> None:
    """Sample the host's speed while the benchmark's children run beside it.

    The kernel is a 63x63 Cholesky plus a 63x2,000 triangular solve on fixed
    inputs, about 5% of one core at this period. Its thread CPU time leaves
    out the time this process waits for the CPU it shares with the measured
    child, and keeps the slowdown that other tenants of the host cause.
    """
    import numpy as np
    from scipy.linalg import solve_triangular

    rng = np.random.default_rng(0)
    xy = rng.uniform(0.0, 100.0, size=(63, 2))
    d = np.sqrt(((xy[:, None, :] - xy[None, :, :]) ** 2).sum(-1))
    c = np.exp(-d / 30.0) + 1e-6 * np.eye(63)
    b = rng.standard_normal((63, 2_000))
    parent = os.getppid()
    with open(out_path, "w") as fh:
        while os.getppid() == parent:  # a benchmark that was killed leaves no canary behind
            t0 = time.thread_time_ns()
            solve_triangular(np.linalg.cholesky(c), b, lower=True)
            ms = (time.thread_time_ns() - t0) * 1e-6
            fh.write(f"{time.monotonic():.6f} {ms:.6f}\n")
            fh.flush()
            time.sleep(CANARY_PERIOD_S)


def run(info_path: str, spans_path: str | None, run_id: str | None, argv: list[str]) -> int:
    t0 = time.perf_counter()
    import pmfusion.cli  # noqa: F401  numpy, scipy and the package, as `-m pmfusion` loads them

    import_s = time.perf_counter() - t0
    tracer = None
    if spans_path is not None:
        from tracing import Tracer

        tracer = Tracer(run_id)
        tracer.install()
    sys.argv = ["pmfusion", *argv]
    t0 = time.perf_counter()
    try:
        runpy.run_module("pmfusion", run_name="__main__", alter_sys=True)
        code = 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    main_s = time.perf_counter() - t0
    info = {
        "exit_code": code,
        "import_s": import_s,
        "main_s": main_s,
    }
    if tracer is not None:
        t0 = time.perf_counter()
        info["layers"] = tracer.layer_totals()
        tracer.write(spans_path)
        info["export_s"] = time.perf_counter() - t0
    Path(info_path).write_text(json.dumps(info))
    return code


def load(config: str) -> int:
    from pmfusion.pipeline import _load_inputs, load_pipeline_config

    _load_inputs(load_pipeline_config(config))
    return 0


if __name__ == "__main__":
    mode, rest = sys.argv[1], sys.argv[2:]
    if mode == "load":
        sys.exit(load(rest[0]))
    if mode == "canary":
        canary(rest[0])
    sep = rest.index("--")
    head, tail = rest[:sep], rest[sep + 1 :]
    spans, run_id = (head[1], head[2]) if len(head) == 3 else (None, None)
    sys.exit(run(head[0], spans, run_id, tail))
