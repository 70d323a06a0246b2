"""Self-check of the benchmark harness at a tiny size (about half a minute).

    python3 perfbench/selfcheck.py

Runs kfold-joint and spatial-two-stage on a 12-monitor, 30-day scene with
two rounds of an untraced and a traced run each, and checks that
  1. the traced and untraced runs write byte-identical artifacts;
  2. the spans nest and every self time is >= 0;
  3. downscaler.fit_calls = 2 * (folds + 1);
  4. ensemble.update_q_calls is the ensemble n_iter for joint, 0 for two_stage;
  5. one command prints every metric of BENCHMARK.json with its unit,
     and BENCHMARK.json declares exactly the metrics the harness computes;
  6. without the pmfusion sources the benchmark exits non-zero and prints
     no result.
Exits 0 when all hold.
"""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from tracing import MOVES, check_spans  # noqa: E402


def declared_metrics() -> tuple[dict, dict]:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]}
    layers = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    return e2e, layers


def check_workload(name: str, failures: list) -> None:
    w = run.tiny(run.WORKLOADS[name])
    result = run.bench(name, seed=7, seconds=0, trace=True, small=True)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        run.report(result)
    print(out.getvalue(), end="")

    def expect(ok: bool, what: str) -> None:
        print(f"[{'ok' if ok else 'FAIL'}] {name}: {what}")
        if not ok:
            failures.append(f"{name}: {what}")

    runs = result["runs"]
    expect(result["correct"] and not any(r["problems"] for r in runs), "every run passes its checks")
    digests = {r.get("digest") for r in runs}
    expect(len(runs) == 4 and len(digests) == 1 and None not in digests, "traced and untraced artifacts identical")
    spans = Path(result["work_dir"]) / "run0-traced.spans.json"
    problems = check_spans(spans)
    expect(not problems, f"spans nest with self time >= 0 {problems[:3]}")
    m = result["metrics"]
    folds = w.n_folds if w.derivation == "kfold" else w.sites
    expect(m.get("downscaler.fit_calls") == 2 * (folds + 1), f"fit_calls {m.get('downscaler.fit_calls')} = 2*({folds}+1)")
    want_q = w.ensemble[0] if w.variant == "joint" else 0
    expect(m.get("ensemble.update_q_calls") == want_q, f"update_q_calls {m.get('ensemble.update_q_calls')} = {want_q}")
    e2e, layers = declared_metrics()
    printed = {tuple(line.split()[::2]) for line in out.getvalue().splitlines() if len(line.split()) == 3}
    missing = [n for n, (unit, _) in {**e2e, **layers}.items() if (n, unit) not in printed]
    expect(not missing, f"report prints every declared metric with its unit {missing[:3]}")
    expect(set(m) == set(e2e) | set(layers), "computed metrics are exactly the declared ones")


def main() -> int:
    for var in run.THREAD_VARS:
        os.environ[var] = "1"
    failures = []
    e2e, layers = declared_metrics()
    if e2e != run.E2E or layers != {k: v[:2] for k, v in MOVES.items()}:
        failures.append("BENCHMARK.json and the harness disagree on metric names, units or directions")
    for name in ("kfold-joint", "spatial-two-stage"):
        check_workload(name, failures)

    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "kfold-joint", "--seed", "1", "--seconds", "1"],
        cwd=bare,
        capture_output=True,
        text=True,
        timeout=60,
    )
    ok = proc.returncode != 0 and '"correct"' not in proc.stdout
    print(f"[{'ok' if ok else 'FAIL'}] without sources: exit {proc.returncode}, no result printed")
    if not ok:
        failures.append("benchmark did not fail without the pmfusion sources")
    shutil.rmtree(bare)

    print("self-check", "FAILED: " + "; ".join(failures) if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
