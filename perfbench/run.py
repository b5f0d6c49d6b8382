"""fedring benchmark: end-to-end and per-layer cost of the paper's three
layers, with correctness gates. See perfbench/README.md.

    python3 perfbench/run.py --workload fedsgd-socket --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout and uses the library under src/.
Each repetition runs in a fresh leader process (perfbench/leader.py);
repetitions continue until --seconds have passed. With --trace 1, half the
time goes to untraced repetitions and one traced repetition follows, which
gives the per-layer figures and the tracing overhead.

Prints a context line, then as the last line one JSON object with the keys
correct, attempted, failed and metrics. The metric names and units are the
ones BENCHMARK.json at the checkout root declares.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gates

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REP_TIMEOUT_S = 100  # a run of 40 s plus one hung repetition stays under 180 s

WORKLOADS = {
    "fedsgd-socket": "loopback TCP to 2 `fedring worker` processes",
    "dp-calibrated": "in-process virtual workers (alice, bob)",
    "mpc-infer": "in-process virtual workers (alice, bob, dealer)",
}
def run_rep(workload: str, seed: int, trace: bool) -> dict:
    """One repetition in a fresh leader process group; the group is killed
    afterwards so no worker outlives the repetition."""
    cmd = [sys.executable, str(HERE / "leader.py"), "--workload", workload,
           "--seed", str(seed)]
    if trace:
        cmd.append("--trace")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, env=env, cwd=ROOT,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    sys.stderr.write(err)
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = {}
    if proc.returncode != 0 or not result.get("step_ms"):
        # a repetition that died, or completed no step, has no figures; it
        # counts as at least one failed operation
        return {"attempted": result.get("attempted", 1), "failed": max(result.get("failed", 1), 1)}
    return result


def end_to_end(reps: list) -> dict:
    """Each figure is taken per repetition, then the median over repetitions
    is reported, so a repetition hit by a burst of host noise moves it
    little. Every repetition has >= 100 steps, so its p90 has >= 10 samples
    beyond it."""
    def per_rep(fn):
        return statistics.median(fn(r) for r in reps)

    return {
        "setup_s": per_rep(lambda r: r["setup_s"]),
        "job_s": per_rep(lambda r: r["job_s"]),
        "examples_per_s": per_rep(lambda r: r["rows"] / r["loop_s"]),
        "step_p50_ms": per_rep(lambda r: statistics.median(r["step_ms"])),
        "step_p90_ms": per_rep(
            lambda r: statistics.quantiles(r["step_ms"], n=10, method="inclusive")[8]),
        "peak_rss_mb": per_rep(lambda r: r["peak_rss_mb"]),
    }


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=tuple(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    if not (ROOT / "src" / "fedring" / "__init__.py").is_file():
        print(f"perfbench: no fedring sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        gates.selftest()
    except RuntimeError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1

    start = time.perf_counter()
    budget = args.seconds / 2 if args.trace else args.seconds
    reps, attempted, failed = [], 0, 0
    while True:
        rep = run_rep(args.workload, args.seed, trace=False)
        attempted += rep["attempted"]
        failed += rep["failed"]
        if "step_ms" in rep:
            reps.append(rep)
        if time.perf_counter() - start >= budget:
            break
    traced = None
    if args.trace:
        traced = run_rep(args.workload, args.seed, trace=True)
        attempted += traced["attempted"]
        failed += traced["failed"]
    if not reps or (traced is not None and "step_ms" not in traced):
        print("perfbench: no repetition completed", file=sys.stderr)
        return 1

    if args.trace:
        values = dict(traced["layers"])
        values["trace.overhead_frac"] = (
            traced["job_s"] / statistics.median(r["job_s"] for r in reps) - 1.0)
        declared = spec["per_layer"]
    else:
        values = end_to_end(reps)
        declared = spec["end_to_end"]
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "transport": WORKLOADS[args.workload] + "; no real network link is measured",
        "loop": "closed, 1 leader process with 1 thread, 1 request in flight",
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "repetitions": len(reps),
        "steps_per_repetition": [len(r["step_ms"]) for r in reps],
        "percentile_samples_per_repetition": min(len(r["step_ms"]) for r in reps),
        "max_err_ulps": max(r["max_err_ulps"] for r in reps),
    }
    print(json.dumps({"context": context}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
