"""Benchmark for maskcheck: run from the root of a checkout.

    python3 perfbench/run.py [--workload NAME|all] [--seed N]
                             [--seconds S] [--trace 0|1]

Each workload runs in its own fresh single-threaded process
(worker.py). The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`: with --trace 0 the
end-to-end metrics setup_s, verify_s and peak_rss_mb, with --trace 1
the per-layer table. setup_s is the median over SETUP_PROBES extra
processes that only set up, plus the measuring process itself. With
--workload all every workload runs in turn and the metric names carry
the workload as a prefix.

maskcheck is taken from src/ of the checkout; the smt workload uses
tests/fragment_solver.py as its solver. Temporary files and traced
spans go to .perfbench/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shlex
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SETUP_PROBES = 6
UNITS = {"setup_s": "s", "verify_s": "s", "peak_rss_mb": "MB"}


def _unit(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def _spawn(args: list[str], env: dict, timeout: float) -> dict:
    """Run the worker once; returns the JSON of its last output line."""
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args, "--t0", repr(t0)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, timeout=timeout,
        text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker {' '.join(args)} exited with "
                           f"{proc.returncode}")
    return json.loads(lines[-1])


def run_workload(name, seed, seconds, trace, env, solver, scratch) -> dict:
    common = ["--workload", name, "--seed", str(seed),
              "--seconds", str(seconds)]
    if solver is not None:
        common += ["--solver", solver]
    setups = []

    def probe():
        # half before and half after the measuring process, so that
        # setup_s samples the machine over the whole run
        for _ in range(SETUP_PROBES // 2):
            setups.append(_spawn(common + ["--setup-only"], env,
                                 60)["setup_s"])

    extra = ["--trace", str(trace)]
    if trace:
        extra += ["--spans", str(scratch / f"spans-{name}-{seed}.json")]
    else:
        probe()
    out = _spawn(common + extra, env, 3 * seconds + 120)
    metrics = dict(out["metrics"])
    if not trace:
        probe()
        setups.append(out["setup_s"])
        metrics = {"setup_s": statistics.median(setups), **metrics}
    return {"correct": out["correct"], "attempted": out["attempted"],
            "failed": out["failed"],
            "metrics": {k: {"value": v, "unit": _unit(k)}
                        for k, v in metrics.items()}}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all",
                    choices=["all", *WORKLOADS])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "maskcheck" / "__init__.py").is_file():
        print(f"perfbench: no maskcheck sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    solver = None
    if any(WORKLOADS[n].engine == "smt" for n in names):
        fragment = ROOT / "tests" / "fragment_solver.py"
        if not fragment.is_file():
            print(f"perfbench: solver {fragment} is missing",
                  file=sys.stderr)
            return 2
        solver = f"{shlex.quote(sys.executable)} {shlex.quote(str(fragment))}"
        print(f"solver: {solver}")

    scratch = ROOT / ".perfbench"
    tmp = scratch / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(tmp),
               PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds,
                                         args.trace, env, solver, scratch)
    except (RuntimeError, subprocess.TimeoutExpired) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    for name, res in results.items():
        cells = "  ".join(f"{k}={m['value']:.6g}{m['unit']}"
                          for k, m in res["metrics"].items())
        print(f"{name}: attempted={res['attempted']} failed={res['failed']} "
              f"correct={res['correct']}  {cells}")
    if len(results) == 1:
        print(json.dumps(results[names[0]]))
        return 0
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{n}.{k}": m for n, r in results.items()
                    for k, m in r["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
