"""The ellchain benchmark: one workload, measured end to end or per layer.

Run from the root of a checkout:

    python3 benchmark/run.py --workload petri-grid --seed 0 --seconds 30 --trace 0

``--seed`` is forwarded to the CLI as the oracle ``--seed``.  With
``--trace 0`` the run reports the end-to-end metrics, including ``setup_s``
(median over fresh interpreters that import ``ellchain.cli`` and build its
parser); with ``--trace 1`` it reports the per-layer metrics of a traced run.
The workload runs in a child process (``harness.py``) so that its peak RSS
is its own.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from calibrate import speed_factor

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SETUP_RUNS = 15
CHILD_TIMEOUT_S = 170

SETUP_CODE = (
    "import sys, time; sys.path.insert(0, 'src'); t = time.perf_counter(); "
    "import ellchain.cli; ellchain.cli.build_parser(); "
    "print(time.perf_counter() - t)"
)


def setup_seconds() -> float:
    """Median set-up time over fresh interpreters, after one that byte-compiles.

    Each time is scaled by the speed factors measured just before and after it.
    """
    def once() -> float:
        before = speed_factor()
        done = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, check=True,
                              capture_output=True, text=True, timeout=60)
        return float(done.stdout) * (before + speed_factor()) / 2

    once()
    return statistics.median(once() for _ in range(SETUP_RUNS))


def environment() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="ellchain benchmark")
    ap.add_argument("--workload", required=True, help="a workload of harness.py")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "ellchain" / "cli.py").is_file():
        print("error: run from the root of an ellchain checkout (no src/ellchain/cli.py)",
              file=sys.stderr)
        return 2

    env_before = environment()
    setup_s = None if args.trace else setup_seconds()
    child = subprocess.run(
        [sys.executable, str(HERE / "harness.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--trace", str(args.trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S,
    )
    lines = child.stdout.strip().splitlines()
    if child.returncode != 0 or not lines:
        print(f"error: workload process exited with {child.returncode}", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    metrics = result["metrics"]
    if setup_s is not None:
        metrics["setup_s"] = {"value": setup_s, "unit": "s"}

    info = {k: v for k, v in result.items()
            if k not in ("correct", "attempted", "failed", "metrics")}
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  {json.dumps(info)}")
    print(f"environment before {json.dumps(env_before)}  after {json.dumps(environment())}")
    wall = metrics.get("trace.wall_s", {}).get("value")
    for name, m in metrics.items():
        share = f"{m['value'] / wall:7.1%} of traced wall" if wall and name.endswith("self_s") else ""
        print(f"  {name:<46} {m['value']:>14.6g} {m['unit']:<6} {share}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
