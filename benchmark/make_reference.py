"""Write the per-verdict SHA-256 reference digests of every workload.

Run from the root of a checkout whose output is the reference:

    python3 benchmark/make_reference.py            # every workload, seeds 0 and 2208

A later commit must reproduce these digests byte for byte; regenerate them
only when the output format is meant to change.
"""

from __future__ import annotations

import argparse
import json
import sys

from harness import OUT_DIR, REFERENCE_SEEDS, WORKLOADS, digests, reference_path, run_pass


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), action="append")
    args = ap.parse_args(argv)
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    for workload in args.workload or list(WORKLOADS):
        for seed in REFERENCE_SEEDS:
            p = run_pass(WORKLOADS[workload], seed, OUT_DIR / f"reference-{workload}.json")
            if p.text is None or any(s != "proven" for s in p.statuses):
                print(f"{workload} seed {seed}: not every verdict is proven", file=sys.stderr)
                return 1
            if len(digests(p.text)) != len(p.statuses):
                print(f"{workload} seed {seed}: output and verdicts disagree", file=sys.stderr)
                return 1
            ref = {
                "workload": workload,
                "argv": WORKLOADS[workload],
                "oracle_seed": seed,
                "verdicts": len(p.statuses),
                "digests": digests(p.text),
            }
            path = reference_path(workload, seed)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(ref, indent=0) + "\n", encoding="utf-8")
            print(f"{path.name}: {len(p.statuses)} verdicts in {p.wall:.2f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
