"""Self-test of the benchmark harness at reduced size.

Run from the root of a checkout (a few seconds):

    python3 benchmark/selftest.py

On ``petri --sweep --g 2..4 --r 1..2`` it checks that a flipped byte, a
non-proven status and a failed CLI call each count as failed verdicts, that
tracing changes no byte of the output, that the traced self times sum to the
traced wall within the tracing overhead, that a missing entry point makes its
layer absent, and that rewriting the oracle seed list maps the held-out seed's
output onto the default seed's.  It also checks the committed references.
"""

from __future__ import annotations

import json
import sys

from harness import (
    OUT_DIR,
    REFERENCE_SEEDS,
    Tracer,
    digests,
    failed_verdicts,
    normalise_seed,
    per_layer,
    pipelines,
    reference_path,
    run_pass,
    traced_pass,
)

MINI = ["petri", "--sweep", "--g", "2..4", "--r", "1..2"]
REFERENCE_VERDICTS = {"petri-grid": 2493, "endo-grid": 63, "endo-large": 5}

failures = 0


def check(ok: bool, what: str) -> None:
    global failures
    failures += not ok
    print(f"{'ok  ' if ok else 'FAIL'} {what}")


def main() -> int:
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    out = OUT_DIR / "selftest-out.json"
    seed, held_out = REFERENCE_SEEDS

    run_pass(MINI, seed, out)  # warm-up, so the untraced wall is not a cold one
    plain = run_pass(MINI, seed, out)
    n = len(plain.statuses)
    check(n > 0 and set(plain.statuses) == {"proven"}, f"mini sweep proves all {n} verdicts")
    expected = digests(plain.text)
    check(len(expected) == n, "one digest per admitted verdict")
    check(failed_verdicts(plain.text, plain.statuses, seed, seed, expected) == 0,
          "an unchanged pass has no failed verdict")

    at = plain.text.index('"product_count": ', len(plain.text) // 2) + len('"product_count": ')
    flipped = plain.text[:at] + chr(ord(plain.text[at]) ^ 1) + plain.text[at + 1:]
    check(failed_verdicts(flipped, plain.statuses, seed, seed, expected) == 1,
          "one flipped byte fails exactly one verdict")
    check(failed_verdicts(plain.text, ["not-proven"] + plain.statuses[1:], seed, seed,
                          expected) == 1, "a status other than proven fails its verdict")
    check(failed_verdicts(None, [], seed, seed, expected) == n,
          "a nonzero exit fails every verdict")

    tracer = Tracer()
    traced = traced_pass(MINI, seed, out, tracer)
    check(traced.text == plain.text, "the JSON is byte-identical with and without tracing")
    check(not tracer.absent, "every layer is present")
    selfs, calls = tracer.self_times()
    overhead = traced.wall - plain.wall
    gap = abs(sum(selfs.values()) - traced.wall)
    check(gap <= abs(overhead),
          f"self times sum to the traced wall within the overhead ({gap:.2e} s <= "
          f"{abs(overhead):.2e} s)")
    check(calls["chain.validate_lls"] == 4 * n, "validate_lls runs 4 times per petri verdict")
    check(calls["independence.OracleConfig"] == 3 * n, "OracleConfig is built 3 times per verdict")

    saved = pipelines.endo_build
    del pipelines.endo_build
    try:
        missing = Tracer()
        missing.install()
        missing.uninstall()
    finally:
        pipelines.endo_build = saved
    layers = per_layer(missing, [traced], [plain], 0) if missing.absent else {}
    check(missing.absent == ["pipelines.build"] and "pipelines.build.self_s" not in layers,
          "a missing entry point makes its layer absent, not zero")

    other = run_pass(MINI, held_out, out)
    check(other.text != plain.text and normalise_seed(other.text, held_out, seed) == plain.text,
          f"seed {held_out} output equals seed {seed} output once the seed list is rewritten")

    for workload, count in REFERENCE_VERDICTS.items():
        for s in REFERENCE_SEEDS:
            ref = json.loads(reference_path(workload, s).read_text(encoding="utf-8"))
            check(ref["verdicts"] == len(ref["digests"]) == count,
                  f"reference {workload} seed {s} has {count} verdicts")
    print("selftest", "passed" if not failures else f"failed {failures} checks")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
