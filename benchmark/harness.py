"""Workload runner for the ellchain benchmark.

Runs one workload in this process through the user's entry point,
``ellchain.cli.main([..., "--out", tmp])``, in a closed loop of whole passes
over the workload's sweep (one thread; each verdict starts after the previous
one finishes).  Every pass is checked byte for byte against the committed
per-verdict SHA-256 digests in ``reference/``.

Layers are measured from outside: in a traced pass the public functions are
wrapped as they are bound in the ``ellchain.cli``, ``ellchain.pipelines`` and
``ellchain.serialize`` namespaces, plus ``json.dumps``.  Spans stay in memory
and are written when the run ends.  Untraced passes wrap only the two verdict
functions the CLI calls, to time each verdict.

``run.py`` starts this module as a child process, so that its peak RSS
belongs to one workload; it prints one JSON line of results.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import re
import resource
import statistics
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

ROOT = Path.cwd()
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
OUT_DIR = ROOT / ".bench_out"

sys.path.insert(0, str(ROOT / "src"))

import ellchain.cli as cli  # noqa: E402
import ellchain.pipelines as pipelines  # noqa: E402
import ellchain.serialize as serialize  # noqa: E402
from calibrate import speed_factor  # noqa: E402

#: workload name -> CLI arguments; the names are fixed, results are keyed by them
WORKLOADS = {
    "petri-grid": ["petri", "--sweep", "--g", "2..10", "--r", "1..4"],
    "endo-grid": ["endo", "--sweep", "--g", "4..10", "--r", "2..4"],
    "endo-large": ["endo", "--sweep", "--g", "20", "--r", "5"],
}
#: oracle seeds with committed raw digests: the CLI default and a held-out seed
REFERENCE_SEEDS = (0, 2208)
VERDICT_FUNCTIONS = ("petri_certificate", "onto_certificate")
NOT_ADMITTED = "hypothesis-not-met"
CALIBRATE_EVERY_S = 0.2


# ---------------------------------------------------------------------------
# correctness
# ---------------------------------------------------------------------------


def split_verdicts(text: str) -> list[str]:
    """The exact text of each element of the CLI's ``indent=2`` JSON list.

    Nested lines are indented by at least four spaces, so a line ``  },``
    can only close a top-level element.
    """
    if text == "[]\n":
        return []
    if not (text.startswith("[\n  {") and text.endswith("\n  }\n]\n")):
        raise ValueError("output is not an indented JSON list of objects")
    parts = text[2:-3].split("\n  },\n")
    return [p + "\n  }" for p in parts[:-1]] + [parts[-1]]


def digests(text: str) -> list[str]:
    return [hashlib.sha256(v.encode("utf-8")).hexdigest() for v in split_verdicts(text)]


_SEEDS_FIELD = re.compile(r'("seeds": \[)([^\]]*)(\])')
_INT = re.compile(r"-?\d+")


def normalise_seed(text: str, seed: int, ref_seed: int) -> str:
    """Rewrite each oracle ``seeds`` list ``[seed, seed+1, ...]`` to ``ref_seed``.

    A proven verdict's ranks all equal its product count whatever the seed,
    so the seed list is its only seed-dependent text.  A list that does not
    hold exactly the expected seeds is left as it is and fails the digest.
    """
    if seed == ref_seed:
        return text

    def swap(m: re.Match) -> str:
        found = [int(x) for x in _INT.findall(m.group(2))]
        if found != [seed + i for i in range(len(found))]:
            return m.group(0)
        new = iter(range(ref_seed, ref_seed + len(found)))
        return m.group(1) + _INT.sub(lambda _: str(next(new)), m.group(2)) + m.group(3)

    return _SEEDS_FIELD.sub(swap, text)


def reference_path(workload: str, seed: int) -> Path:
    return REFERENCE_DIR / f"{workload}.seed{seed}.json"


def load_reference(workload: str, seed: int) -> tuple[int, list[str]]:
    """(reference seed, digests): raw digests for ``seed`` if committed, else seed 0's."""
    ref_seed = seed if reference_path(workload, seed).is_file() else REFERENCE_SEEDS[0]
    ref = json.loads(reference_path(workload, ref_seed).read_text(encoding="utf-8"))
    return ref_seed, ref["digests"]


def failed_verdicts(
    text: str | None, statuses: list[str], seed: int, ref_seed: int, expected: list[str]
) -> int:
    """Verdicts of one pass that are not proven or differ by a byte from the reference.

    ``text`` is None when the CLI exited nonzero: then every verdict failed.
    """
    if text is None:
        return len(expected)
    try:
        got = digests(normalise_seed(text, seed, ref_seed))
    except ValueError:
        return len(expected)
    bad = {i for i in range(max(len(got), len(expected)))
           if i >= len(got) or i >= len(expected) or got[i] != expected[i]}
    bad.update(i for i, s in enumerate(statuses) if s != "proven")
    return len(bad)


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------


class Timeline:
    """Measured stretches of a pass, separated by runs of the calibration kernel.

    A stretch is scaled by the speed factor of the kernel runs around it (see
    ``calibrate.py``).  Without calibration every factor is 1.
    """

    def __init__(self, calibrate: bool):
        self.calibrate = calibrate
        self.factors = [speed_factor() if calibrate else 1.0]
        self.stretches: list[float] = []
        self.start = time.perf_counter()

    def due(self) -> bool:
        return self.calibrate and time.perf_counter() - self.start >= CALIBRATE_EVERY_S

    def mark(self) -> None:
        """End the current stretch with a kernel run."""
        self.stretches.append(time.perf_counter() - self.start)
        self.factors.append(speed_factor() if self.calibrate else 1.0)
        self.start = time.perf_counter()

    def scale(self, stretch: int) -> float:
        """Median factor of the kernel runs within three marks of the stretch.

        The host's speed drifts over seconds, a single kernel run jitters over
        milliseconds; the median of nearby runs follows the first, not the second.
        """
        return statistics.median(self.factors[max(stretch - 2, 0):stretch + 4])


class Pass:
    """One ``cli.main`` call over the whole workload; times in reference seconds."""

    def __init__(self, timeline: Timeline, latencies: list[tuple[float, int]],
                 statuses: list[str], text: str | None):
        self.raw_wall = sum(timeline.stretches)
        self.wall = sum(d * timeline.scale(k) for k, d in enumerate(timeline.stretches))
        self.latencies = [dt * timeline.scale(k) for dt, k in latencies]
        self.factors = timeline.factors
        self.statuses = statuses
        self.text = text


def run_pass(argv: list[str], seed: int, out_path: Path, calibrate: bool = True) -> Pass:
    """Run the CLI once; time each admitted verdict by wrapping the CLI's binding."""
    latencies: list[tuple[float, int]] = []
    statuses: list[str] = []
    clock = time.perf_counter
    originals = {name: getattr(cli, name) for name in VERDICT_FUNCTIONS}

    def timed(fn):
        def verdict(*args, **kwargs):
            t0 = clock()
            v = fn(*args, **kwargs)
            dt = clock() - t0
            if v.status != NOT_ADMITTED:
                latencies.append((dt, len(timeline.stretches)))
                statuses.append(v.status)
            if timeline.due():
                timeline.mark()
            return v
        return verdict

    timeline = Timeline(calibrate)
    for name, fn in originals.items():
        setattr(cli, name, timed(fn))
    try:
        try:
            rc = cli.main([*argv, "--seed", str(seed), "--out", str(out_path)])
        except Exception:  # a crash fails the pass's verdicts; the run goes on
            import traceback

            traceback.print_exc()
            rc = 1
        timeline.mark()
    finally:
        for name, fn in originals.items():
            setattr(cli, name, fn)
    text = None
    if rc == 0 and out_path.is_file():
        text = out_path.read_text(encoding="utf-8")
    out_path.unlink(missing_ok=True)
    return Pass(timeline, latencies, statuses, text)


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------

#: layer -> entry points (namespace, attribute) as the verdict path binds them
LAYERS = {
    "cli": [(cli, "main")],
    "pipelines.certificate": [(cli, "petri_certificate"), (cli, "onto_certificate")],
    "pipelines.params": [(pipelines, "petri_params"), (pipelines, "poin_params")],
    "pipelines.build": [(pipelines, "petri_build"), (pipelines, "endo_build")],
    "elliptic.section_space": [(pipelines, "section_space")],
    "elliptic.end_decomposition": [(pipelines, "end_decomposition")],
    "chain.validate_lls": [(pipelines, "validate_lls")],
    "independence.product_sections": [(pipelines, "product_sections")],
    "independence.product_series": [(pipelines, "product_series")],
    "chain.redistribute": [(pipelines, "redistribute")],
    "independence.certify_independence": [(pipelines, "certify_independence")],
    "independence.OracleConfig": [(pipelines, "OracleConfig")],
    "independence.oracle_rank": [(pipelines, "oracle_rank")],
    "chain.check_stability": [(pipelines, "check_stability")],
    "serialize.to_payload": [(serialize, "to_payload")],
    "serialize.encode": [(json, "dumps")],
}


class Tracer:
    """In-memory spans ``[name, start, end, parent, verdict]`` and exact counts."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._verdict = -1
        self._saved: list[tuple[object, str, object]] = []

    def _count(self, layer: str, args: tuple, result) -> None:
        c = self.counts
        if layer == "independence.oracle_rank":
            c["oracle_full_rank"] += result == len(args[0])
        elif layer == "independence.product_sections":
            c["products"] += len(result)
        elif layer == "independence.certify_independence" and hasattr(result, "passes"):
            c["certificate_passes"] += len(result.passes)
            c["certificate_survivors"] += sum(len(p.survivors) for p in result.passes)
        elif layer == "pipelines.certificate" and result.status != NOT_ADMITTED:
            c["verdicts"] += 1

    def _wrap(self, layer: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        is_verdict = layer == "pipelines.certificate"

        def traced(*args, **kwargs):
            if is_verdict:
                self._verdict += 1
            span = [layer, clock(), 0.0, stack[-1] if stack else -1, self._verdict]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            self._count(layer, args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every present layer; a layer with a missing entry point is absent."""
        for layer, points in LAYERS.items():
            missing = [f"{ns.__name__}.{attr}" for ns, attr in points if not hasattr(ns, attr)]
            if missing:
                if layer not in self.absent:
                    print(f"warning: layer {layer} absent: no {', '.join(missing)}",
                          file=sys.stderr)
                    self.absent.append(layer)
                continue
            for ns, attr in points:
                fn = getattr(ns, attr)
                self._saved.append((ns, attr, fn))
                setattr(ns, attr, self._wrap(layer, fn))

    def uninstall(self) -> None:
        for ns, attr, fn in reversed(self._saved):
            setattr(ns, attr, fn)
        self._saved.clear()

    def self_times(self) -> tuple[dict[str, float], Counter]:
        """Per layer: total span time minus the time of its child spans; and calls."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        selfs: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for i, (name, start, end, _, _) in enumerate(self.spans):
            selfs[name] += end - start - child[i]
            calls[name] += 1
        return selfs, calls

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as f:
            for name, start, end, parent, verdict in self.spans:
                f.write(json.dumps({"name": name, "start": start, "end": end,
                                    "parent": parent, "verdict": verdict}) + "\n")


def traced_pass(argv: list[str], seed: int, out_path: Path, tracer: Tracer) -> Pass:
    """A pass with every layer wrapped; uncalibrated, so its times are wall seconds."""
    tracer.install()
    try:
        return run_pass(argv, seed, out_path, calibrate=False)
    finally:
        tracer.uninstall()


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def tail_percentile(n: int) -> int:
    """Highest whole percentile leaving at least 10 of the n verdicts above it.

    With fewer than 11 verdicts no percentile qualifies; the slowest verdict
    (100) is used instead.
    """
    return math.floor(100 * (n - 10) / n) if n >= 11 else 100


def nearest_rank(values: list[float], pct: int) -> float:
    ordered = sorted(values)
    return ordered[max(math.ceil(pct / 100 * len(ordered)), 1) - 1]


def end_to_end(passes: list[Pass], pct: int, failed: int, attempted: int) -> dict:
    """Every pass runs the same verdicts in the same order, so each verdict's
    latency is its median over the passes, and so is the rest of a pass's time
    (rejected tuples, encoding, the write).  Percentiles are taken over the
    verdicts; throughput is the verdicts over the sum of those medians."""
    per_verdict = [statistics.median(ts) for ts in zip(*(p.latencies for p in passes))]
    rest = statistics.median(p.wall - sum(p.latencies) for p in passes)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "verdicts_per_s": (len(per_verdict) / (sum(per_verdict) + rest), "1/s"),
        "verdict_p50_ms": (statistics.median(per_verdict) * 1e3, "ms"),
        "verdict_tail_ms": (nearest_rank(per_verdict, pct) * 1e3, "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
        "ok_share": (1 - failed / attempted, "ratio"),
    }


def per_layer(tracer: Tracer, traced: list[Pass], untraced: list[Pass],
              bytes_out: int) -> dict:
    k = len(traced)
    selfs, calls = tracer.self_times()
    counts = tracer.counts
    verdicts = counts["verdicts"]
    present = {layer for layer in LAYERS if layer not in tracer.absent}
    wall = statistics.median(p.wall for p in traced)
    out = {
        "trace.wall_s": (wall, "s"),
        "trace.overhead_s": (wall - statistics.median(p.wall for p in untraced), "s"),
    }

    def put(name: str, layer: str, value: float, unit: str) -> None:
        if layer in present:
            out[name] = (value, unit)

    for layer in (
        "cli", "pipelines.certificate", "pipelines.params", "pipelines.build",
        "elliptic.section_space", "elliptic.end_decomposition", "chain.validate_lls",
        "independence.product_sections", "independence.product_series",
        "chain.redistribute", "independence.certify_independence",
        "independence.OracleConfig", "independence.oracle_rank",
        "chain.check_stability", "serialize.to_payload", "serialize.encode",
    ):
        put(f"{layer}.self_s", layer, selfs[layer] / k, "s")
    for layer in ("independence.oracle_rank", "independence.OracleConfig",
                  "elliptic.section_space", "pipelines.params"):
        put(f"{layer}.calls", layer, calls[layer] / k, "count")
    for layer in ("chain.validate_lls", "independence.OracleConfig"):
        put(f"{layer}.calls_per_verdict", layer, calls[layer] / max(verdicts, 1), "count")
    oracle_calls = calls["independence.oracle_rank"]
    put("independence.oracle_rank.full_rank_ratio", "independence.oracle_rank",
        counts["oracle_full_rank"] / max(oracle_calls, 1), "ratio")
    put("independence.products", "independence.product_sections",
        counts["products"] / k, "count")
    put("independence.certify_independence.passes", "independence.certify_independence",
        counts["certificate_passes"] / k, "count")
    put("independence.certify_independence.survivors", "independence.certify_independence",
        counts["certificate_survivors"] / k, "count")
    put("pipelines.certificate.verdicts", "pipelines.certificate", verdicts / k, "count")
    out["serialize.bytes_out"] = (bytes_out / k, "bytes")
    return out


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    argv = WORKLOADS[workload]
    ref_seed, expected = load_reference(workload, seed)
    out_path = OUT_DIR / f"{workload}-seed{seed}-out.json"
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    tracer = Tracer()
    untraced: list[Pass] = []
    traced: list[Pass] = []
    failed = attempted = bytes_out = 0

    def check(p: Pass) -> None:
        nonlocal failed, attempted
        attempted += len(expected)
        failed += failed_verdicts(p.text, p.statuses, seed, ref_seed, expected)

    # Whole passes until the time is used, so every run measures the same mix.
    # A traced run alternates uncalibrated untraced and traced passes, so that
    # the difference of their walls is the tracing overhead.
    start = time.perf_counter()
    while not untraced or time.perf_counter() - start < seconds:
        untraced.append(run_pass(argv, seed, out_path, calibrate=not trace))
        check(untraced[-1])
        untraced[-1].text = None
        if trace:
            traced.append(traced_pass(argv, seed, out_path, tracer))
            check(traced[-1])
            bytes_out += len((traced[-1].text or "").encode("utf-8"))
            traced[-1].text = None

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "passes": len(untraced),
        "verdicts_per_pass": len(expected),
        "tail_percentile": tail_percentile(len(expected)),
        "reference_seed": ref_seed,
    }
    if trace:
        metrics = per_layer(tracer, traced, untraced, bytes_out)
        selfs, _ = tracer.self_times()
        result["self_s_sum"] = sum(selfs.values()) / len(traced)
        result["absent_layers"] = tracer.absent
        spans_path = OUT_DIR / f"trace-{workload}-seed{seed}.jsonl"
        tracer.write(spans_path)
        result["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        metrics = end_to_end(untraced, result["tail_percentile"], failed, attempted)
        result["speed_factor"] = statistics.median(f for p in untraced for f in p.factors)
        result["raw_verdicts_per_s"] = statistics.median(
            len(p.latencies) / p.raw_wall for p in untraced)
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    return result


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    print(json.dumps(run(args.workload, args.seed, args.seconds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
