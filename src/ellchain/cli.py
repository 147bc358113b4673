"""Command-line interface: build, validate, certify, sweep; JSON or tables.

Exit codes: 0 success / proven, 2 usage error, 3 not proven or failed
validation, 4 internal inconsistency (an audit disagrees although the
certificate and the oracle both passed).  All randomness flows from one
``--seed``; identical inputs and seed produce byte-identical output.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import NoReturn, Sequence

from ellchain import serialize
from ellchain.chain import canonical_series, redistribute, validate_lls, validate_rank1
from ellchain.elliptic import AlgebraError, LineBundleClass
from ellchain.independence import DEFAULT_PRIME, OracleConfig
from ellchain.pipelines import Verdict, onto_certificate, petri_certificate
from ellchain.tableaux import TableauError, count_tableaux, enumerate_tableaux

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NOT_PROVEN = 3
EXIT_INCONSISTENT = 4


class _UsageError(Exception):
    """Bad arguments or environment overrides, reported as one line with exit 2."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> NoReturn:
        raise _UsageError(message)


def _env_default(name: str, default: int) -> str:
    # argparse converts and checks a string default with the option's type
    return os.environ.get(name) or str(default)


def _int(raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid integer {raw!r}") from None


def _trials(raw: str) -> int:
    value = _int(raw)
    if value < 1:
        raise argparse.ArgumentTypeError(f"need at least one trial, got {value}")
    return value


def _prime(raw: str) -> int:
    value = _int(raw)
    try:
        OracleConfig(prime=value)
    except AlgebraError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return value


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format",
        choices=("json", "table"),
        default=os.environ.get("ELLCHAIN_FORMAT", "json"),
        help="output format (env ELLCHAIN_FORMAT; default json)",
    )
    common.add_argument(
        "--seed",
        type=_int,
        default=_env_default("ELLCHAIN_SEED", 0),
        help="base oracle seed; three consecutive seeds are run (env ELLCHAIN_SEED)",
    )
    common.add_argument(
        "--trials",
        type=_trials,
        default=_env_default("ELLCHAIN_TRIALS", 1),
        help="oracle trials per seed (env ELLCHAIN_TRIALS)",
    )
    common.add_argument(
        "--prime",
        type=_prime,
        default=_env_default("ELLCHAIN_PRIME", DEFAULT_PRIME),
        help=f"oracle prime modulus (env ELLCHAIN_PRIME; default {DEFAULT_PRIME})",
    )
    common.add_argument("--out", type=Path, default=None, help="write output to a file")

    parser = _Parser(
        prog="ellchain",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "canonical", parents=[common], help="the canonical series on a chain of g curves"
    )
    p.add_argument("--g", type=int, required=True)

    p = sub.add_parser(
        "tableaux", parents=[common], help="count (or list) strict rectangular fillings"
    )
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--enumerate", action="store_true", dest="enumerate_all")

    p = sub.add_parser(
        "redistribute", parents=[common], help="re-spread the degrees of a series JSON"
    )
    p.add_argument("--series", type=Path, required=True, help="series JSON file")
    p.add_argument("--dprime", required=True, help="comma-separated target degrees")

    p = sub.add_parser(
        "validate", parents=[common], help="check the three series conditions of a JSON file"
    )
    p.add_argument("--series", type=Path, required=True)

    p = sub.add_parser(
        "petri", parents=[common], help="certify independence of the k*kbar products"
    )
    p.add_argument("--g", help="value or range a..b (with --sweep)")
    p.add_argument("--r", help="value or range a..b")
    p.add_argument("--d", help="value or range a..b (sweep default 1..4g)")
    p.add_argument("--k", help="value or range a..b (sweep default 1..4g)")
    p.add_argument("--sweep", action="store_true")

    p = sub.add_parser(
        "endo",
        parents=[common],
        help="certify the canonical x traceless-endomorphism products",
    )
    p.add_argument("--g", help="value or range a..b (with --sweep)")
    p.add_argument("--r", help="value or range a..b")
    p.add_argument("--d", help="value or range a..b (sweep default g..g+r-1)")
    p.add_argument("--sweep", action="store_true")
    return parser


def _emit(text: str, out: Path | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        out.write_text(text, encoding="utf-8")


def _span(raw: str | None, fallback: tuple[int, int] | None = None) -> tuple[int, int]:
    if raw is None:
        if fallback is None:
            raise ValueError("missing required range")
        return fallback
    if ".." in raw:
        lo, hi = raw.split("..", 1)
        return (int(lo), int(hi))
    v = int(raw)
    return (v, v)


def _single(raw: str | None, name: str) -> int:
    if raw is None or ".." in raw:
        raise ValueError(f"--{name} needs a single value here")
    return int(raw)


# ---------------------------------------------------------------------------
# table renderers
# ---------------------------------------------------------------------------


def _class_label(cls: LineBundleClass) -> str:
    label = f"O({cls.a}P+{cls.b}Q)"
    if not cls.twist.is_trivial:
        label += "*t"
    return label


def _canonical_table(series, report, rank1) -> str:
    width = max(len("bundle"), max(len(_class_label(b.slots[0])) for b in series.bundles))
    lines = [
        f"canonical series  g={series.chain.genus}  degree={series.degree}"
        f"  dimension={series.dimension}  a={series.a}"
    ]
    header = f"{'component':<11}{'bundle':<{width + 2}}" + "".join(
        f"{'s' + str(t + 1):<9}" for t in range(series.dimension)
    )
    lines.append(header.rstrip())
    for i, (bundle, table) in enumerate(zip(series.bundles, series.tables)):
        cells = "".join(f"{f'({r.ord_p},{r.ord_q})':<9}" for r in table.rows)
        lines.append(f"{'C' + str(i + 1):<11}{_class_label(bundle.slots[0]):<{width + 2}}" + cells.rstrip())
    lines.append(
        "validation: degree={} nodes={} determined={} refined={}".format(
            *("ok" if c else "FAIL" for c in report.conditions),
            "yes" if rank1.refined else "no",
        )
    )
    return "\n".join(lines) + "\n"


def _verdict_line(v: Verdict) -> str:
    ps = " ".join(f"{k}={val}" for k, val in v.params.items())
    oracle = "-" if v.oracle is None else ",".join(str(r) for r in v.oracle.ranks)
    return (
        f"{ps:<24} {v.case or '-':<14} {v.status:<19}"
        f" products={v.product_count:<5} oracle={oracle}"
    )


def _verdict_exit(v: Verdict) -> int:
    if v.status in ("proven", "vacuous"):
        return EXIT_OK
    cert_ok = v.certificate is not None and v.certificate.eliminated == v.product_count
    oracle_ok = v.oracle is not None and v.oracle.agreed
    if cert_ok and oracle_ok and any(not a.ok for a in v.audits):
        return EXIT_INCONSISTENT
    return EXIT_NOT_PROVEN


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_canonical(args) -> int:
    try:
        series = canonical_series(args.g)
    except AlgebraError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    report = validate_lls(series)
    rank1 = validate_rank1(series)
    if args.format == "table":
        _emit(_canonical_table(series, report, rank1), args.out)
    else:
        import json

        payload = {
            "schema": serialize.SCHEMA_VERSION,
            "type": "canonical",
            "series": serialize.to_payload(series),
            "validation": serialize.to_payload(report),
            "refined": rank1.refined,
        }
        _emit(json.dumps(payload, sort_keys=True, indent=2) + "\n", args.out)
    return EXIT_OK if report.ok else EXIT_NOT_PROVEN


def cmd_tableaux(args) -> int:
    try:
        if args.enumerate_all:
            rows = [list(map(list, t.cells)) for t in enumerate_tableaux(args.g, args.r, args.d)]
            import json

            text = json.dumps({"count": len(rows), "tableaux": rows}, sort_keys=True) + "\n"
        else:
            text = f"{count_tableaux(args.g, args.r, args.d)}\n"
    except TableauError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    _emit(text, args.out)
    return EXIT_OK


def _read_series(path: Path):
    import json

    payload = json.loads(path.read_text(encoding="utf-8"))
    if payload.get("type") != "series" and "series" in payload:
        payload = payload["series"]
    return serialize.from_payload(payload)


def cmd_redistribute(args) -> int:
    try:
        series = _read_series(args.series)
        dprime = [int(x) for x in args.dprime.split(",")]
        redist = redistribute(series, dprime)
    except (OSError, ValueError, AlgebraError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    _emit(serialize.dumps(redist), args.out)
    return EXIT_OK


def cmd_validate(args) -> int:
    try:
        series = _read_series(args.series)
    except (OSError, ValueError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    report = validate_lls(series)
    _emit(serialize.dumps(report), args.out)
    return EXIT_OK if report.ok else EXIT_NOT_PROVEN


def _run_sweep(args, rows: list[Verdict]) -> int:
    if args.format == "table":
        text = "\n".join(_verdict_line(v) for v in rows) + "\n"
    else:
        import json

        text = (
            json.dumps([serialize.to_payload(v) for v in rows], sort_keys=True, indent=2)
            + "\n"
        )
    _emit(text, args.out)
    return EXIT_OK if all(v.ok for v in rows) else EXIT_NOT_PROVEN


def cmd_petri(args) -> int:
    try:
        if args.sweep:
            g_lo, g_hi = _span(args.g)
            r_lo, r_hi = _span(args.r)
            rows = []
            for g in range(g_lo, g_hi + 1):
                d_lo, d_hi = _span(args.d, (1, 4 * g))
                k_lo, k_hi = _span(args.k, (1, 4 * g))
                for r in range(r_lo, r_hi + 1):
                    for d in range(d_lo, d_hi + 1):
                        for k in range(k_lo, k_hi + 1):
                            v = petri_certificate(
                                g, r, d, k, prime=args.prime, seed=args.seed,
                                trials=args.trials,
                            )
                            if v.status != "hypothesis-not-met":
                                rows.append(v)
            return _run_sweep(args, rows)
        g = _single(args.g, "g")
        r = _single(args.r, "r")
        d = _single(args.d, "d")
        k = _single(args.k, "k")
    except (TypeError, ValueError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    v = petri_certificate(g, r, d, k, prime=args.prime, seed=args.seed, trials=args.trials)
    if args.format == "table":
        _emit(_verdict_line(v) + "\n", args.out)
    else:
        _emit(serialize.dumps(v), args.out)
    return _verdict_exit(v)


def cmd_endo(args) -> int:
    try:
        if args.sweep:
            g_lo, g_hi = _span(args.g)
            r_lo, r_hi = _span(args.r)
            rows = []
            for g in range(g_lo, g_hi + 1):
                for r in range(r_lo, r_hi + 1):
                    d_lo, d_hi = _span(args.d, (g, g + r - 1))
                    for d in range(d_lo, d_hi + 1):
                        v = onto_certificate(
                            g, r, d, prime=args.prime, seed=args.seed, trials=args.trials
                        )
                        if v.status != "hypothesis-not-met":
                            rows.append(v)
            return _run_sweep(args, rows)
        g = _single(args.g, "g")
        r = _single(args.r, "r")
        d = _single(args.d, "d")
    except (TypeError, ValueError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    v = onto_certificate(g, r, d, prime=args.prime, seed=args.seed, trials=args.trials)
    if args.format == "table":
        _emit(_verdict_line(v) + "\n", args.out)
    else:
        _emit(serialize.dumps(v), args.out)
    return _verdict_exit(v)


COMMANDS = {
    "canonical": cmd_canonical,
    "tableaux": cmd_tableaux,
    "redistribute": cmd_redistribute,
    "validate": cmd_validate,
    "petri": cmd_petri,
    "endo": cmd_endo,
}


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
