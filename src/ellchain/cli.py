"""Command-line interface: build, validate, certify, sweep; JSON or tables.

Exit codes: 0 success / proven, 2 usage error (an output that cannot be
written included), 3 not proven or failed validation, 4 internal
inconsistency (an audit disagrees although the certificate and the oracle
both passed, or a tableau listing's length is not its count).  All
randomness flows from one ``--seed``; identical inputs and seed produce
byte-identical output.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import os
import sys
from dataclasses import astuple
from pathlib import Path
from typing import Callable, Iterator, NoReturn, Sequence

from ellchain import serialize
from ellchain.chain import canonical_series, redistribute, validate_lls, validate_rank1
from ellchain.elliptic import AlgebraError, LineBundleClass, clear_memos
from ellchain.independence import DEFAULT_PRIME, OracleConfig, Verdict
from ellchain.pipelines import HYPOTHESIS_NOT_MET, Run, onto_certificate, petri_certificate
from ellchain.tableaux import TableauError, count_tableaux, enumerate_tableaux

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NOT_PROVEN = 3
EXIT_INCONSISTENT = 4


class _UsageError(Exception):
    """Bad arguments, environment overrides or an output that cannot be
    written, reported as one line with exit 2."""


class _Miscount(Exception):
    """A listing whose length differs from its count, raised inside the
    writer so that ``--out`` is left as it was."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> NoReturn:
        raise _UsageError(message)

    def print_help(self, file=None) -> None:
        # argparse's own write swallows an OSError, and the interpreter's flush
        # at exit reports a failed buffered one; the guarded writer does neither
        if file is not None:
            return super().print_help(file)
        _emit(self.format_help(), None)


def _env_default(name: str, default: object) -> str:
    # argparse converts and checks a string default with the option's type
    return os.environ.get(name) or str(default)


def _int(raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid integer {raw!r}") from None


def _format(raw: str) -> str:
    if raw not in ("json", "table"):
        raise argparse.ArgumentTypeError(f"invalid choice: {raw!r} (choose from 'json', 'table')")
    return raw


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
    # each command takes only the options it reads: --out everywhere, --format
    # where a table renderer exists, the oracle options where an oracle runs
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", type=Path, default=None, help="write output to a file")
    fmt = argparse.ArgumentParser(add_help=False, parents=[out])
    fmt.add_argument(
        "--format",
        type=_format,
        default=_env_default("ELLCHAIN_FORMAT", "json"),
        metavar="{json,table}",
        help="output format (env ELLCHAIN_FORMAT; default json)",
    )
    oracle = argparse.ArgumentParser(add_help=False, parents=[fmt])
    oracle.add_argument(
        "--seed",
        type=_int,
        default=_env_default("ELLCHAIN_SEED", 0),
        help="base oracle seed; three consecutive seeds are run (env ELLCHAIN_SEED)",
    )
    oracle.add_argument(
        "--trials",
        type=_trials,
        default=_env_default("ELLCHAIN_TRIALS", 1),
        help="oracle trials per seed (env ELLCHAIN_TRIALS)",
    )
    oracle.add_argument(
        "--prime",
        type=_prime,
        default=_env_default("ELLCHAIN_PRIME", DEFAULT_PRIME),
        help=f"oracle prime modulus (env ELLCHAIN_PRIME; default {DEFAULT_PRIME})",
    )

    parser = _Parser(
        prog="ellchain",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "canonical", parents=[fmt], help="the canonical series on a chain of g curves"
    )
    p.add_argument("--g", type=int, required=True)

    p = sub.add_parser(
        "tableaux", parents=[out], help="count (or list) strict rectangular fillings"
    )
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--enumerate", action="store_true", dest="enumerate_all")

    p = sub.add_parser(
        "redistribute", parents=[out], help="re-spread the degrees of a series JSON"
    )
    p.add_argument("--series", type=Path, required=True, help="series JSON file")
    p.add_argument("--dprime", required=True, help="comma-separated target degrees")

    p = sub.add_parser(
        "validate", parents=[out], help="check the three series conditions of a JSON file"
    )
    p.add_argument("--series", type=Path, required=True)

    p = sub.add_parser(
        "petri", parents=[oracle], help="certify independence of the k*kbar products"
    )
    p.add_argument("--g", help="value or range a..b (with --sweep)")
    p.add_argument("--r", help="value or range a..b")
    p.add_argument("--d", help="value or range a..b (sweep default 1..4g)")
    p.add_argument("--k", help="value or range a..b (sweep default 1..4g)")
    p.add_argument("--sweep", action="store_true")

    p = sub.add_parser(
        "endo",
        parents=[oracle],
        help="certify the canonical x traceless-endomorphism products",
    )
    p.add_argument("--g", help="value or range a..b (with --sweep)")
    p.add_argument("--r", help="value or range a..b")
    p.add_argument("--d", help="value or range a..b (sweep default g..g+r-1)")
    p.add_argument("--sweep", action="store_true")
    return parser


@contextlib.contextmanager
def _writer(out: Path | None) -> Iterator[Callable[[str], object]]:
    """A ``write`` to stdout, or to a temporary file beside ``out`` that
    replaces it on success.

    An OSError from opening, writing, flushing or replacing the output is a
    usage error that names it; one from the caller's own work propagates.
    The temporary file is opened before the caller computes anything, so an
    unwritable ``out`` is a usage error up front; it gets the mode a plain
    ``open`` gives.  Its name does not grow with the name of ``out``, so any
    name the filesystem takes can be written.  On any exception it is
    removed, so ``out`` is either complete or as it was before.

    A symlink ``out`` is followed: the temporary file goes beside its
    target and replaces that, so the link is kept.  An ``out`` that is the
    file stdout is open on, such as ``/dev/stdout``, is written through
    stdout, so a shell's ``>>`` appends and its ``>`` truncates.  Any other
    ``out`` that exists and is not a regular file once links are followed,
    such as a device or a FIFO, would become one if replaced: it is opened
    and written in place, and what was written before a failure stays
    written.
    """
    name = "stdout" if out is None else out
    to_stdout = out is None or _is_stdout(out)

    @contextlib.contextmanager
    def writing() -> Iterator[None]:
        try:
            yield
        except OSError as exc:
            if to_stdout:
                _drop_stdout()
            raise _UsageError(f"cannot write {name}: {exc.strerror or exc}") from None

    def write(text: str) -> None:
        with writing():
            f.write(text)

    if to_stdout:
        f = sys.stdout
        yield write
        with writing():
            f.flush()
        return
    if out.is_dir():
        raise _UsageError(f"cannot write {out}: is a directory")
    target = Path(os.path.realpath(out))
    with writing():
        # decided from out itself: the resolved name of a link into /proc,
        # such as /dev/stdout on a pipe, names no file that can be opened
        in_place = out.exists() and not out.is_file()
        tmp = out if in_place else target.with_name(f".ellchain-{os.getpid()}.tmp")
        f = open(tmp, "w", encoding="utf-8")
    try:
        yield write
        with writing():
            f.close()
            if not in_place:
                os.replace(tmp, target)
    except BaseException:
        with contextlib.suppress(OSError):
            f.close()
        if not in_place:
            tmp.unlink(missing_ok=True)
        raise


def _is_stdout(out: Path) -> bool:
    """Whether ``out`` names the file stdout is open on (same device and inode)."""
    try:
        named, ours = os.stat(out), os.fstat(sys.stdout.fileno())
    except (OSError, ValueError):  # no such file, or a stream without a descriptor
        return False
    return (named.st_dev, named.st_ino) == (ours.st_dev, ours.st_ino)


def _drop_stdout() -> None:
    """Point stdout's descriptor at the null device after a failed write.

    The text it could not take stays buffered, and the interpreter's flush
    at exit would fail on it again and report that on stderr.
    """
    try:
        fd = sys.stdout.fileno()
    except OSError:  # a stream without a descriptor
        return
    null = os.open(os.devnull, os.O_WRONLY)
    os.dup2(null, fd)
    os.close(null)


def _emit(text: str, out: Path | None) -> None:
    with _writer(out) as write:
        write(text)


def _span(raw: str | None, name: str) -> range | None:
    """``a..b`` (a <= b) or ``a`` as an inclusive range; None when absent."""
    if raw is None:
        return None
    try:
        lo, hi = (int(x) for x in raw.split("..", 1)) if ".." in raw else (int(raw),) * 2
    except ValueError:
        raise ValueError(f"--{name} {raw}: expected an integer or a range a..b") from None
    if lo > hi:
        raise ValueError(f"--{name} {raw} is an empty range: {lo} > {hi}")
    return range(lo, hi + 1)


def _single(raw: str | None, name: str) -> int:
    if raw is None or ".." in raw:
        raise ValueError(f"--{name} needs a single value here")
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"--{name} {raw}: expected an integer") from None


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
        f"canonical series  g={series.chain.components}  degree={series.degree}"
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
            *("ok" if c else "FAIL" for c in astuple(report.conditions)),
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
    if v.ok:
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
        raise _UsageError(str(exc)) from None
    report = validate_lls(series)
    rank1 = validate_rank1(series)
    if args.format == "table":
        _emit(_canonical_table(series, report, rank1), args.out)
    else:
        payload = {
            "schema": serialize.SCHEMA_VERSION,
            "type": "canonical",
            "series": series,
            "validation": report,
            "refined": rank1.refined,
        }
        _emit(serialize.dumps(payload), args.out)
    return EXIT_OK if report.ok else EXIT_NOT_PROVEN


def cmd_tableaux(args) -> int:
    """The count, or with ``--enumerate`` the bytes of
    ``json.dumps({"count": ..., "tableaux": [...]}, sort_keys=True)``
    written one tableau at a time, so the listing is never held whole.

    A listing whose length is not the count exits 4; ``--out`` is then left
    as it was.
    """
    try:
        count = count_tableaux(args.g, args.r, args.d)
    except TableauError as exc:
        raise _UsageError(str(exc)) from None
    if not args.enumerate_all:
        _emit(f"{count}\n", args.out)
        return EXIT_OK
    listed = 0
    try:
        with _writer(args.out) as write:
            write(f'{{"count": {count}, "tableaux": [')
            for t in enumerate_tableaux(args.g, args.r, args.d):
                write((", " if listed else "") + json.dumps(t.cells))
                listed += 1
            if listed != count:
                raise _Miscount
            write("]}\n")
    except _Miscount:
        print(f"inconsistent: {listed} tableaux listed, {count} counted", file=sys.stderr)
        return EXIT_INCONSISTENT
    return EXIT_OK


def _read_series(path: Path):
    """The series of a ``series`` payload or of a ``canonical`` wrapper."""
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply") from None
    if type(payload) is dict and payload.get("type") == "canonical":
        payload = payload.get("series")
    if type(payload) is not dict or payload.get("type") != "series":
        got = f"type {payload.get('type')!r}" if type(payload) is dict else type(payload).__name__
        raise ValueError(f"{path}: expected a series or canonical payload, got {got}")
    return serialize.from_payload(payload)


def cmd_redistribute(args) -> int:
    try:
        series = _read_series(args.series)
        broken = validate_lls(series).structural_errors
        if broken:
            raise ValueError(f"structurally invalid series: {broken[0]}")
        dprime = [int(x) for x in args.dprime.split(",")]
        redist = redistribute(series, dprime)
    except (OSError, ValueError, AlgebraError) as exc:
        raise _UsageError(str(exc)) from None
    _emit(serialize.dumps(redist), args.out)
    return EXIT_OK


def cmd_validate(args) -> int:
    try:
        series = _read_series(args.series)
    except (OSError, ValueError) as exc:
        raise _UsageError(str(exc)) from None
    report = validate_lls(series)
    _emit(serialize.dumps(report), args.out)
    return EXIT_OK if report.ok else EXIT_NOT_PROVEN


#: past g and r, each certify command's parameters in the order its entry
#: point takes them, with their default range in a sweep's (g, r) run
PARAMS = {
    "petri": {"d": lambda g, r: range(1, 4 * g + 1), "k": lambda g, r: range(1, 4 * g + 1)},
    "endo": {"d": lambda g, r: range(g, g + r)},
}


def _sweep(args) -> Iterator[tuple[int, ...]]:
    """The tuples of a sweep, in g -> r -> the command's other parameters'
    order.  Every range is parsed here, so a bad one fails before the first
    tuple."""
    defaults = PARAMS[args.command]
    gs, rs, *spans = (_span(getattr(args, n), n) for n in ("g", "r", *defaults))
    if gs is None or rs is None:
        raise ValueError("missing required range")
    return (
        (g, r, *rest)
        for g in gs
        for r in rs
        for rest in itertools.product(
            *(f(g, r) if span is None else span for span, f in zip(spans, defaults.values()))
        )
    )


def cmd_certify(args) -> int:
    """``petri`` and ``endo``: one verdict, or the admitted verdicts of a sweep.

    Each (g, r) run of a sweep, and a single verdict, is decided in a
    :class:`~ellchain.pipelines.Run` of its own, after the memo tables are
    emptied.  Each admitted verdict's text is written as soon as it is
    decided and the verdict dropped: only the worst exit code is kept, so
    memory does not grow with the grid.  The bytes are those of the whole
    list encoded at once.
    """
    # looked up per call, so a rebound module attribute takes effect
    certify = petri_certificate if args.command == "petri" else onto_certificate
    oracle = {"prime": args.prime, "seed": args.seed, "trials": args.trials}
    table = args.format == "table"
    try:
        if args.sweep:
            runs = itertools.groupby(_sweep(args), key=lambda t: t[:2])
        else:
            names = ("g", "r", *PARAMS[args.command])
            single = tuple(_single(getattr(args, n), n) for n in names)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    if not args.sweep:
        clear_memos()
        v = certify(*single, **oracle, run=Run())
        _emit(_verdict_line(v) + "\n" if table else serialize.dumps(v), args.out)
        return _verdict_exit(v)

    worst, written = EXIT_OK, 0
    with _writer(args.out) as write:
        for _, tuples in runs:
            clear_memos()
            run = Run()
            for t in tuples:
                v = certify(*t, **oracle, run=run)
                if v.status != HYPOTHESIS_NOT_MET:  # most tuples of a grid are not admitted
                    if table:
                        write(_verdict_line(v) + "\n")
                    else:
                        # the text of the whole list encoded at once, one element at a time
                        write(",\n  " if written else "[\n  ")
                        write(serialize.to_text(v, "  ", run.kept))
                    worst, written = max(worst, _verdict_exit(v)), written + 1
                del v  # only its text and exit code outlive it
        if not written:
            write("\n" if table else "[]\n")
        elif not table:
            write("\n]\n")
    return worst


COMMANDS = {
    "canonical": cmd_canonical,
    "tableaux": cmd_tableaux,
    "redistribute": cmd_redistribute,
    "validate": cmd_validate,
    "petri": cmd_certify,
    "endo": cmd_certify,
}


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return COMMANDS[args.command](args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
