"""Command-line behavior: exit codes, formats, determinism, golden output."""

import errno
import hashlib
import io
import itertools
import json
import os
import stat
import subprocess
import sys
import threading
import time
import weakref
from collections import Counter
from pathlib import Path

import pytest

import ellchain.cli as cli
import ellchain.independence as independence
import ellchain.pipelines as pipelines
import ellchain.serialize as serialize
from ellchain.cli import main
from ellchain.elliptic import AlgebraError, Degree0Class, clear_memos
from ellchain.tableaux import enumerate_tableaux
from reference import assert_same_text

GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCanonical:
    def test_json_payload(self, capsys):
        code, out, _ = run(capsys, "canonical", "--g", "5", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["type"] == "canonical"
        assert len(payload["series"]["tables"]) == 5
        assert payload["refined"] is True

    def test_json_is_pinned(self, capsys):
        # the same bytes on every supported Python: the writer is serialize's own
        code, out, _ = run(capsys, "canonical", "--g", "5")
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
            "c26f3c3ad403ebecc2a4dc1243fff9e1c8655ed87eb6753b6005b38aa07998d8"
        )

    def test_small_genus_is_usage_error(self, capsys):
        code, _, err = run(capsys, "canonical", "--g", "1")
        assert code == 2
        assert "usage error" in err

    def test_golden_table(self, capsys):
        code, out, _ = run(capsys, "canonical", "--g", "3", "--format", "table")
        assert code == 0
        assert out == (GOLDEN / "canonical_g3.txt").read_text(encoding="utf-8")


class TestTableaux:
    @pytest.mark.parametrize("args,expected", [
        (("--g", "4", "--r", "1", "--d", "3"), "2"),
        (("--g", "6", "--r", "1", "--d", "4"), "5"),
        (("--g", "2", "--r", "1", "--d", "2"), "1"),
    ])
    def test_counts(self, capsys, args, expected):
        code, out, _ = run(capsys, "tableaux", *args)
        assert code == 0 and out.strip() == expected

    def test_enumerate(self, capsys):
        code, out, _ = run(capsys, "tableaux", "--g", "4", "--r", "1", "--d", "3", "--enumerate")
        payload = json.loads(out)
        assert code == 0 and payload["count"] == 2
        assert [[1, 2], [3, 4]] in payload["tableaux"]

    def test_enumerate_is_pinned(self, capsys):
        code, out, _ = run(capsys, "tableaux", "--g", "8", "--r", "2", "--d", "8", "--enumerate")
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
            "f0da874ab7963ca57118945ca0b982650884d4f6f2768741ff131b973a5b076c"
        )

    def test_enumerate_of_a_larger_genus_is_pinned(self, capsys):
        # 84,084 fillings, far past the shapes compared with the unpruned search
        code, out, _ = run(capsys, "tableaux", "--g", "14", "--r", "2", "--d", "13", "--enumerate")
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
            "f9d307d9bf627bafc8f969ba3108f1f6e7806e376c979002ed5a8d89b38f34e4"
        )

    def test_enumerate_streams_the_bytes_of_one_dumps(self, capsys):
        # every shape up to g = 7: empty, too large for {1..g}, and all between
        for g in range(1, 8):
            for r in range(4):
                for d in range(r, g + r + 1):
                    rows = [list(map(list, t.cells)) for t in enumerate_tableaux(g, r, d)]
                    want = json.dumps({"count": len(rows), "tableaux": rows}, sort_keys=True)
                    code, out, _ = run(capsys, "tableaux", "--g", str(g), "--r", str(r),
                                       "--d", str(d), "--enumerate")
                    assert (code, out) == (0, want + "\n"), (g, r, d)

    @pytest.mark.parametrize("earlier", [None, "an earlier run's output\n"], ids=["new", "existing"])
    def test_a_listing_that_misses_its_count_exits_4(self, capsys, monkeypatch, tmp_path, earlier):
        out_file = tmp_path / "t.json"
        if earlier is not None:
            out_file.write_text(earlier, encoding="utf-8")
        monkeypatch.setattr(cli, "count_tableaux", lambda g, r, d: 3)
        code, out, err = run(capsys, "tableaux", "--g", "4", "--r", "1", "--d", "3",
                             "--enumerate", "--out", str(out_file))
        assert code == 4 and out == ""
        assert err == "inconsistent: 2 tableaux listed, 3 counted\n"
        assert sorted(tmp_path.iterdir()) == ([] if earlier is None else [out_file])
        if earlier is not None:
            assert out_file.read_text(encoding="utf-8") == earlier

    def test_large_genus_is_counted_at_once(self, capsys):
        # the 4 x 4 standard tableaux, counted in well under a second
        start = time.perf_counter()
        code, out, _ = run(capsys, "tableaux", "--g", "16", "--r", "3", "--d", "15")
        assert code == 0 and out == "24024\n"
        assert time.perf_counter() - start < 1.0


class TestSeriesFiles:
    def test_validate_and_redistribute(self, capsys, tmp_path):
        out_file = tmp_path / "series.json"
        code, _, _ = run(capsys, "canonical", "--g", "4", "--out", str(out_file))
        assert code == 0
        code, out, _ = run(capsys, "validate", "--series", str(out_file))
        assert code == 0 and json.loads(out)["ok"] is True
        code, out, _ = run(
            capsys, "redistribute", "--series", str(out_file), "--dprime", "6,0,0,0"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["dprime"] == [6, 0, 0, 0]
        assert payload["empty_components"] == [2, 3]

    def test_redistribute_json_is_pinned(self, capsys, tmp_path):
        out_file = tmp_path / "series.json"
        run(capsys, "canonical", "--g", "4", "--out", str(out_file))
        code, out, _ = run(
            capsys, "redistribute", "--series", str(out_file), "--dprime", "6,0,0,0"
        )
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
            "280b2ae5cb3ac46f7b60847d5ef2ec1c40a18ae91d381c50f6fdf519f450a9f8"
        )

    def test_validate_flags_broken_series(self, capsys, tmp_path):
        out_file = tmp_path / "series.json"
        run(capsys, "canonical", "--g", "3", "--out", str(out_file))
        payload = json.loads(out_file.read_text())
        payload["series"]["a"] += 1
        out_file.write_text(json.dumps(payload))
        code, out, _ = run(capsys, "validate", "--series", str(out_file))
        assert code == 3 and json.loads(out)["ok"] is False


class TestPetri:
    def test_single_proven(self, capsys):
        code, out, _ = run(capsys, "petri", "--g", "5", "--r", "2", "--d", "7", "--k", "3")
        assert code == 0
        payload = json.loads(out)
        assert payload["status"] == "proven" and payload["product_count"] == 12

    def test_single_rejected(self, capsys):
        code, out, _ = run(capsys, "petri", "--g", "3", "--r", "2", "--d", "4", "--k", "4")
        assert code == 3
        assert json.loads(out)["status"] == "hypothesis-not-met"

    def test_sweep_table(self, capsys):
        code, out, _ = run(
            capsys, "petri", "--sweep", "--g", "4..5", "--r", "2..2",
            "--d", "6..7", "--k", "2..3", "--format", "table",
        )
        assert code == 0
        lines = [l for l in out.splitlines() if l.strip()]
        assert lines and all("proven" in l for l in lines)

    def test_determinism(self, capsys):
        args = ("petri", "--g", "4", "--r", "2", "--d", "6", "--k", "2", "--seed", "9")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second


class TestEndo:
    def test_single(self, capsys):
        code, out, _ = run(capsys, "endo", "--g", "4", "--r", "2", "--d", "4")
        assert code == 0
        payload = json.loads(out)
        assert payload["status"] == "proven" and payload["product_count"] == 27

    def test_split_branch(self, capsys):
        code, out, _ = run(capsys, "endo", "--g", "4", "--r", "2", "--d", "5")
        assert code == 0
        payload = json.loads(out)
        assert payload["audits"][4]["name"] == "trivial-summands-last"

    def test_vacuous_rank_one(self, capsys):
        code, out, _ = run(capsys, "endo", "--g", "4", "--r", "1", "--d", "4")
        assert code == 0 and json.loads(out)["status"] == "vacuous"

    def test_sweep_json(self, capsys):
        code, out, _ = run(capsys, "endo", "--sweep", "--g", "4..5", "--r", "2..2")
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 4  # d in g..g+1 for each g
        assert all(r["status"] == "proven" for r in rows)


# per command: its builder, a single verdict's argv and expected product count,
# and a sweep's argv and the admitted tuples it writes
BUILD_FAILURES = {
    "petri": ("petri_build", ("--g", "5", "--r", "2", "--d", "7", "--k", "3"), 12,
              ("--g", "4..5", "--r", "2", "--d", "6..7", "--k", "2..3"),
              [(4, 2, 6, 2), (4, 2, 7, 2), (4, 2, 7, 3), (5, 2, 6, 2), (5, 2, 7, 2), (5, 2, 7, 3)]),
    "endo": ("endo_build", ("--g", "4", "--r", "2", "--d", "4"), 27,
             ("--g", "4..5", "--r", "2"), [(4, 2, 4), (4, 2, 5), (5, 2, 5), (5, 2, 6)]),
}


@pytest.mark.parametrize("command", BUILD_FAILURES)
@pytest.mark.parametrize("error", [
    pipelines.BuildError(2, "forced"), AlgebraError("component 2: forced"),
], ids=["BuildError", "AlgebraError"])
def test_a_build_failure_is_a_not_proven_verdict(capsys, monkeypatch, command, error):
    # either statement's build failure is a verdict and exit 3, in a sweep too
    def failing(p, *args):
        raise error

    builder, single, expected, sweep, admitted = BUILD_FAILURES[command]
    monkeypatch.setattr(pipelines, builder, failing)
    want = {"status": "not-proven", "certificate_error": "build failed: component 2: forced",
            "product_count": 0, "expected_products": expected}
    code, out, err = run(capsys, command, *single)
    assert (code, err) == (3, "")
    assert {k: json.loads(out)[k] for k in want} == want
    code, out, err = run(capsys, command, "--sweep", *sweep)
    assert (code, err) == (3, "")
    rows = json.loads(out)
    assert [r["params"] for r in rows] == [dict(zip("grdk", t)) for t in admitted]
    assert [r["certificate_error"] for r in rows] == [want["certificate_error"]] * len(admitted)


def test_env_seed_override(capsys, monkeypatch):
    monkeypatch.setenv("ELLCHAIN_SEED", "11")
    code, out, _ = run(capsys, "petri", "--g", "4", "--r", "2", "--d", "6", "--k", "2")
    assert code == 0
    assert json.loads(out)["oracle"]["seeds"] == [11, 12, 13]


def test_audit_mismatch_maps_to_exit_4():
    # certificate and oracle agree but an audit does not: internal inconsistency
    from dataclasses import replace

    from ellchain.cli import _verdict_exit
    from ellchain.pipelines import Audit, petri_certificate

    v = petri_certificate(4, 2, 6, 2)
    broken = replace(
        v, status="not-proven", audits=v.audits + (Audit("forced", 1, 2),)
    )
    assert _verdict_exit(broken) == 4
    assert _verdict_exit(replace(v, status="not-proven", certificate=None)) == 3


@pytest.mark.parametrize("forced_audit,exit_code", [
    (False, 3), (True, 4),
], ids=["not-proven", "inconsistent"])
def test_sweep_with_a_not_proven_row_exits_3(capsys, monkeypatch, forced_audit, exit_code):
    # a sweep exits as its worst row would alone: an audit failing while the
    # certificate and the oracle pass is an inconsistency (4), not a plain 3
    from dataclasses import replace

    import ellchain.cli as cli
    from ellchain.pipelines import Audit, petri_certificate

    v = petri_certificate(4, 2, 6, 2)
    audits = v.audits + ((Audit("forced", 1, 2),) if forced_audit else ())
    row = replace(v, status="not-proven", audits=audits)
    monkeypatch.setattr(cli, "petri_certificate", lambda *args, **kwargs: row)
    code, out, _ = run(
        capsys, "petri", "--sweep", "--g", "4", "--r", "2", "--d", "6", "--k", "2"
    )
    assert code == exit_code
    assert [r["status"] for r in json.loads(out)] == ["not-proven"]


@pytest.mark.parametrize("env,argv", [
    ({}, ("--trials", "0")),
    ({}, ("--prime", "15")),
    ({"ELLCHAIN_SEED": "abc"}, ()),
    ({"ELLCHAIN_FORMAT": "xml"}, ()),
], ids=["trials-0", "prime-15", "env-seed-abc", "env-format-xml"])
def test_bad_oracle_input_is_usage_error(capsys, monkeypatch, env, argv):
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    code, out, err = run(capsys, "petri", "--g", "4", "--r", "2", "--d", "6", "--k", "2", *argv)
    assert code == 2 and out == ""
    assert err.startswith("usage error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ("tableaux", "--g", "6", "--r", "1", "--d", "4"), ("canonical", "--g", "3"),
], ids=["tableaux", "canonical"])
@pytest.mark.parametrize("name,value", [
    ("ELLCHAIN_PRIME", "15"), ("ELLCHAIN_TRIALS", "0"),
], ids=["prime-15", "trials-0"])
def test_oracle_overrides_leave_commands_without_an_oracle_alone(
    capsys, monkeypatch, argv, name, value
):
    monkeypatch.setenv(name, value)
    code, out, err = run(capsys, *argv)
    assert code == 0 and out and err == ""


@pytest.mark.parametrize("argv", [
    ("validate", "--series", "{series}", "--format", "table"),
    ("tableaux", "--g", "6", "--r", "1", "--d", "4", "--seed", "1"),
], ids=["validate-format", "tableaux-seed"])
def test_an_option_the_command_does_not_read_is_usage_error(capsys, tmp_path, argv):
    # a readable series file, so only the option can make validate fail
    series_file = tmp_path / "series.json"
    run(capsys, "canonical", "--g", "3", "--out", str(series_file))
    code, out, err = run(capsys, *(a.format(series=series_file) for a in argv))
    assert code == 2 and out == ""
    assert err.startswith("usage error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv,digest", [
    (("petri", "--sweep", "--g", "2..5", "--r", "1..2"),
     "8c7b6822d3a82cb2e6dee22024f5ab7fd8b32a3362e8e5ca03e48e2e6e8f2648"),
    (("endo", "--sweep", "--g", "4..7", "--r", "2..3"),
     "91e0fc8b11b4ffc24bb4fc16e8b7d1e322cd5775d51bad14d18cbe310bfb52a5"),
    (("endo", "--sweep", "--g", "20", "--r", "5"),
     "ea62e026e5901ba02390fb497c38b0614be290f5955fc8e35a43414b961d554c"),
    (("petri", "--sweep", "--g", "2..6", "--r", "1..3", "--seed", "2208", "--trials", "2"),
     "63c6bedabe54f0c72a1c68611eaaa3d628f3f256d13b0b45fe7277a5a7b719a8"),
    (("endo", "--sweep", "--g", "4..6", "--r", "2..3", "--seed", "2208", "--trials", "2"),
     "b3736d20ac2de28de88591d7b79c6a66bf02d666d1a15ac6684cb626fea97bf9"),
    # the table rows read params and case; endo's vacuous and refused tuples
    (("petri", "--sweep", "--g", "2..5", "--r", "1..2", "--format", "table"),
     "e48a7ddf2761382a21df1e35ceb196fb7b38d0c86c2320c56bf97b8a23403935"),
    (("endo", "--sweep", "--g", "4..7", "--r", "1..3", "--d", "3..10"),
     "1f1596aafc72deb2c3048542bb07c3a67dade73fb33f20349d4e53df37a79ea7"),
    (("endo", "--sweep", "--g", "4..7", "--r", "1..3", "--d", "3..10", "--format", "table"),
     "6046e7e397f348bbf4f01805699ee1a59e3adefbf2cc18d44b15ee487ee794dc"),
], ids=["petri", "endo", "endo-large", "petri-seed-2208", "endo-seed-2208", "petri-table",
        "endo-vacuous-refused", "endo-vacuous-refused-table"])
def test_sweep_json_is_pinned(capsys, argv, digest):
    # default prime, and seed 0 with one trial unless given: any change to a
    # byte of the sweep fails
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


class _RunWatch:
    """Wraps the CLI's binding of an entry point to see the :class:`Run`
    each verdict is decided in: ``seen`` holds a weak reference to each new
    one in turn, ``live`` how many of those were alive as each one started,
    and ``held`` the current one, the only one held here."""

    def __init__(self, monkeypatch, name):
        real, self.seen, self.live, self.held = getattr(cli, name), [], [], []

        def certify(*args, run, **kwargs):
            self.held[:] = [run]
            if not self.seen or self.seen[-1]() is not run:
                self.seen.append(weakref.ref(run))
                self.live.append(sum(ref() is not None for ref in self.seen))
            return real(*args, run=run, **kwargs)

        monkeypatch.setattr(cli, name, certify)


def test_a_sweep_hashes_each_jet_scalar_once_per_g_r_run(monkeypatch, tmp_path):
    real_certify, real_sha256 = cli.petri_certificate, hashlib.sha256
    runs, calls = {}, []

    def certify(g, r, *args, run, **kwargs):
        runs.setdefault((g, r), set()).add(run)
        return real_certify(g, r, *args, run=run, **kwargs)

    def sha256(data):
        calls.append(data)
        return real_sha256(data)

    monkeypatch.setattr(cli, "petri_certificate", certify)
    monkeypatch.setattr(hashlib, "sha256", sha256)
    argv = ["petri", "--sweep", "--g", "2..6", "--r", "1..3", "--seed", "2208", "--trials", "2"]
    assert main([*argv, "--out", str(tmp_path / "sweep.json")]) == 0
    monkeypatch.undo()
    # one Run per (g, r) run, each its own
    assert all(len(run) == 1 for run in runs.values())
    assert len(set.union(*runs.values())) == len(runs) == 15
    # every scalar each run's jet table drew, by its key
    hashed = Counter()
    for (g, r), (run,) in runs.items():
        jets = run.jets
        for (_, seed, trial), vals in jets.drawn.items():
            for n in range(len(vals)):
                hashed[(g, r), seed, trial, jets.text[n].decode(), jets.nonzero[n]] += 1
    # one hash per drawn scalar
    assert len(calls) == sum(hashed.values())
    assert {trial for _, _, trial, _, _ in hashed} == {0, 1}
    assert max(hashed.values()) == 1
    # each run starts a table of its own: some scalar is hashed again in a later run
    assert len({key[1:] for key in hashed}) < len(hashed)


def test_a_sweep_empties_the_memo_tables_once_per_g_r_run(monkeypatch, tmp_path):
    real_clear, real_certify, events = cli.clear_memos, cli.petri_certificate, []

    def clear():
        events.append("emptied")
        real_clear()

    def certify(g, r, *args, run, **kwargs):
        events.append((g, r, run))
        return real_certify(g, r, *args, run=run, **kwargs)

    monkeypatch.setattr(cli, "clear_memos", clear)
    monkeypatch.setattr(cli, "petri_certificate", certify)
    argv = ["petri", "--sweep", "--g", "4..5", "--r", "1..2"]
    assert main([*argv, "--out", str(tmp_path / "sweep.json")]) == 0
    # each run's first verdict follows an emptying, and no other verdict
    # does; the verdicts of a run share one Run, a new one for each run
    runs = [e for e, _ in itertools.groupby(events)]
    assert [e if e == "emptied" else e[:2] for e in runs] == [
        "emptied", (4, 1), "emptied", (4, 2), "emptied", (5, 1), "emptied", (5, 2)
    ]
    assert len({id(e[2]) for e in runs if e != "emptied"}) == 4


def test_a_sweep_leaves_only_its_last_runs_jet_tables(monkeypatch, tmp_path):
    def scalars_per_seed(run):
        drawn = run.jets.drawn
        return [len(drawn[independence.DEFAULT_PRIME, s, 0]) for s in range(3)]

    watch = _RunWatch(monkeypatch, "petri_certificate")
    out = str(tmp_path / "sweep.json")
    assert main(["petri", "--sweep", "--g", "5", "--r", "2", "--out", out]) == 0
    last_run = scalars_per_seed(watch.held[0])
    watch.seen.clear()
    watch.live.clear()
    assert main(["petri", "--sweep", "--g", "4..5", "--r", "1..2", "--out", out]) == 0
    # four runs, each alone alive from its start: an earlier run's tables go
    # with it
    assert watch.live == [1, 1, 1, 1]
    assert [ref() for ref in watch.seen] == [None, None, None, watch.held[0]]
    # the last run, (5, 2), holds one table per seed, with its own scalars only
    assert len(watch.held[0].jets.drawn) == 3
    assert scalars_per_seed(watch.held[0]) == last_run


def test_a_sweep_leaves_only_its_last_endo_run_and_product_columns(monkeypatch, tmp_path):
    watch = _RunWatch(monkeypatch, "onto_certificate")
    out = str(tmp_path / "sweep.json")
    assert main(["endo", "--sweep", "--g", "4..6", "--r", "2..3", "--out", out]) == 0
    # six runs, each alone alive from its start
    assert watch.live == [1] * 6
    (run,) = watch.held
    # the last run, (6, 3), holds its own d-independent half alone
    assert list(run.endo) == [(6, 3)]
    last = run.endo[6, 3]
    # and the product columns kept are those of that run's last verdict
    formed = run.formed
    columns = formed.columns
    assert len(columns) == 6 and columns[0][0] is last.canonical.tables[0]
    assert columns[0][3] is last.pairs
    # and so are its products, and the oracle columns planned on them: a
    # plan of those products plans none again
    products = formed.products
    assert all(p.rows[i] is column[4][n]
               for n, p in enumerate(products) for i, column in enumerate(columns))
    assert len(formed.oracle) == 6 and all(formed.oracle)
    thresholds = [oracle.threshold for oracle in formed.oracle]
    plan = independence.oracle_plan(products, thresholds, formed, run.jets)
    assert all(a is b for a, b in zip(plan.columns, formed.oracle))
    # and the class verdicts kept are that run's with another d: h = 1 (d =
    # 6, 7), not h = 3 (d = 8 alone)
    oracle = (independence.DEFAULT_PRIME, 0, 1)
    assert list(run.decided) == [(6, 3, 1, *oracle)]
    # and the certificate texts kept are those class verdicts', at list depth
    assert run.kept == {
        id(v.certificate): {"    ": serialize.to_text(v.certificate, "    ")}
        for v in run.decided.values()
    }


@pytest.mark.parametrize("argv, decided, verdicts", [
    (("--g", "20", "--r", "5"), 2, 5),
    (("--g", "4..10", "--r", "2..4"), 49, 63),
], ids=["endo-large", "endo-grid"])
def test_an_endo_sweep_decides_each_class_once(monkeypatch, tmp_path, argv, decided, verdicts):
    # h = gcd(r, d - g + 1) is 1 for d = 20..23 at (20, 5) and 5 for d = 24
    real, calls = pipelines.decide, []

    def counted(products, draft, *args):
        calls.append(draft.params)
        return real(products, draft, *args)

    monkeypatch.setattr(pipelines, "decide", counted)
    out = tmp_path / "sweep.json"
    assert main(["endo", "--sweep", *argv, "--out", str(out)]) == 0
    assert len(calls) == decided
    assert len(json.loads(out.read_text())) == verdicts


def test_an_endo_sweep_keeps_only_the_classes_a_later_d_copies(capsys, monkeypatch):
    # at (20, 5) h is 1 for d = 20..23 and 5 for d = 24, which has no other d:
    # its verdict and certificate text are not kept
    watch = _RunWatch(monkeypatch, "onto_certificate")
    code, out, _ = run(capsys, "endo", "--sweep", "--g", "20", "--r", "5")
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
        "ea62e026e5901ba02390fb497c38b0614be290f5955fc8e35a43414b961d554c"
    )
    (last,) = watch.held
    assert list(last.decided) == [(20, 5, 1, independence.DEFAULT_PRIME, 0, 1)]
    (kept,) = last.decided.values()
    assert {key: list(texts) for key, texts in last.kept.items()} == {
        id(kept.certificate): ["    "]
    }


def test_an_endo_sweep_from_the_middle_of_a_class_decides_from_its_own_build(
    capsys, monkeypatch
):
    code, full, _ = run(capsys, "endo", "--sweep", "--g", "20", "--r", "5")
    assert code == 0
    real, built = pipelines.endo_build, []

    def recorded(p, *args):
        built.append(p.d)
        return real(p, *args)

    monkeypatch.setattr(pipelines, "endo_build", recorded)
    code, tail, _ = run(capsys, "endo", "--sweep", "--g", "20", "--r", "5", "--d", "23..24")
    assert code == 0
    # the sweep's last two elements, byte for byte: an element after the
    # first, and nothing else, starts ",\n  {"
    assert full.count(",\n  {") == 4
    assert_same_text(tail, "[\n  {" + ",\n  {".join(full.split(",\n  {")[-2:]))
    # d = 23 is the first of its class here, so it is built from its own series
    assert built == [23, 24]


def test_verdicts_decided_with_tables_warmed_by_other_runs_keep_their_bytes(
    capsys, monkeypatch
):
    # the tables are never emptied and every run is decided in one shared
    # Run, so every run after the first, petri (5, 2, 7, 3) among them,
    # reads classes and jet scalars an earlier run put there
    shared = pipelines.Run()
    monkeypatch.setattr(cli, "clear_memos", lambda: None)
    monkeypatch.setattr(cli, "Run", lambda: shared)
    clear_memos()
    try:
        code, out, _ = run(capsys, "petri", "--sweep", "--g", "2..5", "--r", "1..2")
        assert Degree0Class.__add__.cache_info().hits > 0
        assert len(shared.jets.drawn) == 3
    finally:
        clear_memos()
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
        "8c7b6822d3a82cb2e6dee22024f5ab7fd8b32a3362e8e5ca03e48e2e6e8f2648"
    )


def test_sweep_admitting_nothing_prints_an_empty_list(capsys):
    code, out, _ = run(capsys, "endo", "--sweep", "--g", "2..3", "--r", "2")
    assert code == 0 and out == "[]\n"
    code, out, _ = run(capsys, "endo", "--sweep", "--g", "2..3", "--r", "2", "--format", "table")
    assert code == 0 and out == "\n"


@pytest.mark.parametrize("command, option", [
    ("petri", "--g"), ("petri", "--r"), ("petri", "--d"), ("petri", "--k"),
    ("endo", "--g"), ("endo", "--r"), ("endo", "--d"),
])
def test_an_inverted_range_is_usage_error(capsys, tmp_path, command, option):
    values = {"--g": "5", "--r": "2", "--d": "7", "--k": "3"}
    if command == "endo":
        del values["--k"]
    values[option] = "5..3"
    argv = [x for pair in values.items() for x in pair]
    out_file = tmp_path / "out.json"
    code, out, err = run(capsys, command, "--sweep", *argv, "--out", str(out_file))
    assert code == 2 and out == "" and not list(tmp_path.iterdir())
    assert err == f"usage error: {option} 5..3 is an empty range: 5 > 3\n"


@pytest.mark.parametrize("argv, message", [
    (("canonical", "--g", "1"), "canonical series needs genus >= 2, got 1"),
    (("tableaux", "--g", "3", "--r", "-1", "--d", "2"), "need r >= 0, got -1"),
    (("tableaux", "--g", "3", "--r", "1", "--d", "9"), "shape (2) x (-5) has negative width"),
    (("validate", "--series", "{missing}"),
     "[Errno 2] No such file or directory: '{missing}'"),
    (("redistribute", "--series", "{missing}", "--dprime", "1"),
     "[Errno 2] No such file or directory: '{missing}'"),
    (("petri", "--g", "5", "--r", "2", "--d", "7"), "--k needs a single value here"),
    (("petri", "--sweep", "--g", "2..3"), "missing required range"),
    (("endo", "--g", "4..5", "--r", "2", "--d", "4"), "--g needs a single value here"),
    (("petri", "--sweep", "--g", "x", "--r", "2"),
     "--g x: expected an integer or a range a..b"),
    (("endo", "--sweep", "--g", "2..y", "--r", "2"),
     "--g 2..y: expected an integer or a range a..b"),
    (("endo", "--sweep", "--g", "4", "--r", "2", "--d", "..5"),
     "--d ..5: expected an integer or a range a..b"),
    (("petri", "--g", "5", "--r", "2", "--d", "4.5", "--k", "3"), "--d 4.5: expected an integer"),
], ids=["canonical-genus", "tableaux-rank", "tableaux-width", "validate-missing",
        "redistribute-missing", "petri-no-k", "petri-sweep-no-r", "endo-range-g", "sweep-g-x",
        "sweep-g-2..y", "sweep-d-..5", "single-d-4.5"])
def test_bad_input_exits_2_with_its_one_line(capsys, tmp_path, argv, message):
    missing = tmp_path / "missing.json"
    code, out, err = run(capsys, *(a.format(missing=missing) for a in argv))
    assert code == 2 and out == ""
    assert err == f"usage error: {message.format(missing=missing)}\n"


# six admitted, proven verdicts among the sweep's eight tuples
SMALL_SWEEP = ("petri", "--sweep", "--g", "4..5", "--r", "2", "--d", "6..7", "--k", "2..3")


def test_a_sweep_holds_no_verdict_after_writing_it(monkeypatch, tmp_path):
    real, refs, alive = cli.petri_certificate, [], []

    def tracked(*args, **kwargs):
        alive.append(sum(ref() is not None for ref in refs))
        v = real(*args, **kwargs)
        refs.append(weakref.ref(v))
        return v

    monkeypatch.setattr(cli, "petri_certificate", tracked)
    assert main([*SMALL_SWEEP, "--out", str(tmp_path / "sweep.json")]) == 0
    assert len(json.loads((tmp_path / "sweep.json").read_text())) == 6
    # when each verdict starts, every earlier one is gone
    assert len(alive) == 8 and alive == [0] * 8
    assert all(ref() is None for ref in refs)


@pytest.mark.parametrize("earlier", [None, "an earlier run's output\n"], ids=["new", "existing"])
def test_a_failed_sweep_leaves_out_as_it_was(monkeypatch, tmp_path, earlier):
    real, calls = cli.petri_certificate, []

    def failing(*args, **kwargs):
        calls.append(args)
        if len(calls) == 3:
            raise RuntimeError("verdict failed")
        return real(*args, **kwargs)

    out_file = tmp_path / "sweep.json"
    if earlier is not None:
        out_file.write_text(earlier, encoding="utf-8")
    monkeypatch.setattr(cli, "petri_certificate", failing)
    with pytest.raises(RuntimeError, match="verdict failed"):
        main([*SMALL_SWEEP, "--out", str(out_file)])
    # no temporary file is left beside it either
    assert sorted(tmp_path.iterdir()) == ([] if earlier is None else [out_file])
    if earlier is not None:
        assert out_file.read_text(encoding="utf-8") == earlier


@pytest.mark.parametrize("argv", [("canonical", "--g", "3"), SMALL_SWEEP],
                         ids=["canonical", "sweep"])
def test_out_is_written_like_stdout_with_a_plain_open_mode(capsys, tmp_path, argv):
    out_file = tmp_path / "out.json"
    umask = os.umask(0o027)
    try:
        code, _, _ = run(capsys, *argv, "--out", str(out_file))
    finally:
        os.umask(umask)
    assert code == 0
    assert stat.S_IMODE(out_file.stat().st_mode) == 0o666 & ~0o027
    assert out_file.read_text(encoding="utf-8") == run(capsys, *argv)[1]


@pytest.mark.parametrize("argv", [("canonical", "--g", "3"), SMALL_SWEEP],
                         ids=["canonical", "sweep"])
@pytest.mark.parametrize("target", ["missing/out.json", "."], ids=["missing-dir", "a-dir"])
def test_an_unwritable_out_is_usage_error(capsys, monkeypatch, tmp_path, argv, target):
    def never(*args, **kwargs):
        raise AssertionError("a verdict was computed for an unwritable --out")

    monkeypatch.setattr(cli, "petri_certificate", never)
    code, out, err = run(capsys, *argv, "--out", str(tmp_path / target))
    assert code == 2 and out == ""
    assert err.startswith("usage error: ") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("earlier", [None, "an earlier run's output\n"], ids=["dangling", "existing"])
def test_a_symlinked_out_replaces_its_target_and_keeps_the_link(capsys, tmp_path, earlier):
    target, link = tmp_path / "real.json", tmp_path / "link.json"
    if earlier is not None:
        target.write_text(earlier, encoding="utf-8")
    link.symlink_to(target.name)
    code, out, _ = run(capsys, "canonical", "--g", "3", "--out", str(link))
    assert code == 0 and out == ""
    assert link.is_symlink() and os.readlink(link) == target.name
    assert target.read_text(encoding="utf-8") == run(capsys, "canonical", "--g", "3")[1]
    assert sorted(tmp_path.iterdir()) == [link, target]


def test_an_out_name_as_long_as_the_filesystem_takes_is_written(capsys, tmp_path):
    if os.pathconf(tmp_path, "PC_NAME_MAX") < 255:
        pytest.skip("names of 255 bytes are not taken here")
    out_file = tmp_path / ("o" * 250 + ".json")
    code, out, err = run(capsys, "canonical", "--g", "3", "--out", str(out_file))
    assert code == 0 and out == "" and err == ""
    assert out_file.read_text(encoding="utf-8") == run(capsys, "canonical", "--g", "3")[1]
    # no temporary file is left beside it
    assert list(tmp_path.iterdir()) == [out_file]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs")
@pytest.mark.parametrize("argv", [("canonical", "--g", "3"), SMALL_SWEEP],
                         ids=["canonical", "sweep"])
def test_a_fifo_out_is_written_in_place(capsys, tmp_path, argv):
    # replacing a FIFO, or a device such as /dev/null, would leave a regular file
    fifo = tmp_path / "out.fifo"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
    reader.start()
    try:
        code, out, _ = run(capsys, *argv, "--out", str(fifo))
    finally:
        reader.join(timeout=60)
    assert not reader.is_alive()
    assert code == 0 and out == ""
    assert got == [run(capsys, *argv)[1].encode("utf-8")]
    assert stat.S_ISFIFO(fifo.stat().st_mode)
    assert list(tmp_path.iterdir()) == [fifo]


def test_endo_below_genus_4_names_the_product_list(capsys):
    code, out, _ = run(capsys, "endo", "--g", "3", "--r", "2", "--d", "3")
    assert code == 3
    payload = json.loads(out)
    assert payload["status"] == "hypothesis-not-met"
    assert payload["certificate_error"] == "the product list needs g >= 4, got 3"


def test_validate_rejects_a_rational_component(capsys, tmp_path):
    out_file = tmp_path / "series.json"
    run(capsys, "canonical", "--g", "3", "--out", str(out_file))
    payload = json.loads(out_file.read_text())
    payload["series"]["chain"]["kinds"][1] = "rational"
    out_file.write_text(json.dumps(payload))
    code, out, err = run(capsys, "validate", "--series", str(out_file))
    assert code == 2 and out == ""
    assert err.startswith("usage error: ") and err.count("\n") == 1


def _drop_rank(payload):
    del payload["series"]["rank"]
    return payload


def _table_to_int(payload):
    payload["series"]["tables"][1] = 5
    return payload


@pytest.mark.parametrize("command", [
    ("validate",), ("redistribute", "--dprime", "4,0,0"),
], ids=["validate", "redistribute"])
@pytest.mark.parametrize("edit", [
    _drop_rank, _table_to_int, lambda payload: [],
], ids=["missing-key", "wrong-type", "not-an-object"])
def test_malformed_series_is_usage_error(capsys, tmp_path, command, edit):
    series_file = tmp_path / "series.json"
    run(capsys, "canonical", "--g", "3", "--out", str(series_file))
    series_file.write_text(json.dumps(edit(json.loads(series_file.read_text()))))
    code, out, err = run(capsys, command[0], "--series", str(series_file), *command[1:])
    assert code == 2 and out == ""
    assert err.startswith("usage error: ") and err.count("\n") == 1


def _write_other_output(capsys, path, source):
    # the output of another ellchain command, or JSON nested past the parser's limit
    if source == "nested":
        path.write_text("[" * 200_000)
        return
    series_file = path.with_name("series.json")
    run(capsys, "canonical", "--g", "3", "--out", str(series_file))
    argv = {
        "verdict": ("petri", "--g", "5", "--r", "2", "--d", "7", "--k", "3"),
        "validation": ("validate", "--series", str(series_file)),
        "redistribution": ("redistribute", "--series", str(series_file), "--dprime", "4,0,0"),
    }[source]
    run(capsys, *argv, "--out", str(path))


@pytest.mark.parametrize("command", [
    ("validate",), ("redistribute", "--dprime", "4,0,0"),
], ids=["validate", "redistribute"])
@pytest.mark.parametrize("source", ["verdict", "validation", "redistribution", "nested"])
def test_a_file_that_is_not_a_series_is_usage_error(capsys, tmp_path, command, source):
    other = tmp_path / "other.json"
    _write_other_output(capsys, other, source)
    code, out, err = run(capsys, command[0], "--series", str(other), *command[1:])
    assert code == 2 and out == ""
    assert err.startswith("usage error: ") and err.count("\n") == 1
    expected = "JSON nested too deeply" if source == "nested" else f"got type {source!r}"
    assert expected in err


def _drop_third_table(payload):
    del payload["series"]["tables"][2]
    return payload


def _row_in_missing_slot(payload):
    payload["series"]["tables"][1]["rows"][0]["slot"] = 5
    return payload


def _rank_zero(payload):
    series = payload["series"]
    series["rank"] = series["dimension"] = 0
    for bundle in series["bundles"]:
        bundle["slots"] = []
    for table in series["tables"]:
        table["rows"] = []
    return payload


def _negative_matched_slot(payload):
    payload["series"]["gluing"]["nodes"][0]["matched"] = [[-1, 0]]
    return payload


def _distinguished_id_past_dimension(payload):
    payload["series"]["gluing"]["distinguished"] = [[1, [3]]]
    return payload


@pytest.mark.parametrize(
    "edit",
    [_drop_third_table, _row_in_missing_slot, _rank_zero, _negative_matched_slot,
     _distinguished_id_past_dimension],
    ids=["dropped-table", "missing-slot", "rank-0", "negative-matched-slot",
         "distinguished-id"],
)
def test_redistribute_rejects_a_structurally_broken_series(capsys, tmp_path, edit):
    series_file = tmp_path / "series.json"
    run(capsys, "canonical", "--g", "3", "--out", str(series_file))
    series_file.write_text(json.dumps(edit(json.loads(series_file.read_text()))))
    code, _, _ = run(capsys, "validate", "--series", str(series_file))
    assert code == 3
    code, out, err = run(
        capsys, "redistribute", "--series", str(series_file), "--dprime", "4,0,0"
    )
    assert code == 2 and out == ""
    assert err.startswith("usage error: ") and err.count("\n") == 1


# -- an output that fails while it is written ---------------------------------

FULL_DISK = f"{os.strerror(errno.ENOSPC)}\n"


class _FullDisk(io.TextIOWrapper):
    """A text stream whose ``write`` or ``flush`` fails as on a full disk."""

    def __init__(self, buffer, fails):
        super().__init__(buffer, encoding="utf-8")
        self.fails = fails

    def write(self, text):
        if self.fails == "write":
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return super().write(text)

    def flush(self):
        if self.fails == "flush":
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        super().flush()


@pytest.mark.parametrize("fails", ["write", "flush"])
@pytest.mark.parametrize("argv", [
    ("canonical", "--g", "5"),
    ("canonical", "--g", "3", "--format", "table"),
    ("tableaux", "--g", "6", "--r", "1", "--d", "4"),
    ("tableaux", "--g", "4", "--r", "1", "--d", "3", "--enumerate"),
    ("validate", "--series", "{series}"),
    ("redistribute", "--series", "{series}", "--dprime", "6,0,0,0"),
    ("petri", "--g", "5", "--r", "2", "--d", "7", "--k", "3"),
    ("endo", "--g", "4", "--r", "2", "--d", "4", "--format", "table"),
    SMALL_SWEEP,
    ("endo", "--sweep", "--g", "4..5", "--r", "2", "--format", "table"),
], ids=["canonical", "canonical-table", "tableaux", "tableaux-enumerate", "validate",
        "redistribute", "petri", "endo-table", "petri-sweep", "endo-sweep-table"])
def test_a_stdout_that_fails_to_write_is_usage_error(capsys, monkeypatch, tmp_path, argv, fails):
    series_file = tmp_path / "series.json"
    run(capsys, "canonical", "--g", "4", "--out", str(series_file))
    stdout = _FullDisk(io.BytesIO(), fails)
    monkeypatch.setattr(sys, "stdout", stdout)
    code, _, err = run(capsys, *(a.format(series=series_file) for a in argv))
    stdout.fails = None  # so that it closes cleanly
    assert code == 2
    assert err == "usage error: cannot write stdout: " + FULL_DISK


@pytest.mark.parametrize("fails", ["write", "flush"])
@pytest.mark.parametrize("earlier", [None, "an earlier run's output\n"], ids=["new", "existing"])
def test_a_sweep_whose_out_fails_to_write_leaves_it_as_it_was(
    capsys, monkeypatch, tmp_path, earlier, fails
):
    out_file = tmp_path / "sweep.json"
    if earlier is not None:
        out_file.write_text(earlier, encoding="utf-8")

    def full_open(path, mode, encoding):
        assert mode == "w" and encoding == "utf-8"
        return _FullDisk(open(path, "wb"), fails)

    monkeypatch.setattr(cli, "open", full_open, raising=False)
    code, out, err = run(capsys, *SMALL_SWEEP, "--out", str(out_file))
    assert code == 2 and out == ""
    assert err == f"usage error: cannot write {out_file}: " + FULL_DISK
    assert sorted(tmp_path.iterdir()) == ([] if earlier is None else [out_file])
    if earlier is not None:
        assert out_file.read_text(encoding="utf-8") == earlier


@pytest.mark.parametrize("to_out", [False, True], ids=["stdout", "out"])
def test_an_os_error_outside_writing_propagates(monkeypatch, tmp_path, to_out):
    def failing(*args, **kwargs):
        raise OSError(errno.EIO, "verdict failed")

    monkeypatch.setattr(cli, "petri_certificate", failing)
    argv = [*SMALL_SWEEP, *(("--out", str(tmp_path / "sweep.json")) if to_out else ())]
    with pytest.raises(OSError, match="verdict failed"):
        main(argv)
    assert list(tmp_path.iterdir()) == []


def _console(argv, stdout, unbuffered=False):
    """``ellchain ARGV`` in a fresh interpreter, its stderr captured.

    Its stdout is buffered unless ``unbuffered``, so text it could not write
    is still pending when the interpreter flushes its streams at exit.
    """
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    env["PYTHONPATH"] = str(Path(cli.__file__).parents[1])
    return subprocess.run(
        [sys.executable, "-m", "ellchain.cli", *argv],
        stdout=stdout, stderr=subprocess.PIPE, text=True, env=env, timeout=60,
    )


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("argv", [
    ["canonical", "--g", "5"], ["tableaux", "--g", "6", "--r", "1", "--d", "4"],
], ids=["canonical", "tableaux"])
def test_a_full_device_on_stdout_exits_2_with_one_line(argv):
    with open("/dev/full", "w") as full:
        done = _console(argv, full)
    # the interpreter's own flush at exit adds no second report
    assert done.returncode == 2
    assert done.stderr == "usage error: cannot write stdout: " + FULL_DISK


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [["--help"], ["tableaux", "--help"]], ids=["help", "tableaux-help"])
def test_help_to_a_full_device_exits_2_with_one_line(argv, unbuffered):
    # argparse's own write would swallow the error unbuffered, and buffered
    # leave it to the flush at exit
    with open("/dev/full", "w") as full:
        done = _console(argv, full, unbuffered)
    assert done.returncode == 2
    assert done.stderr == "usage error: cannot write stdout: " + FULL_DISK


def test_help_is_written_with_exit_0(capsys):
    with pytest.raises(SystemExit) as exited:
        main(["tableaux", "--help"])
    assert exited.value.code == 0
    assert capsys.readouterr().out.startswith("usage: ellchain tableaux [-h]")


def test_a_closed_pipe_on_stdout_exits_2_with_one_line():
    read, write = os.pipe()
    os.close(read)
    try:
        done = _console(["tableaux", "--g", "6", "--r", "1", "--d", "4"], write)
    finally:
        os.close(write)
    assert done.returncode == 2
    assert done.stderr == f"usage error: cannot write stdout: {os.strerror(errno.EPIPE)}\n"


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="no /dev/stdout")
def test_out_dev_stdout_into_a_pipe_is_written_in_place():
    # the resolved name of /dev/stdout on a pipe, /proc/<pid>/fd/pipe:[N], opens nothing
    done = _console(["canonical", "--g", "5", "--out", "/dev/stdout"], subprocess.PIPE)
    assert done.returncode == 0 and done.stderr == ""
    assert hashlib.sha256(done.stdout.encode("utf-8")).hexdigest() == (
        "c26f3c3ad403ebecc2a4dc1243fff9e1c8655ed87eb6753b6005b38aa07998d8"
    )


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="no /dev/stdout")
def test_out_dev_stdout_onto_a_file_keeps_the_shells_append(tmp_path):
    # as `ellchain ... --out /dev/stdout >> f`: replacing the file would drop what it held
    out_file = tmp_path / "f"
    out_file.write_text("earlier\n", encoding="utf-8")
    with open(out_file, "a", encoding="utf-8") as appended:
        done = _console(["tableaux", "--g", "6", "--r", "1", "--d", "4", "--out", "/dev/stdout"],
                        appended)
    assert done.returncode == 0 and done.stderr == ""
    assert out_file.read_text(encoding="utf-8") == "earlier\n5\n"
