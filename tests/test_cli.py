"""Command-line behavior: exit codes, formats, determinism, golden output."""

import json
from pathlib import Path

import pytest

from ellchain.cli import main

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


def test_sweep_with_a_not_proven_row_exits_3(capsys, monkeypatch):
    from dataclasses import replace

    import ellchain.cli as cli
    from ellchain.pipelines import petri_certificate

    row = replace(petri_certificate(4, 2, 6, 2), status="not-proven")
    monkeypatch.setattr(cli, "petri_certificate", lambda *args, **kwargs: row)
    code, out, _ = run(
        capsys, "petri", "--sweep", "--g", "4", "--r", "2", "--d", "6", "--k", "2"
    )
    assert code == 3
    assert [r["status"] for r in json.loads(out)] == ["not-proven"]


@pytest.mark.parametrize("env,argv", [
    ({}, ("--trials", "0")),
    ({}, ("--prime", "15")),
    ({"ELLCHAIN_SEED": "abc"}, ()),
], ids=["trials-0", "prime-15", "env-seed-abc"])
def test_bad_oracle_input_is_usage_error(capsys, monkeypatch, env, argv):
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    code, out, err = run(capsys, "petri", "--g", "4", "--r", "2", "--d", "6", "--k", "2", *argv)
    assert code == 2 and out == ""
    assert err.startswith("usage error: ") and err.count("\n") == 1

