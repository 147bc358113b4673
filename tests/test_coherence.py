"""A verdict does not depend on what else its run decided.

Each verdict of a sweep is decided three ways, and each way must give it the
same bytes:

* warm: by the CLI sweep, whose (g, r) runs share their tables;
* cold: alone, from empty tables;
* permuted: by the CLI sweep with each (g, r) run's tuples reversed, and
  again shuffled by a fixed seed.  Every other verdict is written one level
  deeper and re-indented, so a certificate text kept for an endo class is
  read at a depth other than the one it was first written at.
"""

import itertools
import json
import random

import pytest

import ellchain.cli as cli
import ellchain.serialize as serialize
from ellchain.cli import main
from ellchain.elliptic import clear_memos
from reference import assert_same_text

#: each grid's command line and its count of admitted verdicts
GRIDS = {
    "petri": (("petri", "--sweep", "--g", "2..6", "--r", "1..3"), 468),
    "endo": (("endo", "--sweep", "--g", "4..9", "--r", "2..6"), 120),
}


def _elements(text: str) -> dict[tuple[int, ...], str]:
    """The element texts of a sweep's JSON list, at list depth, keyed by
    their params in the entry points' order."""
    items = text[len("[\n  "):-len("\n]\n")].split(",\n  {")
    texts = items[:1] + ["{" + item for item in items[1:]]
    keyed = {}
    for t in texts:
        params = json.loads(t)["params"]
        keyed[tuple(params[n] for n in ("g", "r", "d", "k") if n in params)] = t
    return keyed


def _sweep(argv, tmp_path) -> dict[tuple[int, ...], str]:
    out = tmp_path / "sweep.json"
    assert main([*argv, "--out", str(out)]) == 0
    return _elements(out.read_text())


def _permuted(monkeypatch, argv, tmp_path, order) -> dict[tuple[int, ...], str]:
    """The sweep with each (g, r) run's tuples put in ``order``, every other
    verdict written one level deeper and re-indented."""
    real_sweep, real_text, written = cli._sweep, serialize.to_text, itertools.count()

    def sweep(args):
        for _, run in itertools.groupby(real_sweep(args), key=lambda t: t[:2]):
            yield from order(list(run))

    def to_text(obj, pad="", *rest):
        if next(written) % 2 == 0:
            return real_text(obj, pad, *rest)
        # each line after a newline loses the two spaces it gained
        return real_text(obj, pad + "  ", *rest).replace("\n  ", "\n")

    with monkeypatch.context() as m:
        m.setattr(cli, "_sweep", sweep)
        m.setattr(serialize, "to_text", to_text)
        return _sweep(argv, tmp_path)


def _shuffled(seed: int):
    rng = random.Random(seed)

    def order(run: list) -> list:
        rng.shuffle(run)
        return run

    return order


@pytest.mark.parametrize("grid", GRIDS)
def test_every_verdict_has_the_same_bytes_warm_cold_and_permuted(monkeypatch, tmp_path, grid):
    argv, count = GRIDS[grid]
    warm = _sweep(argv, tmp_path)
    assert len(warm) == count
    certify = cli.petri_certificate if grid == "petri" else cli.onto_certificate
    for params, text in warm.items():
        clear_memos()
        assert_same_text(serialize.to_text(certify(*params), "  "), text)
    for order in (lambda run: run[::-1], _shuffled(2208)):
        permuted = _permuted(monkeypatch, argv, tmp_path, order)
        assert permuted.keys() == warm.keys()
        for params, text in warm.items():
            assert_same_text(permuted[params], text)
