"""Round-trips for every payload type: parse(serialize(x)) == x."""

import copy
import json
import pickle
import re
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellchain import pipelines, serialize
from ellchain.chain import StabilityVerdict, canonical_series, redistribute, validate_lls
from ellchain.cli import main
from ellchain.elliptic import (
    BundleOnComponent,
    Degree0Class,
    IndecomposableSlot,
    LineBundleClass,
    clear_memos,
)
from ellchain.independence import DEFAULT_PRIME, Certificate, EliminationPass, Survivor
from ellchain.pipelines import (
    Audit,
    DistributionInfo,
    OracleBlock,
    decide,
    onto_certificate,
    petri_build,
    petri_certificate,
    petri_instance,
    petri_params,
)
from reference import assert_same_text


@pytest.mark.parametrize("g", [2, 3, 6])
def test_series_round_trip(g):
    s = canonical_series(g)
    assert serialize.loads(serialize.dumps(s)) == s


@pytest.mark.parametrize("make", [
    lambda: petri_certificate(5, 2, 7, 3),
    lambda: onto_certificate(5, 3, 6),
    lambda: petri_build(petri_params(5, 2, 7, 3)).primary,
], ids=["petri-verdict", "endo-verdict", "series"])
def test_slotted_values_survive_pickle_and_deepcopy(make):
    # what a process pool does to a verdict: the copies encode to the same bytes
    value = make()
    text = serialize.dumps(value)
    for twin in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
        assert twin == value
        assert_same_text(serialize.dumps(twin), text)


def test_series_with_twists_round_trip():
    from ellchain.pipelines import petri_build, petri_params

    build = petri_build(petri_params(5, 2, 7, 3))
    for series in (build.primary, build.dual):
        assert serialize.loads(serialize.dumps(series)) == series


def test_validation_round_trip():
    report = validate_lls(canonical_series(4))
    assert serialize.loads(serialize.dumps(report)) == report


def test_redistribution_round_trip():
    s = canonical_series(5)
    r = redistribute(s, (4, 0, 0, 2, 2))
    assert serialize.loads(serialize.dumps(r)) == r


def test_verdict_and_certificate_round_trip():
    for v in (petri_certificate(5, 2, 7, 3), onto_certificate(4, 2, 5)):
        assert serialize.loads(serialize.dumps(v)) == v
        assert serialize.loads(serialize.dumps(v.certificate)) == v.certificate


def test_deterministic_encoding():
    a = serialize.dumps(petri_certificate(4, 2, 6, 2, seed=5))
    b = serialize.dumps(petri_certificate(4, 2, 6, 2, seed=5))
    assert_same_text(a, b)


def test_schema_version_enforced():
    payload = serialize.to_payload(canonical_series(2))
    payload["schema"] = 99
    with pytest.raises(serialize.SchemaError):
        serialize.from_payload(payload)


def test_slots_and_classes_survive():
    twist = Degree0Class.of_pq(1) + Degree0Class.of_torsion("eta", 3, 2)
    line = LineBundleClass(2, 1, twist)
    atom = IndecomposableSlot(3, 2, Degree0Class.of_generic("x", -2))
    s = canonical_series(2)
    s = replace(s, bundles=(BundleOnComponent((line, atom)),) + s.bundles[1:])
    back = serialize.loads(serialize.dumps(s))
    assert back.bundles[0].slots == (line, atom)
    assert back == s


def _not_proven():
    # a duplicated product cannot be discriminated: no certificate, low oracle rank
    products, draft = petri_instance(petri_build(petri_params(4, 2, 6, 2)))
    return decide(products + products[:1], draft, DEFAULT_PRIME, 0, 1)


@pytest.mark.parametrize("make,status", [
    (lambda: petri_certificate(3, 2, 4, 4), "hypothesis-not-met"),
    (lambda: onto_certificate(4, 1, 4), "vacuous"),
    (_not_proven, "not-proven"),
], ids=["hypothesis-not-met", "vacuous", "not-proven"])
def test_every_status_round_trips(make, status):
    v = make()
    assert v.status == status
    assert serialize.loads(serialize.dumps(v)) == v


def _top_level_payloads():
    series = canonical_series(4)
    verdict = petri_certificate(4, 2, 6, 2)
    return {
        "series": series,
        "validation": validate_lls(series),
        "redistribution": redistribute(series, (6, 0, 0, 0)),
        "certificate": verdict.certificate,
        "verdict": verdict,
    }


DERIVED_KEYS = {"ok", "empty_components"}


@pytest.mark.parametrize("kind", sorted(_top_level_payloads()))
def test_missing_key_is_schema_error(kind):
    obj = _top_level_payloads()[kind]
    payload = serialize.to_payload(obj)
    assert payload["type"] == kind
    for key in payload:
        broken = {k: v for k, v in payload.items() if k != key}
        if key in DERIVED_KEYS:  # written for readers, ignored on input
            assert serialize.from_payload(broken) == obj
            continue
        with pytest.raises(serialize.SchemaError):
            serialize.from_payload(broken)


@pytest.mark.parametrize("edit,message", [
    (lambda p: p["tables"].__setitem__(0, 5), "series.tables[0]: expected an object, got int"),
    (lambda p: p.__setitem__("rank", True), "series.rank: expected int, got bool"),
    (lambda p: p["tables"][1]["rows"][0].pop("ord_q"),
     "series.tables[1].rows[0]: missing key 'ord_q'"),
    (lambda p: p["bundles"][0]["slots"][0].__setitem__("kind", "blob"),
     "series.bundles[0].slots[0]: unknown slot kind 'blob'"),
    (lambda p: p["gluing"]["nodes"][0].__setitem__("matched", [[0]]),
     "series.gluing.nodes[0].matched[0]: expected 2 entries, got 1"),
], ids=["table", "bool-rank", "row-key", "slot-kind", "pair-length"])
def test_errors_name_the_field_path(edit, message):
    payload = serialize.to_payload(canonical_series(3))
    edit(payload)
    with pytest.raises(serialize.SchemaError, match=re.escape(message)):
        serialize.from_payload(payload)


def test_extra_keys_are_ignored():
    s = canonical_series(3)
    payload = serialize.to_payload(s)
    payload["comment"] = "hand-edited"
    payload["tables"][0]["rows"][0]["note"] = 1
    assert serialize.from_payload(payload) == s


@pytest.mark.parametrize("value", [[], "series", 3, None])
def test_non_object_payload_is_schema_error(value):
    with pytest.raises(serialize.SchemaError, match="expected an object"):
        serialize.from_payload(value)


def test_payloads_are_plain_json():
    text = serialize.dumps(petri_certificate(5, 2, 7, 3))
    json.loads(text)  # no custom types leak through


#: characters the writer must escape as json.dumps does: quotes, backslashes,
#: control characters, non-ASCII, a line separator and an astral character
AWKWARD = st.sampled_from(['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "é", "\u2028", "😀"])
TEXT = st.text(st.one_of(st.characters(), AWKWARD), max_size=8)
PAYLOADS = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-2**100, 2**100) | TEXT,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(TEXT, inner, max_size=4),
    max_leaves=30,
)


def _dumped(obj, pad=""):
    """The text ``to_text(obj, pad)`` must equal: ``json.dumps`` of the
    payload, with ``pad`` after each newline."""
    payload = obj if type(obj) is dict else serialize.to_payload(obj)
    return json.dumps(payload, sort_keys=True, indent=2).replace("\n", "\n" + pad)


@settings(max_examples=400, deadline=None)
@given(PAYLOADS)
def test_the_writer_equals_json_dumps_on_every_json_shape(payload):
    # to_text writes a dict of JSON values as it writes a payload's
    for pad in ("", "  "):
        assert serialize.to_text({"payload": payload}, pad) == _dumped({"payload": payload}, pad)


@pytest.mark.parametrize("make", [
    lambda: petri_certificate(5, 2, 7, 3),
    lambda: onto_certificate(5, 3, 6),
], ids=["petri-verdict", "endo-verdict"])
def test_padded_encoding_is_the_reindented_text(make):
    # a sweep writes each verdict at list depth: the text it wrote before
    v = make()
    assert_same_text(serialize.to_text(v, "  "), serialize.dumps(v)[:-1].replace("\n", "\n  "))
    assert_same_text(
        serialize.dumps(v), json.dumps(serialize.to_payload(v), sort_keys=True, indent=2) + "\n"
    )


# the typed writer: the text of to_payload, written without the payload tree

#: audit values have hint ``object``: any JSON shape, tuples included
AUDIT_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2**70, 2**70) | TEXT,
    lambda inner: st.tuples(inner, inner) | st.lists(inner, max_size=3)
    | st.dictionaries(TEXT, inner, max_size=3),
    max_leaves=8,
)
SMALL = st.integers(-3, 40)
PAIRS = st.lists(st.tuples(SMALL, SMALL), max_size=4).map(tuple)
CERTIFICATES = st.builds(
    Certificate,
    st.lists(st.builds(
        EliminationPass,
        SMALL,
        st.lists(st.builds(Survivor, SMALL, SMALL, SMALL, st.booleans(), SMALL, st.booleans()),
                 max_size=3).map(tuple),
    ), max_size=3).map(tuple),
    SMALL,
    PAIRS,
)
MUTATIONS = st.fixed_dictionaries({}, optional={
    "kind": TEXT,
    "params": st.dictionaries(TEXT, SMALL, max_size=4),
    "case": st.none() | TEXT,
    "status": st.sampled_from(["proven", "not-proven", "hypothesis-not-met", "vacuous"]),
    "product_count": SMALL,
    "audits": st.lists(st.builds(Audit, TEXT, AUDIT_VALUES, AUDIT_VALUES), max_size=3).map(tuple),
    "distribution": st.none() | st.builds(
        DistributionInfo, st.lists(SMALL, max_size=4).map(tuple), PAIRS, st.none() | PAIRS,
    ),
    "certificate": st.none() | CERTIFICATES,
    "certificate_error": st.none() | TEXT,
    "oracle": st.none() | st.builds(
        OracleBlock, SMALL, SMALL, st.lists(SMALL, max_size=3).map(tuple),
        st.lists(SMALL, max_size=3).map(tuple), SMALL,
    ),
    "stability": st.none() | st.builds(StabilityVerdict, TEXT, TEXT),
    "notes": st.lists(TEXT, max_size=3).map(tuple),
})


def _verdicts_of_every_status():
    return [
        petri_certificate(4, 2, 6, 2),  # proven, with stability and quoted thresholds
        onto_certificate(4, 2, 4),  # proven, endo
        _not_proven(),
        petri_certificate(3, 2, 4, 4),  # hypothesis-not-met
        onto_certificate(4, 1, 4),  # vacuous
    ]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(_verdicts_of_every_status()), MUTATIONS)
def test_typed_writer_equals_the_encoded_payload(verdict, changes):
    v = replace(verdict, **changes)
    for pad in ("", "  "):
        assert_same_text(serialize.to_text(v, pad), _dumped(v, pad))
    assert_same_text(serialize.dumps(v), _dumped(v) + "\n")


def _twisted_series():
    twist = Degree0Class.of_pq(1) + Degree0Class.of_torsion("eta", 3, 2)
    line = LineBundleClass(2, 1, twist + Degree0Class.of_generic("x", -2))
    atom = IndecomposableSlot(3, 2, Degree0Class.of_generic("x", -2))
    s = canonical_series(2)
    return replace(s, bundles=(BundleOnComponent((line, atom)),) + s.bundles[1:])


@pytest.mark.parametrize("kind", sorted(set(_top_level_payloads()) - {"verdict"}))
def test_typed_writer_equals_the_encoded_payload_for_every_type(kind):
    objects = [_top_level_payloads()[kind]]
    if kind == "series":
        objects += [_twisted_series(), petri_build(petri_params(5, 2, 7, 3)).dual]
    for obj in objects:
        for pad in ("", "  "):
            assert_same_text(serialize.to_text(obj, pad), _dumped(obj, pad))


@pytest.mark.parametrize("obj", [
    1.5, "text", (1, 2), [canonical_series(2)], LineBundleClass(1, 0), Degree0Class.of_pq(1),
    {"series": 1.5}, {"slot": object()},
], ids=["float", "str", "tuple", "list", "slot", "class", "dict-of-float", "dict-of-object"])
def test_dumps_rejects_an_unsupported_type(obj):
    with pytest.raises(serialize.SchemaError, match="cannot serialize"):
        serialize.dumps(obj)


# the generated writers write each field by its runtime type, not its hint

#: what an int- or bool-hinted field may hold: bools, None, negatives, big ints
WILD = st.none() | st.booleans() | st.integers(-3, 40) | st.integers(-2**70, 2**70)
WILD_TUPLES = st.lists(WILD, max_size=3).map(tuple)
WILD_PAIRS = st.lists(st.tuples(WILD, WILD), max_size=3).map(tuple)
WILD_PASSES = st.builds(
    EliminationPass, WILD,
    st.lists(st.builds(Survivor, WILD, WILD, WILD, WILD, WILD, WILD), max_size=3).map(tuple),
)
#: each value type's values, each placed in a verdict as ``replace`` changes
PLACED = st.one_of(
    st.builds(Survivor, WILD, WILD, WILD, WILD, WILD, WILD).map(
        lambda s: {"certificate": Certificate((EliminationPass(1, (s, s)),), 2, ())}),
    WILD_PASSES.map(lambda p: {"certificate": Certificate((p,), 1, ((0, 1),))}),
    st.builds(Certificate, st.lists(WILD_PASSES, max_size=2).map(tuple), WILD, WILD_PAIRS)
    .map(lambda c: {"certificate": c}),
    st.builds(OracleBlock, WILD, WILD, WILD_TUPLES, WILD_TUPLES, WILD)
    .map(lambda o: {"oracle": o}),
    st.lists(st.builds(Audit, TEXT | WILD, AUDIT_VALUES, AUDIT_VALUES), min_size=1, max_size=2)
    .map(lambda a: {"audits": tuple(a)}),
    st.builds(DistributionInfo, WILD_TUPLES, WILD_PAIRS, st.none() | WILD_PAIRS)
    .map(lambda d: {"distribution": d}),
    st.builds(StabilityVerdict, TEXT | WILD, TEXT | WILD).map(lambda s: {"stability": s}),
    st.fixed_dictionaries({"expected_products": WILD, "product_count": WILD}),
)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(_verdicts_of_every_status()), PLACED)
def test_generated_writers_follow_runtime_types(verdict, changes):
    v = replace(verdict, **changes)
    for pad in ("", "  ", "    "):
        assert_same_text(serialize.to_text(v, pad), _dumped(v, pad))


# a kept class verdict's certificate is written once per depth and run

def test_a_sweep_writes_each_copy_as_its_single_verdict(tmp_path):
    # at (8, 4) d = 8 and d = 10 are the h = 1 class, d = 9 is h = 2 and d = 11
    # h = 4: d = 10, a copy, is written after another class's verdict
    out = tmp_path / "sweep.json"
    assert main(["endo", "--sweep", "--g", "8", "--r", "4", "--out", str(out)]) == 0
    text = out.read_text()
    first = pipelines._decided()[(8, 4, 1, DEFAULT_PRIME, 0, 1)].certificate
    kept = serialize._kept()[(id(first), "    ")][1]
    assert text.count(kept) == 2
    singles = []
    for d in (8, 9, 10, 11):
        single = tmp_path / f"{d}.json"
        assert main(["endo", "--g", "8", "--r", "4", "--d", str(d), "--out", str(single)]) == 0
        singles.append(single.read_text()[:-1].replace("\n", "\n  "))
    assert_same_text(text, "[\n  " + ",\n  ".join(singles) + "\n]\n")


def test_a_kept_certificate_text_is_its_own_at_each_depth():
    copy = onto_certificate(8, 4, 10)
    cert = copy.certificate
    assert cert is pipelines._decided()[(8, 4, 1, DEFAULT_PRIME, 0, 1)].certificate
    # written at two depths: two texts, each the fresh writer's, kept apart
    for _ in range(2):
        for pad in ("", "  "):
            assert_same_text(serialize.to_text(cert, pad), _dumped(cert, pad))
    assert set(serialize._kept()) == {(id(cert), ""), (id(cert), "  ")}
    # the copy written at list depth keeps its certificate's text at "    ";
    # another class's certificate, or one no verdict keeps, in its place is
    # written as itself
    assert_same_text(serialize.to_text(copy, "  "), _dumped(copy, "  "))
    others = (onto_certificate(8, 4, 9).certificate, replace(cert, passes=cert.passes[:1]))
    for other in others:
        v = replace(copy, certificate=other)
        assert_same_text(serialize.to_text(v, "  "), _dumped(v, "  "))
        assert _dumped(v, "  ") != serialize.to_text(copy, "  ")
    assert (id(others[1]), "    ") not in serialize._kept()
    clear_memos()
    assert serialize._kept.cache_info().currsize == 0


def test_a_petri_sweep_keeps_no_certificate_text(tmp_path):
    out = tmp_path / "sweep.json"
    assert main(["petri", "--sweep", "--g", "5", "--r", "2", "--out", str(out)]) == 0
    assert any(v["certificate"] for v in json.loads(out.read_text()))
    assert serialize._kept() == {}
