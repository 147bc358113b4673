"""Chain-level series: canonical construction, validation, redistribution."""

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellchain.chain import (
    GluingData,
    LimitLinearSeries,
    NodeGluing,
    Redistribution,
    canonical_series,
    check_stability,
    elliptic_chain,
    generic_gluing,
    matched_paths,
    redistribute,
    spread,
    survives,
    validate_lls,
    validate_rank1,
)
from ellchain.elliptic import (
    AlgebraError,
    BundleOnComponent,
    Degree0Class,
    IndecomposableSlot,
    LineBundleClass,
    SectionSymbol,
    VanishingTable,
)
from ellchain.independence import product_sections, product_series
from ellchain.pipelines import BuildError, ParamsError, petri_build, petri_params
from reference import validate_every_row, validate_in_passes


def orders(table):
    return [(r.ord_p, r.ord_q) for r in table.rows]


class TestCanonical:
    def test_g3_middle_component(self):
        s = canonical_series(3)
        assert orders(s.tables[1]) == [(0, 3), (2, 2), (3, 0)]
        assert s.bundles[1].slots[0] == LineBundleClass(2, 2)

    def test_g2_first_component(self):
        s = canonical_series(2)
        assert orders(s.tables[0]) == [(0, 2), (1, 0)]

    def test_distinguished_section(self):
        g = 6
        s = canonical_series(g)
        for i in range(1, g + 1):
            row = s.tables[i - 1].rows[i - 1]
            assert (row.ord_p, row.ord_q) == (2 * (i - 1), 2 * (g - i))

    def test_rejects_small_genus(self):
        with pytest.raises(AlgebraError):
            canonical_series(1)

    @pytest.mark.parametrize("g", [2, 3, 7, 12])
    def test_valid_and_refined(self, g):
        s = canonical_series(g)
        assert validate_lls(s).ok
        report = validate_rank1(s)
        assert report.crude and report.refined


def one_slot_series(slot, *rows):
    """A one-component series whose only slot carries ``rows``."""
    return LimitLinearSeries(
        elliptic_chain(1), slot.rank, slot.degree, len(rows), 0,
        (BundleOnComponent((slot,)),), (VanishingTable(rows),), generic_gluing(1),
    )


class TestValidate:
    def test_bumped_a_breaks_condition_three(self):
        s = canonical_series(4)
        bad = replace(s, a=s.a + 1)
        report = validate_lls(bad)
        assert not report.conditions.determined

    def test_lowered_order_breaks_condition_two(self):
        s = canonical_series(4)
        rows = list(s.tables[0].rows)
        rows[0] = replace(rows[0], ord_q=rows[0].ord_q - 2)
        tables = list(s.tables)
        tables[0] = VanishingTable(tuple(rows))
        report = validate_lls(replace(s, tables=tuple(tables)))
        assert not report.structural_errors
        assert not report.conditions.nodes
        assert report.conditions.degree

    def test_full_sum_row_needs_matching_class(self):
        # a claimed order sum equal to the degree in a generic class
        s = canonical_series(3)
        bundles = list(s.bundles)
        bundles[1] = BundleOnComponent(
            (LineBundleClass(2, 2, Degree0Class.of_generic("x")),)
        )
        report = validate_lls(replace(s, bundles=tuple(bundles)))
        assert report.structural_errors

    @pytest.mark.parametrize("slot,row,error", [
        (LineBundleClass(2, 2), SectionSymbol(0, 3, 2), "order sum 5 exceeds slot degree 4"),
        (LineBundleClass(2, 2), SectionSymbol(0, 1, 3),
         "order sum 4 = degree in a class not of that shape"),
        (LineBundleClass(2, 2), SectionSymbol(0, 2, 1),
         "exact orders (2, 1) claim a merged section"),
        (IndecomposableSlot(2, 3), SectionSymbol(0, 2, 0, True, False),
         "P-order 2 exceeds the slope bound"),
        (IndecomposableSlot(2, -3), SectionSymbol(0, -1, 0, True, False),
         "P-order -1 exceeds the slope bound"),
        (LineBundleClass(2, 2, Degree0Class.of_generic("x")), SectionSymbol(0, 1, 2), None),
        (LineBundleClass(2, 2), SectionSymbol(0, 1, 1), None),
        (LineBundleClass(2, 2), SectionSymbol(0, 2, 1, True, False), None),
        (LineBundleClass(2, 2), SectionSymbol(0, 2, 2), None),
        (IndecomposableSlot(2, 3), SectionSymbol(0, 1, 5, True, False), None),
        (IndecomposableSlot(2, 3), SectionSymbol(0, 5, 0, False, False), None),
        (IndecomposableSlot(2, -3), SectionSymbol(0, -2, 0, True, False), None),
    ], ids=["exceeds-degree", "full-sum-shape", "merged-section", "slope", "slope-negative",
            "generic-d-1", "special-d-2", "inexact-merged", "special-full-sum", "at-slope",
            "inexact-p", "at-negative-slope"])
    def test_a_row_is_refuted_by_its_slot_class(self, slot, row, error):
        report = validate_lls(one_slot_series(slot, row))
        assert report.structural_errors == ((f"component 1, slot 0: {error}",) if error else ())

    def test_dimension_mismatch_is_structural(self):
        s = canonical_series(3)
        tables = list(s.tables)
        tables[0] = VanishingTable(tables[0].rows[:-1])
        report = validate_lls(replace(s, tables=tuple(tables)))
        assert report.structural_errors

    def test_paired_row_out_of_range_is_structural(self):
        s = canonical_series(3)
        pairings = (tuple((t, t) for t in range(3)), ((0, 3),))
        report = validate_lls(replace(s, pairings=pairings))
        assert report.structural_errors == ("node 2: paired row out of range",)

    @pytest.mark.parametrize("distinguished,error", [
        (((2, (0,)),), "distinguished entry at missing node index 2"),
        (((-1, (0,)),), "distinguished entry at missing node index -1"),
        (((1, (0, 3)),), "node 2: distinguished section id out of range"),
    ], ids=["node-past-end", "negative-node", "id-past-dimension"])
    def test_distinguished_out_of_range_is_structural(self, distinguished, error):
        s = canonical_series(3)
        assert validate_lls(replace(s, gluing=replace(s.gluing, distinguished=((1, (0, 2)),)))).ok
        report = validate_lls(replace(s, gluing=replace(s.gluing, distinguished=distinguished)))
        assert report.structural_errors == (error,)

    def test_rank1_perturbations(self):
        s = canonical_series(4)
        rows = list(s.tables[2].rows)
        rows[0] = replace(rows[0], ord_p=rows[0].ord_p - 1)
        tables = list(s.tables)
        tables[2] = VanishingTable(tuple(rows))
        crude_broken = validate_rank1(replace(s, tables=tuple(tables)))
        assert not crude_broken.crude
        rows[0] = replace(s.tables[2].rows[0], ord_p=s.tables[2].rows[0].ord_p + 1)
        tables[2] = VanishingTable(tuple(rows))
        slack = validate_rank1(replace(s, tables=tuple(tables)))
        assert slack.crude and not slack.refined


class TestRedistribute:
    def test_concentrate_on_first_component(self):
        g = 5
        s = canonical_series(g)
        d = 2 * g - 2
        redist = redistribute(s, (d,) + (0,) * (g - 1))
        assert redist.tables[0].dimension == g
        for i in range(1, g - 1):
            assert redist.tables[i].dimension == 0
        # only the section of maximal P-vanishing reaches the last component
        assert orders(redist.tables[g - 1]) == [(0, 0)]
        assert redist.survivors[g - 1] == (g - 1,)

    def test_degree_identity(self):
        s = canonical_series(6)
        redist = redistribute(s, (4, 2, 0, 0, 2, 2))
        assert [b.degree for b in redist.bundles] == [4, 2, 0, 0, 2, 2]

    def test_rejects_wrong_total(self):
        s = canonical_series(3)
        with pytest.raises(AlgebraError):
            redistribute(s, (1, 1, 1))

    def test_reapply_same_targets_is_noop(self):
        s = canonical_series(5)
        dp = (2, 2, 0, 2, 2)
        first = redistribute(s, dp)
        again = first.redistribute(dp)
        assert again.tables == first.tables
        assert again.bundles == first.bundles
        assert again.thresholds == first.thresholds

    def test_empty_components_reported(self):
        s = canonical_series(4)
        redist = redistribute(s, (6, 0, 0, 0))
        assert redist.empty_components == (2, 3)

    def test_rejects_a_missing_table(self):
        s = canonical_series(3)
        with pytest.raises(AlgebraError, match="3 bundles but 2 tables"):
            redistribute(replace(s, tables=s.tables[:-1]), (4, 0, 0))

    def test_rejects_rank_zero(self):
        s = canonical_series(3)
        with pytest.raises(AlgebraError, match="rank 0 is below 1"):
            redistribute(replace(s, rank=0), (4, 0, 0))

    @pytest.mark.parametrize("dprime,message", [
        ((4, 0), "one target degree per component required"),
        ((2, 2, 2), "target degrees sum to 6, need 4"),
        ((3, 1, 0), "component 1: target 3 not congruent to 4 mod 2"),
    ], ids=["count", "total", "residue"])
    def test_spread_refuses_what_redistribute_refuses(self, dprime, message):
        # read off the degrees alone, a bad target fails as a redistribution does
        s = replace(canonical_series(3), rank=2)
        with pytest.raises(AlgebraError, match=f"^{message}$"):
            spread(s.component_degrees, dprime, s.rank, s.degree)
        with pytest.raises(AlgebraError, match=f"^{message}$"):
            redistribute(s, dprime)


def random_series(rng):
    m = rng.randint(1, 8)
    r = rng.randint(1, 4)
    a = rng.randint(1, 5)
    k = rng.randint(1, 6)
    bundles = []
    tables = []
    rbar = [rng.randrange(r) for _ in range(m)]
    for i in range(m):
        d_i = a * r + rbar[i]
        cuts = sorted(rng.randint(0, d_i) for _ in range(r - 1))
        parts = [b - a_ for a_, b in zip([0] + cuts, cuts + [d_i])]
        bundles.append(
            BundleOnComponent(
                tuple(LineBundleClass(p, 0, Degree0Class.of_generic(f"s{i}.{j}"))
                      for j, p in enumerate(parts))
            )
        )
        tables.append(
            VanishingTable(
                tuple(
                    SectionSymbol(rng.randrange(r), rng.randint(0, 3 * a), rng.randint(0, 3 * a))
                    for _ in range(k)
                )
            )
        )
    d = sum(b.degree for b in bundles) - r * (m - 1) * a
    return LimitLinearSeries(
        chain=elliptic_chain(m),
        rank=r,
        degree=d,
        dimension=k,
        a=a,
        bundles=tuple(bundles),
        tables=tuple(tables),
        gluing=GluingData(tuple(NodeGluing() for _ in range(m - 1))),
    )


def random_targets(rng, series):
    m = series.chain.components
    parts = [0] * m
    for _ in range(series.a):
        parts[rng.randrange(m)] += 1
    return tuple(
        p * series.rank + d_i % series.rank
        for p, d_i in zip(parts, series.component_degrees)
    )


def test_randomized_redistribution_bookkeeping():
    rng = random.Random(20240817)
    retarget_rng = random.Random(20240818)
    for _ in range(300):
        s = random_series(rng)
        dp = random_targets(rng, s)
        redist = redistribute(s, dp)
        assert sum(b.degree for b in redist.bundles) == s.degree
        assert tuple(b.degree for b in redist.bundles) == dp
        for table, (th_p, th_q), base in zip(redist.tables, redist.thresholds, s.tables):
            for row in table.rows:
                assert row.ord_p >= 0 and row.ord_q >= 0
            assert table.dimension == sum(
                1 for r in base.rows if r.ord_p >= th_p and r.ord_q >= th_q
            )
        # re-targeting the first result lands where the direct redistribution does,
        # keeping only the rows that survived the first step
        dp2 = random_targets(retarget_rng, s)
        direct = redistribute(s, dp2)
        two_step = redist.redistribute(dp2)
        assert two_step.thresholds == direct.thresholds
        assert two_step.a_parts == direct.a_parts
        assert two_step.bundles == direct.bundles
        for i, base in enumerate(s.tables):
            first_ids = tuple(t for t, row in enumerate(base.rows) if survives(redist.thresholds[i], row))
            assert redist.survivors[i] == first_ids
            assert two_step.survivors[i] == tuple(
                t for t in first_ids if survives(direct.thresholds[i], base.rows[t])
            )
            th_p, th_q = direct.thresholds[i]
            assert two_step.tables[i].rows == tuple(
                base.rows[t].shifted(th_p, th_q) for t in two_step.survivors[i]
            )


class TestStability:
    def test_one_stable_component_suffices(self):
        bundles = [
            BundleOnComponent((LineBundleClass(1, 0), LineBundleClass(0, 1))),
            BundleOnComponent((IndecomposableSlot(2, 1),)),
        ]
        gluing = GluingData((NodeGluing(((0, 0), (1, 1))),))
        verdict = check_stability(bundles, gluing, [(0, 1), (0,)])
        assert verdict.verdict == "stable-by-criterion"

    def test_generic_gluing_breaks_destabilizing_chains(self):
        bundles = [
            BundleOnComponent((LineBundleClass(1, 0), LineBundleClass(0, 1)))
            for _ in range(3)
        ]
        gluing = GluingData((NodeGluing(), NodeGluing()))
        verdict = check_stability(bundles, gluing, [(0, 1)] * 3)
        assert verdict.verdict == "stable-by-criterion"

    def test_matched_destabilizing_chain_is_inconclusive(self):
        bundles = [
            BundleOnComponent((LineBundleClass(1, 0), LineBundleClass(0, 1)))
            for _ in range(2)
        ]
        gluing = GluingData((NodeGluing(((0, 0), (1, 1))),))
        verdict = check_stability(bundles, gluing, [(0, 1), (0, 1)])
        assert verdict.verdict == "inconclusive"


def test_matched_paths_keep_to_allowed_slots():
    gluing = GluingData((NodeGluing(((0, 1), (1, 0))), NodeGluing(((0, 0), (1, 2)))))
    assert matched_paths(gluing, [{0, 1}, {0, 1}, {0, 1, 2}]) == {0, 2}
    assert matched_paths(gluing, [{0}, {0, 1}, {0, 1, 2}]) == {2}
    assert matched_paths(gluing, [{0}, {0}, {0, 1, 2}]) == set()
    generic = GluingData((NodeGluing(), NodeGluing(((0, 0),))))
    assert matched_paths(generic, [{0}, {0}, {0}]) == set()


# -- property tests ---------------------------------------------------------


@given(st.integers(min_value=2, max_value=30))
@settings(max_examples=29, deadline=None)
def test_canonical_always_refined(g):
    s = canonical_series(g)
    assert validate_lls(s).ok
    assert validate_rank1(s).refined


@given(st.integers(min_value=0, max_value=2 ** 31), st.integers(min_value=2, max_value=7))
@settings(max_examples=60, deadline=None)
def test_redistribution_total_degree_preserved(seed, _g):
    rng = random.Random(seed)
    s = random_series(rng)
    dp = random_targets(rng, s)
    redist = redistribute(s, dp)
    assert sum(b.degree for b in redist.bundles) == s.degree


slot_twists = st.sampled_from([
    Degree0Class(), Degree0Class.of_pq(-1), Degree0Class.of_pq(2),
    Degree0Class.of_generic("x"), Degree0Class.of_torsion("t", 2),
])
any_slot = st.one_of(
    st.builds(LineBundleClass, st.integers(-2, 5), st.integers(-2, 5), slot_twists),
    st.builds(IndecomposableSlot, st.integers(1, 4), st.integers(-8, 8)),
)


@st.composite
def stated_rows(draw, component):
    """A row of ``component``'s table around its slot's bound, or in a slot
    out of range."""
    slot = draw(st.sampled_from([*range(len(component))] * 4 + [-1, len(component)]))
    exact_p, exact_q = draw(st.booleans()), draw(st.booleans())
    if not 0 <= slot < len(component):
        ord_p, ord_q = draw(st.integers(-2, 6)), draw(st.integers(-2, 6))
    elif isinstance(component[slot], LineBundleClass):
        d, special = component[slot].degree, component[slot].special_index()
        if special is not None and draw(st.booleans()):  # at the merged pair or below
            ord_p, total = special - draw(st.integers(0, 1)), d - draw(st.integers(1, 2))
        else:
            ord_p, total = draw(st.integers(-1, max(d, 0) + 1)), d + draw(st.integers(-3, 1))
        ord_q = total - ord_p
    else:
        atom = component[slot]
        ord_p = atom.degree // atom.rank + draw(st.integers(-2, 2))
        ord_q = draw(st.integers(-2, 6))
    return SectionSymbol(slot, ord_p, ord_q, exact_p, exact_q)


@st.composite
def stated_series(draw):
    m, k = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    components = [tuple(draw(st.lists(any_slot, min_size=1, max_size=3))) for _ in range(m)]
    bundles = tuple(BundleOnComponent(c) for c in components)
    tables = tuple(
        VanishingTable(tuple(draw(stated_rows(c)) for _ in range(k))) for c in components
    )
    rank, a = bundles[0].rank, draw(st.integers(0, 3))
    degree = sum(b.degree for b in bundles) - rank * (m - 1) * a + draw(st.integers(0, 1))
    return LimitLinearSeries(
        elliptic_chain(m), rank, degree, k, a, bundles, tables, generic_gluing(m)
    )


@given(stated_series())
@settings(max_examples=400, deadline=None)
def test_bounded_validation_equals_asking_the_class_rule_of_every_row(series):
    assert validate_lls(series) == validate_every_row(series)


@st.composite
def misshapen_series(draw):
    """A stated series whose rank, or one table's dimension, may be off."""
    series = draw(stated_series())
    tables = list(series.tables)
    if draw(st.booleans()):  # one table a row short
        i = draw(st.integers(0, len(tables) - 1))
        tables[i] = VanishingTable(tables[i].rows[:-1])
    return replace(series, rank=series.rank + draw(st.integers(-1, 1)), tables=tuple(tables))


@given(misshapen_series())
@settings(max_examples=400, deadline=None)
def test_one_pass_validation_equals_the_three_pass_one(series):
    # every message, in the same order: line and atom slots, wrong bundle
    # ranks, wrong table dimensions and rows in missing slots
    assert validate_lls(series) == validate_in_passes(series)


def test_one_pass_validation_equals_the_three_pass_one_on_petri_series():
    # the primary, dual and product series of every admitted petri tuple
    # with g <= 5 and r <= 3
    checked = 0
    for g in range(2, 6):
        for r in range(1, 4):
            for d in range(1, 4 * g + 1):
                for k in range(1, 4 * g + 1):
                    try:
                        build = petri_build(petri_params(g, r, d, k))
                    except (ParamsError, BuildError):
                        continue
                    primary, dual = build.primary, build.dual
                    products = product_series(primary, dual, product_sections(primary, dual))
                    for series in (primary, dual, products):
                        assert validate_lls(series) == validate_in_passes(series)
                        checked += 1
    assert checked == 3 * 307
