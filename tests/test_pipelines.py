"""End-to-end builders and verdicts for both product-map statements."""

import hashlib
from dataclasses import replace

import pytest

import ellchain.pipelines as pipelines
from ellchain import serialize
from ellchain.chain import (
    Redistribution,
    canonical_series,
    redistribute,
    validate_lls,
    validate_rank1,
)
from ellchain.cli import _verdict_exit
from ellchain.elliptic import VanishingTable, clear_memos
from ellchain.independence import product_sections, product_series
from ellchain.pipelines import (
    CASE_A,
    CASE_B,
    CASE_C,
    ParamsError,
    colsec_pairs,
    endo_build,
    endo_h0,
    endo_instance,
    endo_parts,
    onto_certificate,
    petri_build,
    petri_certificate,
    petri_instance,
    petri_params,
    petri_parts,
    poin_params,
    quoted_thresholds,
)
from ellchain.tableaux import Tableau
from reference import is_standard_filling


class TestPetriParams:
    def test_spot_case_numbers(self):
        p = petri_params(5, 2, 7, 3)
        assert (p.d1, p.d2, p.k1, p.k2) == (3, 1, 1, 1)
        assert p.case == CASE_A
        assert (p.bound_lhs, p.bound_rhs) == (4, 4)
        assert p.kbar == 4

    def test_case_dispatch(self):
        assert petri_params(10, 2, 21, 4).case == CASE_A  # d2 = 1 >= k2 = 0
        assert petri_params(4, 2, 6, 2).case == CASE_B
        assert petri_params(7, 2, 10, 3).case == CASE_C
        # (5,2,7,4): d2 = 1 > k2 = 0, first-case bound runs and fails
        with pytest.raises(ParamsError, match="d2>=k2"):
            petri_params(5, 2, 7, 4)

    def test_rejects_with_inequality(self):
        with pytest.raises(ParamsError, match="4 > 1"):
            petri_params(3, 2, 4, 4)

    def test_rejects_degenerate_shapes(self):
        with pytest.raises(ParamsError):
            petri_params(4, 2, 1, 1)  # slot degree 0
        with pytest.raises(ParamsError):
            petri_params(4, 2, 12, 2)  # negative complementary dimension


class TestPetriBuild:
    def test_spot_case_dimensions(self):
        build = petri_build(petri_params(5, 2, 7, 3))
        assert build.primary.dimension == 3
        assert build.dual.dimension == 4
        assert validate_lls(build.primary).ok

    def test_both_series_validate_across_cases(self):
        for tup in [(5, 2, 7, 3), (4, 2, 6, 2), (7, 2, 10, 3), (6, 3, 14, 4), (9, 4, 30, 5)]:
            build = petri_build(petri_params(*tup))
            assert validate_lls(build.primary).ok, tup
            report = validate_lls(build.dual)
            assert not report.structural_errors, tup
            assert report.conditions.degree and report.conditions.nodes, tup

    def test_dual_keeps_the_node_gluing_but_not_the_distinguished_ids(self):
        # the primary's distinguished id 2 is past the dual's two rows
        build = petri_build(petri_params(4, 2, 7, 3))
        assert build.primary.gluing.distinguished == ((2, (2,)),)
        assert build.dual.dimension == 2
        assert build.dual.gluing.nodes == build.primary.gluing.nodes
        assert build.dual.gluing.distinguished == ()
        assert not validate_lls(build.dual).structural_errors

    def test_rank_one_reduces_to_single_slots(self):
        build = petri_build(petri_params(6, 1, 5, 2))
        assert all(len(b.slots) == 1 for b in build.primary.bundles)
        assert validate_lls(build.primary).ok

    def test_product_series_is_balanced(self):
        build = petri_build(petri_params(5, 2, 7, 3))
        products = product_sections(build.primary, build.dual)
        series = product_series(build.primary, build.dual, products)
        g, r = 5, 2
        assert series.degree == r * r * (2 * g - 2)
        assert all(b.degree == (2 * g - 2) * r * r for b in series.bundles)
        assert validate_lls(series).ok


class TestPetriCertificate:
    def test_spot_case(self):
        v = petri_certificate(5, 2, 7, 3)
        assert v.status == "proven"
        assert v.product_count == 12 == v.expected_products
        assert v.oracle.agreed and len(v.oracle.seeds) == 3

    def test_second_case(self):
        v = petri_certificate(4, 2, 6, 2)
        assert v.status == "proven" and v.product_count == 4

    def test_third_case(self):
        v = petri_certificate(7, 2, 10, 3)
        assert v.status == "proven" and v.product_count == 12

    def test_rank_one_classical(self):
        # the smallest balanced rank-1 tuple admitted by the second case
        v = petri_certificate(4, 1, 4, 2)
        assert v.status == "proven" and v.product_count == 2

    def test_hypothesis_not_met(self):
        v = petri_certificate(3, 2, 4, 4)
        assert v.status == "hypothesis-not-met"
        assert "4 > 1" in v.certificate_error

    def test_vacuous_zero_products(self):
        # alpha = 0: the complementary series is empty
        v = petri_certificate(4, 2, 8, 2)
        assert v.status == "proven" and v.product_count == 0
        assert any("vacuous" in n for n in v.notes)

    def test_quoted_thresholds_recorded(self):
        v = petri_certificate(5, 2, 7, 3)
        assert v.distribution.matches_quoted is True
        assert v.distribution.thresholds == quoted_thresholds(petri_parts(5))
        assert v.distribution.dprime == (4, 8, 8, 8, 4)

    def test_stability_audit(self):
        v = petri_certificate(5, 2, 7, 3)
        assert v.stability.verdict == "stable-by-criterion"
        v2 = petri_certificate(4, 2, 6, 2)  # gcd(2, 6) = 2: strictly semistable path
        assert v2.stability.verdict == "stable-by-criterion"


def test_rank_one_is_the_line_bundle_technique():
    # r = 1 is the refined rank-1 series of the line-bundle case, and a proven
    # verdict there is classical Petri injectivity: not-proven is always a bug
    admitted = non_empty_duals = 0
    for g in range(1, 15):
        for d in range(1, 4 * g + 1):
            for k in range(1, 4 * g + 1):
                try:
                    build = petri_build(petri_params(g, 1, d, k))
                except ParamsError:
                    continue
                admitted += 1
                assert validate_rank1(build.primary).refined, (g, d, k)
                if build.dual.dimension:
                    non_empty_duals += 1
                    assert validate_rank1(build.dual).refined, (g, d, k)
                assert petri_certificate(g, 1, d, k).status == "proven", (g, d, k)
    assert (admitted, non_empty_duals) == (516, 191)


def test_rank_one_builds_realize_the_column_major_tableau():
    # row j of an r = 1 primary has order sum d (its slot's coincidence) on
    # the components of row j of a standard k x alpha filling: column-major
    read = {}
    for g in range(2, 13):
        for d in range(1, 4 * g + 1):
            for k in range(1, 4 * g + 1):
                try:
                    p = petri_params(g, 1, d, k)
                except ParamsError:
                    continue
                if p.alpha == 0:
                    continue
                tables = petri_build(p).primary.tables
                rows = tuple(
                    tuple(i for i, t in enumerate(tables, start=1)
                          if t.rows[j].ord_p + t.rows[j].ord_q == d)
                    for j in range(k)
                )
                assert is_standard_filling(Tableau(rows), g), (g, d, k, rows)
                assert rows == tuple(
                    tuple(j + 1 + c * k for c in range(p.alpha)) for j in range(k)
                ), (g, d, k, rows)
                read[(g, d, k)] = rows
    assert len(read) == 127
    assert read[(6, 5, 2)] == ((1, 3), (2, 4))


def test_rank_one_outside_the_hypothesis(monkeypatch):
    # rho = g - k * alpha; case d2=k2=0 admits r = 1 only at rho >= 2. Past it,
    # Gieseker-Petri still holds: rho = 1 builds are proven, and rho = 0 ones
    # need g structured components where the template has g - 1
    real = pipelines.petri_params

    def admit_past_the_hypothesis(g, r, d, k):
        try:
            return real(g, r, d, k)
        except ParamsError as exc:
            if "hypothesis fails" not in str(exc):
                raise
        alpha = g + k - d - 1
        return pipelines.PetriParams(g, r, d, k, d, 0, k, 0, alpha, CASE_B, k * alpha, g - 2)

    monkeypatch.setattr(pipelines, "petri_params", admit_past_the_hypothesis)
    outcomes: dict[int, list] = {0: [], 1: []}
    for g in range(2, 11):
        for d in range(1, 2 * g + 1):
            for k in range(1, g + 2):
                alpha = g + k - d - 1
                if alpha >= 1 and g - k * alpha in outcomes:
                    outcomes[g - k * alpha].append((g, petri_certificate(g, 1, d, k)))
    assert len(outcomes[1]) == 23
    for g, v in outcomes[1]:
        assert v.status == "proven" and all(a.ok for a in v.audits), v.params
    assert len(outcomes[0]) == 17
    for g, v in outcomes[0]:
        assert v.status == "not-proven", v.params
        assert v.certificate_error == (
            f"build failed: component {g}: structured range {g} exceeds g - 1 = {g - 1}"
        )


def test_builds_are_pinned():
    # verdict JSON holds no series, so a builder change that keeps every
    # verdict proven could still change the tables: pin the series themselves,
    # the petri duals apart from the rest
    digest, duals = hashlib.sha256(), hashlib.sha256()
    petri = endo = 0
    for g in range(2, 9):
        for r in range(1, 5):
            for d in range(1, 4 * g + 1):
                for k in range(1, 4 * g + 1):
                    try:
                        build = petri_build(petri_params(g, r, d, k))
                    except ParamsError:
                        continue
                    petri += 1
                    digest.update(serialize.dumps(build.primary).encode())
                    duals.update(serialize.dumps(build.dual).encode())
    for g in range(4, 11):
        for r in range(2, 5):
            for d in range(g, g + r):
                build = endo_build(poin_params(g, r, d))
                endo += 1
                digest.update(serialize.dumps(build.endo_series).encode())
                digest.update(f"h0={endo_h0(build)}\n".encode())
    assert (petri, endo) == (1482, 63)
    assert digest.hexdigest() == "8ad75a484ada9893ce2fb01e28279586e2edb26cf7521864a3e2329b440d7730"
    assert duals.hexdigest() == "41c6533fd93707da94833956b2b53f48edf5c8594d9c2e65584009e203a18655"


def _petri_5273():
    build = petri_build(petri_params(5, 2, 7, 3))
    products, draft = petri_instance(build)
    return product_series(build.primary, build.dual, products), draft


def _endo_424():
    build = endo_build(poin_params(4, 2, 4))
    products, draft = endo_instance(build)
    return product_series(canonical_series(4), build.endo_series, products), draft


@pytest.mark.parametrize("make,digest", [
    (_petri_5273, "ef8c4a7d811717600f26f2c622cafb03bf7d646b5d7258a2a6c400e47d314d6f"),
    (_endo_424, "d85f718ad66b1ed6cb928dcb48891fea4495e4fd5db70e67649f5444c2acd886"),
], ids=["petri-5273", "endo-424"])
def test_verdict_redistributions_are_pinned(make, digest):
    # verdict JSON keeps only the thresholds: pin the whole redistribution of
    # the product series, surviving tables and twisted bundles included
    series, draft = make()
    redist = redistribute(series, draft.distribution.dprime)
    assert redist.thresholds == draft.distribution.thresholds
    text = serialize.dumps(redist)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


class TestPoinParams:
    def test_range(self):
        assert poin_params(4, 2, 5).h == 2
        assert poin_params(6, 3, 7).h == 1
        with pytest.raises(ParamsError):
            poin_params(5, 2, 4)  # d < g
        with pytest.raises(ParamsError):
            poin_params(5, 2, 7)  # d >= g + r


class TestEndoBuild:
    def test_dimensions_and_trivials(self):
        build = endo_build(poin_params(4, 2, 4))
        assert build.endo_series.dimension == 9  # (r^2 - 1)(g - 1)
        assert tuple(len(t) for t in build.trivial) == (1, 1, 1, 1)
        assert validate_lls(build.endo_series).ok

    def test_split_last_component(self):
        build = endo_build(poin_params(4, 2, 5))
        assert tuple(len(t) for t in build.trivial) == (1, 1, 1, 2)  # h = 2 trivial summands
        # the extra trivial summand boosts the last window's vanishing order
        last = build.endo_series.tables[3]
        boosted = [r for r in last.rows if r.ord_p == 6]
        assert len(boosted) == 1

    def test_hom_h0_is_one(self):
        for (g, r, d) in [(4, 2, 4), (6, 3, 7), (5, 1, 5), (10, 4, 12)]:
            assert endo_h0(endo_build(poin_params(g, r, d))) == 1


class TestOntoCertificate:
    def test_product_list_shape(self):
        pairs = colsec_pairs(4, 3)
        assert len(pairs) == 27
        per_slot = [p for p in pairs if p[1] < 3]
        assert len(per_slot) == 9  # 3(g-3) + 6 windows for each slot

    def test_g4(self):
        v = onto_certificate(4, 2, 4)
        assert v.status == "proven" and v.product_count == 27
        assert v.oracle.agreed

    def test_g4_split(self):
        v = onto_certificate(4, 2, 5)
        assert v.status == "proven" and v.product_count == 27

    def test_rank_three(self):
        v = onto_certificate(6, 3, 7)
        assert v.status == "proven" and v.product_count == 120

    def test_rank_one_vacuous(self):
        v = onto_certificate(4, 1, 4)
        assert v.status == "vacuous" and v.product_count == 0

    def test_out_of_range(self):
        v = onto_certificate(5, 2, 4)
        assert v.status == "hypothesis-not-met"

    def test_distribution_audit(self):
        g, r = 6, 2
        v = onto_certificate(g, r, g)
        rho = r * r - 1
        assert sum(v.distribution.dprime) == rho * (4 * g - 4)
        assert v.distribution.dprime == (3 * rho, 4 * rho, 4 * rho, 3 * rho, 3 * rho, 3 * rho)

    @pytest.mark.parametrize("g", range(4, 11))
    def test_thresholds_match_explicit_twists(self, g):
        # the per-component twists of the spread series, written out:
        # (0, 4g-7) on the first, (4i-5, 4g-4i-3) between, then
        # (4g-13, 6), (4g-10, 3), (4g-7, 0) on the last three
        v = onto_certificate(g, 2, g)
        expected = [(0, 4 * g - 7)]
        expected += [(4 * i - 5, 4 * g - 4 * i - 3) for i in range(2, g - 3 + 1)]
        expected += [(4 * g - 13, 6), (4 * g - 10, 3), (4 * g - 7, 0)]
        assert v.distribution.thresholds == tuple(expected)


def test_endo_quoted_thresholds_are_the_redistributions():
    assert quoted_thresholds(endo_parts(5)) == ((0, 13), (3, 9), (7, 6), (10, 3), (13, 0))
    for g in range(4, 15):
        for r in (2, 3):
            _, draft = endo_instance(endo_build(poin_params(g, r, g)))
            assert draft.distribution.thresholds == quoted_thresholds(endo_parts(g)), (g, r)


def _endo_grid():
    """The tuples of the endo-grid workload, in sweep order."""
    return [(g, r, d) for g in range(4, 11) for r in range(2, 5) for d in range(g, g + r)]


def test_a_warm_endo_run_forms_what_a_cold_one_forms():
    # each verdict after the first of a (g, r) run takes components 1..g-1
    # and the product columns there from the run's memo tables; no table is
    # emptied between runs either, so a run also starts with the last one's
    cold = {}
    for t in _endo_grid():
        clear_memos()
        build = endo_build(poin_params(*t))
        cold[t] = build, endo_instance(build)[0]
    clear_memos()
    for t in _endo_grid():
        build = endo_build(poin_params(*t))
        assert build == cold[t][0], t
        assert endo_instance(build)[0] == cold[t][1], t
    assert pipelines._endo_run.cache_info().hits > 0


def _endo_runs_to_share():
    """The admitted tuples of every (g, r) run with g 4..12 and r 2..6, and
    of (20, 5), run by run: r = 6 has h = 1, 2, 3, 2, 1, 6 along its run."""
    grid = [(g, r) for g in range(4, 13) for r in range(2, 7)] + [(20, 5)]
    return [[(g, r, d) for d in range(g, g + r)] for g, r in grid]


@pytest.mark.parametrize("oracle", [{}, {"prime": 3, "trials": 2}], ids=["default", "p3-t2"])
def test_a_shared_endo_verdict_is_the_one_decided_alone(oracle):
    # 185 tuples, each decided twice: about 8 s per oracle on a 2-vCPU host
    for run in _endo_runs_to_share():
        clear_memos()  # as the CLI starts each run
        in_order = [serialize.dumps(onto_certificate(*t, **oracle)) for t in run]
        for t, text in zip(run, in_order):
            clear_memos()
            assert serialize.dumps(onto_certificate(*t, **oracle)) == text, t


def test_a_returned_endo_verdict_is_a_copy_of_its_class_verdict():
    first = onto_certificate(20, 5, 20)
    first.params["d"] = 99
    first.params["extra"] = True
    # d = 21 is of the same class, h = 1, and gets params of its own
    second = onto_certificate(20, 5, 21)
    assert second.params == {"g": 20, "r": 5, "d": 21}
    assert replace(second, params=first.params) == first
    stored = pipelines._decided()[(20, 5, 1, pipelines.DEFAULT_PRIME, 0, 1)]
    assert stored is not first and stored is not second
    assert onto_certificate(20, 5, 22).params == {"g": 20, "r": 5, "d": 22}


@pytest.mark.parametrize("oracle", [{"prime": 3}, {"seed": 7}, {"trials": 2}],
                         ids=["prime", "seed", "trials"])
def test_other_oracle_settings_are_a_class_of_their_own(oracle):
    # the memo tables are not emptied in between, as for a library caller
    onto_certificate(6, 3, 6)
    v = onto_certificate(6, 3, 7, **oracle)
    clear_memos()
    assert serialize.dumps(v) == serialize.dumps(onto_certificate(6, 3, 7, **oracle))


def test_a_refused_endo_tuple_is_not_served_a_class_verdict():
    # d = 25 is past the range; h = gcd(5, 6) = 1 names the class d = 20 decided
    assert onto_certificate(20, 5, 20).status == "proven"
    refused = onto_certificate(20, 5, 25)
    assert refused.status == "hypothesis-not-met"
    assert refused.certificate_error == "need g <= d < g + r, got d = 25 for g = 20, r = 5"


SHIFTS = {"P-1": (-1, 0), "P+1": (1, 0), "Q+1": (0, 1), "Q-1": (0, -1), "both+1": (1, 1)}


def _shift_thresholds(monkeypatch, shift):
    # a threshold fault reaches the certificate and the oracle alike
    real = pipelines.spread

    def shifted(*args):
        parts, thresholds = real(*args)
        return parts, tuple((p + shift[0], q + shift[1]) for p, q in thresholds)

    monkeypatch.setattr(pipelines, "spread", shifted)


@pytest.mark.parametrize("shift", SHIFTS.values(), ids=SHIFTS)
def test_no_endo_verdict_is_proven_with_shifted_thresholds(monkeypatch, shift):
    # with P-1 the certificate and the oracle still pass at g = 4, so only
    # the closed form catches it
    _shift_thresholds(monkeypatch, shift)
    for g, r, d in _endo_grid():
        v = onto_certificate(g, r, d)
        assert v.status == "not-proven", (g, r, d)
        assert v.certificate_error.startswith("component 1: "), (g, r, d)


def _petri_grid_sample():
    # the first and the last admitted tuple of each (g, r) run of petri-grid
    for g in range(2, 11):
        for r in range(1, 5):
            admitted = []
            for d in range(1, 4 * g + 1):
                for k in range(1, 4 * g + 1):
                    try:
                        petri_params(g, r, d, k)
                    except ParamsError:
                        continue
                    admitted.append((g, r, d, k))
            yield from dict.fromkeys(admitted[:1] + admitted[-1:])


@pytest.mark.parametrize("shift", SHIFTS.values(), ids=SHIFTS)
def test_no_petri_verdict_is_proven_with_shifted_thresholds(monkeypatch, shift):
    _shift_thresholds(monkeypatch, shift)
    sample = list(_petri_grid_sample())
    assert len(sample) == 72
    for tup in sample:
        v = petri_certificate(*tup)
        assert v.status == "not-proven", tup
        assert [a.name for a in v.audits if not a.ok] == ["quoted-thresholds"], tup
        # settled as an endo threshold fault is: uncertified, exit 3
        assert v.certificate_error.startswith("component 1: "), tup
        assert v.certificate is None and v.oracle is None, tup
        assert _verdict_exit(v) == 3, tup


@pytest.mark.parametrize("certificate,tup", [
    (petri_certificate, (5, 2, 7, 3)), (onto_certificate, (6, 3, 7)),
], ids=["petri", "endo"])
def test_a_product_row_past_its_slot_degree_fails_the_audit(monkeypatch, certificate, tup):
    # only the product series' own row changes: the products, their
    # certificate and the oracle still pass, so the audit alone settles it
    real = pipelines.product_series
    stated = {}

    def raised(*args):
        series = real(*args)
        rows = series.tables[1].rows
        slot = rows[0].slot
        degree = series.bundles[1].slots[slot].degree
        rows = (replace(rows[0], ord_q=degree + 1 - rows[0].ord_p),) + rows[1:]
        tables = series.tables[:1] + (VanishingTable(rows),) + series.tables[2:]
        stated["series"] = replace(series, tables=tables)
        stated["error"] = (
            f"component 2, slot {slot}: order sum {degree + 1} exceeds slot degree {degree}"
        )
        return stated["series"]

    monkeypatch.setattr(pipelines, "product_series", raised)
    v = certificate(*tup)
    assert v.status == "not-proven"
    assert [a.name for a in v.audits if not a.ok] == ["product-series-valid"]
    assert v.certificate.eliminated == v.product_count and v.oracle.agreed
    assert stated["error"] in validate_lls(stated["series"]).structural_errors


def test_the_verdict_thresholds_are_the_redistributions():
    # the verdict reads its thresholds off the product degrees; twisting the
    # whole product series must give the same ones
    checked = 0
    for g in range(2, 7):
        for r in range(1, 4):
            for d in range(1, 4 * g + 1):
                for k in range(1, 4 * g + 1):
                    try:
                        build = petri_build(petri_params(g, r, d, k))
                    except ParamsError:
                        continue
                    products, draft = petri_instance(build)
                    series = product_series(build.primary, build.dual, products)
                    redist = redistribute(series, draft.distribution.dprime)
                    assert draft.distribution.thresholds == redist.thresholds, (g, r, d, k)
                    checked += 1
    for g in range(4, 9):
        for r in range(2, 5):
            for d in range(g, g + r):
                build = endo_build(poin_params(g, r, d))
                products, draft = endo_instance(build)
                series = product_series(canonical_series(g), build.endo_series, products)
                redist = redistribute(series, draft.distribution.dprime)
                assert draft.distribution.thresholds == redist.thresholds, (g, r, d)
                checked += 1
    assert checked == 468 + 45


def test_no_verdict_twists_a_series(monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("the verdict path redistributed a series")

    monkeypatch.setattr(pipelines, "redistribute", refused)
    monkeypatch.setattr(Redistribution, "redistribute", refused)
    assert petri_certificate(5, 2, 7, 3).status == "proven"
    assert onto_certificate(6, 3, 7).status == "proven"


class TestCrossChecks:
    def test_petri_image_bound_within_ambient(self):
        for tup in [(5, 2, 7, 3), (6, 3, 14, 4), (8, 2, 16, 4)]:
            v = petri_certificate(*tup)
            g, r = tup[0], tup[1]
            assert v.product_count <= r * r * (g - 1)

    def test_dual_dimension_shortfall_noted(self):
        # d2 > k2: the ambient complementary dimension differs from kbar
        v = petri_certificate(6, 2, 9, 2)
        assert v.status == "proven"
        assert any("ambient dimension" in n for n in v.notes)

    def test_canonical_factor_is_refined(self):
        from ellchain.chain import canonical_series

        s = canonical_series(7)
        assert validate_rank1(s).refined
