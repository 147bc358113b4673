"""Product sections, elimination certificates, and the rank oracle."""

from dataclasses import fields, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellchain import independence
from ellchain.chain import canonical_series, redistribute, survives
from ellchain.cli import PARAMS, _verdict_exit
from ellchain.elliptic import AlgebraError, SectionSymbol, VanishingTable, clear_memos
from ellchain.independence import (
    Certificate,
    CertificateFailure,
    DEFAULT_PRIME,
    OracleConfig,
    ProductRow,
    ProductSection,
    _formed,
    _jets,
    _rank_mod_p,
    certify_independence,
    oracle_plan,
    oracle_rank,
    product_bundle,
    product_sections,
    product_series,
)
from ellchain.pipelines import (
    Audit,
    ParamsError,
    Verdict,
    colsec_pairs,
    decide,
    endo_build,
    endo_instance,
    petri_build,
    petri_instance,
    petri_params,
    poin_params,
)
from reference import coeff


def _petri_5273_factors():
    build = petri_build(petri_params(5, 2, 7, 3))
    return build.primary, build.dual, None


def _endo_424_factors():
    return canonical_series(4), endo_build(poin_params(4, 2, 4)).endo_series, colsec_pairs(4, 3)


#: each fixture's two factor series and pair list, built anew on each call
FACTORS = {"petri_5273": _petri_5273_factors, "endo_424": _endo_424_factors}


def _products_and_thresholds(factors, dprime):
    a, b, pairs = factors
    products = product_sections(a, b, pairs)
    return products, redistribute(product_series(a, b, products), dprime).thresholds


@pytest.fixture(scope="module")
def petri_5273():
    rho = 4
    return _products_and_thresholds(
        _petri_5273_factors(), (rho, 2 * rho, 2 * rho, 2 * rho, rho)
    )


@pytest.fixture(scope="module")
def endo_424():
    return _products_and_thresholds(_endo_424_factors(), (9, 9, 9, 9))


class TestProducts:
    def test_orders_add(self):
        s = canonical_series(3)
        products = product_sections(s, s, [(0, 2)])
        row = products[0].rows[1]  # middle component: (0,3) x (3,0)
        assert (row.symbol.ord_p, row.symbol.ord_q) == (3, 3)

    def test_slot_pairing(self):
        s = canonical_series(2)
        bundle = product_bundle(s.bundles[0], s.bundles[0])
        assert bundle.rank == 1 and bundle.degree == 4
        assert product_sections(s, s)[3].rows[0].slot == 0

    def test_mismatched_chains_rejected(self):
        with pytest.raises(AlgebraError):
            product_sections(canonical_series(3), canonical_series(4))

    def test_additivity_everywhere(self, petri_5273):
        products, _ = petri_5273
        for p in products:
            for row in p.rows:
                assert row.symbol.ord_p == row.row_a.ord_p + row.row_b.ord_p
                assert row.symbol.ord_q == row.row_a.ord_q + row.row_b.ord_q

    def test_endo_first_component_orders(self, endo_424):
        # canonical s_1 times the three windows: Q-orders 4g-5, 4g-6, 4g-7
        products, _ = endo_424
        first = [p for p in products if p.factor_a == 0 and p.factor_b < 3]
        assert sorted(p.rows[0].symbol.ord_q for p in first) == [9, 10, 11]

    def test_disjoint_support_product_is_dead_everywhere(self):
        # a section surviving only on the first component paired with one
        # surviving only on the last: the supports never meet
        g = 4
        s = canonical_series(g)
        d = 2 * g - 2
        left = redistribute(s, (d,) + (0,) * (g - 1))
        right = redistribute(s, (0,) * (g - 1) + (d,))
        only_first = [
            t for t in range(g)
            if all(t in left.survivors[i] for i in (0,))
            and all(t not in left.survivors[i] for i in range(1, g))
        ]
        only_last = [
            t for t in range(g)
            if t in right.survivors[g - 1]
            and all(t not in right.survivors[i] for i in range(g - 1))
        ]
        assert only_first and only_last
        for a in only_first:
            for b in only_last:
                support_a = {i for i in range(g) if a in left.survivors[i]}
                support_b = {i for i in range(g) if b in right.survivors[i]}
                assert not (support_a & support_b)


class TestCertify:
    def test_petri_spot_case(self, petri_5273):
        products, thresholds = petri_5273
        cert = certify_independence(products, thresholds)
        assert isinstance(cert, Certificate)
        assert cert.eliminated == 12
        assert [(p.component, len(p.survivors)) for p in cert.passes] == [
            (1, 4), (2, 2), (3, 4), (4, 2),
        ]

    def test_endo_spot_case(self, endo_424):
        products, thresholds = endo_424
        cert = certify_independence(products, thresholds)
        assert isinstance(cert, Certificate)
        assert cert.eliminated == 27

    def test_duplicate_product_fails(self, petri_5273):
        products, thresholds = petri_5273
        doubled = products + (products[0],)
        outcome = certify_independence(doubled, thresholds)
        assert isinstance(outcome, CertificateFailure)
        assert outcome.component == 1
        assert set(outcome.undiscriminated) >= {0, len(products)}

    def test_replay_is_deterministic(self, petri_5273):
        products, thresholds = petri_5273
        cert = certify_independence(products, thresholds)
        assert certify_independence(products, thresholds) == cert

    def test_every_product_in_exactly_one_pass(self, endo_424):
        products, thresholds = endo_424
        cert = certify_independence(products, thresholds)
        seen = [s.product for p in cert.passes for s in p.survivors]
        assert sorted(seen) == list(range(len(products)))

    def test_a_lone_survivor_of_its_slot_needs_no_exact_order(self):
        # alone in its slot, a survivor's coefficient is forced to zero by the
        # direct sum; only survivors sharing a slot need distinct exact P-orders
        unit = SectionSymbol(0, 0, 0)
        inexact = SectionSymbol(0, 1, 0, exact_p=False)
        products = (
            ProductSection(0, 0, (ProductRow(0, inexact, unit),)),
            ProductSection(1, 1, (ProductRow(1, SectionSymbol(1, 2, 0), unit),)),
        )
        cert = certify_independence(products, ((0, 0),))
        assert isinstance(cert, Certificate) and cert.eliminated == 2
        assert [(s.slot, s.exact_p) for s in cert.passes[0].survivors] == [(0, False), (1, True)]


class TestOracle:
    def test_agrees_with_certificates(self, petri_5273):
        products, thresholds = petri_5273
        for seed in (0, 1, 7):
            assert oracle_rank(products, thresholds, OracleConfig(seed=seed)) == 12

    def test_duplicate_drops_rank(self, petri_5273):
        products, thresholds = petri_5273
        doubled = products + (products[-1],)
        assert oracle_rank(doubled, thresholds) == len(products)

    def test_empty_list(self, petri_5273):
        _, thresholds = petri_5273
        assert oracle_rank((), thresholds) == 0

    def test_endo_rank(self, endo_424):
        products, thresholds = endo_424
        assert oracle_rank(products, thresholds, OracleConfig(seed=3, trials=2)) == 27

    def test_rejects_composite_modulus(self):
        with pytest.raises(AlgebraError):
            OracleConfig(prime=91)

    def test_default_prime_is_61_bits(self):
        assert DEFAULT_PRIME.bit_length() == 61

    def test_independence_is_scan_order_free(self, petri_5273):
        # certifying right-to-left is a different proof strategy and may or
        # may not close, but the oracle sees the same matrix either way
        products, thresholds = petri_5273
        reversed_products = tuple(
            type(p)(p.factor_a, p.factor_b, tuple(reversed(p.rows))) for p in products
        )
        reversed_thresholds = tuple(reversed(thresholds))
        assert oracle_rank(reversed_products, reversed_thresholds) == len(products)


# The oracle as first written: one SHA-256 per product per jet level and
# integer column keys.  Kept as the reference the memoised oracle must match.


def _reference_symbol(prow):
    return SectionSymbol(
        prow.slot,
        prow.row_a.ord_p + prow.row_b.ord_p,
        prow.row_a.ord_q + prow.row_b.ord_q,
        prow.row_a.exact_p and prow.row_b.exact_p,
        prow.row_a.exact_q and prow.row_b.exact_q,
    )


def _reference_factor_jet(prime, seed, trial, tag, fid, comp, point, level, row):
    order = row.ord_p if point == "P" else row.ord_q
    exact = row.exact_p if point == "P" else row.exact_q
    if level < order:
        return 0
    nonzero = exact and level == order
    return coeff(prime, seed, trial, f"{tag}:{fid}:{comp}:{point}:{level}", nonzero)


def _drawn(start=0):
    """``(seed, trial, key, nonzero)`` of every scalar the run's jet table
    has drawn, from the ``start``-th of each trial's list on."""
    jets = _jets()
    return {
        (seed, trial, jets.text[n].decode(), jets.nonzero[n])
        for (_, seed, trial), vals in jets.drawn.items() for n in range(start, len(vals))
    }


def _reference_oracle_rank(products, thresholds, cfg=OracleConfig()):
    best = 0
    for trial in range(cfg.trials):
        rows = []
        for prod in products:
            row = {}
            for i, prow in enumerate(prod.rows):
                if not survives(thresholds[i], _reference_symbol(prow)):
                    continue
                th_p, th_q = thresholds[i]
                for point, th in (("P", th_p), ("Q", th_q)):
                    ord_a = prow.row_a.ord_p if point == "P" else prow.row_a.ord_q
                    ord_b = prow.row_b.ord_p if point == "P" else prow.row_b.ord_q
                    for level in (th, th + 1):
                        total = 0
                        for la in range(ord_a, level - ord_b + 1):
                            ca = _reference_factor_jet(
                                cfg.prime, cfg.seed, trial, "A", prod.factor_a, i,
                                point, la, prow.row_a,
                            )
                            if not ca:
                                continue
                            cb = _reference_factor_jet(
                                cfg.prime, cfg.seed, trial, "B", prod.factor_b, i,
                                point, level - la, prow.row_b,
                            )
                            total = (total + ca * cb) % cfg.prime
                        if total:
                            col = ((i * 4096 + prow.slot) * 2 + (point == "Q")) * 2
                            col += level - th
                            row[col] = total
            rows.append(row)
        best = max(best, _rank_mod_p(rows, cfg.prime))
    return best


def _raise_order(product):
    # one product's first factor gets a deeper P-order than the same factor
    # has in every other product: its jets must not be taken from theirs
    rows = tuple(
        replace(row, row_a=replace(row.row_a, ord_p=row.row_a.ord_p + 1))
        for row in product.rows
    )
    return replace(product, rows=rows)


class TestOracleReference:
    @pytest.mark.parametrize("fixture", ["petri_5273", "endo_424"])
    @pytest.mark.parametrize("mutant", ["none", "duplicate", "raised-order"])
    def test_matches_reference(self, request, fixture, mutant):
        products, thresholds = request.getfixturevalue(fixture)
        if mutant == "duplicate":
            products = products + (products[len(products) // 2],)
        elif mutant == "raised-order":
            products = (_raise_order(products[0]),) + products[1:]
        for seed in range(5):
            for trials in (1, 2):
                cfg = OracleConfig(seed=seed, trials=trials)
                assert oracle_rank(products, thresholds, cfg) == _reference_oracle_rank(
                    products, thresholds, cfg
                )

    def test_a_warm_shared_jet_table_gives_the_reference_rank(self, petri_5273, endo_424):
        # a sweep ranks many product lists through one memo table per trial;
        # a scalar cached for one list must be the one a fresh hash gives for
        # the next.  Earlier tests leave the tables warm: empty them first
        products, thresholds = petri_5273
        cfgs = [OracleConfig(seed=seed, trials=trials) for seed in range(3) for trials in (1, 2)]
        clear_memos()
        for cfg in cfgs:
            oracle_rank(products, thresholds, cfg)
        # seeds 0..2 x trials 0 and 1
        assert len(_jets().drawn) == 6

        # the raised-order mutant reads factor A:0's level-1 P-jet on component
        # 0 as a leading coefficient: the warm table holds only its free residue
        warm = len(_jets().drawn[DEFAULT_PRIME, 0, 0])
        raised = (_raise_order(products[0]),) + products[1:]
        oracle_rank(raised, thresholds, cfgs[0])
        hashed = _drawn(warm)
        assert (0, 0, "A:0:0:P:1", True) in hashed
        assert (0, 0, "A:0:0:P:1", False) not in hashed

        cases = [
            (products + (products[len(products) // 2],), thresholds),
            (raised, thresholds),
            endo_424,
        ]
        for cfg in cfgs:
            for case_products, case_thresholds in cases:
                assert oracle_rank(case_products, case_thresholds, cfg) == (
                    _reference_oracle_rank(case_products, case_thresholds, cfg)
                )

    def test_jet_cache_keeps_orders_of_one_factor_apart(self, petri_5273):
        # the raised-order mutant gives factor A:0 on component 0 P-order 1,
        # where every other product has it at order 0: its level-1 jet is the
        # nonzero leading coefficient there and a free residue elsewhere, so
        # the same key string must be hashed both ways
        products, thresholds = petri_5273
        products = (_raise_order(products[0]),) + products[1:]
        clear_memos()  # a warm table would hash nothing
        oracle_rank(products, thresholds)
        hashed = {(key, nonzero) for _, _, key, nonzero in _drawn()}
        assert {("A:0:0:P:1", True), ("A:0:0:P:1", False)} <= hashed

    def test_slot_4096_does_not_collide_with_next_component(self):
        # product A lives only on component 0 in slot 4096, product B only on
        # component 1 in slot 0; the integer key i * 4096 + slot merged them
        thresholds = ((2, 0), (2, 0))
        live, dead, unit = SectionSymbol(0, 3, 5), SectionSymbol(0, 0, 5), SectionSymbol(0, 0, 0)
        products = (
            ProductSection(0, 0, (ProductRow(4096, live, unit), ProductRow(0, dead, unit))),
            ProductSection(1, 1, (ProductRow(4096, dead, unit), ProductRow(0, live, unit))),
        )
        for seed in range(3):
            cfg = OracleConfig(seed=seed)
            assert _reference_oracle_rank(products, thresholds, cfg) == 1
            assert oracle_rank(products, thresholds, cfg) == 2


class TestOraclePlan:
    @pytest.mark.parametrize("fixture", ["petri_5273", "endo_424"])
    @pytest.mark.parametrize("mutant", ["none", "duplicate", "raised-order"])
    def test_one_plan_serves_every_seed_and_trial(self, request, fixture, mutant):
        products, thresholds = request.getfixturevalue(fixture)
        if mutant == "duplicate":
            products = products + (products[len(products) // 2],)
        elif mutant == "raised-order":
            products = (_raise_order(products[0]),) + products[1:]
        plan = oracle_plan(products, thresholds)
        for seed in range(5):
            for trials in (1, 2):
                cfg = OracleConfig(seed=seed, trials=trials)
                assert oracle_rank(products, thresholds, cfg, plan) == _reference_oracle_rank(
                    products, thresholds, cfg
                )

    def test_a_threshold_per_component(self, petri_5273):
        # the certificate and the oracle refuse a list that is short or long
        products, thresholds = petri_5273
        for wrong in (thresholds[:-1], thresholds + ((0, 0),)):
            message = f"^{len(wrong)} threshold pairs for {len(thresholds)} components$"
            for judge in (certify_independence, oracle_plan):
                with pytest.raises(ValueError, match=message):
                    judge(products, wrong)

    def test_slot_4096_with_a_shared_plan(self):
        thresholds = ((2, 0), (2, 0))
        live, dead, unit = SectionSymbol(0, 3, 5), SectionSymbol(0, 0, 5), SectionSymbol(0, 0, 0)
        products = (
            ProductSection(0, 0, (ProductRow(4096, live, unit), ProductRow(0, dead, unit))),
            ProductSection(1, 1, (ProductRow(4096, dead, unit), ProductRow(0, live, unit))),
        )
        plan = oracle_plan(products, thresholds)
        cols_a, cols_b = (
            {i * plan.width * 4 + col for i, column in enumerate(plan.columns)
             for p, col, _ in column.cells if p == product}
            for product in (0, 1)
        )
        assert cols_a and cols_b and cols_a.isdisjoint(cols_b)
        for seed in range(3):
            assert oracle_rank(products, thresholds, OracleConfig(seed=seed), plan) == 2

    def test_decide_hashes_the_keys_the_reference_hashes(self, monkeypatch):
        products, draft = petri_instance(petri_build(petri_params(5, 2, 7, 3)))
        thresholds = draft.distribution.thresholds
        hashed = {"decide": set(), "reference": set()}

        def recording(into, hash_=coeff):
            def coeff(prime, seed, trial, key, nonzero):
                hashed[into].add((seed, trial, key, nonzero))
                return hash_(prime, seed, trial, key, nonzero)
            return coeff

        # decide ranks seeds 0..2; the reference hashes through this module's coeff
        clear_memos()  # a warm table would hash nothing
        assert decide(products, draft, DEFAULT_PRIME, 0, 1).status == "proven"
        hashed["decide"] = _drawn()
        monkeypatch.setitem(globals(), "coeff", recording("reference"))
        for seed in range(3):
            _reference_oracle_rank(products, thresholds, OracleConfig(seed=seed))
        assert hashed["decide"] and hashed["decide"] == hashed["reference"]

    def test_the_oracle_judges_death_without_chain_survives(self, petri_5273, monkeypatch):
        # a survival rule that never kills breaks the certificate, which
        # reads it, and leaves the oracle, which has its own rule, as it was
        products, thresholds = petri_5273
        monkeypatch.setattr("ellchain.independence.survives", lambda th, row: True)
        assert isinstance(certify_independence(products, thresholds), CertificateFailure)
        # orders 0 are exact and below a positive threshold on every component,
        # so this product is dead everywhere and its row stays empty
        zero = SectionSymbol(0, 0, 0)
        assert all(max(th) > 0 for th in thresholds)
        dead = ProductSection(99, 99, tuple(ProductRow(0, zero, zero) for _ in thresholds))
        for case in (products, products + (dead,)):
            for seed in range(3):
                cfg = OracleConfig(seed=seed)
                assert oracle_rank(case, thresholds, cfg) == _reference_oracle_rank(
                    case, thresholds, cfg
                ) == len(products)


def _count_plans(monkeypatch):
    """Record the component of every oracle column planned from now on."""
    planned = []
    plan_column = independence._plan_column

    def counting(i, *rest):
        planned.append(i)
        return plan_column(i, *rest)

    monkeypatch.setattr(independence, "_plan_column", counting)
    return planned


def _record_matrices(monkeypatch):
    """Record a copy of every matrix the oracle eliminates from now on."""
    matrices = []
    rank_mod_p = independence._rank_mod_p

    def recording(rows, prime):
        matrices.append([dict(row) for row in rows])
        return rank_mod_p(rows, prime)

    monkeypatch.setattr(independence, "_rank_mod_p", recording)
    return matrices


# every trial of seeds 0..2 at one and at two trials per seed, at the default
# prime and modulo 3, where some convolution sums vanish
_CONFIGS = [
    OracleConfig(prime=prime, seed=seed, trials=trials)
    for prime in (DEFAULT_PRIME, 3) for seed in range(3) for trials in (1, 2)
]


@pytest.mark.parametrize(
    "g,r", [(g, r) for g in range(4, 9) for r in (2, 3)] + [(20, 5)], ids=str
)
def test_reused_columns_give_the_reference_and_the_cold_rank(g, r, monkeypatch):
    # an endo run's verdicts in sweep order, in one memo lifetime: a later
    # verdict reuses the oracle columns kept with the product columns it reuses
    planned = _count_plans(monkeypatch)
    matrices = _record_matrices(monkeypatch)
    clear_memos()
    verdicts, warm, plans = [], [], []
    for d in PARAMS["endo"]["d"](g, r):
        try:
            params = poin_params(g, r, d)
        except ParamsError:
            continue
        products, draft = endo_instance(endo_build(params))
        thresholds = draft.distribution.thresholds
        planned.clear()
        plan = oracle_plan(products, thresholds)
        plans.append(planned[:])
        warm.append([oracle_rank(products, thresholds, cfg, plan) for cfg in _CONFIGS])
        verdicts.append((products, thresholds))
    assert len(verdicts) >= 2
    # every column for the first verdict; a later one plans component g
    # alone, the one product column formed again, as its table depends on d
    assert plans == [list(range(g))] + [[g - 1]] * (len(verdicts) - 1)
    # the ranks are full even modulo 3, so the matrices are compared as well:
    # the warm ones hold exactly the cold ones' entries, none of them zero
    warm_matrices, matrices[:] = matrices[:], []
    for (products, thresholds), ranks in zip(verdicts, warm):
        clear_memos()
        assert [oracle_rank(products, thresholds, cfg) for cfg in _CONFIGS] == ranks
        assert [_reference_oracle_rank(products, thresholds, cfg) for cfg in _CONFIGS] == ranks
        assert ranks == [len(products)] * len(_CONFIGS)
    assert matrices == warm_matrices
    assert all(value for rows in matrices for row in rows for value in row.values())


@pytest.mark.parametrize("fixture", ["petri_5273", "endo_424"])
def test_a_stale_column_is_never_reused(request, fixture, monkeypatch):
    fixed, thresholds = request.getfixturevalue(fixture)
    planned = _count_plans(monkeypatch)
    matrices = _record_matrices(monkeypatch)
    components = len(thresholds)
    clear_memos()
    products = product_sections(*FACTORS[fixture]())
    assert products == fixed
    # the raised-order mutant of product 0 has new rows on every component;
    # the copy's rows on component 1 past product 0's are equal in value but
    # new objects.  Both keep every factor id
    raised = (_raise_order(products[0]),) + products[1:]
    copied = products[:1] + tuple(
        replace(prod, rows=prod.rows[:1] + (replace(prod.rows[1]),) + prod.rows[2:])
        for prod in products[1:]
    )
    assert copied == products
    assert not any(a.rows[1] is b.rows[1] for a, b in zip(copied[1:], products[1:]))
    # the same rows under other factor ids
    renamed = tuple(
        replace(prod, factor_a=prod.factor_b, factor_b=prod.factor_a) for prod in products
    )
    # the first live cell's row moves to a slot past every other
    before = oracle_plan(products, thresholds)
    k = next(i for i, column in enumerate(before.columns) if column.cells)
    q = before.columns[k].cells[0][0]
    top = max(row.slot for prod in products for row in prod.rows)
    rows = list(products[q].rows)
    rows[k] = replace(rows[k], slot=top + 1)
    widened = products[:q] + (replace(products[q], rows=tuple(rows)),) + products[q + 1:]
    assert oracle_plan(widened, thresholds).width > before.width
    moved = ((thresholds[0][0] + 1, thresholds[0][1]),) + tuple(thresholds[1:])
    everything = list(range(components))
    # only the tuple product_sections kept reuses a column: every mutant is
    # planned in full and keeps nothing, and a moved threshold plans its own
    # column again, both ways
    cases = [
        (products, thresholds, []), (raised, thresholds, everything),
        (copied, thresholds, everything), (renamed, thresholds, everything),
        (widened, thresholds, everything), (products, thresholds, []),
        (products, moved, [0]), (products, moved, []), (products, thresholds, [0]),
    ]
    for stale, stale_thresholds, fresh in cases:
        planned.clear()
        plan = oracle_plan(stale, stale_thresholds)
        assert planned == fresh
        matrices.clear()
        for cfg in _CONFIGS:
            assert oracle_rank(stale, stale_thresholds, cfg, plan) == _reference_oracle_rank(
                stale, stale_thresholds, cfg
            )
        # the matrices are a plan's in full, entry for entry: a list is
        # never the kept tuple
        warm_matrices, matrices[:] = matrices[:], []
        for cfg in _CONFIGS:
            oracle_rank(list(stale), stale_thresholds, cfg)
        assert matrices == warm_matrices


def test_an_empty_product_tuple_is_never_the_kept_one(monkeypatch):
    # every empty tuple is the one object (), so it must not match a kept ()
    series = canonical_series(4)
    clear_memos()
    assert product_sections(series, series, []) is _formed().products is ()
    planned = _count_plans(monkeypatch)
    for _ in range(2):
        plan = oracle_plan((), ((0, 0),) * 4)
        assert planned == [0, 1, 2, 3] and plan.count == 0
        assert _formed().oracle == [None] * 4
        planned.clear()


def test_a_plan_ranks_with_the_jet_numbering_it_was_planned_in(monkeypatch):
    # a plan's cells hold key numbers of the run's jet table; once that table
    # is replaced, by clear_memos or alone, the plan and the oracle columns
    # kept with the product columns must still read their own table's scalars
    matrices = _record_matrices(monkeypatch)
    other, draft = petri_instance(petri_build(petri_params(5, 2, 7, 3)))
    # a list is never the kept tuple: ranking it plans in full and keeps nothing
    other, other_thresholds = list(other), draft.distribution.thresholds

    def endo_637():
        products, draft = endo_instance(endo_build(poin_params(6, 3, 7)))
        return products, draft.distribution.thresholds

    def ranked(products, thresholds, plan):
        matrices.clear()
        return [oracle_rank(products, thresholds, cfg, plan) for cfg in _CONFIGS], matrices[:]

    clear_memos()
    products, thresholds = endo_637()
    plan = oracle_plan(products, thresholds)
    cold = ranked(products, thresholds, plan)
    assert cold[0] == [len(products)] * len(_CONFIGS)
    # the next run numbers other keys first into a table of its own
    clear_memos()
    oracle_rank(other, other_thresholds)
    assert ranked(products, thresholds, plan) == cold
    # the oracle columns kept with the product columns, after the jet table
    # alone is emptied and another list numbers its keys into the new one
    clear_memos()
    products, thresholds = endo_637()
    kept = oracle_plan(products, thresholds).columns
    _jets.cache_clear()
    oracle_rank(other, other_thresholds)
    plan = oracle_plan(products, thresholds)
    assert all(a is b for a, b in zip(plan.columns, kept))
    assert ranked(products, thresholds, plan) == cold


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(st.sampled_from("AB"), st.integers(0, 5000), st.integers(0, 60),
                  st.sampled_from("PQ"), st.integers(0, 90)),
        min_size=1, max_size=4, unique=True,
    ),
    st.integers(1, 7), st.integers(-(2**40), 2**40), st.integers(0, 2),
    st.sampled_from([3, DEFAULT_PRIME]),
)
def test_a_drawn_jet_scalar_is_the_reference_scalar(texts, split, seed, trial, prime):
    # each key text under both flags, numbered in two batches: the second
    # draw extends the list of the first
    keys = [(*text, nonzero) for text in texts for nonzero in (True, False)]
    jets = independence._Jets()
    for batch in (keys[:split], keys[split:]):
        for key in batch:
            jets.number.setdefault(key, len(jets.number))
        jets.keep_new()
        assert jets.draw(prime, seed, trial) == [
            coeff(prime, seed, trial, ":".join(map(str, key[:5])), key[5])
            for key in keys[:len(jets.number)]
        ]


def test_a_run_that_reuses_no_oracle_column_keeps_none():
    # petri rows are new objects in every verdict: only a run's first call
    # keeps its products and oracle columns, and a later call that reuses no
    # product column keeps neither
    clear_memos()
    kept = []
    for d, k in ((7, 3), (8, 1), (7, 3)):
        products, draft = petri_instance(petri_build(petri_params(5, 2, d, k)))
        oracle_plan(products, draft.distribution.thresholds)
        formed = _formed()
        kept.append((formed.products is products, sum(c is not None for c in formed.oracle)))
    assert kept == [(True, 5), (False, 0), (False, 0)]


def test_a_row_number_that_does_not_fit_its_bits_is_refused(monkeypatch):
    # packed row keys hold each factor row's number in ROW_BITS bits; a run
    # with more distinct factor rows must fail, not let two keys collide
    series = canonical_series(4)
    clear_memos()
    before = product_sections(series, series)
    distinct = len({row for table in series.tables for row in table.rows})
    monkeypatch.setattr(independence, "ROW_BITS", (distinct - 1).bit_length() - 1)
    clear_memos()
    bits = independence.ROW_BITS
    message = f"distinct factor rows overflow a {bits}-bit row number$"
    with pytest.raises(AlgebraError, match=message):
        product_sections(series, series)
    monkeypatch.setattr(independence, "ROW_BITS", (distinct - 1).bit_length())
    clear_memos()
    assert product_sections(series, series) == before


def test_equal_product_rows_are_one_object():
    # the products of onto_certificate(20, 5, 24): 1368 products on 20
    # components, of which 5760 row values are distinct
    products, _ = endo_instance(endo_build(poin_params(20, 5, 24)))
    rows = [row for prod in products for row in prod.rows]
    assert len(rows) == 27360
    assert len({id(row) for row in rows}) == 5760
    first: dict[ProductRow, ProductRow] = {}
    assert all(first.setdefault(row, row) is row for row in rows)


def test_equal_product_rows_are_one_object_in_a_warm_run():
    # (20, 5, 24) after (20, 5, 22) of the same run: components 1..19 reuse
    # the earlier verdict's columns, and the last one is formed with its
    # numbering and row table, so equal rows are still one object
    clear_memos()
    endo_instance(endo_build(poin_params(20, 5, 22)))
    products, _ = endo_instance(endo_build(poin_params(20, 5, 24)))
    rows = [row for prod in products for row in prod.rows]
    assert len(rows) == 27360
    assert len({id(row) for row in rows}) == 5760
    first: dict[ProductRow, ProductRow] = {}
    assert all(first.setdefault(row, row) is row for row in rows)


def _columns():
    """The rows of each column the last product_sections call returned."""
    return [column[4] for column in _formed().columns]


def test_a_column_is_reused_for_the_same_tables_only():
    build = endo_build(poin_params(6, 3, 7))
    canonical, series, pairs = canonical_series(6), build.endo_series, colsec_pairs(6, 8)
    clear_memos()
    before = product_sections(canonical, series, pairs)
    # value-equal but distinct tables, or pair list, form every column again
    copied = replace(series, tables=tuple(VanishingTable(t.rows) for t in series.tables))
    for args in ((canonical_series(6), series, pairs), (canonical, copied, pairs),
                 (canonical, series, colsec_pairs(6, 8)), (canonical, series, pairs)):
        product_sections(canonical, series, pairs)
        columns = _columns()
        assert product_sections(*args) == before
        reused = [a is b for a, b in zip(_columns(), columns)]
        # only the very same objects reuse a column, and then every one
        assert reused == [args[0] is canonical and args[1] is series and args[2] is pairs] * 6


def test_a_replaced_table_forms_its_column_alone_again():
    build = endo_build(poin_params(6, 3, 7))
    canonical, series, pairs = canonical_series(6), build.endo_series, colsec_pairs(6, 8)
    clear_memos()
    before = product_sections(canonical, series, pairs)
    columns = _columns()
    # component 3's table with its row 4 shifted one order up at P
    rows = list(series.tables[2].rows)
    rows[4] = rows[4].shifted(-1, 0)
    tables = list(series.tables)
    tables[2] = VanishingTable(tuple(rows))
    shifted = replace(series, tables=tuple(tables))
    after = product_sections(canonical, shifted, pairs)
    for i, (a, b) in enumerate(zip(_columns(), columns)):
        assert (a is b) == (i != 2)
    for old, new in zip(before, after):
        assert all(new.rows[i] is old.rows[i] for i in range(6) if i != 2)
        want = rows[4] if new.factor_b == 4 else series.tables[2].rows[new.factor_b]
        assert new.rows[2].row_b == want
        assert (new.rows[2] == old.rows[2]) == (new.factor_b != 4)
    assert any(p.factor_b == 4 for p in after)
    clear_memos()
    assert product_sections(canonical, shifted, pairs) == after


def test_consecutive_petri_verdicts_share_no_column():
    # petri builds new tables for every verdict: each call starts afresh and
    # its row table holds that verdict's rows only
    clear_memos()
    previous, previous_ids = [], set()
    for d, k in ((7, 3), (8, 1), (7, 3)):  # two consecutive tuples of the run, then one again
        products = petri_instance(petri_build(petri_params(5, 2, d, k)))[0]
        ids = {id(row) for prod in products for row in prod.rows}
        assert len(_formed().shared) == len(ids)
        assert not ids & previous_ids
        assert not any(a is b for a, b in zip(_columns(), previous))
        previous, previous_ids = _columns(), ids


def test_product_row_symbol_follows_replace(petri_5273):
    products, _ = petri_5273
    row = products[0].rows[0]
    lowered = replace(row, row_a=replace(row.row_a, ord_q=row.row_a.ord_q - 3))
    assert lowered.symbol == _reference_symbol(lowered)
    assert lowered.symbol.ord_q == row.symbol.ord_q - 3


@pytest.mark.parametrize("fixture,instance", [
    ("petri_5273", lambda: petri_instance(petri_build(petri_params(5, 2, 7, 3)))),
    ("endo_424", lambda: endo_instance(endo_build(poin_params(4, 2, 4)))),
], ids=["petri-5273", "endo-424"])
def test_a_failed_audit_keeps_a_certified_draft_not_proven(request, fixture, instance):
    # decide's audit gate: certificate and oracle pass, one audit does not
    products, thresholds = request.getfixturevalue(fixture)
    built, draft = instance()
    assert built == products and draft.distribution.thresholds == thresholds
    assert decide(products, draft, DEFAULT_PRIME, 0, 1).status == "proven"
    draft = replace(draft, audits=draft.audits + (Audit("forced", 1, 2),))
    v = decide(products, draft, DEFAULT_PRIME, 0, 1)
    assert v.certificate is not None and v.certificate.eliminated == len(products)
    assert v.certificate_error is None and v.oracle.agreed
    assert v.status == "not-proven"
    assert _verdict_exit(v) == 4
    settled = {"status", "product_count", "certificate", "certificate_error", "oracle"}
    for f in fields(Verdict):
        if f.name not in settled:
            assert getattr(v, f.name) == getattr(draft, f.name), f.name
