"""Product sections, elimination certificates, and the rank oracle."""

from dataclasses import replace

import pytest

from ellchain.chain import Redistribution, canonical_series, redistribute
from ellchain.elliptic import AlgebraError, SectionSymbol
from ellchain.independence import (
    Certificate,
    CertificateFailure,
    DEFAULT_PRIME,
    OracleConfig,
    ProductRow,
    ProductSection,
    _coeff,
    _factor_jet,
    _rank_mod_p,
    certify_independence,
    oracle_rank,
    product_bundle,
    product_sections,
    product_series,
    replay_certificate,
)
from ellchain.pipelines import colsec_pairs, endo_build, petri_build, petri_params, poin_params


@pytest.fixture(scope="module")
def petri_5273():
    build = petri_build(petri_params(5, 2, 7, 3))
    products = product_sections(build.primary, build.dual)
    series = product_series(build.primary, build.dual, products)
    rho = 4
    redist = redistribute(series, (rho, 2 * rho, 2 * rho, 2 * rho, rho))
    return products, redist


@pytest.fixture(scope="module")
def endo_424():
    build = endo_build(poin_params(4, 2, 4))
    canonical = canonical_series(4)
    pairs = colsec_pairs(4, 3)
    products = product_sections(canonical, build.endo_series, pairs)
    series = product_series(canonical, build.endo_series, products)
    redist = redistribute(series, (9, 9, 9, 9))
    return products, redist


class TestProducts:
    def test_orders_add(self):
        s = canonical_series(3)
        products = product_sections(s, s, [(0, 2)])
        row = products[0].rows[1]  # middle component: (0,3) x (3,0)
        assert (row.ord_p, row.ord_q) == (3, 3)

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
                assert row.ord_p == row.row_a.ord_p + row.row_b.ord_p
                assert row.ord_q == row.row_a.ord_q + row.row_b.ord_q

    def test_endo_first_component_orders(self, endo_424):
        # canonical s_1 times the three windows: Q-orders 4g-5, 4g-6, 4g-7
        products, _ = endo_424
        first = [p for p in products if p.factor_a == 0 and p.factor_b < 3]
        assert sorted(p.rows[0].ord_q for p in first) == [9, 10, 11]

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
        products, redist = petri_5273
        cert = certify_independence(products, redist)
        assert isinstance(cert, Certificate)
        assert cert.eliminated == 12
        assert [(p.component, len(p.survivors)) for p in cert.passes] == [
            (1, 4), (2, 2), (3, 4), (4, 2),
        ]

    def test_endo_spot_case(self, endo_424):
        products, redist = endo_424
        cert = certify_independence(products, redist)
        assert isinstance(cert, Certificate)
        assert cert.eliminated == 27

    def test_duplicate_product_fails(self, petri_5273):
        products, redist = petri_5273
        doubled = products + (products[0],)
        outcome = certify_independence(doubled, redist)
        assert isinstance(outcome, CertificateFailure)
        assert outcome.component == 1
        assert set(outcome.undiscriminated) >= {0, len(products)}

    def test_replay_is_deterministic(self, petri_5273):
        products, redist = petri_5273
        cert = certify_independence(products, redist)
        assert replay_certificate(cert, products, redist)

    def test_every_product_in_exactly_one_pass(self, endo_424):
        products, redist = endo_424
        cert = certify_independence(products, redist)
        seen = [s.product for p in cert.passes for s in p.survivors]
        assert sorted(seen) == list(range(len(products)))


class TestOracle:
    def test_agrees_with_certificates(self, petri_5273):
        products, redist = petri_5273
        for seed in (0, 1, 7):
            assert oracle_rank(products, redist, OracleConfig(seed=seed)) == 12

    def test_duplicate_drops_rank(self, petri_5273):
        products, redist = petri_5273
        doubled = products + (products[-1],)
        assert oracle_rank(doubled, redist) == len(products)

    def test_empty_list(self, petri_5273):
        _, redist = petri_5273
        assert oracle_rank((), redist) == 0

    def test_endo_rank(self, endo_424):
        products, redist = endo_424
        assert oracle_rank(products, redist, OracleConfig(seed=3, trials=2)) == 27

    def test_rejects_composite_modulus(self):
        with pytest.raises(AlgebraError):
            OracleConfig(prime=91)

    def test_default_prime_is_61_bits(self):
        assert DEFAULT_PRIME.bit_length() == 61

    def test_independence_is_scan_order_free(self, petri_5273):
        # certifying right-to-left is a different proof strategy and may or
        # may not close, but the oracle sees the same matrix either way
        products, redist = petri_5273
        reversed_products = tuple(
            type(p)(p.factor_a, p.factor_b, tuple(reversed(p.rows))) for p in products
        )
        reversed_redist = replace(
            redist,
            thresholds=tuple(reversed(redist.thresholds)),
            dprime=tuple(reversed(redist.dprime)),
            a_parts=tuple(reversed(redist.a_parts)),
            bundles=tuple(reversed(redist.bundles)),
            tables=tuple(reversed(redist.tables)),
            survivors=tuple(reversed(redist.survivors)),
        )
        assert oracle_rank(reversed_products, reversed_redist) == len(products)


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
    return _coeff(prime, seed, trial, f"{tag}:{fid}:{comp}:{point}:{level}", nonzero)


def _reference_oracle_rank(products, redist, cfg=OracleConfig()):
    best = 0
    for trial in range(cfg.trials):
        rows = []
        for prod in products:
            row = {}
            for i, prow in enumerate(prod.rows):
                if not redist.alive(i, _reference_symbol(prow)):
                    continue
                th_p, th_q = redist.thresholds[i]
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
        products, redist = request.getfixturevalue(fixture)
        if mutant == "duplicate":
            products = products + (products[len(products) // 2],)
        elif mutant == "raised-order":
            products = (_raise_order(products[0]),) + products[1:]
        for seed in range(5):
            for trials in (1, 2):
                cfg = OracleConfig(seed=seed, trials=trials)
                assert oracle_rank(products, redist, cfg) == _reference_oracle_rank(
                    products, redist, cfg
                )

    def test_jet_memo_keeps_orders_of_one_factor_apart(self):
        # a mutated product can give a factor another order than it has
        # elsewhere; at one level its leading jet is nonzero, the other's free
        memo = {}
        for row in (SectionSymbol(0, 3, 0), SectionSymbol(0, 2, 0), SectionSymbol(0, 3, 0)):
            for level in (1, 3):
                assert _factor_jet(
                    DEFAULT_PRIME, 0, 0, "A", 0, 0, "P", level, row, memo
                ) == _reference_factor_jet(DEFAULT_PRIME, 0, 0, "A", 0, 0, "P", level, row)

    def test_slot_4096_does_not_collide_with_next_component(self):
        # product A lives only on component 0 in slot 4096, product B only on
        # component 1 in slot 0; the integer key i * 4096 + slot merged them
        redist = Redistribution((), (), ((2, 0), (2, 0)), (), (), (), 0, 1)
        live, dead, unit = SectionSymbol(0, 3, 5), SectionSymbol(0, 0, 5), SectionSymbol(0, 0, 0)
        products = (
            ProductSection(0, 0, (ProductRow(4096, live, unit), ProductRow(0, dead, unit))),
            ProductSection(1, 1, (ProductRow(4096, dead, unit), ProductRow(0, live, unit))),
        )
        for seed in range(3):
            cfg = OracleConfig(seed=seed)
            assert _reference_oracle_rank(products, redist, cfg) == 1
            assert oracle_rank(products, redist, cfg) == 2


def test_product_row_symbol_follows_replace(petri_5273):
    products, _ = petri_5273
    row = products[0].rows[0]
    lowered = replace(row, row_a=replace(row.row_a, ord_q=row.row_a.ord_q - 3))
    assert lowered.symbol == _reference_symbol(lowered)
    assert lowered.ord_q == row.ord_q - 3

