"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  Each criterion pins its tolerances and runtime budget; everything is
exact integer arithmetic, so tolerances are equalities.
"""

import random
import time
from contextlib import contextmanager
from dataclasses import replace

import pytest

from ellchain.chain import (
    canonical_series,
    redistribute,
    validate_lls,
    validate_rank1,
)
from ellchain.elliptic import BundleOnComponent, Degree0Class, LineBundleClass
from ellchain.independence import (
    Certificate,
    CertificateFailure,
    OracleConfig,
    certify_independence,
    oracle_rank,
)
from ellchain.pipelines import (
    ParamsError,
    endo_build,
    endo_h0,
    endo_instance,
    onto_certificate,
    petri_build,
    petri_certificate,
    petri_instance,
    petri_params,
    petri_parts,
    poin_params,
    quoted_thresholds,
)
from ellchain.tableaux import count_tableaux
from reference import rectangle_syt_count


@contextmanager
def criterion(number, description, budget):
    start = time.time()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL  {description}")
        raise
    elapsed = time.time() - start
    if elapsed > budget:
        print(f"ACCEPTANCE {number}: FAIL  {description} (over budget: {elapsed:.1f}s)")
        pytest.fail(f"criterion {number} exceeded its {budget}s budget ({elapsed:.1f}s)")
    print(f"ACCEPTANCE {number}: PASS  {description} ({elapsed:.2f}s)")


# -- 1: canonical series ------------------------------------------------------


def test_criterion_1_canonical_suite():
    with criterion(1, "canonical series valid, refined, distinguished orders, g=2..50", 1.0):
        for g in range(2, 51):
            series = canonical_series(g)
            assert validate_lls(series).ok
            assert validate_rank1(series).refined
            for i in range(1, g + 1):
                row = series.tables[i - 1].rows[i - 1]
                assert (row.ord_p, row.ord_q) == (2 * (i - 1), 2 * (g - i))


# -- 2: tableaux oracle -------------------------------------------------------


def _fill_count(g, nrows, ncols):
    """Cell-by-cell brute force, row-major; independent of the column DP."""
    n = nrows * ncols
    if ncols == 0:
        return 1
    if n > g:
        return 0
    grid = [[0] * ncols for _ in range(nrows)]
    used = [False] * (g + 1)

    def place(cell):
        if cell == n:
            return 1
        i, j = divmod(cell, ncols)
        lo = max(grid[i][j - 1] if j else 0, grid[i - 1][j] if i else 0)
        total = 0
        for v in range(lo + 1, g + 1):
            if not used[v]:
                used[v] = True
                grid[i][j] = v
                total += place(cell + 1)
                used[v] = False
        grid[i][j] = 0
        return total

    return place(0)


def test_criterion_2_tableaux_oracle():
    with criterion(2, "tableau counts vs brute force, hook lengths, unique column", 10.0):
        for g in range(2, 11):
            for nrows in range(1, 13):
                for ncols in range(0, 13):
                    if nrows * ncols > 12:
                        continue
                    r, d = nrows - 1, g + nrows - 1 - ncols
                    if d < 0:
                        continue
                    assert count_tableaux(g, r, d) == _fill_count(g, nrows, ncols), (g, r, d)
                    if nrows * ncols == g:
                        assert count_tableaux(g, r, d) == rectangle_syt_count(nrows, ncols)
        for g in range(2, 21):
            assert count_tableaux(g, g - 1, 2 * g - 2) == 1


# -- 3: redistribution bookkeeping -------------------------------------------


def _random_series(rng):
    from ellchain.chain import GluingData, LimitLinearSeries, NodeGluing, elliptic_chain
    from ellchain.elliptic import SectionSymbol, VanishingTable

    m = rng.randint(1, 8)
    r = rng.randint(1, 4)
    a = rng.randint(1, 5)
    k = rng.randint(1, 6)
    bundles, tables = [], []
    for i in range(m):
        d_i = a * r + rng.randrange(r)
        cuts = sorted(rng.randint(0, d_i) for _ in range(r - 1))
        parts = [hi - lo for lo, hi in zip([0] + cuts, cuts + [d_i])]
        bundles.append(
            BundleOnComponent(
                tuple(
                    LineBundleClass(p, 0, Degree0Class.of_generic(f"x{i}.{j}"))
                    for j, p in enumerate(parts)
                )
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


def test_criterion_3_redistribution_bookkeeping():
    with criterion(3, "1000 random redistributions: exact degrees, no-op identity", 5.0):
        rng = random.Random(0xE11C)
        for _ in range(1000):
            series = _random_series(rng)
            m = series.chain.components
            parts = [0] * m
            for _ in range(series.a):
                parts[rng.randrange(m)] += 1
            dprime = tuple(
                p * series.rank + d_i % series.rank
                for p, d_i in zip(parts, series.component_degrees)
            )
            redist = redistribute(series, dprime)
            assert sum(b.degree for b in redist.bundles) == series.degree
            assert tuple(b.degree for b in redist.bundles) == dprime
            again = redist.redistribute(dprime)
            assert again.tables == redist.tables
            assert again.bundles == redist.bundles


# -- 4 and 7: the rank-r product grid ----------------------------------------


_GRID_CACHE: dict = {}


def _petri_grid():
    if not _GRID_CACHE:
        for g in range(2, 11):
            for r in range(1, 5):
                for d in range(1, 4 * g + 1):
                    for k in range(1, 4 * g + 1):
                        try:
                            petri_params(g, r, d, k)
                        except ParamsError:
                            continue
                        _GRID_CACHE[(g, r, d, k)] = petri_certificate(g, r, d, k)
    return _GRID_CACHE


def test_criterion_4_petri_grid():
    with criterion(4, "all admissible rank-r tuples proven with k*kbar products", 120.0):
        grid = _petri_grid()
        assert len(grid) > 1000
        for (g, r, d, k), verdict in grid.items():
            p = petri_params(g, r, d, k)
            kbar = r * (p.k1 - p.d1 + g - 1)
            assert verdict.status == "proven", (g, r, d, k)
            assert verdict.product_count == k * kbar, (g, r, d, k)
            assert len(verdict.oracle.seeds) >= 3
            assert verdict.oracle.agreed, (g, r, d, k)
        spot = grid[(5, 2, 7, 3)]
        assert spot.product_count == 12


def test_criterion_7_degree_unit_audit():
    with criterion(7, "product distribution sums to r^2(2g-2); quoted thresholds recorded", 150.0):
        for (g, r, d, k), verdict in _petri_grid().items():
            dist = verdict.distribution
            assert sum(dist.dprime) == r * r * (2 * g - 2), (g, r, d, k)
            assert dist.quoted_thresholds == quoted_thresholds(petri_parts(g))
            assert dist.matches_quoted is True


# -- 5: endomorphism grid -----------------------------------------------------


def test_criterion_5_endomorphism_grid():
    with criterion(5, "endomorphism pipeline proven on 4<=g<=10, 2<=r<=4, g<=d<g+r", 120.0):
        for g in range(4, 11):
            for r in range(2, 5):
                for d in range(g, g + r):
                    rho = r * r - 1
                    build = endo_build(poin_params(g, r, d))
                    assert endo_h0(build) == 1, (g, r, d)
                    assert build.endo_series.dimension == rho * (g - 1), (g, r, d)
                    verdict = onto_certificate(g, r, d)
                    assert verdict.status == "proven", (g, r, d)
                    assert verdict.product_count == rho * (3 * g - 3), (g, r, d)
                    # target dimension two ways: window count vs degree count
                    degree_count = rho * (4 * g - 4) + rho * (1 - g)
                    assert verdict.product_count == degree_count
                    assert len(verdict.oracle.seeds) >= 3 and verdict.oracle.agreed


# -- 6: soundness negative controls ------------------------------------------


def _petri_instance(g, r, d, k):
    build = petri_build(petri_params(g, r, d, k))
    products, draft = petri_instance(build)
    return build, products, draft.distribution.thresholds


def _endo_instance(g, r, d):
    build = endo_build(poin_params(g, r, d))
    products, draft = endo_instance(build)
    return build, products, draft.distribution.thresholds


def _lower_orders(product, drop):
    rows = tuple(
        replace(
            row,
            row_a=replace(row.row_a, ord_q=row.row_a.ord_q - drop),
        )
        for row in product.rows
    )
    return replace(product, rows=rows)


def test_criterion_6_negative_controls():
    with criterion(6, "50 mutated instances: no false proven verdicts", 60.0):
        bases = [
            _petri_instance(5, 2, 7, 3),
            _petri_instance(6, 3, 14, 4),
            _endo_instance(4, 2, 4),
            _endo_instance(5, 2, 5),
        ]
        mutants = 0

        # duplicated products: certificate fails, oracle rank drops
        for _, products, thresholds in bases:
            for j in list(range(0, len(products), max(1, len(products) // 5)))[:5]:
                doubled = products + (products[j],)
                outcome = certify_independence(doubled, thresholds)
                assert isinstance(outcome, CertificateFailure)
                rank = oracle_rank(doubled, thresholds, OracleConfig(seed=mutants))
                assert rank < len(doubled)
                mutants += 1

        # lowered vanishing orders: every survivor has Q-slack at most 2, so
        # dropping 3 kills the product everywhere; the certificate leaves it
        # over and its oracle row goes to zero
        for _, products, thresholds in bases:
            for j in range(0, len(products), max(1, len(products) // 5)):
                mutated = tuple(
                    _lower_orders(p, 3) if idx == j else p for idx, p in enumerate(products)
                )
                outcome = certify_independence(mutated, thresholds)
                assert isinstance(outcome, CertificateFailure)
                assert j in outcome.leftover
                rank = oracle_rank(mutated, thresholds, OracleConfig(seed=mutants))
                assert rank < len(mutated)
                mutants += 1

        # torsion collisions: a summand class collapses to the trivial one,
        # so a stated table row claims a section its slot cannot have
        for g, r, d in [(4, 2, 4), (4, 2, 5), (5, 2, 5), (6, 3, 7), (5, 3, 6)]:
            build = endo_build(poin_params(g, r, d))
            series = build.endo_series
            for comp in range(min(2, g - 1)):
                bundles = list(series.bundles)
                slots = list(bundles[comp].slots)
                slots[0] = replace(slots[0], twist=Degree0Class.zero())
                bundles[comp] = BundleOnComponent(tuple(slots))
                mutated = replace(series, bundles=tuple(bundles))
                report = validate_lls(mutated)
                assert report.structural_errors  # flagged, never silently proven
                mutants += 1

        assert mutants >= 50, f"only {mutants} mutants exercised"
