"""Products of sections, elimination certificates, and a rank oracle.

Independence of a list of product sections is established by a component-by-
component elimination: after redistributing degree, a product either dies on
a component (it provably misses a vanishing threshold there) or survives; if
on some component the surviving, not-yet-eliminated products are pairwise
discriminated (distinct slots of the direct sum, or the same slot with
distinct exact P-orders), their coefficients in any vanishing linear
combination must be zero.  A full run in which every product is eliminated
exactly once is recorded as a replayable :class:`Certificate`.

The certificate is the sound combinatorial argument.  As an independent
cross-check, :func:`oracle_rank` instantiates every generic scalar (leading
jet coefficients of the factor sections, hence implicitly the gluing
scalars) as pseudo-random residues modulo a prime and computes the rank of
the matrix of surviving leading-jet coordinates.  Identical factor pairs
produce identical rows, so injected duplicates drop the rank; the oracle can
confirm a certificate but never certify anything on its own.  A factor's jet
is hashed once per trial and memoised for every product sharing the factor,
and columns are keyed by ``(component, slot, point, offset)`` tuples, so
slots of different components never share a column however many there are.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass, field
from typing import Sequence

from ellchain.chain import LimitLinearSeries, Redistribution, generic_gluing
from ellchain.elliptic import (
    AlgebraError,
    BundleOnComponent,
    IndecomposableSlot,
    LineBundleClass,
    SectionSymbol,
    Slot,
    VanishingTable,
    slot_degree,
    slot_rank,
)

#: default modulus: the 61-bit Mersenne prime
DEFAULT_PRIME = (1 << 61) - 1


# ---------------------------------------------------------------------------
# product sections
# ---------------------------------------------------------------------------


def _product_slot(sa: Slot, sb: Slot) -> Slot:
    ra, rb = slot_rank(sa), slot_rank(sb)
    da, db = slot_degree(sa), slot_degree(sb)
    if isinstance(sa, LineBundleClass) and isinstance(sb, LineBundleClass):
        return LineBundleClass(sa.a + sb.a, sa.b + sb.b, sa.twist + sb.twist)
    return IndecomposableSlot(ra * rb, ra * db + rb * da, sa.twist + sb.twist)


def product_bundle(ba: BundleOnComponent, bb: BundleOnComponent) -> BundleOnComponent:
    """Tensor product, slot pair (i, j) -> slot i * len(bb.slots) + j."""
    return BundleOnComponent(
        tuple(_product_slot(sa, sb) for sa in ba.slots for sb in bb.slots)
    )


@dataclass(frozen=True, slots=True)
class ProductRow:
    """Aspect of one product section on one component.

    ``symbol`` is the product's own section symbol (orders add, an order is
    exact only when both factors' are), derived from the factor rows once on
    construction; ``dataclasses.replace`` derives it again, so it can never
    go stale.
    """

    slot: int
    row_a: SectionSymbol
    row_b: SectionSymbol
    symbol: SectionSymbol = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        a, b = self.row_a, self.row_b
        object.__setattr__(self, "symbol", SectionSymbol(
            self.slot, a.ord_p + b.ord_p, a.ord_q + b.ord_q,
            a.exact_p and b.exact_p, a.exact_q and b.exact_q,
        ))

    @property
    def ord_p(self) -> int:
        return self.symbol.ord_p

    @property
    def ord_q(self) -> int:
        return self.symbol.ord_q

    @property
    def exact_p(self) -> bool:
        return self.symbol.exact_p

    @property
    def exact_q(self) -> bool:
        return self.symbol.exact_q


@dataclass(frozen=True)
class ProductSection:
    """A product of section ``factor_a`` of one series with ``factor_b`` of another."""

    factor_a: int
    factor_b: int
    rows: tuple[ProductRow, ...]

    @property
    def key(self) -> tuple[int, int]:
        return (self.factor_a, self.factor_b)


def product_sections(
    series_a: LimitLinearSeries,
    series_b: LimitLinearSeries,
    pairs: Sequence[tuple[int, int]] | None = None,
) -> tuple[ProductSection, ...]:
    """Form product sections for the requested (or all) factor pairs.

    Per component, vanishing orders add and the product lands in the
    tensor-expansion slot of its factors' slots.
    """
    if series_a.chain != series_b.chain:
        raise AlgebraError("product sections need both series on the same chain")
    if pairs is None:
        pairs = [(t, l) for t in range(series_a.dimension) for l in range(series_b.dimension)]
    width = [len(b.slots) for b in series_b.bundles]
    out: list[ProductSection] = []
    for t, l in pairs:
        rows: list[ProductRow] = []
        for i in range(series_a.chain.components):
            ra = series_a.tables[i].rows[t]
            rb = series_b.tables[i].rows[l]
            rows.append(ProductRow(ra.slot * width[i] + rb.slot, ra, rb))
        out.append(ProductSection(t, l, tuple(rows)))
    return tuple(out)


def product_series(
    series_a: LimitLinearSeries,
    series_b: LimitLinearSeries,
    products: Sequence[ProductSection],
) -> LimitLinearSeries:
    """Package the product data as a series of its own.

    Used for degree bookkeeping and redistribution; table rows of one slot
    need not have distinct orders here.
    """
    bundles = tuple(
        product_bundle(ba, bb) for ba, bb in zip(series_a.bundles, series_b.bundles)
    )
    tables = tuple(
        VanishingTable(tuple(p.rows[i].symbol for p in products))
        for i in range(series_a.chain.components)
    )
    return LimitLinearSeries(
        chain=series_a.chain,
        rank=series_a.rank * series_b.rank,
        degree=series_a.rank * series_b.degree + series_b.rank * series_a.degree,
        dimension=len(products),
        a=series_a.a + series_b.a,
        bundles=bundles,
        tables=tables,
        gluing=generic_gluing(series_a.chain.components),
    )


# ---------------------------------------------------------------------------
# elimination certificates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Survivor:
    product: int
    slot: int
    ord_p: int
    exact_p: bool
    ord_q: int
    exact_q: bool


@dataclass(frozen=True)
class EliminationPass:
    component: int  # 1-based
    survivors: tuple[Survivor, ...]


@dataclass(frozen=True)
class Certificate:
    """A successful elimination: every product dies in exactly one pass."""

    passes: tuple[EliminationPass, ...]
    product_count: int
    thresholds: tuple[tuple[int, int], ...]

    @property
    def eliminated(self) -> int:
        return sum(len(p.survivors) for p in self.passes)


@dataclass(frozen=True)
class CertificateFailure:
    """First place the elimination strategy breaks down.

    Not a disproof of independence, only of this proof strategy: either some
    component's survivors are not pairwise discriminated, or some products
    are never eliminated.
    """

    component: int | None
    undiscriminated: tuple[int, ...]
    leftover: tuple[int, ...]
    reason: str


def _discriminated(group: Sequence[Survivor]) -> bool:
    """Within one slot: all P-orders exact and pairwise distinct."""
    if len(group) <= 1:
        return True
    if not all(s.exact_p for s in group):
        return False
    orders = [s.ord_p for s in group]
    return len(set(orders)) == len(orders)


def certify_independence(
    products: Sequence[ProductSection], redist: Redistribution
) -> Certificate | CertificateFailure:
    """Left-to-right elimination of the products under the redistribution.

    On each component the survivors are the not-yet-eliminated products
    meeting both vanishing thresholds (inexact orders are lower bounds and
    can never certify death).  A pass is valid only if its survivors are
    pairwise discriminated: distinct slots, or same slot with distinct exact
    P-orders.
    """
    remaining = set(range(len(products)))
    passes: list[EliminationPass] = []
    for i in range(len(redist.thresholds)):
        alive: list[Survivor] = []
        for idx in sorted(remaining):
            sym = products[idx].rows[i].symbol
            if redist.alive(i, sym):
                alive.append(
                    Survivor(idx, sym.slot, sym.ord_p, sym.exact_p, sym.ord_q, sym.exact_q)
                )
        if not alive:
            continue
        by_slot: dict[int, list[Survivor]] = {}
        for s in alive:
            by_slot.setdefault(s.slot, []).append(s)
        bad = [s.product for g in by_slot.values() if not _discriminated(g) for s in g]
        if bad:
            return CertificateFailure(
                component=i + 1,
                undiscriminated=tuple(sorted(bad)),
                leftover=(),
                reason=f"component {i + 1}: survivors not pairwise discriminated",
            )
        passes.append(EliminationPass(i + 1, tuple(alive)))
        remaining.difference_update(s.product for s in alive)
    if remaining:
        return CertificateFailure(
            component=None,
            undiscriminated=(),
            leftover=tuple(sorted(remaining)),
            reason=f"{len(remaining)} products never meet the thresholds anywhere",
        )
    return Certificate(tuple(passes), len(products), redist.thresholds)


def replay_certificate(
    cert: Certificate, products: Sequence[ProductSection], redist: Redistribution
) -> bool:
    """Certificates are deterministic replays: re-run and compare."""
    again = certify_independence(products, redist)
    return isinstance(again, Certificate) and again == cert


# ---------------------------------------------------------------------------
# randomized rank oracle
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=64)
def _is_probable_prime(n: int) -> bool:
    """Miller-Rabin with the first twelve prime bases; cached, since every
    verdict checks the same modulus three times."""
    if n < 2:
        return False
    small = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for p in small:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in small:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class OracleConfig:
    prime: int = DEFAULT_PRIME
    seed: int = 0
    trials: int = 1

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise AlgebraError("oracle needs at least one trial")
        if not _is_probable_prime(self.prime):
            raise AlgebraError(f"modulus {self.prime} is not prime")


def _coeff(prime: int, seed: int, trial: int, key: str, nonzero: bool) -> int:
    digest = hashlib.sha256(f"{seed}:{trial}:{key}".encode()).digest()
    value = int.from_bytes(digest, "big")
    return value % (prime - 1) + 1 if nonzero else value % prime


def _factor_jet(
    prime: int, seed: int, trial: int, tag: str, fid: int, comp: int,
    point: str, level: int, row: SectionSymbol, memo: dict[tuple, int],
) -> int:
    order = row.ord_p if point == "P" else row.ord_q
    exact = row.exact_p if point == "P" else row.exact_q
    if level < order:
        return 0
    # an exact order has a nonzero leading coefficient; deeper jets, and all
    # jets of a bound-only order, are free residues (possibly zero)
    nonzero = exact and level == order
    # everything the scalar depends on: a mutated product that gives a
    # factor another order than elsewhere must not reuse that factor's jets
    key = (tag, fid, comp, point, level, nonzero)
    value = memo.get(key)
    if value is None:
        value = memo[key] = _coeff(
            prime, seed, trial, f"{tag}:{fid}:{comp}:{point}:{level}", nonzero
        )
    return value


def _rank_mod_p(rows: list[dict[tuple, int]], prime: int) -> int:
    """Gaussian elimination over F_p on sparse rows (dict: column -> value)."""
    pivots: dict[tuple, dict[tuple, int]] = {}
    rank = 0
    for row in rows:
        row = {c: v % prime for c, v in row.items() if v % prime}
        while row:
            col = min(row)
            piv = pivots.get(col)
            if piv is None:
                pivots[col] = row
                rank += 1
                break
            factor = row[col] * pow(piv[col], prime - 2, prime) % prime
            for c, v in piv.items():
                nv = (row.get(c, 0) - factor * v) % prime
                if nv:
                    row[c] = nv
                else:
                    row.pop(c, None)
    return rank


def oracle_rank(
    products: Sequence[ProductSection],
    redist: Redistribution,
    cfg: OracleConfig = OracleConfig(),
) -> int:
    """Rank of the surviving leading-jet matrix over F_prime; max over trials.

    One row per product; columns are keyed ``(component, slot, point,
    level - threshold)`` and hold, per component and slot, the jets of order
    threshold and threshold+1 at both marked points.  Each factor section's
    jet coefficients are pseudo-random residues keyed by factor id, so
    repeated factors repeat their coefficients, and each product row is the
    bilinear convolution of its factors' jets.  A factor jet is hashed once
    per trial and memoised for every product sharing the factor.  A dead
    product contributes nothing on the component.  The rank can only
    underestimate the generic rank, never exceed the product count.
    """
    prime, seed = cfg.prime, cfg.seed
    live = [
        [(i, prow) for i, prow in enumerate(prod.rows) if redist.alive(i, prow.symbol)]
        for prod in products
    ]
    best = 0
    for trial in range(cfg.trials):
        memo: dict[tuple, int] = {}
        rows: list[dict[tuple, int]] = []
        for prod, alive in zip(products, live):
            row: dict[tuple, int] = {}
            for i, prow in alive:
                th_p, th_q = redist.thresholds[i]
                for point, th in (("P", th_p), ("Q", th_q)):
                    ord_a = prow.row_a.ord_p if point == "P" else prow.row_a.ord_q
                    ord_b = prow.row_b.ord_p if point == "P" else prow.row_b.ord_q
                    for level in (th, th + 1):
                        total = 0
                        for la in range(ord_a, level - ord_b + 1):
                            ca = _factor_jet(
                                prime, seed, trial, "A", prod.factor_a, i,
                                point, la, prow.row_a, memo,
                            )
                            if not ca:
                                continue
                            cb = _factor_jet(
                                prime, seed, trial, "B", prod.factor_b, i,
                                point, level - la, prow.row_b, memo,
                            )
                            total = (total + ca * cb) % prime
                        if total:
                            row[(i, prow.slot, point, level - th)] = total
            rows.append(row)
        best = max(best, _rank_mod_p(rows, prime))
    return best
