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
confirm a certificate but never certify anything on its own.  The oracle
judges death on a component by its own rule, read off the factor rows, not
by :func:`ellchain.chain.survives`, which the certificate uses.  Its matrix
depends on no seed: :func:`oracle_plan` lays it out once per verdict, one
:class:`OracleColumn` per component, numbers its jet keys in a
:class:`_Jets` table and reuses the oracle columns kept with the product
columns they were planned on (:class:`_Formed`).  A caller that decides
many verdicts passes one run's :class:`_Formed` and :class:`_Jets` to each
(:class:`ellchain.pipelines.Run`); without them every call starts afresh.

Rows, sections, survivors, passes, certificates, the oracle configuration
and its plan are value types made by :func:`ellchain.elliptic.value`, like
the symbols they are built from.  A :class:`Verdict` records what a
certification of :mod:`ellchain.pipelines` settled: its audits, thresholds,
certificate and oracle ranks.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import operator
from dataclasses import dataclass, field
from typing import Sequence

from ellchain.chain import LimitLinearSeries, StabilityVerdict, generic_gluing, survives
from ellchain.elliptic import (
    AlgebraError,
    BundleOnComponent,
    IndecomposableSlot,
    LineBundleClass,
    SectionSymbol,
    Slot,
    VanishingTable,
    memo,
    value,
)

#: default modulus: the 61-bit Mersenne prime
DEFAULT_PRIME = (1 << 61) - 1

_rows = operator.attrgetter("rows")
_symbol = operator.attrgetter("symbol")
_factor_a = operator.attrgetter("factor_a")
_factor_b = operator.attrgetter("factor_b")


# ---------------------------------------------------------------------------
# product sections
# ---------------------------------------------------------------------------


@memo
def _product_slot(sa: Slot, sb: Slot) -> Slot:
    if isinstance(sa, LineBundleClass) and isinstance(sb, LineBundleClass):
        return LineBundleClass(sa.a + sb.a, sa.b + sb.b, sa.twist + sb.twist)
    ra, rb = sa.rank, sb.rank
    return IndecomposableSlot(ra * rb, ra * sb.degree + rb * sa.degree, sa.twist + sb.twist)


def product_bundle(ba: BundleOnComponent, bb: BundleOnComponent) -> BundleOnComponent:
    """Tensor product, slot pair (i, j) -> slot i * len(bb.slots) + j."""
    return BundleOnComponent(
        tuple(_product_slot(sa, sb) for sa in ba.slots for sb in bb.slots)
    )


@value
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


@value
class ProductSection:
    """A product of section ``factor_a`` of one series with ``factor_b`` of another."""

    factor_a: int
    factor_b: int
    rows: tuple[ProductRow, ...]


#: a column of :func:`product_sections`: ``(table_a, table_b, width, pairs,
#: rows)``, one component's row of every product and what it was formed from
Column = tuple[VanishingTable, VanishingTable, int, Sequence[tuple[int, int]], tuple]


#: bits of a factor row's number in a packed row key: ``(product slot <<
#: 2 * ROW_BITS) | (number_a << ROW_BITS) | number_b``
ROW_BITS = 20


class _Formed:
    """What :func:`product_sections`' previous call formed: its columns, the
    oracle column planned on each (``None`` until :func:`oracle_plan` plans
    it), the row table they were formed with, and the products it returned,
    kept (else ``None``) only when that call was the first given this
    ``_Formed`` or reused a column; and the factor-row numbering of every
    call given it (a run's, see :func:`product_sections`)."""

    __slots__ = ("columns", "oracle", "number", "shared", "products")

    def __init__(self) -> None:
        self.columns: list[Column] = []
        self.oracle: list[OracleColumn | None] = []
        self.number: dict[SectionSymbol, int] = {}
        self.shared: dict[int, ProductRow] = {}
        self.products: tuple[ProductSection, ...] | None = None


def product_sections(
    series_a: LimitLinearSeries,
    series_b: LimitLinearSeries,
    pairs: Sequence[tuple[int, int]] | None = None,
    formed: _Formed | None = None,
) -> tuple[ProductSection, ...]:
    """Form product sections for the requested (or all) factor pairs.

    Per component, vanishing orders add and the product lands in the
    tensor-expansion slot of its factors' slots.  The rows are formed a
    column at a time, one component's row of every product, and the
    columns are zipped into :class:`ProductSection` values.

    ``formed`` holds the previous call's columns (none when it is None).  A
    component's column is the previous call's when its two factor tables
    and the pair list are the very objects (``is``) that column was formed
    from and its width is equal: an endo run hands each verdict the same
    tables off the last component.  Such a call keeps the previous call's
    row table too, and the oracle column planned on a reused column
    (:func:`oracle_plan`); a call that reuses no column, as a petri verdict,
    whose tables are all new, starts a row table of its own.

    Rows of equal value are one shared :class:`ProductRow` object, keyed by
    one integer that packs the product slot with the numbers of its two
    factor rows, :data:`ROW_BITS` bits each.  Each distinct factor row is
    numbered once in ``formed.number``, for every call given ``formed``, so
    no pair hashes a :class:`SectionSymbol` and a key means the same row in
    every call: a row not in this call's table is taken from the previous
    call's before a new one is made, and only the rows of this call and the
    previous one are alive.  A call that reuses no column and whose factor
    rows could take the numbering past ``2 ** ROW_BITS`` numbers them
    afresh, as a first call; a number of the call's own rows that does not
    fit raises :class:`AlgebraError` rather than let two keys collide.  An
    empty pair list numbers nothing.
    """
    if series_a.chain != series_b.chain:
        raise AlgebraError("product sections need both series on the same chain")
    if pairs is None:
        pairs = [(t, l) for t in range(series_a.dimension) for l in range(series_b.dimension)]
    formed = _Formed() if formed is None else formed
    old = formed.columns
    first = not old
    sources = [
        (series_a.tables[i], series_b.tables[i], len(series_b.bundles[i].slots))
        for i in range(series_a.chain.components)
    ]
    reused = [
        i < len(old) and old[i][0] is ta and old[i][1] is tb and old[i][2] == width
        and old[i][3] is pairs
        for i, (ta, tb, width) in enumerate(sources)
    ]
    previous: dict[int, ProductRow] = {}
    if not any(reused):
        old = formed.columns = formed.oracle = []
        previous, formed.shared, formed.products = formed.shared, {}, None
        # the tables' rows bound the numbers this call can add
        if pairs and len(formed.number) + sum(
            len(ta.rows) + len(tb.rows) for ta, tb, _ in sources
        ) > 1 << ROW_BITS:
            formed.number, previous = {}, {}
    number, shared = formed.number, formed.shared
    columns: list[Column] = []
    for i, (table_a, table_b, width) in enumerate(sources):
        if reused[i]:
            columns.append(old[i])
            continue
        if not pairs:
            columns.append((table_a, table_b, width, pairs, ()))
            continue
        # per factor row: (its part of the packed key, the row); the two
        # parts add up to the key of their product row
        side_a = [
            ((r.slot * width << ROW_BITS | number.setdefault(r, len(number))) << ROW_BITS, r)
            for r in table_a.rows
        ]
        side_b = [
            (r.slot << 2 * ROW_BITS | number.setdefault(r, len(number)), r)
            for r in table_b.rows
        ]
        if len(number) > 1 << ROW_BITS:
            raise AlgebraError(
                f"{len(number)} distinct factor rows overflow a {ROW_BITS}-bit row number"
            )
        rows = []
        for t, l in pairs:
            key_a, ra = side_a[t]
            key_b, rb = side_b[l]
            key = key_a + key_b
            row = shared.get(key)
            if row is None:
                row = previous.get(key)
                if row is None:
                    row = ProductRow(key >> 2 * ROW_BITS, ra, rb)
                shared[key] = row
            rows.append(row)
        columns.append((table_a, table_b, width, pairs, tuple(rows)))
    formed.columns = columns
    formed.oracle = [formed.oracle[i] if reuse else None for i, reuse in enumerate(reused)]
    products = tuple(
        ProductSection(t, l, rows)
        for (t, l), rows in zip(pairs, zip(*(column[4] for column in columns)))
    )
    # kept products cost a petri run's collector: keep them only where an
    # oracle column can be reused
    formed.products = products if first or any(reused) else None
    return products


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
    columns = zip(*map(_rows, products)) if products else [()] * series_a.chain.components
    tables = tuple(VanishingTable(tuple(map(_symbol, rows))) for rows in columns)
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


@value
class Survivor:
    product: int
    slot: int
    ord_p: int
    exact_p: bool
    ord_q: int
    exact_q: bool


@value
class EliminationPass:
    component: int  # 1-based
    survivors: tuple[Survivor, ...]


@value
class Certificate:
    """A successful elimination: every product dies in exactly one pass."""

    passes: tuple[EliminationPass, ...]
    product_count: int
    thresholds: tuple[tuple[int, int], ...]

    @property
    def eliminated(self) -> int:
        return sum(len(p.survivors) for p in self.passes)


@value
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


def _check_thresholds(products: Sequence[ProductSection], thresholds: Sequence) -> None:
    """Raise ``ValueError`` unless every product has one row per threshold pair."""
    for prod in products:
        if len(prod.rows) != len(thresholds):
            raise ValueError(f"{len(thresholds)} threshold pairs for {len(prod.rows)} components")


def certify_independence(
    products: Sequence[ProductSection], thresholds: Sequence[tuple[int, int]]
) -> Certificate | CertificateFailure:
    """Left-to-right elimination of the products under per-component thresholds.

    On each component the survivors are the not-yet-eliminated products
    meeting both vanishing thresholds (inexact orders are lower bounds and
    can never certify death).  A pass is valid only if its survivors are
    pairwise discriminated: distinct slots, or same slot with distinct exact
    P-orders.  A threshold list that is not one pair per component raises
    ``ValueError``.
    """
    _check_thresholds(products, thresholds)
    remaining = set(range(len(products)))
    passes: list[EliminationPass] = []
    for i, threshold in enumerate(thresholds):
        survivors: list[Survivor] = []
        for idx in sorted(remaining):
            sym = products[idx].rows[i].symbol
            if survives(threshold, sym):
                survivors.append(
                    Survivor(idx, sym.slot, sym.ord_p, sym.exact_p, sym.ord_q, sym.exact_q)
                )
        if not survivors:
            continue
        by_slot: dict[int, list[Survivor]] = {}
        for s in survivors:
            by_slot.setdefault(s.slot, []).append(s)
        bad = [s.product for g in by_slot.values() if not _discriminated(g) for s in g]
        if bad:
            return CertificateFailure(
                component=i + 1,
                undiscriminated=tuple(sorted(bad)),
                leftover=(),
                reason=f"component {i + 1}: survivors not pairwise discriminated",
            )
        passes.append(EliminationPass(i + 1, tuple(survivors)))
        remaining.difference_update(s.product for s in survivors)
    if remaining:
        return CertificateFailure(
            component=None,
            undiscriminated=(),
            leftover=tuple(sorted(remaining)),
            reason=f"{len(remaining)} products never meet the thresholds anywhere",
        )
    return Certificate(tuple(passes), len(products), tuple(thresholds))


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


@value
class OracleConfig:
    prime: int = DEFAULT_PRIME
    seed: int = 0
    trials: int = 1

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise AlgebraError("oracle needs at least one trial")
        if not _is_probable_prime(self.prime):
            raise AlgebraError(f"modulus {self.prime} is not prime")


#: a jet scalar's key: ``(tag, fid, comp, point, level, nonzero)``
JetKey = tuple[str, int, int, str, int, bool]


class _Jets:
    """The jet keys of a run, each numbered once, and the scalars drawn for
    them.

    ``number`` maps a key to its number, in first-use order; key ``n``'s
    hashed text ``b"tag:fid:comp:point:level"`` is ``text[n]`` and its flag
    ``nonzero[n]``, stored once per run in flat lists.  ``drawn`` maps
    ``(prime, seed, trial)`` to that trial's scalars of keys ``0, 1, ...``,
    as far as :meth:`draw` has drawn them.  The flag is part of the key (a
    mutated product may give a factor another order than elsewhere), so a
    drawn scalar is the one a fresh hash of its key would give.
    """

    __slots__ = ("number", "text", "nonzero", "drawn")

    def __init__(self) -> None:
        self.number: dict[JetKey, int] = {}
        self.text: list[bytes] = []
        self.nonzero: list[bool] = []
        self.drawn: dict[tuple[int, int, int], list[int]] = {}

    def keep_new(self) -> None:
        """Keep the text and flag of each key numbered since the last call:
        the last ones in ``number``, whose length has grown by their count."""
        new = len(self.number) - len(self.text)
        if new:
            keys = list(itertools.islice(reversed(self.number), new))
            keys.reverse()
            self.text += [f"{t}:{f}:{c}:{p}:{l}".encode() for t, f, c, p, l, _ in keys]
            self.nonzero += [key[5] for key in keys]

    def draw(self, prime: int, seed: int, trial: int) -> list[int]:
        """One trial's scalars, one per numbered key, hashing the keys not
        drawn yet: ``int(SHA-256(b"seed:trial:" + text))`` reduced into
        ``[1, prime)`` for a nonzero key and into ``[0, prime)`` otherwise."""
        vals = self.drawn.setdefault((prime, seed, trial), [])
        done = len(vals)
        if done < len(self.text):
            head, sha256, unit = f"{seed}:{trial}:".encode(), hashlib.sha256, prime - 1
            for text, nonzero in zip(self.text[done:], self.nonzero[done:]):
                v = int.from_bytes(sha256(head + text).digest(), "big")
                vals.append(v % unit + 1 if nonzero else v % prime)
        return vals


def _rank_mod_p(rows: list[dict[int, int]], prime: int) -> int:
    """Gaussian elimination over F_p on sparse rows (dict: column -> value).

    Every entry must already be reduced and nonzero; the rows are consumed.
    """
    pivots: dict[int, dict[int, int]] = {}
    rank = 0
    for row in rows:
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


class OracleColumn:
    """One component's part of the oracle matrix.

    ``threshold`` is the component's pair.  ``cells`` are its entries,
    those of live products only: ``(product, column, pairs)`` is the sum of
    ``vals[a] * vals[b]`` over the flat ``pairs`` ``(a0, b0, a1, b1, ...)``
    of key numbers, where ``vals`` is one trial's scalars drawn from the
    plan's :class:`_Jets` table.  ``column`` is ``(slot * 2 + point) * 2 +
    offset``, numbered within the component; ``top`` is the largest slot of
    a live product.
    """

    __slots__ = ("threshold", "top", "cells")

    def __init__(self, threshold, top, cells) -> None:
        self.threshold: tuple[int, int] = threshold
        self.top = top
        self.cells: list[tuple[int, int, tuple[int, ...]]] = cells

    def form(self, rows, vals: list[int], prime: int, base: int) -> None:
        """Set one trial's nonzero entries in ``rows``, a map from product
        to its row, at matrix column ``base + column``; ``vals`` is that
        trial's scalars."""
        for p, col, pairs in self.cells:
            # the plan leaves out empty convolutions: every cell has a pair
            total = vals[pairs[0]] * vals[pairs[1]]
            if len(pairs) > 2:
                for j in range(2, len(pairs), 2):
                    total += vals[pairs[j]] * vals[pairs[j + 1]]
            total %= prime
            if total:
                rows[p][base + col] = total


@value
class OraclePlan:
    """The seed-independent half of a verdict's oracle matrix: ``count``
    product rows, laid out in one :class:`OracleColumn` per component, whose
    cells number their keys in ``jets``.

    Component ``i``'s column ``c`` is the matrix column ``i * width * 4 +
    c``, so matrix columns are numbered in the sort order of their
    ``(component, slot, point, offset)`` keys; ``width`` is one more than
    the largest slot of a live product.
    """

    count: int
    width: int
    columns: tuple[OracleColumn, ...]
    jets: _Jets


def _plan_column(
    i: int, rows: tuple[ProductRow, ...], factors: tuple[tuple[int, ...], tuple[int, ...]],
    threshold: tuple[int, int], jets: _Jets,
) -> OracleColumn:
    """Plan component ``i``'s column: the death rule and the convolutions of
    :func:`oracle_plan`, for the products whose rows on it are ``rows`` and
    whose factor ids are ``factors`` (every ``factor_a``, every ``factor_b``),
    with its jet keys numbered in ``jets``."""
    factor_a, factor_b = factors
    number = jets.number
    key = number.setdefault
    th_p, th_q = threshold
    cells = []
    top = 0
    for p, prow in enumerate(rows):
        a, b = prow.row_a, prow.row_b
        if (a.exact_p and b.exact_p and a.ord_p + b.ord_p < th_p) or (
            a.exact_q and b.exact_q and a.ord_q + b.ord_q < th_q
        ):
            continue
        fa, fb = factor_a[p], factor_b[p]
        slot = prow.slot
        if slot > top:
            top = slot
        # (slot, point, offset) -> (slot * 2 + point) * 2 + offset
        for col, point, th, ord_a, exact_a, ord_b, exact_b in (
            (slot * 4, "P", th_p, a.ord_p, a.exact_p, b.ord_p, b.exact_p),
            (slot * 4 + 2, "Q", th_q, a.ord_q, a.exact_q, b.ord_q, b.exact_q),
        ):
            for level in (th, th + 1):
                pairs = []
                for la in range(ord_a, level - ord_b + 1):
                    lb = level - la
                    pairs += (
                        key(("A", fa, i, point, la, exact_a and la == ord_a), len(number)),
                        key(("B", fb, i, point, lb, exact_b and lb == ord_b), len(number)),
                    )
                if pairs:
                    cells.append((p, col + level - th, tuple(pairs)))
    jets.keep_new()
    return OracleColumn(threshold, top, cells)


def oracle_plan(
    products: Sequence[ProductSection],
    thresholds: Sequence[tuple[int, int]],
    formed: _Formed | None = None,
    jets: _Jets | None = None,
) -> OraclePlan:
    """Plan the oracle matrix of ``products`` under ``thresholds``, one
    :class:`OracleColumn` per component.

    A product is dead on a component, and has no entries there, when at P or
    at Q both factor rows' orders are exact and their sum is below the
    threshold; inexact orders are lower bounds and never kill.  The rule
    reads the factor rows and is stated apart from
    :func:`ellchain.chain.survives`, which the certificate reads, so a fault
    in one does not reach the other.  On a live component the product has,
    per point and per level threshold and threshold+1, the bilinear
    convolution of its factors' jets: the pairs ``(la, level - la)`` with
    ``la >= ord_a`` and ``level - la >= ord_b``, where an exact order's
    leading jet is nonzero and every other jet a free residue.  A
    convolution with no pairs is left out.  A threshold list that is not one
    pair per component raises ``ValueError``.

    Every jet key holds its component, and a column numbers its entries
    within the component, so each column is planned alone, its keys
    numbered in ``jets`` (a new :class:`_Jets` when None), which the plan
    holds.  When ``products`` is the tuple :func:`product_sections` kept in
    ``formed``, each component's rows are read off its product column, and
    the oracle column planned on it is kept with it (``formed.oracle``) and
    reused exactly when :func:`product_sections` reused the product column
    and the threshold pair is equal: the same rows and factor ids give the
    same keys, hence the same entries.  Kept columns hold key numbers of
    ``jets``, so a caller passes one run's ``formed`` and ``jets`` together.
    Any other tuple is planned in full and keeps nothing.
    """
    _check_thresholds(products, thresholds)
    n = len(products)
    factors = (tuple(map(_factor_a, products)), tuple(map(_factor_b, products)))
    jets = _Jets() if jets is None else jets
    if n and formed is not None and products is formed.products:  # every () is one object
        kept = formed.oracle
        by_component = [column[4] for column in formed.columns]
    else:
        kept = [None] * len(thresholds)
        by_component = list(zip(*map(_rows, products))) if n else [()] * len(thresholds)
    columns = []
    for i, (rows, threshold) in enumerate(zip(by_component, thresholds)):
        threshold = tuple(threshold)
        column = kept[i]
        if column is None or column.threshold != threshold:
            column = kept[i] = _plan_column(i, rows, factors, threshold, jets)
        columns.append(column)
    width = 1 + max((column.top for column in columns), default=0)
    return OraclePlan(n, width, tuple(columns), jets)


def oracle_rank(
    products: Sequence[ProductSection],
    thresholds: Sequence[tuple[int, int]],
    cfg: OracleConfig = OracleConfig(),
    plan: OraclePlan | None = None,
) -> int:
    """Rank of the surviving leading-jet matrix over F_prime; max over trials.

    One row per product; columns are keyed ``(component, slot, point,
    level - threshold)`` and hold, per component and slot, the jets of order
    threshold and threshold+1 at both marked points.  Each factor section's
    jet coefficients are pseudo-random residues keyed by factor id, so
    repeated factors repeat their coefficients, and each product row is the
    bilinear convolution of its factors' jets.  A dead product contributes
    nothing on the component.  The rank can only underestimate the generic
    rank, never exceed the product count.

    ``plan`` is ``oracle_plan(products, thresholds)`` (planned here when
    None), passed in by a caller that ranks the same products under several
    seeds.  Each trial draws the scalars of the plan's table not drawn yet
    (:meth:`_Jets.draw`), so plans numbered in one table hash no scalar
    twice, forms the entries one component column at a time
    (:meth:`OracleColumn.form`) and eliminates.  An entry depends on nothing
    but its key and the trial, so the rank is the same however warm the
    table is.
    """
    prime, seed = cfg.prime, cfg.seed
    if plan is None:
        plan = oracle_plan(products, thresholds)
    step = plan.width * 4  # the matrix columns of one component
    best = 0
    for trial in range(cfg.trials):
        vals = plan.jets.draw(prime, seed, trial)
        rows: list[dict[int, int]] = [{} for _ in range(plan.count)]
        for base, column in zip(range(0, len(plan.columns) * step, step), plan.columns):
            column.form(rows, vals, prime, base)
        best = max(best, _rank_mod_p(rows, prime))
    return best


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Audit:
    name: str
    expected: object
    actual: object

    @property
    def ok(self) -> bool:
        return self.expected == self.actual


@dataclass(frozen=True)
class OracleBlock:
    prime: int
    trials: int
    seeds: tuple[int, ...]
    ranks: tuple[int, ...]
    expected: int

    @property
    def agreed(self) -> bool:
        return all(rank == self.expected for rank in self.ranks)


@dataclass(frozen=True)
class DistributionInfo:
    dprime: tuple[int, ...]
    thresholds: tuple[tuple[int, int], ...]
    quoted_thresholds: tuple[tuple[int, int], ...] | None

    @property
    def matches_quoted(self) -> bool | None:
        if self.quoted_thresholds is None:
            return None
        return self.thresholds == self.quoted_thresholds


@dataclass(frozen=True)
class Verdict:
    kind: str
    params: dict
    case: str | None
    status: str  # proven | not-proven | hypothesis-not-met | vacuous
    # a verdict reached before any product is formed leaves the rest empty
    expected_products: int = 0
    product_count: int = 0
    audits: tuple[Audit, ...] = ()
    distribution: DistributionInfo | None = None
    certificate: Certificate | None = None
    certificate_error: str | None = None
    oracle: OracleBlock | None = None
    stability: StabilityVerdict | None = None
    notes: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return self.status in ("proven", "vacuous")
