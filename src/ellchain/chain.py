"""Chains of elliptic curves and limit linear series on them.

A chain glues Q_i on component i to P_{i+1} on component i+1; marked points
are generic, so each elliptic component carries the symbolic class algebra of
:mod:`ellchain.elliptic`.  A limit linear series is per-component bundle and
vanishing-table data together with node gluing, a section pairing across each
node, and one positive integer ``a``; its three defining conditions are
checked by :func:`validate_lls`:

  (1)  sum(d_i) - r*(M-1)*a = d,
  (2)  paired rows satisfy ord_Q + ord_P >= a at every node,
  (3)  a*r <= d_i < (a+1)*r on every elliptic component (the arithmetic
       form: twisting by a*P or a*Q leaves sections determined by their
       value at the point).

Degree redistribution twists the series by node-supported divisors, moving
degree between components while keeping residues mod r, and filters each
table down to the rows that survive the new vanishing thresholds.  The
thresholds themselves depend on the component degrees alone
(:func:`spread`).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Collection, Sequence

from ellchain.elliptic import (
    AlgebraError,
    BundleOnComponent,
    IndecomposableSlot,
    LineBundleClass,
    SectionSymbol,
    Slot,
    VanishingTable,
    section_space,
)

ELLIPTIC = "elliptic"


@dataclass(frozen=True)
class ChainCurve:
    """Components in order; Q_i is glued to P_{i+1} for i = 1..M-1.

    Every component is an elliptic curve, so the genus is the component count.
    """

    kinds: tuple[str, ...]

    def __post_init__(self) -> None:
        bad = [k for k in self.kinds if k != ELLIPTIC]
        if bad:
            raise AlgebraError(f"unknown component kinds {bad}")

    @property
    def components(self) -> int:
        return len(self.kinds)


def elliptic_chain(g: int) -> ChainCurve:
    if g < 1:
        raise AlgebraError("need at least one component")
    return ChainCurve(tuple([ELLIPTIC] * g))


@dataclass(frozen=True)
class NodeGluing:
    """Gluing of projectivized fibers at one node.

    ``matched`` is either None (generic gluing) or a tuple of slot-index
    pairs (left slot at Q_i, right slot at P_{i+1}); matched slots must have
    equal rank.
    """

    matched: tuple[tuple[int, int], ...] | None = None


@dataclass(frozen=True)
class GluingData:
    """Per-node gluing plus optional distinguished-subspace matchings.

    ``distinguished`` records, per node, section rows whose spans are matched
    beyond the slot-level data (used at the last node of the rank-r series
    constructions); entries are (node index, tuple of section ids), with
    node indices in [0, M-1) and ids below the series dimension.
    """

    nodes: tuple[NodeGluing, ...]
    distinguished: tuple[tuple[int, tuple[int, ...]], ...] = ()


def generic_gluing(m: int) -> GluingData:
    return GluingData(tuple(NodeGluing() for _ in range(m - 1)))


def matched_paths(gluing: GluingData, allowed: Sequence[Collection[int]]) -> set[int]:
    """Last-component ends of the paths of allowed slots matched at every node.

    A path starts at an allowed slot of the first component and crosses each
    node along a matched pair into an allowed slot; a generic node ends every
    path.  ``allowed`` holds one slot collection per component.
    """
    reachable = set(allowed[0])
    for n, node in enumerate(gluing.nodes):
        if node.matched is None:
            return set()
        reachable = {r for l, r in node.matched if l in reachable and r in allowed[n + 1]}
    return reachable


@dataclass(frozen=True)
class LimitLinearSeries:
    """Per-component bundles and k-dimensional vanishing tables on a chain.

    Table rows are indexed by global section id: row t of every component is
    the aspect of section t, and ``pairings`` (default: identity) records
    which row of V_i pairs with which row of V_{i+1} at each node.
    """

    chain: ChainCurve
    rank: int
    degree: int
    dimension: int
    a: int
    bundles: tuple[BundleOnComponent, ...]
    tables: tuple[VanishingTable, ...]
    gluing: GluingData
    pairings: tuple[tuple[tuple[int, int], ...], ...] | None = None

    @property
    def component_degrees(self) -> tuple[int, ...]:
        return tuple(b.degree for b in self.bundles)


@dataclass(frozen=True)
class Conditions:
    """Conditions (1)-(3) of a limit linear series, in that order."""

    degree: bool
    nodes: bool
    determined: bool


@dataclass(frozen=True)
class ValidationReport:
    structural_errors: tuple[str, ...]
    conditions: Conditions
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        c = self.conditions
        return not self.structural_errors and c.degree and c.nodes and c.determined


def _row_class_conflict(
    slot: Slot, degree: int, special: int | None, row: SectionSymbol
) -> str | None:
    """A stated row that no section of the slot's class can realize.

    ``degree`` and ``special`` are the slot's degree and special index, read
    once per slot by the caller.  For a line slot of degree d the order sum
    is at most d, with equality only for the class O(ord_p*P + ord_q*Q)
    itself; an exact sum of d - 1 is impossible at the two indices merged by
    a coincidence.  For indecomposable slots the exact P-order cannot exceed
    the slope.
    """
    if isinstance(slot, LineBundleClass):
        total = row.ord_p + row.ord_q
        if total > degree:
            return f"order sum {total} exceeds slot degree {degree}"
        if total == degree and special != row.ord_p:
            return f"order sum {total} = degree in a class not of that shape"
        if total == degree - 1 and row.exact_p and row.exact_q:
            if special is not None and special in (row.ord_p, row.ord_p + 1):
                return f"exact orders ({row.ord_p}, {row.ord_q}) claim a merged section"
    else:
        if row.exact_p and slot.rank * row.ord_p > degree:
            return f"P-order {row.ord_p} exceeds the slope bound"
    return None


def validate_lls(series: LimitLinearSeries) -> ValidationReport:
    """Check the three series conditions; structural defects are reported apart.

    Every row is judged against its slot's class, but a row within its slot's
    bound skips :func:`_row_class_conflict`, which only refutes rows past it.
    The bound is read once per slot: an order sum of at most d - 1 on a line
    slot of degree d without a special index (the rule's cases need a sum of
    at least d there), at most d - 2 on one with a special index (its cases
    need at least d - 1), and on an indecomposable slot of rank r an inexact
    P-order or an exact one of at most d // r (then r * ord_p <= d, while the
    rule needs r * ord_p > d).
    """
    structural: list[str] = []
    failures: list[str] = []
    m = series.chain.components
    if len(series.bundles) != m or len(series.tables) != m:
        structural.append(
            f"chain has {m} components but {len(series.bundles)} bundles"
            f" / {len(series.tables)} tables"
        )
        return ValidationReport(tuple(structural), Conditions(False, False, False), ())
    rank, a = series.rank, series.a
    if rank < 1:
        structural.append(f"series rank {rank} is below 1")
    degrees: list[int] = []
    for i, (bundle, table) in enumerate(zip(series.bundles, series.tables)):
        if bundle.rank != rank:
            structural.append(f"component {i + 1}: rank {bundle.rank} != {rank}")
        if table.dimension != series.dimension:
            structural.append(
                f"component {i + 1}: table dimension {table.dimension} != {series.dimension}"
            )
        facts: list[tuple[Slot, int, int | None]] = []
        bounds: list[tuple[bool, int]] = []  # (is a line slot, its bound)
        for s in bundle.slots:
            d = s.degree
            if isinstance(s, LineBundleClass):
                special = s.special_index()
                bounds.append((True, d - 1 if special is None else d - 2))
            else:
                special = None
                bounds.append((False, d // s.rank))
            facts.append((s, d, special))
        degrees.append(sum(d for _, d, _ in facts))
        for row in table.rows:
            slot = row.slot
            if not 0 <= slot < len(facts):
                structural.append(f"component {i + 1}: row in missing slot {slot}")
                continue
            line, bound = bounds[slot]
            if line:
                if row.ord_p + row.ord_q <= bound:
                    continue
            elif not row.exact_p or row.ord_p <= bound:
                continue
            conflict = _row_class_conflict(*facts[slot], row)
            if conflict:
                structural.append(f"component {i + 1}, slot {slot}: {conflict}")
    if len(series.gluing.nodes) != m - 1:
        structural.append(f"{len(series.gluing.nodes)} gluing nodes for {m} components")
    else:
        for n, node in enumerate(series.gluing.nodes):
            if node.matched is None:
                continue
            lslots, rslots = series.bundles[n].slots, series.bundles[n + 1].slots
            for left, right in node.matched:
                if not (0 <= left < len(lslots) and 0 <= right < len(rslots)):
                    structural.append(f"node {n + 1}: matched slot out of range")
                    continue
                rl, rr = lslots[left].rank, rslots[right].rank
                if rl != rr:
                    structural.append(f"node {n + 1}: matched slots of ranks {rl} != {rr}")
    for node, ids in series.gluing.distinguished:
        if not 0 <= node < m - 1:
            structural.append(f"distinguished entry at missing node index {node}")
        elif any(not 0 <= t < series.dimension for t in ids):
            structural.append(f"node {node + 1}: distinguished section id out of range")
    if series.pairings is not None and len(series.pairings) != m - 1:
        structural.append("pairings do not cover every node")
    elif series.pairings is not None:
        for n, pairs in enumerate(series.pairings):
            if any(not 0 <= t < series.dimension for pair in pairs for t in pair):
                structural.append(f"node {n + 1}: paired row out of range")
    if structural:
        return ValidationReport(tuple(structural), Conditions(False, False, False), ())

    lhs = sum(degrees) - rank * (m - 1) * a
    cond1 = lhs == series.degree
    if not cond1:
        failures.append(f"degree bookkeeping: {lhs} != {series.degree}")

    cond2 = True
    for n in range(m - 1):
        left, right = series.tables[n].rows, series.tables[n + 1].rows
        if series.pairings is None:  # identity: row t meets row t
            short = [
                (t, t, got) for t, (rl, rr) in enumerate(zip(left, right))
                if (got := rl.ord_q + rr.ord_p) < a
            ]
        else:
            short = [
                (tl, tr, got) for tl, tr in series.pairings[n]
                if (got := left[tl].ord_q + right[tr].ord_p) < a
            ]
        for tl, tr, got in short:
            cond2 = False
            failures.append(
                f"node {n + 1}: rows ({tl}, {tr}) have order sum {got} < a = {a}"
            )

    cond3 = True
    low, high = a * rank, (a + 1) * rank
    for i, d_i in enumerate(degrees):
        if not low <= d_i < high:
            cond3 = False
            failures.append(f"component {i + 1}: degree {d_i} outside [{low}, {high})")
    return ValidationReport((), Conditions(cond1, cond2, cond3), tuple(failures))


@dataclass(frozen=True)
class Rank1Report:
    crude: bool
    refined: bool


def validate_rank1(series: LimitLinearSeries) -> Rank1Report:
    """Node vanishing-sequence inequalities for a rank-1 series.

    At each node the sorted Q-orders a_1 <= .. <= a_k on the left and sorted
    P-orders b_1 <= .. <= b_k on the right must satisfy a_j + b_{k-j+1} >= d;
    the series is refined when every inequality is an equality.
    """
    if series.rank != 1:
        raise AlgebraError("validate_rank1 needs a rank-1 series")
    crude = refined = True
    k, d = series.dimension, series.degree
    for n in range(series.chain.components - 1):
        q_orders = sorted(row.ord_q for row in series.tables[n].rows)
        p_orders = sorted(row.ord_p for row in series.tables[n + 1].rows)
        for j in range(k):
            total = q_orders[j] + p_orders[k - 1 - j]
            if total < d:
                crude = False
            if total != d:
                refined = False
    return Rank1Report(crude, crude and refined)


# ---------------------------------------------------------------------------
# canonical series
# ---------------------------------------------------------------------------


def canonical_series(g: int) -> LimitLinearSeries:
    """The canonical limit linear series on a chain of g elliptic curves.

    Component i carries O(2(i-1)*P + 2(g-i)*Q) with the g-dimensional table
    whose P-orders run i-2, .., 2i-4, then 2i-2, .., g+i-2 (leading run empty
    for i = 1) and whose row i is the distinguished section of orders
    (2(i-1), 2(g-i)).
    """
    if g < 2:
        raise AlgebraError(f"canonical series needs genus >= 2, got {g}")
    bundles: list[BundleOnComponent] = []
    tables: list[VanishingTable] = []
    for i in range(1, g + 1):
        cls = LineBundleClass(2 * (i - 1), 2 * (g - i))
        bundles.append(BundleOnComponent((cls,)))
        tables.append(section_space(cls, i - 2, g))
    return LimitLinearSeries(
        chain=elliptic_chain(g),
        rank=1,
        degree=2 * g - 2,
        dimension=g,
        a=2 * g - 2,
        bundles=tuple(bundles),
        tables=tuple(tables),
        gluing=generic_gluing(g),
    )


# ---------------------------------------------------------------------------
# degree redistribution
# ---------------------------------------------------------------------------


def survives(threshold: tuple[int, int], row: SectionSymbol) -> bool:
    """Whether a row clears one component's (P, Q) vanishing thresholds.

    The row's orders are stated on the un-twisted series.  Exact orders below
    a threshold mean the section dies on the component; inexact orders are
    lower bounds, so they can only certify survival, never death.
    """
    th_p, th_q = threshold
    return not ((row.exact_p and row.ord_p < th_p) or (row.exact_q and row.ord_q < th_q))


@dataclass(frozen=True)
class Redistribution:
    """A series re-expressed with target component degrees d'_i.

    ``a_parts`` are the node-twist parts applied to the series so far; every
    state a re-target returns has d'_i = a_i * r + (d_i mod r).  The
    vanishing thresholds on component i are (sum of a_j for j < i, sum for
    j > i).  ``tables`` hold the surviving rows with thresholds subtracted,
    ``survivors`` their original row ids.  :meth:`redistribute` twists
    relative to this state, so re-applying the same targets is the identity.
    """

    dprime: tuple[int, ...]
    a_parts: tuple[int, ...]
    thresholds: tuple[tuple[int, int], ...]
    bundles: tuple[BundleOnComponent, ...]
    tables: tuple[VanishingTable, ...]
    survivors: tuple[tuple[int, ...], ...]
    total_degree: int
    rank: int

    @property
    def empty_components(self) -> tuple[int, ...]:
        return tuple(i + 1 for i, t in enumerate(self.tables) if t.dimension == 0)

    def redistribute(self, dprime: Sequence[int]) -> "Redistribution":
        """Re-target: twist this state by the difference of the a-parts.

        Targets must keep the total degree and each d'_i mod r (:func:`spread`).
        """
        dprime = tuple(dprime)
        a_parts, thresholds = spread(self.dprime, dprime, self.rank, self.total_degree)
        # this state's rows are stated on its twisted series, which the rest of
        # the twist meets with the relative thresholds
        relative = _thresholds([new - old for new, old in zip(a_parts, self.a_parts)])
        bundles: list[BundleOnComponent] = []
        tables: list[VanishingTable] = []
        survivors: list[tuple[int, ...]] = []
        for i, (th_p, th_q) in enumerate(relative):
            bundle = self.bundles[i].twisted(th_p, th_q)
            if bundle.degree != dprime[i]:
                raise AlgebraError(
                    f"component {i + 1}: twisted degree {bundle.degree} != target {dprime[i]}"
                )
            kept_rows: list[SectionSymbol] = []
            kept_ids: list[int] = []
            for t, row in zip(self.survivors[i], self.tables[i].rows):
                if survives(relative[i], row):
                    kept_rows.append(row.shifted(th_p, th_q))
                    kept_ids.append(t)
            bundles.append(bundle)
            tables.append(VanishingTable(tuple(kept_rows)))
            survivors.append(tuple(kept_ids))
        return Redistribution(
            dprime, a_parts, thresholds, tuple(bundles), tuple(tables),
            tuple(survivors), self.total_degree, self.rank,
        )


def _thresholds(parts: Sequence[int]) -> tuple[tuple[int, int], ...]:
    prefix = list(accumulate(parts, initial=0))
    return tuple((prefix[i], prefix[-1] - prefix[i + 1]) for i in range(len(parts)))


def spread(
    degrees: Sequence[int], dprime: Sequence[int], rank: int, total: int
) -> tuple[tuple[int, ...], tuple[tuple[int, int], ...]]:
    """The a-parts and (P, Q) thresholds of spreading ``degrees`` to ``dprime``.

    The spread rule, read from the degrees alone: targets must number one per
    component, sum to ``total`` and keep each degree mod ``rank``; then
    d'_i = a_i*rank + (d_i mod rank), and component i's thresholds are the
    sums of the a-parts before it and after it.  A verdict needs only these
    thresholds, so it calls this without twisting a series.
    """
    if len(dprime) != len(degrees):
        raise AlgebraError("one target degree per component required")
    if sum(dprime) != total:
        raise AlgebraError(f"target degrees sum to {sum(dprime)}, need {total}")
    for i, (dp, cur) in enumerate(zip(dprime, degrees)):
        if (dp - cur) % rank:
            raise AlgebraError(
                f"component {i + 1}: target {dp} not congruent to {cur} mod {rank}"
            )
    a_parts = tuple((dp - cur % rank) // rank for dp, cur in zip(dprime, degrees))
    return a_parts, _thresholds(a_parts)


def redistribute(series: LimitLinearSeries, dprime: Sequence[int]) -> Redistribution:
    """Move degree between components, keeping residues mod r.

    Targets must satisfy sum(d'_i) = d and d'_i = d_i mod r.  Writing
    d'_i = a_i*r + (d_i mod r), component i is twisted by
    O(-(sum_{j<i} a_j)*P_i - (sum_{j>i} a_j)*Q_i) and its table keeps exactly
    the rows meeting both thresholds, with the thresholds subtracted from the
    surviving orders.  An empty surviving table is legal (all sections die on
    that component) and is reported by ``empty_components``.  This is the
    re-target of the series' untwisted state, in which every row survives.
    """
    m = len(series.bundles)
    if len(series.tables) != m:
        raise AlgebraError(f"series has {m} bundles but {len(series.tables)} tables")
    if series.rank < 1:
        raise AlgebraError(f"series rank {series.rank} is below 1")
    untwisted = Redistribution(
        dprime=series.component_degrees,
        a_parts=(0,) * m,
        thresholds=((0, 0),) * m,
        bundles=series.bundles,
        tables=series.tables,
        survivors=tuple(range(t.dimension) for t in series.tables),
        total_degree=series.degree,
        rank=series.rank,
    )
    return untwisted.redistribute(dprime)


# ---------------------------------------------------------------------------
# stability of glued bundles (sufficient criterion)
# ---------------------------------------------------------------------------

STABLE_BY_CRITERION = "stable-by-criterion"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class StabilityVerdict:
    verdict: str
    reason: str


def _component_is_stable(bundle: BundleOnComponent) -> bool:
    # a single indecomposable slot with coprime rank and degree
    if len(bundle.slots) != 1:
        return False
    slot = bundle.slots[0]
    return isinstance(slot, IndecomposableSlot) and slot.gcd == 1


def check_stability(
    bundles: Sequence[BundleOnComponent],
    gluing: GluingData,
    destabilizing: Sequence[Sequence[int]],
) -> StabilityVerdict:
    """Sufficient stability check for a bundle glued along the chain.

    Stable if some component bundle is stable outright; if instead every
    component is strictly semistable, stable provided the declared
    destabilizing sub-slots never glue with each other all the way across
    the chain, i.e. no chain-spanning path of declared slots is matched at
    every node (a single generic node breaks every path).  Anything else is
    inconclusive: the criterion is sufficient only.
    """
    if len(destabilizing) != len(bundles):
        raise AlgebraError("one destabilizing-slot list per component required")
    if any(_component_is_stable(b) for b in bundles):
        return StabilityVerdict(STABLE_BY_CRITERION, "a component bundle is stable")
    if matched_paths(gluing, destabilizing):
        return StabilityVerdict(
            INCONCLUSIVE, "declared destabilizing sub-slots glue across every node"
        )
    return StabilityVerdict(
        STABLE_BY_CRITERION,
        "all components strictly semistable and no destabilizing sub-slots glue",
    )
