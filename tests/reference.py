"""Reference calculus the tests check the package against.

Nothing under ``src/`` uses these: they restate, by a second route, what the
package computes, so a test can compare the two.

* ``section_basis`` lists the distinguished sections s_0 .. s_{d-1} of a line
  class, the basis every ``section_space`` table must sit inside;
  ``per_slot_orders_distinct`` is the within-slot independence check of a
  table.
* ``class_difference`` / ``class_isomorphic`` compare two line classes, and
  ``h0_slot`` / ``h0_component`` count global sections by Riemann-Roch; a
  degree-0 slot is trivial exactly when ``h0_slot`` is 1.
* ``is_standard_filling`` checks a tableau cell by cell,
  ``rectangle_syt_count`` counts standard fillings of a rectangle by hook
  lengths, and ``fillings_by_columns`` lists strict fillings by trying every
  increasing column against every prefix, without pruning.
* ``validate_every_row`` is the series validator that asks the class rule
  (``chain._row_class_conflict``) about every row, with no per-slot bound in
  front of it; ``chain.validate_lls`` must return exactly its report.
  ``validate_in_passes`` is the bounded validator as it read each bundle in
  three passes (``bundle.rank``, a loop over the slots' facts and a sum of
  their degrees); ``chain.validate_lls`` reads each slot once and must
  return its report too, message for message.
* ``coeff`` is the oracle's jet scalar hashed from its key string alone;
  every scalar the oracle draws must equal it.
* ``assert_same_text`` asserts two texts are equal and, when they are not,
  reports where they first differ without diffing them whole.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from itertools import combinations

from ellchain.chain import (
    Conditions,
    LimitLinearSeries,
    ValidationReport,
    _row_class_conflict,
)
from ellchain.elliptic import (
    AlgebraError,
    BundleOnComponent,
    Degree0Class,
    LineBundleClass,
    SectionSymbol,
    Slot,
    VanishingTable,
)
from ellchain.tableaux import Tableau


@dataclass(frozen=True)
class SectionBasis:
    """The sections s_0 .. s_{d-1} of a degree-d line class.

    ``sections[k]`` vanishes to order k at P and d-k-1 at Q, except around a
    coincidence index: when the class is O(c*P + (d-c)*Q) the entries at
    c-1 and c are one and the same section, of orders (c, d-c).  At the
    boundary values c = 0 and c = d no pair is merged; the edge entry is
    promoted to order sum d instead.
    """

    sections: tuple[SectionSymbol, ...]
    coincidence: int | None

    @property
    def distinct_rows(self) -> tuple[SectionSymbol, ...]:
        out: list[SectionSymbol] = []
        for s in self.sections:
            if not out or out[-1] != s:
                out.append(s)
        return tuple(out)


def section_basis(l: LineBundleClass, slot: int = 0) -> SectionBasis:
    """The distinguished sections s_0 .. s_{d-1} of a degree-d class.

    s_k is the unique section vanishing to order at least k at P and at
    least d-k-1 at Q; both orders are exact unless the class is special,
    in which case the two entries adjacent to the coincidence index merge
    into the single section of order sum d.
    """
    d = l.degree
    if d < 1:
        raise AlgebraError(f"section_basis needs degree >= 1, got {d}")
    c = l.special_index()
    rows: list[SectionSymbol] = []
    for k in range(d):
        if c is not None and k in (c - 1, c):
            rows.append(SectionSymbol(slot, c, d - c))
        else:
            rows.append(SectionSymbol(slot, k, d - k - 1))
    return SectionBasis(tuple(rows), c)


def per_slot_orders_distinct(table: VanishingTable) -> bool:
    """Distinct exact P-orders within each slot (independence within a slot)."""
    seen: set[tuple[int, int]] = set()
    for row in table.rows:
        key = (row.slot, row.ord_p)
        if row.exact_p and key in seen:
            return False
        seen.add(key)
    return True


def class_difference(l1: LineBundleClass, l2: LineBundleClass) -> Degree0Class:
    """The degree-0 class of l1 (x) l2^{-1}; requires equal degrees."""
    if l1.degree != l2.degree:
        raise AlgebraError("class_difference needs classes of equal degree")
    return Degree0Class.of_pq(l1.a - l2.a) + l1.twist - l2.twist


def class_isomorphic(l1: LineBundleClass, l2: LineBundleClass) -> bool:
    """Equal degree and trivial difference class, under the genericity axioms."""
    return l1.degree == l2.degree and class_difference(l1, l2).is_trivial


def h0_slot(slot: Slot) -> int:
    d = slot.degree
    if d > 0:
        return d
    if d < 0:
        return 0
    if isinstance(slot, LineBundleClass):
        return 1 if class_isomorphic(slot, LineBundleClass(0, 0)) else 0
    # degree-0 indecomposable: the self-extension tower of O has a unique
    # section; any nontrivial twist of it has none
    return 1 if slot.twist.is_trivial else 0


def h0_component(e: BundleOnComponent) -> int:
    """Global sections on one elliptic component, slot by slot (Riemann-Roch)."""
    return sum(h0_slot(s) for s in e.slots)


def is_standard_filling(t: Tableau, g: int) -> bool:
    """Distinct entries from 1..g, strictly increasing rows and columns."""
    flat = [v for row in t.cells for v in row]
    if len(set(flat)) != len(flat) or any(not 1 <= v <= g for v in flat):
        return False
    for row in t.cells:
        if any(row[j] >= row[j + 1] for j in range(len(row) - 1)):
            return False
    for i in range(len(t.cells) - 1):
        if any(t.cells[i][j] >= t.cells[i + 1][j] for j in range(len(t.cells[i]))):
            return False
    return True


def rectangle_syt_count(nrows: int, ncols: int) -> int:
    """Standard Young tableaux of an nrows x ncols rectangle, by hook lengths."""
    n = nrows * ncols
    if n == 0:
        return 1
    hooks = 1
    for i in range(nrows):
        for j in range(ncols):
            hooks *= (nrows - i) + (ncols - j) - 1
    return math.factorial(n) // hooks


def fillings_by_columns(g: int, nrows: int, ncols: int) -> list[tuple[tuple[int, ...], ...]]:
    """Strict fillings of an nrows x ncols rectangle from {1..g}, row-major,
    in lexicographic order of their columns."""
    out: list[tuple[tuple[int, ...], ...]] = []

    def grow(prefix: list[tuple[int, ...]], used: set[int]) -> None:
        if len(prefix) == ncols:
            out.append(tuple(tuple(col[i] for col in prefix) for i in range(nrows)))
            return
        prev = prefix[-1] if prefix else (0,) * nrows
        for col in combinations(range(1, g + 1), nrows):
            if used.isdisjoint(col) and all(col[i] > prev[i] for i in range(nrows)):
                grow(prefix + [col], used | set(col))

    if ncols == 0:
        return [()]
    grow([], set())
    return out


def validate_every_row(series: LimitLinearSeries) -> ValidationReport:
    """The three series conditions and structural defects, as
    ``chain.validate_lls`` reports them, with the class rule asked per row."""
    structural: list[str] = []
    failures: list[str] = []
    m = series.chain.components
    if len(series.bundles) != m or len(series.tables) != m:
        structural.append(
            f"chain has {m} components but {len(series.bundles)} bundles"
            f" / {len(series.tables)} tables"
        )
        return ValidationReport(tuple(structural), Conditions(False, False, False), ())
    if series.rank < 1:
        structural.append(f"series rank {series.rank} is below 1")
    for i, (bundle, table) in enumerate(zip(series.bundles, series.tables)):
        if bundle.rank != series.rank:
            structural.append(f"component {i + 1}: rank {bundle.rank} != {series.rank}")
        if table.dimension != series.dimension:
            structural.append(
                f"component {i + 1}: table dimension {table.dimension} != {series.dimension}"
            )
        facts = [
            (s, s.degree, s.special_index() if isinstance(s, LineBundleClass) else None)
            for s in bundle.slots
        ]
        for row in table.rows:
            if not 0 <= row.slot < len(facts):
                structural.append(f"component {i + 1}: row in missing slot {row.slot}")
                continue
            conflict = _row_class_conflict(*facts[row.slot], row)
            if conflict:
                structural.append(f"component {i + 1}, slot {row.slot}: {conflict}")
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

    lhs = sum(series.component_degrees) - series.rank * (m - 1) * series.a
    cond1 = lhs == series.degree
    if not cond1:
        failures.append(f"degree bookkeeping: {lhs} != {series.degree}")

    cond2 = True
    for n in range(m - 1):
        left, right = series.tables[n].rows, series.tables[n + 1].rows
        if series.pairings is None:  # identity: row t meets row t
            short = [
                (t, t, got) for t, (rl, rr) in enumerate(zip(left, right))
                if (got := rl.ord_q + rr.ord_p) < series.a
            ]
        else:
            short = [
                (tl, tr, got) for tl, tr in series.pairings[n]
                if (got := left[tl].ord_q + right[tr].ord_p) < series.a
            ]
        for tl, tr, got in short:
            cond2 = False
            failures.append(
                f"node {n + 1}: rows ({tl}, {tr}) have order sum {got} < a = {series.a}"
            )

    cond3 = True
    for i, bundle in enumerate(series.bundles):
        d_i = bundle.degree
        if not series.a * series.rank <= d_i < (series.a + 1) * series.rank:
            cond3 = False
            failures.append(
                f"component {i + 1}: degree {d_i} outside"
                f" [{series.a * series.rank}, {(series.a + 1) * series.rank})"
            )
    return ValidationReport((), Conditions(cond1, cond2, cond3), tuple(failures))


def validate_in_passes(series: LimitLinearSeries) -> ValidationReport:
    """``chain.validate_lls`` as it read each bundle in three passes."""
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


def coeff(prime: int, seed: int, trial: int, key: str, nonzero: bool) -> int:
    """The scalar of jet ``key`` (``"tag:fid:comp:point:level"``) in trial
    ``trial`` of ``seed``: SHA-256 of ``"seed:trial:key"`` as a big-endian
    integer, in ``[1, prime)`` when ``nonzero`` and in ``[0, prime)`` else."""
    digest = hashlib.sha256(f"{seed}:{trial}:{key}".encode()).digest()
    value = int.from_bytes(digest, "big")
    return value % (prime - 1) + 1 if nonzero else value % prime


def assert_same_text(got: str, want: str) -> None:
    """Raise ``AssertionError`` unless ``got == want``, naming both lengths,
    the first differing offset and about 80 characters around it.

    A plain ``assert got == want`` on two endo verdict texts (about 275 kB
    at g = 20) has pytest diff them line by line, which takes tens of
    seconds; this reports at once.
    """
    if got == want:
        return
    at = next(
        (i for i, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want))
    )
    start = max(at - 40, 0)
    raise AssertionError(
        f"texts differ: lengths {len(got)} and {len(want)}, first at offset {at}\n"
        f"  got:  {got[start:at + 40]!r}\n"
        f"  want: {want[start:at + 40]!r}"
    )
