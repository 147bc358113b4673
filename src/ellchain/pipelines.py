"""End-to-end builders and verdicts for the two product-map statements.

``petri_*`` builds, on a chain of g elliptic curves, a rank-r degree-d
series with k sections together with the complementary series (canonical
tensor dual), forms all k*kbar products, redistributes degree, and certifies
their independence: a proven verdict bounds the product map's image below by
k*kbar, the Petri-map injectivity statement for these numerical invariants.

``endo_*``/``onto_*`` builds the rank-r degree-d bundle whose restriction is
indecomposable of degree 1 off the last component, decomposes its
endomorphisms into degree-0 line classes, and certifies that canonical
sections times traceless-endomorphism sections span the full target space
(surjectivity of the cup product).

Builders follow fixed numeric templates; every table row they emit is
checked against the exact section calculus, and the elimination engine plus
the rank oracle, not the builder, decide the verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from ellchain.chain import (
    ChainCurve,
    GluingData,
    LimitLinearSeries,
    NodeGluing,
    Redistribution,
    StabilityVerdict,
    ValidationReport,
    canonical_series,
    check_stability,
    elliptic_chain,
    redistribute,
    validate_lls,
)
from ellchain.elliptic import (
    AlgebraError,
    BundleOnComponent,
    Degree0Class,
    IndecomposableSlot,
    LineBundleClass,
    SectionSymbol,
    Slot,
    VanishingTable,
    end_decomposition,
    iter_trivial_slots,
    section_space,
    slot_degree,
    slot_rank,
)
from ellchain.independence import (
    Certificate,
    CertificateFailure,
    OracleConfig,
    ProductSection,
    certify_independence,
    oracle_rank,
    product_sections,
    product_series,
)


class ParamsError(ValueError):
    """Parameter tuple outside the admissible range; message names the check."""


class BuildError(RuntimeError):
    """Internal consistency failure while building a series."""

    def __init__(self, component: int, reason: str):
        super().__init__(f"component {component}: {reason}")
        self.component = component
        self.reason = reason


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------

CASE_A = "d2>=k2,d2>0"
CASE_B = "d2=k2=0"
CASE_C = "d2<k2"


@dataclass(frozen=True)
class PetriParams:
    g: int
    r: int
    d: int
    k: int
    d1: int
    d2: int
    k1: int
    k2: int
    alpha: int  # g + k1 - d1 - 1
    case: str
    bound_lhs: int
    bound_rhs: int

    @property
    def kbar(self) -> int:
        return self.r * self.alpha


def petri_params(g: int, r: int, d: int, k: int) -> PetriParams:
    """Classify and admit a parameter tuple, or raise with the failed check.

    Exactly one case applies; its numeric hypothesis must hold.  The
    construction additionally needs g >= 2, k >= 1, per-slot degree
    d1 >= 1 and alpha >= 0 (a nonnegative complementary dimension).
    """
    if g < 2:
        raise ParamsError(f"need g >= 2, got g = {g}")
    if r < 1:
        raise ParamsError(f"need r >= 1, got r = {r}")
    if k < 1:
        raise ParamsError(f"need k >= 1, got k = {k}")
    d1, d2 = divmod(d, r)
    k1, k2 = divmod(k, r)
    if d1 < 1:
        raise ParamsError(f"need d >= r (slot degree d1 >= 1), got d1 = {d1}")
    alpha = g + k1 - d1 - 1
    if alpha < 0:
        raise ParamsError(f"need g + k1 - d1 - 1 >= 0, got {alpha}")
    if d2 >= k2 and d2 != 0:
        case, lhs, rhs = CASE_A, (k1 + 1) * (g + k1 - d1 - 1), g - 1
    elif d2 == 0 and k2 == 0:
        case, lhs, rhs = CASE_B, k1 * (g + k1 - d1 - 1), g - 2
    else:
        case, lhs, rhs = CASE_C, (k1 + 1) * (g + k1 - d1), g - 1
    if lhs > rhs:
        raise ParamsError(f"case {case}: hypothesis fails, {lhs} > {rhs}")
    return PetriParams(g, r, d, k, d1, d2, k1, k2, alpha, case, lhs, rhs)


@dataclass(frozen=True)
class PoinParams:
    g: int
    r: int
    d: int
    h: int  # gcd(r, d - g + 1)


def poin_params(g: int, r: int, d: int) -> PoinParams:
    if r < 1:
        raise ParamsError(f"need r >= 1, got r = {r}")
    if g < 2:
        raise ParamsError(f"need g >= 2, got g = {g}")
    if not g <= d < g + r:
        raise ParamsError(f"need g <= d < g + r, got d = {d} for g = {g}, r = {r}")
    return PoinParams(g, r, d, math.gcd(r, d - g + 1))


# ---------------------------------------------------------------------------
# the rank-r series and its complementary series
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PetriBuild:
    params: PetriParams
    primary: LimitLinearSeries
    dual: LimitLinearSeries
    blocks: int  # beta: number of structured blocks
    block_width: int  # B: components per block
    special_width: int  # sigma: special slots on block-end components
    structured: int  # N = B * beta
    primary_report: ValidationReport  # validate_lls(primary), checked by the build


def _gen(name: str) -> Degree0Class:
    return Degree0Class.of_generic(name)


def _structured_position(i: int, width: int) -> tuple[int, int]:
    """(block j1, position j2) of structured component i, 1-based position."""
    return (i - 1) // width, (i - 1) % width + 1


def _petri_primary(p: PetriParams, width: int, blocks: int, sigma: int) -> LimitLinearSeries:
    g, r, d1, d2, k1, k2 = p.g, p.r, p.d1, p.d2, p.k1, p.k2
    n_struct = width * blocks
    if n_struct > g - 1:
        raise BuildError(n_struct, f"structured range {n_struct} exceeds g - 1 = {g - 1}")

    bundles: list[BundleOnComponent] = []
    tables: list[VanishingTable] = []
    for i in range(1, g):
        slots: list[Slot] = []
        slot_tables: list[tuple[SectionSymbol, ...]] = []
        if i <= n_struct:
            j1, j2 = _structured_position(i, width)
            u = i - j1 - 2
            special = LineBundleClass(u + j2, d1 - u - j2)
            block_end = k2 > 0 or d2 > 0  # block-end components exist only then
            is_end = block_end and j2 == width
            for c in range(r):
                cls: LineBundleClass
                if is_end and c >= sigma:
                    cls = LineBundleClass(0, d1, _gen(f"P{i}.{c}"))
                else:
                    cls = special
                rows = k1 + 1 if c < k2 else k1
                slots.append(cls)
                slot_tables.append(
                    tuple(row for row in section_space(cls, u, rows, slot=c).rows)
                )
        else:
            u = i - blocks - 1
            for c in range(r):
                cls = LineBundleClass(0, d1, _gen(f"P{i}.{c}"))
                rows = k1 + 1 if c < k2 else k1
                slots.append(cls)
                slot_tables.append(
                    tuple(row for row in section_space(cls, u, rows, slot=c).rows)
                )
        table: list[SectionSymbol] = []
        for m in range(1, k1 + 2):
            for c in range(r):
                if m == k1 + 1 and c >= k2:
                    continue
                if len(slot_tables[c]) < m:
                    raise BuildError(i, f"slot {c} is missing row {m}")
                table.append(slot_tables[c][m - 1])
        bundles.append(BundleOnComponent(tuple(slots)))
        tables.append(VanishingTable(tuple(table)))

    # last component: balanced bundle, sections picked by vanishing level
    h = math.gcd(r, p.d)
    r_sub, d_sub = r // h, p.d // h
    atom_slots: list[Slot] = []
    for j in range(h):
        tw = _gen(f"E{g}.{j}")
        if r_sub == 1:
            atom_slots.append(LineBundleClass(0, d_sub, tw))
        else:
            atom_slots.append(IndecomposableSlot(r_sub, d_sub, tw))
    level_used: dict[int, int] = {}
    last_rows: list[SectionSymbol] = []
    d2_sub = d2 // h if h else 0
    for m in range(1, k1 + 2):
        level = g - blocks - 2 + m
        cols = r if m <= k1 else k2
        for c in range(cols):
            pos = level_used.get(level, 0)
            capacity = d2 if level == p.d1 else (r if level < p.d1 else 0)
            if pos >= capacity:
                raise BuildError(g, f"no section of vanishing order {level} left")
            per_atom = d2_sub if level == p.d1 else r_sub
            atom = pos // per_atom
            level_used[level] = pos + 1
            last_rows.append(SectionSymbol(atom, level, 0, exact_p=True, exact_q=False))
    # reorder into global-id order: rows were emitted m-major already
    bundles.append(BundleOnComponent(tuple(atom_slots)))
    tables.append(VanishingTable(tuple(last_rows)))

    nodes = [
        NodeGluing(tuple((c, c) for c in range(r))) if n + 2 <= n_struct else NodeGluing()
        for n in range(g - 1)
    ]
    distinguished = ()
    if k2 > 0:
        top = tuple(range(k1 * r, k1 * r + k2))
        distinguished = ((g - 2, top),)
    return LimitLinearSeries(
        chain=elliptic_chain(g),
        rank=r,
        degree=p.d,
        dimension=p.k,
        a=d1,
        bundles=tuple(bundles),
        tables=tuple(tables),
        gluing=GluingData(tuple(nodes), distinguished),
    )


def _petri_dual(
    p: PetriParams, primary: LimitLinearSeries, width: int, blocks: int
) -> LimitLinearSeries:
    """The complementary series: canonical tensor the dual of the primary.

    Slot classes are forced (K_i tensor the inverse of each primary slot);
    the k*bar = r*alpha rows are laid out by walking each row left to right,
    advancing its P-order by one per node except directly after a component
    where the row sits at its slot's coincidence.
    """
    g, r = p.g, p.r
    dbar1 = 2 * g - 2 - p.d1
    kbar = p.kbar
    n_struct = width * blocks

    dual_bundles: list[BundleOnComponent] = []
    for i in range(1, g):
        k_i = LineBundleClass(2 * (i - 1), 2 * (g - i))
        dual_bundles.append(
            BundleOnComponent(
                tuple(k_i.tensor(s.inverse()) for s in primary.bundles[i - 1].slots)
            )
        )
    k_g = LineBundleClass(2 * (g - 1), 0)
    last_slots: list[Slot] = []
    for s in primary.bundles[g - 1].slots:
        if isinstance(s, LineBundleClass):
            last_slots.append(k_g.tensor(s.inverse()))
        else:
            last_slots.append(
                IndecomposableSlot(s.rank, s.rank * (2 * g - 2) - s.degree, -s.twist)
            )
    dual_bundles.append(BundleOnComponent(tuple(last_slots)))

    tables: list[list[SectionSymbol | None]] = [[None] * kbar for _ in range(g)]
    required_level: dict[tuple[int, int], int] = {}
    for mbar in range(1, p.alpha + 1):
        for c in range(r):
            sid = (mbar - 1) * r + c
            pi = mbar - 1
            for i in range(1, g):
                cls = dual_bundles[i - 1].slots[c]
                assert isinstance(cls, LineBundleClass)
                abar = cls.special_index()
                in_block = i <= n_struct and _structured_position(i, width)[0] == mbar - 1
                if abar is not None and pi == abar:
                    if not in_block:
                        raise BuildError(i, f"dual row {sid} meets a foreign coincidence")
                    row = SectionSymbol(c, pi, dbar1 - pi)
                else:
                    if abar is not None and pi == abar - 1:
                        raise BuildError(i, f"dual row {sid} hits a merged order")
                    row = SectionSymbol(c, pi, dbar1 - 1 - pi)
                tables[i - 1][sid] = row
                pi = dbar1 - row.ord_q
            required_level[(mbar, c)] = pi

    # fit the last component: levels must fit the balanced bundle's jumps
    d_last = r * (2 * g - 2) - p.d
    h = math.gcd(r, p.d)
    r_sub = r // h
    delta1, delta2 = divmod(d_last, r) if r else (0, 0)
    level_used: dict[int, int] = {}
    order = sorted(required_level, key=lambda mc: (required_level[mc], mc))
    for mbar, c in order:
        level = required_level[(mbar, c)]
        pos = level_used.get(level, 0)
        capacity = delta2 if level == delta1 else (r if level < delta1 else 0)
        if pos >= capacity:
            raise BuildError(g, f"no dual section of vanishing order {level} left")
        per_atom = (delta2 // h) if level == delta1 else r_sub
        atom = pos // per_atom
        level_used[level] = pos + 1
        sid = (mbar - 1) * r + c
        tables[g - 1][sid] = SectionSymbol(atom, level, 0, exact_p=True, exact_q=False)

    final_tables = tuple(
        VanishingTable(tuple(row for row in t if row is not None)) for t in tables
    )
    if any(t.dimension != kbar for t in final_tables):
        raise BuildError(0, "dual table has missing rows")
    return LimitLinearSeries(
        chain=primary.chain,
        rank=r,
        degree=r * (2 * g - 2) - p.d,
        dimension=kbar,
        a=dbar1,
        bundles=tuple(dual_bundles),
        tables=final_tables,
        gluing=primary.gluing,
    )


def petri_build(p: PetriParams) -> PetriBuild:
    """Construct the rank-r series and its complementary series.

    The chain splits into ``beta`` structured blocks of ``B`` components
    (B = k1 + 1, or k1 when d and k are both multiples of r; beta = alpha,
    plus one catch-up block when k2 > d2), then plain generic components,
    then the balanced last component.  Block-end components carry
    sigma = max(d2, k2) slots of the block's distinguished class and
    generic slots after that.
    """
    width = p.k1 if (p.k2 == 0 and p.d2 == 0) else p.k1 + 1
    blocks = p.alpha + (1 if p.k2 > p.d2 else 0)
    sigma = max(p.d2, p.k2)
    if width == 0 and blocks > 0:
        raise ParamsError("degenerate template: k < r with no block structure")
    primary = _petri_primary(p, width, blocks, sigma)
    report = validate_lls(primary)
    if not report.ok:
        raise BuildError(0, f"primary series invalid: {report}")
    if p.alpha == 0:
        dual = LimitLinearSeries(
            chain=primary.chain,
            rank=p.r,
            degree=p.r * (2 * p.g - 2) - p.d,
            dimension=0,
            a=2 * p.g - 2 - p.d1,
            bundles=_petri_dual_bundles_only(p, primary),
            tables=tuple(VanishingTable(()) for _ in range(p.g)),
            gluing=primary.gluing,
        )
    else:
        dual = _petri_dual(p, primary, width, blocks)
    return PetriBuild(p, primary, dual, blocks, width, sigma, width * blocks, report)


def _petri_dual_bundles_only(
    p: PetriParams, primary: LimitLinearSeries
) -> tuple[BundleOnComponent, ...]:
    out: list[BundleOnComponent] = []
    for i in range(1, p.g + 1):
        k_i = LineBundleClass(2 * (i - 1), 2 * (p.g - i))
        slots: list[Slot] = []
        for s in primary.bundles[i - 1].slots:
            if isinstance(s, LineBundleClass):
                slots.append(k_i.tensor(s.inverse()))
            else:
                slots.append(
                    IndecomposableSlot(s.rank, s.rank * (2 * p.g - 2) - s.degree, -s.twist)
                )
        out.append(BundleOnComponent(tuple(slots)))
    return tuple(out)


# ---------------------------------------------------------------------------
# validation helpers and verdicts
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
    expected_products: int
    product_count: int
    audits: tuple[Audit, ...]
    distribution: DistributionInfo | None
    certificate: Certificate | None
    certificate_error: str | None
    oracle: OracleBlock | None
    stability: StabilityVerdict | None
    notes: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return self.status in ("proven", "vacuous")


PROVEN = "proven"
NOT_PROVEN = "not-proven"
HYPOTHESIS_NOT_MET = "hypothesis-not-met"
VACUOUS = "vacuous"


def _validate_dual(series: LimitLinearSeries) -> ValidationReport:
    """Dual-series validation: condition (3) in its evaluation form.

    The complementary series keeps the degree bookkeeping and node
    inequalities of a limit linear series, but on the last component its
    degree sits below a*r whenever d is not a multiple of r, so only the
    upper bound d_i < (a+1)*r (sections of the a-fold twist injective on
    fibers, vacuously so for negative twist degree) is required of it.
    """
    base = validate_lls(series)
    if base.structural_errors or base.condition_determined:
        return base
    ok3 = all(
        b.degree < (series.a + 1) * series.rank for b in series.bundles
    )
    failures = tuple(f for f in base.failures if "outside" not in f)
    return ValidationReport(
        base.structural_errors,
        base.condition_degree,
        base.condition_nodes,
        ok3,
        failures,
    )


def _run_oracle(
    products: Sequence[ProductSection],
    redist: Redistribution,
    prime: int,
    seed: int,
    trials: int,
    seeds: int = 3,
) -> OracleBlock:
    seed_list = tuple(seed + i for i in range(max(seeds, 1)))
    ranks = tuple(
        oracle_rank(products, redist, OracleConfig(prime=prime, seed=s, trials=trials))
        for s in seed_list
    )
    return OracleBlock(prime, trials, seed_list, ranks, len(products))


def petri_quoted_thresholds(g: int) -> tuple[tuple[int, int], ...]:
    """The survivor thresholds as quoted for the product redistribution."""
    out = []
    for i in range(1, g + 1):
        th_p = 2 * i - 3 if i >= 2 else 0
        th_q = 2 * g - 2 * i - 1 if i <= g - 1 else 0
        out.append((th_p, th_q))
    return tuple(out)


def _petri_destabilizing(primary: LimitLinearSeries) -> list[tuple[int, ...]]:
    """Every slot has the bundle's slope, so each is a destabilizing sub-slot."""
    return [tuple(range(len(b.slots))) for b in primary.bundles]


def petri_certificate(
    g: int,
    r: int,
    d: int,
    k: int,
    prime: int = 0,
    seed: int = 0,
    trials: int = 1,
) -> Verdict:
    """Build, redistribute, certify and cross-check the k * kbar products."""
    from ellchain.independence import DEFAULT_PRIME

    prime = prime or DEFAULT_PRIME
    params_dict = {"g": g, "r": r, "d": d, "k": k}
    try:
        p = petri_params(g, r, d, k)
    except ParamsError as exc:
        return Verdict(
            "petri", params_dict, None, HYPOTHESIS_NOT_MET, 0, 0, (), None, None,
            str(exc), None, None, (),
        )
    notes: list[str] = []
    try:
        build = petri_build(p)
    except (BuildError, AlgebraError) as exc:
        return Verdict(
            "petri", params_dict, p.case, NOT_PROVEN, p.k * p.kbar, 0, (), None, None,
            f"build failed: {exc}", None, None, (),
        )
    primary, dual = build.primary, build.dual

    products = product_sections(primary, dual)
    prod_series = product_series(primary, dual, products)
    rho = r * r
    dprime = tuple(
        rho if i in (1, g) else 2 * rho for i in range(1, g + 1)
    )
    redist = redistribute(prod_series, dprime)
    quoted = petri_quoted_thresholds(g)

    outcome = certify_independence(products, redist)
    certificate = outcome if isinstance(outcome, Certificate) else None
    cert_error = None if certificate else outcome.reason

    oracle = _run_oracle(products, redist, prime, seed, trials)
    stability = check_stability(
        primary.bundles, primary.gluing, _petri_destabilizing(primary)
    )

    notes.append(f"series built with a = {p.d1} (primary) and a = {2 * g - 2 - p.d1} (dual)")
    dual_h0 = p.kbar + p.k2 - p.d2  # ambient dimension of the complementary space
    if p.k2 != p.d2:
        notes.append(
            f"complementary space has ambient dimension {dual_h0}; the built series"
            f" tracks kbar = {p.kbar} rows"
        )
    if p.kbar == 0:
        notes.append("vacuous: complementary series is empty, zero products certified")

    audits = (
        Audit("primary-series-valid", True, build.primary_report.ok),
        Audit("product-series-valid", True, validate_lls(prod_series).ok),
        Audit("dual-series-valid", True, _validate_dual(dual).ok),
        Audit("dual-dimension", p.kbar, dual.dimension),
        Audit("product-count", p.k * p.kbar, len(products)),
        Audit("distribution-total", rho * (2 * g - 2), sum(dprime)),
        Audit("quoted-thresholds", quoted, redist.thresholds),
        Audit("image-bound-within-ambient", True, p.k * p.kbar <= rho * (g - 1)),
        Audit("stability", "stable-by-criterion", stability.verdict),
    )
    certified = certificate is not None and certificate.eliminated == len(products)
    status = PROVEN if (
        certified and all(a.ok for a in audits) and oracle.agreed
    ) else NOT_PROVEN
    return Verdict(
        kind="petri",
        params=params_dict,
        case=p.case,
        status=status,
        expected_products=p.k * p.kbar,
        product_count=len(products),
        audits=audits,
        distribution=DistributionInfo(dprime, redist.thresholds, quoted),
        certificate=certificate,
        certificate_error=cert_error,
        oracle=oracle,
        stability=stability,
        notes=tuple(notes),
    )


# ---------------------------------------------------------------------------
# endomorphism pipeline
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EndoBuild:
    params: PoinParams
    e0_bundles: tuple[BundleOnComponent, ...]
    end_bundles: tuple[BundleOnComponent, ...]  # full Hom(E0, E0) per component
    hom_gluing: GluingData  # identity sub-line-bundle matched at every node
    endo_series: LimitLinearSeries  # canonical (x) traceless endomorphisms
    trivial_counts: tuple[int, ...]  # trivial summands of Hom per component


def endo_build(p: PoinParams) -> EndoBuild:
    """The degree-d bundle with indecomposable degree-1 aspects, and its
    canonical-times-traceless-endomorphisms series.

    Off the last component the bundle is one indecomposable slot of rank r,
    degree 1; the last component carries h = gcd(r, d-g+1) generically
    twisted slots of rank r/h, degree (d-g+1)/h.  Hom(E0, E0) splits into
    degree-0 line classes with one trivial summand per component off the
    end and h on it; dropping one trivial summand leaves the rank r^2 - 1
    traceless part, whose canonical twist carries r^2 - 1 sections for each
    of the g - 1 vanishing windows.
    """
    g, r, d, h = p.g, p.r, p.d, p.h
    e0: list[BundleOnComponent] = []
    for i in range(1, g):
        e0.append(BundleOnComponent((IndecomposableSlot(r, 1),)))
    r_sub, d_sub = r // h, (d - g + 1) // h
    last: list[Slot] = []
    for j in range(h):
        tw = _gen(f"L{j + 1}")
        last.append(
            LineBundleClass(0, d_sub, tw) if r_sub == 1 else IndecomposableSlot(r_sub, d_sub, tw)
        )
    e0.append(BundleOnComponent(tuple(last)))

    ends = tuple(end_decomposition(b) for b in e0)
    trivial_counts = tuple(sum(1 for _ in iter_trivial_slots(e)) for e in ends)
    hom_gluing = GluingData(tuple(NodeGluing(((0, 0),)) for _ in range(g - 1)))

    rho = r * r - 1
    bundles: list[BundleOnComponent] = []
    tables: list[VanishingTable] = []
    for i in range(1, g + 1):
        k_i = LineBundleClass(2 * (i - 1), 2 * (g - i))
        # drop the identity summand (slot 0 of the Hom decomposition)
        tr0 = ends[i - 1].slots[1:]
        if len(tr0) != rho:
            raise BuildError(i, f"traceless part has {len(tr0)} slots, wanted {rho}")
        slots = tuple(
            k_i.tensor(LineBundleClass(0, 0, s.twist)) for s in tr0
        )
        rows: list[SectionSymbol] = []
        for s_index, cls in enumerate(slots):
            rows.extend(section_space(cls, i - 1, g - 1, slot=s_index).rows)
        bundles.append(BundleOnComponent(slots))
        tables.append(VanishingTable(tuple(rows)))
    series = LimitLinearSeries(
        chain=elliptic_chain(g),
        rank=rho,
        degree=(2 * g - 2) * rho,
        dimension=rho * (g - 1),
        a=2 * g - 2,
        bundles=tuple(bundles),
        tables=tuple(tables),
        gluing=GluingData(tuple(NodeGluing() for _ in range(g - 1))),
    )
    return EndoBuild(p, tuple(e0), ends, hom_gluing, series, trivial_counts)


def endo_h0(build: EndoBuild) -> int:
    """Global limit sections of Hom(E0, E0): chains of trivial summands.

    Nontrivial degree-0 classes have no sections, so a global section lives
    on trivial summands matched across every node; the identity chain is the
    only matched one.
    """
    reachable = {
        s for s in iter_trivial_slots(build.end_bundles[0])
    }
    for n, node in enumerate(build.hom_gluing.nodes):
        if node.matched is None:
            reachable = set()
            break
        trivial_next = set(iter_trivial_slots(build.end_bundles[n + 1]))
        reachable = {
            right for (left, right) in node.matched
            if left in reachable and right in trivial_next
        }
    return len(reachable)


def colsec_pairs(g: int, rho: int) -> tuple[tuple[int, int], ...]:
    """The product list: 3 windows per early canonical section, then the tail.

    For each traceless slot s: sections 1..g-3 of the canonical series pair
    with windows l, l+1, l+2; the last three canonical sections each pair
    with windows g-2 and g-1.  Ids are 0-based: canonical section l is l-1,
    window j of slot s is s*(g-1) + (j-1).
    """
    if g < 4:
        raise ParamsError(f"product list needs g >= 4, got {g}")
    pairs: list[tuple[int, int]] = []
    for s in range(rho):
        for l in range(1, g - 3 + 1):
            for j in (l, l + 1, l + 2):
                pairs.append((l - 1, s * (g - 1) + (j - 1)))
        for l in (g - 2, g - 1, g):
            for j in (g - 2, g - 1):
                pairs.append((l - 1, s * (g - 1) + (j - 1)))
    return tuple(pairs)


def onto_certificate(
    g: int,
    r: int,
    d: int,
    prime: int = 0,
    seed: int = 0,
    trials: int = 1,
) -> Verdict:
    """Certify surjectivity of canonical x traceless-endomorphism products."""
    from ellchain.independence import DEFAULT_PRIME

    prime = prime or DEFAULT_PRIME
    params_dict = {"g": g, "r": r, "d": d}
    try:
        p = poin_params(g, r, d)
        if g < 4:
            raise ParamsError(f"the product list needs g >= 4, got {g}")
    except ParamsError as exc:
        return Verdict(
            "endo-onto", params_dict, None, HYPOTHESIS_NOT_MET, 0, 0, (), None, None,
            str(exc), None, None, (),
        )
    if r == 1:
        return Verdict(
            "endo-onto", params_dict, None, VACUOUS, 0, 0, (), None, None, None, None,
            None, ("rank 1: traceless part has rank 0, nothing to prove",),
        )
    build = endo_build(p)
    rho = r * r - 1
    canonical = canonical_series(g)
    pairs = colsec_pairs(g, rho)
    products = product_sections(canonical, build.endo_series, pairs)
    prod_series = product_series(canonical, build.endo_series, products)
    dprime = tuple(
        3 * rho if i in (1, g - 2, g - 1, g) else 4 * rho for i in range(1, g + 1)
    )
    redist = redistribute(prod_series, dprime)
    outcome = certify_independence(products, redist)
    certificate = outcome if isinstance(outcome, Certificate) else None
    cert_error = None if certificate else outcome.reason
    oracle = _run_oracle(products, redist, prime, seed, trials)

    target_dim = rho * (3 * g - 3)  # degree + rank*(1 - g) on the squared twist
    h0_hom = endo_h0(build)
    audits = (
        Audit("endo-series-valid", True, validate_lls(build.endo_series).ok),
        Audit("product-series-valid", True, validate_lls(prod_series).ok),
        Audit("hom-h0", 1, h0_hom),
        Audit("table-dimension", rho * (g - 1), build.endo_series.dimension),
        Audit("trivial-summands-last", p.h, build.trivial_counts[-1]),
        Audit("distribution-total", rho * (4 * g - 4), sum(dprime)),
        Audit("target-dimension", target_dim, len(products)),
    )
    certified = certificate is not None and certificate.eliminated == len(products)
    status = PROVEN if (
        certified and all(a.ok for a in audits) and oracle.agreed
    ) else NOT_PROVEN
    notes = (
        "last-component canonical classes recomputed from the canonical series:"
        " O(2(g-1)P); h-1 traceless windows there gain one vanishing order",
    )
    return Verdict(
        kind="endo-onto",
        params=params_dict,
        case=None,
        status=status,
        expected_products=target_dim,
        product_count=len(products),
        audits=audits,
        distribution=DistributionInfo(dprime, redist.thresholds, None),
        certificate=certificate,
        certificate_error=cert_error,
        oracle=oracle,
        stability=None,
        notes=notes,
    )
