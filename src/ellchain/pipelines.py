"""End-to-end builders and verdicts for the two product-map statements.

One method serves both statements, and each is its data: a parameter check,
a builder, the a-parts of its degree spread, its audits and notes.

``petri_*`` builds, on a chain of g elliptic curves, a rank-r degree-d
series with k sections together with the complementary series (canonical
tensor dual), forms all k*kbar products, spreads their degree over the chain,
and certifies their independence: a proven verdict bounds the product map's
image below by k*kbar, the Petri-map injectivity statement for these
numerical invariants.

``endo_*``/``onto_*`` builds the rank-r degree-d bundle whose restriction is
indecomposable of degree 1 off the last component, decomposes its
endomorphisms into degree-0 line classes, and certifies that canonical
sections times traceless-endomorphism sections span the full target space
(surjectivity of the cup product).

Builders follow fixed numeric templates; every table row they emit is
checked against the exact section calculus, and the elimination engine plus
the rank oracle, not the builder, decide the verdict.  ``petri_instance`` and
``endo_instance`` turn a build into its products and a draft: the statement's
``not-proven`` :class:`Verdict` with every build fact filled in (the
thresholds, audits, notes, and a ``certificate_error`` when the thresholds
are off their closed form).  One body, :func:`_certify`, takes either
statement from its parameters to its verdict through :func:`decide`; an
endo run decides each h = gcd(r, d - g + 1) class once (:func:`_decided`).

A verdict reads one (P, Q) vanishing threshold pair per component: the prefix
sums of the a-parts (d'_i - (d_i mod r)) // r of the product series' degrees,
from :func:`~ellchain.chain.spread`, with d' the product rank times the
statement's a-parts; thresholds off their closed form
(:func:`quoted_thresholds`) settle it not-proven uncertified.  No series is
twisted on the way; :func:`~ellchain.chain.redistribute` serves only
``ellchain redistribute`` and the tests, which check that its thresholds agree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Sequence

from ellchain.chain import (
    GluingData,
    LimitLinearSeries,
    NodeGluing,
    StabilityVerdict,
    ValidationReport,
    canonical_series,
    check_stability,
    elliptic_chain,
    generic_gluing,
    matched_paths,
    redistribute,  # not called here: the benchmark binds it as its chain.redistribute layer
    spread,
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
    memo,
    section_space,
)
from ellchain.independence import (
    DEFAULT_PRIME,
    Certificate,
    OracleConfig,
    ProductSection,
    certify_independence,
    oracle_plan,
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

    @property
    def expected(self) -> int:
        """The product count k * kbar."""
        return self.k * self.kbar


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
    h: int  # gcd(r, d - g + 1): with g and r, the class whose verdict _decided keeps
    case = None  # one case only; not a field

    @property
    def expected(self) -> int:
        """The product count, the target space's dimension rho * (3g - 3),
        rho = r^2 - 1: degree + rank*(1 - g) on the squared twist."""
        return (self.r * self.r - 1) * (3 * self.g - 3)


def poin_params(g: int, r: int, d: int) -> PoinParams:
    if r < 1:
        raise ParamsError(f"need r >= 1, got r = {r}")
    if g < 2:
        raise ParamsError(f"need g >= 2, got g = {g}")
    if not g <= d < g + r:
        raise ParamsError(f"need g <= d < g + r, got d = {d} for g = {g}, r = {r}")
    if g < 4:
        raise ParamsError(f"the product list needs g >= 4, got {g}")
    return PoinParams(g, r, d, math.gcd(r, d - g + 1))


# ---------------------------------------------------------------------------
# the rank-r series and its complementary series
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PetriBuild:
    params: PetriParams
    primary: LimitLinearSeries
    dual: LimitLinearSeries
    primary_report: ValidationReport  # validate_lls(primary), checked by the build


def _structured_position(i: int, width: int) -> tuple[int, int]:
    """(block j1, position j2) of structured component i, 1-based position."""
    return (i - 1) // width, (i - 1) % width + 1


def _balanced(r: int, degree: int, twist: Callable[[int], str]) -> BundleOnComponent:
    """The balanced last component: h = gcd(r, degree) slots of rank r/h and
    degree degree/h, slot j generically twisted by ``twist(j)``; a line class
    when r/h = 1, an atom otherwise."""
    h = math.gcd(r, degree)
    r_sub, d_sub = r // h, degree // h
    return BundleOnComponent(tuple(
        LineBundleClass(0, d_sub, tw) if r_sub == 1 else IndecomposableSlot(r_sub, d_sub, tw)
        for tw in (Degree0Class.of_generic(twist(j)) for j in range(h))
    ))


def _fit_last(
    g: int, last: BundleOnComponent, levels: Iterable[int], what: str
) -> tuple[SectionSymbol, ...]:
    """One row per P-order in ``levels`` on the balanced last component.

    ``last`` is h equal atoms of total rank r.  With degree = top*r + extra
    it has r sections of each order below ``top`` and ``extra`` of order
    ``top``, handed out atom by atom.
    """
    h, r = len(last.slots), last.rank
    top, extra = divmod(last.degree, r)
    used: dict[int, int] = {}
    rows = []
    for level in levels:
        pos = used.get(level, 0)
        capacity = extra if level == top else (r if level < top else 0)
        if pos >= capacity:
            raise BuildError(g, f"no {what} of vanishing order {level} left")
        used[level] = pos + 1
        per_atom = extra // h if level == top else r // h
        rows.append(SectionSymbol(pos // per_atom, level, 0, exact_p=True, exact_q=False))
    return tuple(rows)


def _petri_primary(p: PetriParams, width: int, blocks: int, sigma: int) -> LimitLinearSeries:
    g, r, d1, d2, k1, k2 = p.g, p.r, p.d1, p.d2, p.k1, p.k2
    n_struct = width * blocks
    if n_struct > g - 1:
        raise BuildError(n_struct, f"structured range {n_struct} exceeds g - 1 = {g - 1}")

    bundles: list[BundleOnComponent] = []
    tables: list[VanishingTable] = []
    for i in range(1, g):
        slots: list[Slot] = []
        windows: list[tuple[SectionSymbol, ...]] = []
        if i <= n_struct:
            j1, j2 = _structured_position(i, width)
            u = i - j1 - 2
            special = LineBundleClass(u + j2, d1 - u - j2)
            block_end = k2 > 0 or d2 > 0  # block-end components exist only then
            generic_from = sigma if block_end and j2 == width else r
        else:
            u = i - blocks - 1
            generic_from = 0  # every slot generic, so no special class is needed
        for c in range(r):
            cls = (LineBundleClass(0, d1, Degree0Class.of_generic(f"P{i}.{c}"))
                   if c >= generic_from else special)
            slots.append(cls)
            windows.append(section_space(cls, u, k1 + 1 if c < k2 else k1, slot=c).rows)
        bundles.append(BundleOnComponent(tuple(slots)))
        # level by level: row m of every slot whose window reaches it
        tables.append(VanishingTable(tuple(
            rows[m] for m in range(k1 + 1) for rows in windows if m < len(rows)
        )))

    # last component: balanced bundle, sections picked by vanishing level
    levels = (g - blocks - 2 + m for m in range(1, k1 + 2) for _ in range(r if m <= k1 else k2))
    bundles.append(_balanced(r, p.d, lambda j: f"E{g}.{j}"))
    tables.append(VanishingTable(_fit_last(g, bundles[-1], levels, "section")))

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


def _dual_bundles(p: PetriParams, primary: LimitLinearSeries) -> tuple[BundleOnComponent, ...]:
    """K_i tensor the dual of each primary slot, K_i = O(2(i-1)P + 2(g-i)Q).

    On the last component K_g = O(2(g-1)P); an indecomposable slot of rank
    r' and degree e dualizes to rank r', degree r'(2g-2) - e, negated twist.
    """
    out: list[BundleOnComponent] = []
    for i, bundle in enumerate(primary.bundles, start=1):
        k_i = LineBundleClass(2 * (i - 1), 2 * (p.g - i))
        out.append(BundleOnComponent(tuple(
            k_i.tensor(s.inverse()) if isinstance(s, LineBundleClass)
            else IndecomposableSlot(s.rank, s.rank * (2 * p.g - 2) - s.degree, -s.twist)
            for s in bundle.slots
        )))
    return tuple(out)


def _petri_dual(
    p: PetriParams, primary: LimitLinearSeries, width: int, blocks: int
) -> LimitLinearSeries:
    """The complementary series: canonical tensor the dual of the primary.

    Slot classes are forced (K_i tensor the inverse of each primary slot);
    the k*bar = r*alpha rows are laid out by walking each row left to right,
    advancing its P-order by one per node except directly after a component
    where the row sits at its slot's coincidence.  With alpha = 0 every table
    is empty.  The node gluing is the primary's; its distinguished entry
    names primary rows, so the dual has none.
    """
    g, r = p.g, p.r
    dbar1 = 2 * g - 2 - p.d1
    n_struct = width * blocks
    dual_bundles = _dual_bundles(p, primary)

    # rows are appended in section-id order (mbar - 1) * r + c
    tables: list[list[SectionSymbol]] = [[] for _ in range(g - 1)]
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
                tables[i - 1].append(row)
                pi = dbar1 - row.ord_q
            required_level[(mbar, c)] = pi

    # the last component hands out its rows by level, then places them by (mbar, c)
    order = sorted(required_level, key=lambda mc: (required_level[mc], mc))
    last_rows = _fit_last(
        g, dual_bundles[-1], (required_level[mc] for mc in order), "dual section"
    )
    placed = dict(zip(order, last_rows))
    tables.append([placed[mc] for mc in required_level])
    return LimitLinearSeries(
        chain=primary.chain,
        rank=r,
        degree=r * (2 * g - 2) - p.d,
        dimension=p.kbar,
        a=dbar1,
        bundles=dual_bundles,
        tables=tuple(VanishingTable(tuple(t)) for t in tables),
        gluing=GluingData(primary.gluing.nodes),
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
    primary = _petri_primary(p, width, blocks, sigma)
    report = validate_lls(primary)
    if not report.ok:
        raise BuildError(0, f"primary series invalid: {report}")
    return PetriBuild(p, primary, _petri_dual(p, primary, width, blocks), report)


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


PROVEN = "proven"
NOT_PROVEN = "not-proven"
HYPOTHESIS_NOT_MET = "hypothesis-not-met"
VACUOUS = "vacuous"


def decide(
    products: tuple[ProductSection, ...], draft: Verdict, prime: int, seed: int, trials: int
) -> Verdict:
    """Certify, cross-check with the oracle on seeds seed..seed+2, and settle
    ``draft``, a not-proven verdict carrying the build's facts.

    The products are judged against ``draft.distribution.thresholds`` alone.
    Proven needs every product eliminated, every audit passed and every
    oracle rank equal to the product count; the draft's other fields are
    kept as they are.  The oracle's matrix is planned once
    (:func:`~ellchain.independence.oracle_plan`) and the plan passed to all
    three seeds, whose jet scalars stay in the memo tables until
    :func:`~ellchain.elliptic.clear_memos` empties them.
    """
    thresholds = draft.distribution.thresholds
    outcome = certify_independence(products, thresholds)
    certificate = outcome if isinstance(outcome, Certificate) else None
    seeds = (seed, seed + 1, seed + 2)
    plan = oracle_plan(products, thresholds)
    ranks = tuple(
        oracle_rank(products, thresholds, OracleConfig(prime=prime, seed=s, trials=trials), plan)
        for s in seeds
    )
    oracle = OracleBlock(prime, trials, seeds, ranks, len(products))
    certified = certificate is not None and certificate.eliminated == len(products)
    status = PROVEN if (
        certified and all(a.ok for a in draft.audits) and oracle.agreed
    ) else NOT_PROVEN
    return replace(
        draft,
        status=status,
        product_count=len(products),
        certificate=certificate,
        certificate_error=None if certificate else outcome.reason,
        oracle=oracle,
    )


@memo
def _decided() -> dict[tuple[int, ...], Verdict]:
    """The endo verdicts of a run, one per class with another d: keyed by
    the integers (g, r, h, prime, seed, trials), each the verdict of the
    class's first admitted d.  A memo table keeps it, so
    :func:`~ellchain.elliptic.clear_memos` empties it with the run."""
    return {}


def _certify(
    kind: str, params: dict, admit: Callable, build: Callable, instance: Callable,
    prime: int, seed: int, trials: int,
) -> Verdict:
    """The verdict path of both statements: ``admit`` the params, ``build``,
    form the products and the draft (``instance``), and :func:`decide` it.

    A :class:`ParamsError` gives hypothesis-not-met, rank 1 a vacuous endo
    verdict and a build failure a not-proven one; a draft whose thresholds
    are not the closed form's is settled as it is, uncertified.  The entry
    points pass the builders the module binds when they are called.

    End E depends on d only through h = gcd(r, d - g + 1) (Atiyah), and so
    does every field of an admitted endo verdict but its params.  So a run
    decides each (g, r, h) class at its first admitted d, keeps that verdict
    in :func:`_decided`, and hands every d of the class a copy with its own
    params; a hypothesis-not-met verdict, which names d, is never shared.
    The class has phi(r/h) members in the window [g, g + r), so a verdict
    is kept only when r/h > 2: the class of h = r or h = r/2 has no other
    d, and its verdict is returned as it was settled.
    """
    try:
        p = admit(**params)
    except ParamsError as exc:
        return Verdict(kind, params, None, HYPOTHESIS_NOT_MET, certificate_error=str(exc))
    if kind == "petri" or p.r <= 2 * p.h:  # no other d reads the verdict
        return _settle(kind, params, p, build, instance, prime, seed, trials)
    decided = _decided()
    key = (p.g, p.r, p.h, prime, seed, trials)
    if key not in decided:
        decided[key] = _settle(kind, params, p, build, instance, prime, seed, trials)
    return replace(decided[key], params=params)  # never the stored object itself


def _settle(
    kind: str, params: dict, p: PetriParams | PoinParams, build: Callable, instance: Callable,
    prime: int, seed: int, trials: int,
) -> Verdict:
    """The admitted ``p``'s verdict: the rest of :func:`_certify`."""
    if kind == "endo-onto" and p.r == 1:
        notes = ("rank 1: traceless part has rank 0, nothing to prove",)
        return Verdict(kind, params, None, VACUOUS, notes=notes)
    try:
        built = build(p)
    except (BuildError, AlgebraError) as exc:
        return Verdict(
            kind, params, p.case, NOT_PROVEN, p.expected, certificate_error=f"build failed: {exc}"
        )
    products, draft = instance(built)
    if draft.certificate_error is not None:  # the thresholds are not the closed form's
        return draft
    return decide(products, draft, prime, seed, trials)


def _dual_valid(series: LimitLinearSeries) -> bool:
    """Dual-series validity: condition (3) in its evaluation form.

    The complementary series keeps the degree bookkeeping and node
    inequalities of a limit linear series, but on the last component its
    degree sits below a*r whenever d is not a multiple of r, so only the
    upper bound d_i < (a+1)*r (sections of the a-fold twist injective on
    fibers, vacuously so for negative twist degree) is required of it.
    """
    report = validate_lls(series)
    return (
        not report.structural_errors
        and report.conditions.degree
        and report.conditions.nodes
        and all(b.degree < (series.a + 1) * series.rank for b in series.bundles)
    )


def quoted_thresholds(parts: Sequence[int]) -> tuple[tuple[int, int], ...]:
    """The survivor thresholds in closed form: component i's P-threshold sums
    the a-parts before it, its Q-threshold those after it."""
    total, before, out = sum(parts), 0, []
    for part in parts:
        out.append((before, total - before - part))
        before += part
    return tuple(out)


def petri_parts(g: int) -> tuple[int, ...]:
    """The a-parts of the petri products: 1 on the end components, 2 elsewhere."""
    return tuple(1 if i in (1, g) else 2 for i in range(1, g + 1))


def endo_parts(g: int) -> tuple[int, ...]:
    """The a-parts of the endo products: 3 on components 1, g-2, g-1 and g,
    4 elsewhere."""
    return tuple(3 if i in (1, g - 2, g - 1, g) else 4 for i in range(1, g + 1))


def _threshold_error(
    thresholds: tuple[tuple[int, int], ...], quoted: tuple[tuple[int, int], ...]
) -> str | None:
    """Why ``thresholds`` are not the ``quoted`` ones, naming the component."""
    if len(thresholds) != len(quoted):
        return f"{len(thresholds)} threshold pairs for {len(quoted)} components"
    for i, (got, want) in enumerate(zip(thresholds, quoted), start=1):
        if min(got) < 0:
            return f"component {i}: negative threshold in {got}"
        if got != want:
            return f"component {i}: thresholds {got}, closed form {want}"
    return None


def _spread_products(
    a: LimitLinearSeries, b: LimitLinearSeries, pairs: Sequence | None, parts: tuple[int, ...]
) -> tuple[tuple[ProductSection, ...], LimitLinearSeries, DistributionInfo, str | None]:
    """The products of ``a`` and ``b`` for ``pairs`` (all when None), their
    series, its :func:`~ellchain.chain.spread` to dprime = rank * ``parts``
    with the closed form, and why the thresholds are not that (or None)."""
    products = product_sections(a, b, pairs)
    series = product_series(a, b, products)
    dprime = tuple(series.rank * part for part in parts)
    _, thresholds = spread(series.component_degrees, dprime, series.rank, series.degree)
    quoted = quoted_thresholds(parts)
    info = DistributionInfo(dprime, thresholds, quoted)
    return products, series, info, _threshold_error(thresholds, quoted)


def petri_instance(build: PetriBuild) -> tuple[tuple[ProductSection, ...], Verdict]:
    """The k * kbar products of the two series, spread r^2 on the end
    components and 2r^2 on the others, and the petri draft for :func:`decide`."""
    p, primary, dual = build.params, build.primary, build.dual
    g, r, rho = p.g, p.r, p.r * p.r
    products, prod_series, dist, error = _spread_products(primary, dual, None, petri_parts(g))
    # every slot has the bundle's slope, so each is a destabilizing sub-slot
    stability = check_stability(
        primary.bundles, primary.gluing, [tuple(range(len(b.slots))) for b in primary.bundles]
    )

    notes = [f"series built with a = {p.d1} (primary) and a = {2 * g - 2 - p.d1} (dual)"]
    if p.k2 != p.d2:
        dual_h0 = p.kbar + p.k2 - p.d2  # ambient dimension of the complementary space
        notes.append(
            f"complementary space has ambient dimension {dual_h0}; the built series"
            f" tracks kbar = {p.kbar} rows"
        )
    if p.kbar == 0:
        notes.append("vacuous: complementary series is empty, zero products certified")

    audits = (
        Audit("primary-series-valid", True, build.primary_report.ok),
        Audit("product-series-valid", True, validate_lls(prod_series).ok),
        Audit("dual-series-valid", True, _dual_valid(dual)),
        Audit("dual-dimension", p.kbar, dual.dimension),
        Audit("product-count", p.expected, len(products)),
        Audit("distribution-total", rho * (2 * g - 2), sum(dist.dprime)),
        Audit("quoted-thresholds", dist.quoted_thresholds, dist.thresholds),
        Audit("image-bound-within-ambient", True, p.expected <= rho * (g - 1)),
        Audit("stability", "stable-by-criterion", stability.verdict),
    )
    return products, Verdict(
        "petri", {"g": g, "r": r, "d": p.d, "k": p.k}, p.case, NOT_PROVEN, p.expected,
        len(products), audits, dist, certificate_error=error, stability=stability,
        notes=tuple(notes),
    )


def petri_certificate(
    g: int, r: int, d: int, k: int, prime: int = DEFAULT_PRIME, seed: int = 0, trials: int = 1
) -> Verdict:
    """Build, certify and cross-check the k * kbar products."""
    params = {"g": g, "r": r, "d": d, "k": k}
    return _certify("petri", params, petri_params, petri_build, petri_instance, prime, seed, trials)


# ---------------------------------------------------------------------------
# endomorphism pipeline
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EndoBuild:
    params: PoinParams
    trivial: tuple[frozenset[int], ...]  # trivial summands of Hom(E0, E0) per component
    endo_series: LimitLinearSeries  # canonical (x) traceless endomorphisms


def _traceless(
    g: int, i: int, ends: BundleOnComponent, rho: int
) -> tuple[BundleOnComponent, VanishingTable]:
    """Component i's canonical twist of the rank ``rho`` traceless part of
    ``ends``, the Hom decomposition there, and its g - 1 vanishing windows
    per slot."""
    k_i = LineBundleClass(2 * (i - 1), 2 * (g - i))
    # drop the identity summand (slot 0 of the Hom decomposition)
    tr0 = ends.slots[1:]
    if len(tr0) != rho:
        raise BuildError(i, f"traceless part has {len(tr0)} slots, wanted {rho}")
    slots = tuple(k_i.tensor(LineBundleClass(0, 0, s.twist)) for s in tr0)
    rows: list[SectionSymbol] = []
    for s_index, cls in enumerate(slots):
        rows.extend(section_space(cls, i - 1, g - 1, slot=s_index).rows)
    return BundleOnComponent(slots), VanishingTable(tuple(rows))


@dataclass(frozen=True)
class _EndoRun:
    """The half of every endo verdict of a (g, r) run that d does not touch."""

    bundles: tuple[BundleOnComponent, ...]  # components 1..g-1 of the endo series
    tables: tuple[VanishingTable, ...]
    trivial: frozenset[int]  # the trivial summands of Hom(E0, E0) off the last component
    canonical: LimitLinearSeries
    pairs: tuple[tuple[int, int], ...]  # colsec_pairs(g, r^2 - 1)


@memo
def _endo_run(g: int, r: int) -> _EndoRun:
    """Components 1..g-1 of every endo build of the (g, r) run, and the
    canonical series and product list of its products.

    Off the last component the bundle is one indecomposable slot of rank r
    and degree 1 whatever d is, so its Hom decomposition is taken once.
    A memo table keeps the run, so every verdict of it gets these very
    objects and :func:`~ellchain.independence.product_sections` reuses its
    columns off the last component.  Only the first d of each h class
    builds at all: the later ones are served from :func:`_decided`, the
    run's table of class verdicts keyed by (g, r, h, prime, seed, trials).
    """
    rho = r * r - 1
    ends = end_decomposition(BundleOnComponent((IndecomposableSlot(r, 1),)))
    built = [_traceless(g, i, ends, rho) for i in range(1, g)]
    return _EndoRun(
        tuple(b for b, _ in built),
        tuple(t for _, t in built),
        frozenset(iter_trivial_slots(ends)),
        canonical_series(g),
        colsec_pairs(g, rho),
    )


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

    Only the last component depends on d, and its Hom decomposition only
    through h.  Components 1..g-1 come from the run's memo table
    (:func:`_endo_run`), built by the run's first verdict and shared as
    the same objects by the others; this call builds the last component's
    bundle, Hom decomposition and windows.  :func:`_certify` calls it once
    per (g, r, h) class of a run, at the class's first admitted d, and
    keeps that verdict in :func:`_decided` for the class's other d.
    """
    g, r = p.g, p.r
    run = _endo_run(g, r)
    ends = end_decomposition(_balanced(r, p.d - g + 1, lambda j: f"L{j + 1}"))
    rho = r * r - 1
    bundle, table = _traceless(g, g, ends, rho)
    series = LimitLinearSeries(
        chain=elliptic_chain(g),
        rank=rho,
        degree=(2 * g - 2) * rho,
        dimension=rho * (g - 1),
        a=2 * g - 2,
        bundles=run.bundles + (bundle,),
        tables=run.tables + (table,),
        gluing=generic_gluing(g),
    )
    trivial = (run.trivial,) * (g - 1) + (frozenset(iter_trivial_slots(ends)),)
    return EndoBuild(p, trivial, series)


def endo_h0(build: EndoBuild) -> int:
    """Global limit sections of Hom(E0, E0): chains of trivial summands.

    Nontrivial degree-0 classes have no sections, so a global section lives
    on trivial summands matched across every node.  Only the identity
    sub-line-bundle, slot 0 of each decomposition, is matched at the nodes.
    """
    identity = GluingData(tuple(NodeGluing(((0, 0),)) for _ in build.trivial[1:]))
    return len(matched_paths(identity, build.trivial))


def colsec_pairs(g: int, rho: int) -> tuple[tuple[int, int], ...]:
    """The product list: 3 windows per early canonical section, then the tail.

    For each traceless slot s: sections 1..g-3 of the canonical series pair
    with windows l, l+1, l+2; the last three canonical sections each pair
    with windows g-2 and g-1.  Ids are 0-based: canonical section l is l-1,
    window j of slot s is s*(g-1) + (j-1).
    """
    pairs: list[tuple[int, int]] = []
    for s in range(rho):
        for l in range(1, g - 3 + 1):
            for j in (l, l + 1, l + 2):
                pairs.append((l - 1, s * (g - 1) + (j - 1)))
        for l in (g - 2, g - 1, g):
            for j in (g - 2, g - 1):
                pairs.append((l - 1, s * (g - 1) + (j - 1)))
    return tuple(pairs)


def endo_instance(build: EndoBuild) -> tuple[tuple[ProductSection, ...], Verdict]:
    """Canonical sections times traceless-endomorphism windows, spread 3rho
    on the first and the last three components and 4rho elsewhere, and the
    endo-onto draft for :func:`decide`."""
    p = build.params
    g, r = p.g, p.r
    rho = r * r - 1
    run = _endo_run(g, r)
    products, prod_series, dist, error = _spread_products(
        run.canonical, build.endo_series, run.pairs, endo_parts(g)
    )
    audits = (
        Audit("endo-series-valid", True, validate_lls(build.endo_series).ok),
        Audit("product-series-valid", True, validate_lls(prod_series).ok),
        Audit("hom-h0", 1, endo_h0(build)),
        Audit("table-dimension", rho * (g - 1), build.endo_series.dimension),
        Audit("trivial-summands-last", p.h, len(build.trivial[-1])),
        Audit("distribution-total", rho * (4 * g - 4), sum(dist.dprime)),
        Audit("target-dimension", p.expected, len(products)),
    )
    notes = (
        "last-component canonical classes recomputed from the canonical series:"
        " O(2(g-1)P); h-1 traceless windows there gain one vanishing order",
    )
    # an endo verdict writes no closed form: its quoted_thresholds stay null
    return products, Verdict(
        "endo-onto", {"g": g, "r": r, "d": p.d}, None, NOT_PROVEN, p.expected, len(products),
        audits, replace(dist, quoted_thresholds=None), certificate_error=error, notes=notes,
    )


def onto_certificate(
    g: int, r: int, d: int, prime: int = DEFAULT_PRIME, seed: int = 0, trials: int = 1
) -> Verdict:
    """Certify surjectivity of canonical x traceless-endomorphism products."""
    params = {"g": g, "r": r, "d": d}
    return _certify(
        "endo-onto", params, poin_params, endo_build, endo_instance, prime, seed, trials
    )
