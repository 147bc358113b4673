"""Exact symbolic algebra on one elliptic component with two marked points.

A component carries two marked points P and Q.  Its degree-0 class group is
modeled as a formal abelian group

    Z * (P - Q)  (+)  Z^(generic symbols)  (+)  (+)_i  Z/n_i * (torsion symbols)

with genericity taken as an axiom of the model: P - Q is never torsion,
generic symbols satisfy no accidental relations, and torsion symbols of
declared order n contribute residues mod n.  A class is trivial exactly when
every coordinate vanishes.  No floating point and no actual curve arithmetic
appear anywhere; all statements are decided by integer bookkeeping.

Line bundles are recorded as O(a*P + b*Q) twisted by a degree-0 class, and a
vector bundle on the component is an ordered list of slots, each either a
line-bundle class or an indecomposable (Atiyah-type) summand of recorded rank
and degree.  Sections are identified, up to scalar, by the slot they live in
and their vanishing orders at P and Q, with flags telling whether each order
is exact or only a lower bound.

Every type here is a value type made by :func:`value`: a frozen, slotted
dataclass whose ``__init__`` stores its fields through their slots.  A
sweep builds these objects by the million (about 1.5 million through their
constructors for ``petri --sweep --g 2..10 --r 1..4``), and that store
costs about half of the ``object.__setattr__`` a frozen dataclass uses.

The pure operations that a sweep repeats on the same few classes are
memoized by :func:`memo`: :class:`Degree0Class` sums and negations (so
differences too), :meth:`Degree0Class.of_generic`, the slot tensor
product behind :func:`ellchain.independence.product_bundle`, and the
d-independent half of an endo run (``pipelines._endo_run``, keyed by the
integers (g, r): the bundles and tables off the last component, their
trivial summands, the canonical series and the product list).
Each table is keyed by the operands' values (their ``==`` and hash), and
an operation that raises stores nothing.  Value types are immutable with
unique normal forms, so a stored result equals a fresh one.  Other tables
hold state rather than a result.  ``independence._jets`` numbers the
oracle's jet keys once per run and keeps each key's hashed text and, per
(prime, seed, trial), the scalars drawn so far; a jet scalar is its key's
hash, so a drawn scalar equals a fresh one.  ``independence._formed``
holds the columns of the previous
:func:`~ellchain.independence.product_sections` call and the oracle matrix
column planned on each, which the next call reuses only for factor tables
that are the very same objects.  Another holds verdicts:
``pipelines._decided``, keyed by the integers (g, r, h, prime, seed,
trials), keeps the endo verdict of each h = gcd(r, d - g + 1) class (End E
depends on d only through h) that its first admitted d decided, when the
class has another d, and the class's other d get a copy with their own
params.  The last holds text:
``serialize._kept``, keyed by a kept class verdict's certificate's ``id``
and the depth it was written at, keeps that certificate's text, so each
copy writes it instead of rendering its survivors again.  The tables
last until :func:`clear_memos` empties them: ``ellchain.cli`` does so
where each (g, r) run of a sweep, or a single verdict, starts, so they
hold one run's values.  A caller that decides many verdicts itself
empties them the same way.
"""

from __future__ import annotations

import functools
import math
from dataclasses import MISSING, dataclass, fields, replace
from typing import Callable, Iterator, TypeVar, Union

_T = TypeVar("_T")
_F = TypeVar("_F", bound=Callable)


class AlgebraError(ValueError):
    """Raised when an operation is applied outside its domain."""


#: every :func:`memo` table, emptied together by :func:`clear_memos`
_MEMOS: list = []


def memo(fn: _F) -> _F:
    """``functools.cache`` on ``fn``, a pure operation on hashable values,
    with its table emptied by :func:`clear_memos`.

    The key is the arguments themselves, compared by value.  A call that
    raises caches nothing, so it raises again on the next call.  The
    uncached function stays reachable as ``__wrapped__``.
    """
    cached = functools.cache(fn)
    _MEMOS.append(cached)
    return cached


def clear_memos() -> None:
    """Empty every :func:`memo` table."""
    for cached in _MEMOS:
        cached.cache_clear()


def value(cls: type[_T]) -> type[_T]:
    """Make ``cls`` a value type: a frozen, slotted dataclass that sets its
    slots directly.

    The class is what ``@dataclass(frozen=True, slots=True)`` makes of it --
    fields, eq, hash, repr, ``dataclasses.replace``, pickling and
    ``FrozenInstanceError`` -- except for ``__init__``.  The dataclass one
    calls ``object.__setattr__`` once per field; this one takes the same
    parameters with the same default objects, stores each ``init`` field
    through its slot descriptor, which costs about half as much, and then
    calls ``__post_init__`` when the class defines one.  ``init=False``
    fields are left to ``__post_init__``.  A field kind it does not handle
    (``default_factory``, ``kw_only``, an ``init=False`` default, or a
    pseudo-field such as ``InitVar``) raises ``TypeError`` at class creation.
    """
    cls = dataclass(frozen=True, slots=True)(cls)
    own = fields(cls)
    pseudo = cls.__dataclass_fields__.keys() - {f.name for f in own}
    if pseudo:
        raise TypeError(f"value type {cls.__name__}: pseudo-fields {sorted(pseudo)}")
    env: dict[str, object] = {}
    params, body = ["self"], []
    for f in own:
        if f.default_factory is not MISSING or f.kw_only is True or (
            not f.init and f.default is not MISSING
        ):
            raise TypeError(f"value type {cls.__name__}: field {f.name!r} is not supported")
        if not f.init:
            continue
        env[f"_set_{f.name}"] = cls.__dict__[f.name].__set__
        body.append(f"_set_{f.name}(self, {f.name})")
        if f.default is MISSING:
            params.append(f.name)
        else:
            env[f"_default_{f.name}"] = f.default
            params.append(f"{f.name}=_default_{f.name}")
    if hasattr(cls, "__post_init__"):
        body.append("self.__post_init__()")
    # the setters and defaults are closure cells of __init__, as in dataclasses
    src = (
        f"def make({', '.join(env)}):\n"
        f"    def __init__({', '.join(params)}):\n"
        + "".join(f"        {line}\n" for line in body or ["pass"])
        + "    return __init__\n"
    )
    namespace: dict[str, object] = {}
    exec(src, {}, namespace)
    init = namespace["make"](**env)
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    init.__module__ = cls.__module__
    cls.__init__ = init
    return cls


# ---------------------------------------------------------------------------
# degree-0 classes
# ---------------------------------------------------------------------------


@value
class Degree0Class:
    """Formal degree-0 divisor class on one elliptic component.

    ``pq`` is the coefficient of (P - Q), ``generic`` maps generic-symbol
    names to integer coefficients, and ``torsion`` maps torsion-symbol names
    to (order, residue) with the residue stored reduced mod the order.

    Every class is kept in normal form: zero coefficients and zero residues
    dropped, names sorted and unique.  The constructor normalises and
    validates its input; the group operations combine operands that are
    already normal and build their result through :func:`_normal`.
    """

    pq: int = 0
    generic: tuple[tuple[str, int], ...] = ()
    torsion: tuple[tuple[str, int, int], ...] = ()

    def __post_init__(self) -> None:
        if len({s for s, _ in self.generic}) != len(self.generic):
            raise AlgebraError("repeated generic symbol")
        gen = tuple(sorted((s, c) for s, c in self.generic if c != 0))
        seen: set[str] = set()
        for name, order, _ in self.torsion:
            if order < 2:
                raise AlgebraError(f"torsion symbol {name!r} needs order >= 2, got {order}")
            if name in seen:
                raise AlgebraError(f"repeated torsion symbol {name!r}")
            seen.add(name)
        tor = tuple(
            sorted((name, order, res % order) for name, order, res in self.torsion if res % order)
        )
        object.__setattr__(self, "generic", gen)
        object.__setattr__(self, "torsion", tor)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "Degree0Class":
        return cls()

    @classmethod
    def of_pq(cls, n: int) -> "Degree0Class":
        return cls(pq=n)

    @classmethod
    @memo
    def of_generic(cls, name: str, coeff: int = 1) -> "Degree0Class":
        return cls(generic=((name, coeff),))

    @classmethod
    def of_torsion(cls, name: str, order: int, residue: int = 1) -> "Degree0Class":
        return cls(torsion=((name, order, residue),))

    # -- group operations ---------------------------------------------------

    @property
    def is_trivial(self) -> bool:
        return self.pq == 0 and not self.generic and not self.torsion

    @memo
    def __add__(self, other: "Degree0Class") -> "Degree0Class":
        return _normal(
            self.pq + other.pq,
            _add_generic(self.generic, other.generic),
            _add_torsion(self.torsion, other.torsion),
        )

    @memo
    def __neg__(self) -> "Degree0Class":
        # negation keeps every coefficient and residue nonzero and every name in place
        return _normal(
            -self.pq,
            tuple((s, -c) for s, c in self.generic),
            tuple((n, o, o - r) for n, o, r in self.torsion),
        )

    def __sub__(self, other: "Degree0Class") -> "Degree0Class":
        return self + (-other)


def _normal(
    pq: int, generic: tuple[tuple[str, int], ...], torsion: tuple[tuple[str, int, int], ...]
) -> Degree0Class:
    """The class of coordinates already in normal form, built without re-checking them."""
    c = object.__new__(Degree0Class)
    object.__setattr__(c, "pq", pq)
    object.__setattr__(c, "generic", generic)
    object.__setattr__(c, "torsion", torsion)
    return c


def _add_generic(
    a: tuple[tuple[str, int], ...], b: tuple[tuple[str, int], ...]
) -> tuple[tuple[str, int], ...]:
    if not (a and b):
        return a or b
    coeff = dict(a)
    for name, c in b:
        coeff[name] = coeff.get(name, 0) + c
    return tuple(sorted(item for item in coeff.items() if item[1]))


def _add_torsion(
    a: tuple[tuple[str, int, int], ...], b: tuple[tuple[str, int, int], ...]
) -> tuple[tuple[str, int, int], ...]:
    if not (a and b):
        return a or b
    tor = {name: (order, res) for name, order, res in a}
    for name, order, res in b:
        prev_order, prev_res = tor.get(name, (order, 0))
        if prev_order != order:
            raise AlgebraError(f"torsion symbol {name!r} declared with two orders")
        tor[name] = (order, (prev_res + res) % order)
    return tuple(sorted((n, o, r) for n, (o, r) in tor.items() if r))


# ---------------------------------------------------------------------------
# bundle slots
# ---------------------------------------------------------------------------


@value
class LineBundleClass:
    """The class O(a*P + b*Q) tensored by a degree-0 twist; degree is a + b."""

    a: int
    b: int
    twist: Degree0Class = Degree0Class()

    @property
    def rank(self) -> int:
        return 1

    @property
    def degree(self) -> int:
        return self.a + self.b

    def tensor(self, other: "LineBundleClass") -> "LineBundleClass":
        return LineBundleClass(self.a + other.a, self.b + other.b, self.twist + other.twist)

    def inverse(self) -> "LineBundleClass":
        return LineBundleClass(-self.a, -self.b, -self.twist)

    def special_index(self) -> int | None:
        """Return k with self isomorphic to O(k*P + (d-k)*Q), if one exists.

        Genericity makes such a k unique: it exists only when the twist is a
        pure multiple of (P - Q), and then k = a + pq must land in [0, d].
        """
        if self.twist.generic or self.twist.torsion:
            return None
        k = self.a + self.twist.pq
        return k if 0 <= k <= self.degree else None


@value
class IndecomposableSlot:
    """An indecomposable (Atiyah-type) summand of recorded rank and degree.

    The twist records a degree-0 line class tensoring the reference
    indecomposable bundle of this rank and degree.  ``twisted`` node twists
    applied through :meth:`BundleOnComponent.twisted` only track rank and
    degree for these slots; nothing downstream consults an atom's twist after
    a node twist.
    """

    rank: int
    degree: int
    twist: Degree0Class = Degree0Class()

    def __post_init__(self) -> None:
        if self.rank < 1:
            raise AlgebraError("slot rank must be positive")

    @property
    def gcd(self) -> int:
        return math.gcd(self.rank, self.degree)


Slot = Union[LineBundleClass, IndecomposableSlot]


@value
class BundleOnComponent:
    """A vector bundle on one component as an ordered sum of slots.

    Slot order is significant: gluing data and section tables refer to slots
    by index.
    """

    slots: tuple[Slot, ...]

    @property
    def rank(self) -> int:
        return sum(s.rank for s in self.slots)

    @property
    def degree(self) -> int:
        return sum(s.degree for s in self.slots)

    def twisted(self, at_p: int, at_q: int) -> "BundleOnComponent":
        """Tensor by O(-at_p * P - at_q * Q), slot by slot."""
        out: list[Slot] = []
        for s in self.slots:
            if isinstance(s, LineBundleClass):
                out.append(LineBundleClass(s.a - at_p, s.b - at_q, s.twist))
            else:
                out.append(replace(s, degree=s.degree - s.rank * (at_p + at_q)))
        return BundleOnComponent(tuple(out))


# ---------------------------------------------------------------------------
# sections and tables
# ---------------------------------------------------------------------------


@value
class SectionSymbol:
    """A section, up to scalar: its slot and vanishing orders at P and Q.

    ``exact_p`` / ``exact_q`` say whether the order is known exactly or is
    only a lower bound (sections of indecomposable slots carry exact P-orders
    but unconstrained Q-orders).
    """

    slot: int
    ord_p: int
    ord_q: int
    exact_p: bool = True
    exact_q: bool = True

    def shifted(self, dp: int, dq: int) -> "SectionSymbol":
        return SectionSymbol(
            self.slot, self.ord_p - dp, self.ord_q - dq, self.exact_p, self.exact_q
        )


@value
class VanishingTable:
    """A space of sections given as a list of rows, one per basis element."""

    rows: tuple[SectionSymbol, ...]

    @property
    def dimension(self) -> int:
        return len(self.rows)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def slot_class(s: Slot) -> Degree0Class:
    """The degree-0 class a slot carries.

    a*(P - Q) + twist for a line slot O(a*P + b*Q) (x) twist, the twist for
    an atom.  Two slots of one shape differ by the difference of their
    classes, and a degree-0 slot has a section exactly when its class is
    trivial.
    """
    if isinstance(s, LineBundleClass):
        return Degree0Class.of_pq(s.a) + s.twist
    return s.twist


def section_space(l: LineBundleClass, u: int, t: int, slot: int = 0) -> VanishingTable:
    """The unique t-dimensional space of sections with contiguous orders.

    For a special class O(a*P + (d-a)*Q) with the coincidence inside the
    window (u+1 <= a <= u+t) the rows are spanned by s_u .. s_{u+t} with the
    merged pair counted once; the row at P-order a has order sum d.  The
    boundary forms u = -1 (only for a = 0) and u+t = d (only for a = d) are
    accepted, with the edge row promoted.  Otherwise the rows are
    s_u .. s_{u+t-1} with plain orders (u+j, d-u-j-1); this requires the
    window to avoid the coincidence pair entirely.
    """
    d = l.degree
    if t < 0:
        raise AlgebraError("section_space needs t >= 0")
    if t == 0:
        return VanishingTable(())
    a = l.special_index()
    rows: list[SectionSymbol] = []
    if a is not None and u + 1 <= a <= u + t:
        if u < -1 or (u == -1 and a != 0):
            raise AlgebraError(f"window start {u} invalid for coincidence at {a}")
        if u + t > d or (u + t == d and a != d):
            raise AlgebraError(f"window end {u + t} invalid for degree {d}")
        for m in range(u, u + t + 1):
            if m == a - 1:
                continue
            if m == a:
                rows.append(SectionSymbol(slot, a, d - a))
            else:
                rows.append(SectionSymbol(slot, m, d - m - 1))
    else:
        if u < 0 or u + t > d:
            raise AlgebraError(f"window [{u}, {u + t - 1}] outside [0, {d - 1}]")
        if a is not None and not (a < u or a > u + t):
            raise AlgebraError(
                f"window [{u}, {u + t - 1}] touches the coincidence pair at {a}"
            )
        rows = [SectionSymbol(slot, u + j, d - u - j - 1) for j in range(t)]
    return VanishingTable(tuple(rows))


def end_decomposition(e: BundleOnComponent) -> BundleOnComponent:
    """Hom(e, e) = e* (x) e as a direct sum of degree-0 line classes.

    Requires all slots of e to share one (rank, degree) shape.  Rank-1 slot
    pairs (i, j) contribute the single class twist_j - twist_i.  For slots of
    rank r' > 1 (which must have gcd(r', degree) = 1) each pair contributes
    the full formal r'-torsion lattice (Z/r')^2 tensored by twist_j -
    twist_i, built on two torsion symbols attached to the shape; exactly one
    lattice class per diagonal pair is trivial.  Output order is pair-major
    (i, then j), lattice classes in lexicographic order.
    """
    if not e.slots:
        raise AlgebraError("end_decomposition needs a nonempty bundle")
    shapes = set()
    for s in e.slots:
        if isinstance(s, IndecomposableSlot) and s.rank > 1 and s.gcd != 1:
            raise AlgebraError(f"slot of rank {s.rank}, degree {s.degree} has gcd {s.gcd} != 1")
        shapes.add((s.rank, s.degree))
    if len(shapes) != 1:
        raise AlgebraError(f"end_decomposition needs uniform slots, got shapes {sorted(shapes)}")
    (r_sub, d_sub) = next(iter(shapes))
    lattice: list[Degree0Class] = [Degree0Class.zero()]
    if r_sub > 1:
        tau_p = f"end{r_sub}d{d_sub}.p"
        tau_q = f"end{r_sub}d{d_sub}.q"
        lattice = [
            Degree0Class.of_torsion(tau_p, r_sub, m) + Degree0Class.of_torsion(tau_q, r_sub, n)
            for m in range(r_sub)
            for n in range(r_sub)
        ]
    out: list[Slot] = []
    for si in e.slots:
        for sj in e.slots:
            diff = slot_class(sj) - slot_class(si)
            for cls in lattice:
                out.append(LineBundleClass(0, 0, diff + cls))
    return BundleOnComponent(tuple(out))


def iter_trivial_slots(e: BundleOnComponent) -> Iterator[int]:
    """Indices of the trivial summands: degree 0 and a trivial class."""
    for i, s in enumerate(e.slots):
        if s.degree == 0 and slot_class(s).is_trivial:
            yield i
