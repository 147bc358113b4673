"""Single-component algebra: classes, section bases, twists, endomorphisms."""

import inspect
import pickle
from dataclasses import MISSING, FrozenInstanceError, InitVar, field, fields, replace
from functools import reduce
from math import gcd
from operator import add

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellchain.elliptic import (
    AlgebraError,
    BundleOnComponent,
    Degree0Class,
    IndecomposableSlot,
    LineBundleClass,
    SectionSymbol,
    VanishingTable,
    clear_memos,
    end_decomposition,
    iter_trivial_slots,
    section_space,
    value,
)
from ellchain.independence import (
    Certificate,
    CertificateFailure,
    EliminationPass,
    OracleConfig,
    ProductRow,
    ProductSection,
    Survivor,
    _product_slot,
)
from reference import (
    class_isomorphic,
    h0_component,
    h0_slot,
    per_slot_orders_distinct,
    section_basis,
)


def orders(rows):
    return [(r.ord_p, r.ord_q) for r in rows]


class TestDegree0Class:
    def test_trivial(self):
        assert Degree0Class.zero().is_trivial
        assert not Degree0Class.of_pq(1).is_trivial
        assert not Degree0Class.of_generic("x").is_trivial

    def test_torsion_reduces(self):
        t = Degree0Class.of_torsion("eta", 3, 5)
        assert t.torsion == (("eta", 3, 2),)
        assert (t + t + t).is_trivial

    def test_group_laws(self):
        a = Degree0Class.of_pq(2) + Degree0Class.of_generic("x", -1)
        b = Degree0Class.of_torsion("eta", 4) + Degree0Class.of_generic("x", 1)
        assert (a + b) - b == a
        assert (a - a).is_trivial

    def test_order_mismatch_rejected(self):
        two, three = Degree0Class.of_torsion("eta", 2), Degree0Class.of_torsion("eta", 3)
        for _ in range(2):  # a call that raises is not memoized, so it raises again
            with pytest.raises(AlgebraError, match="'eta' declared with two orders"):
                two + three
            with pytest.raises(AlgebraError, match="'eta' declared with two orders"):
                _product_slot(LineBundleClass(1, 0, two), IndecomposableSlot(2, 1, three))

    @pytest.mark.parametrize("torsion", [
        (("t", 3, 1), ("t", 3, 2)),
        (("t", 3, 1), ("t", 3, 1)),
        (("t", 3, 0), ("t", 3, 1)),
        (("t", 2, 1), ("t", 3, 1)),
    ], ids=["sums-to-zero", "same-entry", "zero-residue", "two-orders"])
    def test_repeated_torsion_symbol_rejected(self, torsion):
        # a repeated name would escape normal form: (t,3,1),(t,3,2) is trivial
        with pytest.raises(AlgebraError, match="repeated torsion symbol 't'"):
            Degree0Class(torsion=torsion)

    def test_repeated_generic_symbol_rejected_even_with_a_zero_coefficient(self):
        # as for torsion: a name repeated in the input is an error, whatever its values
        with pytest.raises(AlgebraError, match="repeated generic symbol"):
            Degree0Class(generic=(("x", 1), ("x", 0)))


#: torsion symbol -> order, shared by both operands so they never conflict
TORSION_ORDERS = {"s": 2, "t": 3, "u": 5}


@st.composite
def raw_classes(draw):
    """Coordinates (pq, generic, torsion) with zero entries kept and names unsorted."""
    pq = draw(st.integers(-4, 4))
    generic = draw(st.dictionaries(st.sampled_from("xyz"), st.integers(-3, 3)))
    torsion = draw(st.dictionaries(st.sampled_from(sorted(TORSION_ORDERS)), st.integers(-7, 7)))
    return pq, generic, torsion


def built(pq, generic, torsion):
    """The class the validating constructor builds from raw coordinates."""
    return Degree0Class(
        pq,
        tuple(generic.items()),
        tuple((name, TORSION_ORDERS[name], res) for name, res in torsion.items()),
    )


def summed(x, y, sign=1):
    pq_x, gen_x, tor_x = x
    pq_y, gen_y, tor_y = y
    gen = {n: gen_x.get(n, 0) + sign * gen_y.get(n, 0) for n in {*gen_x, *gen_y}}
    tor = {n: tor_x.get(n, 0) + sign * tor_y.get(n, 0) for n in {*tor_x, *tor_y}}
    return pq_x + sign * pq_y, gen, tor


@settings(max_examples=300, deadline=None)
@given(raw_classes(), raw_classes())
def test_class_arithmetic_equals_the_validating_constructor(x, y):
    # the group operations skip __post_init__; their results must be the
    # normal form the constructor gives the summed coordinates, field for field
    a, b = built(*x), built(*y)
    pq, gen, tor = x
    negated = built(-pq, {n: -c for n, c in gen.items()}, {n: -r for n, r in tor.items()})
    for got, want in ((a + b, built(*summed(x, y))), (-a, negated),
                      (a - b, built(*summed(x, y, -1)))):
        assert (got.pq, got.generic, got.torsion) == (want.pq, want.generic, want.torsion)
        assert got == want and hash(got) == hash(want)
    assert (a + (-a)).is_trivial and (a - a).is_trivial


@settings(max_examples=100, deadline=None)
@given(raw_classes(), st.sampled_from(sorted(TORSION_ORDERS)), st.integers(1, 6))
def test_class_arithmetic_rejects_a_torsion_order_conflict(x, name, other):
    pq, gen, tor = x
    a = built(pq, gen, {**tor, name: 1})
    clash = TORSION_ORDERS[name] + other
    with pytest.raises(AlgebraError, match="declared with two orders"):
        a + Degree0Class.of_torsion(name, clash)
    with pytest.raises(AlgebraError, match="declared with two orders"):
        Degree0Class.of_torsion(name, clash) - a


class TestClassIsomorphic:
    def test_identity(self):
        assert class_isomorphic(LineBundleClass(3, 2), LineBundleClass(3, 2))

    def test_pq_shift_is_nontrivial(self):
        # O(3P+2Q) vs O(2P+3Q) differ by P-Q, which is never torsion
        assert not class_isomorphic(LineBundleClass(3, 2), LineBundleClass(2, 3))

    def test_distinct_generic_twists(self):
        l1 = LineBundleClass(2, 2, Degree0Class.of_generic("g1"))
        l2 = LineBundleClass(2, 2, Degree0Class.of_generic("g2"))
        assert not class_isomorphic(l1, l2)

    def test_pq_twist_matches_shape(self):
        twisted = LineBundleClass(2, 3, Degree0Class.of_pq(1))
        assert class_isomorphic(twisted, LineBundleClass(3, 2))
        assert twisted.special_index() == 3


class TestH0:
    def test_positive_degree(self):
        assert h0_component(BundleOnComponent((LineBundleClass(5, 0),))) == 5

    def test_degree_zero_torsion(self):
        slot = LineBundleClass(0, 0, Degree0Class.of_torsion("eta", 3))
        assert h0_component(BundleOnComponent((slot,))) == 0

    def test_trivial_class(self):
        assert h0_component(BundleOnComponent((LineBundleClass(0, 0),))) == 1

    def test_negative_and_balanced(self):
        e = BundleOnComponent((LineBundleClass(-1, 0), IndecomposableSlot(2, 5)))
        assert h0_component(e) == 5


class TestSectionBasis:
    def test_generic_twist_all_exact(self):
        l = LineBundleClass(2, 3, Degree0Class.of_generic("g"))
        basis = section_basis(l)
        assert orders(basis.sections) == [(0, 4), (1, 3), (2, 2), (3, 1), (4, 0)]
        assert basis.coincidence is None

    def test_coincidence_merges_rows(self):
        basis = section_basis(LineBundleClass(3, 2))
        assert basis.coincidence == 3
        assert basis.sections[2] == basis.sections[3]
        assert orders(basis.distinct_rows) == [(0, 4), (1, 3), (3, 2), (4, 0)]

    def test_degree_one(self):
        basis = section_basis(LineBundleClass(1, 0, Degree0Class.of_generic("g")))
        assert orders(basis.sections) == [(0, 0)]

    def test_boundary_coincidences(self):
        lo = section_basis(LineBundleClass(0, 4))
        assert orders(lo.sections)[0] == (0, 4)  # promoted edge row
        hi = section_basis(LineBundleClass(4, 0))
        assert orders(hi.sections)[-1] == (4, 0)

    def test_rejects_nonpositive_degree(self):
        with pytest.raises(AlgebraError):
            section_basis(LineBundleClass(0, 0))


class TestSectionSpace:
    def test_special_class_window(self):
        table = section_space(LineBundleClass(3, 2), 1, 3)
        assert orders(table.rows) == [(1, 3), (3, 2), (4, 0)]

    def test_generic_window(self):
        l = LineBundleClass(0, 5, Degree0Class.of_generic("g"))
        assert orders(section_space(l, 1, 3).rows) == [(1, 3), (2, 2), (3, 1)]

    def test_full_basis(self):
        l = LineBundleClass(0, 6, Degree0Class.of_generic("g"))
        table = section_space(l, 0, 6)
        assert [r.ord_p for r in table.rows] == list(range(6))

    def test_rejects_window_starting_at_coincidence(self):
        # s_3 = s_2 has orders (3, 2); a window of plain rows beginning at
        # index 3 would claim the impossible exact orders (3, 1)
        with pytest.raises(AlgebraError):
            section_space(LineBundleClass(3, 2), 3, 1)

    def test_rejects_out_of_range(self):
        l = LineBundleClass(0, 4, Degree0Class.of_generic("g"))
        with pytest.raises(AlgebraError):
            section_space(l, 2, 3)

    def test_rows_sit_inside_basis(self):
        for l in (LineBundleClass(3, 2), LineBundleClass(1, 4, Degree0Class.of_generic("g"))):
            basis = {(s.ord_p, s.ord_q) for s in section_basis(l).sections}
            table = section_space(l, 1, 3)
            assert {(s.ord_p, s.ord_q) for s in table.rows} <= basis


class TestEndDecomposition:
    def test_single_atom(self):
        out = end_decomposition(BundleOnComponent((IndecomposableSlot(2, 1),)))
        assert out.rank == 4 and out.degree == 0
        assert len(list(iter_trivial_slots(out))) == 1
        assert h0_component(out) == 1

    def test_two_twisted_rank_one_atoms(self):
        l1 = LineBundleClass(0, 1, Degree0Class.of_generic("L1"))
        l2 = LineBundleClass(0, 1, Degree0Class.of_generic("L2"))
        out = end_decomposition(BundleOnComponent((l1, l2)))
        assert out.rank == 4
        assert len(list(iter_trivial_slots(out))) == 2  # the two diagonal pairs

    def test_single_line_slot(self):
        out = end_decomposition(BundleOnComponent((LineBundleClass(2, 3),)))
        assert out.rank == 1
        assert len(list(iter_trivial_slots(out))) == 1

    def test_rejects_imprimitive_atom(self):
        with pytest.raises(AlgebraError):
            end_decomposition(BundleOnComponent((IndecomposableSlot(2, 4),)))

    @pytest.mark.parametrize("slots", [
        (IndecomposableSlot(3, 1),),
        (IndecomposableSlot(2, 1, Degree0Class.of_generic("a")),
         IndecomposableSlot(2, 1, Degree0Class.of_generic("b"))),
        (LineBundleClass(1, 1), LineBundleClass(0, 2, Degree0Class.of_generic("c"))),
    ])
    def test_rank_squares_degree_zero(self, slots):
        e = BundleOnComponent(slots)
        out = end_decomposition(e)
        assert out.rank == e.rank ** 2
        assert out.degree == 0


# -- property tests ---------------------------------------------------------

line_classes = st.builds(
    LineBundleClass,
    st.integers(min_value=0, max_value=8),
    st.integers(min_value=0, max_value=8),
    st.one_of(
        st.just(Degree0Class.zero()),
        st.builds(Degree0Class.of_pq, st.integers(min_value=-3, max_value=3)),
        st.builds(Degree0Class.of_generic, st.just("g")),
    ),
).filter(lambda l: l.degree >= 1)


@given(line_classes)
@settings(max_examples=200)
def test_basis_orders_distinct_with_one_coincidence(l):
    basis = section_basis(l)
    distinct = basis.distinct_rows
    assert len({r.ord_p for r in distinct}) == len(distinct)
    merged = len(basis.sections) - len(distinct)
    assert merged in (0, 1)


@given(line_classes, st.data())
@settings(max_examples=200)
def test_section_space_spanned_by_basis(l, data):
    d = l.degree
    u = data.draw(st.integers(min_value=0, max_value=d - 1))
    t = data.draw(st.integers(min_value=1, max_value=d - u))
    try:
        table = section_space(l, u, t)
    except AlgebraError:
        return
    assert table.dimension == t
    basis = {(s.ord_p, s.ord_q) for s in section_basis(l).sections}
    assert {(s.ord_p, s.ord_q) for s in table.rows} <= basis
    assert per_slot_orders_distinct(table)


@given(line_classes, line_classes, line_classes)
@settings(max_examples=100)
def test_isomorphism_is_equivalence(a, b, c):
    assert class_isomorphic(a, a)
    assert class_isomorphic(a, b) == class_isomorphic(b, a)
    if class_isomorphic(a, b) and class_isomorphic(b, c):
        assert class_isomorphic(a, c)


# -- trivial summands against the reference h0 -------------------------------

twists = st.lists(
    st.one_of(
        st.builds(Degree0Class.of_pq, st.integers(min_value=-3, max_value=3)),
        st.builds(Degree0Class.of_generic, st.sampled_from(["g", "h"])),
        st.builds(Degree0Class.of_torsion, st.just("eta"), st.just(3), st.integers(0, 2)),
    ),
    max_size=2,
).map(lambda parts: reduce(add, parts, Degree0Class.zero()))


@st.composite
def degree0_lines(draw):
    # O(a*P - a*Q) (x) t, trivial exactly when t = -a*(P - Q)
    a = draw(st.integers(min_value=-3, max_value=3))
    shift = draw(st.integers(min_value=-1, max_value=1))
    return LineBundleClass(a, -a, Degree0Class.of_pq(shift - a) + draw(twists))


any_slots = st.one_of(
    degree0_lines(),
    st.builds(IndecomposableSlot, st.integers(min_value=1, max_value=3), st.just(0), twists),
    st.builds(LineBundleClass, st.integers(-2, 3), st.integers(-2, 3), twists),
    st.builds(IndecomposableSlot, st.integers(min_value=1, max_value=3),
              st.integers(-2, 3), twists),
)


@st.composite
def uniform_bundles(draw):
    """Bundles end_decomposition accepts: line slots of one degree, or coprime atoms."""
    n = draw(st.integers(min_value=1, max_value=3))
    if draw(st.booleans()):
        d = draw(st.integers(min_value=-2, max_value=4))
        parts = [draw(st.integers(min_value=-3, max_value=3)) for _ in range(n)]
        return BundleOnComponent(tuple(LineBundleClass(a, d - a, draw(twists)) for a in parts))
    rank, degree = draw(st.sampled_from(
        [(r, d) for r in (1, 2, 3) for d in range(-2, 4) if gcd(r, d) == 1]
    ))
    return BundleOnComponent(
        tuple(IndecomposableSlot(rank, degree, draw(twists)) for _ in range(n))
    )


def reference_trivial(e):
    return [i for i, s in enumerate(e.slots) if s.degree == 0 and h0_slot(s) == 1]


@given(st.lists(any_slots, min_size=1, max_size=6).map(lambda s: BundleOnComponent(tuple(s))))
@settings(max_examples=300)
def test_trivial_slots_match_reference_h0(e):
    assert list(iter_trivial_slots(e)) == reference_trivial(e)


@given(uniform_bundles())
@settings(max_examples=150)
def test_trivial_slots_of_end_decomposition_match_reference_h0(e):
    out = end_decomposition(e)
    trivial = list(iter_trivial_slots(out))
    assert trivial == reference_trivial(out)
    if isinstance(e.slots[0], LineBundleClass):
        # Hom(L_i, L_j) is trivial exactly when L_i and L_j are isomorphic
        assert len(trivial) == sum(class_isomorphic(si, sj) for si in e.slots for sj in e.slots)



# -- memo tables -------------------------------------------------------------

normal_classes = raw_classes().map(lambda x: built(*x))
slots = st.one_of(
    st.builds(LineBundleClass, st.integers(-2, 4), st.integers(-2, 4), normal_classes),
    st.builds(IndecomposableSlot, st.integers(1, 3), st.integers(-2, 4), normal_classes),
)


@given(
    normal_classes, normal_classes, slots, slots,
    st.sampled_from(["x", "P1.0"]), st.integers(-2, 2), st.integers(0, 2),
)
@settings(max_examples=200, deadline=None)
def test_memoized_class_algebra_equals_the_unmemoized(a, b, sa, sb, name, coeff, empty_after):
    add, neg = Degree0Class.__add__.__wrapped__, Degree0Class.__neg__.__wrapped__
    of_generic = Degree0Class.of_generic.__wrapped__
    for round_ in range(3):  # later rounds read what earlier ones stored, unless emptied
        assert a + b == add(a, b)
        assert -a == neg(a)
        assert a - b == add(a, neg(b))
        assert Degree0Class.of_generic(name, coeff) == of_generic(Degree0Class, name, coeff)
        assert _product_slot(sa, sb) == _product_slot.__wrapped__(sa, sb)
        assert (a + b) is (a + b) and _product_slot(sa, sb) is _product_slot(sa, sb)
        if round_ == empty_after:
            clear_memos()
            assert Degree0Class.__add__.cache_info().currsize == 0


# -- value types -------------------------------------------------------------

_SURVIVOR = Survivor(0, 1, 2, True, 3, False)
_ROW = ProductRow(1, SectionSymbol(0, 1, 2), SectionSymbol(1, 0, 3, False))
#: every value type, with a full positional argument list
VALUE_TYPES = [
    (Degree0Class, (1, (("x", 2),), (("t", 3, 1),))),
    (LineBundleClass, (1, 2, Degree0Class.of_generic("x"))),
    (IndecomposableSlot, (2, 1, Degree0Class.of_pq(1))),
    (BundleOnComponent, ((LineBundleClass(1, 0), IndecomposableSlot(2, 1)),)),
    (SectionSymbol, (0, 1, 2, False, True)),
    (VanishingTable, ((SectionSymbol(0, 1, 2), SectionSymbol(1, 0, 1, True, False)),)),
    (ProductRow, (1, SectionSymbol(0, 1, 2), SectionSymbol(1, 0, 3, False))),
    (ProductSection, (0, 1, (_ROW, _ROW))),
    (Survivor, (0, 1, 2, True, 3, False)),
    (EliminationPass, (1, (_SURVIVOR,))),
    (Certificate, ((EliminationPass(1, (_SURVIVOR,)),), 1, ((0, 0), (1, 2)))),
    (CertificateFailure, (1, (0, 2), (), "component 1: survivors not pairwise discriminated")),
    (OracleConfig, (7, 1, 2)),
]


@pytest.mark.parametrize("cls,args", VALUE_TYPES, ids=[c.__name__ for c, _ in VALUE_TYPES])
def test_value_types_keep_their_dataclass_behaviour(cls, args):
    init = [f for f in fields(cls) if f.init]
    # the same parameters, in field order, with the same default objects
    params = list(inspect.signature(cls.__init__).parameters.values())[1:]
    assert [p.name for p in params] == [f.name for f in init]
    for p, f in zip(params, init):
        assert p.kind is p.POSITIONAL_OR_KEYWORD
        assert p.default is (p.empty if f.default is MISSING else f.default)
    obj = cls(*args)
    assert obj == cls(**{f.name: a for f, a in zip(init, args)})
    given = [a for f, a in zip(init, args) if f.default is MISSING]
    defaulted = cls(*given)
    assert defaulted == cls(*given, *(f.default for f in init[len(given):]))

    # eq and hash are those of the compared fields' tuple
    def key(o):
        return tuple(getattr(o, f.name) for f in fields(cls) if f.compare)

    assert hash(obj) == hash(key(obj)) == hash(cls(*args))
    assert (obj == defaulted) is (key(obj) == key(defaulted))
    assert replace(obj) == obj and pickle.loads(pickle.dumps(obj)) == obj
    for f in fields(cls):
        with pytest.raises(FrozenInstanceError):
            setattr(obj, f.name, getattr(obj, f.name))
        with pytest.raises(FrozenInstanceError):
            delattr(obj, f.name)
        if not f.init:  # ProductRow.symbol is derived, never passed
            with pytest.raises(TypeError, match="unexpected keyword"):
                cls(*args, **{f.name: getattr(obj, f.name)})


@pytest.mark.parametrize("build", [
    lambda: IndecomposableSlot(0, 1),
    lambda: Degree0Class(generic=(("x", 1), ("x", 2))),
    lambda: OracleConfig(trials=0),
    lambda: OracleConfig(prime=91),
], ids=["atom-rank-0", "repeated-generic", "no-trials", "composite-prime"])
def test_value_types_run_their_post_init_checks(build):
    with pytest.raises(AlgebraError):
        build()


@pytest.mark.parametrize("annotation,spec", [
    (list, field(default_factory=list)),
    (int, field(default=0, kw_only=True)),
    (InitVar[int], 0),
    (int, field(default=0, init=False)),
], ids=["default-factory", "kw-only", "init-var", "init-false-default"])
def test_value_refuses_a_field_kind_it_does_not_handle(annotation, spec):
    with pytest.raises(TypeError, match="value type Bad"):
        value(type("Bad", (), {"__annotations__": {"x": annotation}, "x": spec}))
