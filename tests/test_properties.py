"""Property tests of the pairing kernel and the maps built on it,
checked against the independent helpers in support.py and q_eval."""

import sys
from fractions import Fraction
from math import gcd

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from twistorlat import (
    DimensionMismatch,
    GramLattice,
    HyperTriple,
    NotPositive,
    TwistorLatticeError,
    TwistorPoint,
    antipode,
    hodge_type_11,
    is_general_type,
    load_lattice,
    pi_map,
    project_to_V,
    q_eval,
)
from twistorlat import linalg
from twistorlat.linalg import pairing_rows

from support import (
    conjugate_gram,
    dot_rows,
    random_unimodular,
    reference_q_eval,
    solve_in_span,
)

SMALL = linalg._SMALL  # the edge of vector's table of small ints

U3, U3_TRIPLE = load_lattice("U3")
LATTICES = {"U3": (U3, U3_TRIPLE), "K3": load_lattice("K3")}

rationals = st.fractions(min_value=-9, max_value=9, max_denominator=5)
positive_rationals = st.fractions(min_value=Fraction(1, 9), max_value=9,
                                  max_denominator=9)
rays = st.tuples(*[st.integers(-6, 6)] * 3).filter(any)


def scaled(gram_factor=1, triple_factor=1, lattice=U3, triple=U3_TRIPLE):
    """The lattice with its Gram times gram_factor and the triple times
    triple_factor: the same twistor sphere in other units."""
    return (GramLattice.from_rows([[gram_factor * e for e in row]
                                   for row in lattice.gram]),
            HyperTriple.from_rows([[triple_factor * e for e in w]
                                   for w in triple.vectors]))


# U3 as given, with its Gram times 6, with its triple times 1/2
VARIANTS = (scaled(), scaled(gram_factor=6), scaled(triple_factor=Fraction(1, 2)))


def positive_class(draw_vector, lattice=U3):
    assume(q_eval(lattice, draw_vector, draw_vector) > 0)
    return draw_vector


@given(x=st.tuples(*[rationals] * 6), gram_factor=st.integers(1, 12),
       triple_factor=positive_rationals)
def test_pairing_rows_identity(x, gram_factor, triple_factor):
    lattice, triple = scaled(gram_factor, triple_factor)
    rows, scale = pairing_rows(lattice, triple)
    assert scale > 0
    assert gcd(*(e for row in rows for e in row)) == 1
    norm = q_eval(lattice, triple.w_i, triple.w_i)
    exact = tuple(q_eval(lattice, x, w) / norm for w in triple.vectors)
    kernel = tuple(scale * sum(a * b for a, b in zip(row, x)) for row in rows)
    assert project_to_V(lattice, triple, x) == kernel == exact


@settings(max_examples=20)
@given(omega=st.tuples(*[rationals] * 6), rng=st.randoms(use_true_random=False))
def test_pi_map_invariant_under_unimodular_basis_change(omega, rng):
    omega = positive_class(omega)
    u = random_unimodular(rng, 6)
    columns = [[u[i][j] for i in range(6)] for j in range(6)]

    def new_coords(x):  # u^-1 x
        return solve_in_span(columns, x)

    lattice = GramLattice.from_rows(conjugate_gram(U3.gram, u))
    triple = HyperTriple.from_rows([new_coords(w) for w in U3_TRIPLE.vectors])
    assert (pi_map(lattice, triple, new_coords(omega)).point
            == pi_map(U3, U3_TRIPLE, omega).point)


@given(omega=st.tuples(*[rationals] * 6), s=positive_rationals)
def test_pi_map_invariant_under_positive_scaling(omega, s):
    omega = positive_class(omega)
    point = pi_map(U3, U3_TRIPLE, omega).point
    assert pi_map(U3, U3_TRIPLE, [s * e for e in omega]).point == point
    # -omega is positive too, and the sign rule sends it to the antipode
    assert pi_map(U3, U3_TRIPLE, [-s * e for e in omega]).point == antipode(point)


@given(omega=st.tuples(*[rationals] * 6), x=st.tuples(*[st.integers(-4, 4)] * 6),
       ray=rays)
def test_answers_independent_of_units(omega, x, ray):
    omega = positive_class(omega)
    point = TwistorPoint.from_ray(*ray)
    answers = {(pi_map(lattice, triple, omega).point.dir,
                hodge_type_11(lattice, triple, x, point),
                is_general_type(lattice, triple, point).witness)
               for lattice, triple in VARIANTS}
    assert len(answers) == 1


def same_point(p, q):
    # the same ray and a bit-identical unit (hex tells -0.0 from 0.0)
    return p.dir == q.dir and [e.hex() for e in p.unit] == [e.hex() for e in q.unit]


def as_parsed(x):
    """The entries of an int vector as Fractions, as 'p/q' strings and,
    where they fit, as np.int64: every form that takes the parsing path."""
    forms = [[Fraction(e) for e in x], [f"{3 * e}/3" for e in x]]
    if all(abs(e) < 2 ** 63 for e in x):
        forms.append([np.int64(e) for e in x])
    return forms


# omega = scale * base + nudge on the six live coordinates (the bench's K3
# support), zero elsewhere; at scale SMALL an entry is at the edge of
# vector's table of small ints, one inside it or one past it, and at scale
# 10^400 the ray is past the float range
@given(name=st.sampled_from(sorted(LATTICES)), base=st.tuples(*[st.integers(-9, 9)] * 6),
       scale=st.sampled_from([1, SMALL, 10 ** 400]),
       nudge=st.tuples(*[st.integers(-1, 1)] * 6))
@example(name="K3", base=(1,) * 6, scale=10 ** 400, nudge=(1, 0, 0, 0, 0, 0))
@example(name="U3", base=(1, 1, -1, -1, 1, 0), scale=SMALL, nudge=(0, 1, 0, -1, -1, 0))
def test_pi_map_int_path_matches_the_parsing_path(name, base, scale, nudge):
    lattice, triple = LATTICES[name]
    omega = tuple(scale * a + b for a, b in zip(base, nudge)) + (0,) * (lattice.rank - 6)
    assume(q_eval(lattice, omega, omega) > 0)
    want = pi_map(lattice, triple, omega)
    # each entry is omega's as a Fraction; one within the table is the table's
    assert len(want.vec) == len(omega)
    assert all(type(e) is Fraction and e == o for e, o in zip(want.vec, omega))
    assert all(e is linalg._FRACTIONS[o] for e, o in zip(want.vec, omega) if abs(o) <= SMALL)
    for form in as_parsed(omega):
        got = pi_map(lattice, triple, form)
        assert same_point(got.point, want.point)
        assert got.vec == want.vec
        assert all(type(e) is Fraction for e in got.vec)
    # no call changed a shared Fraction
    assert ({e: (f.numerator, f.denominator) for e, f in linalg._FRACTIONS.items()}
            == {e: (e, 1) for e in range(-SMALL, SMALL + 1)})


# the refusals of the parent commit's pi_map, byte for byte, where the
# int path took the parsing path's checks and its q_eval
@pytest.mark.parametrize("omega,error,message", [
    ((1, 2, 3, 4, 5), DimensionMismatch, "vector has length 5, lattice rank is 6"),
    ((1,) * 7, DimensionMismatch, "vector has length 7, lattice rank is 6"),
    ((), DimensionMismatch, "vector has length 0, lattice rank is 6"),
    ((True, 0, 0, 0, 0, 0), TwistorLatticeError, "cannot parse rational entry True"),
    ((1, 0, 0, 0, 0, True), TwistorLatticeError, "cannot parse rational entry True"),
    ((0,) * 6, NotPositive,
     "pi_map needs q(omega, omega) > 0, got q = 0 for omega = (0, 0, 0, 0, 0, 0)"),
    ((1, 0, 0, 0, 0, 0), NotPositive,
     "pi_map needs q(omega, omega) > 0, got q = 0 for omega = (1, 0, 0, 0, 0, 0)"),
    ((129, -129, 0, 0, 0, 0), NotPositive,
     "pi_map needs q(omega, omega) > 0, got q = -33282 for omega = (129, -129, 0, 0, 0, 0)"),
])
def test_pi_map_refusals_word_the_parent_messages(omega, error, message):
    for form in [omega, list(omega)]:
        with pytest.raises(TwistorLatticeError) as info:
            pi_map(U3, U3_TRIPLE, form)
        assert type(info.value) is error and str(info.value) == message


def refusal(lattice, omega):
    """pi_map's refusal of omega, as the parsing path words it: its
    length first, then the sign of q(omega, omega)."""
    if len(omega) != lattice.rank:
        return DimensionMismatch(f"vector has length {len(omega)}, lattice rank is {lattice.rank}")
    q = reference_q_eval(lattice.gram, omega, omega)
    if q <= 0:
        omega = ", ".join(str(Fraction(e)) for e in omega)
        return NotPositive(f"pi_map needs q(omega, omega) > 0, got q = {q} for omega = ({omega})")
    return None


# an int omega of any length, entries about the table's edge and past the
# float range; with a length of the rank, q(omega, omega) <= 0
@given(name=st.sampled_from(sorted(LATTICES)), length=st.integers(0, 24),
       entries=st.lists(st.sampled_from([0, 1, -1, SMALL, -SMALL, SMALL + 1, -SMALL - 1,
                                         10 ** 400, -10 ** 400]), min_size=24, max_size=24))
@example(name="U3", length=6, entries=[SMALL + 1, -SMALL, 0, 0, 0, 0] + [0] * 18)
@example(name="K3", length=21, entries=[1] * 24)
def test_pi_map_refusals_match_the_parsing_path(name, length, entries):
    lattice, triple = LATTICES[name]
    omega = tuple(entries[:length])
    want = refusal(lattice, omega)
    assume(want is not None)
    for form in [omega] + as_parsed(omega):
        with pytest.raises(TwistorLatticeError) as info:
            pi_map(lattice, triple, form)
        assert type(info.value) is type(want) and str(info.value) == str(want)


def test_the_example_reaches_the_unit_overflow_branch():
    lattice, triple = LATTICES["K3"]
    omega = (10 ** 400 + 1,) + (10 ** 400,) * 5 + (0,) * 16
    d = pi_map(lattice, triple, omega).point.dir
    assert max(map(abs, d)) ** 2 > int(sys.float_info.max)  # |dir|^2 is no float


@given(name=st.sampled_from(sorted(LATTICES)), x=st.tuples(*[st.integers(-4, 4)] * 6),
       ray=rays, own_ray=st.booleans())
def test_hodge_type_int_path_matches_the_parsing_path(name, x, ray, own_ray):
    lattice, triple = LATTICES[name]
    x = x + (0,) * (lattice.rank - 6)
    t = dot_rows(pairing_rows(lattice, triple)[0], x)
    if own_ray and any(t):  # x is of type (1,1) at the ray of its own projection
        ray = t
    point = TwistorPoint.from_ray(*ray)
    want = hodge_type_11(lattice, triple, x, point)
    assert want or not (own_ray and any(t))
    assert all(hodge_type_11(lattice, triple, form, point) == want for form in as_parsed(x))


@pytest.mark.parametrize("call", [
    lambda x: pi_map(U3, U3_TRIPLE, x),
    lambda x: hodge_type_11(U3, U3_TRIPLE, x, TwistorPoint.from_ray(1, 0, 0)),
], ids=["pi_map", "hodge_type_11"])
def test_bool_entry_is_refused(call):
    # a bool is not an int here: it takes the parsing path, which refuses it
    # before q(omega, omega) = 0 could be reported
    with pytest.raises(TwistorLatticeError, match="cannot parse rational entry True$"):
        call((True, 0, 0, 0, 0, 0))


@given(ray=st.tuples(*[st.one_of(st.integers(-6, 6),
                                 st.integers(-10 ** 400, 10 ** 400))] * 3).filter(any))
def test_from_ray_matches_from_ints(ray):
    assert same_point(TwistorPoint.from_ray(*ray), TwistorPoint._from_ints(ray))
