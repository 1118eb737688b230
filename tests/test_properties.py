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
    GramLattice,
    HyperTriple,
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
from twistorlat.linalg import dot_rows, pairing_rows

from support import conjugate_gram, random_unimodular, solve_in_span

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
# support), zero elsewhere; at scale 10^400 the ray is past the float range
@given(name=st.sampled_from(sorted(LATTICES)), base=st.tuples(*[st.integers(-9, 9)] * 6),
       scale=st.sampled_from([1, 10 ** 400]), nudge=st.tuples(*[st.integers(-1, 1)] * 6))
@example(name="K3", base=(1,) * 6, scale=10 ** 400, nudge=(1, 0, 0, 0, 0, 0))
def test_pi_map_int_path_matches_the_parsing_path(name, base, scale, nudge):
    lattice, triple = LATTICES[name]
    omega = tuple(scale * a + b for a, b in zip(base, nudge)) + (0,) * (lattice.rank - 6)
    assume(q_eval(lattice, omega, omega) > 0)
    want = pi_map(lattice, triple, omega)
    assert all(type(e) is Fraction for e in want.vec)
    for form in as_parsed(omega):
        got = pi_map(lattice, triple, form)
        assert same_point(got.point, want.point)
        assert got.vec == want.vec
        assert all(type(e) is Fraction for e in got.vec)


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
