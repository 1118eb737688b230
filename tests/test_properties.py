"""Property tests of the pairing kernel and the maps built on it,
checked against the independent helpers in support.py and q_eval."""

from fractions import Fraction
from math import gcd

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from twistorlat import (
    GramLattice,
    HyperTriple,
    TwistorPoint,
    antipode,
    hodge_type_11,
    is_general_type,
    load_lattice,
    pi_map,
    project_to_V,
    q_eval,
)
from twistorlat.linalg import pairing_rows

from support import conjugate_gram, random_unimodular, solve_in_span

U3, U3_TRIPLE = load_lattice("U3")

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
