import math
import re
import tracemalloc
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from twistorlat import TwistorPoint, quaternions
from twistorlat.errors import DimensionMismatch, NotUnitImaginary, Unsupported
from twistorlat.quaternions import (
    QUAT_I,
    QUAT_J,
    QUAT_K,
    Quaternion,
    SU2Element,
    TwoForm,
    complex_structure_from,
    hodge_star_2forms,
    induced_two_form,
    left_mult_matrix,
    rotation_from_quaternion,
    su2_act_on_form,
    two_form_coords,
    two_form_from_coords,
    verify_model,
)

from support import reference_verify_model

RNG = np.random.default_rng(42)


def random_unit_quaternion():
    v = RNG.normal(size=4)
    v /= np.linalg.norm(v)
    return Quaternion(*v)


def random_unit_imaginary():
    return Quaternion.unit_imaginary(*RNG.normal(size=3))


class TestQuaternionAlgebra:
    def test_hamilton_products(self):
        assert QUAT_I * QUAT_J == QUAT_K
        assert QUAT_J * QUAT_K == QUAT_I
        assert QUAT_K * QUAT_I == QUAT_J
        assert QUAT_I * QUAT_I == Quaternion(-1.0, 0.0, 0.0, 0.0)

    def test_norm_multiplicative(self):
        for _ in range(20):
            p = Quaternion(*RNG.normal(size=4))
            q = Quaternion(*RNG.normal(size=4))
            norm_p, norm_q, norm_pq = (np.linalg.norm(astuple(s)) for s in (p, q, p * q))
            assert abs(norm_pq - norm_p * norm_q) < 1e-12

    @pytest.mark.parametrize("q,norm", [
        (Quaternion(0.0, 0.0, 0.0, 0.0), "0.0"),
        (Quaternion(math.nan, 1.0, 0.0, 0.0), "nan"),
        (Quaternion(0.0, 0.0, math.inf, 1.0), "inf"),
        (Quaternion(1.7e308, 1.7e308, 0.0, 0.0), "inf")])
    def test_no_unit_refused(self, q, norm):
        # a norm of 0, nan or inf is no unit: nan must not pass silently,
        # and the overflowed norm is inf, not 1
        assert str(math.hypot(*astuple(q))) == norm
        with pytest.raises(NotUnitImaginary, match=re.escape(f"not a unit quaternion: {q}")):
            SU2Element(q)

    # the element needs a unit quaternion, the complex structure a unit imaginary one
    @pytest.mark.parametrize("make", [SU2Element, complex_structure_from],
                             ids=["is_unit", "is_unit_imaginary"])
    @pytest.mark.parametrize("field", [None, "x", 1j, True, np.array(["1.0"])],
                             ids=["None", "str", "complex", "bool", "str_array"])
    def test_unit_checks_refuse_non_numbers(self, make, field):
        # None raised AttributeError, and 'x' and 1j numpy's TypeError
        for q, name in ((Quaternion(field, 0.0, 0.0, 0.0), "w"),
                        (Quaternion(0.0, 1.0, 0.0, field), "z")):
            with pytest.raises(NotUnitImaginary,
                               match=re.escape(f"field {name} = {field!r} is not a number")):
                make(q)

    def test_associativity(self):
        for _ in range(20):
            p, q, r = (Quaternion(*RNG.normal(size=4)) for _ in range(3))
            lhs = (p * q) * r
            rhs = p * (q * r)
            assert abs(lhs.w - rhs.w) < 1e-12
            assert abs(lhs.x - rhs.x) < 1e-12


class TestComplexStructures:
    def test_left_mult_by_i_matrix(self):
        # columns are i*1 = i, i*i = -1, i*j = k, i*k = -j
        want = np.array([
            [0, -1, 0, 0],
            [1, 0, 0, 0],
            [0, 0, 0, -1],
            [0, 0, 1, 0],
        ], dtype=float)
        assert np.array_equal(left_mult_matrix(QUAT_I), want)

    def test_quaternion_relations_exact(self):
        I = complex_structure_from(QUAT_I).mat
        J = complex_structure_from(QUAT_J).mat
        K = complex_structure_from(QUAT_K).mat
        assert np.array_equal(I @ J, K)
        assert np.array_equal(J @ I, -K)
        assert set(np.unique(I)) <= {-1.0, 0.0, 1.0}

    def test_diagonal_unit_squares_to_minus_id(self):
        u = Quaternion.unit_imaginary(1.0, 1.0, 0.0)
        m = complex_structure_from(u).mat
        assert np.max(np.abs(m @ m + np.eye(4))) < 1e-12

    def test_orthogonal_units_anticommute(self):
        u = random_unit_imaginary()
        # pick v unit imaginary orthogonal to u
        raw = RNG.normal(size=3)
        raw -= np.array([u.x, u.y, u.z]) * (raw @ [u.x, u.y, u.z])
        v = Quaternion.unit_imaginary(*raw)
        lu = complex_structure_from(u).mat
        lv = complex_structure_from(v).mat
        assert np.max(np.abs(lu @ lv + lv @ lu)) < 1e-12

    def test_blocks_for_n_2(self):
        m = complex_structure_from(QUAT_J, n=2).mat
        assert m.shape == (8, 8)
        assert np.max(np.abs(m @ m + np.eye(8))) < 1e-12

    @pytest.mark.parametrize("shape", [(4, 4), (3, 4, 4), (2, 1, 4, 4)])
    @pytest.mark.parametrize("n", [1, 3])
    def test_block_diag_is_kron(self, shape, n):
        # the same products as np.kron, signed zeros included
        m = RNG.normal(size=shape)
        m[..., 0, :] = -0.0
        assert (quaternions._block_diag(m, n).tobytes()
                == np.kron(np.eye(n), m).tobytes())

    def test_rejects_non_imaginary(self):
        with pytest.raises(NotUnitImaginary):
            complex_structure_from(Quaternion(1.0, 0.0, 0.0, 0.0))

    @pytest.mark.parametrize("xyz", [(0.0, 0.0, 0.0), (math.nan, 0.0, 0.0),
                                     (0.0, math.inf, 1.0)])
    def test_unit_imaginary_needs_a_direction(self, xyz):
        with pytest.raises(NotUnitImaginary):
            Quaternion.unit_imaginary(*xyz)

    @pytest.mark.parametrize("xyz", [(1e200, 0.0, 0.0), (1e-200, 0.0, 0.0),
                                     (1e308, 1e308, 0.0)])
    def test_huge_and_tiny_directions(self, xyz):
        # |x|^2 over- or underflows: both constructors scale by the largest
        # entry first, and give the same unit
        u = Quaternion.unit_imaginary(*xyz)
        assert (u.x, u.y, u.z) == TwistorPoint.from_unit(*xyz).unit
        complex_structure_from(u)  # a unit imaginary quaternion

    @pytest.mark.parametrize("n", [-2, -1, 0, 1.5, True, "2"])
    def test_model_size_is_an_integer_at_least_1(self, n):
        with pytest.raises(DimensionMismatch):
            complex_structure_from(QUAT_I, n=n)
        with pytest.raises(DimensionMismatch):
            SU2Element(QUAT_J, n=n)

    def test_numpy_model_size(self):
        assert complex_structure_from(QUAT_K, n=np.int64(2)).mat.shape == (8, 8)

    @pytest.mark.parametrize("n", [10**9, quaternions._MAX_N + 1])
    def test_model_size_is_capped(self, n):
        # refused before a 4n x 4n matrix is asked for: no numpy "array is
        # too big" ValueError, and no multi-GB allocation
        message = f"model size n = {n} is not an integer in [1, 181]"
        tracemalloc.start()
        try:
            for make in (complex_structure_from, SU2Element):
                with pytest.raises(DimensionMismatch, match=re.escape(message)):
                    make(QUAT_I, n=n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_model_size_cap_builds(self):
        # one 4n x 4n float64 matrix within 4 MiB
        n = quaternions._MAX_N
        assert n == 181 and (4 * n) ** 2 * 8 <= 4 << 20 < (4 * n + 4) ** 2 * 8
        m = complex_structure_from(QUAT_I, n=n).mat
        assert m.shape == (724, 724)
        assert np.array_equal(m @ m, -np.eye(724))

    def test_huge_quaternions_refused_not_overflowed(self):
        with pytest.raises(NotUnitImaginary, match="not a unit quaternion"):
            SU2Element(Quaternion(1e200, 0.0, 0.0, 0.0))
        with pytest.raises(NotUnitImaginary, match="not a unit imaginary quaternion"):
            complex_structure_from(Quaternion(0.0, 1e200, 0.0, 0.0))

    def test_su2_element_is_unit(self):
        with pytest.raises(NotUnitImaginary, match="not a unit quaternion"):
            SU2Element(Quaternion(2.0, 0.0, 0.0, 0.0))


class TestInducedForms:
    def test_omega_i_coordinates(self):
        # with omega(x, y) = <x, i y> the form is -(dx0^dx1 + dx2^dx3)
        f = induced_two_form(complex_structure_from(QUAT_I))
        assert np.array_equal(two_form_coords(f), [-1, 0, 0, 0, 0, -1])

    def test_vanishes_on_diagonal(self):
        f = induced_two_form(complex_structure_from(random_unit_imaginary()))
        for _ in range(10):
            x = RNG.normal(size=4)
            assert abs(x @ f.mat @ x) < 1e-12

    def test_negation(self):
        u = random_unit_imaginary()
        mu = complex_structure_from(u)
        neg = complex_structure_from(Quaternion(0.0, -u.x, -u.y, -u.z))
        f = induced_two_form(mu)
        g = induced_two_form(neg)
        assert np.max(np.abs(f.mat + g.mat)) < 1e-12

    @pytest.mark.parametrize("coords", [[1.0] * 5, [1.0] * 7, np.eye(6)])
    def test_six_coordinates(self, coords):
        with pytest.raises(DimensionMismatch):
            two_form_from_coords(coords)

    @pytest.mark.parametrize("n, side", [(1, 8), (2, 4), (1, 3), (0, 0)])
    def test_form_matrix_is_4n_square(self, n, side):
        with pytest.raises(DimensionMismatch):
            TwoForm(n=n, mat=np.zeros((side, side)))

    def test_nondegenerate(self):
        for n in (1, 2):
            u = random_unit_imaginary()
            f = induced_two_form(complex_structure_from(u, n=n))
            assert np.linalg.matrix_rank(f.mat) == 4 * n


class TestSU2Action:
    def test_identity_acts_trivially(self):
        g = SU2Element(Quaternion(1.0, 0.0, 0.0, 0.0))
        f = induced_two_form(complex_structure_from(random_unit_imaginary()))
        assert np.max(np.abs(su2_act_on_form(g, f).mat - f.mat)) < 1e-12

    def test_representation_is_homomorphism(self):
        for _ in range(20):
            q1 = random_unit_quaternion()
            q2 = random_unit_quaternion()
            r12 = SU2Element(q1 * q2).rep
            assert np.max(np.abs(r12 - SU2Element(q1).rep @ SU2Element(q2).rep)) < 1e-12

    def test_pullback_is_conjugation(self):
        # brute-force fix of the conjugation direction: u -> g^-1 u g
        for _ in range(20):
            g = random_unit_quaternion()
            u = random_unit_imaginary()
            lhs = su2_act_on_form(SU2Element(g), induced_two_form(complex_structure_from(u)))
            w = g.conjugate() * u * g
            rhs = induced_two_form(complex_structure_from(Quaternion(0.0, w.x, w.y, w.z)))
            assert np.max(np.abs(lhs.mat - rhs.mat)) < 1e-12

    def test_anti_self_dual_fixed(self):
        asd = [np.array([1, 0, 0, 0, 0, -1.0]),
               np.array([0, 1, 0, 0, 1.0, 0]),
               np.array([0, 0, 1, -1.0, 0, 0])]
        for _ in range(20):
            g = SU2Element(random_unit_quaternion())
            for c in asd:
                out = su2_act_on_form(g, two_form_from_coords(c))
                assert np.max(np.abs(two_form_coords(out) - c)) < 1e-12

    def test_rotation_matches_conjugation_so3(self):
        I = complex_structure_from(QUAT_I)
        J = complex_structure_from(QUAT_J)
        K = complex_structure_from(QUAT_K)
        for _ in range(20):
            g = random_unit_quaternion()
            rot = rotation_from_quaternion(g.conjugate())
            assert np.max(np.abs(rot @ rot.T - np.eye(3))) < 1e-12
            ge = SU2Element(g)
            for axis, L in ((0, I), (1, J), (2, K)):
                got = su2_act_on_form(ge, induced_two_form(L)).mat
                want = sum(rot[a, axis] * M.mat for a, M in
                           ((0, I), (1, J), (2, K)))
                assert np.max(np.abs(got - want)) < 1e-12


class TestHodgeStar:
    # the star acts on a form's coordinates in the pair basis
    def test_involution(self):
        star = hodge_star_2forms()
        assert np.array_equal(star @ star, np.eye(6))

    def test_involution_random_forms(self):
        star = hodge_star_2forms()
        for _ in range(20):
            c = RNG.normal(size=6)
            assert np.max(np.abs(star @ (star @ c) - c)) < 1e-12

    def test_triple_forms_self_dual(self):
        for u in (QUAT_I, QUAT_J, QUAT_K):
            c = two_form_coords(induced_two_form(complex_structure_from(u)))
            assert np.max(np.abs(hodge_star_2forms() @ c - c)) < 1e-12

    def test_commutes_with_su2(self):
        star = hodge_star_2forms()
        for _ in range(100):
            g = SU2Element(random_unit_quaternion())
            c = RNG.normal(size=6)
            lhs = star @ two_form_coords(su2_act_on_form(g, two_form_from_coords(c)))
            rhs = two_form_coords(su2_act_on_form(g, two_form_from_coords(star @ c)))
            assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_n_2_unsupported(self):
        # no coordinates, so no star, for n = 2
        with pytest.raises(Unsupported):
            two_form_coords(TwoForm(n=2, mat=np.zeros((8, 8))))


def test_verify_model_all_pass():
    rows = verify_model()
    assert rows, "verification suite is empty"
    for name, ok, detail in rows:
        assert ok, f"{name}: {detail}"


MODEL_ROWS = (
    "I.J = K",
    "I.J = -J.I",
    "I^2 = -Id",
    "omega_L antisymmetric",
    "omega_L nondegenerate (|det| = 1)",
    "omega_I, omega_J, omega_K orthogonal, equal norm",
    "star^2 = Id",
    "omega_I, omega_J, omega_K self-dual",
    "SU(2) action commutes with Hodge star",
    "pullback rotates u by conjugation g^-1 u g",
    "form-level rotation matches conjugation SO(3) matrix",
    "anti-self-dual forms are fixed by the action",
)


def test_verify_model_rows():
    rows = verify_model()
    assert tuple(name for name, _, _ in rows) == MODEL_ROWS
    assert all(type(ok) is bool for _, ok, _ in rows)


@given(st.integers(0, 2**32 - 1))
def test_verify_model_equals_reference(seed):
    # every row, detail string included, as the per-trial loop gives it
    assert verify_model(seed) == reference_verify_model(seed)


# _CONJ p is conj(p) in the basis (1, i, j, k), and p q = conj(conj(q) conj(p))
_CONJ = np.diag([1.0, -1.0, -1.0, -1.0])


def _right_mult_matrix(q):
    # p -> p q commutes with every left multiplication, so it fixes the
    # self-dual forms and moves the anti-self-dual ones. As complex
    # structures, right multiplications give I J = -K and anti-self-dual forms
    return _CONJ @ left_mult_matrix(q.conjugate()) @ _CONJ


@pytest.mark.parametrize("attr, fake, failing", [
    ("rotation_from_quaternion",
     lambda q: np.swapaxes(rotation_from_quaternion(q), -1, -2),
     {"form-level rotation matches conjugation SO(3) matrix"}),
    ("left_mult_matrix", _right_mult_matrix,
     {"I.J = K",
      "omega_I, omega_J, omega_K self-dual",
      "pullback rotates u by conjugation g^-1 u g",
      "form-level rotation matches conjugation SO(3) matrix",
      "anti-self-dual forms are fixed by the action"}),
    ("hodge_star_2forms", lambda: -hodge_star_2forms(),
     {"omega_I, omega_J, omega_K self-dual"}),
    # the inverse pullback: verify_model must reach the action through
    # su2_act_on_form, not through a copy of its formula
    ("su2_act_on_form",
     lambda g, f: TwoForm(n=f.n, mat=g.rep @ f.mat @ np.swapaxes(g.rep, -1, -2)),
     {"pullback rotates u by conjugation g^-1 u g",
      "form-level rotation matches conjugation SO(3) matrix"}),
], ids=["rotation-transposed", "right-multiplication", "star-negated", "inverse-pullback"])
def test_verify_model_catches_a_broken_model(monkeypatch, attr, fake, failing):
    monkeypatch.setattr(quaternions, attr, fake)
    assert {name for name, ok, _ in verify_model() if not ok} == failing


def test_right_mult_matrix_multiplies_on_the_right():
    # the fake above is the model it claims to be
    for _ in range(20):
        p, q = random_unit_quaternion(), random_unit_quaternion()
        pq = p * q
        got = _right_mult_matrix(q) @ [p.w, p.x, p.y, p.z]
        assert np.max(np.abs(got - [pq.w, pq.x, pq.y, pq.z])) < 1e-12


_FLOATS = st.floats(-1e6, 1e6)


def _fields(q):
    return np.stack(np.broadcast_arrays(q.w, q.x, q.y, q.z), axis=-1)


def _stack(qs):
    # one quaternion of (m,) fields from m quaternions of float fields
    return Quaternion(*np.array([_fields(q) for q in qs]).T)


@given(st.lists(st.tuples(*[_FLOATS] * 8), min_size=1, max_size=8))
def test_stacked_formulas_equal_per_row(rows):
    # on an (m, 4) stack each formula gives, row for row, the very floats
    # it gives on one quaternion; u has the float 0.0 as its real part
    a = np.array(rows)
    p, q = Quaternion(*a[:, :4].T), Quaternion(*a[:, 4:].T)
    u = Quaternion(0.0, *a[:, 5:].T)
    ps, qs, us = ([Quaternion(*row) for row in _fields(s)] for s in (p, q, u))
    assert np.array_equal(_fields(p * q), [_fields(s * t) for s, t in zip(ps, qs)])
    assert np.array_equal(_fields(q.conjugate()), [_fields(s.conjugate()) for s in qs])
    for s, ss in ((p, ps), (u, us)):
        assert np.array_equal(left_mult_matrix(s), [left_mult_matrix(t) for t in ss])
        assert np.array_equal(rotation_from_quaternion(s),
                              [rotation_from_quaternion(t) for t in ss])
    # the model's constructors and maps, on the units of the rows; a zero
    # row has none, and gets a 1 in its first field
    b = a.copy()
    b[~b[:, :4].any(axis=1), 0] = b[~b[:, 5:].any(axis=1), 5] = 1.0
    gs = [Quaternion(*row / np.linalg.norm(row)) for row in b[:, :4]]
    vs = [Quaternion.unit_imaginary(*row) for row in b[:, 5:]]
    g, v = _stack(gs), _stack(vs)
    for n in (1, 2):
        assert np.array_equal(complex_structure_from(v, n).mat,
                              [complex_structure_from(t, n).mat for t in vs])
        assert np.array_equal(SU2Element(g, n).rep, [SU2Element(t, n).rep for t in gs])
    forms = [induced_two_form(complex_structure_from(t)) for t in vs]
    stacked = induced_two_form(complex_structure_from(v))
    assert np.array_equal(stacked.mat, [f.mat for f in forms])
    assert np.array_equal(two_form_coords(stacked), [two_form_coords(f) for f in forms])
    # element t pulls back form t, and every element every form, as
    # verify_model does with its basis
    assert np.array_equal(
        su2_act_on_form(SU2Element(g), stacked).mat,
        [su2_act_on_form(SU2Element(s), f).mat for s, f in zip(gs, forms)])
    pulled = su2_act_on_form(SU2Element(Quaternion(*_fields(g).T[..., None])), stacked)
    assert np.array_equal(pulled.mat, [[su2_act_on_form(SU2Element(s), f).mat
                                        for f in forms] for s in gs])


def test_stack_with_one_bad_entry_refused():
    # the message names the first bad entry's index and fields, not the
    # whole stack
    g = Quaternion(np.array([1.0, 0.0, 0.0, 0.6]), np.array([0.0, 1.0, 0.0, 0.0]),
                   np.array([0.0, 0.0, 1.0, 0.0]), np.array([0.0, 0.0, 0.0, 0.6]))
    SU2Element(Quaternion(*_fields(g)[:3].T))  # the first three entries are units
    message = "not a unit quaternion at index (3,): Quaternion(w=0.6, x=0.0, y=0.0, z=0.6)"
    with pytest.raises(NotUnitImaginary, match=re.escape(message)):
        SU2Element(g)
    # a (2, 2) stack whose entry (1, 0) has a unit imaginary part but real part 0.5
    u = Quaternion(np.array([[0.0, 0.0], [0.5, 0.0]]), np.array([[1.0, 0.0], [0.6, 0.0]]),
                   np.array([[0.0, 1.0], [0.8, 0.0]]), np.array([[0.0, 0.0], [0.0, 1.0]]))
    complex_structure_from(Quaternion(0.0, u.x, u.y, u.z))  # with real part 0, all pass
    message = ("not a unit imaginary quaternion at index (1, 0): "
               "Quaternion(w=0.5, x=0.6, y=0.8, z=0.0)")
    with pytest.raises(NotUnitImaginary, match=re.escape(message)):
        complex_structure_from(u)
