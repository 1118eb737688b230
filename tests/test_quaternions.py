import math

import numpy as np
import pytest

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
    hodge_star,
    hodge_star_2forms,
    induced_two_form,
    left_mult_matrix,
    rotation_from_quaternion,
    su2_act_on_form,
    two_form_coords,
    two_form_from_coords,
    verify_model,
)

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
            assert abs((p * q).norm() - p.norm() * q.norm()) < 1e-12

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
        assert u.is_unit_imaginary()

    @pytest.mark.parametrize("n", [-2, -1, 0, 1.5, True, "2"])
    def test_model_size_is_an_integer_at_least_1(self, n):
        with pytest.raises(DimensionMismatch):
            complex_structure_from(QUAT_I, n=n)
        with pytest.raises(DimensionMismatch):
            SU2Element.from_quaternion(QUAT_J, n=n)

    def test_numpy_model_size(self):
        assert complex_structure_from(QUAT_K, n=np.int64(2)).mat.shape == (8, 8)

    @pytest.mark.parametrize("side", [3, 8])
    def test_su2_rep_is_4n_square(self, side):
        # the element is refused when built, not in the action's matrix product
        f = induced_two_form(complex_structure_from(QUAT_J))
        with pytest.raises(DimensionMismatch):
            su2_act_on_form(SU2Element(QUAT_I, 1, np.zeros((side, side))), f)

    def test_su2_element_is_unit(self):
        for make in (lambda q: SU2Element(q, 1, np.eye(4)), SU2Element.from_quaternion):
            with pytest.raises(NotUnitImaginary, match="not a unit quaternion"):
                make(Quaternion(2.0, 0.0, 0.0, 0.0))


class TestInducedForms:
    def test_omega_i_coordinates(self):
        # with omega(x, y) = <x, i y> the form is -(dx0^dx1 + dx2^dx3)
        f = induced_two_form(complex_structure_from(QUAT_I))
        assert np.array_equal(two_form_coords(f), [-1, 0, 0, 0, 0, -1])

    def test_vanishes_on_diagonal(self):
        f = induced_two_form(complex_structure_from(random_unit_imaginary()))
        for _ in range(10):
            x = RNG.normal(size=4)
            assert abs(f(x, x)) < 1e-12

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
        g = SU2Element.from_quaternion(Quaternion(1.0, 0.0, 0.0, 0.0))
        f = induced_two_form(complex_structure_from(random_unit_imaginary()))
        assert np.max(np.abs(su2_act_on_form(g, f).mat - f.mat)) < 1e-12

    def test_representation_is_homomorphism(self):
        for _ in range(20):
            q1 = random_unit_quaternion()
            q2 = random_unit_quaternion()
            r12 = SU2Element.from_quaternion(q1 * q2).rep
            assert np.max(np.abs(
                r12 - SU2Element.from_quaternion(q1).rep
                @ SU2Element.from_quaternion(q2).rep)) < 1e-12

    def test_pullback_is_conjugation(self):
        # brute-force fix of the conjugation direction: u -> g^-1 u g
        for _ in range(20):
            g = random_unit_quaternion()
            u = random_unit_imaginary()
            lhs = su2_act_on_form(
                SU2Element.from_quaternion(g),
                induced_two_form(complex_structure_from(u)))
            u2 = (g.conjugate() * u * g).normalized()
            rhs = induced_two_form(
                complex_structure_from(Quaternion(0.0, u2.x, u2.y, u2.z)))
            assert np.max(np.abs(lhs.mat - rhs.mat)) < 1e-12

    def test_anti_self_dual_fixed(self):
        asd = [np.array([1, 0, 0, 0, 0, -1.0]),
               np.array([0, 1, 0, 0, 1.0, 0]),
               np.array([0, 0, 1, -1.0, 0, 0])]
        for _ in range(20):
            g = SU2Element.from_quaternion(random_unit_quaternion())
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
            ge = SU2Element.from_quaternion(g)
            for axis, L in ((0, I), (1, J), (2, K)):
                got = su2_act_on_form(ge, induced_two_form(L)).mat
                want = sum(rot[a, axis] * M.mat for a, M in
                           ((0, I), (1, J), (2, K)))
                assert np.max(np.abs(got - want)) < 1e-12


class TestHodgeStar:
    def test_involution(self):
        star = hodge_star_2forms()
        assert np.array_equal(star @ star, np.eye(6))

    def test_involution_random_forms(self):
        for _ in range(20):
            f = two_form_from_coords(RNG.normal(size=6))
            assert np.max(np.abs(hodge_star(hodge_star(f)).mat - f.mat)) < 1e-12

    def test_triple_forms_self_dual(self):
        for u in (QUAT_I, QUAT_J, QUAT_K):
            f = induced_two_form(complex_structure_from(u))
            assert np.max(np.abs(hodge_star(f).mat - f.mat)) < 1e-12

    def test_commutes_with_su2(self):
        for _ in range(100):
            g = SU2Element.from_quaternion(random_unit_quaternion())
            f = two_form_from_coords(RNG.normal(size=6))
            lhs = hodge_star(su2_act_on_form(g, f))
            rhs = su2_act_on_form(g, hodge_star(f))
            assert np.max(np.abs(lhs.mat - rhs.mat)) < 1e-12

    def test_n_2_unsupported(self):
        with pytest.raises(Unsupported):
            hodge_star(TwoForm(n=2, mat=np.zeros((8, 8))))


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


def _right_mult_element(q, n=1):
    # p -> p q commutes with every left multiplication, so it fixes the
    # self-dual forms and moves the anti-self-dual ones
    images = [b * q for b in (Quaternion(1.0, 0.0, 0.0, 0.0), QUAT_I, QUAT_J, QUAT_K)]
    rep = np.array([[p.w, p.x, p.y, p.z] for p in images]).T
    return SU2Element(q=q, n=n, rep=rep)


@pytest.mark.parametrize("owner, attr, fake, failing", [
    (quaternions, "rotation_from_quaternion",
     lambda q: rotation_from_quaternion(q).T,
     {"form-level rotation matches conjugation SO(3) matrix"}),
    (SU2Element, "from_quaternion", staticmethod(_right_mult_element),
     {"pullback rotates u by conjugation g^-1 u g",
      "form-level rotation matches conjugation SO(3) matrix",
      "anti-self-dual forms are fixed by the action"}),
    (quaternions, "hodge_star_2forms", lambda: -hodge_star_2forms(),
     {"omega_I, omega_J, omega_K self-dual"}),
], ids=["rotation-transposed", "right-multiplication", "star-negated"])
def test_verify_model_catches_a_broken_model(monkeypatch, owner, attr, fake,
                                             failing):
    monkeypatch.setattr(owner, attr, fake)
    assert {name for name, ok, _ in verify_model() if not ok} == failing
