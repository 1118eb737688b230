import math

import numpy as np
import pytest

from twistorlat.errors import NotUnitImaginary, Unsupported
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
