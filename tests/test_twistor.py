import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from twistorlat import (
    GramLattice,
    HyperTriple,
    InvalidSignature,
    InvalidTriple,
    InvariantViolation,
    IrrationalPoint,
    NotPositive,
    TwistorLatticeError,
    TwistorPoint,
    antipode,
    hodge_type_11,
    is_general_type,
    load_lattice,
    omega_of,
    perp_V_basis,
    pi_map,
    project_to_V,
    q_eval,
    scan_algebraic,
    scan_non_general_type,
    stereographic,
    stereographic_inverse,
    two_zero_plane,
    vector,
)
from twistorlat import twistor
from twistorlat.linalg import expand_in_V, pairing_rows

from support import random_positive_class, random_rational_vector

U3, TRIPLE = load_lattice("U3")
K3, K3_TRIPLE = load_lattice("K3")


class TestTwistorPoint:
    def test_primitive_reduction(self):
        p = TwistorPoint.from_ray(Fraction(2, 3), Fraction(1, 3), 0)
        assert p.dir == (2, 1, 0)
        assert abs(p.unit[0] - 2 / math.sqrt(5)) < 1e-12

    def test_sign_is_meaningful(self):
        assert TwistorPoint.from_ray(1, 0, 0) != TwistorPoint.from_ray(-1, 0, 0)
        assert TwistorPoint.from_ray(2, 4, 0) == TwistorPoint.from_ray(1, 2, 0)

    def test_zero_ray_rejected(self):
        with pytest.raises(InvariantViolation):
            TwistorPoint.from_ray(0, 0, 0)

    @pytest.mark.parametrize("unit,norm", [
        ((0.0, 0.0, 0.0), "0.0"), ((math.nan, 0.0, 0.0), "nan"),
        ((1.0, math.inf, 0.0), "inf"), ((1e200, 0.0, 0.0), "inf")])
    def test_unit_needs_finite_nonzero_norm(self, unit, norm):
        with pytest.raises(InvariantViolation, match=f"is not a direction: norm {norm}$"):
            TwistorPoint.from_unit(*unit)

    @pytest.mark.parametrize("ray,want", [
        ((Fraction(1, 2), "2/3", 0), (3, 4, 0)), ((-2, 4, 6), (-1, 2, 3))])
    def test_rational_entries_accepted(self, ray, want):
        assert TwistorPoint.from_ray(*ray).dir == want

    @pytest.mark.parametrize("entry", [0.5, True, "x", math.nan])
    def test_non_rational_entry_rejected(self, entry):
        # never rounded to a ray, and never a bare ValueError
        with pytest.raises(TwistorLatticeError,
                           match=f"cannot parse rational entry {entry!r}$"):
            TwistorPoint.from_ray(entry, 0, 0)

    def test_irrational_point_has_no_ray(self):
        p = TwistorPoint.from_unit(1.0, math.sqrt(2.0), 0.0)
        assert not p.is_exact
        with pytest.raises(IrrationalPoint):
            p.require_exact()


class TestPiMap:
    def test_triple_vector_maps_to_pole(self):
        cls = pi_map(U3, TRIPLE, TRIPLE.w_i)
        assert cls.point.dir == (1, 0, 0)

    def test_mixed_class(self):
        cls = pi_map(U3, TRIPLE, [1, 1, 1, 0, 0, 0])
        assert cls.point.dir == (2, 1, 0)
        expected = (2 / math.sqrt(5), 1 / math.sqrt(5), 0.0)
        assert max(abs(a - b) for a, b in zip(cls.point.unit, expected)) < 1e-12

    def test_sign_rule_negated_class(self):
        neg = [-e for e in TRIPLE.w_i]
        cls = pi_map(U3, TRIPLE, neg)
        assert cls.point.dir == (-1, 0, 0)

    def test_rejects_non_positive(self):
        with pytest.raises(NotPositive):
            pi_map(U3, TRIPLE, [1, -1, 0, 0, 0, 0])
        with pytest.raises(NotPositive):
            pi_map(U3, TRIPLE, [1, 0, 0, 0, 0, 0])  # q = 0

    def test_uniqueness_of_orientation(self):
        rng = random.Random(21)
        for _ in range(200):
            omega = random_positive_class(rng, U3, q_eval)
            cls = pi_map(U3, TRIPLE, omega)
            w_point = omega_of(TRIPLE, cls.point)
            w_anti = omega_of(TRIPLE, antipode(cls.point))
            assert q_eval(U3, omega, w_point) > 0
            assert q_eval(U3, omega, w_anti) < 0

    def test_nonvanishing_projection(self):
        rng = random.Random(22)
        for _ in range(200):
            omega = random_positive_class(rng, U3, q_eval)
            assert project_to_V(U3, TRIPLE, omega) != (0, 0, 0)

    def test_collinearity_of_projection(self):
        rng = random.Random(23)
        for _ in range(100):
            omega = random_positive_class(rng, U3, q_eval)
            cls = pi_map(U3, TRIPLE, omega)
            coeffs = project_to_V(U3, TRIPLE, omega)
            d = cls.point.dir
            # coeffs = t * d for one positive rational t
            ratios = {Fraction(c) / e for c, e in zip(coeffs, d) if e != 0}
            assert len(ratios) == 1
            assert ratios.pop() > 0

    def test_fixed_points(self):
        rng = random.Random(24)
        for _ in range(50):
            ray = tuple(rng.randint(-5, 5) for _ in range(3))
            if ray == (0, 0, 0):
                continue
            point = TwistorPoint.from_ray(*ray)
            scale = Fraction(rng.randint(1, 7), rng.randint(1, 7))
            omega = tuple(scale * e for e in omega_of(TRIPLE, point))
            assert pi_map(U3, TRIPLE, omega).point == point

    def test_continuity_lipschitz(self):
        rng = random.Random(25)
        norm_sq = q_eval(U3, TRIPLE.w_i, TRIPLE.w_i)
        checked = 0
        while checked < 200:
            omega = random_positive_class(rng, U3, q_eval)
            delta = random_rational_vector(rng, 6)
            p_omega = project_to_V(U3, TRIPLE, omega)
            p_delta = project_to_V(U3, TRIPLE, delta)
            no = sum(e * e for e in p_omega)
            nd = sum(e * e for e in p_delta)
            if nd == 0:
                continue
            if 4 * nd > no:
                # rescale delta so |p(delta)| <= |p(omega)| / 2
                k = 1
                while 4 * nd > no * k * k:
                    k *= 2
                scale = Fraction(1, k)
                delta = tuple(scale * e for e in delta)
                p_delta = tuple(scale * e for e in p_delta)
                nd = nd * scale * scale
            a = np.array([float(e) for e in p_omega])
            b = a + np.array([float(e) for e in p_delta])
            cosang = a @ b / (np.linalg.norm(a) * np.linalg.norm(b))
            angle = math.acos(max(-1.0, min(1.0, cosang)))
            bound = 2.0 * math.sqrt(float(nd) / float(no))
            assert angle <= bound + 1e-12
            checked += 1
        assert norm_sq == 2


# signature (4, 0, 0) with a valid triple: e4 is positive and q-orthogonal
# to the triple, so pi would be undefined at it; every call rejects the lattice
DIAG4 = GramLattice.from_rows([[1 if i == j else 0 for j in range(4)] for i in range(4)])
DIAG4_TRIPLE = HyperTriple.from_rows([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]])


@pytest.mark.parametrize("call", [
    lambda lat, tri: pi_map(lat, tri, [1, 0, 0, 0]),
    lambda lat, tri: pi_map(lat, tri, [0, 0, 0, 1]),
    lambda lat, tri: hodge_type_11(lat, tri, [1, 0, 0, 0],
                                   TwistorPoint.from_ray(1, 0, 0)),
    lambda lat, tri: is_general_type(lat, tri, TwistorPoint.from_ray(1, 0, 0)),
    lambda lat, tri: is_general_type(lat, tri, TwistorPoint.from_unit(1.0, 0.5, 0.0),
                                     bound=1),
    lambda lat, tri: project_to_V(lat, tri, vector([0, 0, 0, 1])),
    lambda lat, tri: perp_V_basis(lat, tri),
    lambda lat, tri: scan_algebraic(lat, tri, 1),
    lambda lat, tri: scan_non_general_type(lat, tri, 1),
], ids=["pi_map", "pi_map_perp", "hodge_type_11", "general_type_exact",
        "general_type_bounded", "project_to_V", "perp_V_basis", "scan_algebraic",
        "scan_non_general_type"])
def test_wrong_signature_rejected_by_every_call(call):
    with pytest.raises(InvalidSignature, match=r"\(4, 0, 0\)"):
        call(DIAG4, DIAG4_TRIPLE)


class TestHodgeType:
    def test_perp_classes_are_11_everywhere(self):
        basis = perp_V_basis(U3, TRIPLE)
        for ray in ((1, 0, 0), (2, 1, 0), (0, -1, 3)):
            point = TwistorPoint.from_ray(*ray)
            for v in basis:
                assert hodge_type_11(U3, TRIPLE, v, point)

    def test_w_j_is_not_11_at_i(self):
        point = TwistorPoint.from_ray(1, 0, 0)
        assert not hodge_type_11(U3, TRIPLE, TRIPLE.w_j, point)

    def test_w_i_is_11_at_both_poles(self):
        for ray in ((1, 0, 0), (-1, 0, 0)):
            assert hodge_type_11(U3, TRIPLE, TRIPLE.w_i,
                                 TwistorPoint.from_ray(*ray))


class TestTwoZeroPlane:
    def test_at_i_returns_wj_wk(self):
        u, v = two_zero_plane(TRIPLE, TwistorPoint.from_ray(1, 0, 0))
        assert u == TRIPLE.w_j
        assert v == TRIPLE.w_k

    def test_at_j_spans_wi_wk(self):
        u, v = two_zero_plane(TRIPLE, TwistorPoint.from_ray(0, 1, 0))
        # both outputs lie in span{w_I, w_K}: their w_J coefficient is 0
        for x in (u, v):
            coeffs = project_to_V(U3, TRIPLE, x)
            assert coeffs[1] == 0
        assert q_eval(U3, u, v) == 0

    def test_orthogonal_to_omega_l(self):
        rng = random.Random(31)
        for _ in range(30):
            ray = tuple(rng.randint(-4, 4) for _ in range(3))
            if ray == (0, 0, 0):
                continue
            point = TwistorPoint.from_ray(*ray)
            w_l = omega_of(TRIPLE, point)
            u, v = two_zero_plane(TRIPLE, point)
            assert q_eval(U3, u, w_l) == 0
            assert q_eval(U3, v, w_l) == 0
            assert q_eval(U3, u, v) == 0


class TestGeneralType:
    def _check_witness(self, point, witness):
        coeffs = project_to_V(U3, TRIPLE, vector(witness))
        assert coeffs != (0, 0, 0)
        d = point.dir
        assert (coeffs[1] * d[2] - coeffs[2] * d[1] == 0
                and coeffs[2] * d[0] - coeffs[0] * d[2] == 0
                and coeffs[0] * d[1] - coeffs[1] * d[0] == 0)

    def test_diagonal_ray_has_witness(self):
        point = TwistorPoint.from_ray(1, 1, 0)
        verdict = is_general_type(U3, TRIPLE, point)
        assert verdict.witness is not None
        self._check_witness(point, verdict.witness)

    def test_pole_certified_by_w_i(self):
        point = TwistorPoint.from_ray(1, 0, 0)
        verdict = is_general_type(U3, TRIPLE, point)
        assert verdict.witness is not None
        self._check_witness(point, verdict.witness)

    def test_irrational_ray_general_type_up_to_bound(self):
        point = TwistorPoint.from_unit(1.0, math.sqrt(2.0), 0.0)
        verdict = is_general_type(U3, TRIPLE, point, bound=4)
        assert verdict.is_general_type_up_to_bound
        assert verdict.bound == 4

    def test_irrational_ray_oracle(self):
        # independent exact check: a projection triple (t0, t1, t2) of an
        # integral box vector is collinear with (1, sqrt(2), 0) only if
        # t2 == 0 and t1^2 == 2 t0^2, which has no nonzero integer
        # solutions; confirm over the whole bound-4 box
        for v in itertools.product(range(-4, 5), repeat=6):
            t = (v[0] + v[1], v[2] + v[3], v[4] + v[5])
            if t == (0, 0, 0):
                continue
            assert not (t[2] == 0 and t[1] ** 2 == 2 * t[0] ** 2)

    @pytest.mark.parametrize("block_bytes", [None, 5 ** 4 * 6 * 8])
    def test_bounded_float_image_finds_first_witness(self, block_bytes,
                                                     monkeypatch):
        # a float direction of a rational ray gets the lexicographically
        # first box vector whose projection t is exactly collinear with
        # it, also when the box is searched in 25 blocks
        if block_bytes:
            monkeypatch.setattr(twistor, "_BLOCK_BYTES", block_bytes)
            blocks = twistor._box_pairings(pairing_rows(U3, TRIPLE)[0], 2)
            assert len(list(blocks)) == 25

        def collinear(t, d):
            return (any(t) and t[1] * d[2] == t[2] * d[1]
                    and t[2] * d[0] == t[0] * d[2] and t[0] * d[1] == t[1] * d[0])

        for d in ((1, 2, 0), (2, -1, 1), (0, 0, -1), (3, 1, -2)):
            expected = next(
                v for v in itertools.product(range(-2, 3), repeat=6)
                if collinear((v[0] + v[1], v[2] + v[3], v[4] + v[5]), d))
            n = math.sqrt(sum(e * e for e in d))
            point = TwistorPoint.from_unit(*(e / n for e in d))
            assert is_general_type(U3, TRIPLE, point, bound=2).witness == expected

    def test_random_rational_rays_always_have_witness(self):
        rng = random.Random(33)
        for _ in range(30):
            ray = tuple(rng.randint(-6, 6) for _ in range(3))
            if ray == (0, 0, 0):
                continue
            point = TwistorPoint.from_ray(*ray)
            verdict = is_general_type(U3, TRIPLE, point)
            assert verdict.witness is not None
            self._check_witness(point, verdict.witness)

    def test_algebraic_points_not_general_type(self):
        rng = random.Random(34)
        for _ in range(30):
            v = tuple(rng.randint(-3, 3) for _ in range(6))
            if q_eval(U3, vector(v), vector(v)) <= 0:
                continue
            point = pi_map(U3, TRIPLE, v).point
            verdict = is_general_type(U3, TRIPLE, point)
            assert verdict.witness is not None

    def test_rejects_invalid_triple(self):
        bad = HyperTriple.from_rows([TRIPLE.w_i, TRIPLE.w_j, TRIPLE.w_j])
        for point in (TwistorPoint.from_ray(1, 1, 0),
                      TwistorPoint.from_unit(1.0, math.sqrt(2.0), 0.0)):
            with pytest.raises(InvalidTriple):
                is_general_type(U3, bad, point, bound=1)

    def test_k3_exact_mode(self):
        point = TwistorPoint.from_ray(1, 2, 3)
        verdict = is_general_type(K3, K3_TRIPLE, point)
        assert verdict.witness is not None
        coeffs = project_to_V(K3, K3_TRIPLE, vector(verdict.witness))
        assert coeffs != (0, 0, 0)


class TestStereographic:
    def test_north_pole(self):
        z = stereographic(TwistorPoint.from_ray(1, 0, 0))
        assert math.isinf(z.real)

    def test_south_pole(self):
        assert stereographic(TwistorPoint.from_ray(-1, 0, 0)) == 0

    def test_equator(self):
        assert abs(stereographic(TwistorPoint.from_ray(0, 1, 0)) - 1) < 1e-12

    def test_round_trip(self):
        rng = random.Random(41)
        for _ in range(1000):
            v = [rng.gauss(0, 1) for _ in range(3)]
            p = TwistorPoint.from_unit(*v)
            back = stereographic_inverse(stereographic(p))
            assert max(abs(a - b) for a, b in zip(p.unit, back.unit)) < 1e-12

    def test_round_trip_at_infinity(self):
        assert stereographic_inverse(stereographic(
            TwistorPoint.from_ray(1, 0, 0))).dir == (1, 0, 0)


class TestAntipode:
    def test_negates_ray(self):
        assert antipode(TwistorPoint.from_ray(1, 0, 0)).dir == (-1, 0, 0)

    def test_involution(self):
        p = TwistorPoint.from_ray(2, -3, 1)
        assert antipode(antipode(p)) == p

    def test_omega_negates(self):
        p = TwistorPoint.from_ray(1, 2, 0)
        w = omega_of(TRIPLE, p)
        w_neg = omega_of(TRIPLE, antipode(p))
        assert tuple(-e for e in w) == w_neg

    def test_hodge_type_agrees(self):
        rng = random.Random(42)
        p = TwistorPoint.from_ray(3, 1, -2)
        q = antipode(p)
        for _ in range(100):
            x = tuple(rng.randint(-9, 9) for _ in range(6))
            assert hodge_type_11(U3, TRIPLE, x, p) == \
                hodge_type_11(U3, TRIPLE, x, q)
