import dataclasses
import hashlib
import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twistorlat import (
    DimensionMismatch,
    GramLattice,
    HyperTriple,
    InvalidBound,
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
from twistorlat import box, twistor
from twistorlat.linalg import integer_kernel, pairing_rows, signature

from support import (
    K3_INTERLEAVED,
    conjugate_gram,
    dot_rows,
    permute_coordinates,
    random_positive_class,
    random_rational_vector,
    random_unimodular,
    rref,
)

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
        ((1.0, math.inf, 0.0), "inf")])
    def test_unit_needs_finite_nonzero_norm(self, unit, norm):
        with pytest.raises(InvariantViolation, match=f"is not a direction: norm {norm}$"):
            TwistorPoint.from_unit(*unit)

    @pytest.mark.parametrize("unit,want", [
        ((1e200, 0.0, 0.0), (1.0, 0.0, 0.0)), ((1e-200, 0.0, 0.0), (1.0, 0.0, 0.0)),
        ((0.0, -5e-324, 0.0), (0.0, -1.0, 0.0)),
        ((3e300, 0.0, -4e300), (0.6, 0.0, -0.8)),
        ((1e308, 1e308, 0.0), (math.sqrt(0.5), math.sqrt(0.5), 0.0))])
    def test_huge_and_tiny_units_accepted(self, unit, want):
        # |x|^2 over- or underflows a float: the direction is scaled first
        got = TwistorPoint.from_unit(*unit).unit
        assert max(abs(a - b) for a, b in zip(got, want)) < 1e-15

    @given(st.tuples(*[st.floats(-1e100, 1e100)] * 3).filter(any))
    def test_unit_unchanged_where_the_norm_is_a_float(self, unit):
        x, y, z = unit
        n = math.sqrt(x * x + y * y + z * z)
        if 0.0 < n:
            assert TwistorPoint.from_unit(*unit).unit == (x / n, y / n, z / n)

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


@pytest.mark.parametrize("call,text", [
    (lambda: is_general_type(K3, K3_TRIPLE, None), "point = None is not a TwistorPoint"),
    (lambda: is_general_type(U3, TRIPLE, (1.0, 0.0, 0.0), bound=1),
     "point = (1.0, 0.0, 0.0) is not a TwistorPoint"),
    (lambda: hodge_type_11(U3, TRIPLE, [1, 0, 0, 0, 0, 0], None),
     "point = None is not a TwistorPoint"),
    (lambda: stereographic(None), "point = None is not a TwistorPoint"),
    (lambda: antipode((1, 2, 3)), "point = (1, 2, 3) is not a TwistorPoint"),
    (lambda: omega_of(TRIPLE, 5), "point = 5 is not a TwistorPoint"),
    (lambda: two_zero_plane(TRIPLE, None), "point = None is not a TwistorPoint"),
    (lambda: stereographic_inverse("x"), "zeta = 'x' is not a Complex"),
    (lambda: stereographic_inverse(None), "zeta = None is not a Complex"),
    (lambda: signature(None), "lattice = None is not a GramLattice"),
    (lambda: pi_map(None, TRIPLE, [1, 0, 0, 0, 0, 0]), "lattice = None is not a GramLattice"),
    # unhashable: the cache's hash fails before its body runs
    (lambda: signature([[1]]), "lattice = [[1]] is not a GramLattice"),
    (lambda: signature({}), "lattice = {} is not a GramLattice"),
    (lambda: pi_map([[1]], TRIPLE, [1, 0, 0, 0, 0, 0]), "lattice = [[1]] is not a GramLattice"),
], ids=["general_type_exact", "general_type_bounded", "hodge_type_11", "stereographic",
        "antipode", "omega_of", "two_zero_plane", "stereographic_inverse_str",
        "stereographic_inverse_none", "signature", "pi_map_lattice", "signature_list",
        "signature_dict", "pi_map_unhashable_lattice"])
def test_object_of_the_wrong_kind_is_refused(call, text):
    # a DimensionMismatch that names the argument, never a bare AttributeError
    with pytest.raises(DimensionMismatch) as info:
        call()
    assert str(info.value) == text


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
        assert verdict.witness is None
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
        # it, also when H- is searched in 13 blocks
        if block_bytes:
            monkeypatch.setattr(box, "BLOCK_BYTES", block_bytes)
            blocks = box.box_pairings(pairing_rows(U3, TRIPLE)[0], 2).blocks
            assert len(list(blocks)) == 13

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

    @pytest.mark.parametrize("point", [TwistorPoint.from_ray(1, 1, 0),
                                       TwistorPoint.from_unit(1.0, 0.5, 0.0)])
    def test_bound_below_one(self, point):
        with pytest.raises(InvalidBound, match="bound must be >= 1"):
            is_general_type(U3, TRIPLE, point, bound=0)

    def test_frozen_witnesses(self):
        # the exact witness of every nonzero ray of [-3, 3]^3 on K3, U3 and
        # diag222, as the full-vector greedy reduction gave them
        witnesses = [is_general_type(lattice, triple, TwistorPoint.from_ray(*ray)).witness
                     for lattice, triple in map(load_lattice, ("K3", "U3", "diag222"))
                     for ray in itertools.product(range(-3, 4), repeat=3) if any(ray)]
        assert len(witnesses) == 1026
        assert (hashlib.sha256(repr(witnesses).encode()).hexdigest()
                == "8e78a2fe6e611e9a2db3682538e0b8479343195b2373e92e59737ec4f7aaaa85")

    def test_frozen_bounded_witnesses(self):
        # the bounded witness of seeded Gaussian directions and of the
        # float images of pi_map rays of seeded box vectors, as the walk of
        # the full box in lexicographic order gave them
        rng = random.Random(41)
        witnesses = []
        for name, bound in (("U3", 2), ("U3", 3), ("diag222", 3)):
            lattice, triple = load_lattice(name)
            units = [[rng.gauss(0.0, 1.0) for _ in range(3)] for _ in range(50)]
            while len(units) < 100:
                v = [rng.randint(-bound, bound) for _ in range(lattice.rank)]
                if q_eval(lattice, vector(v), vector(v)) > 0:
                    units.append(pi_map(lattice, triple, v).point.dir)
            witnesses += [is_general_type(lattice, triple, TwistorPoint.from_unit(*u),
                                          bound).witness for u in units]
        assert sum(w is not None for w in witnesses) == 150
        assert (hashlib.sha256(repr(witnesses).encode()).hexdigest()
                == "b64bee38d7c9f2f33a118d61ab49547dcff8fdce31836725c11e5397c2e2a166")

    def test_k3_exact_mode(self):
        point = TwistorPoint.from_ray(1, 2, 3)
        verdict = is_general_type(K3, K3_TRIPLE, point)
        assert verdict.witness is not None
        coeffs = project_to_V(K3, K3_TRIPLE, vector(verdict.witness))
        assert coeffs != (0, 0, 0)


def reference_reduce_witness(w, others, rows):
    """Greedy infinity-norm reduction of a kernel vector by the rest of
    the kernel basis; stays inside the kernel lattice and keeps the
    projection (computed via the integer pairing rows) nonzero."""
    w = list(w)

    def norm(v):
        return max(abs(e) for e in v)

    improved = True
    while improved:
        improved = False
        for b in others:
            bb = sum(e * e for e in b)
            if bb == 0:
                continue
            wb = sum(a * e for a, e in zip(w, b))
            k0 = (2 * wb + bb) // (2 * bb)  # round(wb / bb)
            for k in (k0 - 1, k0, k0 + 1):
                if k == 0:
                    continue
                cand = [wi - k * bi for wi, bi in zip(w, b)]
                if norm(cand) < norm(w) and any(dot_rows(rows, cand)):
                    w = cand
                    improved = True
    return tuple(w)


def assert_reference_witness(lattice, triple, ray):
    """is_general_type, and _reduce_witness on each vector of the kernel it
    builds, give what the full-vector greedy reduction gives."""
    point = TwistorPoint.from_ray(*ray)
    rows, _ = pairing_rows(lattice, triple)
    kernel = integer_kernel(zip(*(twistor._cross(col, point.dir) for col in zip(*rows))))
    steps = twistor._kernel_steps(kernel, rows, point.dir)
    candidates = []
    for i, (v, _, _, lam) in enumerate(steps):
        if any(dot_rows(rows, v)):
            candidates.append(reference_reduce_witness(v, kernel[:i] + kernel[i + 1:], rows))
            assert twistor._reduce_witness(v, lam, steps[:i] + steps[i + 1:]) == candidates[-1]
    expected = min(candidates, key=lambda v: (max(abs(e) for e in v), v))
    assert is_general_type(lattice, triple, point).witness == expected


def conjugated(lattice, triple, rng):
    """The lattice and triple in the basis of a random unimodular u: Gram
    u^T G u, triple vectors u^-1 w (the last columns of rref [u | w...])."""
    n = lattice.rank
    u = random_unimodular(rng, n, steps=10 * n)
    reduced, _ = rref([row + [w[i] for w in triple.vectors] for i, row in enumerate(u)])
    return (GramLattice.from_rows(conjugate_gram(lattice.gram, u)),
            HyperTriple.from_rows(list(zip(*reduced))[n:]))


RAYS = st.tuples(*[st.integers(-6, 6)] * 3).filter(any)


class TestReduceWitness:
    @given(ray=st.tuples(*[st.integers(-10 ** 6, 10 ** 6)] * 3).filter(any))
    def test_large_rays_on_k3(self, ray):
        assert_reference_witness(K3, K3_TRIPLE, ray)

    @settings(max_examples=20)
    @given(name=st.sampled_from(["U3", "K3"]), rng=st.randoms(use_true_random=False),
           ray=RAYS)
    def test_unimodular_basis_change(self, name, rng, ray):
        # dense kernel vectors: the support rule rarely skips a step
        assert_reference_witness(*conjugated(*load_lattice(name), rng), ray)

    @example(perm=K3_INTERLEAVED, ray=(1, 2, 3))
    @given(perm=st.permutations(range(22)), ray=RAYS)
    def test_k3_dead_coordinates_interleaved(self, perm, ray):
        # dead coordinates between live ones: the kernel's placeholders
        # move the live columns, and is_general_type drops dead vectors
        gram, vectors = permute_coordinates(K3.gram, K3_TRIPLE.vectors, perm)
        assert_reference_witness(GramLattice.from_rows(gram),
                                 HyperTriple.from_rows(vectors), ray)

    @given(name=st.sampled_from(["U3", "K3"]), ray=RAYS)
    def test_halved_triple(self, name, ray):
        lattice, triple = load_lattice(name)
        half = HyperTriple.from_rows([[e / 2 for e in w] for w in triple.vectors])
        assert_reference_witness(lattice, half, ray)

    @given(name=st.sampled_from(["U3", "K3", "diag222"]),
           ray=st.tuples(*[st.integers(-10 ** 6, 10 ** 6)] * 3).filter(any))
    def test_kernel_pairings_are_lambda_times_the_ray(self, name, ray):
        # rows . b = lambda_b d exactly for every kernel vector b: the one
        # integer that the reduction carries in place of rows . b
        lattice, triple = load_lattice(name)
        d = TwistorPoint.from_ray(*ray).dir
        rows, _ = pairing_rows(lattice, triple)
        kernel = integer_kernel(zip(*(twistor._cross(col, d) for col in zip(*rows))))
        for b, _, _, lam in twistor._kernel_steps(kernel, rows, d):
            assert dot_rows(rows, b) == tuple(lam * e for e in d)

    def test_a_dir_built_directly_is_read_as_its_ray(self):
        # lambda_b is an integer only for a primitive ray, and a zero dir has none
        point = TwistorPoint.from_ray(1, 2, 3)
        multiple = TwistorPoint(dir=(2, 4, 6), unit=point.unit)
        for lattice, triple in ((U3, TRIPLE), (K3, K3_TRIPLE)):
            assert (is_general_type(lattice, triple, multiple).witness
                    == is_general_type(lattice, triple, point).witness)
        with pytest.raises(InvariantViolation, match="zero ray is not a twistor point"):
            is_general_type(U3, TRIPLE, TwistorPoint(dir=(0, 0, 0), unit=point.unit))


class TestTripleHash:
    def test_warm_kernel_hashes_no_fraction(self, monkeypatch):
        pairing_rows(K3, K3_TRIPLE)
        calls = []
        fraction_hash = Fraction.__hash__

        def counting_hash(self):
            calls.append(self)
            return fraction_hash(self)

        monkeypatch.setattr(Fraction, "__hash__", counting_hash)
        pairing_rows(K3, K3_TRIPLE)
        assert calls == []

    def test_equal_rows_equal_hash_and_frozen(self):
        rows = [[1, Fraction(1, 2), 0], [0, 1, 0], ["2/3", 0, 1]]
        a, b = HyperTriple.from_rows(rows), HyperTriple.from_rows(rows)
        assert a == b and hash(a) == hash(b)
        with pytest.raises(dataclasses.FrozenInstanceError):
            a.w_i = b.w_j


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

    @pytest.mark.parametrize("zeta", [
        complex(1e150, 0), complex(1e200, 0), complex(0, 1e155),
        complex(-1e308, 1e308)])
    def test_huge_zeta_is_next_to_the_north_pole(self, zeta):
        # |zeta|^2 overflows a float for all but the first
        x, y, z = stereographic_inverse(zeta).unit
        assert x == 1.0 and abs(y) < 1e-149 and abs(z) < 1e-149

    def test_nan_is_no_point(self):
        with pytest.raises(InvariantViolation):
            stereographic_inverse(complex(math.nan, 0))


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
