import random
import re
import tracemalloc
from fractions import Fraction
from math import gcd as gcd_int

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from twistorlat import (
    DimensionMismatch,
    GramLattice,
    HyperTriple,
    InvalidTriple,
    NotSymmetric,
    TwistorLatticeError,
    TwistorPoint,
    hodge_type_11,
    integer_kernel,
    load_lattice,
    perp_V_basis,
    pi_map,
    project_to_V,
    q_eval,
    signature,
    vector,
)
from twistorlat.linalg import expand_in_V, pairing_rows

from support import (
    K3_INTERLEAVED,
    conjugate_gram,
    in_integer_span,
    permute_coordinates,
    random_rational_vector,
    random_unimodular,
    rational_rank,
    reference_integer_kernel,
    reference_q_eval,
    reference_signature,
)

U3, U3_TRIPLE = load_lattice("U3")
K3, K3_TRIPLE = load_lattice("K3")
D222, D222_TRIPLE = load_lattice("diag222")


@st.composite
def q_eval_inputs(draw):
    """(gram, x, y): a symmetric Gram, sparse with zero rows or dense, and
    x and y of ints, Fractions or both, with y drawn or y being x."""
    r = draw(st.integers(1, 8))
    sparse = draw(st.booleans())
    entries = st.sampled_from([0, 0, 0, 0, 1, -1, 2, -3]) if sparse else st.integers(-9, 9)
    gram = [[0] * r for _ in range(r)]
    for i in range(r):
        for j in range(i, r):
            gram[i][j] = gram[j][i] = draw(entries)
    if sparse:
        for i in draw(st.sets(st.integers(0, r - 1))):
            for j in range(r):
                gram[i][j] = gram[j][i] = 0
    numbers = draw(st.sampled_from([
        st.integers(-10 ** 6, 10 ** 6),
        st.fractions(-50, 50, max_denominator=9),
        st.one_of(st.integers(-50, 50), st.fractions(-50, 50, max_denominator=9))]))
    entry = st.one_of(st.just(0), numbers)
    x = tuple(draw(st.lists(entry, min_size=r, max_size=r)))
    y = x if draw(st.booleans()) else tuple(draw(st.lists(entry, min_size=r, max_size=r)))
    return gram, x, y


class TestQEval:
    def test_u3_hyperbolic(self):
        x = vector([1, 1, 0, 0, 0, 0])
        assert q_eval(U3, x, x) == 2

    def test_zero_vector(self):
        x = vector([0] * 6)
        y = vector([3, 1, 4, 1, 5, 9])
        assert q_eval(U3, x, y) == 0

    def test_orthogonal_pair(self):
        x = vector([1, -1, 0, 0, 0, 0])
        y = vector([1, 1, 0, 0, 0, 0])
        assert q_eval(U3, x, y) == 0

    def test_symmetry_random(self):
        rng = random.Random(11)
        for _ in range(50):
            x = random_rational_vector(rng, 6)
            y = random_rational_vector(rng, 6)
            assert q_eval(U3, x, y) == q_eval(U3, y, x)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            q_eval(U3, vector([1, 2]), vector([0] * 6))

    @pytest.mark.parametrize("x,y,named", [
        ((None,) * 6, (None,) * 6, "x[0] = None"),
        (("x",) * 6, ("x",) * 6, "x[0] = 'x'"),
        (("1",) * 6, ("1",) * 6, "x[0] = '1'"),
        ((1,) * 6, (1, 1, 1, 1, 1, None), "y[5] = None"),
        # no nonzero Gram entry of row 0 reads y[0]: refused all the same
        ((1, 0, 0, 0, 0, 0), (None, 0, 0, 0, 0, 0), "y[0] = None"),
        # a float sum was taken as the Fraction of its binary value
        ((1, 0, 0, 0, 0, 0), (0, 0.5, 0, 0, 0, 0), "y[1] = 0.5")])
    def test_non_number_entry_is_named(self, x, y, named):
        # None does not multiply and an int times a string repeats it: both
        # raised a bare TypeError
        with pytest.raises(TwistorLatticeError,
                           match=re.escape(f"q_eval entry {named} is not a rational")):
            q_eval(U3, x, y)

    @pytest.mark.parametrize("x,y,named", [
        (5, 5, "x = 5"),
        (None, None, "x = None"),
        (iter((1,) * 6), iter((1,) * 6), "x = <tuple_iterator"),
        ((1,) * 6, iter((1,) * 6), "y = <tuple_iterator"),
        # its entries are ints: it gave 15928
        (b"123456", b"123456", "x = b'123456'"),
        ((1,) * 6, b"123456", "y = b'123456'"),
        ((1,) * 6, np.array(3), "y = array(3)")])
    def test_non_sequence_is_refused(self, x, y, named):
        # a number, None and an iterator raised a bare TypeError from len()
        with pytest.raises(DimensionMismatch, match=re.escape(named)):
            q_eval(U3, x, y)

    def test_string_is_refused_before_it_multiplies(self):
        # 'a' * 10**6 built a 1 MB string before the sum failed
        tracemalloc.start()
        try:
            with pytest.raises(TwistorLatticeError, match=re.escape("x[0] = 'a'")):
                q_eval(U3, ("a",) * 6, (10 ** 6,) * 6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 << 10

    @given(q_eval_inputs())
    def test_q_eval_matches_dense_reference(self, inputs):
        gram, x, y = inputs
        value = q_eval(GramLattice.from_rows(gram), x, y)
        assert type(value) is Fraction and value == reference_q_eval(gram, x, y)

    def test_integer_and_rational_vectors_agree(self):
        rng = random.Random(7)
        for _ in range(20):
            x = tuple(rng.randint(-9, 9) for _ in range(22))
            assert q_eval(K3, x, x) == q_eval(K3, vector(x), vector(x))
            assert isinstance(q_eval(K3, x, x), Fraction)


# a set of six ints: its order is not the order it was written in
SIX = {3, 1, 2, 5, 4, 6}


class TestVector:
    @pytest.mark.parametrize("call,named", [
        (lambda: vector(5), "vector = 5"),
        (lambda: integer_kernel([1, 2, 3]), "kernel row 0 = 1"),
        (lambda: integer_kernel(7), "kernel rows = 7"),
        (lambda: pi_map(U3, U3_TRIPLE, 5), "omega = 5"),
        (lambda: hodge_type_11(U3, U3_TRIPLE, 5, TwistorPoint.from_ray(1, 0, 0)), "x = 5"),
        (lambda: vector({1, 2}), "vector = {1, 2}"),
        (lambda: q_eval(U3, SIX, SIX), f"x = {SIX!r}"),
        (lambda: q_eval(U3, tuple(SIX), SIX), f"y = {SIX!r}"),
        (lambda: pi_map(U3, U3_TRIPLE, SIX), f"omega = {SIX!r}"),
        (lambda: project_to_V(U3, U3_TRIPLE, dict.fromkeys(SIX, 1)),
         f"x = {dict.fromkeys(SIX, 1)!r}"),
        (lambda: hodge_type_11(U3, U3_TRIPLE, SIX, TwistorPoint.from_ray(1, 0, 0)),
         f"x = {SIX!r}"),
        (lambda: HyperTriple.from_rows([SIX] * 3), f"triple vector 0 = {SIX!r}"),
        (lambda: GramLattice.from_rows([{2}]), "gram row 0 = {2}"),
        (lambda: integer_kernel([{1, 2}]), "kernel row 0 = {1, 2}"),
        (lambda: integer_kernel({(1, 2)}), "kernel rows = {(1, 2)}"),
        (lambda: vector(np.array(5)), "vector = array(5)"),
        (lambda: pi_map(U3, U3_TRIPLE, np.array(5)), "omega = array(5)"),
        (lambda: hodge_type_11(U3, U3_TRIPLE, np.array(5), TwistorPoint.from_ray(1, 0, 0)),
         "x = array(5)")],
        ids=["vector", "kernel_row", "kernel_rows", "pi_map", "hodge_type_11", "vector_set",
             "q_eval_set", "q_eval_set_y", "pi_map_set", "project_to_V_dict",
             "hodge_type_11_set", "triple_set", "gram_row_set", "kernel_row_set",
             "kernel_rows_set", "vector_zero_dim", "pi_map_zero_dim", "hodge_type_11_zero_dim"])
    def test_non_sequence_is_a_dimension_mismatch(self, call, named):
        # a number where a vector or matrix is expected raised a bare
        # TypeError, "'int' object is not iterable", as did a 0-d array,
        # "iteration over a 0-d array"; a set or mapping was read in its
        # own order (q_eval: "'set' object is not subscriptable")
        with pytest.raises(DimensionMismatch, match=f"^{re.escape(named)} is not a sequence$"):
            call()

    @pytest.mark.parametrize("entry", [1, Fraction(1, 2), "1/2", "-3", np.int64(2)])
    def test_rationals_accepted(self, entry):
        assert vector([entry]) == (Fraction(entry),)

    @pytest.mark.parametrize("omega", [
        np.array([2 ** 40, 2 ** 40, 0, 0, 0, 0]),
        np.array([2 ** 30, 2 ** 30, 0, 0, 0, 0], dtype=np.int32),
        [Fraction(np.int64(2 ** 40)), Fraction(np.int64(2 ** 41), np.int64(2)), 0, 0, 0, 0]],
        ids=["int64", "int32", "fraction_of_int64"])
    def test_numpy_ints_are_cast_to_int(self, omega):
        # q = 2 * 2^40 * 2^40 wrapped in int64 to 0, and pi_map raised
        # NotPositive "q = 0" for a positive class
        ints = tuple(int(e) for e in omega)
        vec = vector(omega)
        assert vec == vector(ints)
        assert all(type(e.numerator) is int and type(e.denominator) is int for e in vec)
        assert q_eval(U3, vec, vec) == q_eval(U3, ints, ints) == 2 * ints[0] * ints[1]
        point = pi_map(U3, U3_TRIPLE, omega).point
        assert pi_map(U3, U3_TRIPLE, omega) == pi_map(U3, U3_TRIPLE, ints)
        assert hodge_type_11(U3, U3_TRIPLE, omega, point)
        if isinstance(omega, np.ndarray):
            assert q_eval(U3, omega, omega) == q_eval(U3, omega, ints) == 2 * ints[0] * ints[1]

    @pytest.mark.parametrize("fractions,ints", [
        ((Fraction(np.int64(2 ** 40)),) * 2 + (0,) * 4, (2 ** 40, 2 ** 40, 0, 0, 0, 0)),
        # a numpy int denominator, and a zero numpy numerator: its product
        # would turn the int sum into an int64 one
        ((Fraction(2 ** 41, np.int64(2)), Fraction(np.int64(0)), Fraction(3), 0, 0, 0),
         (2 ** 40, 0, 3, 0, 0, 0))],
        ids=["numerators", "denominator_and_zero"])
    def test_fractions_of_numpy_ints_are_cast_to_int(self, fractions, ints):
        # q_eval took a Fraction entry as it is, so a Fraction of an int64
        # kept int64 arithmetic: q(x, x) of the first wrapped to 0 with an
        # overflow RuntimeWarning
        other = (2 ** 40, 2 ** 40, 5, 7, 0, 1)
        assert q_eval(U3, fractions, fractions) == q_eval(U3, ints, ints)  # x as y
        assert q_eval(U3, fractions, other) == q_eval(U3, ints, other)  # x
        assert q_eval(U3, other, fractions) == q_eval(U3, other, ints)  # y

    @pytest.mark.parametrize("entry", ["x", None, True, 0.5, "1/0"])
    def test_non_rational_entry_rejected(self, entry):
        # a float used to be taken as a binary fraction and a bool as 1;
        # "x" raised ValueError and None TypeError
        message = f"cannot parse rational entry {entry!r}"
        omega = [entry, 1, 1, 1, 0, 0]
        with pytest.raises(TwistorLatticeError, match=re.escape(message)):
            pi_map(U3, U3_TRIPLE, omega)
        with pytest.raises(TwistorLatticeError, match=re.escape(message)):
            hodge_type_11(U3, U3_TRIPLE, omega, TwistorPoint.from_ray(1, 0, 0))
        with pytest.raises(TwistorLatticeError, match=re.escape(message)):
            HyperTriple.from_rows([omega, U3_TRIPLE.w_j, U3_TRIPLE.w_k])


@st.composite
def symmetric_matrices(draw):
    """u^T g u for a k x k symmetric g (zero diagonal half the time) and a
    k x r u, so rank <= k; half the time u only copies or drops coordinates
    of g, which keeps its zero diagonal."""
    r = draw(st.integers(1, 7))
    k = draw(st.integers(0, r))
    zero_diagonal = draw(st.booleans())
    g = [[0] * k for _ in range(k)]
    for i in range(k):
        for j in range(i if not zero_diagonal else i + 1, k):
            g[i][j] = g[j][i] = draw(st.integers(-3, 3))
    if draw(st.booleans()):
        source = draw(st.lists(st.integers(-1, k - 1), min_size=r, max_size=r))
        u = [[int(source[j] == i) for j in range(r)] for i in range(k)]
    else:
        u = [draw(st.lists(st.integers(-2, 2), min_size=r, max_size=r)) for _ in range(k)]
    return [[sum(u[a][i] * g[a][b] * u[b][j] for a in range(k) for b in range(k))
             for j in range(r)] for i in range(r)]


class TestSignature:
    @given(symmetric_matrices())
    def test_matches_reference(self, gram):
        lat = GramLattice.from_rows(gram)
        assert signature(lat).as_tuple() == reference_signature(gram)

    def test_u3(self):
        assert signature(U3).as_tuple() == (3, 3, 0)

    def test_diag222(self):
        assert signature(D222).as_tuple() == (3, 0, 0)

    def test_k3(self):
        assert signature(K3).as_tuple() == (3, 19, 0)

    def test_against_eigenvalue_oracle(self):
        for lat in (U3, K3, D222):
            eig = np.linalg.eigvalsh(np.array(lat.gram, dtype=float))
            oracle = (int(np.sum(eig > 1e-9)), int(np.sum(eig < -1e-9)),
                      int(np.sum(np.abs(eig) <= 1e-9)))
            assert signature(lat).as_tuple() == oracle

    def test_degenerate(self):
        lat = GramLattice.from_rows([[0, 0], [0, 1]])
        assert signature(lat).as_tuple() == (1, 0, 1)

    def test_zero_diagonal_block(self):
        lat = GramLattice.from_rows([[0, 1], [1, 0]])
        assert signature(lat).as_tuple() == (1, 1, 0)

    def test_sylvester_stability(self):
        rng = random.Random(3)
        for _ in range(10):
            u = random_unimodular(rng, 6)
            lat = GramLattice.from_rows(conjugate_gram([list(r) for r in U3.gram], u))
            assert signature(lat).as_tuple() == (3, 3, 0)

    def test_not_symmetric_rejected(self):
        with pytest.raises(NotSymmetric):
            GramLattice.from_rows([[1, 2], [3, 1]])

    @pytest.mark.parametrize("entry", [1.5, 2.0, "a", "1", True, Fraction(1)])
    def test_non_integer_gram_entry_rejected(self, entry):
        # int(1.5) would silently give another lattice
        with pytest.raises(TwistorLatticeError, match=r"gram entry \(0, 1\) = "):
            GramLattice.from_rows([[0, entry], [entry, 0]])


class TestProjection:
    def test_fixes_triple_vector(self):
        assert project_to_V(U3, U3_TRIPLE, U3_TRIPLE.w_i) == (1, 0, 0)

    def test_perp_vector_kills(self):
        x = vector([1, -1, 0, 0, 0, 0])
        assert project_to_V(U3, U3_TRIPLE, x) == (0, 0, 0)

    def test_mixed_vector(self):
        x = vector([1, 1, 1, 0, 0, 0])
        assert project_to_V(U3, U3_TRIPLE, x) == (1, Fraction(1, 2), 0)

    def test_idempotence(self):
        rng = random.Random(5)
        for _ in range(30):
            x = random_rational_vector(rng, 6)
            coeffs = project_to_V(U3, U3_TRIPLE, x)
            px = expand_in_V(U3_TRIPLE, coeffs)
            assert project_to_V(U3, U3_TRIPLE, px) == coeffs

    def test_residual_orthogonality(self):
        rng = random.Random(6)
        for _ in range(30):
            x = random_rational_vector(rng, 6)
            coeffs = project_to_V(U3, U3_TRIPLE, x)
            px = expand_in_V(U3_TRIPLE, coeffs)
            resid = tuple(a - b for a, b in zip(x, px))
            for w in U3_TRIPLE.vectors:
                assert q_eval(U3, resid, w) == 0

    @pytest.mark.parametrize("lattice,triple", [(U3, U3_TRIPLE), (K3, K3_TRIPLE),
                                                (D222, D222_TRIPLE)])
    def test_pairing_rows_of_builtins(self, lattice, triple):
        # primitive integer rows and a positive scale with
        # scale * rows[a][i] = q(e_i, w_a) / q(w_a, w_a): exactly one such pair
        rows, scale = pairing_rows(lattice, triple)
        assert scale > 0 and gcd_int(*(e for row in rows for e in row)) == 1
        norm = q_eval(lattice, triple.w_i, triple.w_i)
        basis = np.eye(lattice.rank, dtype=int).tolist()
        assert [[scale * e for e in row] for row in rows] == [
            [q_eval(lattice, e, w) / norm for e in basis] for w in triple.vectors]

    def test_float_entry_rejected(self):
        # exact coordinates only: 1.5 is not rounded to 3/2
        with pytest.raises(TwistorLatticeError, match="cannot parse rational entry 1.5"):
            project_to_V(U3, U3_TRIPLE, (1.5, 0, 0, 0, 0, 0))
        assert project_to_V(U3, U3_TRIPLE, ("3/2", 0, 0, 0, 0, 0)) == (Fraction(3, 4), 0, 0)

    def test_expand_needs_three_exact_coefficients(self):
        with pytest.raises(TwistorLatticeError, match="cannot parse rational entry 1.5"):
            expand_in_V(U3_TRIPLE, (1.5, 0, 0))
        for coeffs in ((1, 0), (1, 0, 0, 0)):
            with pytest.raises(DimensionMismatch,
                               match=f"expand_in_V needs 3 coefficients, got {len(coeffs)}"):
                expand_in_V(U3_TRIPLE, coeffs)
        assert expand_in_V(U3_TRIPLE, ("3/2", 0, 0)) == vector(["3/2", "3/2", 0, 0, 0, 0])

    def test_invalid_triple(self):
        bad = HyperTriple.from_rows([
            [1, 1, 0, 0, 0, 0],
            [0, 0, 1, 1, 0, 0],
            [0, 0, 1, 0, 0, 1],  # not orthogonal to w_J
        ])
        with pytest.raises(InvalidTriple):
            project_to_V(U3, bad, vector([1, 0, 0, 0, 0, 0]))

    @pytest.mark.parametrize("call,message", [
        (lambda: HyperTriple.from_rows(U3_TRIPLE.vectors[:2]), "exactly three vectors"),
        (lambda: HyperTriple.from_rows([w[:5] for w in U3_TRIPLE.vectors]).validate(U3),
         "triple vector length differs from rank"),
        # q(w_i, w_i) = -2
        (lambda: HyperTriple.from_rows([[1, -1, 0, 0, 0, 0]] + list(U3_TRIPLE.vectors[1:]))
         .validate(U3), "triple vectors must have positive norm"),
    ])
    def test_malformed_triple(self, call, message):
        with pytest.raises(InvalidTriple, match=message):
            call()


@st.composite
def kernel_matrices(draw):
    """m x n integer matrices, m in 0..5 and n in 0..10, with entries up
    to 10^40 and zero columns interleaved with the others."""
    m, n = draw(st.integers(0, 5)), draw(st.integers(0, 10))
    live = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    bound = draw(st.sampled_from([1, 3, 10 ** 6, 10 ** 40]))
    entry = st.just(0) | st.integers(-bound, bound)
    return [[draw(entry) if c else 0 for c in live] for _ in range(m)]


class TestIntegerKernel:
    @given(kernel_matrices())
    def test_matches_reference(self, rows):
        # the same vectors in the same order with the same signs: the
        # witnesses follow the basis order
        assert integer_kernel(rows) == reference_integer_kernel(rows)

    @example(perm=K3_INTERLEAVED)
    @given(perm=st.permutations(range(22)))
    def test_perp_basis_on_interleaved_k3(self, perm):
        # zero columns between live ones: a placeholder moved by a swap
        # reorders the live columns, as in the full reduction
        gram, vectors = permute_coordinates(K3.gram, K3_TRIPLE.vectors, perm)
        lattice, triple = GramLattice.from_rows(gram), HyperTriple.from_rows(vectors)
        rows = pairing_rows(lattice, triple)[0]
        assert perp_V_basis(lattice, triple) == reference_integer_kernel(rows)

    def test_identity_empty(self):
        assert integer_kernel([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == []

    def test_difference_row(self):
        assert integer_kernel([[1, -1]]) == [(1, 1)]

    def test_saturation_2_4(self):
        basis = integer_kernel([[2, 4]])
        assert len(basis) == 1
        assert basis[0] in ((2, -1), (-2, 1))

    def test_random_matrices(self):
        rng = random.Random(9)
        for _ in range(40):
            rows = [[rng.randint(-4, 4) for _ in range(5)]
                    for _ in range(rng.randint(1, 4))]
            basis = integer_kernel(rows)
            # every basis vector solves the system
            for v in basis:
                for r in rows:
                    assert sum(a * b for a, b in zip(r, v)) == 0
            # dimension matches the rational kernel
            assert len(basis) == 5 - rational_rank(rows)
            # basis is linearly independent
            if basis:
                assert rational_rank(basis) == len(basis)

    def test_saturation_gcd(self):
        from math import gcd
        rng = random.Random(10)
        for _ in range(40):
            rows = [[rng.randint(-4, 4) for _ in range(5)]
                    for _ in range(2)]
            for v in integer_kernel(rows):
                g = 0
                for e in v:
                    g = gcd(g, abs(e))
                assert g == 1

    def test_numpy_ints_give_the_int_basis(self):
        rng = random.Random(11)
        for _ in range(20):
            rows = [[rng.randint(-4, 4) for _ in range(6)] for _ in range(rng.randint(1, 4))]
            basis = integer_kernel(np.array(rows, dtype=np.int64))
            assert basis == integer_kernel(rows)
            assert all(type(e) is int for v in basis for e in v)

    @pytest.mark.parametrize("entry", [1.5, 2.0, "2", True])
    def test_non_integer_entry_rejected(self, entry):
        # int(1.5) would silently give the kernel of another matrix
        with pytest.raises(TwistorLatticeError, match=r"kernel entry \(0, 0\) = "):
            integer_kernel([[entry, 2]])

    def test_saturation_against_rational_kernel(self):
        # every integral point of the rational kernel must be an integer
        # combination of the computed basis
        from support import rref
        rng = random.Random(13)
        for _ in range(30):
            rows = [[rng.randint(-3, 3) for _ in range(4)]
                    for _ in range(2)]
            basis = integer_kernel(rows)
            red, pivots = rref(rows)
            free = [c for c in range(4) if c not in pivots]
            for f in free:
                # back-substitute a kernel vector with free coordinate 1
                v = [Fraction(0)] * 4
                v[f] = Fraction(1)
                for row, p in zip(red, pivots):
                    v[p] = -row[f]
                scale = 1
                for e in v:
                    scale = scale * e.denominator // gcd_int(scale, e.denominator)
                iv = [int(e * scale) for e in v]
                g = 0
                for e in iv:
                    g = gcd_int(g, abs(e))
                iv = [e // g for e in iv]
                assert in_integer_span(basis, iv)


class TestPerpBasis:
    def test_u3_double_inclusion(self):
        basis = perp_V_basis(U3, U3_TRIPLE)
        expected = [(1, -1, 0, 0, 0, 0), (0, 0, 1, -1, 0, 0),
                    (0, 0, 0, 0, 1, -1)]
        assert len(basis) == 3
        for v in expected:
            assert in_integer_span(basis, v)
        for v in basis:
            assert in_integer_span(expected, v)

    def test_diag222_empty(self):
        assert perp_V_basis(D222, D222_TRIPLE) == []

    def test_k3_negative_definite(self):
        basis = perp_V_basis(K3, K3_TRIPLE)
        assert len(basis) == 19
        restricted = [[int(q_eval(K3, vector(a), vector(b))) for b in basis]
                      for a in basis]
        assert signature(GramLattice.from_rows(restricted)).as_tuple() == (0, 19, 0)

    def test_u3_negative_definite(self):
        basis = perp_V_basis(U3, U3_TRIPLE)
        restricted = [[int(q_eval(U3, vector(a), vector(b))) for b in basis]
                      for a in basis]
        assert signature(GramLattice.from_rows(restricted)).as_tuple() == (0, 3, 0)

    def test_saturation(self):
        for v in perp_V_basis(K3, K3_TRIPLE):
            from math import gcd
            g = 0
            for e in v:
                g = gcd(g, abs(e))
            assert g == 1

