"""Exact rational and integer linear algebra over a Gram form.

Vectors are tuples of Fraction; lattices carry an integer Gram matrix.
Signature is computed by exact congruence diagonalization, integer
kernels by unimodular column reduction (so the result is automatically
saturated: the quotient by the kernel sublattice is torsion-free).

Every pairing with the hyperkahler triple goes through one kernel,
pairing_rows: it checks the signature (3, r-3, 0), then the triple,
each computed once and cached, and returns three primitive integer rows
and an exact scale, so that q(x, w_a) / q(w_a, w_a) = scale * (rows[a] . x).
Projection, V-perp bases, pi, Hodge type, witnesses and the scans all
read it, so all reject a wrong signature and rely on V-perp being
negative definite: a positive class never projects to 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd
from numbers import Integral, Rational

from .errors import (
    DimensionMismatch,
    InvalidSignature,
    InvalidTriple,
    NotSymmetric,
    TwistorLatticeError,
)

Vector = tuple[Fraction, ...]


def vector(entries) -> Vector:
    """Coerce a sequence of ints, Fractions and 'p/q' strings to a Vector;
    any other entry (a float, bool, None, ...) is an error, not rounded."""
    return tuple(e if type(e) is Fraction else Fraction(e) if type(e) is int
                 else _rational(e) for e in entries)


def _rational(e) -> Fraction:
    # exact ints and Fractions take the fast path of vector
    if isinstance(e, str) or (isinstance(e, Rational) and not isinstance(e, bool)):
        try:
            return Fraction(e)
        except (ValueError, ZeroDivisionError):
            pass
    raise TwistorLatticeError(f"cannot parse rational entry {e!r}")


def clear_denominators(v: Vector) -> tuple[int, ...]:
    """Smallest positive multiple of v with integer entries."""
    m = 1
    for e in v:
        m = m * e.denominator // gcd(m, e.denominator)
    return tuple(int(e * m) for e in v)


def primitive(v) -> tuple[int, ...]:
    """Divide an integer vector by the gcd of its entries (sign kept)."""
    g = 0
    for e in v:
        g = gcd(g, abs(int(e)))
    if g == 0:
        return tuple(int(e) for e in v)
    return tuple(int(e) // g for e in v)


@dataclass(frozen=True)
class SignatureReport:
    n_plus: int
    n_minus: int
    n_zero: int

    def as_tuple(self):
        return (self.n_plus, self.n_minus, self.n_zero)


@dataclass(frozen=True)
class GramLattice:
    """Integral lattice of rank r with symmetric bilinear form q."""

    rank: int
    gram: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.rank <= 0 or len(self.gram) != self.rank:
            raise DimensionMismatch(
                f"gram must be {self.rank}x{self.rank}, got {len(self.gram)} rows")
        for row in self.gram:
            if len(row) != self.rank:
                raise DimensionMismatch("gram matrix is not square")
        for i in range(self.rank):
            for j in range(i):
                if self.gram[i][j] != self.gram[j][i]:
                    raise NotSymmetric(
                        f"gram matrix is not symmetric at ({i}, {j})")
        # hashed once: the kernel's two caches hash the lattice on every call
        object.__setattr__(self, "_hash", hash((self.rank, self.gram)))

    def __hash__(self):
        return self._hash

    @staticmethod
    def from_rows(rows) -> "GramLattice":
        """The lattice of a Gram matrix given as rows of integers; any
        other entry (a float, string or bool) is an error, not rounded."""
        g = tuple(tuple(integer(e, f"gram entry ({i}, {j})")
                        for j, e in enumerate(row)) for i, row in enumerate(rows))
        return GramLattice(rank=len(g), gram=g)

    def check_length(self, x):
        if len(x) != self.rank:
            raise DimensionMismatch(
                f"vector has length {len(x)}, lattice rank is {self.rank}")


def integer(value, what: str) -> int:
    """An integer (numpy ints too) as an int; a float, string or bool is an error."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise TwistorLatticeError(f"{what} = {value!r} is not an integer")
    return int(value)


def q_eval(lattice: GramLattice, x: Vector, y: Vector) -> Fraction:
    """The bilinear form x^T gram y, exact; summed in ints for integer
    vectors."""
    lattice.check_length(x)
    lattice.check_length(y)
    nz = [j for j, e in enumerate(y) if e != 0]
    total = 0
    for i, xi in enumerate(x):
        if xi == 0:
            continue
        row = lattice.gram[i]
        total += xi * sum(row[j] * y[j] for j in nz)
    return Fraction(total)


def gram_row(lattice: GramLattice, w: Vector) -> Vector:
    """The linear functional q(., w) as a coordinate row."""
    lattice.check_length(w)
    r = lattice.rank
    return tuple(
        sum(Fraction(lattice.gram[i][j]) * w[j] for j in range(r))
        for i in range(r)
    )


@lru_cache(maxsize=64)
def signature(lattice: GramLattice) -> SignatureReport:
    """Inertia (n_plus, n_minus, n_zero) by exact congruence reduction.

    Pivots are chosen at the lowest available index; by Sylvester's law
    the result is basis-independent. Cached: every twistor call asks.
    """
    r = lattice.rank
    m = [[Fraction(e) for e in row] for row in lattice.gram]
    n_plus = n_minus = n_zero = 0
    for k in range(r):
        # find a nonzero diagonal pivot at or after k
        piv = next((i for i in range(k, r) if m[i][i] != 0), None)
        if piv is None:
            # all diagonals zero: look for an off-diagonal entry and fold
            # its row/column in (2*m[i][j] lands on the diagonal)
            pair = next(((i, j) for i in range(k, r) for j in range(i + 1, r)
                         if m[i][j] != 0), None)
            if pair is None:
                n_zero += r - k
                break
            piv, j = pair
            for t in range(k, r):
                m[piv][t] += m[j][t]
            for t in range(k, r):
                m[t][piv] += m[t][j]
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            for t in range(r):
                m[t][k], m[t][piv] = m[t][piv], m[t][k]
        d = m[k][k]
        if d > 0:
            n_plus += 1
        else:
            n_minus += 1
        for i in range(k + 1, r):
            if m[i][k] != 0:
                f = m[i][k] / d
                for t in range(k, r):
                    m[i][t] -= f * m[k][t]
                for t in range(k, r):
                    m[t][i] -= f * m[t][k]
    return SignatureReport(n_plus, n_minus, n_zero)


def integer_kernel(rows) -> list[tuple[int, ...]]:
    """Saturated basis of {v integral : A v = 0} for an integer matrix A.

    Column reduction by unimodular operations with a transformation
    matrix U: once A U is in column echelon form, the U-columns under
    the zero columns of A U are a basis, and because U is unimodular
    the basis generates all integral solutions (saturation for free).
    """
    a = [list(int(e) for e in row) for row in rows]
    if not a:
        return []
    n = len(a[0])
    for row in a:
        if len(row) != n:
            raise DimensionMismatch("kernel input rows have unequal lengths")
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def col_op(dst, src, f):
        # column_dst -= f * column_src, applied to both a and u
        for row in a:
            row[dst] -= f * row[src]
        for row in u:
            row[dst] -= f * row[src]

    def col_swap(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in u:
            row[i], row[j] = row[j], row[i]

    col = 0
    for r in range(len(a)):
        if col >= n:
            break
        # Euclid across columns col..n-1 on row r
        while True:
            best = None
            for j in range(col, n):
                if a[r][j] != 0 and (best is None or abs(a[r][j]) < abs(a[r][best])):
                    best = j
            if best is None:
                break  # row already zero beyond col
            done = True
            for j in range(col, n):
                if j != best and a[r][j] != 0:
                    col_op(j, best, a[r][j] // a[r][best])
                    if a[r][j] != 0:
                        done = False
            if done:
                if best != col:
                    col_swap(col, best)
                col += 1
                break
    basis = []
    for j in range(col, n):
        v = tuple(u[i][j] for i in range(n))
        # normalize: first nonzero entry positive
        for e in v:
            if e != 0:
                if e < 0:
                    v = tuple(-x for x in v)
                break
        basis.append(v)
    return basis


@dataclass(frozen=True)
class HyperTriple:
    """Three rational vectors spanning the positive 3-plane V;
    pairwise q-orthogonal with equal positive norm."""

    w_i: Vector
    w_j: Vector
    w_k: Vector

    @staticmethod
    def from_rows(rows) -> "HyperTriple":
        if len(rows) != 3:
            raise InvalidTriple("a triple needs exactly three vectors")
        return HyperTriple(*(vector(r) for r in rows))

    @property
    def vectors(self) -> tuple[Vector, Vector, Vector]:
        return (self.w_i, self.w_j, self.w_k)

    def validate(self, lattice: GramLattice) -> Fraction:
        """Check orthogonality and equal positive norms; return the norm."""
        ws = self.vectors
        for w in ws:
            if len(w) != lattice.rank:
                raise InvalidTriple("triple vector length differs from rank")
        norms = [q_eval(lattice, w, w) for w in ws]
        if norms[0] <= 0:
            raise InvalidTriple("triple vectors must have positive norm")
        if not (norms[0] == norms[1] == norms[2]):
            raise InvalidTriple(f"triple norms differ: {norms}")
        for a in range(3):
            for b in range(a + 1, 3):
                if q_eval(lattice, ws[a], ws[b]) != 0:
                    raise InvalidTriple(
                        f"triple vectors {a} and {b} are not q-orthogonal")
        return norms[0]


def pairing_rows(lattice: GramLattice, triple: HyperTriple):
    """The one pairing kernel: check the signature (3, r-3, 0), then the
    triple, and return (rows, scale), three integer rows with their joint
    gcd divided out and the exact positive Fraction with q(x, w_a) /
    q(w_a, w_a) = scale * (rows[a] . x). Every call checks; both checks are
    cached, the signature per lattice and the rows per pair."""
    sig = signature(lattice).as_tuple()
    if sig != (3, lattice.rank - 3, 0):
        raise InvalidSignature(f"twistor calls need signature (3, r-3, 0); got {sig}")
    return _triple_rows(lattice, triple)


@lru_cache(maxsize=64)
def _triple_rows(lattice: GramLattice, triple: HyperTriple):
    norm = triple.validate(lattice)
    pairing = [e for w in triple.vectors for e in gram_row(lattice, w)]
    flat = primitive(clear_denominators(pairing))
    k = next(i for i, e in enumerate(flat) if e)
    r = lattice.rank
    return (tuple(flat[a * r:(a + 1) * r] for a in range(3)),
            pairing[k] / (flat[k] * norm))


def dot_rows(rows, x) -> tuple:
    """The products rows[a] . x."""
    return tuple(sum(a * b for a, b in zip(row, x)) for row in rows)


def project_to_V(lattice: GramLattice, triple: HyperTriple, x: Vector):
    """Coefficients (a, b, c) of the q-orthogonal projection of x onto V,
    so p(x) = a w_I + b w_J + c w_K and x - p(x) is q-orthogonal to V."""
    rows, scale = pairing_rows(lattice, triple)
    lattice.check_length(x)
    return tuple(scale * t for t in dot_rows(rows, x))


def expand_in_V(triple: HyperTriple, coeffs) -> Vector:
    """The lattice-coordinate vector a w_I + b w_J + c w_K."""
    a, b, c = (Fraction(e) for e in coeffs)
    return tuple(
        a * wi + b * wj + c * wk
        for wi, wj, wk in zip(triple.w_i, triple.w_j, triple.w_k)
    )


def perp_V_basis(lattice: GramLattice, triple: HyperTriple):
    """Basis of the saturated sublattice of integral vectors q-orthogonal
    to all three triple vectors; size rank - 3, as the kernel validates."""
    return integer_kernel(pairing_rows(lattice, triple)[0])
