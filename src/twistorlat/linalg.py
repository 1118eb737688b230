"""Exact rational and integer linear algebra over a Gram form.

Vectors are tuples of Fraction; lattices carry an integer Gram matrix.
Both reductions work on Python lists. The signature comes from exact
congruence diagonalization: each step pivots on the first nonzero
diagonal entry and keeps its Schur complement. Integer kernels come from
unimodular column reduction on A stacked over the identity, one list per
column, Euclid pivoting on the least entry of each row (so the result is
automatically saturated: the quotient by the kernel sublattice is
torsion-free). A zero column of A is a placeholder, its index, that
keeps its slot; the other columns carry their identity part on the
nonzero columns of A only, and the basis is scattered to full length
once, at the end.

Every pairing with the hyperkahler triple goes through one kernel,
pairing_rows: it checks the signature (3, r-3, 0), then the triple,
each computed once and cached, and returns three primitive integer rows
and an exact scale, so that q(x, w_a) / q(w_a, w_a) = scale * (rows[a] . x).
Projection, V-perp bases, pi, Hodge type, witnesses and the scans all
read it, so all reject a wrong signature and rely on V-perp being
negative definite: a positive class never projects to 0. The exact
products read only nonzero entries: q_eval those of each Gram row,
listed once per lattice, and rows . x those of each pairing row, listed
in the kernel's cached entry with the live coordinates.
"""

from __future__ import annotations

import operator
from collections.abc import Iterable, Mapping, Set
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

# the Fractions of the ints within _SMALL of 0, built once: a Fraction is
# immutable, so every int vector's small entries share them
_SMALL = 128
_FRACTIONS = {e: Fraction(e) for e in range(-_SMALL, _SMALL + 1)}
# an int vector's entry types, INTS.issuperset(map(type, v)): not bools,
# not numpy ints
INTS = frozenset((int,))


def vector(entries) -> Vector:
    """Coerce a sequence of ints, Fractions and 'p/q' strings to a Vector;
    any other entry (a float, bool, None, ...) is an error, not rounded,
    and what iterable refuses (a number, a string, a set or a mapping) a
    DimensionMismatch. An int entry's Fraction comes from a table of the
    small ints, as in int_vector. Numpy ints, alone or in a Fraction,
    become ints: their arithmetic wraps past 2^63."""
    if type(entries) is not tuple:  # a tuple, the common call, needs no check
        entries = tuple(iterable(entries, "vector"))
    if INTS.issuperset(map(type, entries)):
        return int_vector(entries)
    # a Fraction of two ints passes as it is
    return tuple(e if type(e) is Fraction and type(e.numerator) is int is type(e.denominator)
                 else _fraction(e) if type(e) is int else _rational(e) for e in entries)


def int_vector(ints) -> Vector:
    """The Vector of a tuple of ints (type int, as INTS tests): each
    entry's Fraction from the table of the small ints, built only past it."""
    try:  # one lookup an entry
        return tuple(map(_FRACTIONS.__getitem__, ints))
    except KeyError:
        return tuple(map(_fraction, ints))


def _fraction(e: int) -> Fraction:
    return _FRACTIONS[e] if e in _FRACTIONS else Fraction(e)


def _rational(e) -> Fraction:
    # ints and Fractions of ints take the fast path of vector
    if isinstance(e, Rational) and not isinstance(e, bool):
        # a numpy int, alone or in a Fraction, would keep int64
        # arithmetic, which wraps past 2^63
        return Fraction(int(e.numerator), int(e.denominator))
    if isinstance(e, str):
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
    return tuple(e.numerator * (m // e.denominator) for e in v)


def primitive(v) -> tuple[int, ...]:
    """Divide an integer vector by the gcd of its entries (sign kept). A
    tuple of ints is read as it is; any other entries (numpy ints) are
    cast to int first."""
    if type(v) is not tuple or not INTS.issuperset(map(type, v)):
        v = tuple(map(int, v))
    g = gcd(*v)
    return tuple([e // g for e in v]) if g > 1 else v


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
        if integer(self.rank, "rank") < 1:
            raise DimensionMismatch(f"a lattice needs rank >= 1, got rank {self.rank}")
        if len(self.gram) != self.rank:
            raise DimensionMismatch(
                f"gram must be {self.rank}x{self.rank}, got {len(self.gram)} rows")
        for i, row in enumerate(self.gram):
            if len(row) != self.rank:
                raise DimensionMismatch(f"gram matrix is not square: row {i} "
                                        f"has length {len(row)}, not {self.rank}")
        for i in range(self.rank):
            for j in range(i):
                if self.gram[i][j] != self.gram[j][i]:
                    raise NotSymmetric(
                        f"gram matrix is not symmetric at ({i}, {j})")
        # hashed once: the kernel's two caches hash the lattice on every call
        object.__setattr__(self, "_hash", hash((self.rank, self.gram)))
        # each row's nonzero entries (j, g), all q_eval reads: a built-in
        # Gram has at most 3 a row
        object.__setattr__(self, "_nonzero", tuple(
            tuple((j, g) for j, g in enumerate(row) if g) for row in self.gram))

    def __hash__(self):
        return self._hash

    @staticmethod
    def from_rows(rows) -> "GramLattice":
        """The lattice of a Gram matrix given as rows of integers; any
        other entry (a float, string or bool) is an error, not rounded."""
        g = tuple(tuple(integer(e, f"gram entry ({i}, {j})")
                        for j, e in enumerate(iterable(row, f"gram row {i}")))
                  for i, row in enumerate(iterable(rows, "gram")))
        return GramLattice(rank=len(g), gram=g)

    def check_length(self, x):
        if len(x) != self.rank:
            raise DimensionMismatch(
                f"vector has length {len(x)}, lattice rank is {self.rank}")


def iterable(value, what: str):
    """A vector, a matrix given as rows, or one of its rows: a list,
    tuple, numpy array or other iterable in the caller's order, but not
    a string, not a set or mapping, whose order is its own, and not a 0-d
    array, which numpy's type calls iterable but which does not iterate.
    Anything else, as a number from a flat list, is a DimensionMismatch."""
    if (isinstance(value, (str, bytes, Set, Mapping)) or not isinstance(value, Iterable)
            or getattr(value, "ndim", None) == 0):
        raise DimensionMismatch(f"{what} = {value!r} is not a sequence")
    return value


def of_kind(value, kind: type, what: str):
    """value, refused unless it is an instance of kind: a DimensionMismatch
    that names it, not the AttributeError of a later attribute read."""
    if not isinstance(value, kind):
        raise DimensionMismatch(f"{what} = {value!r} is not a {kind.__name__}")
    return value


def integer(value, what: str) -> int:
    """An integer as an int: an int as it is, with no further test, and a
    numpy int cast; a float, string or bool is an error."""
    if type(value) is int:
        return value
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise TwistorLatticeError(f"{what} = {value!r} is not an integer")
    return int(value)


def q_eval(lattice: GramLattice, x: Vector, y: Vector) -> Fraction:
    """The bilinear form x^T gram y, exact: the sum of x_i g_ij y_j over
    the nonzero x_i and the nonzero entries g_ij of their Gram rows; in
    ints for integer vectors.

    Every entry of x, and of y when it is not x, is checked to be a
    rational before anything multiplies, also an entry no product
    reads: a string times an int would build the repeated string. A
    numpy int, alone or as a part of a Fraction, is cast to int, as
    vector casts it. x and y are sequences with a length: not a number,
    string, bytes or iterator."""
    same = y is x
    if type(x) is not tuple or not same and type(y) is not tuple:  # a tuple needs no check
        for v, name in ((x, "x"), (y, "y")):
            try:  # an iterator or a 0-d array has no length
                len(iterable(v, name))
            except TypeError:
                raise DimensionMismatch(f"{name} = {v!r} is not a sequence") from None
    lattice.check_length(x)
    lattice.check_length(y)
    x = _rationals(x, "x")
    return Fraction(q_sum(lattice, x, x if same else _rationals(y, "y")))


def q_sum(lattice: GramLattice, x, y):
    """q_eval's sum, unchecked: x_i g_ij y_j over the nonzero x_i and the
    nonzero entries g_ij of their Gram rows, for sequences x and y of the
    lattice's rank whose entries are ints or Fractions of ints. An int
    when both are of ints."""
    total = 0
    for xi, row in zip(x, lattice._nonzero):
        if xi:
            for j, g in row:
                total += xi * g * y[j]
    return total


_EXACT = frozenset((int, Fraction))
_NUMERATOR = operator.attrgetter("numerator")
_DENOMINATOR = operator.attrgetter("denominator")


def _rationals(v, name: str):
    """v as it is when its entries are ints, or ints and Fractions of two
    ints: an int vector passes one set test, a vector with Fractions
    three. Any other integer entry or Fraction part, a numpy int, becomes
    an int, as its arithmetic wraps past 2^63, even a zero one, which
    would turn the sum it meets into an int64. The first entry that is
    not a Rational (a float, string, None, ...) is refused, named."""
    if INTS.issuperset(map(type, v)) or (
            _EXACT.issuperset(map(type, v)) and INTS.issuperset(map(type, map(_NUMERATOR, v)))
            and INTS.issuperset(map(type, map(_DENOMINATOR, v)))):
        return v
    for i, e in enumerate(v):
        if not isinstance(e, Rational):
            raise TwistorLatticeError(f"q_eval entry {name}[{i}] = {e!r} is not a rational")
    return tuple(int(e) if isinstance(e, Integral) else _rational(e) for e in v)


def signature(lattice: GramLattice) -> SignatureReport:
    """Inertia (n_plus, n_minus, n_zero) by exact congruence reduction,
    cached per lattice. The cache hashes the lattice first, so an
    unhashable one, such as a list, is named on the failure path alone."""
    try:
        return _inertia(lattice)
    except TypeError:
        of_kind(lattice, GramLattice, "lattice")
        raise


@lru_cache(maxsize=64)
def _inertia(lattice: GramLattice) -> SignatureReport:
    """signature's cached body.

    The matrix is a list of Fraction rows. Each step pops the row and
    column of the first nonzero diagonal entry d, counts its sign, and
    updates only the rows with a nonzero entry in the pivot column: what
    is left is the Schur complement. With the diagonal all zero, the first
    nonzero m[i][j] is folded in (row and column j added to row and
    column i, which puts 2 m[i][j] on the diagonal); with no such entry,
    what is left is the zero form. By Sylvester's law the counts do not
    depend on the pivot order. Cached: every twistor call asks, and only
    a miss checks that lattice is a GramLattice.
    """
    m = [[Fraction(e) for e in row] for row in of_kind(lattice, GramLattice, "lattice").gram]
    counts = [0, 0]  # n_plus, n_minus
    while m:
        piv = next((i for i, row in enumerate(m) if row[i]), None)
        if piv is None:
            piv, j = next(((i, j) for i, row in enumerate(m)
                           for j in range(i + 1, len(m)) if row[j]), (None, None))
            if piv is None:
                break
            m[piv] = [x + y for x, y in zip(m[piv], m[j])]
            for row in m:
                row[piv] += row[j]
        p = m.pop(piv)
        d = p.pop(piv)
        counts[d < 0] += 1
        for row in m:
            f = row.pop(piv) / d
            if f:
                row[:] = [x - f * y for x, y in zip(row, p)]
    return SignatureReport(*counts, lattice.rank - sum(counts))


# the cache's counters and reset, read through the public name
signature.cache_info, signature.cache_clear = _inertia.cache_info, _inertia.cache_clear


def integer_kernel(rows) -> list[tuple[int, ...]]:
    """Saturated basis of {v integral : A v = 0} for an integer matrix A.

    Unimodular column reduction on A stacked over the identity, kept as
    one list per column: a column operation builds one new list and a
    swap exchanges two references. Row by row, Euclid runs across the
    columns not yet pivoted (each reduced by the one of least absolute
    value in that row, the first on ties) until one column is left
    nonzero there, which is swapped into the pivot place. Once A U is in
    column echelon form, the U-parts of the columns past the pivots are
    the basis (first nonzero entry made positive); U is unimodular, so
    the basis generates all integral solutions (saturation for free).

    A zero column j of A is never reduced and never reduces another, so
    its U-part stays e_j: it is kept as the placeholder j, which a swap
    moves like any column, so the basis order is that of the full
    reduction. Every other column combines only nonzero columns of A, so
    its identity part is kept on those live coordinates alone; the basis
    is scattered into length-n tuples once, at the end. An entry that is
    not an integer (a float, string or bool) is an error, not truncated,
    and rows, or a row, that iterable refuses (a set among them) a
    DimensionMismatch.
    """
    a = [[e if type(e) is int else integer(e, f"kernel entry ({i}, {j})")
          for j, e in enumerate(row if type(row) is tuple else iterable(row, f"kernel row {i}"))]
         for i, row in enumerate(iterable(rows, "kernel rows"))]
    if not a:
        return []
    m, n = len(a), len(a[0])
    if any(len(row) != n for row in a):
        raise DimensionMismatch("kernel input rows have unequal lengths")
    live = [j for j, c in enumerate(zip(*a)) if any(c)]
    # a live column is A over I on the live coordinates, then one 0, which
    # stands for coordinate j in at[j] when column j of A is zero
    at = [-1] * n
    cols = list(range(n))  # placeholders
    for s, j in enumerate(live):
        at[j] = m + s
        cols[j] = [row[j] for row in a] + [0] * (len(live) + 1)
        cols[j][m + s] = 1
    col = 0
    for r in range(m):
        while col < n:  # Euclid across columns col..n-1 on row r
            nz = [j for j in range(col, n) if type(cols[j]) is list and cols[j][r]]
            if not nz:
                break
            best = min(nz, key=lambda j: abs(cols[j][r]))
            done = True
            for j in nz:
                if j != best:
                    f = cols[j][r] // cols[best][r]
                    cols[j] = [x - f * y for x, y in zip(cols[j], cols[best])]
                    done = done and not cols[j][r]
            if done:
                cols[col], cols[best] = cols[best], cols[col]
                col += 1
                break
    basis = []
    for v in cols[col:]:
        if type(v) is int:
            e = [0] * n
            e[v] = 1
            basis.append(tuple(e))
        else:
            if next(filter(None, v[m:])) < 0:
                v = [-x for x in v]
            basis.append(tuple(map(v.__getitem__, at)))
    return basis


@dataclass(frozen=True)
class HyperTriple:
    """Three rational vectors spanning the positive 3-plane V;
    pairwise q-orthogonal with equal positive norm."""

    w_i: Vector
    w_j: Vector
    w_k: Vector

    def __post_init__(self):
        # hashed once: the kernel's row cache hashes the triple on every
        # call, and would otherwise hash every Fraction entry
        object.__setattr__(self, "_hash", hash(self.vectors))

    def __hash__(self):
        return self._hash

    @staticmethod
    def from_rows(rows) -> "HyperTriple":
        rows = list(iterable(rows, "triple"))
        if len(rows) != 3:
            raise InvalidTriple(f"a triple needs exactly three vectors, got {len(rows)}")
        return HyperTriple(*(vector(iterable(r, f"triple vector {a}"))
                             for a, r in enumerate(rows)))

    @property
    def vectors(self) -> tuple[Vector, Vector, Vector]:
        return (self.w_i, self.w_j, self.w_k)

    def validate(self, lattice: GramLattice) -> Fraction:
        """Check orthogonality and equal positive norms; return the norm."""
        ws = self.vectors
        for a, w in enumerate(ws):
            if len(w) != lattice.rank:
                raise InvalidTriple(f"triple vector length differs from rank: vector {a} "
                                    f"has length {len(w)}, rank is {lattice.rank}")
        norms = [q_eval(lattice, w, w) for w in ws]
        if norms[0] <= 0:
            raise InvalidTriple(f"triple vectors must have positive norm, got {norms[0]}")
        if not (norms[0] == norms[1] == norms[2]):
            raise InvalidTriple(f"triple norms differ: {norms}")
        for a in range(3):
            for b in range(a + 1, 3):
                q = q_eval(lattice, ws[a], ws[b])
                if q != 0:
                    raise InvalidTriple(
                        f"triple vectors {a} and {b} are not q-orthogonal: q = {q}")
        return norms[0]


def pairing_rows(lattice: GramLattice, triple: HyperTriple):
    """The one pairing kernel: check the signature (3, r-3, 0), then the
    triple, and return (rows, scale), three integer rows with their joint
    gcd divided out and the exact positive Fraction with q(x, w_a) /
    q(w_a, w_a) = scale * (rows[a] . x). Every call checks; both checks are
    cached, the signature per lattice and the rows per pair."""
    return pairing(lattice, triple)[:2]


def pairing(lattice: GramLattice, triple: HyperTriple):
    """pairing_rows' checks, then its whole cached entry (rows, scale,
    nonzero, live): nonzero holds each row's nonzero entries as (j, e)
    pairs, what the exact products rows . x read (dot_nonzero), and live
    the coordinates where some row is nonzero, ascending (K3: 6 of 22)."""
    sig = signature(lattice).as_tuple()
    if sig != (3, lattice.rank - 3, 0):
        raise InvalidSignature(f"twistor calls need signature (3, r-3, 0); got {sig}")
    return _triple_rows(lattice, triple)


@lru_cache(maxsize=64)
def _triple_rows(lattice: GramLattice, triple: HyperTriple):
    norm = triple.validate(lattice)
    # the row q(e_i, w) over i is G w
    pairing = [e for w in triple.vectors for e in dot_nonzero(lattice._nonzero, w)]
    flat = primitive(clear_denominators(pairing))
    k = next(i for i, e in enumerate(flat) if e)
    r = lattice.rank
    rows = tuple(flat[a * r:(a + 1) * r] for a in range(3))
    return (rows, pairing[k] / (flat[k] * norm),
            tuple(tuple((j, e) for j, e in enumerate(row) if e) for row in rows),
            tuple(j for j, col in enumerate(zip(*rows)) if any(col)))


def dot_nonzero(nonzero, x) -> tuple:
    """The products rows[a] . x, each row given by its nonzero entries as
    (j, e) pairs: the sum of e * x[j] over them, left to right."""
    out = []
    for row in nonzero:  # plain loops: a comprehension would make a frame a row
        total = 0
        for j, e in row:
            total += e * x[j]
        out.append(total)
    return tuple(out)


def project_to_V(lattice: GramLattice, triple: HyperTriple, x):
    """Coefficients (a, b, c) of the q-orthogonal projection of x onto V,
    so p(x) = a w_I + b w_J + c w_K and x - p(x) is q-orthogonal to V."""
    _, scale, nonzero, _ = pairing(lattice, triple)
    x = vector(x if type(x) is tuple else iterable(x, "x"))
    lattice.check_length(x)
    return tuple(scale * t for t in dot_nonzero(nonzero, x))


def expand_in_V(triple: HyperTriple, coeffs) -> Vector:
    """The lattice-coordinate vector a w_I + b w_J + c w_K."""
    coeffs = vector(coeffs)
    if len(coeffs) != 3:
        raise DimensionMismatch(f"expand_in_V needs 3 coefficients, got {len(coeffs)}")
    return tuple(sum(map(operator.mul, row, coeffs)) for row in zip(*triple.vectors))


def perp_V_basis(lattice: GramLattice, triple: HyperTriple):
    """Basis of the saturated sublattice of integral vectors q-orthogonal
    to all three triple vectors; size rank - 3, as the kernel validates."""
    return integer_kernel(pairing_rows(lattice, triple)[0])
