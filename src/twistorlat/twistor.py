"""Twistor points, the projection map and the box walk.

A twistor point is a signed ray in the positive 3-plane V, stored as a
primitive integer triple of coordinates in the triple basis (w_I, w_J,
w_K). Point equality is exact and includes the sign: L and -L are
different points. Irrational directions (for the bounded general-type
search) carry only a floating unit vector and no exact ray. The box
walk, _box_pairings, is shared by the bounded search and the scans.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from .errors import (
    InvalidBound,
    InvariantViolation,
    IrrationalPoint,
    NotPositive,
    Unsupported,
)
from .linalg import (
    GramLattice,
    HyperTriple,
    Vector,
    clear_denominators,
    dot_rows,
    expand_in_V,
    integer,
    integer_kernel,
    pairing_rows,
    primitive,
    q_eval,
    vector,
)


# Memory budget of one block: box rows (int64) in the scans and the
# bounded search, grid-by-cloud cosines (float64) in covering_radius.
_BLOCK_BYTES = 4 << 20

# Largest box a scan or bounded search walks, and largest covering-radius
# grid; bigger ones would run for hours (K3 at B=1 has 3^22, about 3.1e10,
# vectors).
_MAX_BOX_VECTORS = 10 ** 9


def _int64(matrix, reach: int, bound: str) -> np.ndarray:
    """The integer matrix as an int64 array, after checking a priori that
    reach * max|entry|, the largest value a box computation with it can
    take, fits: numpy would wrap past 2^63 without a word."""
    worst = reach * max((abs(e) for row in matrix for e in row), default=0)
    if worst >= 2 ** 63:
        raise Unsupported(f"int64 bound {bound} = {worst} is not below 2^63")
    return np.array(matrix, dtype=np.int64)


def _box_pairings(rows, b: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """[-b, b]^k, k the width of the rows, as int64 blocks (vecs, vecs @ rows.T),
    vecs in lexicographic order with the zero vector, each within _BLOCK_BYTES.
    The bound, the int64 reach and the box size are checked on the call,
    before any block."""
    if b < 1:
        raise InvalidBound("box_bound must be >= 1")
    k = len(rows[0])
    rows = _int64(rows, b * k, "max|rows|*B*k")
    side = 2 * b + 1
    if side ** k > _MAX_BOX_VECTORS:
        raise InvalidBound(
            f"box bound B={b} over k={k} coordinates gives (2B+1)^k = "
            f"{side ** k} vectors, more than {_MAX_BOX_VECTORS}")
    free = k
    while free and side ** free * k * 8 > _BLOCK_BYTES:
        free -= 1
    powers = side ** np.arange(free - 1, -1, -1, dtype=np.int64)
    tail = np.arange(side ** free, dtype=np.int64)[:, None] // powers % side - b

    def blocks():
        for prefix in itertools.product(range(-b, b + 1), repeat=k - free):
            vecs = np.empty((len(tail), k), dtype=np.int64)
            vecs[:, :k - free] = prefix
            vecs[:, k - free:] = tail
            yield vecs, vecs @ rows.T
    return blocks()


def _cross(a, b):
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


@dataclass(frozen=True, eq=False)
class TwistorPoint:
    """A point of the twistor sphere S^2 in V.

    dir: primitive signed integer ray, or None for an irrational point.
    unit: floating unit representative dir/|dir|.
    """

    dir: Optional[tuple[int, int, int]]
    unit: tuple[float, float, float]

    @staticmethod
    def from_ray(a, b, c) -> "TwistorPoint":
        fr = vector((a, b, c))
        if fr == (0, 0, 0):
            raise InvariantViolation("zero ray is not a twistor point")
        d = primitive(clear_denominators(fr))
        n = math.sqrt(d[0] ** 2 + d[1] ** 2 + d[2] ** 2)
        return TwistorPoint(dir=d, unit=(d[0] / n, d[1] / n, d[2] / n))

    @staticmethod
    def from_unit(x: float, y: float, z: float) -> "TwistorPoint":
        n = math.sqrt(x * x + y * y + z * z)
        if not 0.0 < n < math.inf:  # zero, nan or inf entries, or overflow
            raise InvariantViolation(f"({x}, {y}, {z}) is not a direction: norm {n}")
        return TwistorPoint(dir=None, unit=(x / n, y / n, z / n))

    @property
    def is_exact(self) -> bool:
        return self.dir is not None

    def require_exact(self) -> tuple[int, int, int]:
        if self.dir is None:
            raise IrrationalPoint("operation needs an exact rational ray")
        return self.dir

    def __eq__(self, other):
        if not isinstance(other, TwistorPoint):
            return NotImplemented
        if self.dir is None or other.dir is None:
            return self is other
        return self.dir == other.dir

    def __hash__(self):
        return hash(self.dir)

    def __repr__(self):
        if self.dir is not None:
            return f"TwistorPoint{self.dir}"
        return f"TwistorPoint(unit={self.unit})"


@dataclass(frozen=True)
class PositiveClass:
    """A rational class with q(vec, vec) > 0 and its twistor point."""

    vec: Vector
    point: TwistorPoint


@dataclass(frozen=True)
class GeneralTypeVerdict:
    """Either a witness lattice vector showing the point is not of
    general type (at degree 2), or 'no witness up to this box bound'."""

    witness: Optional[tuple[int, ...]]
    bound: Optional[int] = None

    @property
    def is_general_type_up_to_bound(self) -> bool:
        return self.witness is None


def omega_of(triple: HyperTriple, point: TwistorPoint) -> Vector:
    """The class a w_I + b w_J + c w_K for the point's primitive ray."""
    return expand_in_V(triple, point.require_exact())


def pi_map(lattice: GramLattice, triple: HyperTriple, omega) -> PositiveClass:
    """The twistor projection: the unique point L with q(omega, omega_L) > 0
    among the two orientations of the projection ray of omega.

    With the pairing rows of the triple, that is the ray of
    t = rows . omega itself, by construction: for L = t / gcd(t),
    q(omega, omega_L) is a positive multiple of |t|^2. The kernel checks
    the signature first: V-perp is negative definite, so t != 0."""
    rows, _ = pairing_rows(lattice, triple)
    omega = vector(omega)
    cleared = clear_denominators(omega)  # a positive multiple: same sign of q
    if q_eval(lattice, cleared, cleared) <= 0:
        raise NotPositive("pi_map needs q(omega, omega) > 0")
    t = dot_rows(rows, cleared)
    return PositiveClass(vec=omega, point=TwistorPoint.from_ray(*t))


def antipode(point: TwistorPoint) -> TwistorPoint:
    if point.dir is not None:
        return TwistorPoint.from_ray(*(-e for e in point.dir))
    return TwistorPoint(dir=None, unit=tuple(-e for e in point.unit))


def hodge_type_11(lattice: GramLattice, triple: HyperTriple, x,
                  point: TwistorPoint) -> bool:
    """Whether x has Hodge type (1,1) at the point: the projection of x
    onto V is an exact rational multiple (possibly zero) of the ray."""
    x = vector(x)
    rows, _ = pairing_rows(lattice, triple)
    lattice.check_length(x)
    d = point.require_exact()
    return _cross(dot_rows(rows, clear_denominators(x)), d) == (0, 0, 0)


def two_zero_plane(triple: HyperTriple, point: TwistorPoint):
    """Two q-orthogonal vectors in V, each q-orthogonal to omega_L,
    spanning the real (2,0)+(0,2) plane at the point.

    For the ray (1,0,0) this returns (w_J, w_K)."""
    d = point.require_exact()
    k = min(range(3), key=lambda i: (abs(d[i]), i))
    e = tuple(1 if i == k else 0 for i in range(3))
    u = _cross(d, e)
    v = _cross(u, d)
    return (expand_in_V(triple, primitive(v)), expand_in_V(triple, primitive(u)))


def _reduce_witness(w, others, rows):
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


def is_general_type(lattice: GramLattice, triple: HyperTriple,
                    point: TwistorPoint, bound: int = 3) -> GeneralTypeVerdict:
    """Degree-2 general-type test at a twistor point.

    Exact mode (rational ray): solve the integer system p(lambda)
    parallel to the ray; with a rational triple this always produces a
    witness, so rational points are never of general type. Bounded mode
    (irrational point): search the coordinate box [-bound, bound]^r, in
    lexicographic order and in blocks of bounded memory, for the first
    witness with sine of the collinearity angle below 1e-9; absence is
    reported as general type up to the bound, not as a proof. A box of
    more than 10^9 vectors raises InvalidBound, and one whose int64
    products could wrap raises Unsupported.
    """
    rows, _ = pairing_rows(lattice, triple)
    bound = integer(bound, "bound")
    if bound < 1:
        raise InvalidBound("bound must be >= 1")

    if point.is_exact:
        # witnesses v solve (rows . v) x d = 0: one cross product per column
        kernel = integer_kernel(zip(*(_cross(col, point.dir) for col in zip(*rows))))
        # nonempty: the cleared class sum d_a w_a lies in the kernel, projecting to != 0
        candidates = [_reduce_witness(v, kernel[:i] + kernel[i + 1:], rows)
                      for i, v in enumerate(kernel) if any(dot_rows(rows, v))]
        witness = min(candidates, key=lambda v: (max(abs(e) for e in v), v))
        return GeneralTypeVerdict(witness=witness)

    # bounded mode: floating direction
    for vecs, t in _box_pairings(rows, bound):
        t = t.astype(float)
        n = np.sqrt((t * t).sum(axis=1))
        c = np.cross(t, point.unit)
        with np.errstate(divide="ignore", invalid="ignore"):
            sine = np.sqrt((c * c).sum(axis=1)) / n
        hits = np.flatnonzero((n > 0.0) & (sine <= 1e-9))
        if hits.size:
            return GeneralTypeVerdict(witness=tuple(vecs[hits[0]].tolist()))
    return GeneralTypeVerdict(witness=None, bound=bound)


INFINITY = complex(math.inf, 0.0)


def stereographic(point: TwistorPoint) -> complex:
    """CP^1 coordinate (b + ic)/(1 - a) of the unit representative;
    the north pole (1,0,0) maps to infinity."""
    a, b, c = point.unit
    if 1.0 - a == 0.0:
        return INFINITY
    return complex(b / (1.0 - a), c / (1.0 - a))


def stereographic_inverse(zeta: complex) -> TwistorPoint:
    if math.isinf(zeta.real) or math.isinf(zeta.imag):
        return TwistorPoint.from_ray(1, 0, 0)
    s = abs(zeta) ** 2
    return TwistorPoint.from_unit(
        (s - 1.0) / (s + 1.0),
        2.0 * zeta.real / (s + 1.0),
        2.0 * zeta.imag / (s + 1.0),
    )
