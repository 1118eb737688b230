"""Twistor points, the projection map and the box walk.

A twistor point is a signed ray in the positive 3-plane V, stored as a
primitive integer triple of coordinates in the triple basis (w_I, w_J,
w_K). Point equality is exact and includes the sign: L and -L are
different points. Irrational directions (for the bounded general-type
search) carry only a floating unit vector and no exact ray. The box
walk, _box_pairings, is shared by the bounded search and the scans; it
walks H-, the half of the box whose first nonzero entry is negative,
as every decision they take from a box vector v holds for -v too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter
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
from .quaternions import unit_direction


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
    """H-, the half of [-b, b]^k (k the width of the rows) whose first
    nonzero entry is negative, as int64 blocks (vecs, vecs @ rows.T), vecs
    in lexicographic order, each within _BLOCK_BYTES. The bound, the int64
    reach and the size of the whole box are checked on the call, before
    any block.

    Index i of the lexicographic walk of the box, (2b+1)^k = N vectors,
    is the vector -v for the v at index N-1-i. So the walk is H-, its
    first (N-1)/2 vectors, then 0, then -reverse(H-). Every consumer
    decides from v what it decides from -v: the norm and sine of
    t = rows . v, q(v, v) and the ray pair {r, -r} are the same for both.
    The first bounded witness thus lies in H- or nowhere, and a scan
    rebuilds the walk of the whole box from H- alone (scanning._scan).

    Blocks follow one rule. free is the largest number of trailing
    coordinates whose (2b+1)^free rows fit in a block; it is 0 when one
    coordinate's range alone is over the budget. Their digit table is
    built once, and a block is one prefix of the other k - free
    coordinates broadcast over it; when free = 0 a block is instead a
    block's worth of consecutive vectors. The last block is cut where H-
    ends, (N-1)/2 vectors in, so the zero vector needs no branch."""
    if b < 1:
        raise InvalidBound("box_bound must be >= 1")
    k = len(rows[0])
    rows = _int64(rows, b * k, "max|rows|*B*k")
    side = 2 * b + 1
    if side ** k > _MAX_BOX_VECTORS:
        raise InvalidBound(
            f"box bound B={b} over k={k} coordinates gives (2B+1)^k = "
            f"{side ** k} vectors, more than {_MAX_BOX_VECTORS}")
    per_block = max(1, _BLOCK_BYTES // (8 * max(k, 1)))
    free = k
    while free > 0 and side ** free > per_block:
        free -= 1
    n, half = side ** free, (side ** k - 1) // 2
    step = 1 if free else per_block  # prefixes a block

    def digits(start, stop, width):
        # rows start..stop-1 of the lexicographic walk of [-b, b]^width
        powers = side ** np.arange(width - 1, -1, -1, dtype=np.int64)
        return np.arange(start, stop, dtype=np.int64)[:, None] // powers % side - b

    def blocks():
        low = digits(0, n, free)  # built once for every prefix
        last = -(-half // n)  # prefixes up to the one where H- ends
        for p in range(0, last, step):
            high = digits(p, min(p + step, last), k - free)
            vecs = np.empty((min(len(high) * n, half - p * n), k), dtype=np.int64)
            vecs[:, :k - free] = high  # one prefix, or a row a vector if free = 0
            vecs[:, k - free:] = low[:len(vecs)]
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
        d = x = primitive(clear_denominators(fr))
        try:
            n = math.sqrt(d[0] ** 2 + d[1] ** 2 + d[2] ** 2)
        except OverflowError:  # |d|^2 past the float range; int / int is correctly rounded
            x = tuple(e / max(map(abs, d)) for e in d)
            n = math.sqrt(x[0] ** 2 + x[1] ** 2 + x[2] ** 2)
        return TwistorPoint(dir=d, unit=(x[0] / n, x[1] / n, x[2] / n))

    @staticmethod
    def from_unit(x: float, y: float, z: float) -> "TwistorPoint":
        return TwistorPoint(dir=None, unit=unit_direction(x, y, z, InvariantViolation))

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


def _kernel_steps(kernel, rows):
    """Each kernel vector b as the reduction reads it: (b, its support as
    (index, entry) pairs, b . b, rows . b)."""
    steps = []
    for b in kernel:
        support = [(i, e) for i, e in enumerate(b) if e]
        steps.append((b, support, sum(e * e for _, e in support),
                      tuple(sum([row[i] * e for i, e in support]) for row in rows)))
    return steps


def _reduce_witness(w, t, others):
    """Greedy infinity-norm reduction of a kernel vector w, with pairing
    t = rows . w, by the rest of the kernel basis (others, from
    _kernel_steps); stays inside the kernel lattice and keeps the
    projection nonzero.

    Each pass visits the b in order and k in (k0 - 1, k0, k0 + 1),
    k0 = round(w . b / b . b), and takes every w - k b of smaller norm and
    nonzero projection. A step changes w only on supp(b), so it can lower
    the norm only if supp(b) covers every index where |w| attains it: any
    other b is skipped unbuilt, and a candidate is built on supp(b) alone,
    with projection t - k (rows . b). Only candidates that rule would
    reject are skipped, so the order, k0 and the rule, and with them the
    witness, are those of the loop over whole vectors."""
    w = list(w)

    def peak():
        norm = max(map(abs, w))
        return norm, [i for i, e in enumerate(w) if abs(e) == norm]

    norm, top = peak()
    improved = True
    while improved:
        improved = False
        for b, support, bb, tb in others:
            if not all(b[i] for i in top):
                continue
            wb = sum(w[i] * e for i, e in support)
            k0 = (2 * wb + bb) // (2 * bb)  # round(wb / bb)
            for k in (k0 - 1, k0, k0 + 1):
                if k == 0:
                    continue
                cand = [w[i] - k * e for i, e in support]
                if max(map(abs, cand)) >= norm:
                    continue
                t_cand = tuple(a - k * e for a, e in zip(t, tb))
                if any(t_cand):
                    for (i, _), e in zip(support, cand):
                        w[i] = e
                    t = t_cand
                    norm, top = peak()
                    improved = True
                    if not all(b[i] for i in top):
                        break  # supp(b) no longer covers the peak
    return tuple(w)


def is_general_type(lattice: GramLattice, triple: HyperTriple,
                    point: TwistorPoint, bound: int = 3) -> GeneralTypeVerdict:
    """Degree-2 general-type test at a twistor point.

    Exact mode (rational ray): solve the integer system p(lambda)
    parallel to the ray; with a rational triple this always produces a
    witness, so rational points are never of general type. Only the
    kernel vectors that meet a live coordinate, one where some pairing
    row is nonzero, enter the reduction: any other projects to 0, so it
    never starts one, and it never covers the peak of a vector that does,
    so the witness is the one the whole kernel gives. Bounded mode
    (irrational point): search the coordinate box [-bound, bound]^r, in
    lexicographic order and in blocks of bounded memory, for the first
    witness with sine of the collinearity angle below 1e-9; absence is
    reported as general type up to the bound, not as a proof. Only H-,
    the vectors before 0, is searched: -v is a witness when v is, so the
    first witness of the box lies there. A box of more than 10^9 vectors
    raises InvalidBound, and one whose int64 products could wrap raises
    Unsupported.
    """
    rows, _ = pairing_rows(lattice, triple)
    bound = integer(bound, "bound")
    if bound < 1:
        raise InvalidBound("bound must be >= 1")

    if point.is_exact:
        # witnesses v solve (rows . v) x d = 0: one cross product per column
        cols = list(zip(*rows))
        kernel = integer_kernel(zip(*(_cross(col, point.dir) for col in cols)))
        # nonempty: the cleared class sum d_a w_a lies in the kernel, projecting to != 0
        # the entries on the live coordinates; the three rows are independent,
        # so there are at least three and itemgetter returns a tuple
        on_live = itemgetter(*(j for j, col in enumerate(cols) if any(col)))
        steps = _kernel_steps([v for v in kernel if any(on_live(v))], rows)
        candidates = [_reduce_witness(v, t, steps[:i] + steps[i + 1:])
                      for i, (v, _, _, t) in enumerate(steps) if any(t)]
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
    try:
        s = abs(zeta) ** 2
    except OverflowError:
        # |zeta|^2 past the float range: the point is (1, 2 zeta / |zeta|^2) in
        # floats; zeta is scaled by its largest part, as |zeta| may overflow too
        m = max(abs(zeta.real), abs(zeta.imag))
        w = zeta / m
        v = 2.0 / abs(w) ** 2 * w / m
        return TwistorPoint.from_unit(1.0, v.real, v.imag)
    return TwistorPoint.from_unit(
        (s - 1.0) / (s + 1.0),
        2.0 * zeta.real / (s + 1.0),
        2.0 * zeta.imag / (s + 1.0),
    )
