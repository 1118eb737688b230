"""Twistor points, the projection map, Hodge type and general type.

A twistor point is a signed ray in the positive 3-plane V, stored as a
primitive integer triple of coordinates in the triple basis (w_I, w_J,
w_K). Point equality is exact and includes the sign: L and -L are
different points. Irrational directions (for the bounded general-type
search) carry only a floating unit vector and no exact ray. pi_map
sends a positive class to its point, hodge_type_11 decides Hodge type
(1,1) at a point, and is_general_type gives a witness at a rational
point, or searches the box for one at an irrational point through the
walk of box.box_pairings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Complex
from operator import itemgetter
from typing import Optional

import numpy as np

from .box import box_pairings, digits
from .errors import InvalidBound, InvariantViolation, IrrationalPoint, NotPositive
from .linalg import (
    INTS,
    GramLattice,
    HyperTriple,
    Vector,
    clear_denominators,
    dot_nonzero,
    expand_in_V,
    int_vector,
    integer,
    integer_kernel,
    iterable,
    of_kind,
    pairing,
    primitive,
    q_sum,
    vector,
)
from .quaternions import unit_direction


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

    from_ray parses rational entries; the package's own int rays (pi_map,
    antipode) skip the parse and go straight to _from_ints, which alone
    computes the ray and its unit.
    """

    dir: Optional[tuple[int, int, int]]
    unit: tuple[float, float, float]

    @staticmethod
    def from_ray(a, b, c) -> "TwistorPoint":
        return TwistorPoint._from_ints(clear_denominators(vector((a, b, c))), (a, b, c))

    @staticmethod
    def _from_ints(t, given=None) -> "TwistorPoint":
        """The point of the ray of an int triple t; given, the arguments
        that t was parsed from, names a zero ray."""
        if not any(t):
            raise InvariantViolation(f"zero ray is not a twistor point: {given or t!r}")
        d = x = primitive(t)
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
            raise IrrationalPoint(f"operation needs an exact rational ray, got {self!r}")
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


def omega_of(triple: HyperTriple, point: TwistorPoint) -> Vector:
    """The class a w_I + b w_J + c w_K for the point's primitive ray."""
    return expand_in_V(triple, of_kind(point, TwistorPoint, "point").require_exact())


def pi_map(lattice: GramLattice, triple: HyperTriple, omega) -> PositiveClass:
    """The twistor projection: the unique point L with q(omega, omega_L) > 0
    among the two orientations of the projection ray of omega.

    With the pairing rows of the triple, that is the ray of
    t = rows . omega itself, by construction: for L = t / gcd(t),
    q(omega, omega_L) is a positive multiple of |t|^2. The kernel checks
    the signature first: V-perp is negative definite, so t != 0. Both q
    and t read only nonzero entries: q (q_sum, q_eval's sum) those of
    the Gram, t those of the pairing rows (K3: 6 of 66). Both are taken
    in ints on the cleared multiple of omega, after one length check.

    An omega of ints (type int: not bools, not numpy ints) is its own
    cleared multiple and is not parsed: its vec takes each Fraction from
    linalg's table of the small ints (int_vector). Any other omega is
    parsed by vector, to the same vec for the same values. A set or
    mapping, whose order is its own, is a DimensionMismatch."""
    nonzero = pairing(lattice, triple)[2]
    if type(omega) is not tuple:  # a tuple, the common call, needs no check
        omega = tuple(iterable(omega, "omega"))
    if INTS.issuperset(map(type, omega)):
        cleared, vec = omega, int_vector(omega)
    else:
        vec = vector(omega)
        cleared = clear_denominators(vec)  # a positive multiple: same sign of q
    lattice.check_length(cleared)
    q = q_sum(lattice, cleared, cleared)
    if q <= 0:  # q(omega, omega) is q / lcm(denominators)^2
        scale = math.lcm(*(e.denominator for e in vec))
        raise NotPositive(f"pi_map needs q(omega, omega) > 0, got q = {Fraction(q, scale ** 2)} "
                          f"for omega = ({', '.join(map(str, vec))})")
    return PositiveClass(vec=vec, point=TwistorPoint._from_ints(dot_nonzero(nonzero, cleared)))


def antipode(point: TwistorPoint) -> TwistorPoint:
    if of_kind(point, TwistorPoint, "point").dir is not None:  # -dir is primitive too
        return TwistorPoint._from_ints(tuple(-e for e in point.dir))
    return TwistorPoint(dir=None, unit=tuple(-e for e in point.unit))


def hodge_type_11(lattice: GramLattice, triple: HyperTriple, x,
                  point: TwistorPoint) -> bool:
    """Whether x has Hodge type (1,1) at the point: the projection of x
    onto V is an exact rational multiple (possibly zero) of the ray,
    from the pairing rows' nonzero entries alone, as in pi_map. An x of
    ints is its own cleared multiple and builds no Fraction."""
    of_kind(point, TwistorPoint, "point")
    if type(x) is not tuple:  # as in pi_map: a tuple needs no check
        x = tuple(iterable(x, "x"))
    if not INTS.issuperset(map(type, x)):
        x = clear_denominators(vector(x))
    nonzero = pairing(lattice, triple)[2]
    lattice.check_length(x)
    d = point.require_exact()
    return _cross(dot_nonzero(nonzero, x), d) == (0, 0, 0)


def two_zero_plane(triple: HyperTriple, point: TwistorPoint):
    """Two q-orthogonal vectors in V, each q-orthogonal to omega_L,
    spanning the real (2,0)+(0,2) plane at the point.

    For the ray (1,0,0) this returns (w_J, w_K)."""
    d = of_kind(point, TwistorPoint, "point").require_exact()
    k = min(range(3), key=lambda i: (abs(d[i]), i))
    e = tuple(1 if i == k else 0 for i in range(3))
    u = _cross(d, e)
    v = _cross(u, d)
    return (expand_in_V(triple, primitive(v)), expand_in_V(triple, primitive(u)))


def _kernel_steps(kernel, rows, d):
    """Each kernel vector b as the reduction reads it: (b, its support as
    (index, entry) pairs, b . b, lambda_b), where rows . b = lambda_b d.

    The kernel is that of v -> (rows . v) x d, so rows . b is parallel to
    d, an exact rational multiple lambda_b d. rows . b is an integer
    vector and d a primitive one, so lambda_b is an integer: if
    lambda_b = p / q in lowest terms, q divides p d_i for every i, so it
    divides every d_i and their gcd, 1. So lambda_b = (rows[i] . b) // d_i,
    exact, for the first i with d_i != 0, and rows . b is 0 exactly when
    lambda_b is."""
    i = next(i for i, e in enumerate(d) if e)
    row, di = rows[i], d[i]
    steps = []
    for b in kernel:
        support = [(j, e) for j, e in enumerate(b) if e]
        steps.append((b, support, sum(e * e for _, e in support),
                      sum([row[j] * e for j, e in support]) // di))
    return steps


def _reduce_witness(w, lam, others):
    """Greedy infinity-norm reduction of a kernel vector w, with pairing
    rows . w = lam d, by the rest of the kernel basis (others, from
    _kernel_steps); stays inside the kernel lattice and keeps the
    projection nonzero.

    Each pass visits the b in order and k in (k0 - 1, k0, k0 + 1),
    k0 = round(w . b / b . b), and takes every w - k b of smaller norm and
    nonzero projection. A step changes w only on supp(b), so it can lower
    the norm only if supp(b) covers every index where |w| attains it: any
    other b is skipped unbuilt, and a candidate is built on supp(b) alone,
    with projection (lam - k lambda_b) d, nonzero exactly when
    lam - k lambda_b is. Only candidates that rule would reject are
    skipped, so the order, k0 and the rule, and with them the witness,
    are those of the loop over whole vectors."""
    w = list(w)

    def peak():
        norm = max(map(abs, w))
        return norm, [i for i, e in enumerate(w) if abs(e) == norm]

    norm, top = peak()
    improved = True
    while improved:
        improved = False
        for b, support, bb, lam_b in others:
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
                if lam != k * lam_b:
                    for (i, _), e in zip(support, cand):
                        w[i] = e
                    lam -= k * lam_b
                    norm, top = peak()
                    improved = True
                    if not all(b[i] for i in top):
                        break  # supp(b) no longer covers the peak
    return tuple(w)


def _sine(t: np.ndarray, unit) -> tuple[np.ndarray, np.ndarray]:
    """(n, sine) for the rows of an (m, 3) int64 array t: each row's norm
    in floats, and the sine |t x unit| / n of its angle to the unit
    vector (nan where n = 0). Both are taken on the three float columns
    of t, each sum of three terms left to right and the cross product as
    np.cross forms it, so they equal the row formula's n =
    sqrt((t*t).sum(axis=1)) and sine from c = np.cross(t, unit) bit for
    bit, with no reduction over an axis of 3."""
    a, b, c = t.T.astype(float, order="C")
    x, y, z = unit
    n = np.sqrt(a * a + b * b + c * c)
    c0, c1, c2 = b * z - c * y, c * x - a * z, a * y - b * x
    with np.errstate(divide="ignore", invalid="ignore"):
        return n, np.sqrt(c0 * c0 + c1 * c1 + c2 * c2) / n


def is_general_type(lattice: GramLattice, triple: HyperTriple,
                    point: TwistorPoint, bound: int = 3) -> GeneralTypeVerdict:
    """Degree-2 general-type test at a twistor point.

    Exact mode (rational ray): solve the integer system p(lambda)
    parallel to the ray; with a rational triple this always produces a
    witness, so rational points are never of general type. The system
    A v = 0, A = (rows . v) x d, is taken on the kept columns only: the
    live ones, where some pairing row is nonzero, and the first two
    positions. That is exact, not a heuristic: A has rank 2, so
    integer_kernel's pivots land at positions 0 and 1, and a zero column
    at position 2 or later is never a pivot, never reduced and never
    swapped; its basis vector is e_j in its own slot. Dropping those
    columns drops only those e_j and leaves the order of the other basis
    vectors, each zero on every dropped coordinate, as it was. Only the
    kernel vectors that meet a live coordinate enter the reduction: any
    other projects to 0, so it never starts one, and it never covers the
    peak of a vector that does, so the witness is the one the whole
    kernel gives. The reduction runs on the kept coordinates, where the
    vectors' norms, supports and lexicographic order are those of their
    full-length forms, and the witness alone is scattered to rank r.

    Bounded mode (irrational point): search the coordinate box
    [-bound, bound]^r, in lexicographic order and in blocks of bounded
    memory, for the first witness with sine of the collinearity angle
    below 1e-9; absence is reported as general type up to the bound,
    not as a proof. Only H-, the vectors before 0, is searched: -v is a
    witness when v is, so the first witness of the box lies there. The test runs once per distinct
    pairing of a block (box_pairings), on the integer t that every box
    vector of the group projects to, so each vector gets the verdict it
    would get alone; the groups follow their first vectors, so the first
    passing group holds the first witness, and only its digits are
    built. The sine is taken on t's three float columns (_sine), bit for
    bit the one from row sums and np.cross. A box of more than 10^9
    vectors raises InvalidBound, and one whose int64 products could wrap
    raises Unsupported.
    """
    of_kind(point, TwistorPoint, "point")
    rows, _, _, live = pairing(lattice, triple)
    bound = integer(bound, "bound")
    if bound < 1:
        raise InvalidBound(f"bound must be >= 1, got {bound}")

    if point.is_exact:
        # the primitive ray, as _kernel_steps needs, also for a dir built
        # directly as a multiple of it; a zero dir is refused
        d = TwistorPoint._from_ints(point.dir).dir
        # witnesses v solve (rows . v) x d = 0: one cross product per kept column
        keep = sorted({0, 1, *live})
        kept = [[row[j] for j in keep] for row in rows]
        kernel = integer_kernel(zip(*(_cross(col, d) for col in zip(*kept))))
        # nonempty: the cleared class sum d_a w_a lies in the kernel, projecting to != 0
        # the entries on the live coordinates; the three rows are independent,
        # so there are at least three and itemgetter returns a tuple
        on_live = itemgetter(*(p for p, j in enumerate(keep) if j in live))
        steps = _kernel_steps([v for v in kernel if any(on_live(v))], kept, d)
        candidates = [_reduce_witness(v, lam, steps[:i] + steps[i + 1:])
                      for i, (v, _, _, lam) in enumerate(steps) if lam]
        witness = [0] * lattice.rank
        for j, e in zip(keep, min(candidates, key=lambda v: (max(abs(e) for e in v), v))):
            witness[j] = e
        return GeneralTypeVerdict(witness=tuple(witness))

    # bounded mode: floating direction, on the distinct pairings of each block
    walk = box_pairings(rows, bound)
    for start, _, _, t in walk.blocks:
        n, sine = _sine(t, point.unit)
        hits = np.flatnonzero((n > 0.0) & (sine <= 1e-9))
        if hits.size:  # rows follow their first vectors: the first hit is the first
            witness = digits(start + walk.position(hits[:1]), lattice.rank, bound)
            return GeneralTypeVerdict(witness=tuple(witness[0].tolist()))
    return GeneralTypeVerdict(witness=None, bound=bound)


INFINITY = complex(math.inf, 0.0)


def stereographic(point: TwistorPoint) -> complex:
    """CP^1 coordinate (b + ic)/(1 - a) of the unit representative;
    the north pole (1,0,0) maps to infinity."""
    a, b, c = of_kind(point, TwistorPoint, "point").unit
    if 1.0 - a == 0.0:
        return INFINITY
    return complex(b / (1.0 - a), c / (1.0 - a))


def stereographic_inverse(zeta: complex) -> TwistorPoint:
    if math.isinf(of_kind(zeta, Complex, "zeta").real) or math.isinf(zeta.imag):
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
