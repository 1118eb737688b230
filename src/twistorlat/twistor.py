"""Twistor points, the projection map and the box walk.

A twistor point is a signed ray in the positive 3-plane V, stored as a
primitive integer triple of coordinates in the triple basis (w_I, w_J,
w_K). Point equality is exact and includes the sign: L and -L are
different points. Irrational directions (for the bounded general-type
search) carry only a floating unit vector and no exact ray. The box
walk, _box_pairings, is shared by the bounded search and the scans; it
walks H-, the half of the box whose first nonzero entry is negative,
as every decision they take from a box vector v holds for -v too. A
block of the walk is a run of whole prefixes over a digit table of the
trailing coordinates, as many as fit the memory budget, and the
projection t = rows . v of a box vector is its table row's pairing plus
the prefix's. The walk hands its consumers the table's distinct
pairings, found one coordinate at a time with no digit table built, so
they decide on d rows a prefix instead of one a vector, and the index
in the whole box of the block's first vector, so the box vectors they
keep are the digits of their indices (_digits). Each coordinate keeps a
small map of its candidate pairings to its groups; the group of every
table row is composed from these maps only for the algebraic scan, the
one consumer that reads it. The bounded search takes its sine on the
three float columns of t, with no reduction over a row of 3 (_sine).
One key, _ray_keys, decides ray equality (the table's dedup through
_ray_order, the scans' dedup through one lexsort by ray key then box
index, and whether one cloud holds another in the covering radius) and
ray order (emission, through _ray_order).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Complex
from operator import itemgetter
from typing import Iterator, NamedTuple, Optional

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
    _dot_nonzero,
    _iterable,
    _pairing,
    clear_denominators,
    expand_in_V,
    integer,
    integer_kernel,
    of_kind,
    primitive,
    q_eval,
    vector,
)
from .quaternions import unit_direction


# Memory budget of one block: box rows (int64) in the scans and the
# bounded search, float32 grid-by-cloud cosines in covering_radius's
# screen (its band products take half of it, its whole-cloud products a
# sixteenth).
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


def _ray_order(rays: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(firsts, groups): the index of the first occurrence of each
    distinct row of an (n, 3) int64 array with no entry -2^63 (its
    absolute value wraps), in lexicographic order of the rows, and for
    each row the position of its distinct row in that order, from one
    stable sort of the row keys."""
    keys = _ray_keys(rays, int(np.abs(rays).max(initial=0)))
    order = keys.argsort(kind="stable")  # equal rows keep their order
    edge = _run_starts(keys[order])
    groups = np.empty(len(keys), dtype=np.intp)
    groups[order] = edge.cumsum() - 1
    return order[edge], groups


def _run_starts(keys: np.ndarray) -> np.ndarray:
    """For sorted keys, whether a run of equal keys starts at each."""
    edge = np.empty(len(keys), dtype=bool)
    edge[:1] = True
    edge[1:] = keys[1:] != keys[:-1]
    return edge


def _ray_keys(rays: np.ndarray, top: int) -> np.ndarray:
    """A key for each row of an (n, 3) int64 array whose entries lie in
    [-top, top]: equal for equal rows, and sorting as the rows do. Keys
    of two arrays taken with one top compare as their rows do."""
    base = 2 * top + 1
    if base ** 3 < 2 ** 63:  # entries plus (base-1)/2 are digits below base:
        return rays @ np.array([base * base, base, 1])  # keys sort as rows
    # too large to pack into one int64: records sort as rows too
    return np.ascontiguousarray(rays).view([("", np.int64)] * 3).ravel()


def _digits(index: np.ndarray, width: int, b: int) -> np.ndarray:
    """Rows index of the lexicographic walk of [-b, b]^width."""
    side = 2 * b + 1
    powers = side ** np.arange(width - 1, -1, -1, dtype=np.int64)
    return index[:, None] // powers % side - b


class _Walk(NamedTuple):
    """H- of a box as _box_pairings walks it. The box vectors are the
    prefix rows of k - free leading coordinates, each followed by every
    row of the digit table of the free trailing ones, size = (2b+1)^free
    rows in lexicographic order; the table itself is never built. Table
    rows with the same pairing rows . low form one group: firsts
    (ascending) gives each group's first table row and pairings its
    rows . low. levels holds one small map a table coordinate, the last
    first: level j's (2b+1, d) map sends (x, g), x's offset and a group
    g of level j - 1, to the group of level j of the row (x, rest) for
    the rows rest of g. groups composes them into the map of each table
    row to its group, size rows, only when it is read. blocks yields
    (start, high, m, t): the index in the lexicographic box of the
    block's first vector, prefix rows high, the number m of the block's
    len(high) * size vectors that lie in H-, and
    t = pairings + high @ rows_high.T, high-major, one row per group
    whose first vector lies in H-. The vector at position p of a block
    is _digits(start + p, k, b)."""

    free: int
    size: int
    levels: list[np.ndarray]
    firsts: np.ndarray
    pairings: np.ndarray
    blocks: Iterator[tuple[int, np.ndarray, int, np.ndarray]]

    @property
    def groups(self) -> np.ndarray:
        """The group of each table row: one gather a level, the last
        (size rows) the largest."""
        groups = np.zeros(1, np.intp)  # level 0: one empty row, its own group
        for level in self.levels:
            groups = level[:, groups].ravel()
        return groups

    def position(self, j: np.ndarray) -> np.ndarray:
        """The position in its block of the first vector of each row j of t."""
        d = len(self.firsts)
        return j // d * self.size + self.firsts[j % d]


def _box_pairings(rows, b: int) -> _Walk:
    """H-, the half of [-b, b]^k (k the width of the rows) whose first
    nonzero entry is negative, walked over the distinct pairings of its
    digit table (see _Walk). The bound, the int64 reach and the size of
    the whole box are checked on the call, before any block.

    Index i of the lexicographic walk of the box, (2b+1)^k = N vectors,
    is the vector -v for the v at index N-1-i. So the walk is H-, its
    first (N-1)/2 vectors, then 0, then -reverse(H-). Every consumer
    decides from v what it decides from -v: the norm and sine of
    t = rows . v, q(v, v) and the ray pair {r, -r} are the same for both.
    The first bounded witness thus lies in H- or nowhere, and a scan
    keys -v by the index N-1-i of the v at index i (scanning._scan).

    free is the largest number of trailing coordinates whose (2b+1)^free
    rows fit in a block; it is 0 when one coordinate's range alone is
    over the budget, and the table is then one empty row. The distinct
    table pairings are found one coordinate at a time, the last first,
    with no digit table: the table of level j has the rows (x, rest),
    x in [-b, b] leading, and (x, rest) pairs to x * col + p, col the
    coordinate's pairing column and p the pairing of rest. So level j's
    distinct pairings are the distinct x * col + p over x and the d
    distinct p of level j - 1, (2b+1) * d candidates, x-major. The first
    table row of candidate (x, p) is x's offset plus p's first row, so
    the candidates' first rows ascend, and one _ray_order pass over them
    numbers level j's groups by their first rows (U3 at B=3: 1,183
    distinct of 16,807 rows; the last level sorts 7 * 169 candidates,
    not 16,807 rows). Level j keeps its candidates' groups as a
    (2b+1, d) map, _Walk.levels; the group of each table row, n of them,
    is composed from the maps only where it is read (_Walk.groups): the
    algebraic scan reads it once a scan, and the bounded search and the
    non-general-type scan never do.

    A block is as many whole prefixes of the other k - free coordinates
    as fit, per_block // n of them; when free = 0, n = 1 and a block is
    per_block prefixes. t needs no per-vector product: its rows hold the
    d distinct pairings a prefix, not the n table rows, so
    len(t) <= per_block. The last block is cut where H- ends, (N-1)/2
    vectors in, so the zero vector needs no branch; the groups of the
    last prefix whose first row lies before the cut are a prefix of its
    rows of t, as firsts ascend.

    Every partial sum of t = rows_low . low + rows_high . high, and of a
    candidate, is one of rows . v, and so at most max|rows|*B*k in
    absolute value: the bound the int64 check takes."""
    if b < 1:
        raise InvalidBound(f"box_bound must be >= 1, got {b}")
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
    step = per_block // n  # whole prefixes a block: n <= per_block
    x = np.arange(-b, b + 1, dtype=np.int64)[:, None, None]
    # level 0, the table of no coordinate: one empty row, pairing 0
    firsts, pairings, levels = np.zeros(1, np.intp), np.zeros((1, 3), np.int64), []
    for i in range(k - 1, k - free - 1, -1):  # the last coordinate first: it ends minor
        d, size = len(firsts), side ** (k - 1 - i)
        candidates = (x * rows[:, i] + pairings).reshape(side * d, 3)
        lex, lex_groups = _ray_order(candidates)
        rank = np.argsort(lex)  # the groups in order of their first candidate
        pick = lex[rank]
        firsts = pick // d * size + firsts[pick % d]
        pairings = candidates[pick]
        renumber = np.empty_like(rank)  # the inverse of rank
        renumber[rank] = np.arange(len(rank))
        levels.append(renumber[lex_groups].reshape(side, d))
    rows_high = rows[:, :k - free].T

    def blocks():
        last = -(-half // n)  # prefixes up to the one where H- ends
        for p in range(0, last, step):
            high = _digits(np.arange(p, min(p + step, last), dtype=np.int64), k - free, b)
            full = len(high) - 1  # prefixes before the last: wholly in H-
            m = min(len(high) * n, half - p * n)
            cut = full * len(firsts) + np.searchsorted(firsts, m - full * n)
            yield p * n, high, m, (pairings + (high @ rows_high)[:, None]).reshape(-1, 3)[:cut]
    return _Walk(free, n, levels, firsts, pairings, blocks())


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
    return expand_in_V(triple, of_kind(point, TwistorPoint, "point").require_exact())


def pi_map(lattice: GramLattice, triple: HyperTriple, omega) -> PositiveClass:
    """The twistor projection: the unique point L with q(omega, omega_L) > 0
    among the two orientations of the projection ray of omega.

    With the pairing rows of the triple, that is the ray of
    t = rows . omega itself, by construction: for L = t / gcd(t),
    q(omega, omega_L) is a positive multiple of |t|^2. The kernel checks
    the signature first: V-perp is negative definite, so t != 0. Both q
    and t read only nonzero entries: q_eval those of the Gram, t those
    of the pairing rows (K3: 6 of 66).

    An omega of ints (type int: not bools, not numpy ints) is its own
    cleared multiple, so q and t are taken on it directly, in ints; only
    the returned vec is made of Fractions, on either path."""
    nonzero = _pairing(lattice, triple)[2]
    if type(omega) is not tuple:  # a tuple, the common call, needs no check
        omega = tuple(_iterable(omega, "omega"))
    if all(type(e) is int for e in omega):
        cleared = omega
    else:
        omega = vector(omega)
        cleared = clear_denominators(omega)  # a positive multiple: same sign of q
    q = q_eval(lattice, cleared, cleared)
    if q <= 0:  # q(omega, omega) is q / lcm(denominators)^2
        scale = math.lcm(*(e.denominator for e in omega))
        raise NotPositive(f"pi_map needs q(omega, omega) > 0, got q = {q / scale ** 2} "
                          f"for omega = ({', '.join(map(str, omega))})")
    return PositiveClass(vec=vector(omega) if cleared is omega else omega,  # once a call
                         point=TwistorPoint._from_ints(_dot_nonzero(nonzero, cleared)))


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
        x = tuple(_iterable(x, "x"))
    if not all(type(e) is int for e in x):
        x = clear_denominators(vector(x))
    nonzero = _pairing(lattice, triple)[2]
    lattice.check_length(x)
    d = point.require_exact()
    return _cross(_dot_nonzero(nonzero, x), d) == (0, 0, 0)


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
    pairing of a block (_box_pairings), on the integer t that every box
    vector of the group projects to, so each vector gets the verdict it
    would get alone; the groups follow their first vectors, so the first
    passing group holds the first witness, and only its digits are
    built. The sine is taken on t's three float columns (_sine), bit for
    bit the one from row sums and np.cross. A box of more than 10^9
    vectors raises InvalidBound, and one whose int64 products could wrap
    raises Unsupported.
    """
    of_kind(point, TwistorPoint, "point")
    rows, _, _, live = _pairing(lattice, triple)
    bound = integer(bound, "bound")
    if bound < 1:
        raise InvalidBound(f"bound must be >= 1, got {bound}")

    if point.is_exact:
        # witnesses v solve (rows . v) x d = 0: one cross product per kept column
        keep = sorted({0, 1, *live})
        kept = [[row[j] for j in keep] for row in rows]
        kernel = integer_kernel(zip(*(_cross(col, point.dir) for col in zip(*kept))))
        # nonempty: the cleared class sum d_a w_a lies in the kernel, projecting to != 0
        # the entries on the live coordinates; the three rows are independent,
        # so there are at least three and itemgetter returns a tuple
        on_live = itemgetter(*(p for p, j in enumerate(keep) if j in live))
        steps = _kernel_steps([v for v in kernel if any(on_live(v))], kept)
        candidates = [_reduce_witness(v, t, steps[:i] + steps[i + 1:])
                      for i, (v, _, _, t) in enumerate(steps) if any(t)]
        witness = [0] * lattice.rank
        for j, e in zip(keep, min(candidates, key=lambda v: (max(abs(e) for e in v), v))):
            witness[j] = e
        return GeneralTypeVerdict(witness=tuple(witness))

    # bounded mode: floating direction, on the distinct pairings of each block
    walk = _box_pairings(rows, bound)
    for start, _, _, t in walk.blocks:
        n, sine = _sine(t, point.unit)
        hits = np.flatnonzero((n > 0.0) & (sine <= 1e-9))
        if hits.size:  # rows follow their first vectors: the first hit is the first
            witness = _digits(start + walk.position(hits[:1]), lattice.rank, bound)
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
