"""Deterministic box scans and the density experiments.

Scans walk H-, the half of the box of the masked coordinates whose
first nonzero entry is negative, in the int64 blocks of
twistor._box_pairings, and collect the exact signed rays of the
projections onto V, each with its first witness in the whole box. A
block comes as the distinct projections of its vectors, one a group of
its digit table, so gcd and ray division run on those d rows, not on
every vector; the algebraic scan's positivity is a sum of per-table and
per-prefix terms. Each counting group gives two candidates, its ray and
the negation, keyed by the index in the whole lexicographic box of a
vector that gives them. After the walk, one sort of the candidates by
ray key makes each ray a run, whose least key names its first witness:
the witnesses of the cloud rows alone are the digits of those keys. The
algebraic scan also gives each candidate the least infinity norm of the
group's positive vectors, and a ray's least over its run is its least
bound (PointCloud.least_bounds): box b's cloud is the rays of least
bound at most b, so density takes every box's cloud from one scan.
The same ray key, through _ray_order, sorts the clouds for emission,
which works on the cloud's columns a chunk of rows at a time: every
field is a piece, its text with its separator, formatted once for each
distinct value of its run of columns (_texts), and a chunk's pieces are
joined once, with no Python work a row and no TwistorPoint built per
ray. A cloud
is two int64 arrays, the distinct rays and their witnesses, cast once
when it is built from nested lists or any other integer dtype; TwistorPoints are built
only when it is iterated, and a cloud of non-integer, zero or
mis-shaped rows, of entries past int64 or of a ray entry of -2^63, is
refused when it is built.
Covering radius against a Fibonacci-sphere grid is the desk-scale
measure of density: the arccos of the least best cosine of a grid row,
taken exactly on the float64 grid rows and units, so no BLAS kernel or
block shape changes it. One walk of the grid, which is sorted by y,
serves every cloud of a _covering_radii call, which reads only rays,
density's clouds of bounds 1..B among them: each chunk of grid rows is
built and cast to float32 once. A cloud whose rays a sign flip of x or
of z maps onto themselves, as every built-in lattice's are, is folded
by it: each grid row u is screened as u with |u_i| on those
coordinates, against the cloud's points >= 0 on them, which hold its
best, about a quarter of the cloud when both fold. y is not folded: it sorts the band. A float32
screen compares each row only with the cloud points in a y-band around
it, as wide as the nearest-point distance measured on every
grid_resolution-th row, and rows with no cloud point close enough fall
back to the whole cloud. A screened best is within _EPS32 of the exact
one, so the rows whose screened best is within 2 * _EPS32 of the least
of all are kept, and only they are recomputed: their float64 products
against the whole (folded) cloud, each within _DELTA of the exact
cosine, pick the few dots that can be the least best, and those are
evaluated as Fractions. A cloud that holds the cloud before
it, as density's box B+1 holds box B, leaves unscreened the rows whose
best against that smaller cloud already lies above its own least: the
least row is never among them. No randomness anywhere in this module.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, EmptyCloud, InvalidBound, InvariantViolation
from .linalg import GramLattice, HyperTriple, _iterable, integer, of_kind, pairing_rows
from .twistor import (
    _BLOCK_BYTES,
    _MAX_BOX_VECTORS,
    TwistorPoint,
    _box_pairings,
    _digits,
    _int64,
    _ray_keys,
    _ray_order,
    _run_starts,
)


@dataclass(frozen=True, eq=False)
class PointCloud:
    """Exact twistor points as int64 arrays in enumeration order: dirs (n, 3),
    distinct primitive signed rays, and witnesses (n, r), their first witnesses.
    least_bounds is set on scan_algebraic's clouds alone, None on any
    other: a read-only (n,) array of each ray's least box bound b, the
    least b for which scan_algebraic(b) over the same mask holds the ray."""

    dirs: np.ndarray
    witnesses: np.ndarray
    least_bounds: np.ndarray | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        # arrays of nested lists too: an entry past int64 gives object dtype,
        # refused below, and ragged rows no array at all
        for name in ("dirs", "witnesses"):
            try:
                object.__setattr__(self, name, np.asarray(getattr(self, name)))
            except ValueError as e:
                raise DimensionMismatch(f"cloud {name} are not an array: {e}") from None
        # a float ray would be written through %d, and a zero ray has no unit
        dirs, wit = self.dirs.shape, self.witnesses.shape
        if dirs[1:] != (3,) or len(wit) != 2 or wit[0] != dirs[0]:
            raise DimensionMismatch(f"cloud shapes {dirs} and {wit} are not (n, 3) and (n, r)")
        for name, a in (("dirs", self.dirs), ("witnesses", self.witnesses)):
            if not np.issubdtype(a.dtype, np.integer):
                raise InvariantViolation(f"cloud {name} of dtype {a.dtype} are not integers: "
                                         f"row 0 = {a[:1].tolist()}")
            # the int64 cast below would wrap a uint64 entry past 2^63 to a negative one
            if np.iinfo(a.dtype).max > np.iinfo(np.int64).max:
                past = np.flatnonzero((a > np.iinfo(np.int64).max).any(axis=1))
                if past.size:
                    raise InvariantViolation(f"cloud {name} row {past[0]} = "
                                             f"{a[past[0]].tolist()} does not fit int64")
            # cast once for every reader: _ray_keys packs int64 keys (a uint64
            # key would be float64), and np.abs wraps an int32 -2^31
            object.__setattr__(self, name, a.astype(np.int64, copy=False))
        # the packed key would take |-2^63| as -2^63: rays of it would merge
        low = np.flatnonzero((self.dirs == np.iinfo(np.int64).min).any(axis=1))
        if low.size:
            raise InvariantViolation(f"cloud dirs row {low[0]} = {self.dirs[low[0]].tolist()} "
                                     "holds -2^63, whose negation does not fit int64")
        zero = np.flatnonzero(~self.dirs.any(axis=1))
        if zero.size:
            raise InvariantViolation(f"zero ray is not a twistor point: dirs row {zero[0]}")

    @cached_property
    def _index(self) -> dict[tuple[int, int, int], int]:
        return {d: i for i, d in enumerate(map(tuple, self.dirs.tolist()))}

    def __len__(self):
        return len(self.dirs)

    def __contains__(self, point):
        return getattr(point, "dir", None) in self._index

    def __iter__(self):
        for d, u in zip(self.dirs.tolist(), _units(self.dirs).tolist()):
            yield TwistorPoint(dir=tuple(d), unit=tuple(u))

    def witness(self, point: TwistorPoint) -> tuple[int, ...]:
        if point not in self:
            raise KeyError(point)
        return tuple(self.witnesses[self._index[point.dir]].tolist())

    def rays(self) -> set[tuple[int, int, int]]:
        return set(self._index)


# the largest |entry| whose three squares sum within int64
_INT64_SQUARES = math.isqrt((2 ** 63 - 1) // 3)


def _units(dirs: np.ndarray) -> np.ndarray:
    """TwistorPoint.from_ray's units. Each sum of squares is exact: in
    int64 when every |entry| is at most _INT64_SQUARES, in Python ints
    past it, where int64 would wrap. Either exact sum is rounded to the
    nearest float64, ties to even, so both give the same bits."""
    if dirs.max(initial=0) <= _INT64_SQUARES and dirs.min(initial=0) >= -_INT64_SQUARES:
        sums = (dirs * dirs).sum(axis=1)
    else:
        sums = (dirs.astype(object) ** 2).sum(axis=1)
    return dirs / np.sqrt(sums.astype(float))[:, None]


def _table_terms(gram: np.ndarray, free: int,
                 b: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(q_low, p_low, lam) over the digit table of the last free of the k
    coordinates of an int64 Gram: each table row low, in lexicographic
    order (one empty row when free = 0), gives q_low = q(low, low),
    p_low = low @ G[lo:, :lo], lo = k - free, and lam = max |low_i|, in
    the least integer dtype that holds b + 1, with no digit table built.

    They are built one coordinate at a time, the last first, as
    twistor._box_pairings builds its groups. Level j's table has the rows
    (x, v), x in [-b, b] leading, for its coordinate c = k - j and the rows
    v of level j - 1, and p holds v @ G[c + 1:, :c + 1]. So with
    r = G[c, c + 1:] . v, the last column of p,
    q(x, v) = x * (G_cc * x + 2 * r) + q(v), (x, v) @ G[c:, :c] is
    x * G[c, :c] plus the first c columns of p, and
    lam(x, v) = max(|x|, lam(v)). _scan bounds every partial sum."""
    k = len(gram)
    x = np.arange(-b, b + 1, dtype=np.int64)[:, None]
    norm = np.abs(x).astype(np.min_scalar_type(b + 1))  # |x|, in lam's dtype
    q, p = np.zeros(1, np.int64), np.zeros((1, k), np.int64)  # level 0: one empty row
    lam = np.zeros(1, norm.dtype)
    for c in range(k - 1, k - free - 1, -1):  # the last coordinate first: it ends minor
        q = (x * (gram[c, c] * x + 2 * p[:, c]) + q).ravel()
        p = (x[:, :, None] * gram[c, :c] + p[:, :c]).reshape(len(q), c)
        lam = np.maximum(norm, lam).ravel()
    return q, p, lam


def _scan(lattice: GramLattice, triple: HyperTriple, bound: int, mask,
          both_signs: bool) -> PointCloud:
    """The block loop of the scans, over H-, on the distinct pairings of
    each block (twistor._Walk): every row of t is a group of box vectors
    with one projection. A group counts from its first positive vector
    or, with both_signs, from its first vector if its projection is
    nonzero, and up to its last positive vector. A counting group of ray
    r gives two candidates, r and -r, each keyed by the index in the
    lexicographic box [-B, B]^k, N = (2B+1)^k vectors, of a vector that
    gives it. Index N-1-i holds -v for the v at index i, so the whole box
    is H-, 0, -reverse(H-). One sign only, r first occurs at the group's
    first vector, key start + first, and -r at the negation of its last,
    key N-1-(start + last). With both_signs every nonzero vector gives r
    and then -r: keys 2(start + first) and 2(start + first) + 1. One
    argsort of the candidates by ray key (_ray_keys, packed or records)
    makes each ray a run, and np.minimum.reduceat over the runs takes
    each ray's least key. That key (halved with both_signs) is the index
    of the ray's first witness in the whole box, so the witness is its
    digits: an index past the middle already names -v. Distinct rays
    have distinct least keys, as a key names one vector and its ray.

    The algebraic scan also takes each ray's least bound: the least b
    whose box [-b, b]^k holds a positive vector of the ray, so that the
    rays of least bound at most b are scan_algebraic(b)'s. A counting
    group's level is the least infinity norm of its positive vectors,
    max(mu, least lam over its positive table rows), with mu its
    prefix's norm and lam a table row's (_table_terms): one more
    np.minimum.at over the positive vectors the block picks. -v has v's
    norm, so r and -r both take the group's level, and a second
    np.minimum.reduceat over the runs takes each ray's least. Levels are
    of the least integer dtype that holds bound + 1, the level of a group
    with no positive vector, which no candidate takes.

    Positivity is separable over the table: with v = high + low,
    q(v, v) = Q_low + 2 P_low . high + q(high), where Q_low = q(low, low)
    and P_low = low @ G_lh are built once a call, one coordinate at a
    time (_table_terms). A block's q is built in place: high @ P_low.T,
    doubled, plus Q_low, plus q(high). Each partial sum on the way,
    inside the products too, is a sum of some of the terms G_ij v_i v_j
    (the cross terms once, then both ways, then with the table's and
    the prefix's own), so at most sum_ij |G_ij v_i v_j| <= max|G|*B^2*k^2
    in absolute value. So is every partial sum of the recurrence. On
    level j of it, over j coordinates, r = G_c,rest . v has
    |r| <= max|G|*B*(j-1), so |G_cc x + 2r| <= max|G|*B*(2j-1), its
    product with x is at most max|G|*B^2*(2j-1), and adding
    |q(v)| <= max|G|*B^2*(j-1)^2 gives at most max|G|*B^2*j^2. Every
    entry of p, x G_c,: plus a partial row of v @ G, is at most
    max|G|*B*k. That is the bound the int64 check takes."""
    # the kernel checks the signature first; then the box enumerates only the
    # masked coordinates (sorted, without repeats), against the matching
    # columns of the pairing rows and Gram submatrix
    full_rows, _ = pairing_rows(lattice, triple)
    bound = integer(bound, "bound")
    active = (list(range(lattice.rank)) if mask is None
              else sorted({integer(i, "mask entry") for i in _iterable(mask, "mask")}))
    for i in active:
        if not 0 <= i < lattice.rank:
            raise DimensionMismatch(f"mask index {i} out of range for rank {lattice.rank}")
    rows = [[row[i] for i in active] for row in full_rows]
    walk = _box_pairings(rows, bound)
    n, d, k = walk.size, len(walk.firsts), len(active)
    # the candidate rays, their keys and, one sign only, their levels; a walk
    # over no coordinate yields no block, so the lists start with no candidate
    keys, rays, levels = [np.empty(0, np.int64)], [np.empty((0, 3), np.int64)], None
    if not both_signs:
        # only the sign of q(v, v) is used, so the Gram content is divided out
        sub = [[lattice.gram[i][j] for j in active] for i in active]
        content = math.gcd(*(e for row in sub for e in row)) or 1
        gram = _int64([[e // content for e in row] for row in sub],
                      (bound * k) ** 2, "max|G|*B^2*k^2").reshape(k, k)
        lo = k - walk.free  # the first table coordinate
        q_low, p_low, lam = _table_terms(gram, walk.free, bound)
        p_low_t, g_high = p_low.T, gram[:lo, :lo]
        levels = [np.empty(0, lam.dtype)]
        groups = walk.groups  # composed once a scan

    for start, high, m, t in walk.blocks:
        g = np.gcd(np.gcd(t[:, 0], t[:, 1]), t[:, 2])  # nonnegative
        if both_signs:
            first = walk.position(np.arange(len(t)))
        else:  # the positive vectors of H-, by position, their groups and levels
            q = high @ p_low_t
            q *= 2
            q += q_low
            q += ((high @ g_high) * high).sum(axis=1)[:, None]
            at = np.flatnonzero(q.ravel()[:m] > 0)
            prefix, row = np.divmod(at, n)
            group = prefix * d + groups[row]
            first, last = np.full(len(t), m), np.full(len(t), -1)
            least = np.full((len(high), d), bound + 1, lam.dtype)  # a row a prefix
            np.minimum.at(first, group, at)
            np.maximum.at(last, group, at)
            np.minimum.at(least.ravel(), group, lam[row])
            mu = np.abs(high).max(axis=1, initial=0).astype(lam.dtype)  # the prefix norms
            np.maximum(least, mu[:, None], out=least)
        # positive vectors are not in the negative definite V-perp: g > 0
        keep = g > 0 if both_signs else last >= 0
        r = t[keep] // g[keep, None]
        first = start + first[keep]
        if both_signs:
            keys += [2 * first, 2 * first + 1]
        else:
            keys += [first, (2 * bound + 1) ** k - 1 - (start + last[keep])]
            level = least.ravel()[:len(t)][keep]
            levels += [level, level]
        rays += [r, -r]
    keys, rays = np.concatenate(keys), np.concatenate(rays)
    # one sort by ray: each ray's run holds its least key and least level
    ray_keys = _ray_keys(rays, int(np.abs(rays).max(initial=0)))
    order = np.argsort(ray_keys)
    runs = np.flatnonzero(_run_starts(ray_keys[order]))
    firsts = np.minimum.reduceat(keys[order], runs)
    kept = np.argsort(firsts)  # the cloud as it occurs in the box
    full = np.zeros((len(kept), lattice.rank), dtype=np.int64)  # rank-r witnesses
    full[:, active] = _digits(firsts[kept] >> both_signs, k, bound)  # key // 2 with both signs
    cloud = PointCloud(rays[order[runs[kept]]], full)
    if levels is not None:
        least = np.minimum.reduceat(np.concatenate(levels)[order], runs)[kept]
        least.flags.writeable = False
        object.__setattr__(cloud, "least_bounds", least)
    return cloud


def scan_algebraic(lattice: GramLattice, triple: HyperTriple, bound: int,
                   mask=None) -> PointCloud:
    """Projections of all positive integral vectors of the box
    [-bound, bound] over the mask's coordinates (all when None): the box
    truncation of the set of algebraic twistor points."""
    return _scan(lattice, triple, bound, mask, both_signs=False)


def scan_non_general_type(lattice: GramLattice, triple: HyperTriple, bound: int,
                          mask=None) -> PointCloud:
    """Signed projection rays of all integral vectors of the box, as in
    scan_algebraic, with nonzero projection: the box truncation of the
    non-general-type points. Both orientations of each ray are included,
    +ray first."""
    return _scan(lattice, triple, bound, mask, both_signs=True)


def fibonacci_sphere(n: int) -> np.ndarray:
    """Deterministic near-uniform grid of n points on S^2, sorted by y."""
    if integer(n, "n") < 1:
        raise InvalidBound(f"n must be >= 1, got {n}")
    _check_points(n, "n =")
    return _fibonacci_rows(n, np.arange(n))


def _fibonacci_rows(n: int, i: np.ndarray) -> np.ndarray:
    """Rows i, an int array, of fibonacci_sphere(n), bit for bit."""
    y = (i * (2.0 / n)) - 1.0 + 1.0 / n
    r = np.sqrt(np.maximum(0.0, 1.0 - y * y))
    phi = i * (math.pi * (3.0 - math.sqrt(5.0)))
    return np.column_stack((np.cos(phi) * r, y, np.sin(phi) * r))


def _check_grid(grid_resolution: int) -> int:
    grid_resolution = integer(grid_resolution, "grid_resolution")
    if grid_resolution < 2:
        raise InvalidBound(f"grid_resolution must be >= 2, got {grid_resolution}")
    _check_points(grid_resolution ** 2, f"grid_resolution {grid_resolution} gives")
    return grid_resolution


def _check_points(points: int, given: str) -> None:
    """Refuse a Fibonacci grid of more than _MAX_BOX_VECTORS points, before
    any is built; given names what asked for them."""
    if points > _MAX_BOX_VECTORS:
        raise InvalidBound(f"{given} {points} grid points, more than {_MAX_BOX_VECTORS}")


# bound on |float32 cosine - float64 cosine| of two unit vectors; derived
# in covering_radius's docstring
_EPS32 = 1e-6

# bound on |float64 cosine - exact cosine| of two float64 near-unit
# vectors: a three-term dot, in any order, with or without FMA, errs by
# at most gamma_3 = 3*2^-53/(1 - 3*2^-53), about 3.3e-16, of the sum of
# |products|, which is 1 within a few ulps
_DELTA = 1e-15


def _best32(points: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """Each float32 column's best float32 cosine against the points, -inf for none."""
    return np.fmax.reduce(points @ columns, axis=0, initial=-np.inf)


def _exact_cosine(row: np.ndarray, unit: np.ndarray) -> Fraction:
    """The dot of two float64 vectors, exact."""
    return sum(Fraction(a) * Fraction(b) for a, b in zip(row.tolist(), unit.tolist()))


def _distinct(keys: np.ndarray) -> np.ndarray:
    """The distinct keys, sorted."""
    keys = np.sort(keys)
    return keys[_run_starts(keys)]


def _keyed(rays: np.ndarray) -> tuple[int, np.ndarray]:
    """(top, keys): top = max |entry| of the (n, 3) rays, and their
    distinct _ray_keys, taken with top, sorted."""
    top = int(np.abs(rays).max(initial=0))
    return top, _distinct(_ray_keys(rays, top))


def _holds(keyed: tuple[int, np.ndarray], inner: np.ndarray) -> bool:
    """Whether every ray of inner is among the rays keyed (_keyed):
    inner's keys, packed as theirs, are among their sorted keys."""
    top, keys = keyed
    if np.abs(inner).max(initial=0) > top:
        return False
    find = _ray_keys(inner, top)
    return bool((keys[np.searchsorted(keys, find).clip(max=len(keys) - 1)] == find).all())


def _mirrored(rays: np.ndarray, keyed: tuple[int, np.ndarray], sign: list[int]) -> bool:
    """Whether the rays times sign, a flip of one coordinate, are the
    rays, keyed (_keyed)."""
    top, keys = keyed
    return np.array_equal(_distinct(_ray_keys(rays * sign, top)), keys)


class _Screen:
    """One cloud's float32 screen of the grid, fed a chunk of grid rows at
    a time with a lower bound on each row's best. Its units, band and ys
    are those of C_F, the points >= 0 on the folded coordinates F (flips),
    and it folds each grid row it reads. A row whose bound is
    above c0 + eps is settled: its best is above the least, and it is not
    screened. Each open row whose screened best is within 2*eps of the
    least so far is kept, and radius takes the exact least from the kept
    rows; covering_radius has the argument."""

    def __init__(self, dirs: np.ndarray, sample: np.ndarray):
        # F, the folded coordinates: x and z when their sign flip maps the
        # rays onto themselves. Only C_F, the rays >= 0 on F, is screened
        self.keyed = _keyed(dirs)
        self.flips = np.array([_mirrored(dirs, self.keyed, [-1, 1, 1]), False,
                               _mirrored(dirs, self.keyed, [1, 1, -1])])
        self.units = _units(dirs[(dirs[:, self.flips] >= 0).all(axis=1)])
        band = self.units[np.argsort(self.units[:, 1])]  # C_F by y
        self.ys, self.band = np.ascontiguousarray(band[:, 1]), band.astype(np.float32)
        self.step = max(1, _BLOCK_BYTES // (8 * len(band)))
        sample = np.abs(sample, out=sample.copy(), where=self.flips[:, None])
        self.c0 = float(self._whole(sample).min())  # the least best of the sample rows
        self.h = math.sqrt(2 - 2 * (self.c0 - _EPS32)) + 1e-9
        self.least, self.kept = math.inf, []  # kept: (grid row, its screened best)

    def _whole(self, columns: np.ndarray) -> np.ndarray:
        """Each float32 column's best against the whole (folded) cloud,
        with the columns as the product's rows: a max along rows is the
        faster reduction. A product's cosines fill a sixteenth of
        _BLOCK_BYTES. A quarter was faster for large clouds, but then a
        folded cloud's few sample rows, one product at a small grid, peak
        far lower than a large grid's full products: memory would follow
        the grid."""
        best = np.empty(columns.shape[1], np.float32)
        step = max(1, _BLOCK_BYTES // (64 * len(self.band)))
        for s in range(0, len(best), step):
            best[s:s + step] = (columns[:, s:s + step].T @ self.band.T).max(axis=1)
        return best

    def screen(self, c: int, y: np.ndarray, grid: np.ndarray, lb: np.ndarray):
        """Screen the chunk of grid rows from row c on: y holds their y,
        ascending, grid their float32 columns, and lb a float64 lower bound
        on each row's best. The open rows, those with lb <= c0 + eps, are
        screened, and their lb becomes their screened best - eps. The kept
        rows are those within 2*eps of the least so far."""
        step = self.step
        if self.flips.any():  # the chunk folded, a copy: every screen reads grid
            grid = np.abs(grid, out=grid.copy(), where=self.flips[:, None])
        rows = np.flatnonzero(lb <= self.c0 + _EPS32)
        # the open rows, step a product, each against the band of their
        # product's y-range; grid[:, rows] would be F-ordered, a slower
        # operand
        cols = grid if len(rows) == len(y) else np.take(grid, rows, axis=1)
        firsts = np.arange(0, len(rows), step)
        lasts = np.minimum(firsts + step, len(rows))
        lo = np.searchsorted(self.ys, y[rows[firsts]] - self.h)
        hi = np.searchsorted(self.ys, y[rows[lasts - 1]] + self.h)
        best = np.empty(len(rows), np.float32)
        for a, b, i, j in zip(firsts.tolist(), lasts.tolist(), lo.tolist(), hi.tolist()):
            best[a:b] = _best32(self.band[i:j], cols[:, a:b])
        far = np.flatnonzero(best < self.c0 + _EPS32)
        best[far] = self._whole(np.take(cols, far, axis=1))
        best = best.astype(np.float64)  # exact: compared in float64 from here on
        lb[rows] = best - _EPS32
        self.least = min(self.least, float(best.min(initial=math.inf)))
        cut = self.least + 2 * _EPS32
        near = np.flatnonzero(best <= cut)
        self.kept = ([(r, m) for r, m in self.kept if m <= cut]
                     + list(zip((c + rows[near]).tolist(), best[near].tolist())))

    def radius(self, n: int) -> float:
        """arccos of the least exact best over the kept rows: their float64
        products against the whole cloud pick the dots to take exactly."""
        near = []  # (float64 best, grid row, the points within 2*delta of that best)
        rows = _fibonacci_rows(n, np.array([r for r, _ in self.kept]))
        for row in np.abs(rows, out=rows, where=self.flips):
            cos = self.units @ row
            best = cos.max()
            near.append((best, row, self.units[cos >= best - 2 * _DELTA]))
        cut = min(best for best, _, _ in near) + 2 * _DELTA
        least = min(max(_exact_cosine(row, unit) for unit in units)
                    for best, row, units in near if best <= cut)
        return math.acos(min(1.0, max(-1.0, float(least))))


def _covering_radii(clouds, g: int) -> list[float]:
    """covering_radius of each cloud, in one walk of the grid of
    resolution g, as _check_grid returns it. A cloud is given as its rays
    alone, a nonempty (n, 3) int64 array of a PointCloud's dirs or of
    rows of them, as density's smaller boxes are."""
    n = g * g
    sample = _fibonacci_rows(n, np.arange(0, n, g)).T.astype(np.float32, order="C")
    screens = [_Screen(dirs, sample) for dirs in clouds]
    # a cloud that holds the one before it starts from the bounds that
    # cloud's screen left; any other, from none
    nested = [False] + [_holds(b.keyed, a) for a, b in zip(clouds, screens[1:])]
    # chunks of rows whose dozen or so float64 temporaries a row fill a
    # tenth of _BLOCK_BYTES
    chunk = max(1, _BLOCK_BYTES // 1024)
    for c in range(0, n, chunk):
        grid = _fibonacci_rows(n, np.arange(c, min(c + chunk, n)))
        # y a copy, so the float64 chunk is freed before the screens
        y, grid = grid[:, 1].copy(), grid.T.astype(np.float32, order="C")
        lb = np.empty(len(y))
        for screen, inner in zip(screens, nested):
            if not inner:
                lb.fill(-np.inf)
            screen.screen(c, y, grid, lb)
    return [screen.radius(n) for screen in screens]


def covering_radius(cloud: PointCloud, grid_resolution: int) -> float:
    """Max over a grid_resolution^2 Fibonacci grid of the angular
    distance to the nearest cloud point, in radians: arccos of the least,
    over the grid rows, of a row's best (max) cosine against the cloud.
    The cosines are the exact dots of the float64 grid rows and units,
    and the least is rounded to float64 once, so the radius depends on
    no BLAS kernel, block shape or _BLOCK_BYTES.

    The grid is sorted by y. One walk of it serves every cloud of a
    _covering_radii call: each chunk of _BLOCK_BYTES // 1024 rows is
    built once in float64 and cast once to float32 columns, and each
    cloud screens it with its own step, c0 and band; step rows of
    float32 cosines against the whole cloud fill half of _BLOCK_BYTES.

    Each cloud's screen is folded by F, the coordinates among x and z
    whose sign flip maps the cloud's rays onto themselves, checked
    exactly on the rays' sorted keys. For a grid row u let u' be u with
    |u_i| for i in F, exact in floating point, as the flips of the units
    are. A flip is a bijection of the cloud that negates the same
    coordinate of the row and of each point, so best(u) = best(u'),
    exactly. And for a point p with p_i < 0, i in F, its flipped image
    is in the cloud, and its dot with u' is larger by 2 * u'_i * |p_i|
    >= 0. So u''s best is reached on C_F, the points with p_i >= 0 for
    every i in F, and each chunk's float32 columns are folded once a
    screen, the sample rows and the kept rows too, and compared with
    C_F alone: its band, ys and units. Everything below holds of u'
    against C_F as of u against the cloud, so the radius is unchanged,
    bit for bit. y is not folded: it is the band's sort key, and the
    grid's. A cloud with no such symmetry has F empty, and is screened
    whole.

    A float32 screen finds the rows that can hold the least best.
    Its band products have the cloud points as rows and the grid rows as
    columns, and a column's max is its row's best; its whole-cloud
    products have the grid rows as rows, the faster reduction for a
    whole cloud, and a row's max is its best. Rounding the three
    components of each unit to float32 errs by a relative 2^-24 each, and
    a float32 dot of three terms, summed in any order, with or without
    FMA, adds at most gamma_3 = 3*2^-24/(1 - 3*2^-24) of the sum of
    |products|, which is at most 1 for unit vectors. So a float32 cosine
    is within about 5*2^-24, 3e-7, of the float64 one, which is within
    delta = _DELTA = 1e-15 of the exact one, and eps = _EPS32 = 1e-6
    bounds their sum, eps' = 3e-7 + delta, with room.

    The screen's band is measured on the grid. Every grid_resolution-th
    row is compared with the whole cloud, and c0 is the least of their
    float32 bests. A point whose cosine to a row is at least c0 - eps
    lies within the chord sqrt(2 - 2*(c0 - eps)) of it, and so within
    that distance of it in y (h; 1e-9 is added for rounding). So each
    step open rows are compared with the cloud points within h of them
    in y. If a row's band best is at least c0 + eps, the row's nearest
    point has a cosine above c0 - eps, lies in the band, and the band
    best is within eps' of the row's exact best. A row whose band best
    is below c0 + eps is far, and is compared with the whole cloud, step
    such rows a product. So every screened best is within eps' < eps of
    the exact best, whatever c0 is; c0 only sets how wide the band is.

    Rows are settled, not screened, with lower bounds carried from the
    cloud before. For clouds A within B, as density's boxes are, a row's
    best against B is at least its best against A, so at least A's
    screened best - eps. Each chunk row carries such a bound, lb: -inf
    for the first cloud and for any cloud that does not hold the one
    before it (_holds checks it on the rays' keys), and a screened row's
    screened best - eps after it. As best(u) = best(u'), a bound holds
    for a row folded or not, so a folded cloud starts from the bounds of
    an unfolded one, and the other way round. Some sample row's exact
    best is at most c0 + eps, so the exact least L is too, and a row
    with lb > c0 + eps has a best above L: it is settled. The other,
    open, rows are screened as above.

    Each open row is kept with its screened best while that is within
    2*eps of the least screened best so far. The row of L is never
    settled, and its screened best, within eps' of L, lies within 2*eps'
    of the least screened best of all, which is at least L - eps': it
    is kept. The kept rows are rebuilt in float64 and multiplied with
    the whole cloud, one row at a time, as a filter: each float64
    cosine is within delta of the exact one. So a row's exact best is
    the exact cosine of one of its points within 2*delta of the row's
    float64 best, and the row of L is among the rows whose float64 best
    is within 2*delta of the least. Those few dots are taken exactly, as
    Fractions of the float64 entries; the least of the rows' exact bests
    is L, and arccos, decreasing, of L rounded once is the radius. The
    arccos is libm's math.acos: numpy's takes a SIMD path the CPU picks,
    and its AVX-512 one is an ulp off the correctly rounded radius of U3
    at B=4, grid 200.
    """
    cloud = of_kind(cloud, PointCloud, "cloud")
    g = _check_grid(grid_resolution)  # a bad grid is named before an empty cloud
    return _covering_radii([_nonempty(cloud)], g)[0]


def _nonempty(cloud: PointCloud) -> np.ndarray:
    """The rays of a cloud that has one; an empty cloud has no covering radius."""
    if len(cloud) == 0:
        raise EmptyCloud("covering radius of an empty cloud is undefined: 0 rays, "
                         f"witnesses of shape {cloud.witnesses.shape}")
    return cloud.dirs


# about what a written field holds: its float64 or int64, its piece in
# the object array and its text, shared by the value's repeats
# (tracemalloc, one chunk: 493 bytes a 15-piece CSV row of U3, 1070 a
# 31-piece row of masked K3, 218 an SVG row of 7)
_FIELD_BYTES = 48


def _by_ray(cloud: PointCloud, row_bytes: int):
    """The cloud's row indices in exact ray order, in chunks of rows whose
    arrays, Python objects and text, about row_bytes a row, fill at most
    _BLOCK_BYTES."""
    order = _ray_order(cloud.dirs)[0]
    step = max(1, _BLOCK_BYTES // row_bytes)
    return (order[s:s + step] for s in range(0, len(order), step))


def _texts(values: np.ndarray, formats) -> np.ndarray:
    """formats[j] % v for each v of column j of values, a (rows, cols)
    float64 or int64 array: an object array of its shape. Each run of
    columns of one format formats each of its distinct values once and
    takes their texts in one gather. Values are keyed by their int64
    bits, so 0.0 and -0.0, and NaN payloads, stay apart: every text is
    fmt % v, byte for byte. A run whose keys span fewer than a quarter
    of its entries, as rays' and witnesses' small ints do, formats every
    key of that span and gathers at key - least, with no sort."""
    texts = np.empty(values.shape, object)
    col = 0
    for fmt, run in itertools.groupby(formats):
        end = col + len(list(run))
        keys = values[:, col:end].view(np.int64)
        least, most = (int(keys.min()), int(keys.max())) if keys.size else (0, -1)
        if most - least < keys.size // 4:
            distinct, inverse = np.arange(least, most + 1, dtype=np.int64), keys - least
        else:
            distinct, inverse = np.unique(keys, return_inverse=True)
        made = np.array(list(map(fmt.__mod__, distinct.view(values.dtype).tolist())), object)
        texts[:, col:end] = made[inverse.reshape(keys.shape)]
        col = end
    return texts


def write_csv(cloud: PointCloud, stream):
    """Emit the cloud as CSV, sorted by exact ray. The CP^1 column is
    stereographic's (b + ic)/(1 - a) of the unit, inf,0 where 1 - a == 0.
    A chunk's rows are its pieces, each a field's text with its separator
    (_texts; the floats %.17g), then the row's end, joined once."""
    r = of_kind(cloud, PointCloud, "cloud").witnesses.shape[1]
    write = stream.write  # once: a lazy click.File forwards each lookup
    write("a,b,c,ux,uy,uz,cp1_re,cp1_im,witness\n")
    # a row is the ray, the five floats, the witness and the end: with no
    # witness entry the row still ends with the witness column's comma
    ray, floats, witness = ("%d", ",%d", ",%d"), (",%.17g",) * 5, (",%d", *[";%d"] * (r - 1))[:r]
    for i in _by_ray(cloud, _FIELD_BYTES * (9 + r)):
        dirs = cloud.dirs[i]
        units = _units(dirs)
        den = 1.0 - units[:, 0]
        with np.errstate(divide="ignore", invalid="ignore"):
            cp1 = units[:, 1:] / den[:, None]
        cp1[den == 0.0] = (math.inf, 0.0)
        pieces = np.empty((len(i), 9 + r), object)
        pieces[:, :3] = _texts(dirs, ray)
        pieces[:, 3:8] = _texts(np.concatenate((units, cp1), axis=1), floats)
        pieces[:, 8:-1] = _texts(cloud.witnesses[i], witness)
        pieces[:, -1] = "\n" if r else ",\n"
        write("".join(pieces.ravel().tolist()))


def write_svg(cloud: PointCloud, stream):
    """Scatter plot of the cloud: two Lambert equal-area hemispheres
    (around +a and -a) side by side, each 400 pixels square. A unit u is
    drawn in the hemisphere around s = +1 or -1 when s * u.x >= 0 (both
    when u.x = 0), at f * (u.y, s * u.z) with f = sqrt(2 / (1 + s * u.x)).
    A circle is two pieces, each a %.2f pixel coordinate's text with the
    markup around it (_texts), and a chunk's circles are joined once."""
    of_kind(cloud, PointCloud, "cloud")
    size, pad = 400, 10
    scale = (size - 2 * pad) / (2.0 * math.sqrt(2.0))
    width = 2 * size + pad
    write = stream.write  # once: a lazy click.File forwards each lookup
    write(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{size}" viewBox="0 0 {width} {size}">\n')
    cx, sign = np.array([size / 2.0, size + pad + size / 2.0]), np.array([1.0, -1.0])
    for c in cx.tolist():
        write(
            f'<circle cx="{c:.2f}" cy="{size / 2.0:.2f}" '
            f'r="{math.sqrt(2.0) * scale:.2f}" fill="none" stroke="black"/>\n')
    circle = '<circle cx="%.2f', '" cy="%.2f" r="1.5"/>\n'
    for i in _by_ray(cloud, _FIELD_BYTES * 7):  # a unit, two circles of two
        x, y, z = (u[:, None] for u in _units(cloud.dirs[i]).T)
        keep = sign * x >= 0  # (rows, 2): each point's circles in hemisphere order
        with np.errstate(divide="ignore", invalid="ignore"):  # inf, nan where not kept
            f = np.sqrt(2.0 / (1.0 + sign * x))
            px = cx + f * y * scale
            py = size / 2.0 - f * sign * z * scale
        write("".join(_texts(np.column_stack((px[keep], py[keep])), circle).ravel().tolist()))
    write("</svg>\n")
