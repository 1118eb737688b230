"""The covering radius of point clouds against a Fibonacci-sphere grid.

covering_radius is the desk-scale measure of density: the largest
angle from a grid point to its nearest cloud point, taken exactly on the
float64 grid rows and units, so that no BLAS kernel, SIMD path or block
budget changes it. covering_radii takes several clouds, such as
density's boxes 1..B, in one walk of the grid. fibonacci_sphere builds
the grid, and check_grid refuses a grid before any of it is built.
covering_radius's docstring holds the argument: the float32 screen, the
fold by sign flips, the bounds carried from a nested cloud and the exact
recompute. No randomness anywhere in this module.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from . import box
from .box import ray_keys, run_starts
from .errors import EmptyCloud, InvalidBound
from .linalg import integer, of_kind
from .scanning import PointCloud, units


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


def check_grid(grid_resolution: int) -> int:
    """grid_resolution as an int, refused unless it is at least 2 and its
    grid of grid_resolution^2 points passes _check_points."""
    grid_resolution = integer(grid_resolution, "grid_resolution")
    if grid_resolution < 2:
        raise InvalidBound(f"grid_resolution must be >= 2, got {grid_resolution}")
    _check_points(grid_resolution ** 2, f"grid_resolution {grid_resolution} gives")
    return grid_resolution


def _check_points(points: int, given: str) -> None:
    """Refuse a Fibonacci grid of more than box.MAX_BOX_VECTORS points,
    before any is built; given names what asked for them."""
    if points > box.MAX_BOX_VECTORS:
        raise InvalidBound(f"{given} {points} grid points, more than {box.MAX_BOX_VECTORS}")


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
    return keys[run_starts(keys)]


def _keyed(rays: np.ndarray) -> tuple[int, np.ndarray]:
    """(top, keys): top = max |entry| of the (n, 3) rays, and their
    distinct ray_keys, taken with top, sorted."""
    top = int(np.abs(rays).max(initial=0))
    return top, _distinct(ray_keys(rays, top))


def _holds(keyed: tuple[int, np.ndarray], inner: np.ndarray) -> bool:
    """Whether every ray of inner is among the rays keyed (_keyed):
    inner's keys, packed as theirs, are among their sorted keys."""
    top, keys = keyed
    if np.abs(inner).max(initial=0) > top:
        return False
    find = ray_keys(inner, top)
    return bool((keys[np.searchsorted(keys, find).clip(max=len(keys) - 1)] == find).all())


def _mirrored(rays: np.ndarray, keyed: tuple[int, np.ndarray], sign: list[int]) -> bool:
    """Whether the rays times sign, a flip of one coordinate, are the
    rays, keyed (_keyed)."""
    top, keys = keyed
    return np.array_equal(_distinct(ray_keys(rays * sign, top)), keys)


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
        self.units = units(dirs[(dirs[:, self.flips] >= 0).all(axis=1)])
        band = self.units[np.argsort(self.units[:, 1])]  # C_F by y
        self.ys, self.band = np.ascontiguousarray(band[:, 1]), band.astype(np.float32)
        self.step = max(1, box.BLOCK_BYTES // (8 * len(band)))
        sample = np.abs(sample, out=sample.copy(), where=self.flips[:, None])
        self.c0 = float(self._whole(sample).min())  # the least best of the sample rows
        self.h = math.sqrt(2 - 2 * (self.c0 - _EPS32)) + 1e-9
        self.least, self.kept = math.inf, []  # kept: (grid row, its screened best)

    def _whole(self, columns: np.ndarray) -> np.ndarray:
        """Each float32 column's best against the whole (folded) cloud,
        with the columns as the product's rows: a max along rows is the
        faster reduction. A product's cosines fill a sixteenth of
        box.BLOCK_BYTES. A quarter was faster for large clouds, but then a
        folded cloud's few sample rows, one product at a small grid, peak
        far lower than a large grid's full products: memory would follow
        the grid."""
        best = np.empty(columns.shape[1], np.float32)
        step = max(1, box.BLOCK_BYTES // (64 * len(self.band)))
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


def covering_radii(clouds, g: int) -> list[float]:
    """covering_radius of each cloud, in one walk of the grid of
    resolution g, as check_grid returns it. A cloud is given as its rays
    alone, a nonempty (n, 3) int64 array of a PointCloud's dirs or of
    rows of them, as density's smaller boxes are."""
    n = g * g
    sample = _fibonacci_rows(n, np.arange(0, n, g)).T.astype(np.float32, order="C")
    screens = [_Screen(dirs, sample) for dirs in clouds]
    # a cloud that holds the one before it starts from the bounds that
    # cloud's screen left; any other, from none
    nested = [False] + [_holds(b.keyed, a) for a, b in zip(clouds, screens[1:])]
    # chunks of rows whose dozen or so float64 temporaries a row fill a
    # tenth of box.BLOCK_BYTES
    chunk = max(1, box.BLOCK_BYTES // 1024)
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
    no BLAS kernel, block shape or box.BLOCK_BYTES.

    The grid is sorted by y. One walk of it serves every cloud of a
    covering_radii call: each chunk of box.BLOCK_BYTES // 1024 rows is
    built once in float64 and cast once to float32 columns, and each
    cloud screens it with its own step, c0 and band; step rows of
    float32 cosines against the whole cloud fill half of box.BLOCK_BYTES.

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
    g = check_grid(grid_resolution)  # a bad grid is named before an empty cloud
    return covering_radii([nonempty(cloud)], g)[0]


def nonempty(cloud: PointCloud) -> np.ndarray:
    """The rays of a cloud that has one; an empty cloud has no covering radius."""
    if len(cloud) == 0:
        raise EmptyCloud("covering radius of an empty cloud is undefined: 0 rays, "
                         f"witnesses of shape {cloud.witnesses.shape}")
    return cloud.dirs
