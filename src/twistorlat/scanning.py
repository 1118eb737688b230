"""Deterministic box scans and the density experiments.

Scans walk H-, the half of the box of the masked coordinates whose
first nonzero entry is negative, in the int64 blocks of
twistor._box_pairings, and collect the exact signed rays of the
projections onto V, each with its first witness in the whole box: that
box is H-, 0, -reverse(H-), so its rays follow from each block's first
and last occurrence of each ray in H-. One key, _ray_order, decides both
ray equality (the scans' dedup) and ray order (emission): one stable
sort of the keys gives the first and the last index of each distinct ray.
A cloud is two int64 arrays, the distinct rays and their witnesses;
TwistorPoints are built only when it is iterated. Covering radius
against a Fibonacci-sphere grid is the desk-scale measure of density.
The grid is built a block of rows at a time and is sorted by y, so each
block is compared only with the cloud points in a y-band around it; rows
with no cloud point close enough fall back to the whole cloud, and the
rows that decide the radius are recomputed in the blocks of the full
grid-by-cloud product, so the radius is the same float as that product
gives. No randomness anywhere in this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, EmptyCloud, InvalidBound
from .linalg import GramLattice, HyperTriple, integer, pairing_rows
from .twistor import (
    _BLOCK_BYTES,
    _MAX_BOX_VECTORS,
    TwistorPoint,
    _box_pairings,
    _int64,
    stereographic,
)


@dataclass(frozen=True, eq=False)
class PointCloud:
    """Exact twistor points as int64 arrays in enumeration order: dirs (n, 3),
    distinct primitive signed rays, and witnesses (n, r), their first witnesses."""

    dirs: np.ndarray
    witnesses: np.ndarray

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


def _units(dirs: np.ndarray) -> np.ndarray:
    """TwistorPoint.from_ray's units: exact int sums of squares, not int64."""
    norms = np.sqrt((dirs.astype(object) ** 2).sum(axis=1).astype(float))
    return dirs / norms[:, None]


def _ray_order(rays: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(firsts, lasts): the index of the first and of the last occurrence
    of each distinct row of an (n, 3) integer array, in lexicographic
    order of the rows, from one stable sort of the row keys."""
    m = int(np.abs(rays).max(initial=0))
    base = 2 * m + 1
    if base ** 3 <= np.iinfo(np.int64).max:  # digits below base: keys sort as rows
        keys = ((rays[:, 0] + m) * base + rays[:, 1] + m) * base + rays[:, 2] + m
    else:  # too large to pack into one int64: records sort as rows too
        keys = np.ascontiguousarray(rays).view([("", np.int64)] * 3).ravel()
    order = np.argsort(keys, kind="stable")  # equal rows keep their order
    edge = np.ones(len(keys) + 1, dtype=bool)  # edge[i]: a run ends before i
    edge[1:-1] = keys[order[1:]] != keys[order[:-1]]
    return order[edge[:-1]], order[edge[1:]]


def _scan(lattice: GramLattice, triple: HyperTriple, bound: int, mask,
          both_signs: bool) -> PointCloud:
    """The block loop of the scans, over H-. Each block keeps the
    projection rays of its positive box vectors or, with both_signs, of
    every nonzero projection; one _ray_order of them gives the block's
    first and last occurrence of each ray, with its witness. The whole
    box is H-, 0, -reverse(H-), so its first occurrences are H-'s firsts,
    then its lasts negated in reverse order. With both_signs, a ray s
    first occurs at the first vector of H- whose ray is s or -s, a block
    first, which stands for its ray and then the negation: the firsts
    alone, each doubled, give the cloud. Each ray keeps its first
    witness in the whole box."""
    # the kernel checks the signature first; then the box enumerates only the
    # masked coordinates (sorted, without repeats), against the matching
    # columns of the pairing rows and Gram submatrix
    full_rows, _ = pairing_rows(lattice, triple)
    bound = integer(bound, "bound")
    active = (list(range(lattice.rank)) if mask is None
              else sorted({integer(i, "mask entry") for i in mask}))
    for i in active:
        if not 0 <= i < lattice.rank:
            raise DimensionMismatch(f"mask index {i} out of range for rank {lattice.rank}")
    rows = [[row[i] for i in active] for row in full_rows]
    blocks = _box_pairings(rows, bound)
    if not both_signs:
        # only the sign of q(v, v) is used, so the Gram content is divided out
        sub = [[lattice.gram[i][j] for j in active] for i in active]
        content = math.gcd(*(e for row in sub for e in row)) or 1
        gram = _int64([[e // content for e in row] for row in sub],
                      (bound * len(active)) ** 2, "max|G|*B^2*k^2")

    # each block's first (and, one sign only, last) occurrence of each ray,
    # with its witness; an empty block first, as a walk over no coordinate
    # yields none
    empty = np.empty((0, 3), np.int64), np.empty((0, len(active)), np.int64)
    firsts, lasts = [empty], [empty]
    held = (firsts,) if both_signs else (firsts, lasts)
    for vecs, t in blocks:
        g = np.gcd(np.gcd(t[:, 0], t[:, 1]), t[:, 2])  # nonnegative
        # positive vectors are not in the negative definite V-perp: g > 0
        keep = g > 0 if both_signs else (vecs @ gram * vecs).sum(axis=1) > 0
        r, w = t[keep] // g[keep, None], vecs[keep]
        for kept, index in zip(held, _ray_order(r)):
            index = np.sort(index)
            kept.append((r[index], w[index]))
    rays, witnesses = (np.concatenate(a) for a in zip(
        *firsts, *((-r[::-1], -w[::-1]) for r, w in reversed(lasts))))
    if both_signs:  # +r, then -r, each with the witness of r
        rays, witnesses = np.hstack([rays, -rays]).reshape(-1, 3), witnesses.repeat(2, 0)
    first = np.sort(_ray_order(rays)[0])
    full = np.zeros((len(first), lattice.rank), dtype=np.int64)  # rank-r witnesses
    full[:, active] = witnesses[first]
    return PointCloud(rays[first], full)


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
    return _fibonacci_rows(n, 0, n)


def _fibonacci_rows(n: int, start: int, stop: int) -> np.ndarray:
    """Rows start..stop (clipped to n) of fibonacci_sphere(n), bit for bit."""
    i = np.arange(start, min(stop, n))
    y = (i * (2.0 / n)) - 1.0 + 1.0 / n
    r = np.sqrt(np.maximum(0.0, 1.0 - y * y))
    phi = i * (math.pi * (3.0 - math.sqrt(5.0)))
    return np.column_stack((np.cos(phi) * r, y, np.sin(phi) * r))


def _check_grid(grid_resolution: int) -> int:
    grid_resolution = integer(grid_resolution, "grid_resolution")
    if grid_resolution < 2:
        raise InvalidBound("grid_resolution must be >= 2")
    if grid_resolution ** 2 > _MAX_BOX_VECTORS:
        raise InvalidBound(
            f"grid_resolution {grid_resolution} gives {grid_resolution ** 2} "
            f"grid points, more than {_MAX_BOX_VECTORS}")
    return grid_resolution


def _best_cosines(points: np.ndarray, units: np.ndarray) -> np.ndarray:
    """Max cosine of each point against the units, taken in blocks of
    points whose cosines fill at most _BLOCK_BYTES."""
    step = max(1, _BLOCK_BYTES // (8 * len(units)))
    return np.concatenate([np.max(points[s:s + step] @ units.T, axis=1)
                           for s in range(0, len(points), step)])


def _near_least(n: int, units: np.ndarray, theta: float, h: float) -> np.ndarray:
    """Rows of fibonacci_sphere(n) whose best cosine, found in the y-band
    of half-height h, is within 1e-12 of the least one."""
    band = units[np.argsort(units[:, 1])]
    # blocks about h/4 high, as rows are 2/n apart in y, built in chunks
    # whose dozen or so float64 temporaries fill a tenth of _BLOCK_BYTES
    most = _BLOCK_BYTES // 1024
    rows_per = max(1, min(int(h * n / 8), most))
    chunk = rows_per * max(1, most // rows_per)
    least, near = math.inf, []
    for c in range(0, n, chunk):
        grid = _fibonacci_rows(n, c, c + chunk)
        y = grid[:, 1]  # ascending: a block lies between its first y and the next's
        lo = np.searchsorted(band[:, 1], y[::rows_per] - h)
        hi = np.searchsorted(band[:, 1], np.append(y[rows_per::rows_per], y[-1]) + h)
        best = np.full(len(grid), -np.inf)
        for s, a, b in zip(range(0, len(grid), rows_per), lo, hi):
            if b > a:
                best[s:s + rows_per] = _best_cosines(grid[s:s + rows_per], band[a:b])
        # a point within theta of a row lies in its band; past theta a
        # nearer point may lie outside it, so those rows take the whole cloud
        far = best < math.cos(theta)
        if far.any():
            best[far] = _best_cosines(grid[far], units)
        least = min(least, best.min())
        i = np.flatnonzero(best <= least + 1e-12)
        if i.size:  # chunks that cannot hold the least add nothing
            near.append((c + i, best[i]))
    rows, best = (np.concatenate(a) for a in zip(*near))
    return rows[best <= least + 1e-12]


def covering_radius(cloud: PointCloud, grid_resolution: int) -> float:
    """Max over a grid_resolution^2 Fibonacci grid of the angular
    distance to the nearest cloud point, in radians.

    The nearest point of a grid row is its max cosine. The grid is sorted
    by y, and a cloud point within angle theta = 2*sqrt(4*pi/len(cloud))
    of a row differs from it in y by at most the chord h = 2*sin(theta/2)
    (2 when theta >= pi; 1e-9 is added for rounding). So the grid is
    walked in blocks about h/4 high, each against the cloud points within
    h of it in y; a row whose best cosine there is below cos(theta) is
    compared with the whole cloud instead.

    Cosines from products of other shapes may differ in the last ulp, so
    the rows within 1e-12 of the least best cosine are recomputed exactly
    as the full product takes them: their whole blocks of _BLOCK_BYTES
    against the cloud in enumeration order. arccos is decreasing, so one
    arccos of that least cosine is the radius, the same float as the full
    product gives.
    """
    n = _check_grid(grid_resolution) ** 2
    if len(cloud) == 0:
        raise EmptyCloud("covering radius of an empty cloud is undefined")
    units = _units(cloud.dirs)
    # the full product's blocks, each one product in _best_cosines
    step = max(1, _BLOCK_BYTES // (8 * len(units)))
    theta = 2 * math.sqrt(4 * math.pi / len(units))
    h = 2 * math.sin(min(theta, math.pi) / 2) + 1e-9  # no chord exceeds 2
    starts = np.unique(_near_least(n, units, theta, h) // step) * step
    least = min(_best_cosines(_fibonacci_rows(n, s, s + step), units).min()
                for s in starts)
    return float(np.arccos(np.clip(least, -1.0, 1.0)))


def _by_ray(cloud: PointCloud) -> PointCloud:
    order = _ray_order(cloud.dirs)[0]
    return PointCloud(cloud.dirs[order], cloud.witnesses[order])


def write_csv(cloud: PointCloud, stream):
    """Emit the cloud as CSV, sorted by exact ray."""
    write = stream.write  # once: a lazy click.File forwards each lookup
    write("a,b,c,ux,uy,uz,cp1_re,cp1_im,witness\n")
    cloud = _by_ray(cloud)
    for p, w in zip(cloud, cloud.witnesses.tolist()):
        a, b, c = p.dir
        z = stereographic(p)
        witness = ";".join(str(e) for e in w)
        write(
            f"{a},{b},{c},{p.unit[0]:.17g},{p.unit[1]:.17g},{p.unit[2]:.17g},"
            f"{z.real:.17g},{z.imag:.17g},{witness}\n")


def _lambert(u, center_sign):
    # Lambert azimuthal equal-area, centered at (center_sign, 0, 0);
    # write_svg passes only units with center_sign * x >= 0
    x, y, z = u
    f = math.sqrt(2.0 / (1.0 + center_sign * x))
    return (f * y, f * center_sign * z)


def write_svg(cloud: PointCloud, stream):
    """Scatter plot of the cloud: two Lambert equal-area hemispheres
    (around +a and -a) side by side, each 400 pixels square."""
    size, pad = 400, 10
    scale = (size - 2 * pad) / (2.0 * math.sqrt(2.0))
    width = 2 * size + pad
    write = stream.write  # once: a lazy click.File forwards each lookup
    write(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{size}" viewBox="0 0 {width} {size}">\n')
    centers = [(size / 2.0, 1.0), (size + pad + size / 2.0, -1.0)]
    for cx, _ in centers:
        write(
            f'<circle cx="{cx:.2f}" cy="{size / 2.0:.2f}" '
            f'r="{math.sqrt(2.0) * scale:.2f}" fill="none" stroke="black"/>\n')
    for p in _by_ray(cloud):
        for cx, sgn in centers:
            if sgn * p.unit[0] < 0:
                continue
            xy = _lambert(p.unit, sgn)
            px = cx + xy[0] * scale
            py = size / 2.0 - xy[1] * scale
            write(f'<circle cx="{px:.2f}" cy="{py:.2f}" r="1.5"/>\n')
    write("</svg>\n")
