"""Point clouds, the deterministic box scans and their CSV and SVG emission.

scan_algebraic and scan_non_general_type walk H-, the half of the box
of the masked coordinates whose first nonzero entry is negative, through
box.box_pairings, and collect the exact signed rays of the projections
onto V, each with its first witness in the whole box (_scan has the
argument). A PointCloud is two int64 arrays, the distinct rays and
their witnesses, checked and cast once when it is built; TwistorPoints
are built only when it is iterated. The algebraic scan's clouds also
carry each ray's least box bound, so density takes every box's cloud
from one scan. write_csv and write_svg emit a cloud in exact ray order,
a chunk of rows at a time, formatting each distinct value of a chunk
once (_texts). No randomness anywhere in this module.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Set
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import box
from .box import box_pairings, digits, int64, ray_keys, ray_order, run_starts
from .errors import DimensionMismatch, InvariantViolation
from .linalg import GramLattice, HyperTriple, integer, iterable, of_kind, pairing_rows
from .twistor import TwistorPoint


@dataclass(frozen=True, eq=False)
class PointCloud:
    """Exact twistor points as int64 arrays in enumeration order: dirs (n, 3),
    distinct primitive signed rays, and witnesses (n, r), their first witnesses.
    least_bounds is set on scan_algebraic's clouds alone, None on any
    other: a read-only (n,) array of each ray's least box bound b, the
    least b for which scan_algebraic(b) over the same mask holds the ray.
    The cloud is also a set of points: point in cloud, witness(point) and
    rays() answer exact ray membership, a ray's first witness and the set
    of rays, from one dict of the rays (_index)."""

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
            # cast once for every reader: ray_keys packs int64 keys (a uint64
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

    @cached_property
    def _ray_order(self) -> np.ndarray:
        """The row indices in exact ray order, sorted once for both writers."""
        return ray_order(self.dirs)[0]

    def __len__(self):
        return len(self.dirs)

    def __contains__(self, point):
        return getattr(point, "dir", None) in self._index

    def __iter__(self):
        for d, u in zip(self.dirs.tolist(), units(self.dirs).tolist()):
            yield TwistorPoint(dir=tuple(d), unit=tuple(u))

    def witness(self, point: TwistorPoint) -> tuple[int, ...]:
        if point not in self:
            raise KeyError(point)
        return tuple(self.witnesses[self._index[point.dir]].tolist())

    def rays(self) -> set[tuple[int, int, int]]:
        return set(self._index)


# the largest |entry| whose three squares sum within int64
_INT64_SQUARES = math.isqrt((2 ** 63 - 1) // 3)


def units(dirs: np.ndarray) -> np.ndarray:
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
    box.box_pairings builds its groups. Level j's table has the rows
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
    each block (box.Walk): every row of t is a group of box vectors
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
    argsort of the candidates by ray key (ray_keys, packed or records)
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
              else sorted({integer(i, "mask entry") for i in  # a set too: the order is dropped
                           (mask if isinstance(mask, Set) else iterable(mask, "mask"))}))
    for i in active:
        if not 0 <= i < lattice.rank:
            raise DimensionMismatch(f"mask index {i} out of range for rank {lattice.rank}")
    rows = [[row[i] for i in active] for row in full_rows]
    walk = box_pairings(rows, bound)
    n, d, k = walk.size, len(walk.firsts), len(active)
    # the candidate rays, their keys and, one sign only, their levels; a walk
    # over no coordinate yields no block, so the lists start with no candidate
    keys, rays, levels = [np.empty(0, np.int64)], [np.empty((0, 3), np.int64)], None
    if not both_signs:
        # only the sign of q(v, v) is used, so the Gram content is divided out
        sub = [[lattice.gram[i][j] for j in active] for i in active]
        content = math.gcd(*(e for row in sub for e in row)) or 1
        gram = int64([[e // content for e in row] for row in sub],
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
    by_ray = ray_keys(rays, int(np.abs(rays).max(initial=0)))
    order = np.argsort(by_ray)
    runs = np.flatnonzero(run_starts(by_ray[order]))
    firsts = np.minimum.reduceat(keys[order], runs)
    kept = np.argsort(firsts)  # the cloud as it occurs in the box
    full = np.zeros((len(kept), lattice.rank), dtype=np.int64)  # rank-r witnesses
    full[:, active] = digits(firsts[kept] >> both_signs, k, bound)  # key // 2 with both signs
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



# about what a written field holds: its float64 or int64, its piece in
# the object array and its text, shared by the value's repeats
# (tracemalloc, one chunk: 493 bytes a 15-piece CSV row of U3, 1070 a
# 31-piece row of masked K3, 218 an SVG row of 7)
_FIELD_BYTES = 48


def _by_ray(cloud: PointCloud, row_bytes: int):
    """The cloud's row indices in exact ray order, in chunks of rows whose
    arrays, Python objects and text, about row_bytes a row, fill at most
    box.BLOCK_BYTES."""
    order = cloud._ray_order
    step = max(1, box.BLOCK_BYTES // row_bytes)
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
        unit = units(dirs)
        den = 1.0 - unit[:, 0]
        with np.errstate(divide="ignore", invalid="ignore"):
            cp1 = unit[:, 1:] / den[:, None]
        cp1[den == 0.0] = (math.inf, 0.0)
        pieces = np.empty((len(i), 9 + r), object)
        pieces[:, :3] = _texts(dirs, ray)
        pieces[:, 3:8] = _texts(np.concatenate((unit, cp1), axis=1), floats)
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
        x, y, z = (u[:, None] for u in units(cloud.dirs[i]).T)
        keep = sign * x >= 0  # (rows, 2): each point's circles in hemisphere order
        with np.errstate(divide="ignore", invalid="ignore"):  # inf, nan where not kept
            f = np.sqrt(2.0 / (1.0 + sign * x))
            px = cx + f * y * scale
            py = size / 2.0 - f * sign * z * scale
        write("".join(_texts(np.column_stack((px[keep], py[keep])), circle).ravel().tolist()))
    write("</svg>\n")
