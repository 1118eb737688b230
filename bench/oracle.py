"""Reference arithmetic for the benchmark's checks and computed counts.

Everything here is written from first principles in the style of
tests/oracle_density.py. It takes only lattice data (the Gram matrix and
the triple) from the package and none of its algorithms, so a change to
the package's scans or projections cannot change what this module
expects.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

import numpy as np


def pairing_rows(lattice, triple) -> list[tuple[int, ...]]:
    """Integer rows r_a with r_a . v = m q(v, w_a), one common m > 0."""
    rows = [[sum(Fraction(lattice.gram[i][j]) * w[j] for j in range(lattice.rank))
             for i in range(lattice.rank)] for w in triple.vectors]
    m = 1
    for row in rows:
        for e in row:
            m = m * e.denominator // gcd(m, e.denominator)
    return [tuple(int(e * m) for e in row) for row in rows]


def project(rows, v) -> tuple[int, int, int]:
    """Integer vector parallel (same orientation) to the projection of v on V."""
    return tuple(sum(r[j] * int(v[j]) for j in range(len(v))) for r in rows)


def q_self(lattice, v) -> int:
    return sum(lattice.gram[i][j] * v[i] * v[j]
               for i in range(lattice.rank) for j in range(lattice.rank))


def primitive(t) -> tuple[int, ...]:
    g = 0
    for e in t:
        g = gcd(g, abs(e))
    return tuple(t) if g == 0 else tuple(e // g for e in t)


def cross(a, b) -> tuple:
    return (a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0])


def box(bound: int, k: int) -> np.ndarray:
    """Nonzero integer vectors in [-bound, bound]^k, lexicographic order
    (last coordinate fastest), as an int64 array."""
    side = np.arange(-bound, bound + 1, dtype=np.int64)
    block = np.stack(np.meshgrid(*([side] * k), indexing="ij"), axis=-1).reshape(-1, k)
    return block[np.any(block != 0, axis=1)]


def _unique_rays(t: np.ndarray) -> set[tuple[int, int, int]]:
    g = np.gcd.reduce(np.abs(t), axis=1)
    rays = np.unique(t // g[:, None], axis=0)
    return {tuple(int(e) for e in r) for r in rays}


def scan_counts(lattice, triple, bound: int, active=None, both_signs=False):
    """What a box scan should produce, counted independently.

    Returns (counts, rays). counts has the box size, the positive
    vectors, the vectors with zero projection and the distinct rays.
    Without both_signs the rays are those of positive vectors (the
    algebraic scan); with it they are all nonzero projections in both
    orientations (the non-general-type scan)."""
    # coordinates outside `active` are 0, so work on the active columns only
    active = list(range(lattice.rank)) if active is None else list(active)
    vecs = box(bound, len(active))
    gram = np.array(lattice.gram, dtype=np.int64)[np.ix_(active, active)]
    rows = np.array(pairing_rows(lattice, triple), dtype=np.int64)[:, active]
    qvv = np.einsum("ij,jk,ik->i", vecs, gram, vecs)
    t = vecs @ rows.T
    zero = ~np.any(t != 0, axis=1)
    positive = qvv > 0
    if both_signs:
        rays = _unique_rays(np.concatenate([t[~zero], -t[~zero]]))
    else:
        rays = _unique_rays(t[positive])
    counts = {"box_vectors": int(vecs.shape[0]),
              "positive_vectors": int(positive.sum()),
              "zero_projections": int(zero.sum()),
              "rays": len(rays)}
    return counts, rays


class BoundedSearch:
    """The bounded general-type search over the box [-bound, bound]^rank:
    finds the first box vector, in lexicographic order, whose projection
    lies within sine 1e-9 of a unit direction."""

    def __init__(self, lattice, triple, bound: int):
        self.vecs = box(bound, lattice.rank)
        rows = np.array(pairing_rows(lattice, triple), dtype=np.int64)
        self.t = (self.vecs @ rows.T).astype(float)
        self.norm = np.sqrt((self.t * self.t).sum(axis=1))

    def witness(self, unit):
        c = np.cross(self.t, np.array(unit, dtype=float))
        with np.errstate(divide="ignore", invalid="ignore"):
            sine = np.sqrt((c * c).sum(axis=1)) / self.norm
        hits = np.nonzero((self.norm > 0) & (sine <= 1e-9))[0]
        return None if hits.size == 0 else tuple(int(e) for e in self.vecs[hits[0]])
