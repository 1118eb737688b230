"""The box walk, its ray keys and the memory budgets.

The bounded general-type search and both scans walk H-, the half of a
coordinate box whose first nonzero entry is negative, through
box_pairings, in int64 blocks of bounded memory: every decision they
take from a box vector v holds for -v too. ray_keys is the one key of
ray equality and ray order. The walk's table dedup and the emitters'
sort read it through ray_order, and the scans' dedup and the covering
radius's nested-cloud check read it directly. The two budgets,
BLOCK_BYTES and MAX_BOX_VECTORS, are bound here alone, and every module
reads them here when it is called, as box.BLOCK_BYTES: one patch moves
every block, product, chunk and cap.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

import numpy as np

from .errors import InvalidBound, Unsupported


# Memory budget of one block: box rows (int64) in the scans and the
# bounded search, float32 grid-by-cloud cosines in covering_radius's
# screen (its band products take half of it, its whole-cloud products a
# sixteenth).
BLOCK_BYTES = 4 << 20

# Largest box a scan or bounded search walks, and largest covering-radius
# grid; bigger ones would run for hours (K3 at B=1 has 3^22, about 3.1e10,
# vectors).
MAX_BOX_VECTORS = 10 ** 9


def int64(matrix, reach: int, bound: str) -> np.ndarray:
    """The integer matrix as an int64 array, after checking a priori that
    reach * max|entry|, the largest value a box computation with it can
    take, fits: numpy would wrap past 2^63 without a word."""
    worst = reach * max((abs(e) for row in matrix for e in row), default=0)
    if worst >= 2 ** 63:
        raise Unsupported(f"int64 bound {bound} = {worst} is not below 2^63")
    return np.array(matrix, dtype=np.int64)


def ray_order(rays: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(firsts, groups): the index of the first occurrence of each
    distinct row of an (n, 3) int64 array with no entry -2^63 (its
    absolute value wraps), in lexicographic order of the rows, and for
    each row the position of its distinct row in that order, from one
    stable sort of the row keys."""
    keys = ray_keys(rays, int(np.abs(rays).max(initial=0)))
    order = keys.argsort(kind="stable")  # equal rows keep their order
    edge = run_starts(keys[order])
    groups = np.empty(len(keys), dtype=np.intp)
    groups[order] = edge.cumsum() - 1
    return order[edge], groups


def run_starts(keys: np.ndarray) -> np.ndarray:
    """For sorted keys, whether a run of equal keys starts at each."""
    edge = np.empty(len(keys), dtype=bool)
    edge[:1] = True
    edge[1:] = keys[1:] != keys[:-1]
    return edge


def ray_keys(rays: np.ndarray, top: int) -> np.ndarray:
    """A key for each row of an (n, 3) int64 array whose entries lie in
    [-top, top]: equal for equal rows, and sorting as the rows do. Keys
    of two arrays taken with one top compare as their rows do."""
    base = 2 * top + 1
    if base ** 3 < 2 ** 63:  # entries plus (base-1)/2 are digits below base:
        return rays @ np.array([base * base, base, 1])  # keys sort as rows
    # too large to pack into one int64: records sort as rows too
    return np.ascontiguousarray(rays).view([("", np.int64)] * 3).ravel()


def digits(index: np.ndarray, width: int, b: int) -> np.ndarray:
    """Rows index of the lexicographic walk of [-b, b]^width."""
    side = 2 * b + 1
    powers = side ** np.arange(width - 1, -1, -1, dtype=np.int64)
    return index[:, None] // powers % side - b


class Walk(NamedTuple):
    """H- of a box as box_pairings walks it. The box vectors are the
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
    is digits(start + p, k, b)."""

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


def box_pairings(rows, b: int) -> Walk:
    """H-, the half of [-b, b]^k (k the width of the rows) whose first
    nonzero entry is negative, walked over the distinct pairings of its
    digit table (see Walk). The bound, the int64 reach and the size of
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
    the candidates' first rows ascend, and one ray_order pass over them
    numbers level j's groups by their first rows (U3 at B=3: 1,183
    distinct of 16,807 rows; the last level sorts 7 * 169 candidates,
    not 16,807 rows). Level j keeps its candidates' groups as a
    (2b+1, d) map, Walk.levels; the group of each table row, n of them,
    is composed from the maps only where it is read (Walk.groups): the
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
    rows = int64(rows, b * k, "max|rows|*B*k")
    side = 2 * b + 1
    if side ** k > MAX_BOX_VECTORS:
        raise InvalidBound(
            f"box bound B={b} over k={k} coordinates gives (2B+1)^k = "
            f"{side ** k} vectors, more than {MAX_BOX_VECTORS}")
    per_block = max(1, BLOCK_BYTES // (8 * max(k, 1)))
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
        lex, lex_groups = ray_order(candidates)
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
            high = digits(np.arange(p, min(p + step, last), dtype=np.int64), k - free, b)
            full = len(high) - 1  # prefixes before the last: wholly in H-
            m = min(len(high) * n, half - p * n)
            cut = full * len(firsts) + np.searchsorted(firsts, m - full * n)
            yield p * n, high, m, (pairings + (high @ rows_high)[:, None]).reshape(-1, 3)[:cut]
    return Walk(free, n, levels, firsts, pairings, blocks())
