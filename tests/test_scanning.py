import hashlib
import io
import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from twistorlat import (
    DimensionMismatch,
    EmptyCloud,
    GramLattice,
    HyperTriple,
    InvalidBound,
    InvalidSignature,
    PointCloud,
    TwistorLatticeError,
    TwistorPoint,
    Unsupported,
    covering_radius,
    is_general_type,
    load_lattice,
    pi_map,
    scan_algebraic,
    scan_non_general_type,
    vector,
    write_csv,
    write_svg,
)
from twistorlat import scanning, twistor
from twistorlat.linalg import pairing_rows, signature
from twistorlat.scanning import _ray_order, fibonacci_sphere
from twistorlat.twistor import _box_pairings

U3, TRIPLE = load_lattice("U3")
K3, K3_TRIPLE = load_lattice("K3")
D222, D222_TRIPLE = load_lattice("diag222")

# frozen outputs of tests/oracle_density.py (independent brute force)
ORACLE_CLOUD_SIZES = {1: 98, 2: 578, 3: 1730, 4: 4034}


def rows_of_width(k):
    """Three integer rows of width k for the box walk to pair with."""
    return [[1] * k, list(range(k)), [(-1) ** j * (j + 2) for j in range(k)]]


def box_rows(k, b):
    """Every row of the box blocks, in order, as tuples."""
    return [tuple(row) for vecs, _ in _box_pairings(rows_of_width(k), b)
            for row in vecs.tolist()]


def reference_box(k, b):
    """itertools reference: [-b, b]^k in lexicographic order."""
    return list(itertools.product(range(-b, b + 1), repeat=k))


def reference_half(k, b):
    """H-: the first ((2b+1)^k - 1) / 2 vectors of reference_box(k, b)."""
    return reference_box(k, b)[:((2 * b + 1) ** k - 1) // 2]


# room for 5^4 rows of rank 6: a [-2, 2]^6 box splits over its first
# two coordinates into 25 blocks, and H- ends inside the 13th
TINY_BLOCK_BYTES = 5 ** 4 * 6 * 8


class TestBoxVectors:
    def test_count_rank2(self):
        vecs = box_rows(2, 1)
        assert len(vecs) == 4  # (3^2 - 1) / 2: the zero vector is excluded

    def test_first_vector(self):
        assert box_rows(2, 1)[0] == (-1, -1)
        assert box_rows(2, 1)[-1] == (0, -1)

    def test_masked(self, monkeypatch):
        # a masked scan walks only its k coordinates (here 2 of 22); the
        # witnesses are spread to rank r (TestScanAlgebraic.test_masked_k3)
        blocks = []
        box_pairings = scanning._box_pairings

        def recording(rows, b):
            blocks.extend(box_pairings(rows, b))
            return iter(blocks)

        monkeypatch.setattr(scanning, "_box_pairings", recording)
        scan_algebraic(K3, K3_TRIPLE, 1, (0, 1))
        assert [(vecs.shape, t.shape) for vecs, t in blocks] == [((4, 2), (4, 3))]

    def test_no_repeats_lexicographic(self):
        vecs = box_rows(3, 2)
        assert len(vecs) == (5 ** 3 - 1) // 2
        assert len(set(vecs)) == len(vecs)
        assert vecs == sorted(vecs)
        # H-: the first nonzero entry of each vector is negative
        assert all(next(e for e in v if e) < 0 for v in vecs)

    def test_array_agrees_with_generator(self, monkeypatch):
        monkeypatch.setattr(twistor, "_BLOCK_BYTES", TINY_BLOCK_BYTES)
        # the full walk's 25, 1 and 5 blocks, up to the one where H- ends
        for k, b, n_blocks in ((6, 2, 13), (3, 1, 1), (5, 2, 3)):
            blocks = list(_box_pairings(rows_of_width(k), b))
            assert len(blocks) == n_blocks
            assert all(vecs.dtype == t.dtype == np.int64 for vecs, t in blocks)
            assert box_rows(k, b) == reference_half(k, b)
            assert [tuple(row) for _, t in blocks for row in t.tolist()] == [
                tuple(sum(r * e for r, e in zip(row, v)) for row in rows_of_width(k))
                for v in reference_half(k, b)]

    @pytest.mark.parametrize("k", [1, 2])
    def test_coordinate_over_budget_is_cut(self, k, monkeypatch):
        # 64 bytes hold 8 // k rows, fewer than the 21 values of one
        # coordinate at B=10: the last coordinate's range is cut into chunks
        monkeypatch.setattr(twistor, "_BLOCK_BYTES", 64)
        blocks = [vecs for vecs, _ in _box_pairings(rows_of_width(k), 10)]
        assert all(1 < len(vecs) and vecs.nbytes <= 64 for vecs in blocks)
        assert box_rows(k, 10) == reference_half(k, 10)
        # no coordinate fits: blocks of 8 // k consecutive vectors of H-
        assert [len(vecs) for vecs in blocks] == {1: [8, 2], 2: [4] * 55}[k]

    @pytest.mark.parametrize("block_bytes", [64, 4096, TINY_BLOCK_BYTES, None])
    def test_block_rule(self, block_bytes, monkeypatch):
        # free is the largest number of trailing coordinates whose
        # (2B+1)^free rows fit a block: every block but the last holds one
        # prefix over all of them, or per_block vectors when free = 0
        if block_bytes:
            monkeypatch.setattr(twistor, "_BLOCK_BYTES", block_bytes)
        for k, b in itertools.product(range(1, 7), (1, 2, 10)):
            side = 2 * b + 1
            if side ** k > 10 ** 6:
                continue
            per_block = twistor._BLOCK_BYTES // (8 * k)
            free = max(f for f in range(k + 1) if side ** f <= per_block)
            size = side ** free if free else per_block
            blocks = [vecs for vecs, _ in _box_pairings(rows_of_width(k), b)]
            lengths = [len(vecs) for vecs in blocks]
            assert lengths[:-1] == [size] * (len(blocks) - 1)
            assert 0 < lengths[-1] <= size
            assert sum(lengths) == (side ** k - 1) // 2
            assert all(vecs.nbytes <= twistor._BLOCK_BYTES for vecs in blocks)

    def test_invalid_bound(self):
        with pytest.raises(InvalidBound, match="box_bound must be >= 1"):
            scan_algebraic(U3, TRIPLE, 0)

    def test_box_size_guard(self):
        # 9^6 = 531441, the largest box the suite and the bench walk: H- is
        # (9^6 - 1) / 2 of it
        assert (sum(len(vecs) for vecs, _ in _box_pairings(rows_of_width(6), 4))
                == (9 ** 6 - 1) // 2)
        with pytest.raises(InvalidBound, match=r"B=1 over k=22 .* 31381059609"):
            next(_box_pairings(rows_of_width(22), 1))

    def test_k3_bounded_search_fails_fast(self):
        point = TwistorPoint.from_unit(1.0, math.sqrt(2.0), 0.3)
        with pytest.raises(InvalidBound, match="more than 1000000000"):
            is_general_type(K3, K3_TRIPLE, point, bound=1)


class TestScanAlgebraic:
    def test_contains_triple_points(self):
        cloud = scan_algebraic(U3, TRIPLE, 1)
        for ray, w in (((1, 0, 0), TRIPLE.w_i), ((0, 1, 0), TRIPLE.w_j),
                       ((0, 0, 1), TRIPLE.w_k)):
            point = TwistorPoint.from_ray(*ray)
            assert point in cloud
            assert vector(cloud.witness(point)) == w

    def test_contains_diagonal(self):
        cloud = scan_algebraic(U3, TRIPLE, 1)
        assert TwistorPoint.from_ray(1, 1, 1) in cloud

    def test_oracle_counts(self):
        for b in (1, 2):
            cloud = scan_algebraic(U3, TRIPLE, b)
            assert len(cloud) == ORACLE_CLOUD_SIZES[b]

    def test_witnesses_replay(self):
        cloud = scan_algebraic(U3, TRIPLE, 1)
        for point in cloud:
            assert pi_map(U3, TRIPLE, cloud.witness(point)).point == point

    def test_rejects_wrong_signature(self):
        from twistorlat import GramLattice, HyperTriple
        bad = GramLattice.from_rows(
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]])
        tri = HyperTriple.from_rows(
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]])
        with pytest.raises(InvalidSignature):
            scan_algebraic(bad, tri, 1)

    def test_signature_computed_once_per_lattice(self):
        # the pairing kernel checks the signature on every call, and the
        # signature is computed once and cached
        signature.cache_clear()
        scan_algebraic(K3, K3_TRIPLE, 1, range(6))
        scan_algebraic(K3, K3_TRIPLE, 1, range(4, 10))
        pi_map(K3, K3_TRIPLE, K3_TRIPLE.w_i)
        info = signature.cache_info()
        assert (info.misses, info.hits) == (1, 2)

    def test_masked_k3(self):
        cloud = scan_algebraic(K3, K3_TRIPLE, 1, range(6))
        # the masked sublattice is exactly U3, so counts agree
        assert len(cloud) == ORACLE_CLOUD_SIZES[1]
        assert cloud.witnesses.shape == (98, 22)
        assert not cloud.witnesses[:, 6:].any()  # unmasked coordinates are 0

    def test_mask_sorted_without_repeats(self):
        expected = scan_algebraic(U3, TRIPLE, 1)
        cloud = scan_algebraic(U3, TRIPLE, 1, (5, 3, 1, 4, 0, 2, 3))
        assert cloud.dirs.tolist() == expected.dirs.tolist()
        assert cloud.witnesses.tolist() == expected.witnesses.tolist()

    @pytest.mark.parametrize("mask,index", [((0, 6), 6), ((-1, 7), -1)])
    def test_mask_out_of_range(self, mask, index):
        for scan in (scan_algebraic, scan_non_general_type):
            with pytest.raises(DimensionMismatch,
                               match=f"mask index {index} out of range for rank 6"):
                scan(U3, TRIPLE, 1, mask)

    @pytest.mark.parametrize("scan", [scan_algebraic, scan_non_general_type])
    def test_numpy_integers_accepted(self, scan):
        expected = scan(U3, TRIPLE, 1, (2, 3))
        cloud = scan(U3, TRIPLE, np.int64(1), np.array([3, 2]))
        assert cloud.dirs.tolist() == expected.dirs.tolist()
        assert cloud.witnesses.tolist() == expected.witnesses.tolist()

    def test_isotropic_mask(self):
        # q vanishes on the masked coordinates (Gram submatrix 0 or
        # empty), so no box vector is positive
        for mask in ((0,), (1,), ()):
            cloud = scan_algebraic(U3, TRIPLE, 2, mask)
            assert len(cloud) == 0 and cloud.witnesses.shape == (0, 6)

    def test_determinism(self):
        a = scan_algebraic(U3, TRIPLE, 2)
        b = scan_algebraic(U3, TRIPLE, 2)
        assert list(a) == list(b)
        assert all(a.witness(p) == b.witness(p) for p in a)


class TestScanNonGeneralType:
    def test_contains_signed_axis(self):
        cloud = scan_non_general_type(U3, TRIPLE, 1)
        assert TwistorPoint.from_ray(1, 0, 0) in cloud
        assert TwistorPoint.from_ray(-1, 0, 0) in cloud

    def test_algebraic_subset(self):
        for b in (1, 2, 3):
            alg = scan_algebraic(U3, TRIPLE, b)
            ngt = scan_non_general_type(U3, TRIPLE, b)
            assert alg.rays() <= ngt.rays()

    def test_diag222_count(self):
        cloud = scan_non_general_type(D222, D222_TRIPLE, 1)
        assert len(cloud) == 26

    def test_growing_bound_keeps_points(self):
        small = scan_non_general_type(U3, TRIPLE, 1)
        big = scan_non_general_type(U3, TRIPLE, 2)
        assert small.rays() <= big.rays()


def scaled_gram(lattice, k):
    return GramLattice.from_rows([[k * e for e in row] for row in lattice.gram])


def with_summand(lattice, triple, gram_entry, triple_entries=(0, 0, 0)):
    """lattice + <gram_entry>, each triple vector padded by one entry."""
    rows = [list(row) + [0] for row in lattice.gram]
    rows.append([0] * lattice.rank + [gram_entry])
    return (GramLattice.from_rows(rows),
            HyperTriple.from_rows([list(w) + [e]
                                   for w, e in zip(triple.vectors, triple_entries)]))


class TestInt64Bound:
    @pytest.mark.parametrize("k", [4 * 10 ** 18, 10 ** 19])
    def test_scaled_gram_gives_u3_cloud(self, k):
        # the Gram content is divided out and the pairing rows are
        # primitive, so a huge common scale leaves the scan exact
        for scan in (scan_algebraic, scan_non_general_type):
            expected = scan(U3, TRIPLE, 1)
            cloud = scan(scaled_gram(U3, k), TRIPLE, 1)
            assert [(p.dir, cloud.witness(p)) for p in cloud] == \
                [(p.dir, expected.witness(p)) for p in expected]
        assert len(cloud) == ORACLE_CLOUD_SIZES[1]

    def test_huge_gram_entry_is_unsupported(self):
        lattice, triple = with_summand(U3, TRIPLE, -10 ** 19)
        with pytest.raises(Unsupported, match=r"max\|G\|\*B\^2\*k\^2 = 49"):
            scan_algebraic(lattice, triple, 1)

    def test_numpy_bound_reach_does_not_wrap(self):
        # the reach (2 * 3)^2 * 2^60 = 36 * 2^60 would wrap in int64 to 2^62 < 2^63
        lattice, triple = with_summand(U3, TRIPLE, -2 ** 60)
        with pytest.raises(Unsupported, match=f"max.G..B.2.k.2 = {36 * 2 ** 60}"):
            scan_algebraic(lattice, triple, np.int64(2), (6, 0, 1))

    def test_huge_entry_outside_mask(self):
        # the bounds read only the masked columns: the summand <-10^19>
        # lies outside the mask, so the scans return the U3 B=1 cloud
        lattice, triple = with_summand(U3, TRIPLE, -10 ** 19)
        for scan in (scan_algebraic, scan_non_general_type):
            expected = scan(U3, TRIPLE, 1)
            cloud = scan(lattice, triple, 1, range(6))
            assert cloud.dirs.tolist() == expected.dirs.tolist()
            assert cloud.witnesses.tolist() == [w + [0] for w in expected.witnesses.tolist()]
        assert len(cloud) == ORACLE_CLOUD_SIZES[1]

    def test_huge_pairing_row_is_unsupported(self):
        # U3 + <-2N> with w_I = (1, N + 1, 0, 0, 0, 0, 1): still a valid
        # triple of norm 2, but its pairing row holds -2N = -2 * 10^18
        n = 10 ** 18
        lattice, triple = with_summand(U3, TRIPLE, -2 * n, (1, 0, 0))
        triple = HyperTriple.from_rows(
            [[1, n + 1] + [0] * 4 + [1], triple.w_j, triple.w_k])
        for scan in (scan_algebraic, scan_non_general_type):
            with pytest.raises(Unsupported, match=r"max\|rows\|\*B\*k = 14"):
                scan(lattice, triple, 1)
        with pytest.raises(Unsupported, match=r"max\|rows\|\*B\*k"):
            is_general_type(lattice, triple, TwistorPoint.from_unit(1.0, 0.5, 0.25),
                            bound=1)


def reference_cloud(both_signs):
    """Plain per-vector loop over the U3 B=2 box: each ray with its
    first witness, in order of first occurrence (+ray, then -ray)."""
    rows, _ = pairing_rows(U3, TRIPLE)
    cloud = {}
    for v in reference_box(6, 2):
        t = tuple(sum(r[j] * v[j] for j in range(6)) for r in rows)
        qvv = sum(U3.gram[i][j] * v[i] * v[j] for i in range(6) for j in range(6))
        if not any(t) or not (both_signs or qvv > 0):
            continue
        g = math.gcd(*t)
        ray = tuple(e // g for e in t)
        cloud.setdefault(ray, v)
        if both_signs:
            cloud.setdefault(tuple(-e for e in ray), v)
    return list(cloud.items())


@pytest.mark.parametrize("scan,both_signs", [(scan_algebraic, False),
                                             (scan_non_general_type, True)])
def test_clouds_independent_of_block_budget(scan, both_signs, monkeypatch):
    built = []
    init = TwistorPoint.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args or kwargs)
        init(self, *args, **kwargs)

    monkeypatch.setattr(TwistorPoint, "__init__", counting_init)

    def entries():
        built.clear()
        cloud = scan(U3, TRIPLE, 2)
        assert built == []  # the scan builds no point; iteration does
        return [(p.dir, cloud.witness(p)) for p in cloud]

    default = entries()
    monkeypatch.setattr(twistor, "_BLOCK_BYTES", TINY_BLOCK_BYTES)
    assert len(list(_box_pairings(pairing_rows(U3, TRIPLE)[0], 2))) == 13
    assert entries() == default == reference_cloud(both_signs)


def reference_box_pairings(rows, b):
    """The walk of the whole box [-b, b]^k, zero vector included, in
    lexicographic order and int64 blocks (vecs, vecs @ rows.T): the walk
    that _box_pairings cut to H-."""
    k = len(rows[0])
    rows = np.array(rows, dtype=np.int64)
    side = 2 * b + 1
    per_block = max(1, twistor._BLOCK_BYTES // (8 * max(k, 1)))
    free = k
    while free > 1 and side ** free > per_block:
        free -= 1
    n = side ** free
    parts = -(-n // per_block)
    powers = side ** np.arange(free - 1, -1, -1, dtype=np.int64)

    def tail(part):
        index = np.arange(part * n // parts, (part + 1) * n // parts, dtype=np.int64)
        return index[:, None] // powers % side - b

    whole = [tail(0)] if parts == 1 else None
    for prefix in itertools.product(range(-b, b + 1), repeat=k - free):
        for chunk in whole or map(tail, range(parts)):
            vecs = np.empty((len(chunk), k), dtype=np.int64)
            vecs[:, :k - free] = prefix
            vecs[:, k - free:] = chunk
            yield vecs, vecs @ rows.T


def reference_scan(lattice, triple, bound, mask, both_signs):
    """(dirs, witnesses) of a scan over the whole box: every ray of the walk,
    +ray then -ray with both signs, with the first vector giving it."""
    active = range(lattice.rank) if mask is None else sorted(set(mask))
    rows = [[row[i] for i in active] for row in pairing_rows(lattice, triple)[0]]
    gram = np.array([[lattice.gram[i][j] for j in active] for i in active],
                    dtype=np.int64).reshape(len(active), len(active))
    vecs, t = (np.concatenate(a) for a in zip(*reference_box_pairings(rows, bound)))
    g = np.gcd.reduce(np.abs(t), axis=1)
    keep = g > 0 if both_signs else (vecs @ gram * vecs).sum(axis=1) > 0
    rays = t[keep] // g[keep, None]
    vecs = vecs[keep]
    if both_signs:
        rays = np.stack([rays, -rays], axis=1).reshape(-1, 3)
        vecs = np.repeat(vecs, 2, axis=0)
    first = np.sort(np.unique(rays, axis=0, return_index=True)[1])
    witnesses = np.zeros((len(first), lattice.rank), dtype=np.int64)
    witnesses[:, list(active)] = vecs[first]
    return rays[first], witnesses


def reference_bounded_witness(lattice, triple, bound, unit):
    """The first vector of the whole box that is_general_type's sine test
    accepts for the unit, or None."""
    for vecs, t in reference_box_pairings(pairing_rows(lattice, triple)[0], bound):
        t = t.astype(float)
        n = np.sqrt((t * t).sum(axis=1))
        c = np.cross(t, unit)
        with np.errstate(divide="ignore", invalid="ignore"):
            sine = np.sqrt((c * c).sum(axis=1)) / n
        hits = np.flatnonzero((n > 0.0) & (sine <= 1e-9))
        if hits.size:
            return tuple(vecs[hits[0]].tolist())
    return None


@st.composite
def half_walk_cases(draw):
    """A lattice, bound and mask, and a block budget: the default; room for
    (2B+1)^(k-1) rows, so the walk splits over its first coordinate and H-
    ends inside the block of prefix 0; or, on small boxes, 64 bytes, so no
    coordinate's range fits a block and blocks are runs of vectors."""
    name = draw(st.sampled_from(["U3", "diag222", "K3"]))
    lattice, triple = load_lattice(name)
    if name == "K3":
        mask = draw(st.lists(st.integers(0, 21), max_size=8))
        bound = draw(st.integers(1, 2))
    else:
        mask, bound = None, draw(st.integers(1, 3))
    k = lattice.rank if mask is None else len(set(mask))
    side = 2 * bound + 1
    budgets = [None, 8 * max(k, 1) * side ** max(k - 1, 0)]
    if side ** k <= 3 ** 6:  # one or a few rows a block: small boxes only
        budgets.append(64)
    return lattice, triple, bound, mask, draw(st.sampled_from(budgets))


@given(case=half_walk_cases(), picks=st.lists(st.integers(0, 10 ** 6), max_size=3),
       gauss=st.tuples(*[st.floats(-1.0, 1.0)] * 3))
# a K3 mask of 8 coordinates, unsorted and with a repeat: H- in 3 blocks
@example(case=(K3, K3_TRIPLE, 2, (21, 0, 13, 7, 5, 9, 3, 8, 5), 8 * 8 * 5 ** 7),
         picks=[], gauss=(0.0, 0.0, 0.0))
@example(case=(U3, TRIPLE, 1, None, 64), picks=[7, 400], gauss=(0.3, -0.2, 0.9))
@example(case=(D222, D222_TRIPLE, 3, None, 64), picks=[5], gauss=(1.0, 0.0, 0.0))
@example(case=(U3, TRIPLE, 3, None, None), picks=[1, 2, 3], gauss=(1.0, 2 ** 0.5, 0.0))
def test_half_walk_gives_full_walk_results(case, picks, gauss):
    # scans and bounded witnesses read from H- are those of the whole box,
    # in the same order, whatever the block budget
    lattice, triple, bound, mask, block_bytes = case
    expected = {both: reference_scan(lattice, triple, bound, mask, both)
                for both in (False, True)}
    rays = expected[True][0]
    points = [TwistorPoint.from_unit(*u) for u in
              [gauss] * any(gauss) + [rays[p % len(rays)].tolist()
                                      for p in picks if len(rays)]]
    bounded = mask is None
    if bounded:
        witnesses = [reference_bounded_witness(lattice, triple, bound, p.unit)
                     for p in points]
    with pytest.MonkeyPatch.context() as mp:
        if block_bytes:
            mp.setattr(twistor, "_BLOCK_BYTES", block_bytes)
            mp.setattr(scanning, "_BLOCK_BYTES", block_bytes)
        for scan, both in ((scan_algebraic, False), (scan_non_general_type, True)):
            cloud = scan(lattice, triple, bound, mask)
            assert cloud.dirs.tolist() == expected[both][0].tolist()
            assert cloud.witnesses.tolist() == expected[both][1].tolist()
        if bounded:
            assert [is_general_type(lattice, triple, p, bound).witness
                    for p in points] == witnesses


@pytest.mark.parametrize("scan,digest", [
    (scan_algebraic, "525450b474dc0da33bbcbc2239e4a4ad685183d723972db785273547807db16f"),
    (scan_non_general_type,
     "3c663846f668b2ac3c71f1c0e18fd487dd64e6494e13db9615c53e65d234b66c"),
])
def test_frozen_enumeration_order(scan, digest):
    # dirs and witnesses in enumeration order, which the ray-sorted CSV
    # hash does not see, case by case into one hash
    cases = ([(U3, TRIPLE, b, None) for b in range(1, 5)]
             + [(D222, D222_TRIPLE, b, None) for b in range(1, 4)]
             + [(K3, K3_TRIPLE, 2, mask) for mask in (range(8), (0, 3, 7, 9, 21))])
    h = hashlib.sha256()
    for lattice, triple, bound, mask in cases:
        cloud = scan(lattice, triple, bound, mask)
        h.update(repr((cloud.dirs.tolist(), cloud.witnesses.tolist())).encode())
    assert h.hexdigest() == digest


@pytest.mark.parametrize("rays,order", [
    ([[1, 0, -2], [0, 1, 1], [1, 0, -2], [-1, 0, 2], [0, 1, 1], [0, 0, 1]],
     [3, 5, 1, 0]),
    # entries up to 2^31 would be packed in base 2^32 + 1, where (1, 0, 1)
    # and (0, 2, 0) wrap to the same int64 key: the rows are compared as
    # records instead
    ([[2 ** 31, 0, 0], [1, 0, 1], [0, 2, 0], [1, 0, 1]], [2, 1, 0]),
    ([], []),
    ([[2 ** 62, 0, 0], [-2 ** 62, 1, 0], [0, -1, 5], [-2 ** 62, 1, 0], [-2 ** 62, 0, 7]],
     [4, 1, 2, 0]),
])
def test_ray_order(rays, order):
    # the first and the last index of each distinct row, in lexicographic
    # row order
    rays = np.array(rays, dtype=np.int64).reshape(-1, 3)
    firsts, lasts = _ray_order(rays)
    assert firsts.tolist() == order
    first, last = {}, {}
    for i, row in enumerate(map(tuple, rays.tolist())):
        first.setdefault(row, i)
        last[row] = i
    assert order == [first[row] for row in sorted(first)]
    assert lasts.tolist() == [last[row] for row in sorted(last)]


# a cloud whose entries are too large for the packed int64 key
BIG = 2 ** 62 - 1
BIG_CLOUD = PointCloud(np.array([[BIG, 0, -1], [-BIG, 1, 0], [0, -1, BIG], [-BIG, 0, 1]]),
                       np.arange(8).reshape(4, 2))


class TestPointCloud:
    def test_units_match_from_ray(self):
        # this ray's sum of squares wraps in int64, and float64 squares
        # round it to a different unit
        big = [2342548891, -2558966741, -2170644487]
        for cloud in (scan_algebraic(U3, TRIPLE, 2),
                      PointCloud(np.array([big, [1, 0, 0]]), np.zeros((2, 6), np.int64))):
            assert [p.unit for p in cloud] == \
                [TwistorPoint.from_ray(*d).unit for d in cloud.dirs.tolist()]

    def test_lookup(self):
        cloud = PointCloud(np.array([[1, 0, 0], [0, -1, 2]]), np.array([[3, 4], [5, 6]]))
        assert len(cloud) == 2
        assert cloud.rays() == {(1, 0, 0), (0, -1, 2)}
        assert [p.dir for p in cloud] == [(1, 0, 0), (0, -1, 2)]
        assert cloud.witness(TwistorPoint.from_ray(0, -2, 4)) == (5, 6)
        assert TwistorPoint.from_ray(0, 1, -2) not in cloud
        assert TwistorPoint.from_unit(1.0, 0.0, 0.0) not in cloud
        assert (1, 0, 0) not in cloud
        with pytest.raises(KeyError):
            cloud.witness(TwistorPoint.from_ray(0, 1, -2))

    @pytest.mark.parametrize("cloud", [
        scan_algebraic(U3, TRIPLE, 3), BIG_CLOUD])
    def test_lookup_agrees_with_dict(self, cloud):
        expected = dict(zip(map(tuple, cloud.dirs.tolist()),
                            map(tuple, cloud.witnesses.tolist())))
        assert len(expected) == len(cloud)  # the rays are distinct
        absent = [(BIG, 0, 1), (0, 1, BIG), (1, 0, 1000)] + [
            ray for ray in itertools.product(range(-8, 9), repeat=3)
            if math.gcd(*ray) == 1 and ray not in expected]
        for ray, witness in expected.items():
            point = TwistorPoint.from_ray(*ray)
            assert point in cloud and cloud.witness(point) == witness
        for ray in absent:
            point = TwistorPoint.from_ray(*ray)
            assert point not in cloud
            with pytest.raises(KeyError):
                cloud.witness(point)
        assert cloud.rays() == set(expected)


def reference_grid(n):
    """fibonacci_sphere as it built the whole grid at once."""
    i = np.arange(n)
    y = (i * (2.0 / n)) - 1.0 + 1.0 / n
    r = np.sqrt(np.maximum(0.0, 1.0 - y * y))
    phi = i * (math.pi * (3.0 - math.sqrt(5.0)))
    return np.column_stack((np.cos(phi) * r, y, np.sin(phi) * r))


def reference_covering_radius(cloud, grid_resolution):
    """covering_radius as the full grid-by-cloud product in blocks."""
    grid = reference_grid(grid_resolution * grid_resolution)
    units = scanning._units(cloud.dirs)
    step = max(1, scanning._BLOCK_BYTES // (8 * len(units)))
    least = min(float(np.max(grid[i:i + step] @ units.T, axis=1).min())
                for i in range(0, grid.shape[0], step))
    return float(np.arccos(np.clip(least, -1.0, 1.0)))


def random_cloud(seed, kind, size):
    rng = np.random.default_rng(seed)
    if kind == "uniform":
        dirs = rng.integers(-50, 51, (size, 3))
    elif kind == "clustered":  # one tight cluster: far rows leave their band
        dirs = rng.integers(-10 ** 4, 10 ** 4, 3) * 100 + rng.integers(-20, 21, (size, 3))
    elif kind == "tiny":  # h >= 1: bands of up to the whole sphere
        dirs = rng.integers(-3, 4, (size % 12 + 1, 3))
    else:
        dirs = rng.integers(-2 ** 62, 2 ** 62, (size, 3))
    dirs = dirs[np.abs(dirs).sum(axis=1) > 0]
    return PointCloud(dirs, np.zeros((len(dirs), 1), dtype=np.int64))


class TestCoveringRadius:
    @pytest.mark.parametrize("resolution,radii", [
        (200, ("0.3072311285340005", "0.1697620260111539",
               "0.1150178514695484", "0.08575841819935419")),
        (37, ("0.3013454777065868", "0.1644588487896601",
              "0.10477985817392532", "0.07557408257263193"))])
    def test_frozen_u3_radii(self, resolution, radii):
        # U3 at B=1..4, as the full product gave them
        assert tuple(repr(covering_radius(
            scan_algebraic(U3, TRIPLE, b), resolution))
            for b in (1, 2, 3, 4)) == radii

    @given(seed=st.integers(0, 2 ** 32 - 1),
           kind=st.sampled_from(["uniform", "clustered", "tiny", "huge"]),
           size=st.integers(1, 300), resolution=st.integers(2, 40),
           block_bytes=st.sampled_from([64, 4096, 4 << 20]))
    # band cosines of this cloud differ in the last ulp from the full product's
    @example(seed=6, kind="uniform", size=60, resolution=2, block_bytes=4 << 20)
    @example(seed=1, kind="clustered", size=300, resolution=40, block_bytes=4096)
    @example(seed=2, kind="tiny", size=5, resolution=30, block_bytes=64)
    def test_equals_full_product(self, seed, kind, size, resolution, block_bytes):
        cloud = random_cloud(seed, kind, size)
        assume(len(cloud))
        with pytest.MonkeyPatch.context() as mp:
            # small blocks put the rows near the least cosine in many blocks
            mp.setattr(scanning, "_BLOCK_BYTES", block_bytes)
            assert (repr(covering_radius(cloud, resolution))
                    == repr(reference_covering_radius(cloud, resolution)))

    def test_memory_independent_of_grid(self):
        cloud = scan_algebraic(U3, TRIPLE, 4)
        covering_radius(cloud, 100)  # numpy's first-call allocations

        def peak(resolution):
            tracemalloc.start()
            try:
                covering_radius(cloud, resolution)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(400) <= 1.1 * peak(100)

    def test_single_point(self):
        cloud = PointCloud(np.array([[1, 0, 0]]), np.array([[1, 1, 0, 0, 0, 0]]))
        rad = covering_radius(cloud, 200)
        assert abs(rad - math.pi) <= 2.0 / 200

    def test_octahedron(self):
        rays = ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1))
        cloud = PointCloud(np.array(rays), np.zeros((6, 6), dtype=np.int64))
        rad = covering_radius(cloud, 200)
        assert abs(rad - math.acos(1 / math.sqrt(3))) <= 2.0 / 200

    def test_monotone_in_bound(self):
        r2 = covering_radius(
            scan_algebraic(U3, TRIPLE, 2), 100)
        r3 = covering_radius(
            scan_algebraic(U3, TRIPLE, 3), 100)
        assert r3 <= r2

    def test_empty_cloud(self):
        with pytest.raises(EmptyCloud):
            covering_radius(PointCloud(np.empty((0, 3), dtype=np.int64),
                                       np.empty((0, 6), dtype=np.int64)), 100)

    @pytest.mark.parametrize("resolution", [0, 1, -3])
    def test_grid_resolution_checked(self, resolution):
        cloud = PointCloud(np.array([[1, 0, 0]]), np.array([[1, 1, 0, 0, 0, 0]]))
        with pytest.raises(InvalidBound, match="grid_resolution must be >= 2"):
            covering_radius(cloud, resolution)

    def test_numpy_grid_accepted(self):
        cloud = scan_algebraic(U3, TRIPLE, 1)
        assert covering_radius(cloud, np.int32(37)) == covering_radius(cloud, 37)

    def test_grid_is_unit(self):
        grid = fibonacci_sphere(500)
        norms = (grid ** 2).sum(axis=1)
        assert abs(norms - 1.0).max() < 1e-12

    @pytest.mark.parametrize("n", [1, 2, 500, 40000])
    def test_grid_equals_reference(self, n):
        assert np.array_equal(fibonacci_sphere(n), reference_grid(n))

    def test_grid_size_checked(self):
        # 31623^2 is just over 10^9 points: rejected before any is built
        message = "grid_resolution 31623 gives 1000014129 grid points"
        cloud = PointCloud(np.array([[1, 0, 0]]), np.array([[1, 1, 0, 0, 0, 0]]))
        with pytest.raises(InvalidBound, match=message):
            covering_radius(cloud, 31623)


GT_POINTS = (TwistorPoint.from_ray(1, 1, 0), TwistorPoint.from_unit(1.0, 0.5, 0.0))


@pytest.mark.parametrize("call,message", [
    (lambda: scan_algebraic(U3, TRIPLE, 1, (2.7, 3.2)), "mask entry = 2.7"),
    (lambda: scan_non_general_type(U3, TRIPLE, 1, ("a",)), "mask entry = 'a'"),
    (lambda: scan_algebraic(U3, TRIPLE, 1, (True, 2)), "mask entry = True"),
    (lambda: scan_algebraic(U3, TRIPLE, 1.5), "bound = 1.5"),
    (lambda: scan_non_general_type(U3, TRIPLE, "2"), "bound = '2'"),
    (lambda: covering_radius(scan_algebraic(U3, TRIPLE, 1), 2.5),
     "grid_resolution = 2.5"),
    (lambda: is_general_type(U3, TRIPLE, GT_POINTS[0], bound=1.5), "bound = 1.5"),
    (lambda: is_general_type(U3, TRIPLE, GT_POINTS[1], bound=1.5), "bound = 1.5"),
    (lambda: is_general_type(U3, TRIPLE, GT_POINTS[1], bound=None), "bound = None"),
])
def test_non_integer_argument_rejected(call, message):
    # never truncated (2.7 is not the index 2), and never a bare ValueError
    # or TypeError
    with pytest.raises(TwistorLatticeError, match=re.escape(f"{message} is not an integer")):
        call()


class TestEmission:
    def test_csv_roundtrip(self):
        cloud = scan_algebraic(U3, TRIPLE, 1)
        buf = io.StringIO()
        write_csv(cloud, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "a,b,c,ux,uy,uz,cp1_re,cp1_im,witness"
        assert len(lines) == len(cloud) + 1
        for line in lines[1:]:
            parts = line.split(",")
            ray = tuple(int(e) for e in parts[:3])
            witness = tuple(int(e) for e in parts[8].split(";"))
            assert pi_map(U3, TRIPLE, witness).point.dir == ray

    def test_csv_infinity(self):
        cloud = PointCloud(np.array([[1, 0, 0]]), np.array([[1, 1, 0, 0, 0, 0]]))
        buf = io.StringIO()
        write_csv(cloud, buf)
        row = buf.getvalue().splitlines()[1].split(",")
        assert row[6] == "inf"
        assert row[7] == "0"

    def test_csv_sorted_by_ray(self):
        buf = io.StringIO()
        write_csv(BIG_CLOUD, buf)
        rows = [tuple(int(e) for e in line.split(",")[:3])
                for line in buf.getvalue().splitlines()[1:]]
        assert rows == sorted(map(tuple, BIG_CLOUD.dirs.tolist()))

    def test_csv_deterministic(self):
        bufs = []
        for _ in range(2):
            cloud = scan_algebraic(U3, TRIPLE, 2)
            buf = io.StringIO()
            write_csv(cloud, buf)
            bufs.append(buf.getvalue())
        assert bufs[0] == bufs[1]

    def test_svg_smoke(self):
        cloud = scan_algebraic(U3, TRIPLE, 1)
        buf = io.StringIO()
        write_svg(cloud, buf)
        text = buf.getvalue()
        assert text.startswith("<svg")
        assert text.rstrip().endswith("</svg>")
        assert text.count("<circle") > len(cloud)

    def test_svg_sha256(self):
        # the bench's ngt.svg fixture: scan-ngt --lattice U3 --bound 3 --svg
        buf = io.StringIO()
        write_svg(scan_non_general_type(U3, TRIPLE, 3), buf)
        assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == (
            "52c75f12f871fb72282f7181073e734d3eb7cca75408ccad8333d678a0eae198")
