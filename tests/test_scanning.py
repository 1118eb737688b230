import hashlib
import io
import itertools
import math
import os
import re
import tracemalloc
from fractions import Fraction

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
    InvalidTriple,
    InvariantViolation,
    IrrationalPoint,
    NotPositive,
    NotUnitImaginary,
    PointCloud,
    TwistorLatticeError,
    TwistorPoint,
    Unsupported,
    covering_radius,
    integer_kernel,
    is_general_type,
    load_lattice,
    omega_of,
    pi_map,
    scan_algebraic,
    scan_non_general_type,
    vector,
    write_csv,
    write_svg,
)
from twistorlat import box, covering, scanning, twistor
from twistorlat.box import box_pairings, digits, ray_keys, ray_order
from twistorlat.covering import fibonacci_sphere
from twistorlat.linalg import pairing_rows, signature
from twistorlat.quaternions import (
    ComplexStructureMatrix,
    Quaternion,
    SU2Element,
    TwoForm,
    complex_structure_from,
    su2_act_on_form,
    two_form_from_coords,
    verify_model,
)

from support import reference_write_csv, reference_write_svg

U3, TRIPLE = load_lattice("U3")
K3, K3_TRIPLE = load_lattice("K3")
D222, D222_TRIPLE = load_lattice("diag222")

# frozen outputs of tests/oracle_density.py (independent brute force)
ORACLE_CLOUD_SIZES = {1: 98, 2: 578, 3: 1730, 4: 4034}


def rows_of_width(k):
    """Three integer rows of width k for the box walk to pair with."""
    return [[1] * k, list(range(k)), [(-1) ** j * (j + 2) for j in range(k)]]


def walk_blocks(k, b):
    """The blocks of the walk of [-b, b]^k as (vecs, t): the m box vectors
    of H- in each block, the digits of their indices in the whole box from
    the block's start, and the pairing of each, the row of t of its table
    row's group. A block's prefix rows high are its vectors' leading digits."""
    walk = box_pairings(rows_of_width(k), b)
    n, d = len(walk.groups), len(walk.firsts)
    for start, high, m, t in walk.blocks:
        at = np.arange(m)
        vecs = digits(start + at, k, b)
        assert (vecs[:, :k - walk.free] == high[at // n]).all()
        yield vecs, t[at // n * d + walk.groups[at % n]]


def box_rows(k, b):
    """Every row of the box blocks, in order, as tuples."""
    return [tuple(row) for vecs, _ in walk_blocks(k, b) for row in vecs.tolist()]


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
        box_pairings = scanning.box_pairings

        def recording(rows, b):
            walk = box_pairings(rows, b)
            blocks.extend(walk.blocks)
            return walk._replace(blocks=iter(blocks))

        monkeypatch.setattr(scanning, "box_pairings", recording)
        scan_algebraic(K3, K3_TRIPLE, 1, (0, 1))
        # one block: no prefix coordinate, and the 4 vectors of H- of a
        # table of 9 rows; t = (x0 + x1, 0, 0) takes 5 values on the table,
        # 3 of them first on those 4 rows
        assert [(start, high.shape, m, t.shape) for start, high, m, t in blocks] == [
            (0, (1, 0), 4, (3, 3))]

    def test_no_repeats_lexicographic(self):
        vecs = box_rows(3, 2)
        assert len(vecs) == (5 ** 3 - 1) // 2
        assert len(set(vecs)) == len(vecs)
        assert vecs == sorted(vecs)
        # H-: the first nonzero entry of each vector is negative
        assert all(next(e for e in v if e) < 0 for v in vecs)

    def test_array_agrees_with_generator(self, monkeypatch):
        monkeypatch.setattr(box, "BLOCK_BYTES", TINY_BLOCK_BYTES)
        # the full walk's 25, 1 and 5 blocks, up to the one where H- ends
        for k, b, n_blocks in ((6, 2, 13), (3, 1, 1), (5, 2, 3)):
            blocks = list(box_pairings(rows_of_width(k), b).blocks)
            assert len(blocks) == n_blocks
            assert all(high.dtype == t.dtype == np.int64 for _, high, _, t in blocks)
            assert box_rows(k, b) == reference_half(k, b)
            pairings = walk_blocks(k, b)
            assert [tuple(row) for _, t in pairings for row in t.tolist()] == [
                tuple(sum(r * e for r, e in zip(row, v)) for row in rows_of_width(k))
                for v in reference_half(k, b)]

    @pytest.mark.parametrize("k", [1, 2])
    def test_coordinate_over_budget_is_cut(self, k, monkeypatch):
        # 64 bytes hold 8 // k rows, fewer than the 21 values of one
        # coordinate at B=10: the last coordinate's range is cut into chunks
        monkeypatch.setattr(box, "BLOCK_BYTES", 64)
        blocks = list(box_pairings(rows_of_width(k), 10).blocks)
        assert all(1 < len(high) and high.nbytes <= 64 for _, high, _, _ in blocks)
        assert box_rows(k, 10) == reference_half(k, 10)
        # no coordinate fits: blocks of 8 // k consecutive vectors of H-,
        # each a prefix row over the one empty row of the table
        assert [m for _, _, m, _ in blocks] == {1: [8, 2], 2: [4] * 55}[k]
        assert all(len(t) == m == len(high) for _, high, m, t in blocks)

    @pytest.mark.parametrize("block_bytes", [64, 4096, TINY_BLOCK_BYTES, None])
    def test_block_rule(self, block_bytes, monkeypatch):
        # free is the largest number of trailing coordinates whose
        # (2B+1)^free rows fit a block: every block but the last holds
        # per_block // (2B+1)^free whole prefixes over all of them, or
        # per_block vectors when free = 0
        if block_bytes:
            monkeypatch.setattr(box, "BLOCK_BYTES", block_bytes)
        for k, b in itertools.product(range(1, 7), (1, 2, 10)):
            side = 2 * b + 1
            if side ** k > 10 ** 6:
                continue
            per_block = box.BLOCK_BYTES // (8 * k)
            free = max(f for f in range(k + 1) if side ** f <= per_block)
            step = per_block // side ** free  # prefixes a block: per_block when free = 0
            size = step * side ** free
            walk = box_pairings(rows_of_width(k), b)
            assert walk.free == free and len(walk.groups) == side ** free
            if not free:  # the table is one empty row
                assert walk.groups.tolist() == walk.firsts.tolist() == [0]
                assert walk.pairings.tolist() == [[0, 0, 0]]
            blocks = list(walk.blocks)
            lengths = [m for _, _, m, _ in blocks]
            # each block starts where the one before it ends
            assert [start for start, _, _, _ in blocks] == [0, *itertools.accumulate(lengths)][:-1]
            assert lengths[:-1] == [size] * (len(blocks) - 1)
            assert [len(high) for _, high, _, _ in blocks[:-1]] == [step] * (len(blocks) - 1)
            assert 0 < lengths[-1] <= size
            assert sum(lengths) == (side ** k - 1) // 2
            # what a block materializes: its prefix rows, and a row of t
            # for each distinct pairing (at most one a vector)
            assert all(high.nbytes <= box.BLOCK_BYTES and len(t) <= per_block
                       for _, high, _, t in blocks)
            # t holds the groups whose first vector lies in H-: all of them
            # in every block but the last
            d = len(walk.firsts)
            assert [len(t) for _, _, _, t in blocks[:-1]] == [
                len(high) * d for _, high, _, _ in blocks[:-1]]
            _, high, m, t = blocks[-1]
            assert len(t) == np.count_nonzero(walk.position(np.arange(len(high) * d)) < m)

    @given(k=st.integers(1, 5), b=st.integers(1, 3),
           block_bytes=st.sampled_from([64, 4096, TINY_BLOCK_BYTES, None]),
           data=st.data())
    def test_table_pairings_are_the_distinct_digit_pairings(self, k, b, block_bytes, data):
        # pairings, firsts and groups are a first-occurrence dedup of
        # digits @ rows_low.T over the table's digits; entries up to 2^40
        # are too large for the packed key
        rows = data.draw(st.lists(st.lists(st.integers(-2 ** 40, 2 ** 40), min_size=k,
                                           max_size=k), min_size=3, max_size=3))
        with pytest.MonkeyPatch.context() as mp:
            if block_bytes:
                mp.setattr(box, "BLOCK_BYTES", block_bytes)
            walk = box_pairings(rows, b)
            per_block = box.BLOCK_BYTES // (8 * k)
        side = 2 * b + 1
        free = max(f for f in range(k + 1) if side ** f <= per_block)
        assert walk.free == free
        assert walk.size == len(walk.groups) == side ** free
        digits = np.array(list(itertools.product(range(-b, b + 1), repeat=free)),
                          dtype=np.int64).reshape(side ** free, free)
        pairings = (digits @ np.array(rows, dtype=np.int64)[:, k - free:].T).tolist()
        first = {}
        for i, pairing in enumerate(map(tuple, pairings)):
            first.setdefault(pairing, i)
        position = {pairing: g for g, pairing in enumerate(first)}
        assert walk.firsts.tolist() == list(first.values())
        assert walk.pairings.tolist() == [list(pairing) for pairing in first]
        assert walk.groups.tolist() == [position[tuple(row)] for row in pairings]
        # row j of t is group j % d of prefix j // d of its block
        d = len(first)
        j = np.arange(3 * d)
        assert walk.position(j).tolist() == [
            i // d * side ** free + list(first.values())[i % d] for i in j.tolist()]

    @given(k=st.integers(1, 5), b=st.integers(1, 3), data=st.data())
    @example(k=5, b=3, data=None)  # every entry the largest admitted, 5 table coordinates
    def test_table_terms_are_the_digit_forms(self, k, b, data):
        # q_low, p_low and lam over the table's digits, for symmetric Grams
        # with entries up to the largest that the int64 check admits
        largest = (2 ** 63 - 1) // (b * k) ** 2
        if data is None:
            free, upper = k, [largest] * (k * (k + 1) // 2)
        else:
            free = data.draw(st.integers(0, k))
            upper = data.draw(st.lists(st.integers(-largest, largest),
                                       min_size=k * (k + 1) // 2, max_size=k * (k + 1) // 2))
        entries = iter(upper)
        gram = np.zeros((k, k), dtype=object)
        for i, j in itertools.combinations_with_replacement(range(k), 2):
            gram[i, j] = gram[j, i] = next(entries)
        q_low, p_low, lam = scanning._table_terms(
            box.int64(gram.tolist(), (b * k) ** 2, "max|G|*B^2*k^2"), free, b)
        lo = k - free
        digits = np.array(list(itertools.product(range(-b, b + 1), repeat=free)),
                          dtype=object).reshape((2 * b + 1) ** free, free)
        assert q_low.dtype == p_low.dtype == np.int64
        assert q_low.tolist() == ((digits @ gram[lo:, lo:]) * digits).sum(axis=1).tolist()
        assert p_low.tolist() == (digits @ gram[lo:, :lo]).tolist()
        assert lam.dtype == np.uint8
        assert lam.tolist() == [max(map(abs, row), default=0) for row in digits.tolist()]

    def test_invalid_bound(self):
        with pytest.raises(InvalidBound, match="box_bound must be >= 1"):
            scan_algebraic(U3, TRIPLE, 0)

    def test_box_size_guard(self):
        # 9^6 = 531441, the largest box the suite and the bench walk: H- is
        # (9^6 - 1) / 2 of it
        assert (sum(m for _, _, m, _ in box_pairings(rows_of_width(6), 4).blocks)
                == (9 ** 6 - 1) // 2)
        with pytest.raises(InvalidBound, match=r"B=1 over k=22 .* 31381059609"):
            box_pairings(rows_of_width(22), 1)

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
        # a set too: a mask's order is dropped, unlike a vector's
        for mask in ((5, 3, 1, 4, 0, 2, 3), {5, 3, 1, 4, 0, 2}):
            cloud = scan_algebraic(U3, TRIPLE, 1, mask)
            assert cloud.dirs.tolist() == expected.dirs.tolist()
            assert cloud.witnesses.tolist() == expected.witnesses.tolist()

    @pytest.mark.parametrize("mask,index", [((0, 6), 6), ((-1, 7), -1)])
    def test_mask_out_of_range(self, mask, index):
        for scan in (scan_algebraic, scan_non_general_type):
            with pytest.raises(DimensionMismatch,
                               match=f"mask index {index} out of range for rank 6"):
                scan(U3, TRIPLE, 1, mask)

    @pytest.mark.parametrize("mask", [5, True, math.nan, np.int64(3)])
    @pytest.mark.parametrize("scan", [scan_algebraic, scan_non_general_type])
    def test_scalar_mask_is_refused(self, scan, mask):
        # each raised TypeError: ... object is not iterable
        with pytest.raises(DimensionMismatch,
                           match=re.escape(f"mask = {mask!r} is not a sequence")):
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
    monkeypatch.setattr(box, "BLOCK_BYTES", TINY_BLOCK_BYTES)
    assert len(list(box_pairings(pairing_rows(U3, TRIPLE)[0], 2).blocks)) == 13
    assert entries() == default == reference_cloud(both_signs)


def test_one_block_budget_moves_the_walk_and_the_screen(monkeypatch):
    # the budget is bound once, in box, and read there at each call: one
    # patch moves the walk's rows a block and the screen's rows a product
    dirs = np.array([[1, 2, 3], [4, -5, 7]])  # no sign flip folds it: a band of 2
    monkeypatch.setattr(box, "BLOCK_BYTES", TINY_BLOCK_BYTES)
    walk = box_pairings(rows_of_width(6), 2)
    assert walk.free == 4 and [len(high) for _, high, _, _ in walk.blocks] == [1] * 13
    assert covering._Screen(dirs, np.zeros((3, 1), np.float32)).step == TINY_BLOCK_BYTES // 16


@pytest.mark.parametrize("scan", [scan_algebraic, scan_non_general_type])
def test_one_ray_dedup_per_scan(scan, monkeypatch):
    # the candidates of all 13 blocks meet in one sort by ray key
    calls = []

    def counting(rays, top):
        calls.append(len(rays))
        return ray_keys(rays, top)

    monkeypatch.setattr(box, "BLOCK_BYTES", TINY_BLOCK_BYTES)
    monkeypatch.setattr(scanning, "ray_keys", counting)
    assert len(list(box_pairings(pairing_rows(U3, TRIPLE)[0], 2).blocks)) == 13
    cloud = scan(U3, TRIPLE, 2)
    # two candidates, r and -r, per counting group
    assert len(calls) == 1 and calls[0] % 2 == 0 and calls[0] >= len(cloud) > 0


@pytest.mark.parametrize("n,packed", [(2 ** 18, True), (2 ** 22, False)])
def test_dedup_on_both_ray_keys(n, packed):
    # U3 + <-2n>, w_I = (1, n + 1, 0, 0, 0, 0, 1): rays of entries past
    # n, whose keys pack into one int64 for n = 2^18 and are records
    # for n = 2^22
    lattice, triple = with_summand(U3, TRIPLE, -2 * n, (1, 0, 0))
    triple = HyperTriple.from_rows([[1, n + 1] + [0] * 4 + [1], triple.w_j, triple.w_k])
    for scan, both_signs in ((scan_algebraic, False), (scan_non_general_type, True)):
        cloud = scan(lattice, triple, 1)
        top = int(np.abs(cloud.dirs).max())
        assert top > n and ((2 * top + 1) ** 3 < 2 ** 63) == packed
        dirs, witnesses = reference_scan(lattice, triple, 1, None, both_signs)
        assert cloud.dirs.tolist() == dirs.tolist()
        assert cloud.witnesses.tolist() == witnesses.tolist()


def reference_box_pairings(rows, b):
    """The walk of the whole box [-b, b]^k, zero vector included, in
    lexicographic order and int64 blocks (vecs, vecs @ rows.T): the walk
    that _box_pairings cut to H-."""
    k = len(rows[0])
    rows = np.array(rows, dtype=np.int64)
    side = 2 * b + 1
    per_block = max(1, box.BLOCK_BYTES // (8 * max(k, 1)))
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
        n, sine = reference_sine(t, unit)
        hits = np.flatnonzero((n > 0.0) & (sine <= 1e-9))
        if hits.size:
            return tuple(vecs[hits[0]].tolist())
    return None


def reference_sine(t, unit):
    """(n, sine) of the rows of t by row sums and np.cross."""
    t = t.astype(float)
    n = np.sqrt((t * t).sum(axis=1))
    c = np.cross(t, unit)
    with np.errstate(divide="ignore", invalid="ignore"):
        return n, np.sqrt((c * c).sum(axis=1)) / n


@st.composite
def sine_cases(draw):
    """Rows t and a unit: the float image of a box ray, or of a drawn
    direction. The rows are int64 rows up to the box walk's int64 bound
    (below 2^63), zero rows, and multiples of the box ray, which are
    exactly collinear with its image, then 64 seeded rows of entries of
    every magnitude up to that bound, where rounding tells sum orders
    apart."""
    ray = draw(st.tuples(*[st.integers(-4, 4)] * 3).filter(any))
    direction = st.tuples(*[st.floats(-1e3, 1e3, allow_subnormal=False)] * 3).filter(
        lambda v: sum(e * e for e in v) > 1e-6)
    unit = draw(st.one_of(st.just(TwistorPoint.from_ray(*ray).unit),
                          direction.map(lambda v: TwistorPoint.from_unit(*v).unit)))
    reach = 2 ** 63 - 1
    rows = draw(st.lists(st.one_of(
        st.tuples(*[st.integers(-reach, reach)] * 3),
        st.just((0, 0, 0)),
        st.integers(-(reach // 4), reach // 4).map(lambda k: tuple(k * e for e in ray))),
        min_size=1, max_size=40))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32)))
    spread = rng.integers(-reach, reach, size=(64, 3)) >> rng.integers(0, 63, size=(64, 3))
    return np.concatenate([np.array(rows, dtype=np.int64).reshape(-1, 3), spread]), unit


@given(case=sine_cases())
@example(case=(np.array([[0, 0, 0], [2, -4, 6], [-3, 6, -9], [1, 0, 0]]),
               TwistorPoint.from_ray(1, -2, 3).unit))
def test_column_sine_equals_row_formula(case):
    # the bounded search's sine on float columns, bit for bit the row sums
    # and np.cross of reference_bounded_witness: nan on zero rows included
    t, unit = case
    n, sine = twistor._sine(t, unit)
    ref_n, ref_sine = reference_sine(t, unit)
    assert n.tobytes() == ref_n.tobytes()
    assert sine.tobytes() == ref_sine.tobytes()


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
            mp.setattr(box, "BLOCK_BYTES", block_bytes)
        for scan, both in ((scan_algebraic, False), (scan_non_general_type, True)):
            cloud = scan(lattice, triple, bound, mask)
            assert cloud.dirs.tolist() == expected[both][0].tolist()
            assert cloud.witnesses.tolist() == expected[both][1].tolist()
        if bounded:
            assert [is_general_type(lattice, triple, p, bound).witness
                    for p in points] == witnesses


def reference_least_bounds(lattice, triple, bound, mask):
    """{ray: the least infinity norm of a positive vector of the box that
    projects onto it}, over the whole box, a block of the walk at a time."""
    active = range(lattice.rank) if mask is None else sorted(set(mask))
    rows = [[row[i] for i in active] for row in pairing_rows(lattice, triple)[0]]
    gram = np.array([[lattice.gram[i][j] for j in active] for i in active],
                    dtype=np.int64).reshape(len(active), len(active))
    rays, norms = [np.empty((0, 3), np.int64)], [np.empty(0, np.int64)]
    for vecs, t in reference_box_pairings(rows, bound):
        keep = (vecs @ gram * vecs).sum(axis=1) > 0
        rays.append(t[keep] // np.gcd.reduce(np.abs(t[keep]), axis=1)[:, None])
        norms.append(np.abs(vecs[keep]).max(axis=1, initial=0))
    norms = np.concatenate(norms)
    by_norm = np.argsort(norms, kind="stable")  # a ray's first row has its least norm
    rays, first = np.unique(np.concatenate(rays)[by_norm], axis=0, return_index=True)
    return dict(zip(map(tuple, rays.tolist()), norms[by_norm][first].tolist()))


@st.composite
def level_cases(draw):
    """A lattice, bound and mask, small enough for the brute force, and a
    block budget: the default, room for one leading coordinate's split,
    or 64 bytes, when no coordinate's range fits a block (free = 0)."""
    name = draw(st.sampled_from(["U3", "diag222", "K3"]))
    lattice, triple = load_lattice(name)
    width = {"U3": 6, "diag222": 3, "K3": 5}[name]
    mask = draw(st.none() | st.lists(st.integers(0, lattice.rank - 1), max_size=width))
    if name == "K3" and mask is None:
        mask = [0, 1, 2, 3]
    k = lattice.rank if mask is None else len(set(mask))
    bound = draw(st.integers(1, max(1, {6: 2, 5: 2, 4: 3}.get(k, 4))))
    side = 2 * bound + 1
    return lattice, triple, bound, mask, draw(st.sampled_from(
        [None, 8 * max(k, 1) * side ** max(k - 1, 0), 64]))


@given(case=level_cases())
@example(case=(U3, TRIPLE, 5, None, None))
@example(case=(K3, K3_TRIPLE, 2, list(range(8)), None))
@example(case=(D222, D222_TRIPLE, 4, None, None))
@example(case=(U3, TRIPLE, 2, None, TINY_BLOCK_BYTES))  # 13 blocks
@example(case=(U3, TRIPLE, 2, [5, 0, 3, 2], 64))  # free = 0
# past 255, levels in uint16: rays (x, y, 0) of least bound max(|x|, |y|),
# up to 257, and at bound 256 one ray
@example(case=(D222, D222_TRIPLE, 257, [0, 1], None))
@example(case=(D222, D222_TRIPLE, 256, [2], None))
def test_least_bounds_are_the_smaller_boxes(case):
    # each least bound is the least norm of the ray's positive vectors in
    # the box, and the rays of least bound at most b are box b's cloud
    lattice, triple, bound, mask, block_bytes = case
    expected = reference_least_bounds(lattice, triple, bound, mask)
    with pytest.MonkeyPatch.context() as mp:
        if block_bytes:
            mp.setattr(box, "BLOCK_BYTES", block_bytes)
        cloud = scan_algebraic(lattice, triple, bound, mask)
    least = cloud.least_bounds
    assert least.dtype == np.min_scalar_type(bound + 1) and not least.flags.writeable
    assert dict(zip(map(tuple, cloud.dirs.tolist()), least.tolist())) == expected
    # every b of a small box; of a large one, the ends and the b's around 255
    for b in range(1, bound + 1) if bound <= 5 else (1, 2, 255, 256, bound):
        assert (set(map(tuple, cloud.dirs[least <= b].tolist()))
                == scan_algebraic(lattice, triple, b, mask).rays())
    assert scan_non_general_type(lattice, triple, 1, mask).least_bounds is None
    assert PointCloud(cloud.dirs, cloud.witnesses).least_bounds is None


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
    # the first index of each distinct row, in lexicographic row order,
    # and the position of each row's distinct row in that order
    rays = np.array(rays, dtype=np.int64).reshape(-1, 3)
    firsts, groups = ray_order(rays)
    assert firsts.tolist() == order
    first = {}
    for i, row in enumerate(map(tuple, rays.tolist())):
        first.setdefault(row, i)
    assert order == [first[row] for row in sorted(first)]
    assert groups.tolist() == [sorted(first).index(row) for row in map(tuple, rays.tolist())]


# the extremes, and the largest entry whose rows still pack into one int64
# key, (2m + 1)^3 < 2^63, with the least that does not; a draw takes the
# entries up to one of them, so each side of the packing bound is met
EXTREMES = [2 ** 63 - 1, 2 ** 62, 2 ** 20, 2 ** 20 - 1, 1, 0]


@given(rays=st.sampled_from(EXTREMES).flatmap(lambda cap: st.lists(st.tuples(*[
    st.sampled_from([s * e for e in EXTREMES if e <= cap for s in (1, -1)])] * 3), max_size=12)))
# the least entry past the packing bound: packed, the first row's key would wrap
@example(rays=[(2 ** 20, 0, 0), (0, -1, 2 ** 20 - 1), (-2 ** 20, 2 ** 20, 1), (0, -1, 2 ** 20 - 1)])
def test_ray_order_equals_sorted(rays):
    # packed or as records, the rows sort as Python sorts their tuples,
    # for every int64 entry but -2^63, which PointCloud refuses
    firsts, groups = ray_order(np.array(rays, dtype=np.int64).reshape(-1, 3))
    distinct = sorted(set(rays))
    assert [rays[i] for i in firsts.tolist()] == distinct
    assert firsts.tolist() == [rays.index(row) for row in distinct]
    assert groups.tolist() == [distinct.index(row) for row in rays]


# the largest |entry| whose three squares sum within int64: _units sums
# a chunk's squares in int64 up to it and in Python ints past it
EDGE = 1_753_413_056

# a cloud whose entries are too large for the packed int64 key
BIG = 2 ** 62 - 1
BIG_CLOUD = PointCloud(np.array([[BIG, 0, -1], [-BIG, 1, 0], [0, -1, BIG], [-BIG, 0, 1]]),
                       np.arange(8).reshape(4, 2))


class TestPointCloud:
    def test_units_match_from_ray(self):
        # this ray's sum of squares wraps in int64, and float64 squares
        # round it to a different unit. The first edge ray alone sums in
        # int64, at the edge; the second's sum would wrap, and with it
        # all three sum in Python ints
        big = [2342548891, -2558966741, -2170644487]
        edge = [[EDGE, -EDGE, EDGE - 1], [EDGE + 1, EDGE + 1, -EDGE], [-EDGE - 1, 1, 0]]
        for cloud in (scan_algebraic(U3, TRIPLE, 2),
                      PointCloud(np.array([big, [1, 0, 0]]), np.zeros((2, 6), np.int64)),
                      PointCloud(np.array(edge[:1]), np.zeros((1, 0), np.int64)),
                      PointCloud(np.array(edge), np.zeros((3, 0), np.int64))):
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

    @pytest.mark.parametrize("dirs,witnesses,error,message", [
        # a zero ray has no unit: its covering radius would be nan
        ([[0, 0, 0], [1, 0, 0]], np.zeros((2, 1), np.int64), InvariantViolation,
         "zero ray is not a twistor point: dirs row 0"),
        ([[1, 0, 0], [0, 2, 0], [0, 0, 0]], np.zeros((3, 1), np.int64), InvariantViolation,
         "dirs row 2"),
        # float entries would be written through %d: 1.5 as 1
        (np.array([[1.5, 0, 0], [0, 1, 0]]), np.zeros((2, 1), np.int64), InvariantViolation,
         "cloud dirs of dtype float64 are not integers: row 0 = [[1.5, 0.0, 0.0]]"),
        ([[1, 0, 0]], np.array([[2.5, 1.0]]), InvariantViolation,
         "cloud witnesses of dtype float64 are not integers: row 0 = [[2.5, 1.0]]"),
        ([[True, False, False]], np.zeros((1, 1), np.int64), InvariantViolation,
         "cloud dirs of dtype bool are not integers"),
        ([1, 0, 0], np.zeros((1, 1), np.int64), DimensionMismatch,
         "cloud shapes (3,) and (1, 1) are not (n, 3) and (n, r)"),
        ([[1, 0, 0, 0]], np.zeros((1, 1), np.int64), DimensionMismatch, "shapes (1, 4)"),
        ([[1, 0, 0]], np.zeros((2, 1), np.int64), DimensionMismatch,
         "shapes (1, 3) and (2, 1)"),
        ([[1, 0, 0]], np.zeros(1, np.int64), DimensionMismatch, "shapes (1, 3) and (1,)"),
        # an int64 view reads 2^63 + 5 as negative: the ray was written before 1,0,0
        (np.array([[2 ** 63 + 5, 0, 1], [1, 0, 0]], np.uint64), np.zeros((2, 1), np.int64),
         InvariantViolation, "cloud dirs row 0 = [9223372036854775813, 0, 1] does not fit int64"),
        ([[1, 0, 0], [0, 1, 0]], np.array([[0, 7], [1, 2 ** 64 - 1]], np.uint64),
         InvariantViolation, "cloud witnesses row 1 = [1, 18446744073709551615] does not fit"),
        # the packed key takes |-2^63| as -2^63: these four rays gave three
        (np.array([[2, 1, -1], [2, -2 ** 63, 0], [3, 0, 2], [2, 0, -2 ** 63]], np.int64),
         np.zeros((4, 1), np.int64), InvariantViolation,
         "cloud dirs row 1 = [2, -9223372036854775808, 0] holds -2^63"),
    ])
    def test_bad_rows_refused(self, dirs, witnesses, error, message):
        with pytest.raises(error) as info:
            PointCloud(np.asarray(dirs), witnesses)
        assert message in str(info.value)

    def test_nested_lists_accepted(self):
        # a list field raised a bare AttributeError on its dtype
        cloud = PointCloud([[1, 0, 0], [0, 2, -1]], [[1], [2]])
        assert cloud.dirs.dtype == cloud.witnesses.dtype == np.int64
        assert cloud.rays() == {(1, 0, 0), (0, 2, -1)}
        assert cloud.witness(TwistorPoint.from_ray(0, 2, -1)) == (2,)

    @pytest.mark.parametrize("dirs,witnesses,error,message", [
        ([[2 ** 64, 0, 1]], [[1]], InvariantViolation,
         "cloud dirs of dtype object are not integers: row 0 = [[18446744073709551616, 0, 1]]"),
        ([[1, 0, 0]], [[-2 ** 63 - 1]], InvariantViolation,
         "cloud witnesses of dtype object are not integers"),
        ([[1, 0, 0], [0, 1]], [[1], [2]], DimensionMismatch, "cloud dirs are not an array"),
        ([[1, 0, 0]], [[1], []], DimensionMismatch, "cloud witnesses are not an array")])
    def test_bad_nested_lists_refused(self, dirs, witnesses, error, message):
        with pytest.raises(error) as info:
            PointCloud(dirs, witnesses)
        assert message in str(info.value)

    def test_int32_rows_accepted(self):
        cloud = PointCloud(np.array([[0, 0, 1]], np.int32), np.array([[1, 2]], np.int32))
        assert covering_radius(cloud, 30) == covering_radius(
            PointCloud(np.array([[0, 0, 1]]), np.array([[1, 2]])), 30)

    @pytest.mark.parametrize("dtype", [np.int16, np.int32, np.uint32])
    def test_narrow_dtypes_write_as_int64(self, dtype):
        # each extreme of the dtype: an int32 or uint32 cloud past the packed
        # key raised numpy's bare ValueError from the record view, and
        # np.abs wraps an int32 -2^31
        lo, hi = np.iinfo(dtype).min, np.iinfo(dtype).max
        dirs = np.array([[hi, 1, 0], [1, 2, 3], [lo, 0, 1], [0, 1, hi]], dtype)
        witnesses = np.array([[hi, lo], [1, 2], [3, 4], [lo, hi]], dtype)
        cloud = PointCloud(dirs, witnesses)
        wide = PointCloud(dirs.astype(np.int64), witnesses.astype(np.int64))
        assert cloud.dirs.dtype == cloud.witnesses.dtype == np.int64
        for writer in (write_csv, write_svg):
            got, want = io.StringIO(), io.StringIO()
            writer(cloud, got)
            writer(wide, want)
            assert got.getvalue() == want.getvalue()


def reference_grid(n):
    """fibonacci_sphere as it built the whole grid at once."""
    i = np.arange(n)
    y = (i * (2.0 / n)) - 1.0 + 1.0 / n
    r = np.sqrt(np.maximum(0.0, 1.0 - y * y))
    phi = i * (math.pi * (3.0 - math.sqrt(5.0)))
    return np.column_stack((np.cos(phi) * r, y, np.sin(phi) * r))


def exact_cosine(row, unit):
    """The dot of two float64 vectors as a Fraction."""
    return sum(Fraction(a) * Fraction(b) for a, b in zip(row.tolist(), unit.tolist()))


def reference_covering_radius(cloud, grid_resolution):
    """covering_radius's definition, arccos of the least exact best cosine
    over the float64 grid rows and units, from the full float64 product:
    each of its cosines is within 1e-12 of the exact one, so the rows
    whose best is within 2e-12 of the least hold the exact least, and
    only their points within 2e-12 of the row's best are taken exactly."""
    grid = reference_grid(grid_resolution * grid_resolution)
    units = scanning.units(cloud.dirs)
    cos = grid @ units.T
    best = cos.max(axis=1)
    least = min(max(exact_cosine(grid[i], units[j])
                    for j in np.flatnonzero(cos[i] >= best[i] - 2e-12))
                for i in np.flatnonzero(best <= best.min() + 2e-12))
    return math.acos(min(1.0, max(-1.0, float(least))))


def brute_covering_radius(cloud, grid_resolution):
    """The same definition with every cosine a Fraction: no float filter."""
    grid = reference_grid(grid_resolution * grid_resolution)
    units = scanning.units(cloud.dirs)
    least = min(max(exact_cosine(row, unit) for unit in units) for row in grid)
    return math.acos(min(1.0, max(-1.0, float(least))))


def mirror(dirs, coordinates):
    """dirs with their images under the sign flip of each coordinate, in turn."""
    for i in coordinates:
        flipped = dirs.copy()
        flipped[:, i] *= -1
        dirs = np.vstack([dirs, flipped])
    return dirs


def random_cloud(seed, kind, size):
    rng = np.random.default_rng(seed)
    if kind == "uniform":
        dirs = rng.integers(-50, 51, (size, 3))
    elif kind == "clustered":  # one tight cluster: far rows leave their band
        dirs = rng.integers(-10 ** 4, 10 ** 4, 3) * 100 + rng.integers(-20, 21, (size, 3))
    elif kind == "tiny":  # h >= 1: bands of up to the whole sphere
        dirs = rng.integers(-3, 4, (size % 12 + 1, 3))
    elif kind == "symmetric":  # least cosines that tie across blocks
        octahedron = np.vstack([np.eye(3, dtype=np.int64), -np.eye(3, dtype=np.int64)])
        cube_diagonals = np.array(list(itertools.product((-1, 1), repeat=3)))
        poles = octahedron[[1, 4]]  # the best cosine is |y|: even grids tie at y = +-1/n
        dirs = (octahedron, cube_diagonals, poles)[seed % 3] * (size % 4 + 1)
    elif kind == "mirrored":  # folded screens: closed under the x flip, the z flip or both
        dirs = mirror(rng.integers(-50, 51, (size, 3)), ((0,), (2,), (0, 2))[seed % 3])
    else:
        dirs = rng.integers(-2 ** 62, 2 ** 62, (size, 3))
    dirs = dirs[dirs.any(axis=1)]
    return PointCloud(dirs, np.zeros((len(dirs), 1), dtype=np.int64))


class TestCoveringRadius:
    @pytest.mark.parametrize("resolution,radii", [
        (200, ("0.3072311285340005", "0.1697620260111539",
               "0.1150178514695484", "0.0857584181993542")),
        (37, ("0.3013454777065868", "0.1644588487896601",
              "0.10477985817392532", "0.07557408257263193"))])
    def test_frozen_u3_radii(self, resolution, radii):
        # U3 at B=1..4: the exact definition's under every BLAS kernel, each
        # the correctly rounded arccos of the least cosine (mpmath, 200 bits).
        # numpy's AVX-512 arccos gives 0.08575841819935419, an ulp off
        assert tuple(repr(covering_radius(
            scan_algebraic(U3, TRIPLE, b), resolution))
            for b in (1, 2, 3, 4)) == radii

    @given(seed=st.integers(0, 2 ** 32 - 1),
           kind=st.sampled_from(["uniform", "clustered", "tiny", "huge", "symmetric"]),
           size=st.integers(1, 300), resolution=st.integers(2, 40),
           block_bytes=st.sampled_from([64, 4096, 4 << 20]))
    # band cosines of this cloud, a row at a time, differ in the last ulp
    # from the full product's float64 ones
    @example(seed=6, kind="uniform", size=60, resolution=2, block_bytes=4 << 20)
    @example(seed=1, kind="clustered", size=300, resolution=40, block_bytes=4096)
    @example(seed=2, kind="tiny", size=5, resolution=30, block_bytes=64)
    # the least band cosine is an ulp above the float64 one: only the
    # exact recompute gives the radius
    @example(seed=14, kind="clustered", size=3, resolution=2, block_bytes=64)
    # blocks taller than the chunk cap: fewer than 128 rays at 4 MB
    @example(seed=3, kind="uniform", size=100, resolution=100, block_bytes=4 << 20)
    @example(seed=0, kind="symmetric", size=0, resolution=300, block_bytes=4 << 20)
    # the poles' two tied middle rows in two blocks, of 256 rows and of 4
    @example(seed=2, kind="symmetric", size=0, resolution=32, block_bytes=4096)
    @example(seed=2, kind="symmetric", size=1, resolution=40, block_bytes=64)
    # one-row blocks, the octahedron's tied rows 1 and 7 among them
    @example(seed=0, kind="symmetric", size=2, resolution=3, block_bytes=64)
    @example(seed=1, kind="clustered", size=200, resolution=40, block_bytes=64)
    def test_equals_full_product(self, seed, kind, size, resolution, block_bytes):
        cloud = random_cloud(seed, kind, size)
        assume(len(cloud))
        with pytest.MonkeyPatch.context() as mp:
            # small blocks put the rows near the least cosine in many blocks
            mp.setattr(box, "BLOCK_BYTES", block_bytes)
            assert (repr(covering_radius(cloud, resolution))
                    == repr(reference_covering_radius(cloud, resolution)))

    @given(clouds=st.lists(st.tuples(
               st.integers(0, 2 ** 32 - 1),
               st.sampled_from(["uniform", "clustered", "tiny", "huge", "symmetric"]),
               st.integers(1, 300)), min_size=1, max_size=4),
           resolution=st.integers(2, 40),
           block_bytes=st.sampled_from([64, 1024, 4096, 1 << 16, 4 << 20]))
    # chunks of 64 rows, cutting blocks of 27, 1365 and 4096 rows, and
    # chunks of 4, cutting blocks of 8 and 170
    @example(clouds=[(0, "uniform", 300), (1, "tiny", 5), (2, "symmetric", 0)],
             resolution=40, block_bytes=1 << 16)
    @example(clouds=[(6, "uniform", 60), (14, "clustered", 3)], resolution=20,
             block_bytes=4096)
    def test_covering_radii_equal_full_products(self, clouds, resolution, block_bytes):
        # one grid walk for all the clouds: each its own steps of rows,
        # which straddle the walk's chunks, and each radius the exact one
        clouds = [cloud for cloud in (random_cloud(*c) for c in clouds) if len(cloud)]
        assume(clouds)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(box, "BLOCK_BYTES", block_bytes)
            radii = covering.covering_radii([c.dirs for c in clouds], resolution)
            assert ([repr(r) for r in radii]
                    == [repr(reference_covering_radius(c, resolution)) for c in clouds])

    @given(seed=st.integers(0, 2 ** 32 - 1),
           kind=st.sampled_from(["uniform", "clustered", "tiny", "huge", "symmetric"]),
           size=st.integers(1, 300), sizes=st.lists(st.integers(1, 300), min_size=2, max_size=4),
           outside=st.booleans(), resolution=st.integers(2, 40),
           block_bytes=st.sampled_from([64, 1024, 4096, 1 << 16, 4 << 20]))
    # two identical clouds in one-row chunks: the second settles every
    # row of most chunks
    @example(seed=0, kind="uniform", size=300, sizes=[300, 300], outside=False,
             resolution=40, block_bytes=64)
    @example(seed=1, kind="huge", size=200, sizes=[20, 100, 200], outside=False,
             resolution=30, block_bytes=4096)
    @example(seed=2, kind="clustered", size=300, sizes=[50, 300], outside=True,
             resolution=40, block_bytes=1 << 16)
    def test_covering_radii_of_nested_clouds(self, seed, kind, size, sizes, outside,
                                            resolution, block_bytes):
        # a chain of growing prefixes of the cloud's rows, in a drawn
        # order, as density's boxes are: each cloud after the first starts
        # from the lower bounds of the one before. In the outside variant
        # the second cloud lacks a ray of the first, and starts from none
        cloud = random_cloud(seed, kind, size)
        assume(len(cloud))
        order = np.random.default_rng(seed).permutation(len(cloud))
        sizes = sorted(min(k, len(cloud)) for k in sizes)
        cuts = [order[:k] for k in sizes]
        if outside:  # without the first cloud's first ray, which may repeat
            cuts[1] = cuts[1][(cloud.dirs[cuts[1]] != cloud.dirs[order[0]]).any(axis=1)]
            assume(len(cuts[1]))
        clouds = [PointCloud(cloud.dirs[i], cloud.witnesses[i]) for i in cuts]
        assert ([covering._holds(covering._keyed(b.dirs), a.dirs)
                 for a, b in zip(clouds, clouds[1:])]
                == [not (outside and j == 0) for j in range(len(clouds) - 1)])
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(box, "BLOCK_BYTES", block_bytes)
            radii = covering.covering_radii([c.dirs for c in clouds], resolution)
            assert ([repr(r) for r in radii]
                    == [repr(reference_covering_radius(c, resolution)) for c in clouds])

    @given(seed=st.integers(0, 2 ** 32 - 1),
           kind=st.sampled_from(["uniform", "clustered", "tiny", "huge", "symmetric", "mirrored"]),
           size=st.integers(1, 30), resolution=st.integers(2, 12),
           block_bytes=st.sampled_from([64, 4096, 4 << 20]))
    def test_exact_definition_equals_brute_force(self, seed, kind, size, resolution,
                                                 block_bytes):
        # the float64 filters of covering_radius and of the reference drop
        # no dot that can be the least best, and a folded screen no point
        cloud = random_cloud(seed, kind, size)
        assume(len(cloud))
        expected = repr(brute_covering_radius(cloud, resolution))
        assert repr(reference_covering_radius(cloud, resolution)) == expected
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(box, "BLOCK_BYTES", block_bytes)
            assert repr(covering_radius(cloud, resolution)) == expected

    @pytest.mark.parametrize("coordinates", [(0,), (2,), (0, 2)])
    def test_mirrored_cloud_less_one_ray_is_not_folded(self, coordinates):
        # a ray whose flipped image is missing: folding on its coordinate
        # would screen the grid rows nearest that image against the ray's
        # absent place, and miss the image itself
        dirs = mirror(np.array([[3, 1, 2], [-1, 4, 1], [2, -3, 5], [1, 1, -4]]), coordinates)
        folds = np.isin([0, 1, 2], coordinates)
        for cut in (dirs, dirs[1:]):
            cloud = PointCloud(cut, np.zeros((len(cut), 1), np.int64))
            screen = covering._Screen(cut, np.zeros((3, 1), np.float32))
            assert screen.flips.tolist() == (folds & (cut is dirs)).tolist()
            for resolution in (7, 40):
                assert (repr(covering_radius(cloud, resolution))
                        == repr(brute_covering_radius(cloud, resolution)))

    @pytest.mark.parametrize("mirrored", ["larger", "smaller"])
    @pytest.mark.parametrize("block_bytes", [64, 4096, 4 << 20])
    def test_covering_radii_of_nested_clouds_one_mirrored(self, mirrored, block_bytes):
        # the larger cloud starts from the smaller one's lower bounds, which
        # hold for the grid rows, folded or not
        rng = np.random.default_rng(5)
        inner = rng.integers(-50, 51, (40, 3))
        outer = mirror(inner, (0, 2))
        if mirrored == "smaller":
            inner, outer = outer, np.vstack([outer, rng.integers(-50, 51, (20, 3))])
        clouds = [PointCloud(d, np.zeros((len(d), 1), np.int64)) for d in (inner, outer)]
        assert covering._holds(covering._keyed(outer), inner)
        sample = np.zeros((3, 1), np.float32)
        assert ([covering._Screen(d, sample).flips.any() for d in (inner, outer)]
                == [mirrored == "smaller", mirrored == "larger"])
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(box, "BLOCK_BYTES", block_bytes)
            radii = covering.covering_radii([inner, outer], 30)
            assert radii == [covering_radius(c, 30) for c in clouds]
        assert [repr(r) for r in radii] == [repr(reference_covering_radius(c, 30))
                                            for c in clouds]

    @pytest.mark.parametrize("dirs", [
        # one ray nearly opposite the bisector of two grid rows at
        # resolution 20: float64 ranks the two rows the other way round
        # from the exact cosines, under OpenBLAS's SkylakeX kernel for the
        # first and under Haswell and Sandybridge for the second
        [[-5560059154741885, 72057594037927936, 16632056134705774]],
        [[4111187884120597, 72057594037927936, 14698418405541062]],
        # two rays an ulp apart in angle: float64 ranks them the other way
        # round at the least row, under all three
        [[-81152900567304, 281474976710656, -37000841683996],
         [-81152900567303, 281474976710656, -37000841683996]],
        [[5621369619988, 17592186044416, 2072359433980],
         [5621369619989, 17592186044416, 2072359433980]]])
    def test_float64_near_tie_needs_the_margin(self, dirs):
        # without the 2 * _DELTA margins, the float64 filter would keep
        # only the row or point it ranks first, and round its exact cosine
        cloud = PointCloud(np.array(dirs), np.zeros((len(dirs), 1), np.int64))
        assert repr(covering_radius(cloud, 20)) == repr(brute_covering_radius(cloud, 20))

    def test_near_tie_needs_the_margin(self, monkeypatch):
        # one ray opposite the bisector of two grid rows at resolution 20:
        # those rows are the farthest, a few ulps apart in float64. Take the
        # first pair that float32 ranks strictly the other way round (rows 6
        # and 9 with numpy 2.4's OpenBLAS): without the margin only the
        # float32 least row would be kept and recomputed
        grid = reference_grid(400)
        for i, j in itertools.combinations(range(30), 2):
            v = -(grid[i] + grid[j])
            ray = np.rint(v / np.abs(v).max() * 2.0 ** 40).astype(np.int64)
            units = scanning.units(ray[None])
            cos64 = (grid @ units.T)[:, 0]
            cos32 = (grid.astype(np.float32) @ units.astype(np.float32).T)[:, 0]
            if ({np.argmin(cos64), np.argmin(cos32)} == {i, j} and i // 8 != j // 8
                    and cos32[np.argmin(cos64)] > cos32.min()):
                break
        else:
            pytest.fail("no pair of rows 0..29 ranks differently in float32")
        assert 0 < cos64[np.argmin(cos32)] - cos64.min() < 1e-12
        cloud = PointCloud(ray[None], np.zeros((1, 1), np.int64))
        monkeypatch.setattr(box, "BLOCK_BYTES", 64)  # 8 rows a block
        assert repr(covering_radius(cloud, 20)) == repr(reference_covering_radius(cloud, 20))

    @given(seed=st.integers(0, 2 ** 32 - 1),
           kind=st.sampled_from(["uniform", "clustered", "tiny", "huge", "symmetric"]),
           size=st.integers(1, 300), resolution=st.integers(2, 40))
    def test_float32_bests_within_eps(self, seed, kind, size, resolution):
        # the bound covering_radius's docstring derives: 5 * 2^-24 and
        # terms of order 2^-48, inside _EPS32
        cloud = random_cloud(seed, kind, size)
        assume(len(cloud))
        grid = reference_grid(resolution ** 2)
        units = scanning.units(cloud.dirs)
        best64 = np.max(grid @ units.T, axis=1)
        best32 = np.max(grid.astype(np.float32) @ units.astype(np.float32).T, axis=1)
        assert np.abs(best32 - best64).max() <= 5 * 2.0 ** -24 * (1 + 2.0 ** -20)
        assert 5 * 2.0 ** -24 * (1 + 2.0 ** -20) < covering._EPS32

    def test_memory_within_the_cloud_and_two_budgets(self, monkeypatch):
        # the sample rows and the far rows go a block at a time: at once,
        # their float32 cosines against this cloud would take 16 MB and 9 MB
        budget = 1 << 18
        cloud = scan_algebraic(U3, TRIPLE, 7)
        monkeypatch.setattr(box, "BLOCK_BYTES", budget)
        covering_radius(cloud, 200)  # numpy's first-call allocations
        tracemalloc.start()
        try:
            covering_radius(cloud, 200)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= cloud.dirs.nbytes + cloud.witnesses.nbytes + 2 * budget

    def test_memory_of_one_walk_within_the_clouds_and_two_budgets(self, monkeypatch):
        # every cloud's band is held for the whole walk, and the products
        # go a block at a time
        budget = 1 << 18
        clouds = [scan_algebraic(U3, TRIPLE, b) for b in (3, 5, 7)]
        monkeypatch.setattr(box, "BLOCK_BYTES", budget)
        covering.covering_radii([c.dirs for c in clouds], 200)  # numpy's first-call allocations
        tracemalloc.start()
        try:
            covering.covering_radii([c.dirs for c in clouds], 200)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= sum(c.dirs.nbytes + c.witnesses.nbytes for c in clouds) + 2 * budget

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
        # the strided rows covering_radius samples, bit for bit
        for start, stop, stride in ((0, n, math.isqrt(n)), (0, 9 * 200, 200),
                                    (3, n // 2, 7), (n - 1, n + 5, 3)):
            rows = np.arange(start, min(stop, n), stride)
            assert (covering._fibonacci_rows(n, rows).tobytes()
                    == reference_grid(n)[start:stop:stride].tobytes())
        # the scattered rows radius rebuilds
        rows = np.array([n - 1, 0, n // 3, n // 3])
        assert covering._fibonacci_rows(n, rows).tobytes() == reference_grid(n)[rows].tobytes()

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
    (lambda: verify_model(1.5), "seed = 1.5"),
    (lambda: verify_model("3"), "seed = '3'"),
    (lambda: verify_model(True), "seed = True"),
    (lambda: fibonacci_sphere(2.5), "n = 2.5"),
    (lambda: fibonacci_sphere(True), "n = True"),
    (lambda: fibonacci_sphere("4"), "n = '4'"),
])
def test_non_integer_argument_rejected(call, message):
    # never truncated (2.7 is not the index 2), and never a bare ValueError
    # or TypeError
    with pytest.raises(TwistorLatticeError, match=re.escape(f"{message} is not an integer")):
        call()


EMPTY_CLOUD = PointCloud(np.empty((0, 3), dtype=np.int64), np.empty((0, 6), dtype=np.int64))


@pytest.mark.parametrize("call,error,message", [
    (lambda: scan_algebraic(U3, TRIPLE, -3), InvalidBound, "box_bound must be >= 1, got -3"),
    (lambda: is_general_type(U3, TRIPLE, GT_POINTS[1], bound=-2), InvalidBound,
     "bound must be >= 1, got -2"),
    (lambda: covering_radius(scan_algebraic(U3, TRIPLE, 1), -7), InvalidBound,
     "grid_resolution must be >= 2, got -7"),
    (lambda: pi_map(U3, TRIPLE, ("1/2", "-1/3", 0, 0, 0, 0)), NotPositive,
     "got q = -1/3 for omega = (1/2, -1/3, 0, 0, 0, 0)"),
    (lambda: TwistorPoint.from_ray(0, "0/5", 0), InvariantViolation,
     "zero ray is not a twistor point: (0, '0/5', 0)"),
    (lambda: covering_radius(EMPTY_CLOUD, 100), EmptyCloud,
     "0 rays, witnesses of shape (0, 6)"),
    (lambda: HyperTriple.from_rows(TRIPLE.vectors[:2]), InvalidTriple,
     "a triple needs exactly three vectors, got 2"),
    (lambda: HyperTriple(TRIPLE.w_i, TRIPLE.w_j, TRIPLE.w_k[:5]).validate(U3), InvalidTriple,
     "triple vector length differs from rank: vector 2 has length 5, rank is 6"),
    (lambda: HyperTriple.from_rows([[1, 0, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0],
                                    [0, 0, 0, 0, 1, 0]]).validate(U3), InvalidTriple,
     "triple vectors must have positive norm, got 0"),
    (lambda: HyperTriple(TRIPLE.w_i, TRIPLE.w_j, TRIPLE.w_i).validate(U3), InvalidTriple,
     "triple vectors 0 and 2 are not q-orthogonal: q = 2"),
    (lambda: TwoForm(n=1, mat=np.zeros((3, 4))), DimensionMismatch,
     "expected 4x4 matrix, got shape (3, 4)"),
    (lambda: su2_act_on_form(SU2Element(Quaternion(1.0, 0.0, 0.0, 0.0), 2),
                             TwoForm(n=1, mat=np.zeros((4, 4)))), DimensionMismatch,
     "SU(2) element and form live on different spaces: n = 2 and n = 1"),
    (lambda: integer_kernel([[1, 2], [3, 1.5]]), TwistorLatticeError,
     "kernel entry (1, 1) = 1.5 is not an integer"),
    (lambda: verify_model(-1), InvalidBound, "seed must be >= 0, got -1"),
    (lambda: fibonacci_sphere(0), InvalidBound, "n must be >= 1, got 0"),
    (lambda: fibonacci_sphere(-1), InvalidBound, "n must be >= 1, got -1"),
    (lambda: GramLattice.from_rows([]), DimensionMismatch,
     "a lattice needs rank >= 1, got rank 0"),
    (lambda: GramLattice.from_rows([[2, 1, 0], [1, 2], [0, 0, 2]]), DimensionMismatch,
     "gram matrix is not square: row 1 has length 2, not 3"),
    (lambda: two_form_from_coords([1.0, 0, 0, 0, 0, "x"]), TwistorLatticeError,
     "2-form coordinates [1.0, 0, 0, 0, 0, 'x'] are not numbers"),
    # numpy's float conversion would read these as nan, 1.5 and 1.0
    (lambda: two_form_from_coords([1.0, 0, 0, 0, 0, None]), TwistorLatticeError,
     "2-form coordinates [1.0, 0, 0, 0, 0, None] are not numbers"),
    (lambda: two_form_from_coords([1.0, 0, 0, 0, 0, "1.5"]), TwistorLatticeError,
     "2-form coordinates [1.0, 0, 0, 0, 0, '1.5'] are not numbers"),
    (lambda: two_form_from_coords([True, 0, 0, 0, 0, 0]), TwistorLatticeError,
     "2-form coordinates [True, 0, 0, 0, 0, 0] are not numbers"),
    # quaternion fields: the caller's error, never a bare TypeError from
    # math, from numpy's float conversion or from negating a bool
    (lambda: Quaternion.unit_imaginary(None, 0.0, 1.0), NotUnitImaginary,
     "field x = None is not a number"),
    (lambda: TwistorPoint.from_unit('1', 0.0, 1.0), InvariantViolation,
     "field x = '1' is not a number"),
    (lambda: complex_structure_from(Quaternion(0.0, '1', 0.0, 0.0)), NotUnitImaginary,
     "field x = '1' is not a number"),
    (lambda: SU2Element(Quaternion(None, 0.0, 0.0, 0.0)), NotUnitImaginary,
     "field w = None is not a number"),
    (lambda: complex_structure_from(Quaternion(0.0, True, False, False)), NotUnitImaginary,
     "field x = True is not a number"),
    (lambda: SU2Element(Quaternion(True, False, False, False)),
     NotUnitImaginary, "field w = True is not a number"),
    (lambda: TwistorPoint.from_unit(1.0, 0.0, False), InvariantViolation,
     "field z = False is not a number"),
    (lambda: complex_structure_from(Quaternion(0.0, np.array([True, False]), 0.0, 0.0)),
     NotUnitImaginary, "field x = array([ True, False]) is not a number"),
    # stacks that do not broadcast: never numpy's bare ValueError
    (lambda: complex_structure_from(Quaternion(np.ones(2), np.ones(3), 0.0, 0.0)),
     DimensionMismatch,
     "quaternion fields of shapes (2,), (3,), () and () do not broadcast"),
    (lambda: complex_structure_from(Quaternion(0.0, np.ones(2), np.zeros(3), 0.0)),
     DimensionMismatch, "quaternion fields of shapes (), (2,), (3,) and () do not broadcast"),
    (lambda: su2_act_on_form(SU2Element(Quaternion(np.ones(2), 0.0, 0.0, 0.0)),
                             TwoForm(n=1, mat=np.zeros((3, 4, 4)))), DimensionMismatch,
     "SU(2) element and form stacks of shapes (2,) and (3,) do not broadcast"),
    # matrices of strings or bools are not forms
    (lambda: TwoForm(n=1, mat=np.full((4, 4), "a")), DimensionMismatch,
     "expected a 4x4 matrix of numbers, got dtype <U1"),
    (lambda: ComplexStructureMatrix(n=1, mat=np.full((4, 4), "a")), DimensionMismatch,
     "expected a 4x4 matrix of numbers, got dtype <U1"),
    (lambda: TwoForm(n=2, mat=np.eye(8, dtype=bool)), DimensionMismatch,
     "expected a 8x8 matrix of numbers, got dtype bool"),
    # never a bare TypeError from comparing None with 1
    (lambda: GramLattice(gram=((1,),), rank=None), TwistorLatticeError,
     "rank = None is not an integer"),
    (lambda: omega_of(TRIPLE, TwistorPoint.from_unit(0.0, 3.0, 4.0)), IrrationalPoint,
     "operation needs an exact rational ray, got TwistorPoint(unit=(0.0, 0.6, 0.8))"),
])
def test_error_names_its_input(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert message in str(info.value)


@pytest.mark.parametrize("call,error,message", [
    # a flat list: never a bare TypeError from iterating an int
    (lambda: GramLattice.from_rows([1, 2, 3]), DimensionMismatch,
     "gram row 0 = 1 is not a sequence"),
    (lambda: HyperTriple.from_rows([1, 2, 3]), DimensionMismatch,
     "triple vector 0 = 1 is not a sequence"),
    (lambda: HyperTriple.from_rows([TRIPLE.w_i, TRIPLE.w_j, "101"]), DimensionMismatch,
     "triple vector 2 = '101' is not a sequence"),
    (lambda: GramLattice.from_rows(5), DimensionMismatch, "gram = 5 is not a sequence"),
    (lambda: HyperTriple.from_rows(5), DimensionMismatch, "triple = 5 is not a sequence"),
    # never numpy's bare ValueError on allocating 2^70 rows
    (lambda: fibonacci_sphere(2 ** 70), InvalidBound,
     "n = 1180591620717411303424 grid points, more than 1000000000"),
    # an int or bool would be opened as a file descriptor: never reached
    (lambda: load_lattice(1), TwistorLatticeError,
     "a lattice source is a built-in name or a file path, got 1"),
    (lambda: load_lattice(True), TwistorLatticeError,
     "a lattice source is a built-in name or a file path, got True"),
    (lambda: load_lattice(0), TwistorLatticeError,
     "a lattice source is a built-in name or a file path, got 0"),
    (lambda: load_lattice([]), TwistorLatticeError,
     "a lattice source is a built-in name or a file path, got []"),
])
def test_flat_rows_huge_grid_and_non_path_source_refused(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert message in str(info.value)


@pytest.mark.parametrize("call,value", [
    (lambda c, out: covering_radius(c, 10), None),
    (lambda c, out: covering_radius(c, 10), [[1, 0, 0]]),
    (write_csv, None),
    (write_svg, np.array([[1, 0, 0]])),
    (write_svg, "cloud.svg")])
def test_non_cloud_is_refused(call, value):
    # never a bare TypeError or AttributeError, and no byte written
    out = io.StringIO()
    with pytest.raises(DimensionMismatch) as info:
        call(value, out)
    assert str(info.value) == f"cloud = {value!r} is not a PointCloud"
    assert out.getvalue() == ""


def test_refused_lattice_source_leaves_descriptors_open(capfd):
    # load_lattice(1) once closed the process's stdout: a later print failed
    for source in (0, 1, 2, True, False):
        with pytest.raises(TwistorLatticeError, match="a lattice source is"):
            load_lattice(source)
    for fd in (0, 1, 2):
        os.fstat(fd)
    print("still open")
    assert capfd.readouterr().out == "still open\n"


@pytest.mark.parametrize("call", [
    lambda: is_general_type(U3, TRIPLE, TwistorPoint.from_unit(1.0, 2 ** 0.5, 0.3), 3),
    lambda: scan_algebraic(K3, K3_TRIPLE, 2, range(8)),
    lambda: scan_non_general_type(U3, TRIPLE, 3),
], ids=["bounded-U3-B3", "algebraic-K3-mask8-B2", "ngt-U3-B3"])
def test_walk_memory_within_two_blocks_and_the_cloud(call):
    # the walk's tables are built per call, within the block budget, and
    # no cache keeps them: the peak stays within two budgets and the result
    call()  # numpy's first-call allocations
    tracemalloc.start()
    try:
        result = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    held = (result.dirs.nbytes + result.witnesses.nbytes
            if isinstance(result, PointCloud) else 0)
    assert peak <= 2 * box.BLOCK_BYTES + held


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


# rays whose rows the writers treat apart: the poles, x = 0 (drawn in both
# SVG hemispheres), huge rays whose float unit has x == +-1.0 (the CSV's
# inf,0 although not the exact pole) and entries past the packed ray key
RAYS = st.one_of(
    st.sampled_from([(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, 0, -1)]),
    st.tuples(st.just(0), st.integers(-9, 9), st.integers(-9, 9)),
    st.tuples(st.sampled_from([10 ** 9, -10 ** 9]), st.sampled_from([1, -1]),
              st.integers(-9, 9)),
    st.tuples(*[st.integers(-9, 9)] * 3),
    st.tuples(*[st.integers(-BIG, BIG)] * 3),
).filter(any)


# rays closed under every sign flip and coordinate permutation, as the
# scans' clouds nearly are: each float of a chunk repeats
SYMMETRIC_RAYS = sorted({tuple(s * e for s, e in zip(signs, perm))
                         for ray in ((1, 2, 3), (0, 1, 1), (0, 0, 2))
                         for perm in itertools.permutations(ray)
                         for signs in itertools.product((1, -1), repeat=3)})

# rays at EDGE and one past it; the fifth one's sum of squares would wrap in int64
EDGE_RAYS = [(EDGE, EDGE, -EDGE), (EDGE + 1, 1, 0), (-EDGE, 0, 1), (1, EDGE, EDGE - 1),
             (EDGE + 1, -EDGE - 1, EDGE + 1), (2, -1, 1)]


@given(rays=st.lists(RAYS, max_size=12, unique=True), width=st.integers(0, 22),
       entries=st.integers(-2 ** 63, 2 ** 63 - 1),
       block_bytes=st.sampled_from([1, 4096, None]))
@example(rays=[(1, 0, 0), (-1, 0, 0), (0, 2, -3), (0, 0, 1), (10 ** 9, 1, 5),
               (10 ** 9, -1, 0), (-10 ** 9, 1, -2), (2, -1, 1)],
         width=6, entries=-7, block_bytes=1)
@example(rays=SYMMETRIC_RAYS, width=6, entries=0, block_bytes=None)
@example(rays=SYMMETRIC_RAYS, width=2, entries=5, block_bytes=4096)
@example(rays=SYMMETRIC_RAYS, width=0, entries=0, block_bytes=None)
@example(rays=EDGE_RAYS, width=3, entries=-1, block_bytes=None)  # one chunk: Python ints
@example(rays=EDGE_RAYS, width=1, entries=2, block_bytes=1)  # a chunk a row: both sums
def test_writers_match_the_per_point_writers(rays, width, entries, block_bytes):
    # byte for byte, whatever the rows of a chunk; the empty cloud and
    # rows with no witness entry too
    dirs = np.array(rays, dtype=np.int64).reshape(-1, 3)
    witnesses = (np.arange(len(rays) * width, dtype=np.int64).reshape(len(rays), width)
                 * 7919 + entries)  # wraps: any int64 entries
    cloud = PointCloud(dirs, witnesses)
    with pytest.MonkeyPatch.context() as mp:
        if block_bytes:
            mp.setattr(box, "BLOCK_BYTES", block_bytes)
        for writer, reference in ((write_csv, reference_write_csv),
                                  (write_svg, reference_write_svg)):
            got, want = io.StringIO(), io.StringIO()
            writer(cloud, got)
            reference(cloud, want)
            assert got.getvalue() == want.getvalue()


def test_both_writers_share_one_ray_order(monkeypatch):
    # the cloud sorts its rays once, for the CSV and the SVG
    calls = []

    def counted(dirs):
        calls.append(len(dirs))
        return ray_order(dirs)

    monkeypatch.setattr(scanning, "ray_order", counted)
    cloud = scan_non_general_type(U3, TRIPLE, 2)
    for writer, reference in ((write_csv, reference_write_csv), (write_svg, reference_write_svg)):
        got, want = io.StringIO(), io.StringIO()
        writer(cloud, got)
        reference(cloud, want)
        assert got.getvalue() == want.getvalue()
    assert calls == [len(cloud)]


# NaNs of other payloads and signs, which % formats as nan
_NANS = np.array([0x7FF8000000000001, -0x0008000000000000], np.int64).view(np.float64).tolist()
SPECIAL_FLOATS = [0.0, -0.0, math.inf, -math.inf, math.nan, *_NANS, 5e-324, -5e-324,
                  2.2250738585072009e-308, 1.0, -1.0, 0.5, 200.0]
SPECIAL_INTS = [0, 1, -1, 2 ** 63 - 1, -2 ** 63 + 1, -2 ** 63, 7, -3]
# each column takes one of these, so runs of one format and their
# separators meet: the writers' pieces among them
TEXT_FORMATS = {np.float64: ["%.17g", ",%.17g", '<circle cx="%.2f', '" cy="%.2f" r="1.5"/>\n'],
                np.int64: ["%d", ",%d", ";%d"]}


@given(dtype=st.sampled_from([np.float64, np.int64]),
       pool=st.lists(st.floats() | st.integers(-2 ** 63, 2 ** 63 - 1), max_size=8),
       picks=st.lists(st.integers(0, 99), max_size=40),
       columns=st.lists(st.integers(0, 3), min_size=1, max_size=5))
@example(dtype=np.float64, pool=[], picks=[0, 1, 1, 0], columns=[1, 1])
@example(dtype=np.float64, pool=[], picks=[1, 0], columns=[2])
@example(dtype=np.float64, pool=[], picks=[], columns=[0, 0, 1, 1, 1])
@example(dtype=np.float64, pool=[], picks=list(range(14)) * 2, columns=[3, 2])
@example(dtype=np.int64, pool=[], picks=list(range(8)) * 5, columns=[0, 1, 1, 2, 2])
@example(dtype=np.int64, pool=[], picks=[0, 1, 2] * 13, columns=[1, 2, 2])  # spans 3 keys
@example(dtype=np.float64, pool=[], picks=[0] * 40, columns=[0, 1])  # spans 1 key
def test_texts_equal_per_value_format(dtype, pool, picks, columns):
    # the repeats are formatted once a run of columns, keyed on the bits:
    # -0.0 is not 0.0; a run whose keys span few values is gathered
    # without a sort, and every text is still its own value's
    pool = [e for e in pool if isinstance(e, float) == (dtype is np.float64)]
    pool = (SPECIAL_FLOATS if dtype is np.float64 else SPECIAL_INTS) + pool
    formats = [TEXT_FORMATS[dtype][k % len(TEXT_FORMATS[dtype])] for k in columns]
    width = len(formats)
    values = [pool[i % len(pool)] for i in picks]
    values = np.array(values[:len(values) // width * width], dtype).reshape(-1, width)
    texts = scanning._texts(values, formats)
    assert texts.shape == values.shape and texts.dtype == object
    assert texts.tolist() == [[fmt % v for fmt, v in zip(formats, row)]
                              for row in values.tolist()]


def test_huge_ray_is_written_at_infinity():
    # its float unit is (1.0, 1e-9, 0.0), so 1 - ux == 0.0, as stereographic decides
    cloud = PointCloud(np.array([[10 ** 9, 1, 0]]), np.zeros((1, 6), np.int64))
    buf = io.StringIO()
    write_csv(cloud, buf)
    row = buf.getvalue().splitlines()[1].split(",")
    assert row[3] == "1" and row[6:8] == ["inf", "0"]


class _Discard:
    def write(self, text):
        pass


@pytest.mark.parametrize("writer", [write_csv, write_svg])
def test_writer_memory_within_the_cloud_and_two_budgets(writer, monkeypatch):
    # the text goes out a chunk of rows at a time: a CSV of many budgets
    # peaks within the cloud's bytes and two budgets
    budget = 1 << 13
    cloud = scan_algebraic(U3, TRIPLE, 3)
    monkeypatch.setattr(box, "BLOCK_BYTES", budget)
    buf = io.StringIO()
    write_csv(cloud, buf)
    assert len(buf.getvalue()) > 20 * budget
    writer(cloud, _Discard())  # numpy's first-call allocations
    tracemalloc.start()
    try:
        writer(cloud, _Discard())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= cloud.dirs.nbytes + cloud.witnesses.nbytes + 2 * budget
