import io
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from twistorlat import (
    EmptyCloud,
    GramLattice,
    HyperTriple,
    InvalidBound,
    InvalidSignature,
    PointCloud,
    ScanConfig,
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
from twistorlat import scanning
from twistorlat.linalg import pairing_rows
from twistorlat.scanning import _box_blocks, _first_rows, fibonacci_sphere

U3, TRIPLE = load_lattice("U3")
K3, K3_TRIPLE = load_lattice("K3")
D222, D222_TRIPLE = load_lattice("diag222")

# frozen outputs of tests/oracle_density.py (independent brute force)
ORACLE_CLOUD_SIZES = {1: 98, 2: 578, 3: 1730, 4: 4034}


def box_rows(rank, config):
    """Every row of the box blocks, in order, as tuples."""
    return [tuple(row) for block in _box_blocks(rank, config)
            for row in block.tolist()]


def reference_box(rank, config):
    """itertools reference: masked coordinates over [-B, B] in
    lexicographic order, the others 0."""
    active = config.active_indices(rank)
    b = config.box_bound
    out = []
    for c in itertools.product(range(-b, b + 1), repeat=len(active)):
        v = [0] * rank
        for i, e in zip(active, c):
            v[i] = e
        out.append(tuple(v))
    return out


# room for 5^4 rows of rank 6: a [-2, 2]^6 box splits over its first
# two coordinates into 25 blocks
TINY_BLOCK_BYTES = 5 ** 4 * 6 * 8


class TestBoxVectors:
    def test_count_rank2(self):
        vecs = box_rows(2, ScanConfig(box_bound=1))
        assert len(vecs) == 3 ** 2  # the zero vector is included

    def test_first_vector(self):
        assert box_rows(2, ScanConfig(box_bound=1))[0] == (-1, -1)

    def test_masked(self):
        cfg = ScanConfig(box_bound=1, coordinate_mask=(0, 1))
        vecs = box_rows(6, cfg)
        assert len(vecs) == 9
        assert all(v[2:] == (0, 0, 0, 0) for v in vecs)

    def test_no_repeats_lexicographic(self):
        vecs = box_rows(3, ScanConfig(box_bound=2))
        assert len(vecs) == 5 ** 3
        assert len(set(vecs)) == len(vecs)
        assert vecs == sorted(vecs)

    def test_array_agrees_with_generator(self, monkeypatch):
        monkeypatch.setattr(scanning, "_BLOCK_BYTES", TINY_BLOCK_BYTES)
        for rank, cfg, n_blocks in (
                (6, ScanConfig(box_bound=2), 25),
                (6, ScanConfig(box_bound=1, coordinate_mask=(1, 3, 4)), 1),
                (8, ScanConfig(box_bound=2, coordinate_mask=(0, 2, 3, 5, 7)), 25)):
            blocks = list(_box_blocks(rank, cfg))
            assert len(blocks) == n_blocks
            assert all(b.dtype == np.int64 for b in blocks)
            assert box_rows(rank, cfg) == reference_box(rank, cfg)

    def test_invalid_bound(self):
        with pytest.raises(InvalidBound):
            ScanConfig(box_bound=0)

    def test_box_size_guard(self):
        # 9^6 = 531441, the largest box the suite and the bench walk
        assert sum(len(b) for b in _box_blocks(6, ScanConfig(box_bound=4))) == 9 ** 6
        with pytest.raises(InvalidBound, match=r"B=1 over k=22 .* 31381059609"):
            next(_box_blocks(22, ScanConfig(box_bound=1)))

    def test_k3_bounded_search_fails_fast(self):
        point = TwistorPoint.from_unit(1.0, math.sqrt(2.0), 0.3)
        with pytest.raises(InvalidBound, match="more than 1000000000"):
            is_general_type(K3, K3_TRIPLE, point, bound=1)


class TestScanAlgebraic:
    def test_contains_triple_points(self):
        cloud = scan_algebraic(U3, TRIPLE, ScanConfig(box_bound=1))
        for ray, w in (((1, 0, 0), TRIPLE.w_i), ((0, 1, 0), TRIPLE.w_j),
                       ((0, 0, 1), TRIPLE.w_k)):
            point = TwistorPoint.from_ray(*ray)
            assert point in cloud
            assert vector(cloud.witness(point)) == w

    def test_contains_diagonal(self):
        cloud = scan_algebraic(U3, TRIPLE, ScanConfig(box_bound=1))
        assert TwistorPoint.from_ray(1, 1, 1) in cloud

    def test_oracle_counts(self):
        for b in (1, 2):
            cloud = scan_algebraic(U3, TRIPLE, ScanConfig(box_bound=b))
            assert len(cloud) == ORACLE_CLOUD_SIZES[b]

    def test_witnesses_replay(self):
        cloud = scan_algebraic(U3, TRIPLE, ScanConfig(box_bound=1))
        for point in cloud:
            assert pi_map(U3, TRIPLE, cloud.witness(point)).point == point

    def test_rejects_wrong_signature(self):
        from twistorlat import GramLattice, HyperTriple
        bad = GramLattice.from_rows(
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]])
        tri = HyperTriple.from_rows(
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]])
        with pytest.raises(InvalidSignature):
            scan_algebraic(bad, tri, ScanConfig(box_bound=1))

    def test_zero_projection_names_vector(self, monkeypatch):
        # a valid triple never lets a positive vector project to 0, so
        # fake all-zero pairing rows: the first positive box vector is named
        monkeypatch.setattr(scanning, "pairing_rows",
                            lambda lattice, triple: (((0,) * 6,) * 3, Fraction(1)))
        with pytest.raises(InvalidSignature,
                           match=r"\(-1, -1, -1, -1, -1, -1\) with q\(v, v\) = 6 "):
            scan_algebraic(U3, TRIPLE, ScanConfig(box_bound=1))

    def test_masked_k3(self):
        cfg = ScanConfig(box_bound=1, coordinate_mask=tuple(range(6)))
        cloud = scan_algebraic(K3, K3_TRIPLE, cfg)
        # the masked sublattice is exactly U3, so counts agree
        assert len(cloud) == ORACLE_CLOUD_SIZES[1]

    def test_determinism(self):
        a = scan_algebraic(U3, TRIPLE, ScanConfig(box_bound=2))
        b = scan_algebraic(U3, TRIPLE, ScanConfig(box_bound=2))
        assert list(a) == list(b)
        assert all(a.witness(p) == b.witness(p) for p in a)


class TestScanNonGeneralType:
    def test_contains_signed_axis(self):
        cloud = scan_non_general_type(U3, TRIPLE, ScanConfig(box_bound=1))
        assert TwistorPoint.from_ray(1, 0, 0) in cloud
        assert TwistorPoint.from_ray(-1, 0, 0) in cloud

    def test_algebraic_subset(self):
        for b in (1, 2, 3):
            alg = scan_algebraic(U3, TRIPLE, ScanConfig(box_bound=b))
            ngt = scan_non_general_type(U3, TRIPLE, ScanConfig(box_bound=b))
            assert alg.rays() <= ngt.rays()

    def test_diag222_count(self):
        cloud = scan_non_general_type(D222, D222_TRIPLE, ScanConfig(box_bound=1))
        assert len(cloud) == 26

    def test_growing_bound_keeps_points(self):
        small = scan_non_general_type(U3, TRIPLE, ScanConfig(box_bound=1))
        big = scan_non_general_type(U3, TRIPLE, ScanConfig(box_bound=2))
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
        cfg = ScanConfig(box_bound=1)
        for scan in (scan_algebraic, scan_non_general_type):
            expected = scan(U3, TRIPLE, cfg)
            cloud = scan(scaled_gram(U3, k), TRIPLE, cfg)
            assert [(p.dir, cloud.witness(p)) for p in cloud] == \
                [(p.dir, expected.witness(p)) for p in expected]
        assert len(cloud) == ORACLE_CLOUD_SIZES[1]

    def test_huge_gram_entry_is_unsupported(self):
        lattice, triple = with_summand(U3, TRIPLE, -10 ** 19)
        with pytest.raises(Unsupported, match=r"max\|G\|\*B\^2\*r\^2 = 49"):
            scan_algebraic(lattice, triple, ScanConfig(box_bound=1))

    def test_huge_pairing_row_is_unsupported(self):
        # U3 + <-2N> with w_I = (1, N + 1, 0, 0, 0, 0, 1): still a valid
        # triple of norm 2, but its pairing row holds -2N = -2 * 10^18
        n = 10 ** 18
        lattice, triple = with_summand(U3, TRIPLE, -2 * n, (1, 0, 0))
        triple = HyperTriple.from_rows(
            [[1, n + 1] + [0] * 4 + [1], triple.w_j, triple.w_k])
        cfg = ScanConfig(box_bound=1)
        for scan in (scan_algebraic, scan_non_general_type):
            with pytest.raises(Unsupported, match=r"max\|rows\|\*B\*r = 14"):
                scan(lattice, triple, cfg)
        with pytest.raises(Unsupported, match=r"max\|rows\|\*B\*r"):
            is_general_type(lattice, triple, TwistorPoint.from_unit(1.0, 0.5, 0.25),
                            bound=1)


def reference_cloud(both_signs):
    """Plain per-vector loop over the U3 B=2 box: each ray with its
    first witness, in order of first occurrence (+ray, then -ray)."""
    rows, _ = pairing_rows(U3, TRIPLE)
    cloud = {}
    for v in reference_box(6, ScanConfig(box_bound=2)):
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
    calls = []
    from_ray = TwistorPoint.from_ray

    def counting_from_ray(*ray):
        calls.append(ray)
        return from_ray(*ray)

    monkeypatch.setattr(TwistorPoint, "from_ray", staticmethod(counting_from_ray))

    def entries():
        calls.clear()
        cloud = scan(U3, TRIPLE, ScanConfig(box_bound=2))
        assert len(calls) == len(cloud)  # one point built per distinct ray
        return [(p.dir, cloud.witness(p)) for p in cloud]

    default = entries()
    monkeypatch.setattr(scanning, "_BLOCK_BYTES", TINY_BLOCK_BYTES)
    assert entries() == default == reference_cloud(both_signs)


@pytest.mark.parametrize("rays,first", [
    ([[1, 0, -2], [0, 1, 1], [1, 0, -2], [-1, 0, 2], [0, 1, 1], [0, 0, 1]],
     [0, 1, 3, 5]),
    # entries up to 2^31 would be packed in base 2^32 + 1, where (1, 0, 1)
    # and (0, 2, 0) wrap to the same int64 key
    ([[2 ** 31, 0, 0], [1, 0, 1], [0, 2, 0], [1, 0, 1]], [0, 1, 2]),
    ([], []),
])
def test_first_rows(rays, first):
    assert _first_rows(np.array(rays, dtype=np.int64).reshape(-1, 3)).tolist() == first


class TestCoveringRadius:
    def test_single_point(self):
        cloud = PointCloud()
        cloud.add(TwistorPoint.from_ray(1, 0, 0), (1, 1, 0, 0, 0, 0))
        rad = covering_radius(cloud, 200)
        assert abs(rad - math.pi) <= 2.0 / 200

    def test_octahedron(self):
        cloud = PointCloud()
        for ray in ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0),
                    (0, 0, 1), (0, 0, -1)):
            cloud.add(TwistorPoint.from_ray(*ray), (0,) * 6)
        rad = covering_radius(cloud, 200)
        assert abs(rad - math.acos(1 / math.sqrt(3))) <= 2.0 / 200

    def test_monotone_in_bound(self):
        r2 = covering_radius(
            scan_algebraic(U3, TRIPLE, ScanConfig(box_bound=2)), 100)
        r3 = covering_radius(
            scan_algebraic(U3, TRIPLE, ScanConfig(box_bound=3)), 100)
        assert r3 <= r2

    def test_empty_cloud(self):
        with pytest.raises(EmptyCloud):
            covering_radius(PointCloud(), 100)

    def test_grid_is_unit(self):
        grid = fibonacci_sphere(500)
        norms = (grid ** 2).sum(axis=1)
        assert abs(norms - 1.0).max() < 1e-12


class TestEmission:
    def test_csv_roundtrip(self):
        cloud = scan_algebraic(U3, TRIPLE, ScanConfig(box_bound=1))
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
        cloud = PointCloud()
        cloud.add(TwistorPoint.from_ray(1, 0, 0), (1, 1, 0, 0, 0, 0))
        buf = io.StringIO()
        write_csv(cloud, buf)
        row = buf.getvalue().splitlines()[1].split(",")
        assert row[6] == "inf"
        assert row[7] == "0"

    def test_csv_deterministic(self):
        bufs = []
        for _ in range(2):
            cloud = scan_algebraic(U3, TRIPLE, ScanConfig(box_bound=2))
            buf = io.StringIO()
            write_csv(cloud, buf)
            bufs.append(buf.getvalue())
        assert bufs[0] == bufs[1]

    def test_svg_smoke(self):
        cloud = scan_algebraic(U3, TRIPLE, ScanConfig(box_bound=1))
        buf = io.StringIO()
        write_svg(cloud, buf)
        text = buf.getvalue()
        assert text.startswith("<svg")
        assert text.rstrip().endswith("</svg>")
        assert text.count("<circle") > len(cloud)
