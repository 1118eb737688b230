"""Acceptance suite: one test per criterion, each printing a PASS line
with its measured quantities (run with -s to see them)."""

import math
import random
import time

from click.testing import CliRunner

from twistorlat import (
    covering_radius,
    hodge_type_11,
    is_general_type,
    load_lattice,
    omega_of,
    perp_V_basis,
    pi_map,
    project_to_V,
    q_eval,
    scan_algebraic,
    scan_non_general_type,
    signature,
    vector,
)
from twistorlat.cli import main
from twistorlat.linalg import GramLattice
from twistorlat.quaternions import verify_model
from twistorlat.twistor import TwistorPoint, antipode

from support import random_positive_class, random_rational_vector

U3, U3_TRIPLE = load_lattice("U3")
K3, K3_TRIPLE = load_lattice("K3")

# frozen outputs of tests/oracle_density.py (independent brute force,
# run before the build): cloud sizes and covering radii on U3
ORACLE_CLOUD_SIZES = {1: 98, 2: 578, 3: 1730, 4: 4034}
TAU_4 = 0.09  # oracle covering radius at B=4, grid 200: 0.085758


def _samples(seed, lattice, n, support=None):
    rng = random.Random(seed)
    return [random_positive_class(rng, lattice, q_eval, support)
            for _ in range(n)]


def test_criterion_1_uniqueness_of_pi():
    start = time.time()
    violations = 0
    for lattice, triple, support in (
            (U3, U3_TRIPLE, None),
            (K3, K3_TRIPLE, range(6))):
        for omega in _samples(101, lattice, 1000, support):
            cls = pi_map(lattice, triple, omega)
            plus = q_eval(lattice, omega, omega_of(triple, cls.point))
            minus = q_eval(lattice, omega,
                           omega_of(triple, antipode(cls.point)))
            if not (plus > 0 and minus < 0):
                violations += 1
    elapsed = time.time() - start
    assert violations == 0
    assert elapsed < 5.0
    print(f"\nPASS criterion 1 (uniqueness of pi): 0 violations in 2000 "
          f"samples, {elapsed:.2f}s")


def test_criterion_2_nonvanishing_and_perp_signature():
    violations = 0
    for lattice, triple, support in (
            (U3, U3_TRIPLE, None),
            (K3, K3_TRIPLE, range(6))):
        for omega in _samples(102, lattice, 1000, support):
            if project_to_V(lattice, triple, omega) == (0, 0, 0):
                violations += 1
    assert violations == 0
    sigs = {}
    for name, lattice, triple in (("U3", U3, U3_TRIPLE),
                                  ("K3", K3, K3_TRIPLE)):
        basis = perp_V_basis(lattice, triple)
        restricted = [[int(q_eval(lattice, vector(a), vector(b)))
                       for b in basis] for a in basis]
        sigs[name] = signature(GramLattice.from_rows(restricted)).as_tuple()
    assert sigs["U3"] == (0, 3, 0)
    assert sigs["K3"] == (0, 19, 0)
    print(f"\nPASS criterion 2 (nonvanishing + V-perp definiteness): 0 "
          f"violations, restricted signatures {sigs}")


def test_criterion_3_density():
    start = time.time()
    radii = []
    for b in (1, 2, 3, 4):
        cloud = scan_algebraic(U3, U3_TRIPLE, b)
        assert len(cloud) == ORACLE_CLOUD_SIZES[b], \
            f"cloud size at B={b}: {len(cloud)} != {ORACLE_CLOUD_SIZES[b]}"
        radii.append(covering_radius(cloud, 200))
    elapsed = time.time() - start
    assert all(radii[i + 1] <= radii[i] for i in range(3))
    assert radii[3] < TAU_4
    assert elapsed < 60.0
    print(f"\nPASS criterion 3 (density): sizes match oracle, radii "
          f"{[f'{r:.4f}' for r in radii]} non-increasing, "
          f"r(4)={radii[3]:.4f} < {TAU_4}, {elapsed:.1f}s")


def test_criterion_4_countable_superset():
    start = time.time()
    for b in (1, 2, 3):
        alg = scan_algebraic(U3, U3_TRIPLE, b)
        ngt = scan_non_general_type(U3, U3_TRIPLE, b)
        assert alg.rays() <= ngt.rays(), f"inclusion fails at B={b}"
    alg2 = scan_algebraic(U3, U3_TRIPLE, 2)
    for point in alg2:
        verdict = is_general_type(U3, U3_TRIPLE, point)
        assert verdict.witness is not None
        coeffs = project_to_V(U3, U3_TRIPLE, vector(verdict.witness))
        assert coeffs != (0, 0, 0)
        d = point.dir
        assert (coeffs[1] * d[2] == coeffs[2] * d[1]
                and coeffs[2] * d[0] == coeffs[0] * d[2]
                and coeffs[0] * d[1] == coeffs[1] * d[0])
    elapsed = time.time() - start
    assert elapsed < 30.0
    print(f"\nPASS criterion 4 (countable superset): inclusion B=1..3, "
          f"{len(alg2)} algebraic points all NotGeneralType with verified "
          f"witnesses, {elapsed:.1f}s")


def test_criterion_5_antipode_identities():
    rng = random.Random(105)
    violations = 0
    for _ in range(100):
        ray = tuple(rng.randint(-6, 6) for _ in range(3))
        if ray == (0, 0, 0):
            ray = (1, 0, 0)
        point = TwistorPoint.from_ray(*ray)
        w = omega_of(U3_TRIPLE, point)
        w_neg = omega_of(U3_TRIPLE, antipode(point))
        if tuple(-e for e in w) != w_neg:
            violations += 1
        x = tuple(rng.randint(-9, 9) for _ in range(6))
        if hodge_type_11(U3, U3_TRIPLE, x, point) != \
                hodge_type_11(U3, U3_TRIPLE, x, antipode(point)):
            violations += 1
    assert violations == 0
    print("\nPASS criterion 5 (antipode identities): 0 violations in 100 "
          "random classes")


def test_criterion_6_continuity():
    from fractions import Fraction
    rng = random.Random(106)
    violations = 0
    checked = 0
    while checked < 1000:
        omega = random_positive_class(rng, U3, q_eval)
        delta = random_rational_vector(rng, 6)
        p_omega = project_to_V(U3, U3_TRIPLE, omega)
        p_delta = project_to_V(U3, U3_TRIPLE, delta)
        no = sum(e * e for e in p_omega)
        nd = sum(e * e for e in p_delta)
        if nd == 0:
            continue
        if 4 * nd > no:
            k = 1
            while 4 * nd > no * k * k:
                k *= 2
            scale = Fraction(1, k)
            p_delta = tuple(scale * e for e in p_delta)
            nd = nd * scale * scale
        a = [float(e) for e in p_omega]
        b = [x + float(e) for x, e in zip(a, p_delta)]
        na = math.sqrt(sum(x * x for x in a))
        nb = math.sqrt(sum(x * x for x in b))
        cosang = sum(x * y for x, y in zip(a, b)) / (na * nb)
        angle = math.acos(max(-1.0, min(1.0, cosang)))
        if angle > 2.0 * math.sqrt(float(nd) / float(no)) + 1e-12:
            violations += 1
        checked += 1
    assert violations == 0
    print("\nPASS criterion 6 (quantitative continuity): 0 violations in "
          "1000 perturbation pairs")


def test_criterion_7_quaternionic_model():
    start = time.time()
    rows = verify_model()
    elapsed = time.time() - start
    failed = [name for name, ok, _ in rows if not ok]
    assert not failed, f"failed identities: {failed}"
    assert elapsed < 5.0
    print(f"\nPASS criterion 7 (quaternionic model): all {len(rows)} "
          f"identities within 1e-12, {elapsed:.2f}s")


def test_criterion_8_determinism():
    runner = CliRunner()
    args = ["scan-algebraic", "--lattice", "U3", "--bound", "3"]
    out1 = runner.invoke(main, args)
    out2 = runner.invoke(main, args)
    assert out1.exit_code == 0 and out2.exit_code == 0
    assert out1.output.encode() == out2.output.encode()
    print("\nPASS criterion 8 (determinism): byte-identical CSV over two "
          "scan-algebraic runs")
