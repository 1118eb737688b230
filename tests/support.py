"""Shared test helpers, independent of the package internals.

The rational linear algebra here (row reduction, span membership) is a
deliberately separate implementation used to cross-check the package's
integer kernels and projections.
"""

import math
import random
from fractions import Fraction

import numpy as np

from twistorlat import TwistorPoint, stereographic
from twistorlat.quaternions import (
    QUAT_I,
    QUAT_J,
    QUAT_K,
    TOL,
    Quaternion,
    SU2Element,
    complex_structure_from,
    hodge_star_2forms,
    induced_two_form,
    rotation_from_quaternion,
    su2_act_on_form,
    two_form_coords,
    two_form_from_coords,
)


def rref(rows):
    """Row-reduce a matrix of Fractions; returns (rref_rows, pivot_cols)."""
    m = [list(map(Fraction, r)) for r in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        d = m[r][c]
        m[r] = [e / d for e in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m[:r], pivots


def rational_rank(rows):
    return len(rref(rows)[0])


def solve_in_span(basis, target):
    """Coefficients expressing target in the span of basis over Q,
    or None if target is outside the span."""
    if not basis:
        return None if any(Fraction(e) != 0 for e in target) else []
    n = len(basis)
    aug = [[Fraction(basis[i][j]) for i in range(n)] + [Fraction(target[j])]
           for j in range(len(target))]
    red, pivots = rref(aug)
    if n in pivots:
        return None
    coeffs = [Fraction(0)] * n
    for row, p in zip(red, pivots):
        coeffs[p] = row[-1]
    return coeffs


def in_integer_span(basis, target):
    """Whether target is an integer combination of the basis vectors."""
    coeffs = solve_in_span(basis, target)
    return coeffs is not None and all(c.denominator == 1 for c in coeffs)


def random_rational_vector(rng: random.Random, length, support=None):
    v = [Fraction(0)] * length
    for i in (support if support is not None else range(length)):
        v[i] = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
    return tuple(v)


def random_positive_class(rng, lattice, q_eval, support=None, max_tries=1000):
    """Rejection-sample a rational vector with q(v, v) > 0."""
    for _ in range(max_tries):
        v = random_rational_vector(rng, lattice.rank, support)
        if q_eval(lattice, v, v) > 0:
            return v
    raise AssertionError("could not sample a positive class")


def dot_rows(rows, x):
    """The products rows[a] . x, each a sum over every entry, zeros
    included."""
    return tuple(sum(a * b for a, b in zip(row, x)) for row in rows)


def reference_q_eval(gram, x, y):
    """x^T gram y in Fractions by the dense double loop over every Gram
    entry, zeros included."""
    return sum((Fraction(x[i]) * gram[i][j] * Fraction(y[j])
                for i in range(len(gram)) for j in range(len(gram))), Fraction(0))


def random_unimodular(rng: random.Random, n, steps=20):
    """Random integer matrix with determinant +-1 (product of shears
    and swaps)."""
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        k = rng.randint(-2, 2)
        if rng.random() < 0.2:
            m[i], m[j] = m[j], m[i]
        else:
            m[i] = [a + k * b for a, b in zip(m[i], m[j])]
    return m


def conjugate_gram(gram, u):
    """u^T gram u with integer arithmetic."""
    n = len(gram)
    gu = [[sum(gram[i][k] * u[k][j] for k in range(n)) for j in range(n)]
          for i in range(n)]
    return [[sum(u[k][i] * gu[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)]


def permute_coordinates(gram, vectors, perm):
    """The Gram matrix and vectors in coordinates reordered so that new
    coordinate i is old coordinate perm[i]."""
    return ([[gram[i][j] for j in perm] for i in perm],
            [[v[i] for i in perm] for v in vectors])


# K3 with its live coordinates 0..5 (where the pairing rows are nonzero)
# moved, in order, to 1, 4, 8, 9, 15 and 20, between the dead ones. A
# kernel of the live columns alone orders both the V-perp basis and the
# exact kernel at the ray (1, 2, 3) differently from the full reduction.
K3_INTERLEAVED = [6, 0, 7, 8, 1, 9, 10, 11, 2, 3, 12, 13, 14, 15, 16, 4,
                  17, 18, 19, 20, 5, 21]


def reference_integer_kernel(rows):
    """The kernel basis by index loops over a whole matrix A and a
    row-major n x n U, the reduction integer_kernel replaced; it applies
    the same column operations in the same order, so it returns the same
    list, order and signs included."""
    a = [list(int(e) for e in row) for row in rows]
    if not a:
        return []
    n = len(a[0])
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def col_op(dst, src, f):
        # column_dst -= f * column_src, applied to both a and u
        for row in a:
            row[dst] -= f * row[src]
        for row in u:
            row[dst] -= f * row[src]

    def col_swap(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in u:
            row[i], row[j] = row[j], row[i]

    col = 0
    for r in range(len(a)):
        if col >= n:
            break
        # Euclid across columns col..n-1 on row r
        while True:
            best = None
            for j in range(col, n):
                if a[r][j] != 0 and (best is None or abs(a[r][j]) < abs(a[r][best])):
                    best = j
            if best is None:
                break  # row already zero beyond col
            done = True
            for j in range(col, n):
                if j != best and a[r][j] != 0:
                    col_op(j, best, a[r][j] // a[r][best])
                    if a[r][j] != 0:
                        done = False
            if done:
                if best != col:
                    col_swap(col, best)
                col += 1
                break
    basis = []
    for j in range(col, n):
        v = tuple(u[i][j] for i in range(n))
        # normalize: first nonzero entry positive
        for e in v:
            if e != 0:
                if e < 0:
                    v = tuple(-x for x in v)
                break
        basis.append(v)
    return basis


def reference_signature(gram):
    """(n_plus, n_minus, n_zero) of a symmetric integer matrix by
    congruence reduction in place, pivot swapped to the lowest index and
    every row operation mirrored on the columns."""
    r = len(gram)
    m = [[Fraction(e) for e in row] for row in gram]
    n_plus = n_minus = n_zero = 0
    for k in range(r):
        # find a nonzero diagonal pivot at or after k
        piv = next((i for i in range(k, r) if m[i][i] != 0), None)
        if piv is None:
            # all diagonals zero: look for an off-diagonal entry and fold
            # its row/column in (2*m[i][j] lands on the diagonal)
            pair = next(((i, j) for i in range(k, r) for j in range(i + 1, r)
                         if m[i][j] != 0), None)
            if pair is None:
                n_zero += r - k
                break
            piv, j = pair
            for t in range(k, r):
                m[piv][t] += m[j][t]
            for t in range(k, r):
                m[t][piv] += m[t][j]
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            for t in range(r):
                m[t][k], m[t][piv] = m[t][piv], m[t][k]
        d = m[k][k]
        if d > 0:
            n_plus += 1
        else:
            n_minus += 1
        for i in range(k + 1, r):
            if m[i][k] != 0:
                f = m[i][k] / d
                for t in range(k, r):
                    m[i][t] -= f * m[k][t]
                for t in range(k, r):
                    m[t][i] -= f * m[t][k]
    return (n_plus, n_minus, n_zero)


def _reference_points(cloud):
    """(TwistorPoint, witness list) for each ray of the cloud, sorted by
    exact ray. Each unit is the ray over the sqrt of its Python int sum
    of squares, as TwistorPoint.from_ray takes a primitive ray's, not the
    cloud's array units."""
    for d, w in sorted(zip(map(tuple, cloud.dirs.tolist()), cloud.witnesses.tolist())):
        n = math.sqrt(d[0] ** 2 + d[1] ** 2 + d[2] ** 2)
        yield TwistorPoint(dir=d, unit=(d[0] / n, d[1] / n, d[2] / n)), w


def reference_write_csv(cloud, stream):
    """The per-point CSV writer the array writer replaced: a TwistorPoint
    per ray, sorted by exact ray, and stereographic per point."""
    stream.write("a,b,c,ux,uy,uz,cp1_re,cp1_im,witness\n")
    for p, w in _reference_points(cloud):
        a, b, c = p.dir
        z = stereographic(p)
        witness = ";".join(str(e) for e in w)
        stream.write(
            f"{a},{b},{c},{p.unit[0]:.17g},{p.unit[1]:.17g},{p.unit[2]:.17g},"
            f"{z.real:.17g},{z.imag:.17g},{witness}\n")


def _lambert(u, center_sign):
    # Lambert azimuthal equal-area, centered at (center_sign, 0, 0);
    # reference_write_svg passes only units with center_sign * x >= 0
    x, y, z = u
    f = math.sqrt(2.0 / (1.0 + center_sign * x))
    return (f * y, f * center_sign * z)


def reference_write_svg(cloud, stream):
    """The per-point SVG writer the array writer replaced: a point at a
    time, sorted by exact ray, then a hemisphere at a time."""
    size, pad = 400, 10
    scale = (size - 2 * pad) / (2.0 * math.sqrt(2.0))
    width = 2 * size + pad
    stream.write(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{size}" viewBox="0 0 {width} {size}">\n')
    centers = [(size / 2.0, 1.0), (size + pad + size / 2.0, -1.0)]
    for cx, _ in centers:
        stream.write(
            f'<circle cx="{cx:.2f}" cy="{size / 2.0:.2f}" '
            f'r="{math.sqrt(2.0) * scale:.2f}" fill="none" stroke="black"/>\n')
    for p, _ in _reference_points(cloud):
        for cx, sgn in centers:
            if sgn * p.unit[0] < 0:
                continue
            xy = _lambert(p.unit, sgn)
            px = cx + xy[0] * scale
            py = size / 2.0 - xy[1] * scale
            stream.write(f'<circle cx="{px:.2f}" cy="{py:.2f}" r="1.5"/>\n')
    stream.write("</svg>\n")


def reference_verify_model(seed):
    """The per-trial verify_model the stacked one replaced: each of 100
    trials draws 4 then 3 normals, builds its 6x6 action from six
    su2_act_on_form pullbacks of the basis forms, and gives four diffs;
    each sampled row takes the largest deviation over the trials."""
    rng = np.random.default_rng(seed)
    rows = []

    def check(name, *diffs):
        dev = max(float(np.max(np.abs(d))) for d in diffs)
        rows.append((name, dev <= TOL, f"max deviation {dev:.3e}"))

    def omega(u):
        return two_form_coords(induced_two_form(complex_structure_from(u)))

    I, J, K = (complex_structure_from(u) for u in (QUAT_I, QUAT_J, QUAT_K))
    check("I.J = K", I.mat @ J.mat - K.mat)
    check("I.J = -J.I", I.mat @ J.mat + J.mat @ I.mat)
    check("I^2 = -Id", I.mat @ I.mat + np.eye(4))
    forms = [induced_two_form(L) for L in (I, J, K)]
    check("omega_L antisymmetric", *(f.mat + f.mat.T for f in forms))
    check("omega_L nondegenerate (|det| = 1)",
          *(abs(np.linalg.det(f.mat)) - 1.0 for f in forms))
    S = np.column_stack([two_form_coords(f) for f in forms])
    check("omega_I, omega_J, omega_K orthogonal, equal norm",
          S.T @ S - (S[:, 0] @ S[:, 0]) * np.eye(3))
    star = hodge_star_2forms()
    check("star^2 = Id", star @ star - np.eye(6))
    check("omega_I, omega_J, omega_K self-dual", star @ S - S)

    basis = [two_form_from_coords(e) for e in np.eye(6)]
    asd = np.array([[1, 0, 0, 0, 0, -1.0], [0, 1, 0, 0, 1.0, 0], [0, 0, 1, -1.0, 0, 0]]).T
    diffs = []
    for _ in range(100):
        v = rng.normal(size=4)
        g = SU2Element(Quaternion(*(v / np.linalg.norm(v))))
        u = Quaternion.unit_imaginary(*rng.normal(size=3))
        w = g.q.conjugate() * u * g.q
        act = np.column_stack([two_form_coords(su2_act_on_form(g, e)) for e in basis])
        diffs.append((star @ act - act @ star,
                      act @ omega(u) - omega(Quaternion(0.0, w.x, w.y, w.z)),
                      act @ S - S @ rotation_from_quaternion(g.q.conjugate()),
                      act @ asd - asd))
    for name, trials in zip(("SU(2) action commutes with Hodge star",
                             "pullback rotates u by conjugation g^-1 u g",
                             "form-level rotation matches conjugation SO(3) matrix",
                             "anti-self-dual forms are fixed by the action"), zip(*diffs)):
        check(name, *trials)
    return rows
