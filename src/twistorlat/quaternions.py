"""Flat quaternionic model on R^{4n} = H^n.

Complex structures act by left quaternion multiplication componentwise;
SU(2) also acts by left multiplication, so the pullback of an induced
2-form rotates the defining imaginary unit by conjugation u -> g^-1 u g.
Metric <p, q> = Re(p conj(q)) per component, orientation (1, i, j, k).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    InvariantViolation,
    NotUnitImaginary,
    Unsupported,
)

TOL = 1e-12


@dataclass(frozen=True)
class Quaternion:
    w: float
    x: float
    y: float
    z: float

    def __mul__(self, o: "Quaternion") -> "Quaternion":
        return Quaternion(
            self.w * o.w - self.x * o.x - self.y * o.y - self.z * o.z,
            self.w * o.x + self.x * o.w + self.y * o.z - self.z * o.y,
            self.w * o.y - self.x * o.z + self.y * o.w + self.z * o.x,
            self.w * o.z + self.x * o.y - self.y * o.x + self.z * o.w,
        )

    def conjugate(self) -> "Quaternion":
        return Quaternion(self.w, -self.x, -self.y, -self.z)

    def norm(self) -> float:
        return math.sqrt(self.w ** 2 + self.x ** 2 + self.y ** 2 + self.z ** 2)

    def normalized(self) -> "Quaternion":
        n = self.norm()
        return Quaternion(self.w / n, self.x / n, self.y / n, self.z / n)

    def is_unit(self, tol: float = TOL) -> bool:
        return abs(self.norm() - 1.0) <= tol

    def is_unit_imaginary(self, tol: float = TOL) -> bool:
        return abs(self.w) <= tol and abs(
            self.x ** 2 + self.y ** 2 + self.z ** 2 - 1.0) <= tol

    @staticmethod
    def unit_imaginary(x: float, y: float, z: float) -> "Quaternion":
        n = math.sqrt(x * x + y * y + z * z)
        return Quaternion(0.0, x / n, y / n, z / n)


QUAT_I = Quaternion(0.0, 1.0, 0.0, 0.0)
QUAT_J = Quaternion(0.0, 0.0, 1.0, 0.0)
QUAT_K = Quaternion(0.0, 0.0, 0.0, 1.0)


def left_mult_matrix(q: Quaternion) -> np.ndarray:
    """Matrix of p -> q p on H = R^4 in the basis (1, i, j, k)."""
    w, x, y, z = q.w, q.x, q.y, q.z
    return np.array([
        [w, -x, -y, -z],
        [x, w, -z, y],
        [y, z, w, -x],
        [z, -y, x, w],
    ])


def _block_diag(mat4: np.ndarray, n: int) -> np.ndarray:
    out = np.zeros((4 * n, 4 * n))
    for b in range(n):
        out[4 * b:4 * b + 4, 4 * b:4 * b + 4] = mat4
    return out


@dataclass(frozen=True)
class ComplexStructureMatrix:
    n: int
    mat: np.ndarray

    def __post_init__(self):
        d = 4 * self.n
        if self.mat.shape != (d, d):
            raise DimensionMismatch(f"expected {d}x{d} matrix")


@dataclass(frozen=True)
class TwoForm:
    n: int
    mat: np.ndarray

    def __call__(self, x, y) -> float:
        return float(np.asarray(x) @ self.mat @ np.asarray(y))


@dataclass(frozen=True)
class SU2Element:
    q: Quaternion
    n: int
    rep: np.ndarray

    @staticmethod
    def from_quaternion(q: Quaternion, n: int = 1) -> "SU2Element":
        if not q.is_unit():
            raise NotUnitImaginary(f"not a unit quaternion: {q}")
        return SU2Element(q=q, n=n, rep=_block_diag(left_mult_matrix(q), n))


def complex_structure_from(u: Quaternion, n: int = 1) -> ComplexStructureMatrix:
    """Left multiplication by a unit imaginary quaternion; squares to -Id."""
    if not u.is_unit_imaginary():
        raise NotUnitImaginary(f"not a unit imaginary quaternion: {u}")
    return ComplexStructureMatrix(n=n, mat=_block_diag(left_mult_matrix(u), n))


def induced_two_form(L: ComplexStructureMatrix) -> TwoForm:
    """The 2-form (x, y) -> <x, L y> with the standard metric (mat = L)."""
    m = L.mat
    if np.max(np.abs(m + m.T)) > TOL:
        raise InvariantViolation("induced form is not antisymmetric")
    return TwoForm(n=L.n, mat=m)


def su2_act_on_form(g: SU2Element, f: TwoForm) -> TwoForm:
    """Pullback of the form along the action of g."""
    if g.n != f.n:
        raise DimensionMismatch("SU(2) element and form live on different spaces")
    return TwoForm(n=f.n, mat=g.rep.T @ f.mat @ g.rep)


# Basis of constant 2-forms on R^4, ordered (01, 02, 03, 12, 13, 23).
_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def two_form_from_coords(coords) -> TwoForm:
    m = np.zeros((4, 4))
    for c, (a, b) in zip(coords, _PAIRS):
        m[a, b] = c
        m[b, a] = -c
    return TwoForm(n=1, mat=m)


def two_form_coords(f: TwoForm) -> np.ndarray:
    if f.n != 1:
        raise Unsupported("2-form coordinates only implemented for n = 1")
    return np.array([f.mat[a, b] for (a, b) in _PAIRS])


def hodge_star_2forms() -> np.ndarray:
    """Hodge star on 2-forms of R^4 (n = 1) as a 6x6 matrix in the pair
    basis, Euclidean metric, orientation dx0^dx1^dx2^dx3. Involution."""
    star = np.zeros((6, 6))
    # e01 <-> e23, e02 <-> -e13, e03 <-> e12
    star[5, 0] = star[0, 5] = 1.0
    star[4, 1] = star[1, 4] = -1.0
    star[3, 2] = star[2, 3] = 1.0
    return star


def hodge_star(f: TwoForm) -> TwoForm:
    return two_form_from_coords(hodge_star_2forms() @ two_form_coords(f))


def rotation_from_quaternion(q: Quaternion) -> np.ndarray:
    """SO(3) matrix of v -> q v conj(q) on imaginary quaternions (x,y,z)."""
    w, x, y, z = q.w, q.x, q.y, q.z
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


def verify_model(seed: int = 7, trials: int = 100):
    """Run the flat-model identity checks; returns (name, ok, detail) rows.

    Backs the demo-quaternion CLI command.
    """
    rng = np.random.default_rng(seed)
    rows = []

    def check(name, dev):
        rows.append((name, dev <= TOL, f"max deviation {dev:.3e}"))

    I = complex_structure_from(QUAT_I)
    J = complex_structure_from(QUAT_J)
    K = complex_structure_from(QUAT_K)
    check("I.J = K", float(np.max(np.abs(I.mat @ J.mat - K.mat))))
    check("I.J = -J.I", float(np.max(np.abs(I.mat @ J.mat + J.mat @ I.mat))))
    check("I^2 = -Id", float(np.max(np.abs(I.mat @ I.mat + np.eye(4)))))

    forms = [induced_two_form(L) for L in (I, J, K)]
    dev = 0.0
    for f in forms:
        dev = max(dev, float(np.max(np.abs(f.mat + f.mat.T))))
    check("omega_L antisymmetric", dev)
    dev = 0.0
    for f in forms:
        dev = max(dev, abs(abs(np.linalg.det(f.mat)) - 1.0))
    check("omega_L nondegenerate (|det| = 1)", dev)

    # pairwise orthogonal, equal norm under the form inner product
    coords = [two_form_coords(f) for f in forms]
    common = float(coords[0] @ coords[0])
    dev = 0.0
    for a in range(3):
        for b in range(3):
            want = common if a == b else 0.0
            dev = max(dev, abs(float(coords[a] @ coords[b]) - want))
    check("omega_I, omega_J, omega_K orthogonal, equal norm", dev)

    star = hodge_star_2forms()
    check("star^2 = Id", float(np.max(np.abs(star @ star - np.eye(6)))))
    sd = [two_form_coords(f) for f in forms]
    dev = max(float(np.max(np.abs(star @ c - c))) for c in sd)
    check("omega_I, omega_J, omega_K self-dual", dev)

    def random_unit_quaternion():
        v = rng.normal(size=4)
        v /= np.linalg.norm(v)
        return Quaternion(*v)

    # star commutes with the SU(2) pullback on the 6-space of 2-forms
    dev = 0.0
    for _ in range(trials):
        g = SU2Element.from_quaternion(random_unit_quaternion())
        act = np.column_stack([
            two_form_coords(su2_act_on_form(g, two_form_from_coords(e)))
            for e in np.eye(6)
        ])
        dev = max(dev, float(np.max(np.abs(star @ act - act @ star))))
    check("SU(2) action commutes with Hodge star", dev)

    # pullback of omega_{L_u} is omega_{L_{g^-1 u g}}
    dev = 0.0
    for _ in range(20):
        g = SU2Element.from_quaternion(random_unit_quaternion())
        v = rng.normal(size=3)
        u = Quaternion.unit_imaginary(*v)
        lhs = su2_act_on_form(g, induced_two_form(complex_structure_from(u)))
        gc = g.q.conjugate()
        u2 = (gc * u * g.q).normalized()
        rhs = induced_two_form(complex_structure_from(Quaternion(0.0, u2.x, u2.y, u2.z)))
        dev = max(dev, float(np.max(np.abs(lhs.mat - rhs.mat))))
    check("pullback rotates u by conjugation g^-1 u g", dev)

    # the induced rotation of (x, y, z) matches the conjugation SO(3) matrix
    dev = 0.0
    for _ in range(trials):
        g = SU2Element.from_quaternion(random_unit_quaternion())
        rot = rotation_from_quaternion(g.q.conjugate())
        for axis, L in ((0, I), (1, J), (2, K)):
            got = su2_act_on_form(g, induced_two_form(L))
            want = np.zeros((4, 4))
            col = rot[:, axis]
            for c, M in zip(col, (I, J, K)):
                want += c * M.mat
            dev = max(dev, float(np.max(np.abs(got.mat - want))))
    check("form-level rotation matches conjugation SO(3) matrix", dev)

    # left SU(2) fixes the anti-self-dual 3-space pointwise
    asd = [np.array([1, 0, 0, 0, 0, -1.0]),
           np.array([0, 1, 0, 0, 1.0, 0]),
           np.array([0, 0, 1, -1.0, 0, 0])]
    dev = 0.0
    for _ in range(trials):
        g = SU2Element.from_quaternion(random_unit_quaternion())
        for c in asd:
            out = two_form_coords(su2_act_on_form(g, two_form_from_coords(c)))
            dev = max(dev, float(np.max(np.abs(out - c))))
    check("anti-self-dual forms are fixed by the action", dev)

    return rows
