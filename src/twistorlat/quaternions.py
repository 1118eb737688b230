"""Flat quaternionic model on R^{4n} = H^n.

Complex structures act by left quaternion multiplication componentwise;
SU(2) also acts by left multiplication, so the pullback of an induced
2-form rotates the defining imaginary unit by conjugation u -> g^-1 u g.
Metric <p, q> = Re(p conj(q)) per component, orientation (1, i, j, k).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Real

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidBound,
    InvariantViolation,
    NotUnitImaginary,
    TwistorLatticeError,
    Unsupported,
)
from .linalg import integer

TOL = 1e-12


@dataclass(frozen=True)
class Quaternion:
    """w + x i + y j + z k. Each field is a float, or a float array of one
    shape shared by the array fields: then *, conjugate, left_mult_matrix
    and rotation_from_quaternion work elementwise, one quaternion per
    entry, with the same arithmetic as on floats. norm, is_unit,
    normalized and is_unit_imaginary take floats only."""

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
        return math.hypot(self.w, self.x, self.y, self.z)  # no square under- or overflows

    def normalized(self) -> "Quaternion":
        n = self.norm()
        if not 0.0 < n < math.inf:  # zero, nan or inf entries
            raise InvariantViolation(f"{self} has no unit: norm {n}")
        return Quaternion(self.w / n, self.x / n, self.y / n, self.z / n)

    def is_unit(self) -> bool:
        return abs(self.norm() - 1.0) <= TOL

    def is_unit_imaginary(self) -> bool:
        return abs(self.w) <= TOL and abs(math.hypot(self.x, self.y, self.z) - 1.0) <= TOL

    @staticmethod
    def unit_imaginary(x: float, y: float, z: float) -> "Quaternion":
        return Quaternion(0.0, *unit_direction(x, y, z, NotUnitImaginary))


def unit_direction(x: float, y: float, z: float, error) -> tuple[float, float, float]:
    """(x, y, z) over its norm, scaled by its largest entry first when the
    squared norm under- or overflows. Raises error, the caller's
    TwistorLatticeError class, for zero, nan or inf entries."""
    n = math.sqrt(x * x + y * y + z * z)
    s = max(abs(x), abs(y), abs(z))
    if n in (0.0, math.inf) and 0.0 < s < math.inf:
        # finite and nonzero, but |x|^2 under- or overflowed: scale first
        return unit_direction(x / s, y / s, z / s, error)
    if not 0.0 < n < math.inf:  # zero, nan or inf entries
        raise error(f"({x}, {y}, {z}) is not a direction: norm {n}")
    return x / n, y / n, z / n


QUAT_I = Quaternion(0.0, 1.0, 0.0, 0.0)
QUAT_J = Quaternion(0.0, 0.0, 1.0, 0.0)
QUAT_K = Quaternion(0.0, 0.0, 0.0, 1.0)


def left_mult_matrix(q: Quaternion) -> np.ndarray:
    """Matrix of p -> q p on H = R^4 in the basis (1, i, j, k); for array
    fields of shape s, the stack of shape s + (4, 4)."""
    w, x, y, z = np.broadcast_arrays(q.w, q.x, q.y, q.z)  # a float w beside array x, y, z
    return np.moveaxis(np.array([
        [w, -x, -y, -z],
        [x, w, -z, y],
        [y, z, w, -x],
        [z, -y, x, w],
    ]), (0, 1), (-2, -1))


def _dim(n) -> int:
    """The real dimension 4n of H^n, for a model size n that is an integer >= 1."""
    try:
        if integer(n, "model size n") >= 1:
            return 4 * int(n)
    except TwistorLatticeError:
        pass
    raise DimensionMismatch(f"model size n = {n!r} is not an integer >= 1")


def _check_shape(n, mat) -> None:
    d = _dim(n)
    if np.shape(mat) != (d, d):
        raise DimensionMismatch(f"expected {d}x{d} matrix, got shape {np.shape(mat)}")


def _block_diag(mat4: np.ndarray, n: int) -> np.ndarray:
    d = _dim(n)
    out = np.zeros((d, d))
    for b in range(n):
        out[4 * b:4 * b + 4, 4 * b:4 * b + 4] = mat4
    return out


@dataclass(frozen=True)
class ComplexStructureMatrix:
    n: int
    mat: np.ndarray

    def __post_init__(self):
        _check_shape(self.n, self.mat)


@dataclass(frozen=True)
class TwoForm:
    n: int
    mat: np.ndarray

    def __post_init__(self):
        _check_shape(self.n, self.mat)

    def __call__(self, x, y) -> float:
        d = len(self.mat)
        if np.shape(x) != (d,) or np.shape(y) != (d,):
            raise DimensionMismatch(
                f"a 2-form on R^{d} takes two vectors of length {d}, "
                f"got shapes {np.shape(x)} and {np.shape(y)}")
        return float(np.asarray(x) @ self.mat @ np.asarray(y))


@dataclass(frozen=True)
class SU2Element:
    q: Quaternion
    n: int
    rep: np.ndarray

    def __post_init__(self):
        if not self.q.is_unit():
            raise NotUnitImaginary(f"not a unit quaternion: {self.q}")
        _check_shape(self.n, self.rep)

    @staticmethod
    def from_quaternion(q: Quaternion, n: int = 1) -> "SU2Element":
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
        raise DimensionMismatch(
            f"SU(2) element and form live on different spaces: n = {g.n} and n = {f.n}")
    return TwoForm(n=f.n, mat=g.rep.T @ f.mat @ g.rep)


# Basis of constant 2-forms on R^4, ordered (01, 02, 03, 12, 13, 23):
# the row and the column index of each pair.
_PAIRS = ((0, 0, 0, 1, 1, 2), (1, 2, 3, 2, 3, 3))


def two_form_from_coords(coords) -> TwoForm:
    if np.shape(coords) != (6,):
        raise DimensionMismatch(
            f"a 2-form on R^4 has 6 coordinates, not shape {np.shape(coords)}")
    # numpy would read None as nan, '1.5' as 1.5 and True as 1.0
    if not all(isinstance(c, Real) and not isinstance(c, (bool, np.bool_)) for c in coords):
        raise TwistorLatticeError(f"2-form coordinates {coords!r} are not numbers")
    m = np.zeros((4, 4))
    m[_PAIRS] = coords
    return TwoForm(n=1, mat=m - m.T)


def two_form_coords(f: TwoForm) -> np.ndarray:
    if f.n != 1:
        raise Unsupported("2-form coordinates only implemented for n = 1")
    return f.mat[_PAIRS]


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
    """SO(3) matrix of v -> q v conj(q) on imaginary quaternions (x,y,z);
    for array fields of shape s, the stack of shape s + (3, 3)."""
    w, x, y, z = q.w, q.x, q.y, q.z
    return np.moveaxis(np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ]), (0, 1), (-2, -1))


_TRIALS = 100  # random SU(2) elements per sampled identity

# The basis forms as a (6, 4, 4) stack of matrices, in the pair basis.
_BASIS = np.array([two_form_from_coords(e).mat for e in np.eye(6)])

# Columns: the anti-self-dual 2-forms, in the pair basis.
_ASD = np.array([[1, 0, 0, 0, 0, -1.0],
                 [0, 1, 0, 0, 1.0, 0],
                 [0, 0, 1, -1.0, 0, 0]]).T


def verify_model(seed: int = 7):
    """Run the flat-model identity checks; returns (name, ok, detail) rows.

    The sampled identities are checked on _TRIALS random SU(2) elements g
    and unit imaginary u, drawn from seed (an integer >= 0). Each formula
    runs once over the whole stack: the products g^-1 u g, the
    left-multiplication matrices of g, u and g^-1 u g, whose entries at
    _PAIRS are the 2-form coordinates of omega_u, the rotations of g^-1,
    and one pullback of all basis forms, the product su2_act_on_form
    takes. Backs the demo-quaternion CLI command.
    """
    if integer(seed, "seed") < 0:
        raise InvalidBound(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    rows = []

    def check(name, *diffs):
        dev = max(float(np.max(np.abs(d))) for d in diffs)
        rows.append((name, dev <= TOL, f"max deviation {dev:.3e}"))

    I, J, K = (complex_structure_from(u) for u in (QUAT_I, QUAT_J, QUAT_K))
    check("I.J = K", I.mat @ J.mat - K.mat)
    check("I.J = -J.I", I.mat @ J.mat + J.mat @ I.mat)
    check("I^2 = -Id", I.mat @ I.mat + np.eye(4))

    forms = [induced_two_form(L) for L in (I, J, K)]
    check("omega_L antisymmetric", *(f.mat + f.mat.T for f in forms))
    check("omega_L nondegenerate (|det| = 1)",
          *(abs(np.linalg.det(f.mat)) - 1.0 for f in forms))
    # columns omega_I, omega_J, omega_K: orthogonal, of equal norm, self-dual
    S = np.column_stack([two_form_coords(f) for f in forms])
    check("omega_I, omega_J, omega_K orthogonal, equal norm",
          S.T @ S - (S[:, 0] @ S[:, 0]) * np.eye(3))

    star = hodge_star_2forms()
    check("star^2 = Id", star @ star - np.eye(6))
    check("omega_I, omega_J, omega_K self-dual", star @ S - S)

    # row t: the 4 normals of element t in q, then the 3 of its unit u in v
    q, v = np.split(rng.normal(size=(_TRIALS, 7)), [4], axis=1)
    # each norm a dot product, as np.linalg.norm takes it for one row
    g = Quaternion(*(q / np.sqrt(q[:, None] @ q[..., None])[:, 0]).T)
    x, y, z = v.T
    # the squares summed in unit_direction's order
    u = Quaternion(0.0, *(v / np.sqrt(x * x + y * y + z * z)[:, None]).T)
    reps = left_mult_matrix(g)[:, None]
    # act[t]: column k is the pullback of basis form k by element t
    act = np.swapaxes((np.swapaxes(reps, -1, -2) @ _BASIS @ reps)[(..., *_PAIRS)], 1, 2)
    omega_u = left_mult_matrix(u)[(..., *_PAIRS)][..., None]
    # the entries at _PAIRS are off the diagonal: the real part of g^-1 u g,
    # 0 up to rounding, is not read
    omega_w = left_mult_matrix(g.conjugate() * u * g)[(..., *_PAIRS)][..., None]
    rot = rotation_from_quaternion(g.conjugate())
    check("SU(2) action commutes with Hodge star", star @ act - act @ star)
    check("pullback rotates u by conjugation g^-1 u g", act @ omega_u - omega_w)
    check("form-level rotation matches conjugation SO(3) matrix", act @ S - S @ rot)
    check("anti-self-dual forms are fixed by the action", act @ _ASD - _ASD)
    return rows
