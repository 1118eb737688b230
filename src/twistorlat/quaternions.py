"""Flat quaternionic model on R^{4n} = H^n.

Complex structures act by left quaternion multiplication componentwise;
SU(2) also acts by left multiplication, so the pullback of an induced
2-form rotates the defining imaginary unit by conjugation u -> g^-1 u g.
Metric <p, q> = Re(p conj(q)) per component, orientation (1, i, j, k).

The model's constructors and maps take stacked quaternions, as the
quaternion operations do: for array fields of shape s,
complex_structure_from, SU2Element and induced_two_form hold stacks of
shape s + (4n, 4n), checked on their trailing two axes, two_form_coords
gives shape s + (6,), and su2_act_on_form broadcasts stacks of elements
against stacks of forms as numpy's @ does. One formula serves one
quaternion and a stack, entry for entry the same floats. A field that
is not a number is refused with the caller's error, naming the field,
and the model size n is at most _MAX_N. Stacks whose shapes
do not broadcast, and matrices of strings, objects or bools, are refused
with a DimensionMismatch that names the shapes or the dtype.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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

# The largest model size n: one 4n x 4n float64 matrix within 4 MiB (n = 181)
_MAX_N = math.isqrt((4 << 20) // 8) // 4


def _number(c, stacks: bool = False) -> bool:
    """c is a real number and not a bool; with stacks, an int or float array too."""
    if stacks and isinstance(c, np.ndarray):
        return c.dtype.kind in "iuf"
    # numpy would read None as nan, '1.5' as 1.5 and True as 1.0, or fail on them
    return isinstance(c, Real) and not isinstance(c, (bool, np.bool_))


def _refuse_non_numbers(error, stacks: bool = False, **fields) -> None:
    """Raise error, the caller's TwistorLatticeError class, naming the first
    field that is not a number (with stacks, or an array of them)."""
    for name, c in fields.items():
        if not _number(c, stacks):
            raise error(f"field {name} = {c!r} is not a number")


@dataclass(frozen=True)
class Quaternion:
    """w + x i + y j + z k. Each field is a float, or a float array of one
    shape shared by the array fields: then *, conjugate, left_mult_matrix,
    rotation_from_quaternion and the model's constructors work
    elementwise, one quaternion per entry, with the same arithmetic as on
    floats. unit_imaginary and QUAT_I, QUAT_J and QUAT_K give the units
    u = a i + b j + c k of the paper's complex structures L = aI + bJ + cK."""

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

    @staticmethod
    def unit_imaginary(x: float, y: float, z: float) -> "Quaternion":
        return Quaternion(0.0, *unit_direction(x, y, z, NotUnitImaginary))


def unit_direction(x: float, y: float, z: float, error) -> tuple[float, float, float]:
    """(x, y, z) over its norm, scaled by its largest entry first when the
    squared norm under- or overflows. Raises error, the caller's
    TwistorLatticeError class, for zero, nan or inf entries and for entries
    that are not numbers."""
    _refuse_non_numbers(error, x=x, y=y, z=z)
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
    """The real dimension 4n of H^n, for a model size n that is an integer
    in [1, _MAX_N]; refused before anything of that size is allocated."""
    try:
        if 1 <= integer(n, "model size n") <= _MAX_N:
            return 4 * int(n)
    except TwistorLatticeError:
        pass
    raise DimensionMismatch(f"model size n = {n!r} is not an integer in [1, {_MAX_N}]")


def _require_units(q: "Quaternion", imaginary: bool = False) -> None:
    """Refuse q unless every entry is a unit quaternion: norm 1 within TOL
    and, with imaginary, real part 0 within TOL, the norm then of x, y and
    z alone. Names a field that is not a number or array of them, before
    numpy reads it, or else the index and fields of the first entry that
    fails."""
    _refuse_non_numbers(NotUnitImaginary, True, w=q.w, x=q.x, y=q.y, z=q.z)
    _check_broadcast("quaternion fields", *map(np.shape, (q.w, q.x, q.y, q.z)))
    # hypot squares nothing: no square under- or overflows, and a norm
    # past the float range is inf, not 1
    with np.errstate(over="ignore"):
        norm = np.hypot(np.hypot(0.0 if imaginary else q.w, q.x), np.hypot(q.y, q.z))
    ok = (np.abs(norm - 1.0) <= TOL) & ((np.abs(q.w) <= TOL) | (not imaginary))
    if not np.all(ok):
        i = tuple(int(k) for k in np.argwhere(~ok)[0])  # () for float fields
        entry = Quaternion(*(np.broadcast_to(f, ok.shape)[i].item() for f in (q.w, q.x, q.y, q.z)))
        at = f" at index {i}" if i else ""
        raise NotUnitImaginary(f"not a unit {'imaginary ' * imaginary}quaternion{at}: {entry}")


def _check_broadcast(what: str, *shapes) -> None:
    """Refuse stacks of these shapes that do not broadcast with a
    DimensionMismatch naming the shapes, not numpy's bare ValueError."""
    try:
        np.broadcast_shapes(*shapes)
    except ValueError:
        names = ", ".join(map(str, shapes[:-1]))
        raise DimensionMismatch(
            f"{what} of shapes {names} and {shapes[-1]} do not broadcast") from None


def _check_shape(n, mat) -> None:
    """mat is a d x d matrix of numbers, d = 4n, or a stack of them."""
    d = _dim(n)
    if np.shape(mat)[-2:] != (d, d):
        raise DimensionMismatch(f"expected {d}x{d} matrix, got shape {np.shape(mat)}")
    dtype = np.asarray(mat).dtype  # strings, objects and bools are no numbers
    if dtype.kind not in "iuf":
        raise DimensionMismatch(f"expected a {d}x{d} matrix of numbers, got dtype {dtype}")


def _block_diag(mat4: np.ndarray, n: int) -> np.ndarray:
    """n copies of each 4x4 matrix of the stack mat4 down the diagonal:
    np.kron(np.eye(n), mat4), entry for entry the same products."""
    d = _dim(n)
    eye = np.eye(d // 4)[:, None, :, None]
    return (eye * mat4[..., None, :, None, :]).reshape(*np.shape(mat4)[:-2], d, d)


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


@dataclass(frozen=True)
class SU2Element:
    """Left multiplication by the unit quaternion q on H^n; rep, its
    4n x 4n matrix, is built from q."""

    q: Quaternion
    n: int = 1
    rep: np.ndarray = field(init=False)

    def __post_init__(self):
        _require_units(self.q)  # before a matrix is built from the fields
        object.__setattr__(self, "rep", _block_diag(left_mult_matrix(self.q), self.n))


def complex_structure_from(u: Quaternion, n: int = 1) -> ComplexStructureMatrix:
    """Left multiplication by a unit imaginary quaternion; squares to -Id.
    For a stack of quaternions, the stack of their matrices."""
    _require_units(u, imaginary=True)
    return ComplexStructureMatrix(n=n, mat=_block_diag(left_mult_matrix(u), n))


def induced_two_form(L: ComplexStructureMatrix) -> TwoForm:
    """The 2-form (x, y) -> <x, L y> with the standard metric (mat = L)."""
    if np.max(np.abs(L.mat + np.swapaxes(L.mat, -1, -2))) > TOL:
        raise InvariantViolation("induced form is not antisymmetric")
    return TwoForm(n=L.n, mat=L.mat)


def su2_act_on_form(g: SU2Element, f: TwoForm) -> TwoForm:
    """Pullback of the form along the action of g; stacks of elements
    and of forms broadcast against each other."""
    if g.n != f.n:
        raise DimensionMismatch(
            f"SU(2) element and form live on different spaces: n = {g.n} and n = {f.n}")
    _check_broadcast("SU(2) element and form stacks", np.shape(g.rep)[:-2], np.shape(f.mat)[:-2])
    return TwoForm(n=f.n, mat=np.swapaxes(g.rep, -1, -2) @ f.mat @ g.rep)


# Basis of constant 2-forms on R^4, ordered (01, 02, 03, 12, 13, 23):
# the row and the column index of each pair.
_PAIRS = ((0, 0, 0, 1, 1, 2), (1, 2, 3, 2, 3, 3))


def two_form_from_coords(coords) -> TwoForm:
    if np.shape(coords) != (6,):
        raise DimensionMismatch(
            f"a 2-form on R^4 has 6 coordinates, not shape {np.shape(coords)}")
    if not all(map(_number, coords)):
        raise TwistorLatticeError(f"2-form coordinates {coords!r} are not numbers")
    m = np.zeros((4, 4))
    m[_PAIRS] = coords
    return TwoForm(n=1, mat=m - m.T)


def two_form_coords(f: TwoForm) -> np.ndarray:
    if f.n != 1:
        raise Unsupported("2-form coordinates only implemented for n = 1")
    return f.mat[(..., *_PAIRS)]


def hodge_star_2forms() -> np.ndarray:
    """Hodge star on 2-forms of R^4 (n = 1) as a 6x6 matrix in the pair
    basis, Euclidean metric, orientation dx0^dx1^dx2^dx3. Involution."""
    star = np.zeros((6, 6))
    # e01 <-> e23, e02 <-> -e13, e03 <-> e12
    star[5, 0] = star[0, 5] = 1.0
    star[4, 1] = star[1, 4] = -1.0
    star[3, 2] = star[2, 3] = 1.0
    return star


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

    Every formula is reached through the model's public functions, each
    called once on a stack of quaternions: I, J and K are one
    complex_structure_from of the stack (i, j, k). The sampled identities
    are checked on _TRIALS random SU(2) elements g and unit imaginary u,
    drawn from seed (an integer >= 0): the products g^-1 u g, the forms
    omega_u and omega_{g^-1 u g} as two_form_coords(induced_two_form(
    complex_structure_from(.))), the rotations of g^-1, and one
    su2_act_on_form pullback of all 6 basis forms by all g, whose
    SU2Element has (_TRIALS, 1) fields. Backs the
    demo-quaternion CLI command.
    """
    if integer(seed, "seed") < 0:
        raise InvalidBound(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    rows = []

    def check(name, *diffs):
        dev = max(float(np.max(np.abs(d))) for d in diffs)
        rows.append((name, dev <= TOL, f"max deviation {dev:.3e}"))

    L = complex_structure_from(Quaternion(0.0, *np.eye(3)))  # I, J and K, stacked
    I, J, K = L.mat
    check("I.J = K", I @ J - K)
    check("I.J = -J.I", I @ J + J @ I)
    check("I^2 = -Id", I @ I + np.eye(4))

    forms = induced_two_form(L)
    check("omega_L antisymmetric", forms.mat + np.swapaxes(forms.mat, -1, -2))
    check("omega_L nondegenerate (|det| = 1)", np.abs(np.linalg.det(forms.mat)) - 1.0)
    # columns omega_I, omega_J, omega_K: orthogonal, of equal norm, self-dual
    S = two_form_coords(forms).T
    check("omega_I, omega_J, omega_K orthogonal, equal norm",
          S.T @ S - (S[:, 0] @ S[:, 0]) * np.eye(3))

    star = hodge_star_2forms()
    check("star^2 = Id", star @ star - np.eye(6))
    check("omega_I, omega_J, omega_K self-dual", star @ S - S)

    # row t: the 4 normals of element t in q, then the 3 of its unit u in v
    q, v = np.split(rng.normal(size=(_TRIALS, 7)), [4], axis=1)
    # each norm a dot product, as np.linalg.norm takes it for one row
    q = (q / np.sqrt(q[:, None] @ q[..., None])[:, 0]).T
    g = Quaternion(*q)
    x, y, z = v.T
    # the squares summed in unit_direction's order
    u = Quaternion(0.0, *(v / np.sqrt(x * x + y * y + z * z)[:, None]).T)
    # element t, of (_TRIALS, 1) fields, pulls back all 6 basis forms at once;
    # act[t]: column k is the pullback of basis form k by element t
    pulled = su2_act_on_form(SU2Element(Quaternion(*q[..., None])),
                             TwoForm(n=1, mat=_BASIS))
    act = np.swapaxes(two_form_coords(pulled), -1, -2)
    # the columns omega_u; two_form_coords reads entries off the diagonal,
    # so the real part of g^-1 u g, 0 up to rounding, is not read
    omega_u, omega_w = (two_form_coords(induced_two_form(complex_structure_from(w)))[..., None]
                        for w in (u, g.conjugate() * u * g))
    rot = rotation_from_quaternion(g.conjugate())
    check("SU(2) action commutes with Hodge star", star @ act - act @ star)
    check("pullback rotates u by conjugation g^-1 u g", act @ omega_u - omega_w)
    check("form-level rotation matches conjugation SO(3) matrix", act @ S - S @ rot)
    check("anti-self-dual forms are fixed by the action", act @ _ASD - _ASD)
    return rows
