"""Exact lattice computations on the hyperkahler twistor sphere."""

from .errors import (
    DimensionMismatch,
    EmptyCloud,
    InvalidBound,
    InvalidSignature,
    InvalidTriple,
    InvariantViolation,
    IrrationalPoint,
    NotPositive,
    NotSymmetric,
    NotUnitImaginary,
    TwistorLatticeError,
    Unsupported,
)
from .lattices import BUILTINS, load_lattice
from .linalg import (
    GramLattice,
    HyperTriple,
    SignatureReport,
    expand_in_V,
    integer_kernel,
    perp_V_basis,
    project_to_V,
    q_eval,
    signature,
    vector,
)
from .covering import covering_radius, fibonacci_sphere
from .scanning import (
    PointCloud,
    scan_algebraic,
    scan_non_general_type,
    write_csv,
    write_svg,
)
from .twistor import (
    GeneralTypeVerdict,
    PositiveClass,
    TwistorPoint,
    antipode,
    hodge_type_11,
    is_general_type,
    omega_of,
    pi_map,
    stereographic,
    stereographic_inverse,
    two_zero_plane,
)

# every public name bound above, and the six submodules that their imports
# bind; box and covering are reached through the names they export
__all__ = [name for name in dir()
           if not name.startswith("_") and name not in {"box", "covering"}]
__version__ = "0.1.0"
