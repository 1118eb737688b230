"""Structure of the package source."""

import ast
from pathlib import Path

import twistorlat

SRC = Path(__file__).resolve().parent.parent / "src" / "twistorlat"
MODULES = {path.stem: ast.parse(path.read_text(), filename=str(path))
           for path in sorted(SRC.glob("*.py"))}


def test_no_import_inside_a_function():
    # modules import each other at the top level only, so that an import
    # cycle cannot hide inside a function body
    nested = []
    for name, tree in MODULES.items():
        nested += [f"{name}.py:{node.lineno}"
                   for func in ast.walk(tree)
                   if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
                   for node in ast.walk(func)
                   if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert nested == []


def test_modules_import_in_one_order():
    # each module imports only modules before it: the imports form no cycle
    order = ["errors", "linalg", "lattices", "quaternions", "box", "twistor", "scanning",
             "covering", "cli", "__init__", "__main__"]
    assert sorted(order) == sorted(MODULES)
    late = []
    for name, tree in MODULES.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                imported = [node.module] if node.module else [a.name for a in node.names]
                late += [f"{name} imports {m}" for m in imported
                         if order.index(m) >= order.index(name)]
    assert late == []


def _private(name):
    return name.startswith("_") and not name.endswith("__")


def test_no_private_name_crosses_a_module():
    # a name that another module reads is public: no module imports a
    # sibling's underscore name or reads one as sibling._name
    crossings = []
    for name, tree in MODULES.items():
        siblings = set()  # the names this module binds to sibling modules
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                if node.module is None:
                    siblings.update(a.asname or a.name for a in node.names)
                else:
                    crossings += [f"{name}.py:{node.lineno} {node.module}.{a.name}"
                                  for a in node.names if _private(a.name)]
        crossings += [f"{name}.py:{node.lineno} {node.value.id}.{node.attr}"
                      for node in ast.walk(tree)
                      if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                      and node.value.id in siblings and _private(node.attr)]
    assert crossings == []


def test_each_budget_is_bound_once():
    # box binds the block budget and the box cap; every other module reads
    # them there, at call time, so one patch moves every reader
    bound = [(name, target.id) for name, tree in MODULES.items()
             for node in ast.walk(tree) if isinstance(node, (ast.Assign, ast.AnnAssign))
             for side in (node.targets if isinstance(node, ast.Assign) else [node.target])
             for target in ast.walk(side)  # a tuple's names too
             if isinstance(target, ast.Name) and target.id.endswith(("BLOCK_BYTES", "BOX_VECTORS"))]
    assert bound == [("box", "BLOCK_BYTES"), ("box", "MAX_BOX_VECTORS")]


def test_public_names_are_unchanged():
    assert twistorlat.__all__ == [
        "BUILTINS", "DimensionMismatch", "EmptyCloud", "GeneralTypeVerdict",
        "GramLattice", "HyperTriple", "InvalidBound", "InvalidSignature",
        "InvalidTriple", "InvariantViolation", "IrrationalPoint", "NotPositive",
        "NotSymmetric", "NotUnitImaginary", "PointCloud", "PositiveClass",
        "SignatureReport", "TwistorLatticeError", "TwistorPoint", "Unsupported",
        "antipode", "covering_radius", "errors", "expand_in_V", "fibonacci_sphere",
        "hodge_type_11", "integer_kernel", "is_general_type", "lattices", "linalg",
        "load_lattice", "omega_of", "perp_V_basis", "pi_map", "project_to_V",
        "q_eval", "quaternions", "scan_algebraic", "scan_non_general_type",
        "scanning", "signature", "stereographic", "stereographic_inverse",
        "twistor", "two_zero_plane", "vector", "write_csv", "write_svg",
    ]
