"""Structure of the package source."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "twistorlat"


def test_no_import_inside_a_function():
    # modules import each other at the top level only, so that an import
    # cycle cannot hide inside a function body
    nested = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        nested += [f"{path.name}:{node.lineno}"
                   for func in ast.walk(tree)
                   if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
                   for node in ast.walk(func)
                   if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert nested == []
