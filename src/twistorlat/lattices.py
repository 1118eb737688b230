"""Built-in lattices and the JSON input format.

File format: {"rank": r, "gram": [[int, ...], ...],
              "triple": [[rat, ...], [rat, ...], [rat, ...]]}
where rat is an integer or a string "p/q". The triple is optional for
raw linear algebra but required by the twistor layer.
"""

from __future__ import annotations

import json
import os

from .errors import TwistorLatticeError
from .linalg import GramLattice, HyperTriple


def _u_block():
    return [[0, 1], [1, 0]]


def _e8_minus_gram():
    # E8(-1), minus the Cartan matrix of E8: chain 0-1-2-3-4-5-6 with
    # node 7 on node 2 (arm lengths 1, 2, 4 around the branch node).
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (2, 7)]
    g = [[0] * 8 for _ in range(8)]
    for i in range(8):
        g[i][i] = -2
    for a, b in edges:
        g[a][b] = g[b][a] = 1
    return g


def _direct_sum(*blocks):
    n = sum(len(b) for b in blocks)
    g = [[0] * n for _ in range(n)]
    off = 0
    for b in blocks:
        for i, row in enumerate(b):
            for j, e in enumerate(row):
                g[off + i][off + j] = e
        off += len(b)
    return g


def _u3():
    gram = _direct_sum(_u_block(), _u_block(), _u_block())
    triple = [
        [1, 1, 0, 0, 0, 0],
        [0, 0, 1, 1, 0, 0],
        [0, 0, 0, 0, 1, 1],
    ]
    return gram, triple


def _k3():
    gram = _direct_sum(_u_block(), _u_block(), _u_block(),
                       _e8_minus_gram(), _e8_minus_gram())
    triple = [
        [1, 1] + [0] * 20,
        [0, 0, 1, 1] + [0] * 18,
        [0, 0, 0, 0, 1, 1] + [0] * 16,
    ]
    return gram, triple


def _diag222():
    gram = [[2, 0, 0], [0, 2, 0], [0, 0, 2]]
    triple = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    return gram, triple


BUILTINS = {
    "U3": _u3,
    "K3": _k3,
    "diag222": _diag222,
}


def _is_rows(value, count=None) -> bool:
    return (isinstance(value, list) and all(isinstance(row, list) for row in value)
            and count in (None, len(value)))


def load_lattice(source: str | os.PathLike):
    """Load (GramLattice, HyperTriple | None) from a built-in name or a
    JSON file path. Any other source is refused before open(), which
    would take an int (or bool) for a file descriptor and close it."""
    if not isinstance(source, (str, os.PathLike)):
        raise TwistorLatticeError(
            f"a lattice source is a built-in name or a file path, got {source!r}")
    if source in BUILTINS:
        gram, triple = BUILTINS[source]()
        return GramLattice.from_rows(gram), HyperTriple.from_rows(triple)
    try:
        with open(source) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise TwistorLatticeError(f"cannot open lattice file {source}: {exc}")
    except json.JSONDecodeError as exc:
        raise TwistorLatticeError(f"invalid JSON in {source}: {exc}")
    if not (isinstance(data, dict) and _is_rows(data.get("gram"))
            and (data.get("triple") is None or _is_rows(data["triple"], 3))):
        raise TwistorLatticeError(
            f"{source} must hold an object with 'gram' a list of lists and, "
            "if given, 'triple' a list of three lists")
    lattice = GramLattice.from_rows(data["gram"])
    if "rank" in data and data["rank"] != lattice.rank:
        raise TwistorLatticeError(
            f"declared rank {data['rank']} does not match gram size {lattice.rank}")
    triple = data.get("triple")
    return lattice, None if triple is None else HyperTriple.from_rows(triple)
