"""The `queries` workload: a seeded stream of public point queries.

One stream is a fixed mix of calls in a seeded random order. The
package sees only the generated inputs. Every result is checked after
the stream, outside the timed region, against bench/oracle.py.
"""

from __future__ import annotations

import math
import random

import oracle
import speed

# calls per stream; the three probe kinds are invalid inputs (1.7% of the
# stream) that must raise the named TwistorLatticeError subclass
MIX = {
    "pi_map_U3": 300,
    "pi_map_K3": 300,
    "gt_exact_K3": 100,
    "gt_bounded_U3": 4,
    "hodge_U3": 30,
    "verify_model": 1,
    "probe_not_positive": 5,
    "probe_invalid_bound": 4,
    "probe_irrational": 4,
}
PROBE_ERRORS = {
    "probe_not_positive": "NotPositive",
    "probe_invalid_bound": "InvalidBound",
    "probe_irrational": "IrrationalPoint",
}
BOUNDED_BOUND = 3
OMEGA_RANGE = 9      # omega coordinates in [-9, 9]
RAY_RANGE = 6        # exact rays in [-6, 6]^3
K3_SUPPORT = range(6)


class Lattices:
    """The lattices a stream uses, with the oracle's pairing rows."""

    def __init__(self, tl):
        self.pairs = {name: tl.load_lattice(name) for name in ("U3", "K3")}
        self.rows = {name: oracle.pairing_rows(*pair) for name, pair in self.pairs.items()}
        self.bounded = oracle.BoundedSearch(*self.pairs["U3"], BOUNDED_BOUND)


def _omega(rng, lattice, support, positive=True):
    while True:
        v = [0] * lattice.rank
        for i in support:
            v[i] = rng.randint(-OMEGA_RANGE, OMEGA_RANGE)
        q = oracle.q_self(lattice, v)
        if (q > 0) == positive and any(v):
            return tuple(v)


def _ray(rng):
    while True:
        r = tuple(rng.randint(-RAY_RANGE, RAY_RANGE) for _ in range(3))
        if any(r):
            return r


def _direction(rng):
    # a Gaussian direction is irrational with probability 1, and no box
    # ray at B=3 lies within sine 1e-9 of it
    return tuple(rng.gauss(0.0, 1.0) for _ in range(3))


def make_stream(rng: random.Random, tl, lats: Lattices) -> list[tuple]:
    """(kind, input) items in a seeded order; building TwistorPoints here
    keeps their cost out of the timed calls."""
    U3, K3 = lats.pairs["U3"][0], lats.pairs["K3"][0]
    TP = tl.TwistorPoint
    make = {
        "pi_map_U3": lambda: _omega(rng, U3, range(6)),
        "pi_map_K3": lambda: _omega(rng, K3, K3_SUPPORT),
        "gt_exact_K3": lambda: TP.from_ray(*_ray(rng)),
        "gt_bounded_U3": lambda: TP.from_unit(*_direction(rng)),
        "hodge_U3": lambda: (tuple(rng.randint(-4, 4) for _ in range(6)),
                             TP.from_ray(*_ray(rng))),
        "verify_model": lambda: rng.randrange(1 << 30),
        "probe_not_positive": lambda: _omega(rng, U3, range(6), positive=False),
        "probe_invalid_bound": lambda: TP.from_ray(*_ray(rng)),
        "probe_irrational": lambda: (tuple(rng.randint(-4, 4) for _ in range(6)),
                                     TP.from_unit(*_direction(rng))),
    }
    items = [(kind, make[kind]()) for kind, n in MIX.items() for _ in range(n)]
    rng.shuffle(items)
    return items


def run_stream(tl, items) -> list[tuple]:
    """Run the stream in one closed loop; returns (kind, start, end,
    bracket kernel seconds, result) per call, where result is the
    exception for a call that raised.
    Calls go through module attributes, so traced wrappers are seen;
    twistorlat.quaternions must already be imported."""
    U3, U3T = tl.load_lattice("U3")
    K3, K3T = tl.load_lattice("K3")
    calls = {
        "pi_map_U3": lambda x: tl.pi_map(U3, U3T, x),
        "pi_map_K3": lambda x: tl.pi_map(K3, K3T, x),
        "gt_exact_K3": lambda p: tl.is_general_type(K3, K3T, p),
        "gt_bounded_U3": lambda p: tl.is_general_type(U3, U3T, p, bound=BOUNDED_BOUND),
        "hodge_U3": lambda xp: tl.hodge_type_11(U3, U3T, *xp),
        "verify_model": lambda seed: tl.quaternions.verify_model(seed=seed),
        "probe_not_positive": lambda x: tl.pi_map(U3, U3T, x),
        "probe_invalid_bound": lambda p: tl.is_general_type(U3, U3T, p, bound=0),
        "probe_irrational": lambda xp: tl.hodge_type_11(U3, U3T, *xp),
    }
    out = []
    for kind, arg in items:
        before = speed.kernel_seconds(speed.BRACKET_LOOPS)
        start = speed.now()
        try:
            result = calls[kind](arg)
        except Exception as exc:  # a failed call is checked, not fatal
            result = exc
        end = speed.now()
        after = speed.kernel_seconds(speed.BRACKET_LOOPS)
        out.append((kind, start, end, (before + after) / 2, result))
    return out


def _check(tl, lats, kind, arg, result) -> bool:
    if kind in PROBE_ERRORS:
        return isinstance(result, getattr(tl, PROBE_ERRORS[kind]))
    if isinstance(result, Exception):
        return False
    if kind.startswith("pi_map"):
        t = oracle.project(lats.rows[kind[-2:]], arg)
        d = result.point.dir
        # criterion 1: omega pairs positively with L and negatively with -L,
        # i.e. L is the projection ray with the orientation of t
        return (d == oracle.primitive(t) and sum(a * b for a, b in zip(d, t)) > 0
                and tuple(result.vec) == arg)
    if kind == "gt_exact_K3":
        w = result.witness
        if w is None or len(w) != 22:
            return False
        p = oracle.project(lats.rows["K3"], w)
        return any(p) and oracle.cross(p, arg.dir) == (0, 0, 0)
    if kind == "gt_bounded_U3":
        return (result.witness is None and result.bound == BOUNDED_BOUND
                and lats.bounded.witness(arg.unit) is None)
    if kind == "hodge_U3":
        x, point = arg
        p = oracle.project(lats.rows["U3"], x)
        return result == (oracle.cross(p, point.dir) == (0, 0, 0))
    if kind == "verify_model":
        return len(result) > 0 and all(ok for _, ok, _ in result)
    raise ValueError(kind)


def check_stream(tl, lats, items, results) -> int:
    """Number of calls whose result is wrong."""
    return sum(not _check(tl, lats, kind, arg, res)
               for (kind, arg), (*_, res) in zip(items, results))


def check_float_images(tl, lats, rng, n=2) -> tuple[int, int]:
    """Bounded calls on float images of rational rays must find the
    oracle's witness. Kept out of the latency samples. Returns
    (attempted, failed)."""
    U3, U3T = lats.pairs["U3"]
    failed = 0
    for _ in range(n):
        while True:
            v = tuple(rng.randint(-BOUNDED_BOUND, BOUNDED_BOUND) for _ in range(6))
            d = oracle.primitive(oracle.project(lats.rows["U3"], v))
            if any(d):
                break
        norm = math.sqrt(sum(e * e for e in d))
        point = tl.TwistorPoint.from_unit(*(e / norm for e in d))
        verdict = tl.is_general_type(U3, U3T, point, bound=BOUNDED_BOUND)
        expected = lats.bounded.witness(point.unit)
        failed += not (expected is not None and verdict.witness == expected)
    return n, failed
