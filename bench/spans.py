"""Spans around the package's public calls, installed from outside.

install() replaces each traced function, in every twistorlat module that
bound it, with a wrapper that records a span when the Tracer is active
and otherwise only calls through. It must run before twistorlat.cli is
imported, because the CLI binds names at import time (`from .twistor
import pi_map`, and the scan functions passed to `_scan_command`).

A span's self time is its duration minus the durations of the spans it
encloses. Spans are kept in memory and read once per measured
iteration.
"""

from __future__ import annotations

import functools
import importlib
import sys
import tracemalloc
from contextlib import contextmanager

import speed

# (module, public name) pairs; a dotted name is a method of a public class.
# Tiny helpers (vector, primitive, check_length, ...) are left out: a
# wrapper costs about as much as they do, and their time is counted in
# the self time of the traced function that calls them.
TARGETS = (
    ("lattices", "load_lattice"),
    ("linalg", "q_eval"),
    ("linalg", "gram_row"),
    ("linalg", "signature"),
    ("linalg", "integer_kernel"),
    ("linalg", "project_to_V"),
    ("linalg", "expand_in_V"),
    ("linalg", "triple_gram_rows"),
    ("linalg", "HyperTriple.validate"),
    ("twistor", "TwistorPoint.from_ray"),
    ("twistor", "TwistorPoint.from_unit"),
    ("twistor", "omega_of"),
    ("twistor", "pi_map"),
    ("twistor", "antipode"),
    ("twistor", "hodge_type_11"),
    ("twistor", "is_general_type"),
    ("twistor", "stereographic"),
    ("scanning", "scan_algebraic"),
    ("scanning", "scan_non_general_type"),
    ("scanning", "covering_radius"),
    ("scanning", "fibonacci_sphere"),
    ("scanning", "write_csv"),
    ("scanning", "write_svg"),
    ("quaternions", "verify_model"),
)

# spans whose peak traced allocation is recorded (tracemalloc runs only
# inside them, so it slows nothing else)
ALLOC_SPANS = ("scanning.covering_radius",)

CLI_COMMANDS = ("density", "scan-ngt", "scan-algebraic")


def _general_type_span(args, kwargs):
    # exact (rational ray) and bounded (float direction) modes do
    # unrelated work, so they are separate spans
    point = args[2] if len(args) > 2 else kwargs["point"]
    return "twistor.is_general_type." + ("exact" if point.is_exact else "bounded")


SPLIT_SPANS = {"twistor.is_general_type": _general_type_span}


def span_names() -> list[str]:
    """Every span the tracer can record."""
    names = []
    for module, name in TARGETS:
        full = f"{module}.{name}"
        if full in SPLIT_SPANS:
            names += [full + ".exact", full + ".bounded"]
        else:
            names.append(full)
    return names + [f"cli.{c}" for c in CLI_COMMANDS]


class Tracer:
    """Self time, call count and peak allocation per span name."""

    def __init__(self):
        self.active = False
        self._stack = []  # [name, start, seconds spent in child spans]
        self.stats = {}   # name -> [self seconds, calls, peak alloc MB]

    def reset(self):
        self._stack.clear()
        self.stats = {}

    def push(self, name):
        if name in ALLOC_SPANS:
            tracemalloc.start()
        self._stack.append([name, speed.now(), 0.0])

    def pop(self):
        name, start, child = self._stack.pop()
        elapsed = speed.now() - start
        entry = self.stats.setdefault(name, [0.0, 0, 0.0])
        entry[0] += elapsed - child
        entry[1] += 1
        if name in ALLOC_SPANS:
            entry[2] = max(entry[2], tracemalloc.get_traced_memory()[1] / 2**20)
            tracemalloc.stop()
        if self._stack:
            self._stack[-1][2] += elapsed

    @contextmanager
    def span(self, name):
        if not self.active:
            yield
            return
        self.push(name)
        try:
            yield
        finally:
            self.pop()


def _wrap(tracer, fn, name):
    name_of = SPLIT_SPANS.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        tracer.push(name_of(args, kwargs) if name_of else name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.pop()
    return wrapper


def install(tracer):
    """Wrap every TARGETS entry wherever a twistorlat module bound it."""
    if "twistorlat.cli" in sys.modules:
        raise RuntimeError("install the tracer before importing twistorlat.cli")
    for module, _ in TARGETS:
        importlib.import_module("twistorlat." + module)
    loaded = [m for key, m in sys.modules.items()
              if key == "twistorlat" or key.startswith("twistorlat.")]
    for module, name in TARGETS:
        owner = sys.modules["twistorlat." + module]
        full = f"{module}.{name}"
        if "." in name:
            cls_name, attr = name.split(".")
            cls = getattr(owner, cls_name, None)
            raw = vars(cls).get(attr) if cls is not None else None
            if raw is None:
                continue  # gone from the package: its span reads 0 calls
            if isinstance(raw, staticmethod):
                setattr(cls, attr, staticmethod(_wrap(tracer, raw.__func__, full)))
            else:
                setattr(cls, attr, _wrap(tracer, raw, full))
            continue
        original = getattr(owner, name, None)
        if original is None:
            continue
        wrapped = _wrap(tracer, original, full)
        for mod in loaded:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
