"""Command-line interface.

Exit codes: 0 success, 1 domain error (bad signature, invalid triple,
non-positive class, ...), 2 usage error.
"""

from __future__ import annotations

import math
import os
import re
import sys
from fractions import Fraction
from functools import wraps

import click

from . import covering, scanning
from .errors import TwistorLatticeError
from .lattices import load_lattice
from .linalg import q_eval, signature, vector
from .quaternions import verify_model
from .twistor import TwistorPoint, is_general_type, pi_map, stereographic


def domain_errors(f):
    """Exit 1 with one error line and no traceback when the command fails
    on domain input or cannot write its output (an OSError, such as a full
    disk)."""
    @wraps(f)
    def wrapper(*args, **kwargs):
        try:
            try:
                return f(*args, **kwargs)
            finally:  # the output files flush here, not after the command returns
                click.get_current_context().close()
        except BrokenPipeError:  # a reader that stopped early: click exits 1, silently
            raise
        except (TwistorLatticeError, OSError) as exc:
            click.echo(f"error: {exc}", err=True)
            _settle_stdout()
            sys.exit(1)
    return wrapper


def _settle_stdout():
    """Flush stdout now; if that fails (stdout on a full disk), point its
    descriptor at devnull, so that the flush at interpreter exit does not
    fail again, print a second message and exit 120."""
    try:
        sys.stdout.flush()
    except OSError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _load(source):
    lattice, triple = load_lattice(source)
    if triple is None:
        raise TwistorLatticeError(f"lattice {source} carries no triple")
    return lattice, triple


def _parse_int_csv(text, what):
    try:
        return tuple(int(e) for e in text.split(","))
    except ValueError:
        raise click.UsageError(f"{what} must be comma-separated integers")


lattice_option = click.option(
    "--lattice", "lattice_source", required=True,
    help="Built-in lattice name (U3, K3, diag222) or a JSON file path.")


@click.group()
def main():
    """Exact twistor-sphere computations on an integral quadratic lattice."""


@main.command()
@lattice_option
@domain_errors
def validate(lattice_source):
    """Check signature and triple invariants of a lattice."""
    lattice, triple = load_lattice(lattice_source)
    sig = signature(lattice)
    click.echo(f"rank: {lattice.rank}")
    click.echo(f"signature: ({sig.n_plus}, {sig.n_minus}, {sig.n_zero})")
    if sig.as_tuple() != (3, lattice.rank - 3, 0):
        raise TwistorLatticeError(
            f"signature {sig.as_tuple()} is not (3, r-3, 0)")
    if triple is None:
        raise TwistorLatticeError("no triple given")
    norm = triple.validate(lattice)
    click.echo(f"triple: OK (common norm {norm})")


@main.command()
@lattice_option
@click.option("--omega", required=True,
              help="Integral class as comma-separated integers.")
@domain_errors
def project(lattice_source, omega):
    """Project an integral positive class to its twistor point."""
    lattice, triple = _load(lattice_source)
    vec = vector(_parse_int_csv(omega, "--omega"))
    cls = pi_map(lattice, triple, vec)
    a, b, c = cls.point.dir
    z = stereographic(cls.point)
    click.echo(f"q(omega, omega) = {q_eval(lattice, vec, vec)}")
    click.echo(f"ray: {a},{b},{c}")
    click.echo(f"unit: {cls.point.unit[0]:.15g},{cls.point.unit[1]:.15g},"
               f"{cls.point.unit[2]:.15g}")
    if math.isinf(z.real):
        click.echo("cp1: inf")
    else:
        click.echo(f"cp1: {z.real:.15g}{z.imag:+.15g}i")


def _scan_command(name, scan_fn, doc):
    @main.command(name=name, help=doc)
    @lattice_option
    @click.option("--bound", type=int, required=True, help="Box bound B.")
    @click.option("--mask", default=None,
                  help="Comma-separated coordinate indices to enumerate.")
    # the files open lazily, on the first write: a scan that fails
    # leaves none behind, and one that cannot be opened exits 1
    @click.option("--out", type=click.File("w"), default="-",
                  help="CSV output path (default: stdout).")
    @click.option("--svg", type=click.File("w"), default=None,
                  help="Also write an SVG scatter plot.")
    @domain_errors
    def cmd(lattice_source, bound, mask, out, svg):
        lattice, triple = _load(lattice_source)
        mask_idx = None if mask is None else _parse_int_csv(mask, "--mask")
        cloud = scan_fn(lattice, triple, bound, mask_idx)
        scanning.write_csv(cloud, out)
        if svg is not None:
            scanning.write_svg(cloud, svg)
    return cmd


_scan_command("scan-algebraic", scanning.scan_algebraic,
              "Scan the box for algebraic twistor points; emit CSV.")
_scan_command("scan-ngt", scanning.scan_non_general_type,
              "Scan the box for non-general-type points; emit CSV.")


@main.command(name="general-type")
@lattice_option
@click.option("--point", required=True,
              help="Direction a,b,c; rationals give the exact test, "
                   "floats the bounded box search.")
@click.option("--bound", type=int, default=3, help="Box bound for the search.")
@domain_errors
def general_type(lattice_source, point, bound):
    """Degree-2 general-type test at a twistor point."""
    lattice, triple = _load(lattice_source)
    parts = [p.strip() for p in point.split(",")]
    if len(parts) != 3:
        raise click.UsageError("--point needs three components a,b,c")
    # integers and p/q fractions select the exact test; anything with a
    # decimal point or exponent is treated as a floating direction
    exact = all(re.fullmatch(r"[+-]?\d+(/\d+)?", p) for p in parts)
    try:
        coords = [Fraction(p) if exact else float(p) for p in parts]
    except (ValueError, ZeroDivisionError):
        raise click.UsageError(f"cannot parse --point {point!r}")
    pt = TwistorPoint.from_ray(*coords) if exact else TwistorPoint.from_unit(*coords)
    verdict = is_general_type(lattice, triple, pt, bound=bound)
    if verdict.witness is not None:
        mode = "exact" if exact else f"bounded (B={bound})"
        click.echo(f"not of general type ({mode} mode)")
        click.echo("witness: " + ",".join(str(e) for e in verdict.witness))
    else:
        click.echo(f"general type up to bound {verdict.bound}: "
                   "no integral witness in the box")


@main.command()
@lattice_option
@click.option("--bound", type=int, required=True, help="Largest box bound.")
@click.option("--grid", type=int, default=100,
              help="Fibonacci grid resolution (grid^2 sample points).")
@click.option("--mask", default=None,
              help="Comma-separated coordinate indices to enumerate.")
@domain_errors
def density(lattice_source, bound, grid, mask):
    """Covering radius of the algebraic cloud for bounds 1..B."""
    lattice, triple = _load(lattice_source)
    mask_idx = None if mask is None else _parse_int_csv(mask, "--mask")
    # every argument fails before the header: the grid first, so that a
    # bad one runs no scan, then the largest box's scan and an empty cloud
    grid = covering.check_grid(grid)
    cloud = scanning.scan_algebraic(lattice, triple, bound, mask_idx)
    covering.nonempty(cloud)
    # box b's cloud is the rays of least bound at most b, all from the one
    # scan of box B. The clouds are nested, so any other empty cloud is
    # box 1's, and it fails at its own row, after the header
    clouds = [cloud.dirs[cloud.least_bounds <= b] for b in range(1, bound + 1)]
    radii = covering.covering_radii(clouds, grid) if len(clouds[0]) else []
    click.echo("bound,cloud_size,covering_radius")
    for b, rays, radius in zip(range(1, bound + 1), clouds, radii):
        click.echo(f"{b},{len(rays)},{radius:.12f}")
    if not radii:
        covering.nonempty(scanning.PointCloud(clouds[0], cloud.witnesses[:0]))


@main.command(name="demo-quaternion")
@domain_errors
def demo_quaternion():
    """Verify the flat quaternionic-model identities."""
    rows = verify_model()
    failed = 0
    for name, ok, detail in rows:
        status = "PASS" if ok else "FAIL"
        click.echo(f"{status}  {name}  ({detail})")
        failed += 0 if ok else 1
    if failed:
        click.echo(f"{failed} identities failed", err=True)
        sys.exit(1)
    click.echo(f"all {len(rows)} identities hold")
