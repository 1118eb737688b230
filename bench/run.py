"""twistorlat benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
./src. Workloads, metrics and the layer map are described in
bench/README.md. The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics: the end-to-end metrics
with --trace 0, the per-layer metrics with --trace 1.
"""

from __future__ import annotations

import os

# single-threaded workloads: pin BLAS before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import gc
import hashlib
import importlib
import io
import json
import random
import resource
import statistics
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path
from typing import NamedTuple
from time import perf_counter

import oracle
import spans
import speed
import stream

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_work"

MIN_ITERATIONS = 2   # an untraced run measures at least this many iterations
PROBE_STREAMS = 1    # query streams before each of those on density and scans
MIN_PAIRS = 1        # a traced run measures at least this many
                     # (untraced, traced) pairs of iterations
SETUP_RUNS = 5       # fresh processes timed for setup_s
LAYERS = ("lattices", "linalg", "twistor", "scanning", "quaternions", "cli")

# prints raw setup seconds and the reference kernel's seconds around them
SETUP_CODE = """
import statistics, sys
import speed
before = [speed.kernel_seconds() for _ in range(5)]
start = speed.now()
import twistorlat.cli
from twistorlat import load_lattice, signature
for name in ("U3", "K3"):
    lattice, triple = load_lattice(name)
    if signature(lattice).as_tuple() != (3, lattice.rank - 3, 0):
        sys.exit(name + ": signature is not (3, r-3, 0)")
    triple.validate(lattice)
seconds = speed.now() - start
after = [speed.kernel_seconds() for _ in range(5)]
print(seconds, statistics.median(before + after))
"""


def import_package():
    """Import twistorlat from ./src of this checkout and nowhere else."""
    if not (SRC / "twistorlat" / "__init__.py").is_file():
        sys.exit(f"error: no package source at {SRC / 'twistorlat'}")
    sys.path.insert(0, str(SRC))
    import twistorlat
    if SRC.resolve() not in Path(twistorlat.__file__).resolve().parents:
        sys.exit(f"error: twistorlat imported from {twistorlat.__file__}, not {SRC}")
    return twistorlat


class Tally:
    """Operations attempted and operations with a failed check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, attempted, failed):
        self.attempted += attempted
        self.failed += failed


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_cli(cli, tracer, args) -> tuple[object, str]:
    """Invoke one CLI command in process; returns (exit code, stdout)."""
    buf = io.StringIO()
    code = 0
    with redirect_stdout(buf), tracer.span("cli." + args[0]):
        try:
            cli.main.main(args=args, standalone_mode=False)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crash is a failed operation
            code = repr(exc)
    return code, buf.getvalue()


class Density:
    """CLI `density` on U3 up to B=4 with a 200x200 grid."""

    args = ["density", "--lattice", "U3", "--bound", "4", "--grid", "200"]
    layers = ("lattices", "linalg", "scanning", "cli")

    def __init__(self, ctx):
        self.ctx = ctx

    def prepare(self):
        return None

    def work(self, _):
        return run_cli(self.ctx.cli, self.ctx.tracer, self.args)

    def check(self, _, out):
        code, stdout = out
        fix = self.ctx.fixtures["density"]
        sizes = [int(line.split(",")[1]) for line in stdout.splitlines()[1:]]
        ok = (code == 0 and stdout == fix["stdout"]
              and sizes == [fix["oracle_cloud_sizes"][str(b)] for b in range(1, 5)])
        return 1, int(not ok)

    def scans(self):
        U3 = self.ctx.tl.load_lattice("U3")
        return [(U3, dict(bound=b)) for b in range(1, 5)], 200


class ScanEmit:
    """CLI `scan-ngt` on U3 at B=3 with CSV and SVG, then a masked
    rank-22 `scan-algebraic` on K3 at B=2 with CSV."""

    layers = ("lattices", "linalg", "scanning", "cli")

    def __init__(self, ctx):
        self.ctx = ctx
        self.files = {name: WORK / name for name in ("ngt.csv", "ngt.svg", "alg.csv")}
        self.commands = [
            ["scan-ngt", "--lattice", "U3", "--bound", "3",
             "--out", str(self.files["ngt.csv"]), "--svg", str(self.files["ngt.svg"])],
            ["scan-algebraic", "--lattice", "K3", "--bound", "2",
             "--mask", "0,1,2,3,4,5,6,7", "--out", str(self.files["alg.csv"])],
        ]
        U3, K3 = ctx.tl.load_lattice("U3"), ctx.tl.load_lattice("K3")
        # oracle rays: U3 B=3 algebraic and non-general-type, masked K3 B=2
        self.alg_u3 = oracle.scan_counts(*U3, 3)[1]
        self.ngt_u3 = oracle.scan_counts(*U3, 3, both_signs=True)[1]
        self.alg_k3 = oracle.scan_counts(*K3, 2, active=range(8))[1]

    def prepare(self):
        WORK.mkdir(exist_ok=True)
        for path in self.files.values():
            path.unlink(missing_ok=True)

    def work(self, _):
        return [run_cli(self.ctx.cli, self.ctx.tracer, args)[0] for args in self.commands]

    def check(self, _, codes):
        fix = self.ctx.fixtures["scan_emit"]
        ok = {name: path.is_file() and sha256(path) == fix[name]
              for name, path in self.files.items()}
        ngt_rays = _csv_rays(self.files["ngt.csv"])
        ngt_ok = (codes[0] == 0 and ok["ngt.csv"] and ok["ngt.svg"]
                  and ngt_rays == self.ngt_u3 and self.alg_u3 <= ngt_rays)
        alg_ok = (codes[1] == 0 and ok["alg.csv"]
                  and _csv_rays(self.files["alg.csv"]) == self.alg_k3)
        return 2, int(not ngt_ok) + int(not alg_ok)

    def scans(self):
        tl = self.ctx.tl
        return [(tl.load_lattice("U3"), dict(bound=3, both_signs=True)),
                (tl.load_lattice("K3"), dict(bound=2, active=range(8)))], None


def _csv_rays(path: Path):
    """The exact rays of a scan CSV; None if it is missing or malformed."""
    try:
        with open(path) as fh:
            next(fh, None)
            return {tuple(int(e) for e in line.split(",")[:3]) for line in fh}
    except (OSError, ValueError):
        return None


class Queries:
    """A seeded stream of point queries (see bench/stream.py)."""

    layers = ("lattices", "linalg", "twistor", "quaternions")

    def __init__(self, ctx):
        self.ctx = ctx
        self.lats = stream.Lattices(ctx.tl)

    def prepare(self):
        return stream.make_stream(self.ctx.rng, self.ctx.tl, self.lats)

    def work(self, items):
        return stream.run_stream(self.ctx.tl, items)

    def calls(self, results):
        return [call[:4] for call in results]

    def check(self, items, results):
        return len(items), stream.check_stream(self.ctx.tl, self.lats, items, results)

    def check_float_images(self):
        return stream.check_float_images(self.ctx.tl, self.lats, self.ctx.rng)

    def scans(self):
        return [], None


WORKLOADS = {"density-U3": Density, "scan-emit": ScanEmit, "queries": Queries}


class Context:
    """What every workload of one run shares."""

    def __init__(self, tl, cli, tracer, seed):
        self.tl = tl
        self.cli = cli
        self.tracer = tracer
        self.clock = speed.SpeedClock()
        self.rng = random.Random(seed)
        self.fixtures = json.loads((BENCH / "fixtures.json").read_text())


class Timing(NamedTuple):
    """Raw speed.now() bounds of one iteration's work and, for a query
    stream, its calls as (kind, start, end, bracket kernel seconds)."""
    start: float
    end: float
    calls: list | None


def iteration(workload, tally, tracer=None) -> Timing:
    """Prepare, time the work (traced when a tracer is given), check."""
    state = workload.prepare()
    gc.collect()
    if tracer is not None:
        tracer.reset()
        tracer.active = True
    start = speed.now()
    out = workload.work(state)
    end = speed.now()
    if tracer is not None:
        tracer.active = False
    tally.add(*workload.check(state, out))
    calls = workload.calls(out) if isinstance(workload, Queries) else None
    return Timing(start, end, calls)


def call_seconds(clock, call) -> float:
    """Reference seconds of one query call: rescaled by its bracket kernels
    when it is shorter than the sampler's period, else by the samples."""
    _, start, end, kernel = call
    if end - start >= speed.PERIOD:
        return clock.reference_seconds(start, end)
    return (end - start - clock.busy(start, end)) * speed.BRACKET_NOMINAL_S / kernel


def raw_wall(t: Timing) -> float:
    if t.calls is None:
        return t.end - t.start
    return sum(end - start for _, start, end, _ in t.calls)


def reference_wall(clock, t: Timing) -> float:
    """A CLI iteration is rescaled by the SIGALRM samples; a query stream
    is the sum of its bracketed calls, so the brackets are left out."""
    if t.calls is None:
        return clock.reference_seconds(t.start, t.end)
    return sum(call_seconds(clock, call) for call in t.calls)


def setup_seconds() -> list[float]:
    """Reference seconds of setup in each of SETUP_RUNS fresh processes."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(SRC), str(BENCH))))
    times = []
    for _ in range(SETUP_RUNS):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            sys.exit(f"error: setup failed: {proc.stderr.strip()}")
        seconds, kernel = map(float, proc.stdout.split()[-2:])
        times.append(seconds * speed.SAMPLE_NOMINAL_S / kernel)
    return times


def blas_threads() -> int:
    """Thread count reported by the OpenBLAS that numpy loaded."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        maps = ""
    libs = {line.split()[-1] for line in maps.splitlines()
            if "openblas" in line.lower() and line.split()[-1].startswith("/")}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return int(os.environ["OPENBLAS_NUM_THREADS"])


def metric(value, unit):
    return {"value": value, "unit": unit}


# (metric, call kind, percentile, seconds -> unit)
LATENCIES = (
    ("pi_map_U3.p50_us", "pi_map_U3", 50, 1e6),
    ("pi_map_U3.p90_us", "pi_map_U3", 90, 1e6),
    ("pi_map_K3.p50_us", "pi_map_K3", 50, 1e6),
    ("pi_map_K3.p90_us", "pi_map_K3", 90, 1e6),
    ("gt_exact_K3.p50_ms", "gt_exact_K3", 50, 1e3),
    ("gt_exact_K3.p90_ms", "gt_exact_K3", 90, 1e3),
    ("gt_bounded_U3.p50_ms", "gt_bounded_U3", 50, 1e3),
)


def latency_metrics(clock, streams) -> dict:
    """Percentiles of per-call reference seconds. A kind with at least
    100 calls per stream gets its percentile per stream and the median
    over streams, so one stream hit by a burst of contention does not move
    it; rarer kinds are pooled over all streams."""
    def pct(values, q):
        return statistics.median(values) if q == 50 else statistics.quantiles(values, n=10)[8]

    metrics = {}
    for name, kind, q, scale in LATENCIES:
        per_stream = [[call_seconds(clock, c) for c in calls if c[0] == kind]
                      for calls in streams]
        if min(map(len, per_stream)) >= 100:
            value = statistics.median(pct(v, q) for v in per_stream)
        else:
            value = pct([x for v in per_stream for x in v], q)
        metrics[name] = metric(value * scale, name.rsplit("_", 1)[1])
    return metrics


def run_untraced(ctx, workload, seconds, tally) -> tuple[dict, int]:
    setup = setup_seconds()
    # query latencies come from the queries workload's own iterations; the
    # other workloads interleave streams with their first iterations
    queries = workload if isinstance(workload, Queries) else Queries(ctx)
    clock = ctx.clock
    clock.start()
    probe, timings = [], []
    start = perf_counter()
    while len(timings) < MIN_ITERATIONS or perf_counter() - start < seconds:
        if queries is not workload and len(timings) < MIN_ITERATIONS:
            for _ in range(PROBE_STREAMS):
                probe.append(iteration(queries, tally))
        timings.append(iteration(workload, tally))
    clock.stop()
    tally.add(*queries.check_float_images())
    walls = [reference_wall(clock, t) for t in timings]
    streams = [t.calls for t in (probe or timings)]
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "setup_s": metric(statistics.median(setup), "s"),
        "wall_s": metric(statistics.median(walls), "s"),
        "peak_rss_mb": metric(peak_mb, "MB"),
    }
    metrics.update(latency_metrics(clock, streams))
    return metrics, len(walls)


def computed_counts(ctx, workload) -> dict:
    """Counts of the workload's scans from bench/oracle.py, per iteration."""
    scans, grid = workload.scans()
    total = {"box_vectors": 0, "positive_vectors": 0, "zero_projections": 0,
             "rays": 0, "deduplicated": 0}
    for (lattice, triple), kw in scans:
        counts, _ = oracle.scan_counts(lattice, triple, **kw)
        for key in ("box_vectors", "positive_vectors", "zero_projections", "rays"):
            total[key] += counts[key]
        # the algebraic scan deduplicates positive vectors, the
        # non-general-type scan both orientations of each nonzero projection
        total["deduplicated"] += (2 * (counts["box_vectors"] - counts["zero_projections"])
                                  if kw.get("both_signs") else counts["positive_vectors"])
    macs = 3 * grid * grid * total["rays"] if grid else 0
    return {
        "scan.box_vectors": metric(total["box_vectors"], "count"),
        "scan.positive_vectors": metric(total["positive_vectors"], "count"),
        "scan.zero_projections": metric(total["zero_projections"], "count"),
        "scan.rays": metric(total["rays"], "count"),
        "scan.dedup_yield": metric(total["rays"] / total["deduplicated"]
                                   if total["deduplicated"] else 0.0, "ratio"),
        "covering_radius.macs_computed": metric(macs, "count"),
    }


def run_traced(ctx, workload, seconds, tally) -> tuple[dict, int]:
    tracer, clock = ctx.tracer, ctx.clock
    untraced, traced, snapshots = [], [], []
    clock.start()
    start = perf_counter()
    while True:
        # alternate which side of a pair runs first, so drift cancels
        if len(traced) % 2:
            traced.append(iteration(workload, tally, tracer))
            untraced.append(iteration(workload, tally))
        else:
            untraced.append(iteration(workload, tally))
            traced.append(iteration(workload, tally, tracer))
        snapshots.append(tracer.stats)
        # stop after MIN_PAIRS unless one more pair fits in `seconds`
        elapsed = perf_counter() - start
        if (len(traced) >= MIN_PAIRS
                and elapsed * (len(traced) + 1) / len(traced) > seconds):
            break
    clock.stop()
    if isinstance(workload, Queries):
        tally.add(*workload.check_float_images())
    untraced = [reference_wall(clock, t) for t in untraced]
    raw = [raw_wall(t) for t in traced]
    traced = [reference_wall(clock, t) for t in traced]
    # span times are raw; rescale each iteration's by its speed factor
    factors = [ref / r for ref, r in zip(traced, raw)]

    def med(fn):
        return statistics.median(fn(snap) for snap in snapshots)

    def med_s(fn):
        return statistics.median(f * fn(snap) for f, snap in zip(factors, snapshots))

    metrics = {}
    for name in spans.span_names():
        metrics[name + ".s"] = metric(med_s(lambda s: s.get(name, (0.0, 0))[0]), "s")
        metrics[name + ".calls"] = metric(
            int(med(lambda s: s.get(name, (0.0, 0))[1])), "count")
    metrics["scanning.covering_radius.peak_alloc_mb"] = metric(
        med(lambda s: s.get("scanning.covering_radius", (0, 0, 0.0))[2]), "MB")
    for layer in LAYERS:
        metrics[layer + ".s"] = metric(med_s(lambda s: sum(
            v[0] for k, v in s.items() if k.startswith(layer + "."))), "s")
        calls = med(lambda s: sum(v[1] for k, v in s.items() if k.startswith(layer + ".")))
        if layer in workload.layers:
            # a layer the workload must reach but no span saw means the
            # wrappers missed a binding
            tally.add(1, int(calls == 0))
    wall = statistics.median(traced)
    coverage = statistics.median(
        sum(v[0] for k, v in snap.items() if not k.startswith("cli.")) / r
        for snap, r in zip(snapshots, raw))
    metrics.update(computed_counts(ctx, workload))
    metrics.update({
        "trace.wall_s": metric(wall, "s"),
        "trace.untraced_wall_s": metric(statistics.median(untraced), "s"),
        "trace.overhead_s": metric(wall - statistics.median(untraced), "s"),
        "trace.span_coverage": metric(coverage, "ratio"),
        "env.blas_threads": metric(blas_threads(), "count"),
    })
    return metrics, len(traced)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    tl = import_package()
    tracer = spans.Tracer()
    if args.trace:
        spans.install(tracer)
    importlib.import_module("twistorlat.quaternions")
    cli = importlib.import_module("twistorlat.cli")

    ctx = Context(tl, cli, tracer, args.seed)
    workload = WORKLOADS[args.workload](ctx)
    tally = Tally()
    run = run_traced if args.trace else run_untraced
    metrics, iterations = run(ctx, workload, args.seconds, tally)
    print(f"# workload={args.workload} seed={args.seed} trace={args.trace} "
          f"iterations={iterations} blas_threads={blas_threads()}")
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
