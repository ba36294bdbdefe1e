"""Run one bncagg benchmark workload; print every metric with its unit.

    python3 bench/run.py --workload paper-cli --seed 20240901 --seconds 40 --trace 0

Run from the root of a source checkout: the package is imported from
``src/`` next to this directory, never from an installed copy.  The run

1. times ``setup_s`` in fresh interpreters (import, contexts, goldens);
2. runs passes back to back (a closed loop, one process, no workers) until
   ``--seconds`` have elapsed, with a short calibration loop between passes;
3. with ``--trace 1``, spends half of ``--seconds`` on untraced passes and
   then runs the workload's fixed number of traced passes, so call counts
   repeat exactly;
4. checks every pass's outputs (see ``workloads.py``).

The host's speed swings by up to 1.8x within seconds, and CPU time swings
with it.  So the pass metrics are given in reference seconds: a run times a
calibration loop before its first pass and after each pass, divides the
median pass time by the median calibration time and the tail pass time by
the upper quartile of the calibration times, and multiplies by
``CALIBRATION_REF_S``.  A slow pass falls in a slow spell of the host, and
the upper quartile is what the calibrations read in such spells.  The calibration loop uses no
bncagg code, so a change in the program moves these metrics and a change in
the host's speed mostly does not.
The raw wall-clock figures are printed too, and kept in the record.

Human-readable lines come first; the last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics`` (the end-to-end
metrics of BENCHMARK.json, or its per-layer metrics with ``--trace 1``).
A full record with host facts and every pass time goes to ``bench/out/``.
Exit status: 0 all checks passed, 1 a check failed, 2 the run could not start.
"""

from __future__ import annotations

import os

# Pin BLAS and OpenMP pools to one thread; this must precede the numpy import.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from tracer import LAYERS, Tracer  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, CheckLog  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
GOLDEN_DIR = BENCH_DIR / "golden"
# Fresh-interpreter set-ups before and again after the timed passes, so that
# set-up time samples the machine at both ends of the run.
SETUP_RUNS = {"full": 3, "tiny": 1}
# A typical ``calibration()`` time on the reference host, a shared 2-core
# Xeon VM (Python 3.11, numpy 2.4).  A fixed constant: it sets the
# scale of the reference seconds, not their steadiness.
CALIBRATION_REF_S = 0.03
CALIBRATION_CHUNKS = 8
_CALIBRATION_ARRAY = np.random.default_rng(0).random(25_000)

END_TO_END = (
    ("setup_s", "s"),
    ("ref_pass_s.median", "s"),
    ("ref_pass_s.tail", "s"),
    ("ref_pass_cpu_s.median", "s"),
    ("ref_points_per_s", "1/s"),
    ("peak_rss_mib", "MiB"),
)
# The same figures in raw wall-clock and CPU seconds: printed, not gated.
RAW = (
    ("pass_s.median", "s"),
    ("pass_s.tail", "s"),
    ("pass_cpu_s.median", "s"),
    ("points_per_s", "1/s"),
)
MC_RATES = (
    ("mc_trials_per_s.rank_counting", "1/s"),
    ("mc_trials_per_s.gf256_matrix", "1/s"),
    ("mc_hop_periods_per_s", "1/s"),
)


def _per_layer_catalog() -> tuple[tuple[str, str], ...]:
    calls_self = ("calls", "count"), ("self_s", "s")
    spec = [
        ("frame.optimize_n", (("calls", "count"), ("median_s", "s"), ("self_s", "s"))),
        ("frame.expected_rank_increment", calls_self + (("distinct_ratio", "ratio"),)),
        ("frame.beta", calls_self),
        ("frame.beta_prime", calls_self),
        ("frame.gamma", calls_self),
        ("frame.gamma_prime", calls_self),
        ("probability.binom_pmf", calls_self),
        ("probability.bin_d_pmf", calls_self),
        ("network.aggregate_reception_pmf", calls_self + (("distinct_ratio", "ratio"),)),
        ("network.simulate_line_network", (("self_s", "s"),)),
        ("network.NodeStrategy.select", (("calls", "count"),)),
        (
            "gf256.gf256_rank_many",
            calls_self
            + (("matrices", "count"), ("matrices_per_s", "1/s"), ("bytes_in", "B-computed")),
        ),
        ("gf256.gf_mul", calls_self),
        ("oracle.simulate_period", (("self_s", "s"), ("trials_per_s", "1/s"))),
        ("oracle.simulate_end_to_end", (("self_s", "s"),)),
        ("oracle.enumerate_period_exact", calls_self),
        ("phases.batch_lineages", calls_self),
        ("cli.main", (("self_s", "s"),)),
    ]
    out = [(f"{span}.{stat}", unit) for span, stats in spec for stat, unit in stats]
    out += [(f"{layer}.{stat}", unit) for layer in LAYERS for stat, unit in calls_self]
    out.append(("trace.overhead_frac", "ratio"))
    return tuple(out) + MC_RATES


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED, help="workload seed (held-out: 20250517)")
    parser.add_argument("--seconds", type=float, default=40.0, help="measuring time of the run")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "tiny"], default="full", help="tiny is for smoke tests")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def import_package():
    """Import bncagg from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import bncagg
    import bncagg.cli  # noqa: F401  (cli is not imported by the package itself)

    if not Path(bncagg.__file__).resolve().is_relative_to(src):
        raise ImportError(f"bncagg resolved to {bncagg.__file__}, outside {src}")
    return bncagg


def build_workload(bncagg, args):
    path = GOLDEN_DIR / f"{args.workload}.json"
    golden = json.loads(path.read_text())[args.size]
    return WORKLOADS[args.workload](bncagg, args.size, args.seed, golden)


def calibration() -> tuple[float, float]:
    """Wall and CPU seconds of a fixed loop of dict updates and numpy sorts.

    The loop runs in ``CALIBRATION_CHUNKS`` equal chunks, and each figure is
    the median chunk time times the chunk count, so that the vCPU being taken
    away for a few milliseconds does not skew the whole sample.
    """
    walls, cpus = [], []
    for _ in range(CALIBRATION_CHUNKS):
        wall0, cpu0 = time.perf_counter(), time.process_time()
        table: dict[int, int] = {}
        for i in range(12_500):
            table[i & 1023] = table.get(i & 1023, 0) + 3 * i
        np.cumsum(np.sort(_CALIBRATION_ARRAY))
        walls.append(time.perf_counter() - wall0)
        cpus.append(time.process_time() - cpu0)
    return CALIBRATION_CHUNKS * statistics.median(walls), CALIBRATION_CHUNKS * statistics.median(cpus)


def upper_quartile(values: list[float]) -> float:
    return statistics.quantiles(values, n=4, method="inclusive")[2]


def to_reference(value: float, calibration_s: float) -> float:
    """A time in reference seconds: scaled by a calibration statistic of the run."""
    return value * CALIBRATION_REF_S / calibration_s


def measure_setup(args, count: int) -> list[float]:
    """Seconds from a fresh interpreter's start to the workload being ready."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--setup-probe",
        "--workload", args.workload, "--seed", str(args.seed), "--size", args.size,
    ]
    times = []
    for _ in range(count):
        start = time.perf_counter()
        try:
            with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
                line = proc.stdout.readline()
                elapsed = time.perf_counter() - start
                proc.stdout.read()
            ok = proc.returncode == 0 and line.strip() == "ready"
        except OSError:
            ok = False
        if not ok:
            print("error: the set-up probe failed", file=sys.stderr)
            raise SystemExit(2)
        times.append(elapsed)
    return times


def run_passes(workload, log, until: float | None, count: int | None):
    """Closed loop of passes.

    Returns wall times, CPU times, per-pass rates, the last outputs and the
    calibrations run before the first pass and after each pass.
    """
    walls, cpus, rates = [], [], []
    loop_start = time.perf_counter()
    calibrations = [calibration()]
    while True:
        done = len(walls)
        if count is not None and done >= count:
            break
        if until is not None and done and time.perf_counter() - loop_start >= until:
            break
        wall0, cpu0 = time.perf_counter(), time.process_time()
        outputs = workload.run_pass()
        walls.append(time.perf_counter() - wall0)
        cpus.append(time.process_time() - cpu0)
        calibrations.append(calibration())
        rates.append(workload.rates(outputs))
        workload.check(outputs, log)
        last = outputs
    return walls, cpus, rates, last, calibrations


def tail(values: list[float]) -> tuple[float, int]:
    """The 80th percentile, and the number of samples above it.

    About 50 passes fit in a ``paper-cli`` or ``monte-carlo`` run, which puts
    10 of them beyond p80.  A ``large-batch`` run holds only 6 to 12, where
    "the highest percentile with 10 samples beyond it" would be its fastest
    pass, and its slowest pass alone would make the tail jump from run to run.
    """
    if len(values) < 2:
        return values[0], 0
    value = statistics.quantiles(values, n=10, method="inclusive")[7]
    return value, sum(v > value for v in values)


def per_layer_metrics(summary: dict, passes: int) -> dict[str, float]:
    """Per-pass layer metrics from the traced passes' spans."""
    out: dict[str, float] = {}
    for name, entry in summary.items():
        calls, durations = entry["calls"], entry["durations"]
        out[f"{name}.calls"] = calls / passes
        out[f"{name}.self_s"] = entry["self_s"] / passes
        out[f"{name}.median_s"] = float(np.median(durations)) if calls else 0.0
        if "distinct" in entry:
            out[f"{name}.distinct_ratio"] = entry["distinct"] / calls if calls else 0.0
        busy = float(durations.sum())
        if name == "gf256.gf256_rank_many":
            matrices = sum(p[0] for p in entry["probes"])
            out[f"{name}.matrices"] = matrices / passes
            out[f"{name}.bytes_in"] = sum(p[1] for p in entry["probes"]) / passes
            out[f"{name}.matrices_per_s"] = matrices / busy if busy else 0.0
        if name == "oracle.simulate_period":
            trials = sum(p[0] for p in entry["probes"])
            out[f"{name}.trials_per_s"] = trials / busy if busy else 0.0
    for layer in LAYERS:
        mine = [e for n, e in summary.items() if n.split(".")[0] == layer]
        out[f"{layer}.calls"] = sum(e["calls"] for e in mine) / passes
        out[f"{layer}.self_s"] = sum(e["self_s"] for e in mine) / passes
    return out


def host_facts() -> dict:
    facts = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "commit": _commit(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                facts["cpu_model"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        facts["cpu_model"] = "unknown"
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data") and level in ("2", "3"):
            facts[f"l{level}_cache"] = size
    return facts


def _commit() -> str:
    """The checkout's git commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        bncagg = import_package()
        workload = build_workload(bncagg, args)
    except (ImportError, OSError, KeyError, ValueError) as exc:
        print(f"error: cannot set up the benchmark: {exc!r}", file=sys.stderr)
        return 2
    if args.setup_probe:
        print("ready", flush=True)
        return 0

    setup_runs = 0 if args.trace else SETUP_RUNS[args.size]
    measure_setup(args, min(setup_runs, 1))  # warm-up: bytecode and file caches
    setup_times = measure_setup(args, setup_runs)
    log = CheckLog()
    budget = args.seconds / 2 if args.trace else args.seconds
    walls, cpus, rates, outputs, calibrations = run_passes(workload, log, until=budget, count=None)
    setup_times += measure_setup(args, setup_runs)
    calib_walls = [wall for wall, _ in calibrations]
    calib_median = statistics.median(calib_walls)
    pass_median = statistics.median(walls)
    ref_median = to_reference(pass_median, calib_median)
    points = workload.points(outputs)
    tail_value, tail_beyond = tail(walls)
    metrics = {
        "ref_pass_s.median": ref_median,
        "ref_pass_s.tail": to_reference(tail_value, upper_quartile(calib_walls)),
        "ref_pass_cpu_s.median": to_reference(
            statistics.median(cpus), statistics.median(cpu for _, cpu in calibrations)
        ),
        "ref_points_per_s": points / ref_median,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "pass_s.median": pass_median,
        "pass_s.tail": tail_value,
        "pass_cpu_s.median": statistics.median(cpus),
        "points_per_s": points / pass_median,
        "calibration_s.median": calib_median,
        "calibration_s.q3": upper_quartile(calib_walls),
    }
    if setup_times:
        metrics["setup_s"] = statistics.median(setup_times)
    for name, _ in MC_RATES:
        values = [r[name] for r in rates if name in r]
        metrics[name] = statistics.median(values) if values else 0.0

    traced_walls: list[float] = []
    if args.trace:
        with Tracer() as tracer:
            traced = run_passes(workload, log, until=None, count=workload.traced_passes)
        traced_walls = traced[0]
        OUT_DIR.mkdir(exist_ok=True)
        tracer.save(OUT_DIR / f"spans-{args.workload}-{args.size}.npz")
        metrics.update(per_layer_metrics(tracer.summary(), len(traced_walls)))
        traced_median = to_reference(statistics.median(traced_walls), statistics.median(w for w, _ in traced[4]))
        metrics["trace.overhead_frac"] = traced_median / ref_median - 1.0

    catalog = _per_layer_catalog() if args.trace else END_TO_END
    reported = {name: {"value": metrics.get(name, 0.0), "unit": unit} for name, unit in catalog}
    failed_frac = log.failed / log.attempted
    lines = [f"workload {args.workload} size {args.size} seed {args.seed} trace {args.trace}"]
    lines += [f"{name} = {m['value']:.6g} {m['unit']}" for name, m in reported.items()]
    if not args.trace:
        lines.append(
            f"ref_* metrics are in reference seconds: calibration median {calib_median:.6g} s and upper "
            f"quartile {metrics['calibration_s.q3']:.6g} s in this run, {CALIBRATION_REF_S} s as reference"
        )
        lines += [f"{name} = {metrics[name]:.6g} {unit} (raw, not gated)" for name, unit in RAW]
        lines.append(f"the tails are p80 of {len(walls)} timed passes, with {tail_beyond} passes beyond it")
        lines += [f"{name} = {metrics[name]:.6g} {unit}" for name, unit in MC_RATES if metrics[name]]
        lines.append(f"setup_s is the median of {len(setup_times)} fresh-interpreter set-ups")
    lines.append(f"failed_frac = {failed_frac:.6g} ratio ({log.failed} of {log.attempted} checks failed)")
    lines += workload.info(outputs)
    lines += [f"check failed: {what}" for what in log.failures]
    host = host_facts()
    lines.append("host " + json.dumps(host, sort_keys=True))
    print("\n".join(lines))

    record = {
        "workload": args.workload,
        "size": args.size,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "host": host,
        "pass_s": walls,
        "pass_cpu_s": cpus,
        "traced_pass_s": traced_walls,
        "setup_s": setup_times,
        "calibration_s": calibrations,
        "tail_beyond": tail_beyond,
        "failed_frac": failed_frac,
        "metrics": metrics,
        "failures": log.failures,
    }
    OUT_DIR.mkdir(exist_ok=True)
    name = f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    result = {
        "correct": log.failed == 0,
        "attempted": log.attempted,
        "failed": log.failed,
        "metrics": reported,
    }
    print(json.dumps(result), flush=True)
    return 0 if log.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
