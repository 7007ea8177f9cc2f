"""pickroute benchmark: one workload per run, outputs checked on every op.

Run from the repository root:

    python3 perfbench/run.py --workload layout-sweep --seed 17 --seconds 30 --trace 0

The run makes whole passes over the workload's op list for at most
``--seconds`` (but at least the workload's minimum number of passes).  With
``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced passes and reports the per-layer metrics.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``, where ``attempted`` counts every op
and every set-up request; the line before it records the run's details and
environment.  A copy of both, with every raw op and probe time, and the spans
of a traced run go to ``.bench_out/``.
Each run is one process on one thread: the BLAS/OpenMP thread counts are
pinned to 1 before numpy loads.

Shared hosts change speed by tens of percent over seconds to tens of
seconds, which no median inside a 30 s run can remove.  So times are reported
at a fixed reference host speed: a probe, a fixed piece of work like the
workload's own, is timed before the first op of a pass and after every op
(and around each set-up launch), and each op's time is multiplied by the
probe's reference time over the mean of the probes on either side of it.
Interpreter-bound work uses a pure-Python loop (``python_probe``), the Monte
Carlo workload a small numpy sort and gather (``numpy_probe``).  The raw times
are kept in the details line.
"""
from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
SETUP_LAUNCHES = 5          # measured launches; one more before them warms caches
TAIL_PERCENTILES = (99, 95, 90, 75, 50)
LIMITS = ("no system-wide tracing or profiling: times are wall-clock inside the benchmark "
          "process, and spans come from wrappers around pickroute's public calls")


def tail_value(op_latencies, pct: float) -> float:
    """The highest op latency with at least (100 - pct)% of the ops above it,
    so that the samples beyond it are at least as many as the percentile
    promises."""
    ordered = sorted(op_latencies)
    return ordered[max(math.floor(pct / 100 * len(ordered)) - 1, 0)]


def op_medians(passes: list[list[float]]) -> list[float]:
    """Each op's median latency over the run's passes.  The end-to-end op
    metrics are taken over these, so that a slow pass and a fast pass do not
    swap neighbouring ops across a percentile."""
    return [statistics.median(column) for column in zip(*passes)]


def tail_percentile(samples_guaranteed: int) -> int:
    """Highest percentile with at least ten samples beyond it.  It is fixed per
    workload from the op count every run reaches, so runs that make more
    passes still report the same percentile."""
    for pct in TAIL_PERCENTILES:
        if samples_guaranteed * (100 - pct) / 100 >= 10:
            return pct
    return 50


def measure_setup(reference: dict, setup_code: str, close, failures: list) -> tuple[float, float]:
    """Median time, raw and at the reference host speed, of fresh interpreters
    importing pickroute and answering one tiny request; a launch that fails or
    answers wrongly adds to failures."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    raw, scaled = [], []
    probe = python_probe()
    for launch in range(SETUP_LAUNCHES + 1):
        start = perf_counter()
        proc = subprocess.run([sys.executable, "-c", setup_code], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120)
        elapsed = perf_counter() - start
        after = python_probe()
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            failures.append(f"set-up request: exit status {proc.returncode}: {proc.stderr[-500:]}")
        elif not Path(lines[0]).resolve().is_relative_to(SRC):
            failures.append(f"set-up request: imported pickroute from {lines[0]}, not {SRC}")
        else:
            answers = dict(line.split(" ", 1) for line in lines[1:])
            failures.extend(f"set-up request: {h} E_T = {answers.get(h)}, reference {want}"
                            for h, want in reference.items()
                            if h not in answers or not close(float(answers[h]), want))
        if launch:
            raw.append(elapsed)
            scaled.append(elapsed * host_scale("python", probe, after))
        probe = after
    return statistics.median(raw), statistics.median(scaled)


def python_probe() -> float:
    """Time of a fixed pure-Python loop: a gauge of how fast the host runs
    interpreter-bound work at the moment."""
    start = perf_counter()
    total = 0
    for i in range(400_000):
        total += i * i
    return perf_counter() - start


_SORT_KEYS = None


def numpy_probe() -> float:
    """Time of a fixed lexsort and gather of 100 000 rows: a gauge of how fast
    the host runs Monte Carlo style numpy work at the moment."""
    global _SORT_KEYS
    import numpy as np

    if _SORT_KEYS is None:
        rng = np.random.default_rng(0)
        _SORT_KEYS = rng.integers(0, 1000, size=(2, 100_000)), rng.random(100_000)
    keys, values = _SORT_KEYS
    start = perf_counter()
    np.cumsum(values[np.lexsort(keys)])
    return perf_counter() - start


# Probe -> its time at the reference host speed (a fast spell of the host
# the benchmark was built on).
PROBES = {"python": (python_probe, 0.025), "numpy": (numpy_probe, 0.018)}


def host_scale(probe: str, before: float, after: float) -> float:
    """Factor that converts a time measured between two probes to the reference host speed."""
    return PROBES[probe][1] / ((before + after) / 2)


def run_pass(ops, failures: list, probe: str) -> tuple[list[float], list[float], list[float]]:
    """One pass over the op list, with the host probe timed before the first
    op and after every op.  Returns the op latencies, the op times including
    their checks, and the probe times (one more than ops)."""
    measure = PROBES[probe][0]
    probes = [measure()]
    latencies, spent = [], []
    for op in ops:
        t0 = perf_counter()
        latency = None
        try:  # a failing call or check is counted, never fatal
            result = op.call()
            latency = perf_counter() - t0
            error = op.check(result)
        except Exception as exc:
            if latency is None:
                latency = perf_counter() - t0
            traceback.print_exc()
            error = f"{type(exc).__name__}: {exc}"
        spent.append(perf_counter() - t0)
        probes.append(measure())
        latencies.append(latency)
        if error is not None:
            failures.append(f"{op.label}: {error}")
    return latencies, spent, probes


def git_commit():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                              timeout=30, env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def declared_units(trace: int) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this kind of run."""
    with open(BENCHMARK_JSON, encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if trace else "end_to_end"]
    return {m["name"]: m["unit"] for m in declared}


def environment() -> dict:
    import mpmath
    import numpy
    import scipy

    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "commit": git_commit(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "limits": LIMITS,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=17)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    try:
        import pickroute
        import workloads
        from tracing import Tracer
    except ImportError as exc:
        print(f"error: cannot import pickroute from {SRC}: {exc}", file=sys.stderr)
        return 2
    if not Path(pickroute.__file__).resolve().is_relative_to(SRC):
        print(f"error: pickroute was imported from {pickroute.__file__}, not {SRC}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; expected one of {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2

    OUT_DIR.mkdir(exist_ok=True)
    reference = workloads.load_reference()
    ctx = workloads.Context(args.seed, reference, OUT_DIR)
    tracer = Tracer()
    modes = {"plain": workload.build(ctx, pickroute.parse_dist_spec)}
    if args.trace:
        modes["traced"] = workload.build(ctx, lambda spec: tracer.counted(pickroute.parse_dist_spec(spec)))
    ops_per_pass = len(modes["plain"])
    min_passes = 1 if args.trace else workload.min_passes
    tail_pct = tail_percentile(ops_per_pass * min_passes)

    failures = []
    attempted = 0
    setup_raw_s = setup_s = None
    if not args.trace:
        setup_raw_s, setup_s = measure_setup(reference["setup"], workloads.SETUP_CODE,
                                             workloads.close, failures)
        attempted += SETUP_LAUNCHES + 1

    # Per mode and pass: raw wall time, wall time and op latencies at the
    # reference host speed.
    raw_walls = {mode: [] for mode in modes}
    walls = {mode: [] for mode in modes}
    latencies = {mode: [] for mode in modes}
    samples = {mode: [] for mode in modes}    # raw per-op times and probes, for the output file
    if args.trace:
        # Unmeasured first pass, so that traced and untraced passes compare warm.
        attempted += len(run_pass(modes["plain"], failures, workload.probe)[0])
    start = perf_counter()
    while True:
        round_start = perf_counter()
        for mode in ("traced", "plain") if args.trace else ("plain",):
            with tracer.installed() if mode == "traced" else nullcontext():
                lat, spent, probes = run_pass(modes[mode], failures, workload.probe)
            factors = [host_scale(workload.probe, a, b) for a, b in zip(probes, probes[1:])]
            raw_walls[mode].append(sum(spent))
            walls[mode].append(sum(t * f for t, f in zip(spent, factors)))
            latencies[mode].append([t * f for t, f in zip(lat, factors)])
            samples[mode].append({"latencies_s": lat, "spent_s": spent, "probes_s": probes})
            attempted += len(lat)
        # Stop before a further round would end past the time limit.
        now = perf_counter()
        if len(raw_walls["plain"]) >= min_passes and (now - start) + (now - round_start) > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    scales = {mode: [w / r for w, r in zip(walls[mode], raw_walls[mode])] for mode in modes}
    plain = op_medians(latencies["plain"])
    if args.trace:
        metrics = tracer.metrics(len(walls["traced"]), statistics.mean(scales["traced"]))
        metrics["trace.wall_s"] = statistics.median(walls["traced"])
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - statistics.median(walls["plain"])
    else:
        metrics = {"setup_s": setup_s, "wall_s": statistics.median(walls["plain"]),
                   "op_p50_s": statistics.median(plain), "op_tail_s": tail_value(plain, tail_pct),
                   "peak_rss_mb": peak_rss_mb}
    units = declared_units(args.trace)
    if set(units) != set(metrics):
        print(f"error: reported metrics differ from {BENCHMARK_JSON.name}: "
              f"{sorted(set(units) ^ set(metrics))}", file=sys.stderr)
        return 1

    details = {
        "workload": workload.name,
        "seed": args.seed,
        "seed_changes_inputs": workload.uses_seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "raw_setup_s": setup_raw_s,
        "raw_pass_walls_s": raw_walls,
        "host_scales": scales,
        "host_probe": workload.probe,
        "host_probe_s": statistics.median(x for mode in modes for p in samples[mode] for x in p["probes_s"]),
        "ops_per_pass": ops_per_pass,
        "op_tail_percentile": tail_pct,
        "op_medians_s": {op.label: x for op, x in zip(modes["plain"], plain)},
        "op_samples": len(plain) * len(latencies["plain"]),
        "op_samples_beyond_tail": len(latencies["plain"]) * sum(
            1 for x in plain if x > metrics.get("op_tail_s", math.inf)),
        "error_rate": len(failures) / attempted,
        "failures": failures[:20],
        "environment": environment(),
    }
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures),
              "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}}
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    with open(OUT_DIR / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({"details": details, "result": result, "samples": samples}, fh, indent=1)
    if args.trace:
        tracer.write_spans(OUT_DIR / f"{stem}-spans.jsonl")
    for failure in failures[:20]:
        print(f"failed: {failure}", file=sys.stderr)
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
