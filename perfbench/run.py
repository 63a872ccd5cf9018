"""Closed-loop benchmark of the majorize library and its CLI.

Run from the repository root:

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Each workload is one single-threaded client that sends its next request
only after the previous result came back (a closed loop, one client). The
inputs come from --seed alone. With --trace 0 the run prints the six
end-to-end metrics; with --trace 1 it runs every input twice, once plain
and once with spans around each call into the package, and prints the
per-layer metrics. The last line of stdout is the JSON result, carrying
the metrics BENCHMARK.json lists for that mode.
`--workload all` runs every workload, each in its own process.

Each run leaves, under .perfbench_work/, a record of its environment, host
reference loop, metrics and per-op latencies, and, when traced, its spans;
the next run of the same workload and mode replaces them.
"""

import os

# The client is single-threaded, and a BLAS pool (used by the transfer plan's
# matrix products) only adds run-to-run noise on a small shared host. Set
# before numpy loads; 1 never exceeds nproc.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter, perf_counter_ns  # noqa: E402

from spans import Recorder, summarize  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
NAMES = ("delta_sweep", "large_k", "certify", "cli")
SETUP_REPEATS = 3
# a tail percentile should leave at least this many samples beyond it
TAIL_BEYOND = 10
E2E_UNITS = {
    "setup_s": "s",
    "throughput_ops_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "failed_frac": "frac",
    "peak_rss_mb": "MB",
}


def ref_loop_ms() -> float:
    """Time a fixed pure-Python loop that never touches majorize: host speed."""
    start = perf_counter_ns()
    acc = 0
    for i in range(1_000_000):
        acc += i * i % 7
    return (perf_counter_ns() - start) / 1e6


def load_package():
    """Import numpy, this checkout's majorize and the workloads; return the seconds."""
    start = perf_counter()
    import numpy  # noqa: F401

    sys.path.insert(0, str(SRC))
    try:
        import majorize
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import majorize from {SRC}: {exc}")
    if not Path(majorize.__file__).resolve().is_relative_to(SRC.resolve()):
        sys.exit(f"perfbench: majorize came from {majorize.__file__}, not {SRC}")
    import workloads

    return perf_counter() - start, workloads


def environment() -> dict:
    import numpy

    l3 = Path("/sys/devices/system/cpu/cpu0/cache/index3/size")
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "l3_cache": l3.read_text().strip() if l3.exists() else "unknown",
    }


def measure(wl, workloads, state, seconds: float, recorder) -> dict:
    """Run ops back to back for `seconds`; check each result after its timer stops."""
    plain = workloads.make_lib()
    traced = workloads.make_lib(recorder) if recorder is not None else None
    latencies = {False: [], True: []}
    attempted = failed = 0
    problems: list[str] = []
    deadline = perf_counter_ns() + int(seconds * 1e9)
    i = 0
    while perf_counter_ns() < deadline:
        inp = wl.input(state, i)
        # traced runs pair every input, alternating which pass goes first
        passes = (False,) if traced is None else ((False, True) if i % 2 == 0 else (True, False))
        for is_traced in passes:
            if is_traced:
                recorder.op = i
            attempted += 1
            start = perf_counter_ns()
            try:
                out = wl.op(traced if is_traced else plain, inp)
            except Exception:  # a request that raises counts as failed; keep going
                latencies[is_traced].append(perf_counter_ns() - start)
                failed += 1
                problems.append(traceback.format_exc())
                continue
            latencies[is_traced].append(perf_counter_ns() - start)
            try:
                bad = wl.check(state, inp, out)
            except Exception:  # a result the check cannot read is a wrong result
                bad = [traceback.format_exc()]
            del out
            if bad:
                failed += 1
                problems.extend(bad)
            if is_traced and hasattr(wl, "explain"):
                wl.explain(state, inp, recorder, traced)
        i += 1
    return {"latencies": latencies, "attempted": attempted, "failed": failed, "problems": problems}


def end_to_end(wl, setup_s: float, run: dict, rss_mb: float) -> tuple[dict, str]:
    lat_ns = run["latencies"][False]
    ms = sorted(x / 1e6 for x in lat_ns)
    n = len(ms)
    idx = max(math.ceil(wl.TAIL_PCT / 100.0 * n) - 1, 0)
    beyond = n - 1 - idx
    attempted, failed = run["attempted"], run["failed"]
    metrics = {
        "setup_s": setup_s,
        "throughput_ops_s": (attempted - failed) / (sum(lat_ns) / 1e9),
        "latency_p50_ms": statistics.median(ms),
        "latency_tail_ms": ms[idx],
        "failed_frac": failed / attempted,
        "peak_rss_mb": rss_mb,
    }
    tail_note = f"p{wl.TAIL_PCT} of n={n}, {beyond} beyond"
    if beyond < TAIL_BEYOND:
        tail_note += f" (fewer than {TAIL_BEYOND}: too few ops for this percentile)"
    return metrics, tail_note


def per_layer(workloads, recorder, run: dict, ref_ms: float) -> dict:
    stats = summarize(recorder.spans)
    n_traced = max(len(run["latencies"][True]), 1)
    metrics = {}
    for span in workloads.SPAN_NAMES:
        calls, self_ns, durations = stats.get(span, (0, 0, []))
        metrics[f"{span}.calls"] = calls
        metrics[f"{span}.self_ms"] = self_ns / 1e6 / n_traced
        metrics[f"{span}.p50_us"] = statistics.median(durations) / 1e3 if durations else 0.0
    counts = recorder.counts
    built, k1 = counts["smoothing.constructions"], counts["order.transfer_plan.k1"]
    metrics["smoothing.constructions"] = built
    metrics["smoothing.clamped_frac"] = counts["smoothing.clamped"] / built if built else 0.0
    metrics["order.transfer_plan.steps_per_k1"] = (
        counts["order.transfer_plan.steps"] / k1 if k1 else 0.0
    )
    metrics["schur.brute_force_extremum.samples"] = counts["schur.brute_force_extremum.samples"]
    metrics["host.ref_loop_ms"] = ref_ms
    plain, traced = run["latencies"][False], run["latencies"][True]
    metrics["trace_overhead_frac"] = sum(traced) / sum(plain) - 1.0
    return metrics


def emit(spec_metrics: list, values: dict) -> dict:
    """Every metric BENCHMARK.json lists for this mode, with its unit."""
    missing = [m["name"] for m in spec_metrics if m["name"] not in values]
    if missing:
        sys.exit(f"perfbench: no value for {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec_metrics}


def run_one(args, spec: dict) -> dict:
    ref_start = ref_loop_ms()
    import_s, workloads = load_package()
    wl = workloads.WORKLOADS[args.workload]
    env = environment()
    print(f"workload {wl.name}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    print("env " + "  ".join(f"{k} {v}" for k, v in env.items()))
    if hasattr(wl, "note"):
        print(wl.note)
    WORK.mkdir(exist_ok=True)
    setups = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        state = wl.setup(args.seed, WORK)
        setups.append(perf_counter() - start)
    setup_s = import_s + statistics.median(setups)
    recorder = Recorder() if args.trace else None
    run = measure(wl, workloads, state, args.seconds, recorder)
    ref_end = ref_loop_ms()
    print(f"host.ref_loop_ms  start {ref_start:.3f}  end {ref_end:.3f}")
    for problem in run["problems"][:5]:
        print(f"check failed: {problem}", file=sys.stderr)

    attempted, failed = run["attempted"], run["failed"]
    record = {
        "env": env,
        "ref_loop_ms": [ref_start, ref_end],
        "failed": failed,
        "latencies_ns": run["latencies"][False],
    }
    if args.trace:
        values = per_layer(workloads, recorder, run, (ref_start + ref_end) / 2.0)
        metrics = emit(spec["per_layer"], values)
        spans_path = WORK / f"spans-{wl.name}.jsonl"
        recorder.write(spans_path)
        print(f"{'span':40} {'calls':>8} {'self ms/op':>12} {'p50 us':>12}")
        for span in workloads.SPAN_NAMES:
            if values[f"{span}.calls"]:
                print(
                    f"{span:40} {values[span + '.calls']:8d} "
                    f"{values[span + '.self_ms']:12.4f} {values[span + '.p50_us']:12.2f}"
                )
        counted = [
            m["name"] for m in spec["per_layer"]
            if not m["name"].endswith((".calls", ".self_ms", ".p50_us"))
        ]
        for name in counted:
            print(f"{name:40} {values[name]!r} {metrics[name]['unit']}")
        print(f"spans written to {spans_path}")
        print(f"failed_frac        {failed / attempted!r}  ({failed} of {attempted} ops)")
    else:
        # the cli workload's user-visible memory is that of its child processes
        children = getattr(wl, "rss_of_children", False)
        who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
        rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
        values, tail_note = end_to_end(wl, setup_s, run, rss_mb)
        metrics = emit(spec["end_to_end"], values)
        notes = {
            "setup_s": f"import {import_s:.3f} s + median of {SETUP_REPEATS} set-ups",
            "throughput_ops_s": "completed ops / time inside the timed region",
            "latency_tail_ms": tail_note,
            "failed_frac": f"{failed} of {attempted} ops failed or raised",
        }
        for name, value in values.items():
            print(f"{name:18} {value!r} {E2E_UNITS[name]}  {notes.get(name, '')}")
        record["tail"] = tail_note
    record["metrics"] = metrics
    (WORK / f"run-{wl.name}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def run_all(args) -> dict:
    """Each workload in its own process, one after the other."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        child = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if child.returncode != 0 or not lines:
            sys.exit(f"perfbench: workload {name} exited {child.returncode}")
        result = json.loads(lines[-1])
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            total["metrics"][f"{name}.{metric}"] = value
    return total


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    result = run_all(args) if args.workload == "all" else run_one(args, spec)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
