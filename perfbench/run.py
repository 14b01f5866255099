"""Run one workload of the benchmark and print its metrics.

    python3 perfbench/run.py --workload check_corpus --seed 1 --seconds 25 --trace 0

Run from the root of the repository.  One client drives the code under
test closed-loop, in this one process and thread: the next op starts only
after the previous one returned and its output was checked.

``--trace 0`` prints the end-to-end metrics named in ``BENCHMARK.json``.
``--trace 1`` prints the per-layer metrics instead: from a fresh start it
alternates an untraced op with a traced one, in which every layer's
public function is timed from outside (see ``workloads.py``).  Layers a
workload does not reach report 0.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds details such as the tail percentile and its sample count.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from statistics import median  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Set-up runs per process; ``setup_s`` reports their median.
SETUP_RUNS = 3
#: The tail is the highest percentile with at least this many samples beyond it.
TAIL_SAMPLES = 10
#: What ``probe_ms()`` takes on the reference host.  On a shared 2-core
#: host, other tenants' work on the same cores slows every process by up to
#: 1.7x for tens of seconds at a time.  So every end-to-end time is scaled
#: by this over the mean of the probes run just before and just after it,
#: which reports it at reference host speed.  The detail line keeps the
#: raw figures.
REF_PROBE_MS = 2.5


def loop_ms(iterations: int) -> float:
    """A fixed pure-Python loop, timed: the host's current speed."""
    started = time.perf_counter()
    total = 0
    for value in range(iterations):
        total += value
    return (time.perf_counter() - started) * 1000.0


def probe_ms() -> float:
    return loop_ms(60_000)


def at_reference_speed(elapsed: float, before: float, after: float) -> float:
    """``elapsed`` as it would read on the reference host, given the probes
    timed just before and just after it."""
    return elapsed * 2.0 * REF_PROBE_MS / (before + after)


def calibrate_ms() -> float:
    return loop_ms(2_000_000)


def run_op(workload, index: int):
    """One untraced op: ``(latency_ms, output_correct)``."""
    request = workload.request(index)
    started = time.perf_counter()
    try:
        output = workload.call(request)
    except Exception:
        traceback.print_exc()
        return (time.perf_counter() - started) * 1000.0, False
    latency = (time.perf_counter() - started) * 1000.0
    if not workload.check(request, output):
        print(f"op {index}: wrong output", file=sys.stderr)
        return latency, False
    return latency, True


def tail(latencies):
    """``(value, percentile, samples_beyond)`` of the tail."""
    ordered = sorted(latencies)
    position = len(ordered) - 1
    if len(ordered) > TAIL_SAMPLES:
        position -= TAIL_SAMPLES
    beyond = len(ordered) - position - 1
    return ordered[position], 100.0 * (position + 1) / len(ordered), beyond


def end_to_end(workload, seconds: float, setup_s: float):
    latencies, scaled, probes, failed = [], [], [probe_ms()], 0
    index = workload.warmup_ops
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        latency, ok = run_op(workload, index)
        probes.append(probe_ms())
        latencies.append(latency)
        scaled.append(at_reference_speed(latency, probes[-2], probes[-1]))
        failed += not ok
        index += 1
    tail_ms, tail_pct, beyond = tail(scaled)
    metrics = {
        "setup_s": setup_s,
        "p50_ms": median(scaled),
        "tail_ms": tail_ms,
        "ops_per_s": (len(scaled) - failed) / (sum(scaled) / 1000.0),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    details = {
        "ops": len(latencies),
        "tail_percentile": tail_pct,
        "tail_samples_beyond": beyond,
        "raw_p50_ms": median(latencies),
        "raw_tail_ms": tail(latencies)[0],
        "raw_ops_per_s": (len(latencies) - failed) / (sum(latencies) / 1000.0),
        "probe_ms": median(probes),
        "calib_ms": calibrate_ms(),
    }
    return metrics, len(latencies), failed, details


def per_layer(workload, seconds: float):
    """Pairs of one untraced op and one traced op, from a fresh start.

    Pairing keeps host-speed drift out of the coverage ratio.  Counts come
    from the first ``traced_ops`` pairs only, so they repeat exactly for a
    seed; times come from every pair.
    """
    workload.restart()
    gc.collect()
    gc.freeze()
    untraced, sums, walls = [], [], []
    times, counts = {}, {}
    failed = 0
    index = 0
    deadline = time.perf_counter() + seconds
    while index < workload.traced_ops or time.perf_counter() < deadline:
        latency, ok = run_op(workload, index)
        untraced.append(latency)
        failed += not ok
        started = time.perf_counter()
        try:
            ok, parts, layer_times, layer_counts = workload.traced(index)
        except Exception:
            traceback.print_exc()
            ok, parts, layer_times, layer_counts = False, {}, {}, {}
        walls.append((time.perf_counter() - started) * 1000.0)
        failed += not ok
        sums.append(sum(parts.values()))
        for name, value in {**parts, **layer_times}.items():
            times.setdefault(name, []).append(value)
        if index < workload.traced_ops:
            for name, value in layer_counts.items():
                counts.setdefault(name, []).append(value)
        index += 1
    measured = {name: median(values) for name, values in times.items()}
    measured.update({name: median(values) for name, values in counts.items()})
    measured.update(workload.once())
    untraced_ms = median(untraced)
    measured["bench.trace_coverage"] = median(sums) / untraced_ms
    measured["bench.trace_overhead_ms"] = median(walls) - untraced_ms
    measured["bench.calib_ms"] = calibrate_ms()
    details = {
        "pairs": index,
        "untraced_p50_ms": untraced_ms,
        "layers_measured": sorted(measured),
    }
    return measured, 2 * index, failed, details


def run_all(spec, args) -> int:
    """Every workload, each in its own fresh process, one after another.

    The last line merges their results, with metric names prefixed by the
    workload's name."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in spec["workloads"]:
        name = workload["name"]
        done = subprocess.run(
            [
                sys.executable,
                os.path.abspath(__file__),
                "--workload", name,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--trace", str(args.trace),
            ],
            stdout=subprocess.PIPE,
            text=True,
            check=True,
        )
        result = json.loads(done.stdout.splitlines()[-1])
        print(name, json.dumps(result), flush=True)
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, help="a workload name, or 'all'"
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    if args.workload == "all":
        return run_all(spec, args)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from workloads import WORKLOADS

    import_s = time.perf_counter() - STARTED
    if args.workload not in WORKLOADS:
        parser.error(
            f"unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}"
        )
    factory = WORKLOADS[args.workload]

    probes = [probe_ms()]
    setup_times, scaled = [], []
    for _ in range(SETUP_RUNS):
        workload = None
        gc.collect()
        started = time.perf_counter()
        workload = factory(args.seed)
        workload.setup()
        for index in range(workload.warmup_ops):
            workload.call(workload.request(index))
        setup_times.append(time.perf_counter() - started)
        probes.append(probe_ms())
        scaled.append(at_reference_speed(setup_times[-1], probes[-2], probes[-1]))
    workload.expect()
    # Inputs and reference answers live for the whole run: keep the
    # collector from rescanning them inside timed ops.
    gc.collect()
    gc.freeze()
    setup_s = at_reference_speed(import_s, probes[0], probes[0]) + median(scaled)

    if args.trace:
        measured, attempted, failed, details = per_layer(workload, args.seconds)
        wanted = spec["per_layer"]
    else:
        measured, attempted, failed, details = end_to_end(
            workload, args.seconds, setup_s
        )
        wanted = spec["end_to_end"]
    metrics = {
        entry["name"]: {"value": measured.get(entry["name"], 0), "unit": entry["unit"]}
        for entry in wanted
    }
    details.update(
        workload=args.workload,
        seed=args.seed,
        raw_setup_s=import_s + median(setup_times),
        import_s=import_s,
        setup_runs_s=setup_times,
    )
    print(json.dumps(details))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
