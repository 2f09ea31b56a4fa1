#!/usr/bin/env python3
"""Benchmark of the aisemiring workbench: one command reports everything.

    python3 perfbench/run.py --workload census|queries|criteria \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ./src.  The
lines before the last one are a human-readable report: machine details,
every metric with its unit and sample count, the raw wall times and host
factor behind the end-to-end times (see hostspeed.py), and the finer
figures of each workload in raw wall time (census4_s, census4_workers2_s,
census.busy_cores; queries_s, check_hold_p50_ms, check_fail_p50_ms,
check_p99_ms, hom_p50_ms; sweep_comparisons_per_s; failed_ratio; with
--trace 1 the time, self time and calls of every span name).  The run and
the processes it starts keep to one CPU, except the parallel census.  The
last line is one JSON object with the keys correct, attempted, failed and
metrics: the end-to-end metrics of BENCHMARK.json with --trace 0, the
per-layer metrics with --trace 1.
Results, input digests and (with --trace 1) the gzipped spans go to
perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 8  # fresh processes timed for setup_s, besides the run itself
SETUP_SAMPLES = 9  # host-speed samples right after each set-up

sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
from hostspeed import HostSpeed  # noqa: E402
from tracing import NoTracer, Tracer  # noqa: E402


def _import_workloads():
    src = ROOT / "src"
    if not (src / "aisemiring" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program source under {src}")
    sys.path.insert(0, str(src))
    import workloads

    return workloads


def _timed_setup(workload: str, tracer):
    t0 = time.perf_counter()
    wl = _import_workloads()
    world = wl.setup(workload, tracer)
    return wl, world, time.perf_counter() - t0


def _setup_speed() -> float:
    """Host factor right after a set-up, to scale that set-up's wall time."""
    speed = HostSpeed()
    speed.sample(SETUP_SAMPLES)
    return speed.factor()


def _probe_setups(workload: str) -> list[tuple[float, float]]:
    """(wall time, host factor) of the set-up in fresh processes."""
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--probe-setup"],
            capture_output=True, text=True, timeout=170, cwd=str(ROOT), check=True,
        )
        wall, factor = proc.stdout.split()[-2:]
        out.append((float(wall), float(factor)))
    return out


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest child (census workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024


def high_percentile(values) -> tuple:
    """(p, value) for the highest of p99/p95/p90/p75 with at least ten samples beyond it."""
    ordered = sorted(values)
    for p in (99, 95, 90, 75):
        rank = math.ceil(len(ordered) * p / 100)
        if len(ordered) - rank >= 10:
            return p, ordered[rank - 1]
    return None, None


def _timing_line(name: str, seconds, scale: float, unit: str) -> str:
    p50 = statistics.median(seconds) * scale
    p, high = high_percentile(seconds)
    tail = f"  p{p} {high * scale:.4f}" if p else ""
    return f"{name:<28} p50 {p50:.4f}{tail} {unit}  (n={len(seconds)})"


def _report(workload: str, ops, info: dict) -> list[str]:
    """The finer figures of one untraced run, one line each."""
    lines = []
    lat = ops.latency
    if workload == "census":
        lines.append(_timing_line("census4_s", lat["pass"], 1, "s"))
        lines.append(_timing_line(f"census4_workers{info['workers']}_s", ops.batches, 1, "s"))
        lines.append(f"{'census.busy_cores':<28} p50 {info['census.busy_cores']:.4f}  (n={len(ops.batches)})")
    elif workload == "queries":
        lines.append(_timing_line("queries_s", ops.batches, 1, "s"))
        lines.append(_timing_line("check_hold_p50_ms", lat["check_hold"], 1e3, "ms"))
        lines.append(_timing_line("check_fail_p50_ms", lat["check_fail"], 1e3, "ms"))
        checks = lat["check_hold"] + lat["check_fail"]
        p, high = high_percentile(checks)
        lines.append(f"{'check_p99_ms':<28} p{p} {high * 1e3:.4f} ms  (n={len(checks)})")
        lines.append(_timing_line("hom_p50_ms", lat["hom"], 1e3, "ms"))
        lines.append(_timing_line("tail_p50_ms", lat["tail"], 1e3, "ms"))
    else:
        rate = ops.attempted / sum(ops.batches)
        lines.append(f"{'sweep_comparisons_per_s':<28} {rate:.1f} 1/s  (n={ops.attempted})")
    lines.append(f"{'failed_ratio':<28} {ops.failed / max(ops.attempted, 1):.6f}  (n={ops.attempted})")
    return lines


def run(args) -> dict:
    tracer = Tracer() if args.trace else NoTracer()
    wl, world, setup_s = _timed_setup(args.workload, tracer)
    info: dict = {}
    digests: list = []
    if args.trace:
        if args.workload == "census":
            ops, extra = wl.trace_census(tracer)
        elif args.workload == "queries":
            ops, extra, digests = wl.trace_queries(tracer, world, args.seed)
        else:
            ops, extra, digests = wl.trace_criteria(tracer, world, args.seed)
        values, units = wl.per_layer(tracer, extra), wl.PER_LAYER
        samples = {name: 1 for name in values}
        report = [
            f"span {name:<30} outer {outer:.4f} s  self {own:.4f} s  calls {calls}"
            for name, (outer, own, calls) in sorted(tracer.totals().items())
        ] + [f"{name:<28} {value:.4f}" for name, value in extra.items() if name not in units]
    else:
        setups = [(setup_s, _setup_speed())]
        speed = HostSpeed()
        if args.workload == "census":
            ops, info = wl.run_census(args.seconds, speed)
            op_seconds = ops.latency["pass"]
        elif args.workload == "queries":
            ops, digests = wl.run_queries(world, args.seed, args.seconds, speed)
            op_seconds = [s for kind in ("check_hold", "check_fail", "hom", "tail") for s in ops.latency[kind]]
        else:
            ops, digests = wl.run_criteria(world, args.seed, args.seconds, speed)
            op_seconds = ops.latency["row"]
        peak = _peak_rss_mb()
        setups += _probe_setups(args.workload)
        values = {
            "setup_s": statistics.median(wall / factor for wall, factor in setups),
            "batch_s": statistics.median(ops.scaled_batches),
            "op_p50_ms": statistics.median(ops.scaled_ops) * 1e3,
            "peak_rss_mb": peak,
        }
        units = wl.END_TO_END
        samples = {"setup_s": len(setups), "batch_s": len(ops.scaled_batches),
                   "op_p50_ms": len(ops.scaled_ops), "peak_rss_mb": 1}
        factor = speed.factor()
        report = [
            _timing_line("raw_setup_s", [wall for wall, _ in setups], 1, "s"),
            _timing_line("raw_batch_s", ops.batches, 1, "s"),
            _timing_line("raw_op_ms", op_seconds, 1e3, "ms"),
            f"{'host_factor':<28} p50 {factor:.4f}  (n={len(speed.samples)}; kernel p50 "
            f"{statistics.median(speed.samples) * 1e3:.4f} ms, quiet {hostspeed.REFERENCE_S * 1e3:.4f} ms)",
        ] + _report(args.workload, ops, info)

    machine = {
        "nproc": wl.nproc(),
        "python": platform.python_version(),
        "cpu": _cpu_model(),
        "census_workers": wl.census_workers(),
    }
    inputs_digest = wl.inputs.digest(digests)
    print(f"# machine: nproc={machine['nproc']} python={machine['python']} "
          f"cpu={machine['cpu']!r} census_workers={machine['census_workers']}")
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace} "
          f"inputs_sha256={inputs_digest}")
    for name, value in values.items():
        print(f"{name:<28} {value:.6g} {units[name]}  (n={samples[name]})")
    for line in report:
        print(line)
    for error in ops.errors:
        print(f"# FAILED {error}")

    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT / f"result-{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({"machine": machine, "args": vars(args), "inputs_sha256": inputs_digest,
                   "metrics": metrics, "report": report, "errors": ops.errors}, fh, indent=1)
    if args.trace:
        tracer.dump(str(OUT / f"spans-{stem}.json.gz"), {"machine": machine, "metrics": metrics})
    return {"correct": ops.failed == 0, "attempted": ops.attempted, "failed": ops.failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=("census", "queries", "criteria"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    hostspeed.pin()
    if args.probe_setup:
        wall = _timed_setup(args.workload, NoTracer())[2]
        print(wall, _setup_speed())
        return 0
    result = run(args)
    sys.stdout.flush()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
