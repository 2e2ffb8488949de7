#!/usr/bin/env python3
"""The simulator benchmark: one command, three workloads, every metric.

Run from the root of a checkout::

    python3 simbench/run.py                          # all three workloads
    python3 simbench/run.py --workload paper-grid --seed 3 --seconds 10
    python3 simbench/run.py --workload service-overload --trace 1

Workloads (each a closed loop of trials on the host, run serially in this
process with no worker pool and no result cache):

``paper-grid``
    Single collectives of the paper's Figures 3-4 on the 16 CP / 16 IOP /
    16 disk machine: DDIO and TC x patterns rb, rcb, wb, wcb x 8 B and 8 KB
    records x random-blocks and contiguous layouts, 1 MB files.
``service-overload``
    The default service family at 16 req/s (about 2x saturation): 70%
    reads over 16 random-layout 1 MB files, K=4 FIFO admission, fcfs disks.
``degraded-flash-writes``
    The same load at 30% reads on ``device="ssd"`` with parity and
    checksums; drive 3 fail-stops at 0.5 s and rebuilds onto the spare.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` also profiles
one block and prints the per-layer metrics, then writes the spans and the
profile to ``.simbench_out/``.  Each metric is printed by name with its
unit and sample count, then ``sim_digest``; the last line is one JSON
object.  The exit code is 1 when any trial raised, hit the watchdog, broke
byte conservation, lost or failed bytes, or did not reproduce its digest.
Host times are reported in reference seconds (see ``bench.HostClock``),
so that the shared host's changes of speed cancel out of them.
"""

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _print_metric(name, value, unit, count=None, count_unit=""):
    suffix = f"  (n={count} {count_unit})" if count is not None else ""
    print(f"  {name:28s} {value!r:>24} {unit}{suffix}")


def run_workload(bench, name, seed, seconds, trace):
    """Measure one workload; print its report; return (metrics, ok, n, f)."""
    run = bench.measure(name, seed, seconds)
    attempted, failed = bench.attempted_failed(run)
    print(f"{name} seed={seed}: {len(run.block_runs)} block runs "
          f"({len(run.block_runs) / len(run.blocks):.2f} cycles) "
          f"in {run.wall_s:.1f} s")
    for error in run.errors:
        print(f"FAILED {error}", file=sys.stderr)
    if not run.complete:
        return {}, False, attempted, max(failed, 1)

    metrics = {}
    e2e = bench.end_to_end(run)
    _, counts = bench.sim_metrics(run)
    print("end-to-end:")
    for metric, (value, unit) in e2e.items():
        method = metric.rsplit("_", 1)[-1]
        if metric.startswith("sim_p"):
            count, count_unit = counts[method], (
                "collectives" if name == "paper-grid" else "sessions")
        elif metric.startswith("host_") or metric == "setup_s":
            count, count_unit = len(run.block_runs), "block runs"
        else:
            count, count_unit = None, ""
        _print_metric(metric, value, unit, count, count_unit)
        if not trace:
            metrics[metric] = {"value": value, "unit": unit}
    _print_metric("error_rate", failed / attempted, "fraction", attempted,
                  "attempted")
    _print_metric("host_speed", bench.host_speed(run), "ref s / host s",
                  len(run.clock.slices), "reference slices")
    print(f"  sim_digest {bench.sim_digest(run)}")

    if trace:
        traced, profiler = bench.trace_block(run)
        digests = [outcome.digest for outcome in traced]
        ok = all(not outcome.error and not outcome.failed
                 for outcome in traced) \
            and digests == run.digests[:len(digests)]
        if not ok:
            print(f"FAILED {name}: traced block diverged", file=sys.stderr)
            return {}, False, attempted, max(failed, 1)
        layer = bench.per_layer(run, traced, profiler)
        print("per-layer (host self times from one cProfile'd block):")
        for metric in sorted(layer):
            value, unit, count, count_unit = layer[metric]
            _print_metric(metric, value, unit, count, count_unit)
            metrics[metric] = {"value": value, "unit": unit}
        _, _, _, top = bench.profile_layers(profiler)
        out = ROOT / ".simbench_out"
        out.mkdir(exist_ok=True)
        path = out / f"trace-{name}-s{seed}.json"
        path.write_text(json.dumps({
            "workload": name, "seed": seed, "host": bench.host_description(),
            "per_layer": layer,
            "top_functions": [{"tottime_s": t, "calls": c, "function": f}
                              for t, c, f in top],
            "spans": run.log.spans}) + "\n")
        print(f"  wrote {path.relative_to(ROOT)}")
    return metrics, True, attempted, failed


def _reset_peak_rss():
    """Restart the kernel's peak-RSS mark so each workload of an ``all`` run
    reports its own peak (Linux only; otherwise the peak is cumulative)."""
    try:
        with open("/proc/self/clear_refs", "w", encoding="ascii") as refs:
            refs.write("5")
    except OSError:
        pass


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        help="paper-grid | service-overload | "
                             "degraded-flash-writes | all (default)")
    parser.add_argument("--seed", type=int, default=1,
                        help="workload seed: every trial seed derives from it")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="minimum measured host seconds per workload "
                             "(at least one full cycle always runs)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: also profile one block, report per-layer "
                             "metrics and write spans")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir() \
            or not (ROOT / "benchmarks" / "profile_kernel.py").is_file():
        print(f"error: {ROOT} holds no simulator source (src/repro)",
              file=sys.stderr)
        return 2
    for path in (str(ROOT), str(ROOT / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)
    from simbench import bench

    names = bench.WORKLOADS if args.workload == "all" else (args.workload,)
    if any(name not in bench.WORKLOADS for name in names):
        parser.error(f"unknown workload {args.workload!r}")
    metrics, correct, attempted, failed = {}, True, 0, 0
    for name in names:
        if len(names) > 1:
            _reset_peak_rss()
        workload_metrics, ok, n, f = run_workload(
            bench, name, args.seed, args.seconds, args.trace)
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update({prefix + key: value
                        for key, value in workload_metrics.items()})
        correct, attempted, failed = correct and ok, attempted + n, failed + f
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
