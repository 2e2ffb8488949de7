#!/usr/bin/env python
"""Per-subsystem event/time budget of the simulation kernel, tracked over time.

Runs the headline trial (the 10 MB disk-directed random-blocks experiment)
under ``cProfile``, aggregates the profile by subsystem (``repro.sim``,
``repro.disk``, ``repro.network``, ...), counts the simulator events the trial
scheduled, and appends the budget to ``BENCH_kernel.json`` — so every future
PR can see *where* the next optimisation lever is without re-deriving the
profile by hand.

Run from the repository root::

    python benchmarks/profile_kernel.py            # full run, appends a record
    python benchmarks/profile_kernel.py --smoke    # 1 MB trial, CI-sized
    python benchmarks/profile_kernel.py --case tc_random_rcb8_1mb  # TC chunk walk
    python benchmarks/profile_kernel.py --no-append --top 20   # just print

The recorded ``profile`` block looks like::

    {"case": "ddio_random_rb_10mb", "events": 14570, "wall_s": 0.41,
     "subsystems": {"repro.sim": {"calls": ..., "tottime_s": ..., "share": ...},
                    ...},
     "top_functions": [{"function": "...", "calls": ..., "tottime_s": ...}]}

``share`` is the subsystem's fraction of total in-profiler time; ``events``
is the number of calendar entries the environment allocated end to end.
"""

import argparse
import cProfile
import json
import os
import platform
import pstats
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core import make_filesystem  # noqa: E402
from repro.experiments import ExperimentConfig  # noqa: E402
from repro.experiments.config import MEGABYTE  # noqa: E402
from repro.experiments.runner import build_machine_config  # noqa: E402
from repro.fs import FileSystem  # noqa: E402
from repro.machine import Machine  # noqa: E402
from repro.patterns import make_pattern  # noqa: E402

#: The trials a budget can be measured on.  The default is perf_kernel's
#: headline case; ``tc_random_rcb8_1mb`` drives traditional caching's per-CP
#: chunk walk (1024 chunks of 128 eight-byte records).
CASES = {
    "ddio_random_rb_10mb": ExperimentConfig(
        method="disk-directed", pattern="rb", layout="random",
        record_size=8192, file_size=10 * MEGABYTE),
    "ddio_random_rb_1mb": ExperimentConfig(
        method="disk-directed", pattern="rb", layout="random",
        record_size=8192, file_size=MEGABYTE),
    "tc_random_rcb8_1mb": ExperimentConfig(
        method="traditional-caching", pattern="rcb", layout="random",
        record_size=8, file_size=MEGABYTE),
}

SRC_PREFIX = str(REPO_ROOT / "src" / "repro") + os.sep


def _subsystem_of(filename):
    """Map a profiled filename to its repro subsystem (or a bucket)."""
    if filename.startswith(SRC_PREFIX):
        rest = filename[len(SRC_PREFIX):]
        head = rest.split(os.sep, 1)[0]
        if head.endswith(".py"):
            return "repro"          # top-level module
        return f"repro.{head}"
    if "<" in filename:             # builtins, generator internals
        return "interpreter"
    return "stdlib/other"


def profile_case(config, seed=1):
    """Run one trial under cProfile; return (profile_record, wall_seconds)."""
    machine_config = build_machine_config(config)
    # Build outside the profiler so the budget is the *run*, not machine
    # construction; keep a handle on the environment to count events.
    machine = Machine(machine_config, seed=seed,
                     disk_scheduler=config.disk_scheduler)
    filesystem = FileSystem(machine_config, layout_seed=seed)
    striped_file = filesystem.create_file(
        "experiment-file", config.file_size, layout=config.layout)
    pattern = make_pattern(
        config.pattern, config.file_size, config.record_size, config.n_cps)
    implementation = make_filesystem(config.method, machine, striped_file)

    events_before = machine.env._eid
    profiler = cProfile.Profile()
    start = time.perf_counter()
    profiler.enable()
    implementation.transfer(pattern)
    profiler.disable()
    wall = time.perf_counter() - start
    events = machine.env._eid - events_before

    stats = pstats.Stats(profiler)
    subsystems = {}
    functions = []
    total_tt = 0.0
    for (filename, lineno, funcname), (_cc, ncalls, tottime, cumtime, _callers) \
            in stats.stats.items():
        bucket = subsystems.setdefault(_subsystem_of(filename),
                                       {"calls": 0, "tottime_s": 0.0})
        bucket["calls"] += ncalls
        bucket["tottime_s"] += tottime
        total_tt += tottime
        functions.append({
            "function": f"{Path(filename).name}:{lineno}({funcname})",
            "calls": ncalls,
            "tottime_s": round(tottime, 5),
            "cumtime_s": round(cumtime, 5),
        })
    for bucket in subsystems.values():
        bucket["tottime_s"] = round(bucket["tottime_s"], 5)
        bucket["share"] = round(bucket["tottime_s"] / total_tt, 4) \
            if total_tt else 0.0
    functions.sort(key=lambda row: row["tottime_s"], reverse=True)
    record = {
        "events": events,
        "wall_s": round(wall, 5),
        "events_per_second": int(events / wall) if wall else None,
        "subsystems": dict(sorted(subsystems.items(),
                                  key=lambda item: -item[1]["tottime_s"])),
        "top_functions": functions[:12],
    }
    return record


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized run: profile the 1 MB trial instead")
    parser.add_argument("--case", choices=sorted(CASES), default=None,
                        help="profile this trial (overrides --smoke)")
    parser.add_argument("--seed", type=int, default=1, help="trial seed")
    parser.add_argument("--top", type=int, default=10,
                        help="how many functions to print")
    parser.add_argument("--no-append", action="store_true",
                        help="print the budget without touching the trajectory")
    parser.add_argument("--output", type=Path,
                        default=REPO_ROOT / "BENCH_kernel.json",
                        help="trajectory file to append to")
    parser.add_argument("--label", type=str, default="",
                        help="free-form label recorded with this run")
    args = parser.parse_args(argv)

    case = args.case or (
        "ddio_random_rb_1mb" if args.smoke else "ddio_random_rb_10mb")
    profile = profile_case(CASES[case], seed=args.seed)
    profile["case"] = case

    print(f"{case}: {profile['events']} events in {profile['wall_s']:.3f}s "
          f"under cProfile ({profile['events_per_second']} events/s)")
    print("\nper-subsystem budget (tottime under cProfile):")
    for name, bucket in profile["subsystems"].items():
        print(f"  {name:16s} {bucket['tottime_s']:8.4f}s "
              f"{bucket['share']:7.1%}  {bucket['calls']:8d} calls")
    print(f"\ntop {args.top} functions:")
    for row in profile["top_functions"][:args.top]:
        print(f"  {row['tottime_s']:8.4f}s  {row['calls']:8d}x  {row['function']}")

    if args.no_append:
        return 0

    record = {
        "label": args.label,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "profile": profile,
    }
    trajectory = {"schema": 1, "runs": []}
    if args.output.exists():
        try:
            existing = json.loads(args.output.read_text())
            if isinstance(existing, dict):
                trajectory.update(existing)
                if not isinstance(trajectory.get("runs"), list):
                    trajectory["runs"] = []
        except (json.JSONDecodeError, OSError):
            pass
    trajectory["runs"].append(record)
    args.output.write_text(json.dumps(trajectory, indent=2) + "\n")
    print(f"\nwrote {args.output} ({len(trajectory['runs'])} run(s))")
    return 0


if __name__ == "__main__":
    sys.exit(main())
