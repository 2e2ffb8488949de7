"""Workloads, trial runner and metrics of the simulator benchmark.

A *workload* is a deterministic list of *blocks* derived from the workload
seed; a block is one DDIO trial set and one traditional-caching trial set
that share trial seeds, and one pass over all blocks is a *cycle*.  The
benchmark runs blocks one after another in a closed loop on the host (no
process pool, no result cache): the first cycle gives the simulated
(``sim_*``) metrics, the model counters and the digest; every block run,
in every cycle, is one sample of the host-speed metrics.  Host times are
scaled to *reference seconds* by a fixed reference loop interleaved with
the trials, so the shared host's changing speed cancels out of them.

Every layer under ``src/repro/`` is measured from outside: spans around the
public calls that build and run a trial, ``cProfile`` self time grouped by
source file, and counters read from public objects after each trial.
"""

import bisect
import cProfile
import gc
import hashlib
import heapq
import os
import platform
import pstats
import signal
import statistics
import time
import traceback
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field

from benchmarks.profile_kernel import _subsystem_of
from repro.core import make_filesystem
from repro.disk.faults import FaultPolicy
from repro.experiments.config import MEGABYTE, ExperimentConfig
from repro.experiments.matrix import result_digest
from repro.experiments.runner import build_machine_config
from repro.experiments.service import (FAULT_WATCHDOG,
                                       ServiceExperimentConfig)
from repro.fs import FileSystem
from repro.machine import Machine
from repro.patterns import make_pattern
from repro.workload.driver import ServiceDriver, ServiceResult, percentile

METHOD_KEYS = {"disk-directed": "ddio", "traditional-caching": "tc",
               "traditional": "tc"}

# -- workloads ------------------------------------------------------------------

#: The paper grid: Figures 3-4 on the 16 CP / 16 IOP / 16 disk machine.
#: One 1-D and one 2-D pattern per direction, both record sizes and both
#: layouts keep every dimension of the figures present; 1 MB files keep a
#: block (16 collectives per method) near one host second.
PAPER_PATTERNS = ("rb", "rcb", "wb", "wcb")
PAPER_RECORD_SIZES = (8, 8192)
PAPER_LAYOUTS = ("random", "contiguous")
PAPER_FILE_SIZE = MEGABYTE

#: The service family's default load at 16 req/s is about 2x saturation.
OVERLOAD = dict(arrival_rate=16.0)
DEGRADED_FLASH = dict(arrival_rate=16.0, device="ssd", redundancy="parity",
                      checksums=True, read_fraction=0.3,
                      fault_fail_stop_disk=3, fault_fail_stop_time=0.5)

WORKLOADS = ("paper-grid", "service-overload", "degraded-flash-writes")

#: Blocks per cycle.  A paper-grid block is 16 collectives per method, a
#: service block one 32-session trial per method, so every cycle has over
#: 100 samples per method (p90 has at least 10 beyond it).  The service
#: arrival streams are Poisson, so the seed-to-seed spread (IQR / median
#: over ten seeds) of simulated response times shrinks only as one over the
#: root of the session count: 16 blocks hold it near 0.05.  A
#: degraded-flash-writes block costs about three service-overload blocks
#: of host time; 12 blocks gave 0.07 to 0.16, and the 10 that the time
#: limit on all runs allows should give up to about 1.1 times that.
BLOCKS = {"paper-grid": 7, "service-overload": 16,
          "degraded-flash-writes": 10}

#: Distinct per-workload seed spaces: block *b* of seed *s* runs trial seed
#: ``s * SEED_STRIDE + b``, so two workload seeds never share a trial.
SEED_STRIDE = 1000


@dataclass(frozen=True)
class Trial:
    """One trial: an experiment config, its trial seed and its method key."""

    config: object
    seed: int

    @property
    def method(self):
        return METHOD_KEYS[self.config.method]

    @property
    def key(self):
        return f"{self.config.label}#s{self.seed}"


def workload_blocks(name, seed):
    """The workload's blocks for *seed*: a list of lists of :class:`Trial`."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r} (known: {WORKLOADS})")
    blocks = []
    for block in range(BLOCKS[name]):
        trial_seed = seed * SEED_STRIDE + block
        if name == "paper-grid":
            trials = [
                Trial(ExperimentConfig(
                    method=method, pattern=pattern, record_size=record_size,
                    layout=layout, file_size=PAPER_FILE_SIZE,
                    label=f"{method}:{pattern}:{record_size}:{layout}"),
                    trial_seed)
                for method in ("disk-directed", "traditional-caching")
                for pattern in PAPER_PATTERNS
                for record_size in PAPER_RECORD_SIZES
                for layout in PAPER_LAYOUTS]
        else:
            overrides = OVERLOAD if name == "service-overload" \
                else DEGRADED_FLASH
            trials = [Trial(ServiceExperimentConfig(
                method=method, seed=trial_seed, label=f"{name}:{method}",
                **overrides), trial_seed)
                for method in ("disk-directed", "traditional")]
        blocks.append(trials)
    return blocks


# -- host speed -----------------------------------------------------------------

#: Events in one reference slice.
REFERENCE_STEPS = 2500
#: Host seconds of one reference slice on the host that recorded
#: ``baseline.json``, in its fast phases (its slow phases took 4-5.5 ms): a
#: reference second is a second of that host running fast.
REFERENCE_SLICE_S = 0.0028
#: Seconds between reference slices: a slice every 40 ms takes about a
#: tenth of the host's time.
REFERENCE_PERIOD_S = 0.04
#: A trial's host speed is the median over the slices that ran during it
#: or within this many seconds of it.
SPEED_WINDOW_S = 0.1
#: How far the simulator's host time follows the reference slice's.  On
#: the baseline host, the log-log slope of a trial's host seconds against
#: its median slice time was 0.63-0.75 on every workload and method, and
#: ten-run spreads of the host metrics were least for exponents 0.7-1.0.
HOST_SPEED_EXPONENT = 0.8


class _RefEvent:
    __slots__ = ("callbacks",)

    def __init__(self, callback):
        self.callbacks = [callback]


def reference_slice():
    """Run the reference loop once; returns its host seconds.

    A miniature discrete-event simulation in plain Python (heap queue,
    generator processes, closures, dict stores: the simulator's own mix)
    that lives in the benchmark, so no change to the program changes it.
    How long it takes says how fast the shared host runs the interpreter
    at that moment.  The garbage collector is off while it runs, so no
    collection of the program's objects is charged to it.
    """
    queue, store, eid = [], {}, 0

    def process(pid):
        n = 0
        while True:
            n += 1
            store[pid, n % 16] = n
            yield (pid * 7 + n * 13) % 97 / 1000.0

    def schedule(gen, now):
        nonlocal eid
        eid += 1
        heapq.heappush(queue, (now + next(gen), eid,
                               _RefEvent(lambda now: schedule(gen, now))))

    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for pid in range(32):
            schedule(process(pid), 0.0)
        for _ in range(REFERENCE_STEPS):
            now, _, event = heapq.heappop(queue)
            for callback in event.callbacks:
                callback(now)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class HostClock:
    """Reference slices run by an interval timer, in between the program's
    own bytecodes, for as long as the clock is entered.

    The slices sample the host's speed while the trials run.  Their time is
    taken out of every span (:meth:`net`), and :meth:`speed` turns a span's
    host seconds into reference seconds.
    """

    def __init__(self, period=REFERENCE_PERIOD_S):
        self.period = period
        #: (start, end) of every slice, in ``time.perf_counter`` seconds
        self.slices = []
        self._busy = False
        self._previous = None

    def _tick(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        try:
            start = time.perf_counter()
            reference_slice()
            self.slices.append((start, time.perf_counter()))
        finally:
            self._busy = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _between(self, start, end):
        low = bisect.bisect_left(self.slices, (start,))
        high = bisect.bisect_left(self.slices, (end,))
        return self.slices[low:high]

    def net(self, record):
        """Host seconds of a span, less the slices that ran inside it."""
        inside = self._between(record["start"], record["end"])
        return SpanLog.seconds(record) - sum(end - start
                                             for start, end in inside)

    def speed(self, record):
        """Reference seconds per host second around a span: below 1 when
        the host ran slower than the one that recorded the baseline."""
        near = self._between(record["start"] - SPEED_WINDOW_S,
                             record["end"] + SPEED_WINDOW_S) or self.slices
        median = statistics.median(end - start for start, end in near)
        return (REFERENCE_SLICE_S / median) ** HOST_SPEED_EXPONENT


# -- spans ----------------------------------------------------------------------

class SpanLog:
    """In-memory spans: name, start, end, parent span and trial key.

    Only the benchmark's own code records spans, around the public calls
    into each layer; a traced run writes the log out once, at its end.
    """

    def __init__(self):
        self.spans = []

    @contextmanager
    def span(self, name, parent=None, **key):
        record = {"id": len(self.spans), "parent": parent, "name": name,
                  **key, "start": time.perf_counter(), "end": None}
        self.spans.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()

    @staticmethod
    def seconds(record):
        return record["end"] - record["start"]


# -- one trial ------------------------------------------------------------------

@dataclass
class Built:
    """A trial ready to run, plus the setup spans that built it."""

    machine: object
    implementation: object
    run: object
    machine_span: dict
    fs_span: dict
    #: the collective's access pattern (None for service trials)
    pattern: object = None


def build_trial(trial, log, parent):
    """Build *trial*'s machine, files and implementation under spans.

    Mirrors :func:`repro.experiments.runner.run_experiment` and
    :func:`repro.experiments.service.run_service_experiment` call for call,
    so a benchmark trial's result is bit-identical to the library's (the
    benchmark's tests pin this by digest).
    """
    config, seed = trial.config, trial.seed
    service = isinstance(config, ServiceExperimentConfig)
    machine_config = config.machine_config() if service \
        else build_machine_config(config)
    fault_config = config.fault_config() if service else None
    with log.span("machine", parent) as machine_span:
        if service:
            machine = Machine(
                machine_config, seed=seed,
                disk_scheduler=config.disk_scheduler,
                shared_queue_workers=config.shared_queue_workers,
                fault_config=fault_config, device=config.device,
                redundancy=config.redundancy,
                rebuild_bandwidth=config.rebuild_bandwidth)
        else:
            machine = Machine(machine_config, seed=seed,
                              disk_scheduler=config.disk_scheduler,
                              device=config.device,
                              redundancy=config.redundancy)
    with log.span("fs", parent) as fs_span:
        filesystem = FileSystem(machine_config, layout_seed=seed,
                                redundancy=config.redundancy)
        if service:
            workload = config.workload()
            sizes = workload.sample_sizes(seed)
            files = [filesystem.create_file(f"svc-{index}", sizes[index],
                                            layout=workload.layout)
                     for index in range(workload.n_files)]
        else:
            files = [filesystem.create_file(
                "experiment-file", config.file_size, layout=config.layout)]
        if machine.parity is not None:
            for striped in files:
                machine.parity.register_file(striped)
    with log.span("impl", parent):
        if service:
            fs_kwargs = {}
            if fault_config is not None:
                fs_kwargs["fault_policy"] = FaultPolicy(
                    on_fault=config.on_fault)
            implementation = make_filesystem(config.method, machine,
                                             **fs_kwargs)
            driver = ServiceDriver(machine, implementation, files, workload,
                                   retain_requests=not config.streaming,
                                   admission_policy=config.admission_policy)
            watchdog = FAULT_WATCHDOG if fault_config is not None else None

            def run():
                return driver.run(trial_seed=seed, watchdog=watchdog)
            pattern = None
        else:
            pattern = make_pattern(config.pattern, config.file_size,
                                   config.record_size, config.n_cps)
            implementation = make_filesystem(config.method, machine, files[0])

            def run():
                return implementation.transfer(pattern)
    return Built(machine, implementation, run, machine_span, fs_span,
                 pattern)


def read_counters(machine, implementation, result):
    """Model counters of one finished trial, read from public objects."""
    counters = Counter()
    totals = machine.total_disk_stats()
    counters["disk_requests"] = totals["reads"] + totals["writes"]
    counters["disk_cache_hits"] = totals["cache_hits"]
    counters["disk_cache_lookups"] = totals["cache_hits"] \
        + totals["cache_misses"]
    for disk in machine.disks:
        counters["disk_busy_s"] += disk.stats.busy_time
        counters["disk_queue_wait_s"] += disk.stats.queue_wait_time
        counters["disk_seek_s"] += disk.stats.seek_time
    counters["disk_time_s"] = len(machine.disks) * machine.now
    counters["bus_busy_frac"] = max(iop.bus.busy_fraction()
                                    for iop in machine.iops)
    flash = machine.total_flash_counters()
    if flash is not None:
        counters["ftl_host_pages"] = flash["host_pages_written"]
        counters["ftl_flash_pages"] = flash["flash_pages_written"]
        counters["ftl_erases"] = flash["erases"]
    if machine.parity is not None:
        parity = machine.parity.counters
        counters["parity_reconstructed_bytes"] = parity["reconstructed_bytes"]
        counters["parity_overhead_bytes"] = parity["parity_overhead_bytes"]
        counters["parity_degraded_reads"] = parity["degraded_reads"]
        counters["parity_rebuild_s"] = parity["rebuild_seconds"]
    for cache in getattr(implementation, "caches", ()):
        counters["iop_cache_lookups"] += cache.stats.lookups
        counters["iop_cache_hits"] += cache.stats.hits
        counters["iop_cache_evictions"] += cache.stats.evictions
    counters["iop_messages"] = result.counters.get("iop_messages", 0)
    if isinstance(result, ServiceResult):
        counters["max_in_flight"] = result.max_in_flight
    return counters


@dataclass
class Outcome:
    """What one trial run left behind."""

    trial: Trial
    result: object = None
    digest: str = ""
    setup_s: float = 0.0
    run_s: float = 0.0
    machine_s: float = 0.0
    fs_s: float = 0.0
    events: int = 0
    #: :meth:`HostClock.speed` around the trial (1.0 when no clock ran)
    speed: float = 1.0
    #: the trial's span
    span: dict = None
    counters: Counter = field(default_factory=Counter)
    #: trials (paper-grid) or sessions (service) this trial attempted
    attempted: int = 1
    #: of those, how many raised, hit the watchdog, broke byte
    #: conservation, or ended with failed or lost bytes
    failed: int = 0
    error: str = ""

    @property
    def sim_bytes(self):
        if isinstance(self.result, ServiceResult):
            return self.result.total_bytes
        return self.result.bytes_transferred


def _failures(result, pattern):
    """Failed units of a finished trial (see :attr:`Outcome.failed`)."""
    if isinstance(result, ServiceResult):
        failed = sum(1 for record in result.requests
                     if record.get("bytes_failed", 0)
                     or record.get("bytes_lost", 0))
        if not result.conserves_bytes() \
                or result.failed_bytes or result.lost_bytes \
                or result.aggregates.get("completed") != result.n_requests:
            failed = max(failed, 1)
        return failed
    counters = result.counters
    broken = (result.bytes_transferred != pattern.total_transfer_bytes()
              or counters.get("bytes_moved", 0)
              + counters.get("failed_bytes", 0) != result.bytes_transferred
              or counters.get("failed_bytes", 0)
              or counters.get("lost_bytes", 0))
    return 1 if broken else 0


def run_trial(trial, log, workload, cycle, profiler=None, clock=None):
    """Set up and run one trial under spans; never raises.

    With a :class:`HostClock`, the trial's times leave out the reference
    slices that ran inside them.
    """
    service = isinstance(trial.config, ServiceExperimentConfig)
    outcome = Outcome(trial, attempted=trial.config.n_requests
                      if service else 1)
    with log.span("trial", workload=workload, method=trial.method,
                  seed=trial.seed, key=trial.key, cycle=cycle) as span:
        outcome.span = span
        try:
            if profiler is not None:
                profiler.enable()
            try:
                with log.span("setup", span["id"]) as setup:
                    built = build_trial(trial, log, setup["id"])
                events_before = built.machine.env._eid
                with log.span("run", span["id"]) as run:
                    outcome.result = built.run()
            finally:
                if profiler is not None:
                    profiler.disable()
        except Exception:  # a failed trial is reported, not fatal
            outcome.failed = outcome.attempted
            outcome.error = traceback.format_exc()
            return outcome
    seconds = log.seconds if clock is None else clock.net
    outcome.setup_s = seconds(setup)
    outcome.run_s = seconds(run)
    outcome.machine_s = seconds(built.machine_span)
    outcome.fs_s = seconds(built.fs_span)
    outcome.events = built.machine.env._eid - events_before
    outcome.counters = read_counters(built.machine, built.implementation,
                                     outcome.result)
    outcome.failed = _failures(outcome.result, built.pattern)
    outcome.digest = result_digest(outcome.result)
    return outcome


# -- the measurement loop -------------------------------------------------------

@dataclass
class Run:
    """Every outcome of one workload run, in execution order."""

    workload: str
    seed: int
    blocks: list
    log: SpanLog = field(default_factory=SpanLog)
    #: block runs: (block index, [Outcome, ...])
    block_runs: list = field(default_factory=list)
    #: the reference slices that ran during the block runs
    clock: HostClock = None
    #: per-trial digests of the first cycle, in trial order
    digests: list = field(default_factory=list)
    errors: list = field(default_factory=list)
    wall_s: float = 0.0

    @property
    def first_cycle(self):
        return [outcome for _, outcomes in self.block_runs[:len(self.blocks)]
                for outcome in outcomes]

    @property
    def complete(self):
        return len(self.block_runs) >= len(self.blocks) and not self.errors


def _record(run, block_index, outcomes):
    """File one block run; check it reproduces the first cycle's digests."""
    cycle = len(run.block_runs) // len(run.blocks)
    run.block_runs.append((block_index, outcomes))
    offset = sum(len(block) for block in run.blocks[:block_index])
    for position, outcome in enumerate(outcomes):
        if outcome.error:
            run.errors.append(f"{outcome.trial.key}: {outcome.error}")
            continue
        if outcome.failed:
            run.errors.append(f"{outcome.trial.key}: {outcome.failed} of "
                              f"{outcome.attempted} failed")
        if cycle == 0:
            run.digests.append(outcome.digest)
        elif run.digests[offset + position] != outcome.digest:
            run.errors.append(f"{outcome.trial.key}: digest changed between "
                              f"cycles (nondeterministic result)")


def measure(workload, seed, seconds):
    """Run *workload* for at least *seconds* and at least one full cycle.

    Blocks run in order, cycling, and the loop stops at the first block
    boundary past *seconds* once a cycle is complete, or at the first error.
    A :class:`HostClock` runs throughout, and the garbage is collected
    before each trial, outside its spans, so no trial pays for another's.
    """
    run = Run(workload, seed, workload_blocks(workload, seed))
    start = time.perf_counter()
    index = 0
    with HostClock() as run.clock:
        while not run.errors:
            block_index = index % len(run.blocks)
            cycle = index // len(run.blocks)
            outcomes = []
            for trial in run.blocks[block_index]:
                gc.collect()
                outcomes.append(run_trial(trial, run.log, workload, cycle,
                                          clock=run.clock))
            _record(run, block_index, outcomes)
            index += 1
            if index >= len(run.blocks) \
                    and time.perf_counter() - start >= seconds:
                break
    run.wall_s = time.perf_counter() - start
    for _, outcomes in run.block_runs:
        for outcome in outcomes:
            outcome.speed = run.clock.speed(outcome.span)
    return run


# -- end-to-end metrics ---------------------------------------------------------

def _sim_samples(outcomes):
    """Per-method simulated samples: session response times on service
    workloads, collective elapsed times on the paper grid."""
    samples = {"ddio": [], "tc": []}
    for outcome in outcomes:
        result = outcome.result
        if isinstance(result, ServiceResult):
            samples[outcome.trial.method].extend(result.response_times)
        else:
            samples[outcome.trial.method].append(result.elapsed)
    return samples


def _goodput_mb(result):
    if isinstance(result, ServiceResult):
        return result.goodput_mb
    return result.throughput_mb


def sim_metrics(run):
    """Simulated metrics of the first cycle: deterministic per seed."""
    outcomes = run.first_cycle
    samples = _sim_samples(outcomes)
    metrics = {}
    for method in ("ddio", "tc"):
        goodputs = [_goodput_mb(outcome.result) for outcome in outcomes
                    if outcome.trial.method == method]
        metrics[f"sim_mb_s_{method}"] = statistics.fmean(goodputs)
        metrics[f"sim_p50_s_{method}"] = percentile(samples[method], 0.5)
        metrics[f"sim_p90_s_{method}"] = percentile(samples[method], 0.9)
    counts = {method: len(values) for method, values in samples.items()}
    return metrics, counts


def sim_digest(run):
    """sha256 over every first-cycle trial's result digest, in trial order."""
    return hashlib.sha256("".join(run.digests).encode()).hexdigest()


def host_rate(run, method):
    """Simulated MB per reference second of running *method*'s trials.

    The median over block runs of the block's rate, each trial's host
    seconds scaled by its :meth:`HostClock.speed`.  The scaling takes the
    shared host's changes of speed out; the median drops short stalls.
    """
    rates = []
    for _, outcomes in run.block_runs:
        chosen = [outcome for outcome in outcomes
                  if outcome.trial.method == method]
        rates.append(sum(outcome.sim_bytes for outcome in chosen) / MEGABYTE
                     / sum(outcome.run_s * outcome.speed
                           for outcome in chosen))
    return statistics.median(rates)


def setup_seconds(run, attribute="setup_s"):
    """Setup reference seconds of one cycle: the median over block runs of
    a block's whole setup (``setup_s``), machine construction
    (``machine_s``) or file creation (``fs_s``), each trial's scaled by its
    host speed, times the blocks in a cycle.  Blocks differ only in their
    trial seed, so each block run is one sample of the same set-up work."""
    return statistics.median(
        sum(getattr(outcome, attribute) * outcome.speed
            for outcome in outcomes)
        for _, outcomes in run.block_runs) * len(run.blocks)


def host_speed(run):
    """Median host speed of the run's trials (see :meth:`HostClock.speed`)."""
    return statistics.median(outcome.speed for _, outcomes in run.block_runs
                             for outcome in outcomes)


def peak_rss_mb():
    """Peak resident memory of this process (Linux VmHWM), Mbytes."""
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def end_to_end(run):
    """Every end-to-end metric: ``{name: (value, unit)}``."""
    metrics = {"setup_s": (setup_seconds(run), "s")}
    for method in ("ddio", "tc"):
        metrics[f"host_mb_per_s_{method}"] = (host_rate(run, method), "MB/s")
    metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    sim, _ = sim_metrics(run)
    for name, value in sim.items():
        metrics[name] = (value, "MB/s" if name.startswith("sim_mb")
                         else "s")
    return metrics


def attempted_failed(run):
    attempted = sum(outcome.attempted for _, outcomes in run.block_runs
                    for outcome in outcomes)
    failed = sum(outcome.failed for _, outcomes in run.block_runs
                 for outcome in outcomes)
    return attempted, failed


# -- the traced run -------------------------------------------------------------

SRC_MARK = os.sep + os.path.join("src", "repro") + os.sep

#: ``repro.disk`` and ``repro.core`` are split per file; other packages of
#: ``src/repro`` are one layer each; everything else is ``other``.
_DISK_FILES = {"flash": "disk.flash", "redundancy": "disk.redundancy",
               "faults": "disk.faults"}
_CORE_FILES = {"ddio": "core.ddio", "traditional": "core.traditional",
               "iop_cache": "core.iop_cache"}
_PACKAGE_LAYERS = {"repro.sim": "sim", "repro.patterns": "patterns",
                   "repro.network": "network", "repro.fs": "fs",
                   "repro.machine": "machine", "repro.workload": "workload"}

LAYERS = ("sim", "disk.drive", "disk.flash", "disk.redundancy", "disk.faults",
          "core.ddio", "core.traditional", "core.iop_cache", "core.base",
          "patterns", "network", "fs", "machine", "workload", "other")


def layer_of(filename):
    """The benchmark layer of a profiled source file.

    Refines :func:`benchmarks.profile_kernel._subsystem_of` (one bucket
    per ``repro`` package) by splitting the disk and core packages per file.
    """
    subsystem = _subsystem_of(filename)
    stem = os.path.splitext(os.path.basename(filename))[0]
    if subsystem == "repro.disk":
        return _DISK_FILES.get(stem, "disk.drive")
    if subsystem == "repro.core":
        return _CORE_FILES.get(stem, "core.base")
    return _PACKAGE_LAYERS.get(subsystem, "other")


#: metric -> (source file, function names) whose profiled calls it counts
CALL_COUNTS = {
    "sim.resource_grants": ("resources.py", ("acquire", "acquire_event")),
    "patterns.calls": ("pattern.py", ("chunks_for_cp", "pieces_in_block")),
    "network.transfers": ("network.py", ("transfer",)),
}


def profile_layers(profiler):
    """Self seconds and call counts per layer, plus the named call counts."""
    stats = pstats.Stats(profiler)
    self_s = {layer: 0.0 for layer in LAYERS}
    calls = {layer: 0 for layer in LAYERS}
    named = {name: 0 for name in CALL_COUNTS}
    top = []
    for (filename, lineno, function), (_, ncalls, tottime, _, _) \
            in stats.stats.items():
        layer = layer_of(filename)
        self_s[layer] += tottime
        calls[layer] += ncalls
        for name, (basename, functions) in CALL_COUNTS.items():
            if function in functions and filename.endswith(
                    os.sep + basename) and SRC_MARK in filename:
                named[name] += ncalls
        top.append((tottime, ncalls,
                    f"{os.path.basename(filename)}:{lineno}({function})"))
    top.sort(reverse=True)
    return self_s, calls, named, top[:20]


def trace_block(run, block_index=0):
    """Profile one more run of *block_index*; returns the traced outcomes
    and the profiler."""
    profiler = cProfile.Profile()
    outcomes = []
    for trial in run.blocks[block_index]:
        gc.collect()
        outcomes.append(run_trial(trial, run.log, run.workload, "traced",
                                  profiler))
    return outcomes, profiler


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def per_layer(run, traced, profiler, block_index=0):
    """Every per-layer metric: ``{name: (value, unit, count, count_unit)}``."""
    self_s, calls, named, _ = profile_layers(profiler)
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (self_s[layer], "s", calls[layer],
                                      "calls")
    every = [outcome for _, block in run.block_runs for outcome in block]
    first = run.first_cycle
    events = sum(outcome.events for outcome in first)
    metrics["sim.us_per_event"] = (
        sum(outcome.run_s for outcome in every) * 1e6
        / sum(outcome.events for outcome in every), "us", len(every),
        "untraced trials")
    metrics["sim.events"] = (events, "count", len(first), "trials")
    for name, count in named.items():
        metrics[name] = (count, "count", len(traced), "traced trials")
    metrics["machine.build_s"] = (setup_seconds(run, "machine_s"), "s",
                                  len(run.block_runs), "block runs")
    metrics["fs.create_s"] = (setup_seconds(run, "fs_s"), "s",
                              len(run.block_runs), "block runs")

    total = Counter()
    for outcome in first:
        total.update(outcome.counters)
    n = len(first)
    requests = total["disk_requests"]
    metrics["core.iop_messages"] = (total["iop_messages"], "count", n,
                                    "trials")
    metrics["disk.requests"] = (requests, "count", n, "trials")
    metrics["disk.readahead_hit_ratio"] = (
        _ratio(total["disk_cache_hits"], total["disk_cache_lookups"]),
        "fraction", total["disk_cache_lookups"], "drive cache lookups")
    metrics["disk.busy_frac"] = (
        _ratio(total["disk_busy_s"], total["disk_time_s"]), "fraction",
        n, "trials")
    metrics["disk.queue_wait_ms"] = (
        _ratio(total["disk_queue_wait_s"], requests) * 1e3, "ms", requests,
        "requests")
    metrics["disk.seek_ms"] = (_ratio(total["disk_seek_s"], requests) * 1e3,
                               "ms", requests, "requests")
    metrics["iop_cache.hit_ratio"] = (
        _ratio(total["iop_cache_hits"], total["iop_cache_lookups"]),
        "fraction", total["iop_cache_lookups"], "cache lookups")
    metrics["iop_cache.evictions"] = (total["iop_cache_evictions"], "count",
                                      n, "trials")
    metrics["bus.busy_frac"] = (total["bus_busy_frac"] / n, "fraction", n,
                                "trials")
    service = [outcome.result for outcome in first
               if isinstance(outcome.result, ServiceResult)]
    response = [t for result in service for t in result.response_times]
    in_service = [t for result in service for t in result.service_times]
    queue_p50 = percentile(response, 0.5) - percentile(in_service, 0.5) \
        if service else 0.0
    metrics["workload.queue_p50_s"] = (queue_p50, "s", len(response),
                                       "sessions")
    metrics["workload.max_in_flight"] = (
        max(outcome.counters["max_in_flight"] for outcome in first), "count",
        len(service), "service trials")
    metrics["parity.reconstructed_mb"] = (
        total["parity_reconstructed_bytes"] / MEGABYTE, "MB", n, "trials")
    metrics["parity.overhead_mb"] = (
        total["parity_overhead_bytes"] / MEGABYTE, "MB", n, "trials")
    metrics["parity.degraded_reads"] = (total["parity_degraded_reads"],
                                        "count", n, "trials")
    metrics["parity.rebuild_s"] = (total["parity_rebuild_s"], "s", n,
                                   "trials")
    # As Machine.total_flash_counters: no host pages means amplification 1.
    metrics["ftl.write_amp"] = (
        _ratio(total["ftl_flash_pages"], total["ftl_host_pages"]) or 1.0,
        "ratio", total["ftl_host_pages"], "host pages")
    metrics["ftl.erases"] = (total["ftl_erases"], "count", n, "trials")

    untraced = [sum(o.setup_s + o.run_s for o in outcomes)
                for index, outcomes in run.block_runs if index == block_index]
    traced_s = sum(o.setup_s + o.run_s for o in traced)
    metrics["trace.overhead"] = (traced_s / statistics.median(untraced),
                                 "ratio", len(untraced), "untraced runs")
    return metrics


def host_description():
    """Host, Python and CPU count, for recorded baselines."""
    model = platform.processor() or platform.machine()
    with open("/proc/cpuinfo", encoding="ascii", errors="replace") as info:
        for line in info:
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {"cpu": model, "python": platform.python_version(),
            "nproc": os.cpu_count(), "platform": platform.platform()}
