"""The service experiment families: concurrent collectives under load.

The paper's figures each time one collective in isolation.  These families
drive the service-style workload of :mod:`repro.workload` — a stream of
mixed read/write collectives over several open files, K admitted at a time —
and sweep it against offered load, scheduling, admission, faults, storage
device and redundancy, DDIO vs traditional caching.  They are the
north-star scenario: a parallel file *server* under heavy concurrent
traffic.

Each figure is one :class:`FamilySpec` in :data:`FAMILIES`, run by
:func:`run_figure` through the generic sweep machinery of
:mod:`repro.experiments.runner` (serial/parallel sweeps, on-disk result
cache), so ``ddio-figures service --workers 4 --cache DIR`` works exactly
like the paper figures.
"""

import json
from dataclasses import asdict, dataclass, field

from repro.disk.faults import FaultConfig
from repro.disk.flash import matched_ssd_spec
from repro.experiments.config import MEGABYTE
from repro.experiments.report import format_series_table, format_table
from repro.experiments.runner import register_experiment_family, sweep_parallel
from repro.machine import MachineConfig
from repro.workload.aggregate import QuantileSketch
from repro.workload.driver import ServiceResult, ServiceWorkload, run_service

KILOBYTE = 1024

#: Wall-clock seconds without simulated progress before a fault-injected
#: trial is declared wedged (a diagnosable DeadlockError, not a hang).
FAULT_WATCHDOG = 120.0


@dataclass(frozen=True)
class ServiceExperimentConfig:
    """One data point: a method driven by one service workload on one machine."""

    method: str = "disk-directed"
    arrival: str = "poisson"
    arrival_rate: float = 8.0
    think_time: float = 0.0
    exponential_think: bool = False
    concurrency: int = 4
    n_requests: int = 32
    n_files: int = 16
    file_size: int = MEGABYTE
    layout: str = "random"
    read_fraction: float = 0.7
    file_assignment: str = "round-robin"
    pattern_specs: tuple = ("b", "c")
    record_size: int = 8192
    #: record-size mix: each request draws uniformly from this tuple
    #: (empty: every request uses ``record_size``).  ``(8, 8192)`` mixes the
    #: paper's 8-byte worst case into the stream.
    record_sizes: tuple = ()
    #: per-file size distribution: "fixed", "pareto" or "lognormal"
    #: (heavy-tailed with mean ``file_size``; see repro.workload.sizes)
    size_distribution: str = "fixed"
    size_alpha: float = 1.5
    size_sigma: float = 1.0
    #: cap on one heavy-tailed size draw (0: 16x the mean)
    max_file_size: int = 0
    n_cps: int = 16
    n_iops: int = 16
    n_disks: int = 16
    block_size: int = 8192
    #: machine-wide scheduling: ``fcfs`` is the paper's drive queue (each
    #: DDIO collective presorts for itself); ``shared-cscan`` merges all
    #: active collectives into one elevator per disk at the IOP.
    disk_scheduler: str = "fcfs"
    #: worker-pool size of each shared per-disk queue (the per-drive buffer
    #: budget; the paper's double-buffering 2).  Only meaningful with a
    #: ``shared-*`` scheduler.
    shared_queue_workers: int = 2
    #: storage backend: ``disk`` (the paper's HP 97560) or ``ssd`` (the
    #: bandwidth-matched flash model of :mod:`repro.disk.flash`).
    device: str = "disk"
    # -- fault injection (all-defaults == healthy machine, bit-identical to
    # -- pre-fault builds; see repro.disk.faults and docs/faults.md) --------
    #: per-request probability of a retryable media error, every drive
    fault_transient_rate: float = 0.0
    #: latent bad LBN ranges per drive (permanent read errors)
    fault_bad_ranges: int = 0
    fault_bad_range_sectors: int = 64
    #: fail-slow episode: drive ``fault_slow_disk`` stretches mechanical time
    #: by ``fault_slow_factor`` inside [slow_start, slow_start + duration)
    fault_slow_factor: float = 1.0
    fault_slow_disk: int = -1
    fault_slow_start: float = 0.0
    fault_slow_duration: float = 0.0
    #: drive ``fault_fail_stop_disk`` dies at ``fault_fail_stop_time`` (-1: none)
    fault_fail_stop_disk: int = -1
    fault_fail_stop_time: float = 0.0
    #: silently-corrupting LBN ranges per drive: reads overlapping one
    #: complete ``ok`` with flipped payload bytes — only client checksums
    #: (``checksums=True``) can see them
    fault_silent_ranges: int = 0
    fault_silent_range_sectors: int = 64
    #: confine the silent ranges to one drive index (-1: every drive)
    fault_silent_disk: int = -1
    #: client response to errored requests: ``retry`` | ``degrade`` | ``abort``
    on_fault: str = "retry"
    # -- redundancy & integrity (all-defaults == no parity, no checksums,
    # -- bit-identical to pre-redundancy builds; see repro.disk.redundancy
    # -- and docs/redundancy.md) -------------------------------------------
    #: ``none`` or ``parity`` (declustered RAID-5 layer: rotated parity,
    #: hot spare, degraded reads, background rebuild)
    redundancy: str = "none"
    #: rebuild bandwidth cap, bytes/s of reconstructed data (0: the module
    #: default, ~4 MB/s)
    rebuild_bandwidth: float = 0.0
    #: verify per-block checksums at the client on every read (end-to-end
    #: integrity; detects silent corruption, repaired via parity when on)
    checksums: bool = False
    #: run the driver in constant-memory streaming mode: no per-request
    #: record list, percentiles from the mergeable sketch only (they come
    #: from the sketch either way) — required for million-session points
    streaming: bool = False
    # -- admission control (all-defaults == the FIFO counting semaphore,
    # -- bit-identical to pre-admission builds; see repro.workload.admission
    # -- and docs/workloads.md) --------------------------------------------
    #: admission discipline: ``fifo`` | ``sjf`` | ``priority`` | ``edf``
    admission_policy: str = "fifo"
    #: SJF aging bound, seconds (0: the policy default)
    admission_aging: float = 0.0
    #: EDF meetability estimate, bytes/s (0: deadline-passed only)
    edf_service_rate: float = 0.0
    #: static QoS classes stamped per session (1: everyone equal)
    priority_levels: int = 1
    #: mean deadline budget, seconds after arrival (0: no deadlines)
    deadline_slack: float = 0.0
    #: adaptive-K controller SLO target, seconds (0: controller disabled)
    controller_target_p99: float = 0.0
    #: control interval, simulated seconds
    controller_interval: float = 0.5
    #: controller's K ceiling (0: 4x the static concurrency)
    controller_max_k: int = 0
    #: shed queued sessions older than the SLO target each interval
    controller_shed: bool = False
    #: age threshold for shedding, seconds since arrival (0: the target
    #: itself; set below the target to leave service-time headroom)
    controller_shed_age: float = 0.0
    seed: int = 0
    label: str = ""

    @property
    def pattern(self):
        """Mixed-pattern summary (duck-compatible with ExperimentConfig rows)."""
        specs = ",".join(self.pattern_specs)
        return f"mix({specs})"

    def workload(self):
        """The :class:`ServiceWorkload` this config describes."""
        return ServiceWorkload(
            n_requests=self.n_requests,
            arrival=self.arrival,
            arrival_rate=self.arrival_rate,
            think_time=self.think_time,
            exponential_think=self.exponential_think,
            concurrency=self.concurrency,
            n_files=self.n_files,
            file_size=self.file_size,
            layout=self.layout,
            read_fraction=self.read_fraction,
            file_assignment=self.file_assignment,
            pattern_specs=tuple(self.pattern_specs),
            record_size=self.record_size,
            record_sizes=tuple(self.record_sizes),
            size_distribution=self.size_distribution,
            size_alpha=self.size_alpha,
            size_sigma=self.size_sigma,
            max_file_size=self.max_file_size,
            priority_levels=self.priority_levels,
            deadline_slack=self.deadline_slack,
            seed=self.seed,
        )

    def controller_config(self):
        """Controller kwargs for :func:`run_service`, or None when disabled."""
        if self.controller_target_p99 <= 0:
            return None
        return {
            "target_p99": self.controller_target_p99,
            "interval": self.controller_interval,
            "max_k": self.controller_max_k,
            "shed": self.controller_shed,
            "shed_age": self.controller_shed_age,
        }

    def fault_config(self):
        """The :class:`FaultConfig` this point injects, or None when healthy.

        Returning None for the all-defaults case is load-bearing: a healthy
        config builds a machine with no fault plans and a file system with no
        fault policy, bit-identical to pre-fault builds.
        """
        config = FaultConfig(
            transient_rate=self.fault_transient_rate,
            bad_range_count=self.fault_bad_ranges,
            bad_range_sectors=self.fault_bad_range_sectors,
            slow_factor=self.fault_slow_factor,
            slow_disk=self.fault_slow_disk,
            slow_start=self.fault_slow_start,
            slow_duration=self.fault_slow_duration,
            fail_stop_disk=self.fault_fail_stop_disk,
            fail_stop_time=self.fault_fail_stop_time,
            silent_range_count=self.fault_silent_ranges,
            silent_range_sectors=self.fault_silent_range_sectors,
            silent_disk=self.fault_silent_disk,
        )
        return config if config.enabled else None

    def machine_config(self):
        return MachineConfig(
            n_cps=self.n_cps,
            n_iops=self.n_iops,
            n_disks=self.n_disks,
            block_size=self.block_size,
        )

    def describe(self):
        return (f"{self.method} service {self.arrival}@{self.arrival_rate:g}/s "
                f"K={self.concurrency} {self.n_requests} reqs x "
                f"{self.file_size // KILOBYTE} KB files={self.n_files} "
                f"cps={self.n_cps} iops={self.n_iops} disks={self.n_disks} "
                f"sched={self.disk_scheduler}")


def run_service_experiment(config, seed=None):
    """Run one service trial and return its :class:`ServiceResult`."""
    if not isinstance(config, ServiceExperimentConfig):
        raise TypeError(
            f"expected ServiceExperimentConfig, got {type(config).__name__}")
    trial_seed = config.seed if seed is None else seed
    fault_config = config.fault_config()
    return run_service(
        config.method,
        config.workload(),
        machine_config=config.machine_config(),
        seed=trial_seed,
        disk_scheduler=config.disk_scheduler,
        shared_queue_workers=config.shared_queue_workers,
        device=config.device,
        redundancy=config.redundancy,
        rebuild_bandwidth=config.rebuild_bandwidth,
        checksums=config.checksums,
        fault_config=fault_config,
        on_fault=config.on_fault,
        retain_requests=not config.streaming,
        admission_policy=config.admission_policy,
        admission_aging=config.admission_aging,
        edf_service_rate=config.edf_service_rate,
        controller=config.controller_config(),
        # Insurance for fault sweeps: a scenario that wedges the protocol
        # raises a diagnosable DeadlockError instead of hanging the sweep.
        watchdog=FAULT_WATCHDOG if fault_config is not None else None,
    )


register_experiment_family(ServiceExperimentConfig, run_service_experiment,
                           ServiceResult)


# -- figure families -------------------------------------------------------------
#
# Every service figure is the same pipeline: the product of a family's axes
# over its default fields is a grid of ServiceExperimentConfig points, one
# sweep runs it, each point becomes a table row, series tables plot columns
# of the rows, and the rows can be written as a JSON artifact.  A family is
# one FamilySpec in FAMILIES; run_figure is the pipeline.


@dataclass(frozen=True)
class Axis:
    """One dimension of a family's grid.

    *name* is the :func:`run_figure` keyword that replaces *values*.  When
    *fields* names a config field, each value sets that field; a tuple of
    field names takes a tuple of settings per value.  Without *fields*, each
    value is a named variant ``(name, {field: setting, ...})``.  *varies*,
    when given, is called with the fields set so far and limits the axis to
    the points it returns True for: elsewhere only the first value runs.
    """

    name: str
    values: tuple
    fields: object = ()
    varies: object = None

    def levels(self, values):
        """``(variant name or None, {field: setting})`` per value."""
        if isinstance(self.fields, str):
            return [(None, {self.fields: value}) for value in values]
        if self.fields:
            return [(None, dict(zip(self.fields, value))) for value in values]
        return [(name, dict(fields)) for name, fields in values]


@dataclass(frozen=True)
class Series:
    """One series table: title, x label, and the ``(x, y)`` points of a row."""

    title: str
    x_label: str
    points: object


def _versus(y, x="load_req_s"):
    """Series points: one ``(row[x], row[y])`` per row."""
    return lambda row: [(row[x], row[y])]


@dataclass(frozen=True)
class Grid:
    """A family's resolved grid: its configs in sweep order, and the variant
    each took from every named-variant axis (``{axis name: variant name}``)."""

    configs: tuple
    variants: tuple

    @property
    def sample(self):
        return self.configs[0]

    def values(self, name):
        """Distinct settings of one config field, in sweep order."""
        return list(dict.fromkeys(getattr(config, name)
                                  for config in self.configs))

    def names(self, axis):
        """Distinct variant names of one named-variant axis, in sweep order."""
        return list(dict.fromkeys(variant[axis] for variant in self.variants))


def _method_series(row, grid):
    method = row["method"]
    return "DDIO" if method.startswith("disk-directed") else \
        method.replace("traditional", "TC")


def _conserves(config, result):
    if not result.conserves_bytes():
        raise AssertionError(
            f"byte conservation violated in {config.label}: "
            f"moved + failed + shed != requested")


def _loses_nothing(config, result):
    if result.failed_bytes or result.lost_bytes:
        raise AssertionError(
            f"parity lost data in {config.label}: "
            f"failed={result.failed_bytes} lost={result.lost_bytes}")


def _grid_config(grid):
    """The config fields *grid* sets away from their defaults: the setting,
    or the list of settings where the grid sweeps the field."""
    default = ServiceExperimentConfig()
    config = {}
    for name in asdict(default):
        values = grid.values(name)
        if name not in ("label", "seed") \
                and values != [getattr(default, name)]:
            config[name] = values if len(values) > 1 else values[0]
    return config


@dataclass(frozen=True)
class FamilySpec:
    """One service figure, declared: grid, rows, text and artifact.

    *doc* is the question the figure asks.  The grid is the product of
    *axes* (outermost first) over *defaults*.  *row(summary, variants)*
    turns one point's summary into its table row; *columns* picks the table
    columns (None: every row key).  *header(grid)* opens the text, each
    :class:`Series` becomes a series table with one column per
    *series_name(row, grid)*, and *footnote* closes it.  Every check in
    *checks* runs on every trial.  *tables(rows, grid)* adds ``(key, title,
    rows, columns)`` tables to the text and the artifact; *extras()* adds
    artifact-only keys.  The artifact records *config(grid)* (default: the
    fields the grid sets), and its ``regenerate`` command writes to
    *artifact*.
    """

    name: str
    doc: str
    axes: tuple
    row: object
    header: object
    series: tuple
    defaults: dict = field(default_factory=dict)
    columns: tuple = None
    series_name: object = _method_series
    checks: tuple = (_conserves,)
    tables: object = lambda rows, grid: ()
    extras: object = dict
    footnote: str = ""
    config: object = _grid_config
    artifact: str = "<path>"

    def grid(self, **overrides):
        """The points this family runs under *overrides* (see
        :func:`run_figure`)."""
        levels = [axis.levels(overrides.pop(axis.name, axis.values))
                  for axis in self.axes]
        base = dict(self.defaults)
        for key, value in overrides.items():
            swept = False
            for index, axis_levels in enumerate(levels):
                if any(key in fields for _name, fields in axis_levels):
                    swept = True
                    levels[index] = _merge(
                        [(name, {**fields, key: value} if key in fields
                          else fields) for name, fields in axis_levels])
            if not swept:
                base[key] = value
        points = [((), base)]
        for axis, axis_levels in zip(self.axes, levels):
            points = [(taken + (level,), {**fields, **level[1]})
                      for taken, fields in points
                      for level in (axis_levels if axis.varies is None
                                    or axis.varies(fields)
                                    else axis_levels[:1])]
        return Grid(
            configs=tuple(ServiceExperimentConfig(
                label=":".join(_tag(level) for level in taken), **fields)
                for taken, fields in points),
            variants=tuple({axis.name: name
                            for axis, (name, _fields) in zip(self.axes, taken)
                            if name is not None}
                           for taken, _fields in points))


def _merge(levels):
    """*levels* with later duplicates (equal field settings) dropped."""
    kept = []
    for name, fields in levels:
        if all(fields != other for _name, other in kept):
            kept.append((name, fields))
    return kept


def _tag(level):
    name, fields = level
    if name is not None:
        return name
    return ",".join(f"{value:g}" if isinstance(value, float) else str(value)
                    for value in fields.values())


def run_figure(name, trials=1, progress=None, workers=None, cache=None,
               json_path=None, **overrides):
    """Run the service figure *name*, a key of :data:`FAMILIES`.

    Returns ``(summaries, text)`` like every other figure generator; with
    *json_path* the rows are also written there as a JSON artifact.
    Keyword *overrides* reshape the grid:

    * an axis name (``loads=(50.0,)``) replaces that axis's values;
    * a config field an axis sets (``arrival_rate=50.0``) takes the new
      setting wherever the axis sets it, and settings left identical run
      once: a swept field's axis collapses to the single value, and a field
      only some named variants set (``controller_target_p99=0.5``) changes
      only those variants;
    * any other config field (``n_cps=4``) applies to every point.
    """
    spec = FAMILIES[name]
    grid = spec.grid(**overrides)
    summaries = sweep_parallel(grid.configs, trials=trials, progress=progress,
                               workers=workers, cache=cache)
    rows = []
    for summary, variants in zip(summaries, grid.variants):
        for result in summary.results:
            for check in spec.checks:
                check(summary.config, result)
        rows.append(spec.row(summary, variants))
    tables = spec.tables(rows, grid)
    blocks = [spec.header(grid), format_table(rows, columns=spec.columns)]
    blocks += [f"{title}\n{format_table(table, columns=columns)}"
               for _key, title, table, columns in tables]
    for series in spec.series:
        points = {}
        for row in rows:
            points.setdefault(spec.series_name(row, grid), []).extend(
                series.points(row))
        blocks.append(f"{series.title}\n"
                      + format_series_table(points, x_label=series.x_label))
    if spec.footnote:
        blocks.append(spec.footnote)
    if json_path:
        artifact = {
            "figure": name,
            "regenerate": "PYTHONPATH=src python -m repro.experiments.figures "
                          f"{name} --json {spec.artifact}",
            "config": {**spec.config(grid), "trials": trials,
                       "seed": grid.sample.seed},
            "rows": _rounded(rows),
        }
        artifact.update((key, _rounded(table))
                        for key, _title, table, _columns in tables)
        artifact.update((key, _rounded(extra))
                        for key, extra in spec.extras().items())
        with open(json_path, "w", encoding="utf-8") as handle:
            json.dump(artifact, handle, indent=2)
            handle.write("\n")
    return summaries, "\n\n".join(blocks)


def _rounded(rows):
    return [{key: round(value, 4) if isinstance(value, float) else value
             for key, value in row.items()} for row in rows]


def _mean(values):
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _avg(summary, attribute, scale=1):
    """Mean over the trials of one result attribute, divided by *scale*."""
    return _mean(getattr(result, attribute) / scale
                 for result in summary.results)


def _percentile(summary, fraction):
    """Mean over the trials of one response-time percentile, seconds."""
    return _mean(result.response_percentile(fraction)
                 for result in summary.results)


def _max_in_flight(summary):
    return max(result.max_in_flight for result in summary.results)


def _fields(config, *names):
    return {name: getattr(config, name) for name in names}


def _machine(config):
    return (f"{config.n_cps} CPs / {config.n_iops} IOPs / "
            f"{config.n_disks} disks")


# -- service: throughput and response time vs offered load ------------------------

#: Offered loads (requests/second) swept by the default service figure.
#: At the default scale (32 x 1 MB collectives, paper machine) the server
#: saturates around 8-9 requests/second, so the sweep spans under-load,
#: saturation and over-load.  The 16-file working set (16 MB) deliberately
#: exceeds the traditional IOP caches (4 MB aggregate) — a server under heavy
#: traffic from many jobs does not fit its working set in cache.
DEFAULT_LOADS = (4.0, 8.0, 16.0)

#: Methods compared by every DDIO-vs-TC family.
SERVICE_METHODS = ("disk-directed", "traditional")

_LOAD_AXIS = Axis("loads", DEFAULT_LOADS, "arrival_rate")
_METHOD_AXIS = Axis("methods", SERVICE_METHODS, "method")


def _service_row(summary, variants):
    config = summary.config
    return {
        "method": config.method,
        "load_req_s": config.arrival_rate,
        "throughput_mb": summary.mean_throughput_mb,
        "p50_ms": _percentile(summary, 0.50) * 1e3,
        "p99_ms": _percentile(summary, 0.99) * 1e3,
        "max_in_flight": _max_in_flight(summary),
        "trials": len(summary.results),
    }


def _service_header(grid):
    sample = grid.sample
    return (f"Service workload: {sample.n_requests} mixed collectives "
            f"({sample.read_fraction:.0%} reads) over {sample.n_files} "
            f"{sample.file_size // KILOBYTE} KB {sample.layout} files, "
            f"K={sample.concurrency} admitted, {sample.arrival} arrivals")


_THROUGHPUT_VS_LOAD = Series(
    "Sustained throughput (Mbytes/s) vs offered load (req/s)", "load",
    _versus("throughput_mb"))

SERVICE = FamilySpec(
    name="service",
    doc="""Throughput and response-time percentiles vs offered load, per method.

    The north-star scenario: a parallel file server under concurrent mixed
    traffic, DDIO vs traditional caching, from under-load through saturation
    to over-load.""",
    axes=(_LOAD_AXIS, _METHOD_AXIS),
    row=_service_row,
    header=_service_header,
    series=(
        _THROUGHPUT_VS_LOAD,
        Series("Median response time (ms) vs offered load (req/s)", "load",
               _versus("p50_ms")),
        Series("99th-percentile response time (ms) vs offered load (req/s)",
               "load", _versus("p99_ms")),
    ),
)


# -- service-sched: cross-collective IOP scheduling --------------------------------

#: Concurrency levels swept by the scheduler figure: the K>1 points are where
#: per-collective presorted streams interleave at the drive.
SCHEDULER_CONCURRENCIES = (1, 2, 4, 8)

#: The scheduling regimes compared: each DDIO collective presorting for
#: itself over a FCFS drive queue (the paper's single-collective design,
#: unchanged under concurrency) vs one shared elevator (CSCAN) or
#: shortest-seek queue (SSTF) per disk at the IOP merging all active
#: collectives.
SCHEDULER_CHOICES = ("fcfs", "shared-sstf", "shared-cscan")

#: Offered loads for the scheduler figure (requests/second).
SCHEDULER_LOADS = (8.0, 16.0)

#: Worker-pool sizes per shared queue swept by the scheduler figure: the
#: per-drive buffer budget (the paper's double-buffering is 2).
SCHEDULER_POOL_SIZES = (2,)


def _scheduler_row(summary, variants):
    config = summary.config
    return {
        "K": config.concurrency,
        "scheduler": config.disk_scheduler,
        "workers": config.shared_queue_workers,
        "load_req_s": config.arrival_rate,
        "throughput_mb": summary.mean_throughput_mb,
        "p99_ms": _percentile(summary, 0.99) * 1e3,
        "trials": len(summary.results),
    }


def _scheduler_series(row, grid):
    name = f"K={row['K']} {row['scheduler']}"
    if row["scheduler"].startswith("shared-") \
            and len(grid.values("shared_queue_workers")) > 1:
        name += f" w={row['workers']}"
    return name


def _scheduler_header(grid):
    sample = grid.sample
    return (f"Cross-collective IOP scheduling (disk-directed I/O): "
            f"per-collective sort (fcfs drive queue) vs shared per-disk "
            f"queues\n{sample.n_requests} mixed collectives "
            f"({sample.read_fraction:.0%} reads) over {sample.n_files} "
            f"{sample.file_size // KILOBYTE} KB {sample.layout} files, "
            f"{sample.arrival} arrivals")


SCHEDULER = FamilySpec(
    name="service-sched",
    doc="""Cross-collective IOP scheduling vs per-collective presort, K∈{1,2,4,8}.

    The K>1 pathology: every DDIO session presorts its own block list, so at
    concurrency K the drive sees K interleaved sorted streams — forfeiting
    the single-collective sort benefit the paper demonstrates.  The shared
    per-disk queue at the IOP merges the streams back into one sweep; this
    figure compares the CSCAN elevator against greedy SSTF (and, via
    ``pool_sizes``, the per-drive worker-pool budget) at each K.  The regimes
    should coincide at K=1 and diverge in the shared policies' favour as K
    grows.  Pool size only matters under shared scheduling, so ``fcfs``
    runs once, at the first pool size.""",
    axes=(
        Axis("concurrencies", SCHEDULER_CONCURRENCIES, "concurrency"),
        Axis("schedulers", SCHEDULER_CHOICES, "disk_scheduler"),
        Axis("pool_sizes", SCHEDULER_POOL_SIZES, "shared_queue_workers",
             varies=lambda fields:
             fields["disk_scheduler"].startswith("shared-")),
        Axis("loads", SCHEDULER_LOADS, "arrival_rate"),
    ),
    defaults=dict(method="disk-directed"),
    row=_scheduler_row,
    header=_scheduler_header,
    series=(
        _THROUGHPUT_VS_LOAD,
        Series("99th-percentile response time (ms) vs offered load (req/s)",
               "load", _versus("p99_ms")),
    ),
    series_name=_scheduler_series,
)


# -- service-overload: response-time asymptotes ------------------------------------

#: Offered loads (requests/second) swept by the overload figure.  The default
#: service machine saturates around 8-9 req/s, so the sweep reaches ~4x
#: saturation — deep into the regime where an open loop's queue grows without
#: bound and response time is governed by the asymptote, not the mean.
OVERLOAD_LOADS = (4.0, 8.0, 16.0, 24.0, 32.0)

#: The overload workload: Pareto (alpha=1.5) file sizes with mean 1 MB, a
#: record-size mix that includes the 8-byte cyclic requests of Figure 3,
#: random layout, and a larger machine (32 disks over 16 IOPs) so the
#: overload comes from the request stream, not an undersized back end.
OVERLOAD_WORKLOAD = dict(size_distribution="pareto", size_alpha=1.5,
                         record_sizes=(8, 8192), n_disks=32, n_requests=32,
                         concurrency=4, layout="random")


def _overload_row(summary, variants):
    config = summary.config
    return {
        "method": config.method,
        "load_req_s": config.arrival_rate,
        "throughput_mb": summary.mean_throughput_mb,
        "mean_rt_s": _avg(summary, "mean_response_time"),
        "p99_rt_s": _percentile(summary, 0.99),
        "max_in_flight": _max_in_flight(summary),
        "trials": len(summary.results),
    }


def _overload_header(grid):
    sample = grid.sample
    record_mix = ",".join(str(size) for size in
                          (sample.record_sizes or (sample.record_size,)))
    return (f"Overload study: {sample.arrival} arrivals to "
            f"~{max(grid.values('arrival_rate')):g} req/s, "
            f"{sample.size_distribution} file sizes (mean "
            f"{sample.file_size // KILOBYTE} KB, alpha={sample.size_alpha:g}), "
            f"record mix {{{record_mix}}} bytes, {sample.layout} layout, "
            f"{_machine(sample)}, K={sample.concurrency}")


OVERLOAD = FamilySpec(
    name="service-overload",
    doc="""Response-time asymptotes under overload: heavy tails + 8-byte records.

    The paper's core claim is that disk-directed I/O stays near hardware
    limits even for its worst patterns while traditional caching collapses.
    The closed-loop service figure cannot show the collapse: offered load
    adapts to capacity.  This figure pushes an *open-loop* Poisson stream to
    ~4x saturation with heavy-tailed (Pareto) file sizes and a record mix
    that includes the 8-byte cyclic worst case, and plots sustained
    throughput plus mean/p99 response time against offered load.  Throughput
    should flatten at each method's capacity (DDIO's plateau higher) while
    response times diverge — and the DDIO:TC response-time gap should
    *widen* with load, because TC burns its IOP CPUs on per-record request
    handling precisely when there is no idle time left to hide it in.""",
    axes=(Axis("loads", OVERLOAD_LOADS, "arrival_rate"), _METHOD_AXIS),
    defaults=OVERLOAD_WORKLOAD,
    row=_overload_row,
    header=_overload_header,
    series=(
        _THROUGHPUT_VS_LOAD,
        Series("Mean response time (s) vs offered load (req/s) — the "
               "asymptote", "load", _versus("mean_rt_s")),
        Series("99th-percentile response time (s) vs offered load (req/s)",
               "load", _versus("p99_rt_s")),
    ),
)


# -- service-millions: the asymptote at a million sessions -------------------------

#: Sessions per sweep row (cheap) and per headline row (the million-session
#: asymptote measurement the figure exists for).
MILLIONS_SWEEP_REQUESTS = 50_000
MILLIONS_HEADLINE_REQUESTS = 1_000_000

#: The deep-overload load of the headline rows: far beyond either method's
#: capacity, so the measured completion rate *is* the overload asymptote.
MILLIONS_HEADLINE_LOAD = 800.0

#: ``(offered load, sessions)`` per row of the million-session figure, the
#: headline row last.  The headline machine (8 CPs / 8 IOPs / 128 disks,
#: 8 KB sessions) saturates near 95 req/s under DDIO and ~360 req/s under
#: TC, so the sweep rows straddle both saturation points.
MILLIONS_LOADS = tuple((load, MILLIONS_SWEEP_REQUESTS)
                       for load in (50.0, 100.0, 200.0, 400.0)) \
    + ((MILLIONS_HEADLINE_LOAD, MILLIONS_HEADLINE_REQUESTS),)


def _millions_row(summary, variants):
    config = summary.config
    return {
        "method": config.method,
        "load_req_s": config.arrival_rate,
        "n_requests": config.n_requests,
        "completion_rate_s": _mean(
            result.aggregates.get("completed", result.n_requests)
            / result.elapsed
            for result in summary.results if result.elapsed > 0),
        "throughput_mb": summary.mean_throughput_mb,
        "p50_rt_s": _percentile(summary, 0.50),
        "p99_rt_s": _percentile(summary, 0.99),
        "max_in_flight": _max_in_flight(summary),
        "trials": len(summary.results),
    }


def _millions_shape(grid):
    """``(headline load, headline sessions, sweep sessions)``: the headline
    is the last row, the sweep size the first row's."""
    headline = grid.configs[-1]
    return (headline.arrival_rate, headline.n_requests,
            grid.sample.n_requests)


def _millions_header(grid):
    sample = grid.sample
    headline_load, headline_requests, sweep_requests = _millions_shape(grid)
    return (f"Million-session overload asymptote: {sample.arrival} arrivals "
            f"to {headline_load:g} req/s, {headline_requests} sessions per "
            f"headline row ({sweep_requests} per sweep row), "
            f"{sample.file_size // KILOBYTE} KB sessions over "
            f"{sample.n_files} {sample.layout} files, {_machine(sample)}, "
            f"K={sample.concurrency}, streaming driver")


def _millions_config(grid):
    headline_load, headline_requests, sweep_requests = _millions_shape(grid)
    return {**_fields(grid.sample, "arrival", "file_size", "record_size",
                      "layout", "n_files", "n_cps", "n_iops", "n_disks",
                      "concurrency", "streaming"),
            "headline_load": headline_load,
            "headline_requests": headline_requests,
            "sweep_requests": sweep_requests}


MILLIONS = FamilySpec(
    name="service-millions",
    doc="""The overload asymptote, measured directly: a million 8 KB sessions.

    The overload figure extrapolates each method's asymptote from 32-request
    runs; this figure *measures* it.  An open-loop Poisson stream is pushed
    to ~8x DDIO saturation and run for a million sessions per headline row —
    only possible because the streaming driver (``streaming=True``, no
    per-request record list) folds every completed session into mergeable
    aggregates, constant memory in the session count.  The sweep rows trace
    the approach to saturation; the headline rows pin the asymptote to three
    digits.  Sessions are the smallest useful ones — one 8 KB record against
    a 128-disk machine — because the point is *session count*, not bytes.

    At this scale the result inverts the paper's headline, honestly: an
    8 KB session is a single block per file, so DDIO's per-collective setup
    (presort, per-disk streams across 8 IOPs) is pure overhead and
    traditional caching's asymptote is the higher one.  DDIO's advantage is
    a *per-byte* one that grows with transfer size — which is exactly what
    the paper says, read from the other side.""",
    axes=(Axis("loads", MILLIONS_LOADS, ("arrival_rate", "n_requests")),
          _METHOD_AXIS),
    defaults=dict(n_cps=8, n_iops=8, n_disks=128, n_files=64,
                  file_size=8 * KILOBYTE, layout="contiguous",
                  pattern_specs=("b",), record_size=8192, concurrency=64,
                  streaming=True),
    row=_millions_row,
    header=_millions_header,
    series=(
        Series("Completion rate (sessions/s) vs offered load (req/s) — the "
               "asymptote", "load", _versus("completion_rate_s")),
        Series("99th-percentile response time (s) vs offered load (req/s)",
               "load", _versus("p99_rt_s")),
    ),
    config=_millions_config,
    artifact="docs/data/service_millions.json",
)


# -- service-faults: goodput under injected disk faults ----------------------------

#: The fault scenarios swept by the ``service-faults`` figure, in sweep
#: order: name -> ServiceExperimentConfig fault-field overrides.  The sweep
#: spans the taxonomy of repro.disk.faults — transient media errors at two
#: rates, one fail-slow drive, one fail-stop drive out of 32, and the
#: combined "sick disk" — always against the healthy baseline.
FAULT_SCENARIOS = (
    ("healthy", {}),
    ("transient-1pct", {"fault_transient_rate": 0.01}),
    ("transient-5pct", {"fault_transient_rate": 0.05}),
    ("fail-slow-4x", {"fault_slow_disk": 0, "fault_slow_factor": 4.0,
                      "fault_slow_start": 0.0, "fault_slow_duration": 3600.0}),
    ("fail-stop", {"fault_fail_stop_disk": 0, "fault_fail_stop_time": 1.0}),
    ("sick-disk", {"fault_transient_rate": 0.01,
                   "fault_slow_disk": 0, "fault_slow_factor": 4.0,
                   "fault_slow_start": 0.0, "fault_slow_duration": 3600.0,
                   "fault_fail_stop_disk": 0, "fault_fail_stop_time": 2.0}),
)

#: Offered load for the fault figure (requests/second): near saturation, so
#: retry storms and a lost drive bite while the healthy baseline still keeps
#: up — degradation, not overload, is what the figure isolates.
FAULT_LOAD = 8.0

#: The fault and rebuild machine: the overload machine (32 disks over 16
#: IOPs, random layout) so "one fail-stop drive" means losing 1/32 of the
#: spindles, with fixed file sizes and one near-saturation load so every
#: delta against the healthy row is attributable to the injected faults.
FAULT_WORKLOAD = dict(n_disks=32, n_requests=32, concurrency=4,
                      layout="random", arrival_rate=FAULT_LOAD)


def _faults_row(summary, variants):
    config = summary.config
    return {
        "scenario": variants["scenarios"],
        "method": config.method,
        "goodput_mb": _avg(summary, "goodput_mb"),
        "p99_ms": _percentile(summary, 0.99) * 1e3,
        "failed_mb": _avg(summary, "failed_bytes", MEGABYTE),
        "lost_mb": _avg(summary, "lost_bytes", MEGABYTE),
        "retries": _avg(summary, "total_retries"),
        "degraded": _avg(summary, "degraded_requests"),
        "trials": len(summary.results),
    }


def _faults_header(grid):
    sample = grid.sample
    return (f"Fault injection on {sample.device}: "
            f"{len(grid.names('scenarios'))} scenarios x DDIO/TC under "
            f"bounded retry (on_fault={sample.on_fault!r}), "
            f"{sample.arrival}@{sample.arrival_rate:g} req/s, "
            f"{sample.n_requests} mixed collectives over {sample.n_files} "
            f"{sample.layout} files, {_machine(sample)}")


def _faults_config(grid):
    sample = grid.sample
    return {"device": sample.device,
            "scenarios": grid.names("scenarios"),
            "methods": grid.values("method"),
            "load_req_s": sample.arrival_rate,
            **_fields(sample, "on_fault", "n_requests", "concurrency",
                      "layout", "n_cps", "n_iops", "n_disks")}


FAULTS = FamilySpec(
    name="service-faults",
    doc="""Goodput and p99 under injected disk faults, DDIO vs TC.

    The robustness question the paper never asks: disk-directed I/O wins by
    giving the disks a long presorted stream — what happens when a drive in
    that stream errors, limps, or dies?  Each scenario is run for both
    methods under the bounded-retry policy; the table reports *goodput*
    (delivered-and-durable bytes/s — failed blocks are explicitly given up,
    never silently dropped), tail latency, undelivered data, retry volume
    and how many requests completed degraded.  ``device="ssd"`` prices the
    same fault taxonomy on flash: no positioning to recover, so fail-stop
    costs capacity, not schedule (``docs/data/service_faults_ssd.json``).""",
    axes=(Axis("scenarios", FAULT_SCENARIOS), _METHOD_AXIS),
    defaults=FAULT_WORKLOAD,
    row=_faults_row,
    header=_faults_header,
    series=(
        Series("Goodput (Mbytes/s) per fault scenario", "scenario",
               _versus("goodput_mb", x="scenario")),
        Series("99th-percentile response time (ms) per fault scenario",
               "scenario", _versus("p99_ms", x="scenario")),
    ),
    config=_faults_config,
)


# -- service-rebuild: goodput through drive loss and rebuild -----------------------

#: Storage backends swept by the ``service-rebuild`` figure.
REBUILD_DEVICES = ("disk", "ssd")

#: When the victim drive fail-stops (simulated seconds): late enough that
#: the healthy phase has a measured goodput, early enough that most of the
#: run exercises degraded reads and the rebuild stream.
REBUILD_KILL_TIME = 1.0

#: Background rebuild bandwidth cap, bytes/second of reconstructed data.
#: Deliberately a small fraction of a drive's ~2.2 Mbytes/s so the degraded
#: window is wide and the foreground-vs-rebuild contention is visible.
REBUILD_BANDWIDTH = 512 * 1024

#: The phases of the drive-loss timeline.
REBUILD_PHASES = ("healthy", "degraded", "rebuilt")


def _phase_goodputs(result, kill_time):
    """Goodput (Mbytes/s) in the healthy / degraded / rebuilt phases.

    Buckets the retained request records by completion time against the
    kill instant and the rebuild-completion instant (``kill_time +
    rebuild_seconds`` from the parity counters).  A phase with no time span
    inside the run reports 0.0.
    """
    rebuild_end = kill_time + result.aggregates.get("rebuild_seconds", 0.0)
    spans = {
        "healthy": (result.start_time, kill_time),
        "degraded": (kill_time, rebuild_end),
        "rebuilt": (rebuild_end, result.end_time),
    }
    goodputs = {}
    for phase, (begin, end) in spans.items():
        width = end - begin
        if width <= 0:
            goodputs[phase] = 0.0
            continue
        moved = sum(record["bytes_moved"] for record in result.requests
                    if record.get("completed_time") is not None
                    and begin <= record["completed_time"] < end)
        goodputs[phase] = moved / width / MEGABYTE
    return goodputs


def _rebuild_row(summary, variants):
    config = summary.config
    phases = [_phase_goodputs(result, config.fault_fail_stop_time)
              for result in summary.results]

    def aggregate(key, scale=1):
        return _mean(result.aggregates.get(key, 0) / scale
                     for result in summary.results)

    return {
        "device": config.device,
        "method": config.method,
        **{f"{phase}_mb": _mean(p[phase] for p in phases)
           for phase in REBUILD_PHASES},
        "p99_ms": _percentile(summary, 0.99) * 1e3,
        "reconstructed_mb": aggregate("reconstructed_bytes", MEGABYTE),
        "parity_overhead_mb": aggregate("parity_overhead_bytes", MEGABYTE),
        "rebuild_s": aggregate("rebuild_seconds"),
        "rebuilt_rows": aggregate("rebuilt_rows"),
        "failed_mb": 0.0,
        "trials": len(summary.results),
    }


def _rebuild_header(grid):
    sample = grid.sample
    return (f"Declustered parity under fail-stop: drive "
            f"{sample.fault_fail_stop_disk} of {sample.n_disks} killed at "
            f"t={sample.fault_fail_stop_time:g}s, rebuild capped at "
            f"{sample.rebuild_bandwidth / MEGABYTE:.2f} Mbytes/s, "
            f"{sample.arrival}@{sample.arrival_rate:g} req/s, "
            f"{sample.n_requests} mixed collectives over {sample.n_files} "
            f"{sample.layout} files, {sample.n_cps} CPs / {sample.n_iops} "
            f"IOPs")


def _rebuild_config(grid):
    sample = grid.sample
    return {"devices": grid.values("device"),
            "methods": grid.values("method"),
            "load_req_s": sample.arrival_rate,
            **_fields(sample, "redundancy", "rebuild_bandwidth"),
            "fail_stop_disk": sample.fault_fail_stop_disk,
            "fail_stop_time": sample.fault_fail_stop_time,
            **_fields(sample, "n_requests", "concurrency", "layout", "n_cps",
                      "n_iops", "n_disks")}


REBUILD = FamilySpec(
    name="service-rebuild",
    doc="""Goodput timeline through kill-drive -> degraded service -> rebuilt.

    The redundancy question: with declustered parity, losing a drive
    mid-run must cost *throughput*, never *data*.  Each cell kills one of
    32 drives under near-saturation service load and reports goodput in
    three phases — before the kill, while reads on the dead drive are
    reconstructed from survivors (with the rebuild stream competing for
    the same spindles), and after the hot spare holds every rebuilt row —
    plus the reconstruction volume, the parity write overhead, and the
    rebuild duration.  Two invariants are checked per trial: byte
    conservation, and **zero failed bytes** — under parity the fail-stop
    that made the fault figure give up data loses none.""",
    axes=(Axis("devices", REBUILD_DEVICES, "device"), _METHOD_AXIS),
    defaults=dict(FAULT_WORKLOAD, redundancy="parity",
                  rebuild_bandwidth=float(REBUILD_BANDWIDTH),
                  fault_fail_stop_disk=0,
                  fault_fail_stop_time=REBUILD_KILL_TIME),
    row=_rebuild_row,
    header=_rebuild_header,
    series=(Series(
        "Goodput (Mbytes/s) per phase of the drive-loss timeline", "phase",
        lambda row: [(phase, row[f"{phase}_mb"])
                     for phase in REBUILD_PHASES]),),
    series_name=lambda row, grid: f"{row['device']}:"
                                  f"{_method_series(row, grid)}",
    checks=(_conserves, _loses_nothing),
    footnote="failed_mb is asserted zero: parity degrades goodput, never "
             "data.",
    config=_rebuild_config,
    artifact="docs/data/service_rebuild.json",
)


# -- service-admission: which discipline protects the tail -------------------------

#: Offered loads for the admission figure (requests/second): saturation and
#: the 4x-saturation overload point where FIFO's tail collapses.
ADMISSION_LOADS = (8.0, 32.0)

#: The controller row's SLO: p99 response-time target, seconds.  At 4x
#: saturation the FIFO/static-K p99 sits well above this (the point of the
#: figure); shedding at ``ADMISSION_SHED_AGE`` leaves service-time headroom
#: under the target.
ADMISSION_TARGET_P99 = 2.0
ADMISSION_SHED_AGE = 1.0
ADMISSION_CONTROL_INTERVAL = 0.25

#: Mean deadline budget (seconds after arrival) stamped on every session of
#: the admission figure; the EDF row drops sessions whose deadline has
#: already passed at grant time.
ADMISSION_DEADLINE_SLACK = 2.0

#: The admission disciplines compared, in sweep order.  ``controller`` is
#: FIFO ordering plus the adaptive-K SLO controller with load shedding —
#: the row that must hold the p99 target no static K can.
ADMISSION_ROWS = tuple((policy, {"admission_policy": policy})
                       for policy in ("fifo", "sjf", "priority", "edf")) + (
    ("controller", {"admission_policy": "fifo",
                    "controller_target_p99": ADMISSION_TARGET_P99,
                    "controller_interval": ADMISSION_CONTROL_INTERVAL,
                    "controller_shed": True,
                    "controller_shed_age": ADMISSION_SHED_AGE}),
)


def _admission_row(summary, variants):
    config = summary.config
    target = config.controller_target_p99
    p99 = _percentile(summary, 0.99)
    row = {
        "policy": "controller" if target > 0 else config.admission_policy,
        "load_req_s": config.arrival_rate,
        "goodput_mb": _avg(summary, "goodput_mb"),
        "p50_s": _percentile(summary, 0.50),
        "p99_s": p99,
        "urgent_p99_s": _mean(_class_p99(result, "0")
                              for result in summary.results),
        "dropped": _avg(summary, "dropped_requests"),
        "shed": _avg(summary, "shed_requests"),
        "shed_mb": _avg(summary, "shed_bytes", MEGABYTE),
        "trials": len(summary.results),
    }
    if target > 0:
        row["slo_target_s"] = target
        row["slo_met"] = p99 <= target
    return row


def _class_p99(result, class_key):
    """p99 of one priority class's response sketch (0.0 when absent)."""
    data = result.class_sketches.get(class_key)
    if not data:
        return 0.0
    return QuantileSketch.from_dict(data).quantile(0.99)


def _admission_header(grid):
    sample = grid.sample
    return (f"Admission control under overload (disk-directed I/O): "
            f"{sample.arrival} arrivals to "
            f"{max(grid.values('arrival_rate')):g} req/s, "
            f"{sample.size_distribution} file sizes (mean "
            f"{sample.file_size // KILOBYTE} KB, alpha={sample.size_alpha:g}), "
            f"{sample.n_requests} sessions, {sample.priority_levels} priority "
            f"classes, ~{sample.deadline_slack:g} s deadlines, "
            f"K={sample.concurrency} static, {_machine(sample)}")


def _admission_config(grid):
    controlled = [config for config in grid.configs
                  if config.controller_target_p99 > 0]
    return {"arrival": grid.sample.arrival,
            "loads": grid.values("arrival_rate"),
            **_fields(grid.sample, "n_requests", "concurrency",
                      "size_distribution", "size_alpha", "file_size",
                      "record_sizes", "layout", "n_cps", "n_iops", "n_disks",
                      "priority_levels", "deadline_slack"),
            **_fields((controlled or grid.configs)[0],
                      "controller_target_p99", "controller_shed_age",
                      "controller_interval")}


ADMISSION = FamilySpec(
    name="service-admission",
    doc="""Which admission discipline protects the tail at 4x saturation?

    The overload figure shows FIFO admission destroying p99 under a Pareto
    stream: one giant session at the head of the K-slot queue stalls every
    small session behind it.  The driver knows each session's size, class
    and deadline *at admission time*, so this figure sweeps the disciplines
    of :mod:`repro.workload.admission` over the same overload workload and
    reports, per row: goodput (the disciplines that drop work must stay
    honest about it — ``shed_mb`` and conservation are in the table), p50
    and p99 response time of completed sessions, the urgent class's p99
    (what the priority discipline exists to protect), and drop/shed counts.
    The ``controller`` row adds the adaptive-K SLO controller with load
    shedding; ``slo_met`` records whether the measured p99 held the target
    that the FIFO/static-K row demonstrably misses at 4x saturation.

    Every row runs the *same* workload — the overload machine with two
    priority classes and ~2 s deadlines stamped on every session — so the
    discipline is the only difference between rows: disciplines that ignore
    a stamp still run the identical request stream.""",
    axes=(Axis("loads", ADMISSION_LOADS, "arrival_rate"),
          Axis("rows", ADMISSION_ROWS)),
    defaults=dict(OVERLOAD_WORKLOAD, method="disk-directed", n_requests=64,
                  priority_levels=2,
                  deadline_slack=ADMISSION_DEADLINE_SLACK),
    row=_admission_row,
    columns=("policy", "load_req_s", "goodput_mb", "p50_s", "p99_s",
             "urgent_p99_s", "dropped", "shed", "shed_mb", "trials"),
    header=_admission_header,
    series=(
        Series("99th-percentile response time (s) vs offered load (req/s)",
               "load", _versus("p99_s")),
        Series("Goodput (Mbytes/s) vs offered load (req/s)", "load",
               _versus("goodput_mb")),
    ),
    series_name=lambda row, grid: row["policy"],
    config=_admission_config,
    artifact="docs/data/service_admission.json",
)


# -- ddio-flash: does the advantage survive when seeks are free? -------------------

#: Storage backends compared by the ``ddio-flash`` figure.
FLASH_DEVICES = ("disk", "ssd")

#: FTL-probe shape: small enough that random overwrites actually exhaust the
#: free-block pool and force garbage collection (the full-size device never
#: GCs at experiment scale — its overprovisioned blocks cover every run).
FLASH_PROBE_BLOCKS = 64
FLASH_PROBE_PAGES_PER_BLOCK = 32
FLASH_PROBE_OVERWRITES = 8192


def flash_ftl_probe(policies=("greedy", "cost-benefit"),
                    n_blocks=FLASH_PROBE_BLOCKS,
                    pages_per_block=FLASH_PROBE_PAGES_PER_BLOCK,
                    n_overwrites=FLASH_PROBE_OVERWRITES, seed=0):
    """Write-amplification of each GC policy under random overwrites.

    Sequentially fills a small FTL once (write amplification exactly 1 —
    the pinned property), then overwrites uniformly-random logical pages
    until GC has done real work, and reports WA and erase counts per
    policy.  Deterministic given *seed*; this is the flash-specific half of
    the ``ddio-flash`` artifact (the service rows never trigger GC because
    the full-size device is heavily overprovisioned at experiment scale).
    """
    import numpy as np

    from repro.disk.flash import FlashTranslationLayer

    logical_pages = int(n_blocks * pages_per_block * 0.9)
    rows = []
    for policy in policies:
        ftl = FlashTranslationLayer(logical_pages, pages_per_block, n_blocks,
                                    gc_policy=policy)
        for lpn in range(logical_pages):
            ftl.write(lpn)
        fill_wa = ftl.write_amplification
        rng = np.random.default_rng(seed)
        for lpn in rng.integers(0, logical_pages, size=n_overwrites):
            ftl.write(int(lpn))
        rows.append({
            "gc_policy": policy,
            "sequential_fill_wa": fill_wa,
            "random_overwrite_wa": ftl.write_amplification,
            "erases": ftl.erases,
            "relocated_pages": ftl.relocated_pages,
            "host_pages_written": ftl.host_pages_written,
        })
    return rows


def _flash_row(summary, variants):
    config = summary.config
    return {
        "device": config.device,
        "method": config.method,
        "load_req_s": config.arrival_rate,
        "goodput_mb": _avg(summary, "goodput_mb"),
        "p50_s": _percentile(summary, 0.50),
        "p99_s": _percentile(summary, 0.99),
        "trials": len(summary.results),
    }


def _flash_ratios(rows, grid):
    """The DDIO:TC goodput ratio per (device, load): the figure's answer.

    Cells are looked up by method name; a (device, load) missing either
    method has no ratio row.
    """
    goodput = {(row["device"], row["method"], row["load_req_s"]):
               row["goodput_mb"] for row in rows}
    ratios = []
    for device in grid.values("device"):
        for load in grid.values("arrival_rate"):
            ddio = goodput.get((device, "disk-directed", load))
            tc = goodput.get((device, "traditional", load))
            if ddio is None or tc is None:
                continue
            ratios.append({
                "device": device,
                "load_req_s": load,
                "ddio_vs_tc": ddio / tc if tc else float("inf"),
            })
    return [("ratios", "DDIO:TC throughput ratio per device (does the "
             "advantage survive without seeks?)", ratios,
             ("device", "load_req_s", "ddio_vs_tc"))]


_DISK_SPEC = MachineConfig().disk_spec
_SSD_SPEC = matched_ssd_spec(_DISK_SPEC)


def _flash_header(grid):
    sample = grid.sample
    return (f"Disk-directed I/O vs traditional caching, disk vs flash at "
            f"equal sequential bandwidth "
            f"({_DISK_SPEC.sustained_transfer_rate / MEGABYTE:.2f} Mbytes/s "
            f"per device): {sample.arrival} arrivals, {sample.n_requests} "
            f"mixed collectives over {sample.n_files} files, "
            f"K={sample.concurrency}, {sample.n_cps} CPs / {sample.n_iops} "
            f"IOPs / {sample.n_disks} drives")


def _flash_config(grid):
    return {"arrival": grid.sample.arrival,
            "loads": grid.values("arrival_rate"),
            "devices": grid.values("device"),
            "methods": grid.values("method"),
            **_fields(grid.sample, "n_requests", "concurrency", "file_size",
                      "layout", "n_cps", "n_iops", "n_disks"),
            "disk_sequential_mb": round(
                _DISK_SPEC.sustained_transfer_rate / MEGABYTE, 4),
            "ssd_sequential_mb": round(
                _SSD_SPEC.sequential_read_rate / MEGABYTE, 4),
            "ssd_channels": _SSD_SPEC.channels,
            "ssd_ncq_depth": _SSD_SPEC.ncq_depth}


FLASH = FamilySpec(
    name="ddio-flash",
    doc="""Does disk-directed I/O's advantage survive when seeks are free?

    The paper's claim rests on positioning costs: the IOP wins by scheduling
    around them.  This figure re-asks the question on a flash SSD whose
    *sequential* bandwidth exactly matches the HP 97560's (see
    :func:`repro.disk.flash.matched_ssd_spec`) but whose costs are page
    reads/programs — no seeks, no rotation, parallelism inside the device.
    The service workload runs identically on both backends, DDIO vs
    traditional caching at each offered load; the DDIO:TC throughput ratio
    per device is the headline number.  The artifact adds a small
    deterministic FTL probe reporting GC write amplification per policy
    (:func:`flash_ftl_probe`).""",
    axes=(Axis("devices", FLASH_DEVICES, "device"), _LOAD_AXIS,
          _METHOD_AXIS),
    row=_flash_row,
    header=_flash_header,
    tables=_flash_ratios,
    series=(Series("Goodput (Mbytes/s) vs offered load (req/s)", "load",
                   _versus("goodput_mb")),),
    series_name=lambda row, grid: f"{row['device']}:{row['method']}",
    config=_flash_config,
    extras=lambda: {"ftl_probe": flash_ftl_probe()},
    artifact="docs/data/service_flash.json",
)


#: Every service figure, by its ``ddio-figures`` name.
FAMILIES = {spec.name: spec for spec in (SERVICE, SCHEDULER, OVERLOAD,
                                         MILLIONS, FAULTS, REBUILD,
                                         ADMISSION, FLASH)}
