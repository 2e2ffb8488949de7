"""Differential pins: streaming runs against retained runs.

Retained and streaming runs share one open loop (the spawn-window cursor),
so ``retain_requests=False`` must change only the *representation*: the
fold-at-completion aggregates must equal the retained run's — bit-identical
where the quantity is exact (byte counters, conservation, makespan,
sketches, per-method counters), and within the sketch's documented error
bound of the exact sorted-list percentile of the retained records.  The
matrix spans seed x arrival process x fault config, because each axis
changes completion *order* — the thing a fold could accidentally depend on.
FIFO admission is pinned grant for grant against a pure-Python queue in
front of K slots, and the spawn window against an unbounded window.
"""

import dataclasses
import heapq

import pytest

from repro.disk.faults import FaultConfig
from repro.machine import MachineConfig
from repro.workload import ServiceWorkload, driver, run_service
from repro.workload.aggregate import relative_error_bound
from repro.workload.driver import percentile

KILOBYTE = 1024

SEEDS = (0, 3)

ARRIVALS = (
    {"arrival": "poisson", "arrival_rate": 60.0},
    {"arrival": "closed", "think_time": 0.01},
)

FAULTS = (
    ("healthy", None),
    ("transient", FaultConfig(transient_rate=0.05)),
    ("fail-slow", FaultConfig(slow_disk=0, slow_factor=4.0,
                              slow_start=0.0, slow_duration=3600.0)),
)


def tiny_workload(seed, **arrival_kwargs):
    return ServiceWorkload(n_requests=24, concurrency=3, n_files=4,
                           file_size=96 * KILOBYTE, layout="random",
                           read_fraction=0.7, pattern_specs=("b", "c"),
                           record_size=8192, seed=seed, **arrival_kwargs)


def run_pair(seed, arrival_kwargs, fault_config, method="disk-directed"):
    """The same trial twice: retained reference, then streaming."""
    results = []
    for retain in (True, False):
        workload = tiny_workload(seed, **arrival_kwargs)
        results.append(run_service(
            method, workload,
            machine_config=MachineConfig(n_cps=2, n_iops=2, n_disks=4),
            seed=seed, fault_config=fault_config,
            retain_requests=retain))
    return results


def envelope(result):
    """Everything except the per-request record list (streaming has none)."""
    data = dataclasses.asdict(result)
    data.pop("requests")
    return data


@pytest.mark.parametrize("fault_name,fault_config", FAULTS,
                         ids=[name for name, _ in FAULTS])
@pytest.mark.parametrize("arrival_kwargs", ARRIVALS,
                         ids=[spec["arrival"] for spec in ARRIVALS])
@pytest.mark.parametrize("seed", SEEDS)
class TestStreamingMatchesRetained:
    def test_envelope_bit_identical(self, seed, arrival_kwargs, fault_name,
                                    fault_config):
        retained, streaming = run_pair(seed, arrival_kwargs, fault_config)
        assert envelope(streaming) == envelope(retained)
        assert streaming.requests == []
        assert len(retained.requests) == retained.n_requests

    def test_conservation_counters_identical(self, seed, arrival_kwargs,
                                             fault_name, fault_config):
        retained, streaming = run_pair(seed, arrival_kwargs, fault_config)
        for result in (retained, streaming):
            assert result.conserves_bytes()
        assert streaming.aggregates == retained.aggregates
        assert streaming.counters == retained.counters
        # The fold totals agree with summing the retained records — the
        # aggregates really are the records, compressed.
        records = retained.requests
        assert retained.aggregates["bytes_requested"] == \
            sum(record["bytes_requested"] for record in records)
        assert retained.aggregates["bytes_moved"] == \
            sum(record["bytes_moved"] for record in records)
        assert retained.aggregates["bytes_failed"] == \
            sum(record["bytes_failed"] for record in records)
        assert retained.aggregates["retries"] == \
            sum(record["retries"] for record in records)

    def test_percentiles_within_sketch_bound(self, seed, arrival_kwargs,
                                             fault_name, fault_config):
        retained, streaming = run_pair(seed, arrival_kwargs, fault_config)
        exact_times = retained.response_times
        bound = relative_error_bound()
        for fraction in (0.0, 0.5, 0.9, 0.99, 1.0):
            exact = percentile(exact_times, fraction)
            estimate = streaming.response_percentile(fraction)
            assert abs(estimate - exact) <= bound * exact + 1e-12


class TestStreamingAcrossMethods:
    """The equivalence is a driver property, not a disk-directed one."""

    @pytest.mark.parametrize("method", ("disk-directed", "traditional"))
    def test_both_methods(self, method):
        retained, streaming = run_pair(
            1, {"arrival": "poisson", "arrival_rate": 60.0}, None,
            method=method)
        assert envelope(streaming) == envelope(retained)


def fifo_slot_admissions(records, concurrency):
    """Admission instants of a FIFO queue in front of *concurrency* slots.

    An independent expression of the spec, fed the records' arrival and
    completion instants: requests are granted in arrival order, each at the
    latest of its arrival, the previous grant and the earliest instant one
    of the slots frees up.
    """
    admitted = {}
    busy_until = []
    previous = 0.0
    for record in sorted(records, key=lambda record: (record["arrival_time"],
                                                      record["index"])):
        free = heapq.heappop(busy_until) if len(busy_until) == concurrency \
            else 0.0
        previous = max(record["arrival_time"], previous, free)
        admitted[record["index"]] = previous
        heapq.heappush(busy_until, record["completed_time"])
    return admitted


@pytest.mark.parametrize("fault_name,fault_config", FAULTS,
                         ids=[name for name, _ in FAULTS])
@pytest.mark.parametrize("arrival_kwargs", ARRIVALS,
                         ids=[spec["arrival"] for spec in ARRIVALS])
@pytest.mark.parametrize("seed", SEEDS)
class TestFIFOMatchesSlotReference:
    """The admission layer's FIFO policy against a pure-Python FIFO queue in
    front of K slots, grant for grant, across the same seed x arrival x
    fault matrix (each axis shifts grant order).  Poisson arrivals queue;
    the closed loop's population is K, so its clients never wait."""

    def run_fifo(self, seed, arrival_kwargs, fault_config, **run_kwargs):
        return run_service(
            "disk-directed", tiny_workload(seed, **arrival_kwargs),
            machine_config=MachineConfig(n_cps=2, n_iops=2, n_disks=4),
            seed=seed, fault_config=fault_config, **run_kwargs)

    def test_grants_match_reference(self, seed, arrival_kwargs, fault_name,
                                    fault_config):
        result = self.run_fifo(seed, arrival_kwargs, fault_config)
        records = result.requests
        assert len(records) == result.n_requests
        assert all(record["admitted_time"] is not None for record in records)
        expected = fifo_slot_admissions(records, result.concurrency)
        assert {record["index"]: record["admitted_time"]
                for record in records} == expected
        waited = sum(record["admitted_time"] > record["arrival_time"]
                     for record in records)
        assert (waited > 0) == (arrival_kwargs["arrival"] == "poisson")
        assert result.max_in_flight == result.concurrency

    def test_fifo_is_the_default_policy(self, seed, arrival_kwargs,
                                        fault_name, fault_config):
        default = self.run_fifo(seed, arrival_kwargs, fault_config)
        explicit = self.run_fifo(seed, arrival_kwargs, fault_config,
                                 admission_policy="fifo")
        assert dataclasses.asdict(explicit) == dataclasses.asdict(default)
        assert default.admission == "fifo" and default.controller == {}
        assert default.dropped_requests == default.shed_requests == 0
        assert default.conserves_bytes()


def stamped_workload(seed, **arrival_kwargs):
    """The differential workload with the QoS axes lit: two priority
    classes, ~0.6 s deadlines and Pareto sizes (so size-aware ordering,
    deadline drops and class sketches all engage)."""
    return ServiceWorkload(n_requests=24, concurrency=3, n_files=4,
                           file_size=96 * KILOBYTE, layout="random",
                           read_fraction=0.7, pattern_specs=("b", "c"),
                           record_size=8192, seed=seed,
                           priority_levels=2, deadline_slack=0.6,
                           size_distribution="pareto", size_alpha=1.5,
                           **arrival_kwargs)


#: Non-FIFO disciplines (and the shedding controller) whose streaming mode
#: must still reproduce the retained reference exactly.
POLICY_ROWS = (
    ("sjf", dict(admission_policy="sjf", admission_aging=0.5)),
    ("priority", dict(admission_policy="priority")),
    ("edf", dict(admission_policy="edf")),
    ("controller", dict(controller={"target_p99": 0.4, "interval": 0.1,
                                    "shed": True, "shed_age": 0.3})),
)


@pytest.mark.parametrize("fault_name,fault_config", FAULTS,
                         ids=[name for name, _ in FAULTS])
@pytest.mark.parametrize("policy_name,run_kwargs", POLICY_ROWS,
                         ids=[name for name, _ in POLICY_ROWS])
class TestPolicyStreamingMatchesRetained:
    """Streaming == retained for every admission discipline, drops and
    sheds included, with the PR 6 fault plans active — and conservation
    (moved + failed + shed == requested) holds throughout."""

    def run_policy_pair(self, run_kwargs, fault_config):
        results = []
        for retain in (True, False):
            workload = stamped_workload(0, arrival="poisson",
                                        arrival_rate=200.0)
            results.append(run_service(
                "disk-directed", workload,
                machine_config=MachineConfig(n_cps=2, n_iops=2, n_disks=4),
                seed=0, fault_config=fault_config, retain_requests=retain,
                **run_kwargs))
        return results

    def test_envelope_bit_identical(self, policy_name, run_kwargs,
                                    fault_name, fault_config):
        retained, streaming = self.run_policy_pair(run_kwargs, fault_config)
        assert envelope(streaming) == envelope(retained)
        assert streaming.controller == retained.controller
        assert streaming.class_sketches == retained.class_sketches

    def test_conservation_with_rejections(self, policy_name, run_kwargs,
                                          fault_name, fault_config):
        retained, streaming = self.run_policy_pair(run_kwargs, fault_config)
        for result in (retained, streaming):
            assert result.conserves_bytes()
            aggregates = result.aggregates
            assert aggregates["bytes_moved"] + aggregates["bytes_failed"] \
                + aggregates["bytes_shed"] == aggregates["bytes_requested"]
            assert aggregates["completed"] + result.dropped_requests \
                + result.shed_requests == retained.n_requests
        # The retained records re-derive the shed totals exactly.
        rejected = [record for record in retained.requests
                    if record.get("admitted_time") is None]
        assert len(rejected) == \
            retained.dropped_requests + retained.shed_requests
        assert sum(record["bytes_shed"] for record in rejected) == \
            retained.shed_bytes


class TestRejectionsHappenUnderOverload:
    """The drop/shed paths really fire in the matrix above (so the
    conservation pins are not vacuous)."""

    MACHINE = dict(n_cps=2, n_iops=2, n_disks=4)

    def test_edf_drops_under_overload(self):
        workload = stamped_workload(0, arrival="poisson", arrival_rate=200.0)
        result = run_service("disk-directed", workload,
                             machine_config=MachineConfig(**self.MACHINE),
                             seed=0, admission_policy="edf")
        assert result.dropped_requests > 0
        assert result.shed_requests == 0
        assert result.shed_bytes > 0

    def test_controller_sheds_under_overload(self):
        workload = stamped_workload(0, arrival="poisson", arrival_rate=200.0)
        result = run_service("disk-directed", workload,
                             machine_config=MachineConfig(**self.MACHINE),
                             seed=0,
                             controller={"target_p99": 0.4, "interval": 0.1,
                                         "shed": True, "shed_age": 0.3})
        assert result.shed_requests > 0
        assert result.dropped_requests == 0
        assert result.controller["shed"] == result.shed_requests
        assert result.controller["intervals"] > 0
        assert result.controller["observed"] == \
            result.aggregates["completed"]


def max_backlog(result):
    """Most requests ever arrived but not yet admitted, from the records."""
    admitted = sorted(record["admitted_time"] for record in result.requests)
    return max(
        sum(1 for record in result.requests
            if record["arrival_time"] <= instant < record["admitted_time"])
        for instant in admitted)


#: FIFO shapes whose arrived-but-unadmitted backlog outgrows the spawn
#: window: (K, requests, offered load in req/s).
WINDOW_SHAPES = ((1, 100, 5000.0), (2, 200, 10000.0), (3, 300, 8000.0))


class TestStreamingUnderPressure:
    @pytest.mark.parametrize("concurrency,n_requests,arrival_rate",
                             WINDOW_SHAPES,
                             ids=[f"K{k}" for k, _, _ in WINDOW_SHAPES])
    def test_window_smaller_than_backlog(self, monkeypatch, concurrency,
                                         n_requests, arrival_rate):
        # More requests than the spawn window, arriving far faster than the
        # server drains them: the window must refill from the cursor without
        # perturbing admission order.  The reference is the same retained
        # run with the window opened past n_requests, so every handler
        # spawns at its arrival.
        workload = ServiceWorkload(n_requests=n_requests, arrival="poisson",
                                   arrival_rate=arrival_rate,
                                   concurrency=concurrency,
                                   n_files=2, file_size=32 * KILOBYTE,
                                   layout="contiguous",
                                   pattern_specs=("b",), record_size=8192,
                                   seed=2)
        machine_config = MachineConfig(n_cps=2, n_iops=1, n_disks=2)

        def run(retain=True):
            return run_service("disk-directed", workload,
                               machine_config=machine_config, seed=2,
                               retain_requests=retain)

        windowed = run()
        assert max_backlog(windowed) > driver.STREAM_SPAWN_WINDOW
        assert envelope(run(retain=False)) == envelope(windowed)
        monkeypatch.setattr(driver, "STREAM_SPAWN_WINDOW", n_requests + 1)
        unbounded = run()
        assert dataclasses.asdict(windowed) == dataclasses.asdict(unbounded)
        assert windowed.max_in_flight == concurrency
