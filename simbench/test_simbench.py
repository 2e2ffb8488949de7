"""Tests of the simulator benchmark.

Run from the repository root with ``python -m pytest simbench``.  The
workloads are cut to one block each, so the whole file runs in well under a
minute.
"""

import json
import time
from collections import Counter
from pathlib import Path

import pytest

from repro.experiments.matrix import result_digest
from repro.experiments.runner import run_trial as library_trial
from simbench import bench, run

BENCHMARK = json.loads(
    (Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def one_block(monkeypatch):
    monkeypatch.setattr(bench, "BLOCKS", dict.fromkeys(bench.WORKLOADS, 1))


def _model_output(run_):
    counters = Counter()
    for outcome in run_.first_cycle:
        counters.update(outcome.counters)
    return bench.sim_metrics(run_), counters, bench.sim_digest(run_)


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_same_seed_same_model_output_and_other_seed_other_digest(workload):
    first = bench.measure(workload, seed=3, seconds=0)
    second = bench.measure(workload, seed=3, seconds=0)
    other = bench.measure(workload, seed=4, seconds=0)
    assert first.complete and second.complete and other.complete
    assert _model_output(first) == _model_output(second)
    assert bench.sim_digest(other) != bench.sim_digest(first)


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_benchmark_trial_is_the_library_trial(workload):
    """The benchmark builds trials itself to time setup layer by layer; its
    results must stay bit-identical to the experiment runners'."""
    trial = bench.workload_blocks(workload, seed=2)[0][0]
    outcome = bench.run_trial(trial, bench.SpanLog(), workload, cycle=0)
    assert not outcome.error and not outcome.failed
    assert outcome.digest == result_digest(
        library_trial(trial.config, seed=trial.seed))


def _cli(capsys, *args):
    code = run.main(["--workload", "service-overload", "--seed", "2",
                     "--seconds", "0", *args])
    return code, json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_untraced_run_reports_every_end_to_end_metric(capsys):
    code, result = _cli(capsys, "--trace", "0")
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert result["attempted"] == 64
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {name: value["unit"] for name, value in result["metrics"].items()} \
        == expected
    assert all(value["value"] > 0 for value in result["metrics"].values())


def test_traced_run_reports_every_per_layer_metric(capsys):
    code, result = _cli(capsys, "--trace", "1")
    assert code == 0 and result["correct"]
    expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {name: value["unit"] for name, value in result["metrics"].items()} \
        == expected
    assert result["metrics"]["trace.overhead"]["value"] > 1.0
    assert result["metrics"]["sim.events"]["value"] > 0


def test_host_clock_takes_its_slices_out_of_spans():
    log = bench.SpanLog()
    with bench.HostClock(period=0.01) as clock:
        with log.span("busy") as busy:
            end = time.perf_counter() + 0.3
            while time.perf_counter() < end:
                pass
    assert len(clock.slices) >= 5
    inside = sum(stop - start for start, stop in clock.slices
                 if busy["start"] <= start < busy["end"])
    assert clock.net(busy) == pytest.approx(log.seconds(busy) - inside)
    assert 0 < clock.net(busy) < log.seconds(busy)
    assert clock.speed(busy) > 0


def test_layer_buckets_split_disk_and_core_by_file():
    from repro.core import iop_cache
    from repro.disk import flash, mechanics
    from repro.sim import engine
    assert bench.layer_of(flash.__file__) == "disk.flash"
    assert bench.layer_of(mechanics.__file__) == "disk.drive"
    assert bench.layer_of(iop_cache.__file__) == "core.iop_cache"
    assert bench.layer_of(engine.__file__) == "sim"
    assert bench.layer_of(run.__file__) == "other"
