"""Tests for the service family table and its one runner, ``run_figure``."""

import dataclasses
import json

import pytest

from repro.experiments import FAMILIES, FIGURES, run_figure
from repro.experiments import service
from repro.experiments.service import ADMISSION_ROWS

KILOBYTE = 1024

#: One tiny shape per family: every family runs its whole pipeline (grid,
#: sweep, checks, text, artifact) in well under a second.  The fault,
#: admission, flash and rebuild shapes are the figures' CI smoke shapes.
SMOKE = {
    "service": dict(loads=(100.0, 300.0), n_cps=2, n_iops=1, n_disks=1,
                    n_requests=4, n_files=2, file_size=64 * KILOBYTE,
                    layout="contiguous", concurrency=2),
    "service-sched": dict(loads=(100.0,), concurrencies=(1, 2),
                          schedulers=("fcfs", "shared-cscan"),
                          pool_sizes=(1, 2), n_cps=2, n_iops=1, n_disks=1,
                          n_requests=4, n_files=2, file_size=64 * KILOBYTE,
                          layout="contiguous", seed=7),
    "service-overload": dict(loads=(100.0, 400.0), n_cps=2, n_iops=1,
                             n_disks=1, n_requests=4, n_files=2,
                             file_size=64 * KILOBYTE, layout="contiguous",
                             concurrency=2, seed=7),
    "service-millions": dict(loads=((50.0, 20), (200.0, 40)), n_cps=2,
                             n_iops=2, n_disks=4, n_files=4, concurrency=4),
    "service-faults": dict(n_cps=4, n_iops=4, n_disks=4, n_requests=8,
                           n_files=4, file_size=262144, concurrency=2),
    "service-admission": dict(n_cps=2, n_iops=2, n_disks=2, n_requests=8,
                              n_files=2, file_size=131072, concurrency=2),
    "ddio-flash": dict(loads=(50.0,), n_cps=2, n_iops=2, n_disks=2,
                       n_requests=8, n_files=2, file_size=131072,
                       concurrency=2),
    "service-rebuild": dict(devices=("disk",), n_cps=2, n_iops=2, n_disks=4,
                            n_requests=6, n_files=2, file_size=131072,
                            concurrency=2, fault_fail_stop_time=0.01,
                            rebuild_bandwidth=16.0 * 2 ** 20),
}


def test_every_family_has_a_smoke_shape():
    assert set(SMOKE) == set(FAMILIES)


def test_every_family_is_a_cli_figure():
    for name in FAMILIES:
        assert FIGURES[name].func is run_figure
        assert FIGURES[name].args == (name,)


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_family_smoke(name, tmp_path, monkeypatch):
    spec = FAMILIES[name]
    calls = []

    def counted(check):
        def wrapper(config, result):
            calls.append(check)
            check(config, result)
        return wrapper

    monkeypatch.setitem(FAMILIES, name, dataclasses.replace(
        spec, checks=tuple(counted(check) for check in spec.checks)))
    json_path = tmp_path / "artifact.json"
    summaries, text = run_figure(name, trials=1, json_path=str(json_path),
                                 **SMOKE[name])
    points = len(spec.grid(**SMOKE[name]).configs)
    assert len(summaries) == points
    assert text.startswith(spec.header(spec.grid(**SMOKE[name])))
    assert "trials" in text
    for series in spec.series:
        assert series.title in text
    artifact = json.loads(json_path.read_text())
    assert artifact["figure"] == name
    assert f"repro.experiments.figures {name} --json" in artifact["regenerate"]
    assert len(artifact["rows"]) == points
    assert artifact["config"]["trials"] == 1
    # Every check ran on every trial, conservation first.
    assert spec.checks[0] is service._conserves
    assert len(calls) == points * len(spec.checks)
    assert set(calls) == set(spec.checks)


def test_rebuild_checks_zero_failed_bytes():
    assert FAMILIES["service-rebuild"].checks == (service._conserves,
                                                  service._loses_nothing)


def test_checks_raise_on_a_violating_trial():
    class Lossy:
        failed_bytes = 8192
        lost_bytes = 0

        def conserves_bytes(self):
            return False

    config = FAMILIES["service-rebuild"].grid().configs[0]
    with pytest.raises(AssertionError, match="conservation"):
        service._conserves(config, Lossy())
    with pytest.raises(AssertionError, match="lost data"):
        service._loses_nothing(config, Lossy())


def _swept_overrides():
    """``(family, field)`` for every field an axis sweeps, plus the offered
    load for every family (fixed in the fault and rebuild families)."""
    cases = set()
    for name, spec in FAMILIES.items():
        cases.add((name, "arrival_rate"))
        for axis in spec.axes:
            if isinstance(axis.fields, str):
                cases.add((name, axis.fields))
    return sorted(cases)


@pytest.mark.parametrize("name, field", _swept_overrides())
def test_swept_field_override_replaces_the_axis(name, field):
    """An override of a swept field replaces its axis with the single value
    (and never collides with the axis as a duplicate keyword)."""
    spec = FAMILIES[name]
    smoke = spec.grid(**SMOKE[name]).configs
    value = 12.0 if field == "arrival_rate" else getattr(smoke[-1], field)
    summaries, _text = run_figure(name, trials=1,
                                  **{**SMOKE[name], field: value})
    expected = list(dict.fromkeys(
        dataclasses.replace(config, label="", **{field: value})
        for config in smoke))
    assert [dataclasses.replace(summary.config, label="")
            for summary in summaries] == expected


def test_field_set_by_some_variants_changes_only_those():
    grid = FAMILIES["service-admission"].grid(controller_target_p99=0.5)
    for config, variants in zip(grid.configs, grid.variants):
        if variants["rows"] == "controller":
            assert config.controller_target_p99 == 0.5
        else:
            assert config.controller_target_p99 == 0.0
    assert len(grid.configs) == len(FAMILIES["service-admission"]
                                    .grid().configs)


def test_pool_axis_varies_only_under_shared_scheduling():
    grid = FAMILIES["service-sched"].grid(**SMOKE["service-sched"])
    points = [(c.concurrency, c.disk_scheduler, c.shared_queue_workers)
              for c in grid.configs]
    assert points == [(1, "fcfs", 1), (1, "shared-cscan", 1),
                      (1, "shared-cscan", 2), (2, "fcfs", 1),
                      (2, "shared-cscan", 1), (2, "shared-cscan", 2)]


class TestAdmissionArtifact:
    def test_records_the_controller_values_that_ran(self, tmp_path):
        json_path = tmp_path / "admission.json"
        run_figure("service-admission", trials=1, json_path=str(json_path),
                   controller_target_p99=0.5, controller_shed_age=0.2,
                   **SMOKE["service-admission"])
        artifact = json.loads(json_path.read_text())
        assert artifact["config"]["controller_target_p99"] == 0.5
        assert artifact["config"]["controller_shed_age"] == 0.2
        controller = [row for row in artifact["rows"]
                      if row["policy"] == "controller"]
        assert controller
        assert all(row["slo_target_s"] == 0.5 for row in controller)

    def test_records_no_controller_when_none_ran(self, tmp_path):
        json_path = tmp_path / "admission.json"
        rows = tuple(row for row in ADMISSION_ROWS if row[0] == "fifo")
        run_figure("service-admission", trials=1, json_path=str(json_path),
                   rows=rows, **SMOKE["service-admission"])
        artifact = json.loads(json_path.read_text())
        assert artifact["config"]["controller_target_p99"] == 0.0


class TestFlashRatios:
    def ratios(self, tmp_path, **overrides):
        json_path = tmp_path / "flash.json"
        _summaries, text = run_figure("ddio-flash", trials=1,
                                      json_path=str(json_path),
                                      **{**SMOKE["ddio-flash"], **overrides})
        return json.loads(json_path.read_text())["ratios"], text

    def test_ratio_is_ddio_over_tc_whatever_the_method_order(self, tmp_path):
        forward, _ = self.ratios(tmp_path)
        reverse, _ = self.ratios(
            tmp_path, methods=("traditional", "disk-directed"))
        assert reverse == forward
        assert all(ratio["ddio_vs_tc"] > 1.0 for ratio in forward)

    def test_single_method_has_no_ratio_rows(self, tmp_path):
        ratios, text = self.ratios(tmp_path, methods=("disk-directed",))
        assert ratios == []
        assert "DDIO:TC throughput ratio" in text
