"""Tests for the machine builder, nodes and SCSI busses."""

import pytest

from repro.machine import Machine, MachineConfig, ScsiBus
from repro.sim import Environment


class TestMachineConstruction:
    def test_builds_requested_topology(self, small_config):
        machine = Machine(small_config, seed=0)
        assert len(machine.cps) == 4
        assert len(machine.iops) == 4
        assert len(machine.disks) == 4

    def test_each_iop_has_bus_and_disk(self, small_config):
        machine = Machine(small_config, seed=0)
        for iop in machine.iops:
            assert iop.bus is not None
            assert len(iop.disks) == 1

    def test_multiple_disks_per_iop(self):
        config = MachineConfig(n_cps=2, n_iops=1, n_disks=4)
        machine = Machine(config, seed=0)
        assert len(machine.iops[0].disks) == 4
        # All four drives share the single IOP's bus resource.
        resources = {disk.bus_port.resource for disk in machine.disks}
        assert len(resources) == 1

    def test_node_lookup_by_id(self, small_config):
        machine = Machine(small_config, seed=0)
        assert machine.node(0) is machine.cps[0]
        assert machine.node(small_config.n_cps) is machine.iops[0]

    def test_iop_for_disk(self, small_config):
        machine = Machine(small_config, seed=0)
        assert machine.iop_for_disk(2) is machine.iops[2]

    def test_local_disk_lookup(self):
        config = MachineConfig(n_cps=2, n_iops=2, n_disks=4)
        machine = Machine(config, seed=0)
        iop0 = machine.iops[0]
        assert iop0.local_disk(0) is machine.disks[0]
        assert iop0.local_disk(2) is machine.disks[2]
        with pytest.raises(KeyError):
            iop0.local_disk(1)

    def test_seed_controls_rotational_positions(self, small_config):
        first = Machine(small_config, seed=1)
        second = Machine(small_config, seed=1)
        third = Machine(small_config, seed=2)
        first_angles = [d.mechanics.rotation.initial_angle_fraction for d in first.disks]
        second_angles = [d.mechanics.rotation.initial_angle_fraction for d in second.disks]
        third_angles = [d.mechanics.rotation.initial_angle_fraction for d in third.disks]
        assert first_angles == second_angles
        assert first_angles != third_angles

    def test_run_and_now_delegate_to_environment(self, small_config):
        machine = Machine(small_config, seed=0)
        machine.run(until=1.5)
        assert machine.now == 1.5

    def test_total_disk_stats_aggregates(self, small_config):
        machine = Machine(small_config, seed=0)
        stats = machine.total_disk_stats()
        assert stats["reads"] == 0
        assert set(stats) >= {"reads", "writes", "bytes_read", "bytes_written"}

    def test_external_environment_can_be_supplied(self, small_config):
        env = Environment()
        machine = Machine(small_config, seed=0, env=env)
        assert machine.env is env


class TestScsiBus:
    def test_busy_fraction_tracks_usage(self):
        env = Environment()
        bus = ScsiBus(env, bandwidth=10e6, transfer_overhead=0.0)
        port = bus.port()

        def user(env):
            yield from port.transfer(env, 5_000_000)  # 0.5 s on a 10 MB/s bus
            yield env.timeout(0.5)

        env.run(env.process(user(env)))
        assert bus.busy_fraction() == pytest.approx(0.5, rel=0.05)
        assert bus.bytes_transferred.value == 5_000_000

    def test_transfer_overhead_added(self):
        env = Environment()
        bus = ScsiBus(env, bandwidth=10e6, transfer_overhead=1e-3)
        port = bus.port()
        assert port.transfer_time(10_000) == pytest.approx(1e-3 + 1e-3)

    def test_transfer_event_fast_path_accounts_like_transfer(self):
        # The uncontended single-event path must record the same byte count
        # and per-session occupancy as the generator path, at transfer end.
        env = Environment()
        bus = ScsiBus(env, bandwidth=10e6, transfer_overhead=0.0)
        port = bus.port()
        checkpoints = []

        def fast_user(env):
            event = port.transfer_event(env, 5_000_000, session_id="s1")
            assert event is not None
            checkpoints.append(("before", bus.bytes_transferred.value))
            yield event
            checkpoints.append(("after", bus.bytes_transferred.value))

        def generator_user(env):
            yield env.timeout(1.0)
            yield from port.transfer(env, 5_000_000, session_id="s1")

        env.process(fast_user(env))
        env.process(generator_user(env))
        env.run()
        assert checkpoints == [("before", 0), ("after", 5_000_000)]
        assert bus.bytes_transferred.value == 10_000_000
        assert bus.session_busy_seconds("s1") == pytest.approx(1.0)

    def test_transfer_event_none_on_contended_bus(self):
        env = Environment()
        bus = ScsiBus(env, bandwidth=10e6, transfer_overhead=0.0)
        port = bus.port()
        observed = []

        def holder(env):
            yield from port.transfer(env, 10_000_000)

        def prober(env):
            yield env.timeout(0.5)
            observed.append(port.transfer_event(env, 8192))

        env.process(holder(env))
        env.process(prober(env))
        env.run()
        assert observed == [None]

    def test_busy_fraction_sums_contending_transfers(self):
        # One transfer on the fast path, one queued behind it on the
        # generator path: the bus is busy for exactly their summed
        # occupancies, then idles until the run ends.
        env = Environment()
        bus = ScsiBus(env, bandwidth=10e6, transfer_overhead=1e-3)
        port = bus.port()
        finished = []

        def fast_user(env):
            event = port.transfer_event(env, 2_000_000)
            assert event is not None
            yield event
            finished.append(env.now)

        def generator_user(env):
            yield env.timeout(0.05)
            assert port.transfer_event(env, 3_000_000) is None
            yield from port.transfer(env, 3_000_000)
            finished.append(env.now)

        def idler(env):
            yield env.timeout(1.0)

        env.process(fast_user(env))
        env.process(generator_user(env))
        env.process(idler(env))
        env.run()
        first, second = port.transfer_time(2_000_000), port.transfer_time(3_000_000)
        assert finished == pytest.approx([first, first + second])
        assert env.now == 1.0
        assert bus.busy_fraction() == pytest.approx((first + second) / env.now)

    def test_busy_fraction_of_idle_bus_is_zero(self):
        env = Environment()
        bus = ScsiBus(env, bandwidth=10e6)
        assert bus.busy_fraction() == 0.0  # no time has passed yet
        env.run(until=1.0)
        assert bus.busy_fraction() == 0.0

    def test_busy_fraction_of_back_to_back_transfers_is_one(self):
        env = Environment()
        bus = ScsiBus(env, bandwidth=10e6)
        port = bus.port()

        def user(env):
            for _ in range(4):
                yield from port.transfer(env, 1_000_000)

        env.run(env.process(user(env)))
        assert env.now == pytest.approx(0.4)
        assert bus.busy_fraction() == pytest.approx(1.0)

    def test_busy_fraction_counts_from_bus_creation(self):
        env = Environment()
        env.run(until=1.0)
        bus = ScsiBus(env, bandwidth=10e6)
        port = bus.port()

        def user(env):
            yield from port.transfer(env, 5_000_000)  # 0.5 s
            yield env.timeout(0.5)

        env.run(env.process(user(env)))
        assert env.now == pytest.approx(2.0)
        assert bus.busy_fraction() == pytest.approx(0.5)

    def test_session_busy_seconds_split_by_session(self):
        env = Environment()
        bus = ScsiBus(env, bandwidth=10e6)
        port = bus.port()

        def user(env, n_bytes, session_id):
            yield from port.transfer(env, n_bytes, session_id=session_id)

        env.process(user(env, 1_000_000, "a"))
        env.process(user(env, 3_000_000, "b"))
        env.process(user(env, 2_000_000, None))
        env.run()
        assert bus.session_busy_seconds("a") == pytest.approx(0.1)
        assert bus.session_busy_seconds("b") == pytest.approx(0.3)
        assert bus.busy_seconds == pytest.approx(0.6)
        bus.release_session("a")
        assert bus.session_busy_seconds("a") == 0.0


class TestNodes:
    def test_compute_charges_cpu(self, small_config):
        machine = Machine(small_config, seed=0)
        cp = machine.cps[0]

        def worker(env):
            yield from cp.compute(0.25)
            return env.now

        assert machine.env.run(machine.env.process(worker(machine.env))) == 0.25

    def test_compute_zero_duration_is_free(self, small_config):
        machine = Machine(small_config, seed=0)
        cp = machine.cps[0]

        def worker(env):
            yield from cp.compute(0.0)
            return env.now

        assert machine.env.run(machine.env.process(worker(machine.env))) == 0.0

    def test_node_names(self, small_config):
        machine = Machine(small_config, seed=0)
        assert machine.cps[0].name == "cp0"
        assert machine.iops[3].name == "iop3"


class TestSharedSchedulerWiring:
    def test_default_machine_has_no_shared_queues(self, small_config):
        machine = Machine(small_config, seed=0)
        assert machine.iop_scheduling is None
        assert machine.shared_queues == [None] * small_config.n_disks
        assert machine.disk_handle(0) is machine.disks[0]

    def test_shared_cscan_builds_one_queue_per_disk(self, small_config):
        from repro.disk import SharedDiskQueue

        machine = Machine(small_config, seed=0, disk_scheduler="shared-cscan")
        assert machine.iop_scheduling == "cscan"
        for index, queue in enumerate(machine.shared_queues):
            assert isinstance(queue, SharedDiskQueue)
            assert queue.disk is machine.disks[index]
            assert machine.disk_handle(index) is queue
            # The drive under a shared queue stays FCFS.
            assert machine.disks[index].scheduler.name == "fcfs"
        # IOPs hand out the queue as the local disk handle.
        iop = machine.iops[0]
        global_index = iop.disk_indices[0]
        assert iop.local_disk_handle(global_index) \
            is machine.disk_handle(global_index)
        assert iop.local_disk(global_index) is machine.disks[global_index]

    def test_plain_policy_configures_the_drive_queue(self, small_config):
        machine = Machine(small_config, seed=0, disk_scheduler="cscan")
        assert machine.iop_scheduling is None
        assert all(disk.scheduler.name == "cscan" for disk in machine.disks)

    def test_unknown_shared_policy_rejected(self, small_config):
        with pytest.raises(ValueError):
            Machine(small_config, seed=0, disk_scheduler="shared-zigzag")

    def test_session_stats_roundtrip(self, small_config):
        machine = Machine(small_config, seed=0)
        disk = machine.disks[0]
        disk.session(9).reads = 3
        disk.session(9).service_time = 0.5
        stats = machine.session_disk_stats(9)
        assert stats["reads"] == 3
        assert stats["disk_service_time"] == 0.5
        machine.release_session(9)
        assert machine.session_disk_stats(9)["reads"] == 0

    def test_policy_object_accepted_for_drive_queue(self, small_config):
        from repro.disk import SstfScheduler

        policy = SstfScheduler()
        machine = Machine(small_config, seed=0, disk_scheduler=policy)
        assert machine.iop_scheduling is None
        assert all(disk.scheduler is policy for disk in machine.disks)

    def test_shared_queue_workers_sizes_the_pool(self, small_config):
        machine = Machine(small_config, seed=0, disk_scheduler="shared-cscan",
                          shared_queue_workers=4)
        assert all(queue.workers == 4 for queue in machine.shared_queues)
        default = Machine(small_config, seed=0, disk_scheduler="shared-cscan")
        assert all(queue.workers == 2 for queue in default.shared_queues)
