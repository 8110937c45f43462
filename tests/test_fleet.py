"""Integration tests for the fleet simulator (ground-truth level)."""

import numpy as np
import pytest

from repro.config import ExperimentConfig
from repro.sim.calendar import DAY, HOUR
from repro.sim.fleet import FleetSimulator


@pytest.fixture(scope="module")
def fleet_2d():
    fs = FleetSimulator(ExperimentConfig(days=2, seed=31))
    fs.run()
    return fs


class TestConstruction:
    def test_builds_full_fleet(self):
        fs = FleetSimulator(ExperimentConfig(days=1, seed=1))
        assert len(fs.machines) == 169
        assert len(fs.agents) == 169

    def test_machine_lookup(self):
        fs = FleetSimulator(ExperimentConfig(days=1, seed=1))
        m = fs.machine_by_hostname("L03-M07")
        assert m.spec.lab == "L03"

    def test_all_machines_start_off(self):
        fs = FleetSimulator(ExperimentConfig(days=1, seed=1))
        assert fs.powered_count() == 0

    def test_lab_demand_correlates_with_hardware(self):
        fs = FleetSimulator(ExperimentConfig(days=1, seed=1))
        # P4 labs must, in expectation terms, attract demand boosts; the
        # attraction factor of the fastest lab exceeds the slowest one's.
        assert set(fs.lab_demand) == {f"L{i:02d}" for i in range(1, 12)}


class TestGroundTruth:
    def test_sessions_happen(self, fleet_2d):
        total = sum(len(m.session_log) for m in fleet_2d.machines)
        assert total > 100

    def test_boots_happen(self, fleet_2d):
        total = sum(len(m.boot_log) for m in fleet_2d.machines)
        assert total > 100

    def test_sessions_lie_within_boot_sessions(self, fleet_2d):
        for m in fleet_2d.machines:
            intervals = [(b.boot_time, b.shutdown_time) for b in m.boot_log]
            if m.powered:
                intervals.append((m.boot_time, float("inf")))
            for s in m.session_log:
                assert any(b0 <= s.start and s.end <= b1 for b0, b1 in intervals), (
                    m.spec.hostname, s)

    def test_sessions_do_not_overlap_per_machine(self, fleet_2d):
        for m in fleet_2d.machines:
            log = sorted(m.session_log, key=lambda s: s.start)
            for a, b in zip(log, log[1:]):
                assert a.end <= b.start + 1e-6

    def test_boot_sessions_do_not_overlap(self, fleet_2d):
        for m in fleet_2d.machines:
            log = sorted(m.boot_log, key=lambda b: b.boot_time)
            for a, b in zip(log, log[1:]):
                assert a.shutdown_time <= b.boot_time + 1e-6

    def test_smart_cycles_match_boot_counts(self, fleet_2d):
        for m in fleet_2d.machines:
            boots = len(m.boot_log) + (1 if m.powered else 0)
            # disk history predates the run: only the delta must match
            # (initial cycles unknown); cycles grow monotonically.
            assert m.disk.power_cycles >= boots

    def test_no_activity_before_open(self, fleet_2d):
        clock = fleet_2d.calendar.clock
        for m in fleet_2d.machines:
            for s in m.session_log:
                sod = clock.second_of_day(s.start)
                wd = clock.weekday(s.start)
                open_ok = (
                    sod >= 8 * HOUR - 1e-6
                    or sod < 4 * HOUR + 3700  # overnight tail + boot lag
                )
                assert open_ok or wd == 5, (m.spec.hostname, clock.label(s.start))

    def test_forgotten_sessions_exist(self, fleet_2d):
        forgotten = [
            s for m in fleet_2d.machines for s in m.session_log if s.forgotten
        ]
        assert forgotten, "the forget-to-logout behaviour must occur"
        # forgotten sessions are long: user left, session lingered
        mean_f = np.mean([s.duration for s in forgotten])
        normal = [
            s.duration for m in fleet_2d.machines for s in m.session_log
            if not s.forgotten
        ]
        assert mean_f > np.mean(normal)

    def test_snapshot_counters_consistent(self, fleet_2d):
        assert fleet_2d.powered_count() == (
            fleet_2d.occupied_count() + fleet_2d.free_count()
        )


class TestDeterminism:
    def test_same_seed_same_truth(self):
        def run(seed):
            fs = FleetSimulator(ExperimentConfig(days=1, seed=seed))
            fs.run()
            return [
                (len(m.boot_log), len(m.session_log)) for m in fs.machines
            ]

        assert run(77) == run(77)
        assert run(77) != run(78)

    def test_run_is_idempotent_on_start(self):
        fs = FleetSimulator(ExperimentConfig(days=1, seed=3))
        fs.start()
        fs.start()  # idempotent
        fs.run()
        events_once = fs.sim.events_fired
        assert events_once > 0


class TestBehaviourScheduler:
    @pytest.mark.parametrize("kernel", ["auto", "object", "columnar"])
    def test_every_kernel_runs_the_tick_backend(self, kernel):
        fs = FleetSimulator(ExperimentConfig(days=1, seed=1, kernel=kernel))
        assert fs.behavioural_backend == "tick"
        assert fs.behaviour_sim is not fs.sim
        assert all(agent.sim is fs.behaviour_sim for agent in fs.agents)

    def test_outer_engine_carries_no_behavioural_event(self):
        # Two days: 2 * 96 + 1 batch events and the Tuesday 04:00 sweep.
        fs = FleetSimulator(ExperimentConfig(days=2, seed=31))
        fs.run()
        assert fs.sim.events_fired == 2 * 96 + 1 + 1
        assert fs.behaviour_sim.events_fired > 1000

    def test_run_off_the_grid_advances_behaviour(self):
        fs = FleetSimulator(ExperimentConfig(days=1, seed=3))
        until = 10 * HOUR + 7 * 60.0  # between two 15-minute ticks
        fs.run(until)
        assert fs.behaviour_sim.now == until
        assert fs.behaviour_sim.peek() > until
        # the run resumes seamlessly to the horizon
        fs.run()
        assert fs.behaviour_sim.now == fs.config.horizon
