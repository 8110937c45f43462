"""Targeted edge-case tests for MachineAgent state transitions.

These drive one agent directly through the races the generation
counters exist for: ghost takeover, sweeps colliding with logins,
short cycles interrupted by students, stale activity re-draws.
"""

import pytest

from repro.config import ExperimentConfig
from repro.sim.behavior import PlannedUse
from repro.sim.calendar import HOUR
from repro.sim.fleet import FleetSimulator


@pytest.fixture()
def fleet():
    """An un-started fleet: agents exist, nothing is scheduled.

    Agents schedule on the fleet's behaviour engine (``agent.sim``), so
    the tests schedule and advance there too.
    """
    return FleetSimulator(ExperimentConfig(days=1, seed=101))


def _use(start, duration, forget=False, heavy=False):
    return PlannedUse(start=start, duration=duration, kind="walkin",
                      heavy=heavy, forget=forget)


class TestGhostTakeover:
    def test_next_user_logs_ghost_out(self, fleet):
        agent = fleet.agents[0]
        sim = agent.sim
        m = agent.machine
        sim.schedule(100.0, agent._begin_use, _use(100.0, HOUR, forget=True))
        sim.run_until(100.0 + HOUR + 120.0)
        assert m.session is not None and m.session.forgotten
        # a new student arrives and takes the machine over
        sim.schedule(sim.now + 10.0, agent._begin_use, _use(sim.now + 10.0, HOUR))
        sim.run_until(sim.now + 20.0)
        assert m.session is not None
        assert not m.session.forgotten
        # the ghost was logged out and recorded
        ghosts = [s for s in m.session_log if s.forgotten]
        assert len(ghosts) == 1

    def test_occupied_machine_rejects_second_user(self, fleet):
        agent = fleet.agents[1]
        sim = agent.sim
        m = agent.machine
        sim.schedule(100.0, agent._begin_use, _use(100.0, 2 * HOUR))
        sim.run_until(400.0)
        assert m.session is not None
        first_user = m.session.username
        sim.schedule(500.0, agent._begin_use, _use(500.0, HOUR))
        sim.run_until(600.0)
        assert m.session.username == first_user
        assert len(m.session_log) == 0  # nobody was logged out


class TestSweep:
    def test_sweep_spares_active_user(self, fleet):
        agent = fleet.agents[2]
        sim = agent.sim
        m = agent.machine
        sim.schedule(100.0, agent._begin_use, _use(100.0, 4 * HOUR))
        sim.run_until(200.0)
        assert m.session is not None
        agent.sweep()
        assert m.powered
        assert m.session is not None

    def test_sweep_can_kill_idle_machine(self, fleet):
        agent = fleet.agents[3]
        sim = agent.sim
        m = agent.machine
        sim.schedule(100.0, agent._begin_use, _use(100.0, 600.0))
        sim.run_until(100.0 + 600.0 + 200.0)
        if not m.powered:
            pytest.skip("user powered the machine off at logout")
        assert m.session is None
        # force a deterministic sweep decision
        for _ in range(200):
            agent.sweep()
            if not m.powered:
                break
        assert not m.powered

    def test_sweep_on_powered_off_machine_is_noop(self, fleet):
        agent = fleet.agents[4]
        assert not agent.machine.powered
        agent.sweep()
        assert not agent.machine.powered


class TestShortCycles:
    def test_short_cycle_skipped_when_machine_busy(self, fleet):
        agent = fleet.agents[5]
        sim = agent.sim
        m = agent.machine
        sim.schedule(100.0, agent._begin_use, _use(100.0, 2 * HOUR))
        sim.run_until(300.0)
        cycles_before = m.disk.power_cycles
        sim.schedule(400.0, agent._short_cycle, 300.0)
        sim.run_until(1000.0)
        assert m.disk.power_cycles == cycles_before  # no extra cycle

    def test_short_cycle_aborts_shutdown_if_user_arrives(self, fleet):
        agent = fleet.agents[6]
        sim = agent.sim
        m = agent.machine
        sim.schedule(100.0, agent._short_cycle, 600.0)
        sim.run_until(150.0)
        assert m.powered and m.session is None
        # a student grabs the machine before the cycle's shutdown fires
        sim.schedule(200.0, agent._begin_use, _use(200.0, 2 * HOUR))
        sim.run_until(100.0 + 600.0 + 60.0)
        assert m.powered, "the pending short-cycle shutdown must be aborted"
        assert m.session is not None

    def test_short_cycle_completes_when_untouched(self, fleet):
        agent = fleet.agents[7]
        sim = agent.sim
        m = agent.machine
        sim.schedule(100.0, agent._short_cycle, 300.0)
        sim.run_until(500.0)
        assert not m.powered
        assert len(m.boot_log) == 1
        assert m.boot_log[0].duration == pytest.approx(300.0)


class TestActivityRedraw:
    def test_stale_redraw_is_ignored_after_logout(self, fleet):
        agent = fleet.agents[8]
        sim = agent.sim
        m = agent.machine
        sim.schedule(100.0, agent._begin_use, _use(100.0, 600.0))
        sim.run_until(100.0 + 90.0 + 700.0)
        if m.powered:
            # a redraw scheduled during the session may still be queued;
            # firing it must not touch the now-idle machine
            busy_before = m.cpu_busy
            sim.run_until(sim.now + 30 * 60.0)
            if m.powered and m.session is None:
                assert m.cpu_busy == pytest.approx(busy_before)

    def test_heavy_use_drives_high_busy(self, fleet):
        agent = fleet.agents[9]
        sim = agent.sim
        m = agent.machine
        sim.schedule(100.0, agent._begin_use, _use(100.0, 2 * HOUR, heavy=True))
        sim.run_until(100.0 + 95.0)
        assert m.session is not None
        assert m.cpu_busy > 0.15


class TestWarmStart:
    def test_warm_start_powers_some_machines(self):
        fs = FleetSimulator(ExperimentConfig(days=1, seed=202))
        fs.start()
        on = fs.powered_count()
        # owls (~20% of 169) are mostly on, plus ~10% of the rest
        assert 15 < on < 80
