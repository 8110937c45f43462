"""Unit + integration tests for the harvesting subsystem."""

import numpy as np
import pytest

from repro.config import ExperimentConfig
from repro.errors import HarvestError
from repro.harvest.scheduler import HarvestPolicy, HarvestScheduler
from repro.harvest.tasks import Task, TaskBatch, make_batch
from repro.harvest.validation import validate_equivalence
from repro.machines.hardware import build_fleet
from repro.machines.machine import SimMachine
from repro.machines.smart import SmartDisk
from repro.sim.engine import Simulator


class TestTask:
    def test_progress_checkpoint_evict(self):
        t = Task(task_id=0, work=100.0)
        t.progress(30.0)
        assert t.remaining == 70.0
        t.checkpoint()
        assert t.done == 30.0
        t.progress(20.0)
        lost = t.evict()
        assert lost == 20.0
        assert t.done == 30.0
        assert t.evictions == 1

    def test_completion(self):
        t = Task(task_id=0, work=10.0)
        t.progress(10.0)
        t.complete(55.0)
        assert t.finished
        assert t.completed_at == 55.0
        with pytest.raises(HarvestError):
            t.progress(1.0)

    def test_validation(self):
        with pytest.raises(HarvestError):
            Task(task_id=0, work=0.0)
        t = Task(task_id=0, work=1.0)
        with pytest.raises(HarvestError):
            t.progress(-1.0)

    def test_batch_accounting(self):
        batch = TaskBatch([Task(0, 10.0), Task(1, 20.0)])
        assert batch.total_work == 30.0
        batch.tasks[0].progress(10.0)
        batch.tasks[0].complete(1.0)
        assert batch.completed_work == 10.0
        assert len(batch.pending) == 1
        stats = batch.stats()
        assert stats["completed"] == 1.0

    def test_make_batch(self, rng):
        batch = make_batch(50, rng, mean_work_hours=10.0)
        assert len(batch) == 50
        works = np.array([t.work for t in batch.tasks])
        assert works.mean() / 3600.0 == pytest.approx(10.0, rel=0.4)
        with pytest.raises(HarvestError):
            make_batch(0, rng)


class TestPolicy:
    def test_validation(self):
        with pytest.raises(HarvestError):
            HarvestPolicy(poll_period=0.0)
        with pytest.raises(HarvestError):
            HarvestPolicy(replication=0)
        with pytest.raises(HarvestError):
            HarvestPolicy(checkpoint_cost=-1.0)


def _mini_env(n_machines=3):
    sim = Simulator()
    machines = []
    for spec in build_fleet()[:n_machines]:
        machines.append(SimMachine(spec, SmartDisk(spec.disk_serial, spec.disk_bytes)))
    return sim, machines


class TestSchedulerUnit:
    def test_idle_machine_executes_task(self):
        sim, machines = _mini_env(1)
        machines[0].boot(0.0)
        batch = TaskBatch([Task(0, work=600.0)])
        sched = HarvestScheduler(
            machines, sim, batch, HarvestPolicy(poll_period=300.0),
            horizon=3600.0,
        )
        sched.start()
        sim.run_until(3600.0)
        assert batch.tasks[0].finished
        assert sched.stats.harvested_norm_seconds > 0

    def test_powered_off_machine_gets_nothing(self):
        sim, machines = _mini_env(1)
        batch = TaskBatch([Task(0, work=600.0)])
        sched = HarvestScheduler(
            machines, sim, batch, HarvestPolicy(poll_period=300.0), horizon=3600.0
        )
        sched.start()
        sim.run_until(3600.0)
        assert not batch.tasks[0].finished
        assert sched.stats.harvested_norm_seconds == 0.0

    def test_login_evicts_guest(self):
        sim, machines = _mini_env(1)
        m = machines[0]
        m.boot(0.0)
        sim.schedule(1000.0, m.login, 1000.0, "student")
        batch = TaskBatch([Task(0, work=1e9)])
        sched = HarvestScheduler(
            machines, sim, batch, HarvestPolicy(poll_period=300.0), horizon=7200.0
        )
        sched.start()
        sim.run_until(7200.0)
        assert sched.stats.evictions >= 1
        assert batch.tasks[0].evictions >= 1

    def test_harvest_occupied_policy(self):
        sim, machines = _mini_env(1)
        m = machines[0]
        m.boot(0.0)
        m.login(0.0, "student")
        batch = TaskBatch([Task(0, work=100.0)])
        sched = HarvestScheduler(
            machines, sim, batch,
            HarvestPolicy(poll_period=300.0, harvest_occupied=True),
            horizon=3600.0,
        )
        sched.start()
        sim.run_until(3600.0)
        assert sched.stats.harvested_norm_seconds > 0

    def test_weights_scale_progress(self):
        sim, machines = _mini_env(1)
        machines[0].boot(0.0)
        batch = TaskBatch([Task(0, work=1e9)])
        sched = HarvestScheduler(
            machines, sim, batch, HarvestPolicy(poll_period=300.0,
                                                checkpoint_interval=1e9),
            weights=np.array([2.0]), horizon=3600.0,
        )
        sched.start()
        sim.run_until(3600.0)
        # 3600 s fully idle at weight 2 -> ~7200 normalised seconds
        # (minus the first zero-dt poll)
        assert sched.stats.harvested_norm_seconds == pytest.approx(7200.0, rel=0.1)

    def test_replication_runs_copies_and_wastes_work(self):
        sim, machines = _mini_env(2)
        for m in machines:
            m.boot(0.0)
        batch = TaskBatch([Task(0, work=1200.0)])
        sched = HarvestScheduler(
            machines, sim, batch,
            HarvestPolicy(poll_period=300.0, replication=2),
            horizon=7200.0,
        )
        sched.start()
        sim.run_until(7200.0)
        assert batch.tasks[0].finished
        assert sched.stats.wasted_replica_work > 0

    def test_validation(self):
        sim, machines = _mini_env(1)
        with pytest.raises(HarvestError):
            HarvestScheduler(machines, sim, TaskBatch([]), HarvestPolicy(),
                             horizon=0.0)
        with pytest.raises(HarvestError):
            HarvestScheduler(machines, sim, TaskBatch([]), HarvestPolicy(),
                             weights=np.array([1.0, 2.0]), horizon=10.0)


class TestValidation:
    @pytest.fixture(scope="class")
    def outcome(self):
        return validate_equivalence(
            ExperimentConfig(days=3, seed=17), n_tasks=200, mean_work_hours=20.0
        )

    def test_achieved_ratio_below_upper_bound(self, outcome):
        # free-machine harvesting cannot beat the all-idle-cycles bound
        assert 0.0 < outcome.achieved_ratio < 0.55

    def test_achieved_ratio_is_substantial(self, outcome):
        # the conclusions' claim: harvesting classroom idleness pays
        assert outcome.achieved_ratio > 0.15

    def test_losses_are_small_fraction(self, outcome):
        assert outcome.eviction_loss_fraction < 0.2

    def test_tasks_complete(self, outcome):
        assert outcome.tasks_completed > 0
        assert outcome.tasks_completed <= outcome.tasks_total

    def test_polls_see_every_behavioural_event_before_them(self):
        # Polls run every 5 minutes, between the fleet's 15-minute
        # behaviour batches; they must read the fleet as of their own
        # instant.  Polls that read a fleet advanced only to the last
        # batch see stale state: this seed then counts 696 evictions.
        out = validate_equivalence(ExperimentConfig(days=3, seed=2005))
        stats = out.stats
        assert (stats.evictions, stats.assignments, stats.polls,
                out.tasks_completed) == (909, 1065, 865, 86)
        assert out.achieved_ratio == pytest.approx(0.2786443135551477,
                                                   rel=1e-12)
