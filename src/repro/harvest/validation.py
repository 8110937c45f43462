"""Validate the 2:1 rule with an actual harvesting workload.

Fig 6's cluster-equivalence ratio (~0.51) is an *upper bound*: it counts
every idle cycle as harvestable.  This module runs the harvesting
scheduler against a live fleet and measures the *achieved* ratio -- what
a real guest workload extracts once eviction losses, checkpoint overhead
and scheduling latency are paid.  The conclusions' claim survives if the
achieved ratio lands within a modest discount of the upper bound while
still being roughly half a dedicated cluster.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config import ExperimentConfig
from repro.harvest.scheduler import HarvestPolicy, HarvestScheduler, HarvestStats
from repro.harvest.tasks import TaskBatch, make_batch
from repro.sim.fleet import FleetSimulator

__all__ = ["HarvestValidation", "validate_equivalence"]


@dataclass(frozen=True)
class HarvestValidation:
    """Result of one harvesting validation run.

    Attributes
    ----------
    achieved_ratio:
        Normalised work actually harvested / dedicated-fleet capacity.
    stats:
        The scheduler's raw accounting.
    tasks_completed / tasks_total:
        Batch completion counts.
    """

    achieved_ratio: float
    stats: HarvestStats
    tasks_completed: int
    tasks_total: int

    @property
    def eviction_loss_fraction(self) -> float:
        """Work lost to evictions / work harvested."""
        if self.stats.harvested_norm_seconds <= 0:
            return float("nan")
        return self.stats.lost_to_eviction / self.stats.harvested_norm_seconds


def validate_equivalence(
    config: ExperimentConfig,
    *,
    policy: HarvestPolicy | None = None,
    n_tasks: int = 400,
    mean_work_hours: float = 30.0,
) -> HarvestValidation:
    """Run a fleet with an embedded harvester and measure the yield.

    The task batch is sized generously so the scheduler never starves --
    we are measuring capacity, not batch latency.
    """
    policy = policy or HarvestPolicy()
    fleet = FleetSimulator(config)
    rng = fleet.streams.stream("harvest/batch")
    batch: TaskBatch = make_batch(n_tasks, rng, mean_work_hours=mean_work_hours)
    perf = np.array([m.spec.perf_index for m in fleet.machines], dtype=float)
    weights = perf / perf.mean()
    # Polls read machine state between ticks, so they run on the
    # behaviour engine, in step with the events they observe.
    scheduler = HarvestScheduler(
        fleet.machines,
        fleet.behaviour_sim,
        batch,
        policy,
        weights=weights,
        horizon=config.horizon,
    )
    fleet.start()
    scheduler.start()
    fleet.sim.run_until(config.horizon)
    return HarvestValidation(
        achieved_ratio=scheduler.achieved_equivalence(),
        stats=scheduler.stats,
        tasks_completed=len(batch.completed),
        tasks_total=len(batch),
    )
