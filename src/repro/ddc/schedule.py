"""Multi-probe scheduling: several probes, several periods, one roster.

DDC "schedules the periodic execution of software probes" (plural) --
the study ran W32Probe every 15 minutes and the NBench probe once per
machine.  :class:`MultiProbeDdc` composes one
:class:`~repro.ddc.coordinator.DdcCoordinator` per
:class:`ProbeJob`, staggering their start offsets so two probes never
storm the same machine simultaneously, and exposes combined accounting.

Because the coordinators share the simulator and the roster but nothing
else, a slow probe (NBench takes ~45 s of machine time) cannot delay
the fast monitoring probe's iterations -- matching how DDC isolates
probe schedules from one another.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.config import DdcParams
from repro.ddc.coordinator import DdcCoordinator
from repro.ddc.postcollect import PostCollector
from repro.ddc.probe import Probe
from repro.errors import ReproError
from repro.machines.machine import SimMachine
from repro.sim.engine import Simulator
from repro.sim.random import RandomStreams

__all__ = ["ProbeJob", "MultiProbeDdc"]


@dataclass(frozen=True)
class ProbeJob:
    """One probe's schedule.

    Attributes
    ----------
    name:
        Job identifier (unique within a :class:`MultiProbeDdc`).
    probe:
        The probe to execute.
    post_collect:
        Coordinator-side processing for this probe's output.
    period:
        Seconds between iterations.
    start_offset:
        Delay of the first iteration (used to stagger jobs).
    """

    name: str
    probe: Probe
    post_collect: PostCollector
    period: float
    start_offset: float = 0.0

    def __post_init__(self) -> None:
        if self.period <= 0:
            raise ReproError(f"job {self.name!r}: period must be positive")
        if self.start_offset < 0:
            raise ReproError(f"job {self.name!r}: offset must be non-negative")


class MultiProbeDdc:
    """Run several probe schedules over one machine roster.

    Parameters
    ----------
    machines / sim / horizon:
        Shared roster, simulator and experiment end.
    jobs:
        The probe schedules.  Job names must be unique.
    base_params:
        Template :class:`~repro.config.DdcParams`; each job clones it
        with its own period and keeps every other setting (retries, the
        resilience policy).
    streams:
        RNG factory for per-job coordinator noise.
    """

    def __init__(
        self,
        machines: Sequence[SimMachine],
        sim: Simulator,
        jobs: Sequence[ProbeJob],
        *,
        horizon: float,
        base_params: Optional[DdcParams] = None,
        streams: Optional[RandomStreams] = None,
    ):
        if not jobs:
            raise ReproError("MultiProbeDdc needs at least one job")
        names = [j.name for j in jobs]
        if len(set(names)) != len(names):
            raise ReproError(f"duplicate job names: {sorted(names)}")
        base = base_params or DdcParams()
        streams = streams or RandomStreams(0)
        self.jobs = list(jobs)
        self.coordinators: Dict[str, DdcCoordinator] = {}
        import dataclasses

        for job in self.jobs:
            params = dataclasses.replace(base, sample_period=job.period)
            self.coordinators[job.name] = DdcCoordinator(
                machines,
                sim,
                params,
                job.probe,
                job.post_collect,
                streams.stream(f"ddc/{job.name}"),
                horizon=horizon,
                start_offset=job.start_offset,
            )

    def start(self) -> None:
        """Schedule every job's first iteration (idempotent)."""
        for coord in self.coordinators.values():
            coord.start()

    # ------------------------------------------------------------------
    def coordinator(self, name: str) -> DdcCoordinator:
        """The coordinator backing job ``name``."""
        return self.coordinators[name]

    @property
    def total_attempts(self) -> int:
        """Probe attempts across all jobs."""
        return sum(c.attempts for c in self.coordinators.values())

    @property
    def total_samples(self) -> int:
        """Samples collected across all jobs."""
        return sum(c.samples_collected for c in self.coordinators.values())
