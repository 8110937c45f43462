"""Tests for multi-probe scheduling."""

import pytest

from repro.config import DdcParams
from repro.ddc.coordinator import DdcCoordinator
from repro.ddc.nbenchprobe import NBenchProbe, parse_nbench_output
from repro.ddc.postcollect import SamplePostCollector
from repro.ddc.schedule import MultiProbeDdc, ProbeJob
from repro.ddc.w32probe import W32Probe
from repro.errors import ReproError
from repro.machines.hardware import build_fleet
from repro.machines.machine import SimMachine
from repro.machines.smart import SmartDisk
from repro.resilience.policy import ResiliencePolicy
from repro.sim.calendar import DAY, HOUR
from repro.sim.engine import Simulator
from repro.sim.random import RandomStreams
from repro.traces.records import TraceMeta
from repro.traces.store import TraceStore


def _machines(n=4, boot=True):
    out = []
    for spec in build_fleet()[:n]:
        m = SimMachine(spec, SmartDisk(spec.disk_serial, spec.disk_bytes),
                       base_disk_used_bytes=int(10e9))
        if boot:
            m.boot(0.0)
        out.append(m)
    return out


class _CountingCollector:
    """Post-collect that just counts NBench reports."""

    def __init__(self):
        self.reports = 0

    def __call__(self, stdout, stderr, context):
        parse_nbench_output(stdout)
        self.reports += 1
        return None


def _multi(machines, sim, horizon):
    store = TraceStore(TraceMeta(n_machines=len(machines),
                                 sample_period=900.0, horizon=horizon))
    monitor = SamplePostCollector(store)
    nbench_collect = _CountingCollector()
    streams = RandomStreams(5)
    jobs = [
        ProbeJob("monitor", W32Probe(), monitor, period=900.0),
        ProbeJob("bench", NBenchProbe(streams.stream("nb")), nbench_collect,
                 period=12 * HOUR, start_offset=300.0),
    ]
    multi = MultiProbeDdc(machines, sim, jobs, horizon=horizon, streams=streams)
    return multi, store, nbench_collect


def test_jobs_run_at_their_own_periods():
    sim = Simulator()
    machines = _machines()
    multi, store, bench = _multi(machines, sim, horizon=DAY)
    multi.start()
    sim.run_until(DAY)
    monitor = multi.coordinator("monitor")
    assert monitor.iterations_scheduled == 96
    assert multi.coordinator("bench").iterations_scheduled == 2
    assert bench.reports == 2 * len(machines)
    assert len(store) == monitor.samples_collected


def test_offset_staggers_first_iteration():
    sim = Simulator()
    machines = _machines()
    multi, _, _ = _multi(machines, sim, horizon=1000.0)
    multi.start()
    # first events: monitor at t=0, bench at t=300
    sim.run_until(100.0)
    assert multi.coordinator("monitor").iterations_scheduled == 1
    assert multi.coordinator("bench").iterations_scheduled == 0
    sim.run_until(400.0)
    assert multi.coordinator("bench").iterations_scheduled == 1


def test_combined_accounting():
    sim = Simulator()
    machines = _machines()
    multi, _, _ = _multi(machines, sim, horizon=DAY)
    multi.start()
    sim.run_until(DAY)
    total = sum(c.attempts for c in multi.coordinators.values())
    assert multi.total_attempts == total
    assert multi.total_samples == multi.coordinator("monitor").samples_collected


def test_duplicate_names_rejected():
    sim = Simulator()
    machines = _machines()
    store = TraceStore()
    collector = SamplePostCollector(store)
    jobs = [
        ProbeJob("x", W32Probe(), collector, period=900.0),
        ProbeJob("x", W32Probe(), collector, period=900.0),
    ]
    with pytest.raises(ReproError):
        MultiProbeDdc(machines, sim, jobs, horizon=DAY)


def test_empty_jobs_rejected():
    with pytest.raises(ReproError):
        MultiProbeDdc(_machines(), Simulator(), [], horizon=DAY)


def test_job_validation():
    store = TraceStore()
    collector = SamplePostCollector(store)
    with pytest.raises(ReproError):
        ProbeJob("bad", W32Probe(), collector, period=0.0)
    with pytest.raises(ReproError):
        ProbeJob("bad", W32Probe(), collector, period=1.0, start_offset=-1.0)


def test_start_is_idempotent():
    sim = Simulator()
    multi, _, _ = _multi(_machines(), sim, horizon=3600.0)
    multi.start()
    multi.start()
    sim.run_until(3600.0)
    assert multi.coordinator("monitor").iterations_scheduled == 4


def test_jobs_honour_the_resilience_policy():
    """A single-job schedule probes exactly like a lone coordinator.

    Half the roster is powered off, so the control plane's breakers
    open and its fast-fail deadline cuts timeouts; the job must see the
    same admissions, cuts and samples as a plain coordinator on the same
    stream.
    """
    params = DdcParams(resilience=ResiliencePolicy())

    def roster():
        machines = _machines(n=8, boot=False)
        for m in machines[::2]:
            m.boot(0.0)
        return machines

    def store():
        return TraceStore(TraceMeta(n_machines=8, sample_period=900.0,
                                    horizon=DAY))

    sim = Simulator()
    multi_store = store()
    multi = MultiProbeDdc(
        roster(), sim,
        [ProbeJob("monitor", W32Probe(), SamplePostCollector(multi_store),
                  period=900.0)],
        horizon=DAY, base_params=params, streams=RandomStreams(5))
    multi.start()
    sim.run_until(DAY)
    job = multi.coordinator("monitor")

    sim = Simulator()
    lone_store = store()
    lone = DdcCoordinator(roster(), sim, params, W32Probe(),
                          SamplePostCollector(lone_store),
                          RandomStreams(5).stream("ddc/monitor"), horizon=DAY)
    lone.start()
    sim.run_until(DAY)

    assert lone.breaker_skipped > 0 and lone.resilience.fastfail_cuts > 0
    for name in ("iterations_run", "attempts", "timeouts",
                 "samples_collected", "shed", "breaker_skipped"):
        assert getattr(job, name) == getattr(lone, name), name
    assert job.resilience.fastfail_cuts == lone.resilience.fastfail_cuts
    assert ([repr(s) for s in multi_store.samples()]
            == [repr(s) for s in lone_store.samples()])
