"""Unit tests for :class:`ResilienceControl` and its executor hooks."""

import numpy as np
import pytest

from repro.config import DdcParams
from repro.ddc.coordinator import DdcCoordinator
from repro.ddc.postcollect import SamplePostCollector
from repro.ddc.remote import Credentials, RemoteExecutor
from repro.ddc.w32probe import W32Probe
from repro.errors import AccessDenied, MachineUnreachable
from repro.faults import FaultPlan
from repro.faults.scenarios import AccessDeniedStorm, FlappingHost, SlowMachines
from repro.resilience import (
    PROBE,
    SHED,
    SKIP_BREAKER,
    ResilienceControl,
    ResiliencePolicy,
)
from repro.sim.engine import Simulator
from repro.traces.records import TraceMeta
from repro.traces.store import TraceStore

from tests.faults.helpers import HOUR, always_on_fleet, run_mini

ROSTER = [(0, "L01"), (1, "L01"), (2, "L02")]


def make_control(policy=None, roster=None, *, off_timeout=1.5,
                 sample_period=900.0):
    return ResilienceControl(
        policy if policy is not None else ResiliencePolicy(),
        roster if roster is not None else ROSTER,
        off_timeout=off_timeout, sample_period=sample_period,
    )


def fail_n(control, mid, n, t0=0.0):
    for k in range(n):
        control.observe(mid, t0 + k, reachable=False, latency=None)


class TestConstruction:
    def test_empty_roster_rejected(self):
        with pytest.raises(ValueError, match="roster"):
            make_control(roster=[])

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            make_control(roster=[(0, "L01"), (0, "L02")])

    def test_everything_starts_closed_and_healthy(self):
        c = make_control()
        assert c.state_counts() == {"closed": 3, "open": 0, "half_open": 0}
        assert all(c.health_of(m) == 1.0 for m, _ in ROSTER)


class TestBreakerIntegration:
    POLICY = ResiliencePolicy(health_alpha=0.5, breaker_cooldown=100.0,
                              breaker_cooldown_max=400.0)

    def test_one_timeout_never_trips(self):
        c = make_control()
        c.observe(0, 1.0, reachable=False, latency=None)
        assert c.state_counts()["open"] == 0
        assert c.admit(0, 2.0) == PROBE or True  # still probeable
        c.begin_pass(0, 0.0)
        assert c.admit(0, 2.0) == PROBE

    def test_streak_without_low_health_never_trips(self):
        # both gates required: slow alpha keeps the score high, so even a
        # long streak alone is not enough evidence
        c = make_control(ResiliencePolicy(health_alpha=0.05))
        fail_n(c, 0, 3)
        assert c.state_counts()["open"] == 0

    def test_trips_then_skips_then_recovers(self):
        c = make_control(self.POLICY)
        c.begin_pass(0, 0.0)
        fail_n(c, 0, 3)  # health 1 -> .5 -> .25 -> .125 with streak 3
        assert c.state_counts()["open"] == 1
        assert c.admit(0, 10.0) == SKIP_BREAKER
        assert c.breaker_skips == 1
        # cooldown (100 s from the trip at t=2) elapsed: half-open probe
        assert c.admit(0, 150.0) == PROBE
        assert c.state_counts()["half_open"] == 1
        c.observe(0, 150.5, reachable=True, latency=0.4)
        assert c.state_counts() == {"closed": 3, "open": 0, "half_open": 0}
        assert c.health_of(0) == self.POLICY.reset_health

    def test_half_open_failure_reopens_with_backoff(self):
        c = make_control(self.POLICY)
        fail_n(c, 0, 3)
        c.begin_pass(0, 0.0)
        assert c.admit(0, 150.0) == PROBE          # half-open trial
        c.observe(0, 151.0, reachable=False, latency=None)
        assert c.state_counts()["open"] == 1
        reasons = [tr.reason for tr in c.breaker_log]
        assert reasons == ["tripped", "cooldown_elapsed", "reopened"]
        # backoff doubles the cooldown: blocked until ~151 + 200
        assert c.admit(0, 151.0 + 150.0) == SKIP_BREAKER
        assert c.admit(0, 151.0 + 250.0) == PROBE

    def test_probe_admission_gate(self):
        policy = ResiliencePolicy(health_alpha=0.5, breaker_cooldown=100.0,
                                  breaker_cooldown_max=400.0,
                                  probe_admission=1e-12)
        c = make_control(policy)
        fail_n(c, 0, 3)
        c.begin_pass(0, 0.0)
        # admission draw ~always above 1e-12: the trial probe is withheld
        assert c.admit(0, 150.0) == SKIP_BREAKER
        assert c.state_counts()["half_open"] == 1

    def test_reachable_auth_failure_is_proof_of_life(self):
        c = make_control(self.POLICY)
        fail_n(c, 0, 2)
        c.observe(0, 5.0, reachable=True, latency=0.5)  # denied but alive
        fail_n(c, 0, 2, t0=6.0)
        # the streak restarted at the reachable outcome: still closed
        assert c.state_counts()["open"] == 0


class TestShedding:
    def test_budget_exhausted_guard(self):
        c = make_control()  # budget = 0.8 * 900 = 720 s
        c.begin_pass(0, 0.0)
        assert c.admit(0, 719.0) == PROBE
        assert c.admit(1, 721.0) == SHED
        assert c.shed_by_reason == {"budget_exhausted": 1}
        rec = c.shed_ledger[0]
        assert (rec.iteration, rec.machine_id, rec.reason) == (
            0, 1, "budget_exhausted")

    def test_predicted_overrun_sheds_lowest_health_first(self):
        # pass budget 3.2 s < 3 machines * 1.5 s cold estimate: shedding
        # one machine (roster order breaks the all-equal-health tie)
        # brings the predicted cost to 3.0 s
        c = make_control(sample_period=4.0)
        c.begin_pass(0, 0.0)
        assert c.admit(0, 0.0) == SHED
        assert c.admit(1, 0.0) == PROBE
        assert c.admit(2, 0.0) == PROBE
        assert c.shed_by_reason == {"predicted_overrun": 1}

    def test_unhealthy_machines_shed_before_healthy(self):
        c = make_control(sample_period=4.0)
        fail_n(c, 2, 1)  # machine 2 now least healthy
        c.begin_pass(0, 0.0)
        assert c.admit(2, 0.0) == SHED
        assert c.admit(0, 0.0) == PROBE

    def test_anti_starvation_streak_cap(self):
        # a budget no machine fits into would starve everyone forever;
        # the streak cap forces a probe every shed_max_streak+1 passes
        policy = ResiliencePolicy(shed_max_streak=2)
        c = make_control(policy, sample_period=1.0)  # budget 0.8 s
        decisions = {}
        for k in range(3):
            c.begin_pass(k, k * 900.0)
            decisions[k] = [c.admit(m, k * 900.0) for m, _ in ROSTER]
        assert decisions[0] == [SHED, SHED, SHED]
        assert decisions[1] == [SHED, SHED, SHED]
        assert decisions[2] == [PROBE, PROBE, PROBE]  # cap reached: exempt
        assert c.shed_total == 6
        # probing reset the streaks: shedding resumes next pass
        c.begin_pass(3, 3 * 900.0)
        assert c.admit(0, 3 * 900.0) == SHED

    def test_open_breaker_costs_nothing_in_the_plan(self):
        # two of three machines breaker-blocked: remaining cost 1.5 s
        # fits any sane budget, so the live machine is not shed
        policy = ResiliencePolicy(health_alpha=0.5, breaker_cooldown=1e6,
                                  breaker_cooldown_max=1e6)
        c = make_control(policy, sample_period=4.0)
        fail_n(c, 0, 3)
        fail_n(c, 1, 3)
        c.begin_pass(0, 100.0)
        assert c.admit(0, 100.0) == SKIP_BREAKER
        assert c.admit(1, 100.0) == SKIP_BREAKER
        assert c.admit(2, 100.0) == PROBE
        assert c.shed_total == 0

    def test_ledger_bounded_by_max_log(self):
        policy = ResiliencePolicy(max_log=2)
        c = make_control(policy)
        c.begin_pass(0, 0.0)
        for m, _ in ROSTER:
            assert c.admit(m, 1e6) == SHED  # way past the budget deadline
        assert c.shed_total == 3
        assert len(c.shed_ledger) == 2
        assert c.log_dropped == 1


class TestDeadline:
    def warmed(self, policy=None, latency=0.5):
        c = make_control(policy)
        for i in range(c.policy.deadline_warmup):
            c.observe(0, float(i), reachable=True, latency=latency)
        return c

    def test_none_during_warmup(self):
        c = make_control()
        assert c.deadline("L01") is None
        assert c.hedge_threshold("L01") is None

    def test_tracks_lab_latency_quantile(self):
        c = self.warmed(latency=0.5)
        d = c.deadline("L01")
        assert d == pytest.approx(1.3 * 0.5, rel=0.25)
        # the other lab saw nothing: still warming up
        assert c.deadline("L02") is None
        assert c.deadlines() == {"L01": d, "L02": None}

    def test_clamped_to_bounds(self):
        lo = self.warmed(ResiliencePolicy(deadline_min=2.0), latency=0.5)
        assert lo.deadline("L01") == 2.0
        hi = self.warmed(latency=100.0)
        assert hi.deadline("L01") == ResiliencePolicy().deadline_max


class TestHedging:
    def test_threshold_requires_warmup_and_enablement(self):
        off = make_control(ResiliencePolicy(hedge_enabled=False))
        for i in range(64):
            off.observe(0, float(i), reachable=True, latency=0.5)
        assert off.hedge_threshold("L01") is None
        on = make_control()
        for i in range(64):
            on.observe(0, float(i), reachable=True, latency=0.5)
        assert on.hedge_threshold("L01") == pytest.approx(1.1 * 0.5, rel=0.25)

    def test_budget_consumed_and_reset_per_pass(self):
        c = make_control(ResiliencePolicy(hedge_budget=2))
        for i in range(64):
            c.observe(0, float(i), reachable=True, latency=0.5)
        assert c.take_hedge() and c.take_hedge()
        assert not c.take_hedge()
        assert c.hedge_threshold("L01") is None  # budget gone
        c.begin_pass(1, 900.0)
        assert c.take_hedge()

    def test_hedge_draws_are_seeded(self):
        a, b = make_control(), make_control()
        draws_a = [a.draw_hedge_latency(0.2, 0.8) for _ in range(10)]
        draws_b = [b.draw_hedge_latency(0.2, 0.8) for _ in range(10)]
        assert draws_a == draws_b
        assert all(0.2 <= d <= 0.8 for d in draws_a)
        other = make_control(ResiliencePolicy(seed=99))
        assert [other.draw_hedge_latency(0.2, 0.8)
                for _ in range(10)] != draws_a

    def test_note_hedge_accounting(self):
        c = make_control()
        c.note_hedge(won=True)
        c.note_hedge(won=False)
        assert (c.hedges, c.hedge_wins) == (2, 1)


class TestExecuteResilient:
    """Executor-side behaviour of the control-plane hooks."""

    def setup_method(self):
        self.admin = Credentials.create("DDC\\collector", "secret")
        from repro.machines.hardware import build_fleet
        from repro.machines.machine import SimMachine
        from repro.machines.smart import SmartDisk

        spec = build_fleet()[0]
        self.machine = SimMachine(
            spec, SmartDisk(spec.disk_serial, spec.disk_bytes),
            base_disk_used_bytes=int(10e9))
        self.lab = spec.lab
        self.mid = spec.machine_id

    def executor(self, faults=None, seed=0):
        return RemoteExecutor(self.admin, latency_range=(0.2, 0.8),
                              off_timeout=1.5,
                              rng=np.random.Generator(np.random.PCG64(seed)),
                              faults=faults)

    def warmed_control(self, latency=0.5):
        c = make_control(roster=[(self.mid, self.lab)])
        for i in range(64):
            c.observe(self.mid, float(i), reachable=True, latency=latency)
        # deadline / hedge threshold are frozen per pass: refresh them
        c.begin_pass(0, 0.0)
        return c

    @staticmethod
    def primaries(c):
        """Record the primary latency each executor call reports."""
        seen = []
        observe = c.observe

        def recorder(machine_id, t, reachable, latency=None):
            seen.append(latency)
            observe(machine_id, t, reachable, latency)

        c.observe = recorder
        return seen

    def test_fastfail_cut_by_adaptive_deadline(self):
        c = self.warmed_control(latency=0.5)
        assert c.fastfail_cuts == 0
        out = self.executor().execute(
            self.machine, W32Probe(), 1000.0, self.admin, control=c)
        assert isinstance(out.error, MachineUnreachable)
        assert out.elapsed == c.deadline(self.lab) < 1.5
        assert c.fastfail_cuts == 1

    def test_no_cut_during_warmup(self):
        c = make_control(roster=[(self.mid, self.lab)])
        out = self.executor().execute(
            self.machine, W32Probe(), 0.0, self.admin, control=c)
        assert c.fastfail_cuts == 0
        assert out.elapsed == 1.5  # policy-off cost, exactly

    def test_deadline_never_cuts_live_probes(self):
        # a live machine with latency above the lab deadline still
        # completes: the deadline applies only to the unreachable path
        c = self.warmed_control(latency=0.1)  # deadline clamps to 0.3
        seen = self.primaries(c)
        self.machine.boot(0.0)
        plan = FaultPlan([SlowMachines(fraction=1.0, factor=6.0)], seed=0)
        out = self.executor(faults=plan).execute(
            self.machine, W32Probe(), 10.0, self.admin, control=c)
        assert out.ok
        assert c.fastfail_cuts == 0
        assert seen[-1] > c.deadline(self.lab)

    def test_hedge_races_the_slow_primary(self):
        c = self.warmed_control(latency=0.5)
        seen = self.primaries(c)
        self.machine.boot(0.0)
        plan = FaultPlan([SlowMachines(fraction=1.0, factor=6.0)], seed=0)
        ex = self.executor(faults=plan)
        calls = []  # (outcome, hedged, hedge won, primary latency)
        for k in range(10):
            h0, w0 = c.hedges, c.hedge_wins
            out = ex.execute(self.machine, W32Probe(), 10.0 + k,
                             self.admin, control=c)
            calls.append((out, c.hedges - h0, c.hedge_wins - w0, seen[-1]))
        assert all(out.ok for out, *_ in calls)
        assert all(h in (0, 1) and w <= h for _, h, w, _ in calls)
        hedged = [(out, primary) for out, h, _, primary in calls if h]
        assert hedged, "6x-inflated primaries must cross the hedge threshold"
        assert c.hedges == len(hedged)
        assert c.hedge_wins == sum(w for _, _, w, _ in calls) > 0
        for out, primary in hedged:
            # the primary latency is reported pre-hedge; the elapsed cost
            # can only have been improved by the duplicate
            assert primary >= 1.2  # 0.2 * factor 6
            assert out.elapsed <= primary + 1.0  # latency + probe cpu

    def test_storm_denial_is_transient_credential_mismatch_is_not(self):
        self.machine.boot(0.0)
        c = make_control(roster=[(self.mid, self.lab)])
        storm = FaultPlan([AccessDeniedStorm(probability=1.0)], seed=0)
        out = self.executor(faults=storm).execute(
            self.machine, W32Probe(), 10.0, self.admin, control=c)
        assert isinstance(out.error, AccessDenied) and out.error.transient
        bad = Credentials.create("DDC\\collector", "wrong")
        out = self.executor().execute(
            self.machine, W32Probe(), 10.0, bad, control=c)
        assert isinstance(out.error, AccessDenied) and not out.error.transient


class TestCoordinatorAccounting:
    """The accounting identity at the coordinator level."""

    def test_identity_closes_under_flapping(self):
        machines = always_on_fleet(n=16)
        plan = FaultPlan(
            [FlappingHost(range(8), period=4 * HOUR, down_fraction=0.5)],
            seed=3,
        )
        policy = ResiliencePolicy(breaker_cooldown=1800.0,
                                  breaker_cooldown_max=3600.0)
        coord, store = run_mini(machines, 12, plan, strict=False,
                                resilience=policy)
        n = len(machines)
        assert coord.breaker_skipped > 0  # the plan actually bit
        assert (coord.iterations_run * n
                == coord.attempts + coord.shed + coord.breaker_skipped)
        assert (coord.attempts
                == coord.samples_collected + coord.parse_failures
                + coord.timeouts + coord.access_denied)
        meta = store.meta
        assert meta.shed == coord.shed
        assert meta.breaker_skipped == coord.breaker_skipped
        assert meta.hedges == coord.hedges
        assert meta.hedge_wins == coord.hedge_wins
        assert meta.retries_skipped == coord.retries_skipped

    def test_default_policy_never_sheds_the_healthy_fleet(self):
        coord, _ = run_mini(always_on_fleet(n=12), 3,
                            resilience=ResiliencePolicy())
        assert coord.shed == 0
        assert coord.breaker_skipped == 0
        assert coord.samples_collected == coord.attempts


class TestRetrySkipping:
    """Satellite: deterministic auth failures are not retried."""

    def _rig(self, machines, retry_limit, plan=None):
        params = DdcParams(retry_limit=retry_limit, retry_backoff=5.0)
        horizon = HOUR
        store = TraceStore(TraceMeta(n_machines=len(machines),
                                     sample_period=params.sample_period,
                                     horizon=horizon))
        sim = Simulator()
        coord = DdcCoordinator(
            machines, sim, params, W32Probe(), SamplePostCollector(store),
            np.random.Generator(np.random.PCG64(0)), horizon=horizon,
            faults=plan,
        )
        return coord, sim, store

    def test_credential_mismatch_not_retried(self):
        machines = always_on_fleet(n=3)
        coord, sim, store = self._rig(machines, retry_limit=2)
        coord.credentials = Credentials.create("DDC\\collector", "oops")
        coord.start()
        sim.run_until(HOUR)
        # 4 iterations x 3 machines, every attempt denied, zero retries
        assert coord.access_denied == coord.attempts == 12
        assert coord.retries == 0
        assert coord.retries_skipped == 12
        assert coord.finalize_meta(store.meta).retries_skipped == 12

    def test_transient_storm_denial_still_retried(self):
        machines = always_on_fleet(n=3)
        plan = FaultPlan([AccessDeniedStorm(probability=1.0)], seed=0)
        coord, sim, store = self._rig(machines, retry_limit=1, plan=plan)
        coord.start()
        sim.run_until(HOUR)
        assert coord.retries > 0
        assert coord.retries_skipped == 0
