"""The adaptive resilience control plane.

One :class:`ResilienceControl` sits between
:class:`~repro.ddc.coordinator.DdcCoordinator` and
:class:`~repro.ddc.remote.RemoteExecutor` when a
:class:`~repro.resilience.policy.ResiliencePolicy` is attached to
:class:`~repro.config.DdcParams`.  Per machine it maintains an EWMA
health score and a three-state circuit breaker; per lab it tracks
running latency quantiles that drive the adaptive unreachable deadline
and the hedge threshold; per pass it plans deadline-aware load shedding
against the iteration budget.

Hook points
-----------
- the coordinator calls :meth:`begin_pass` once per iteration, then
  :meth:`admit` per machine (probe / breaker-skip / shed);
- the executor, handed this object as ``control=``, reads the
  pass-frozen ``pass_deadline`` / ``pass_hedge`` dicts and calls
  :meth:`observe` once per attempt, plus :meth:`take_hedge` and
  :meth:`draw_hedge_latency` for a slow primary, inside
  :meth:`~repro.ddc.remote.RemoteExecutor.execute`.  Both dicts are
  recomputed once per :meth:`begin_pass`: control values change
  between iterations, never inside one.

Determinism
-----------
All stochastic decisions (half-open probe admission, hedge latency
draws) come from a private generator seeded by the policy; calls happen
in simulation order, so the same ``(experiment seed, policy)`` pair
yields a bitwise-identical trace, breaker transition log and shed
ledger -- across reruns *and* across crash + resume, because the whole
control state (trackers, breakers, logs, RNG) pickles into experiment
checkpoints with the coordinator that owns it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.resilience.breaker import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    STATE_NAMES,
    BreakerTransition,
    CircuitBreaker,
)
from repro.resilience.health import HealthTracker, QuantileTracker
from repro.resilience.policy import ResiliencePolicy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.observer import Observer

__all__ = ["PROBE", "SKIP_BREAKER", "SHED", "ShedRecord", "ResilienceControl"]

#: :meth:`ResilienceControl.admit` decisions.
PROBE, SKIP_BREAKER, SHED = 0, 1, 2


@dataclass(frozen=True, slots=True)
class ShedRecord:
    """One shed machine-slot (the unit of the shed ledger)."""

    iteration: int
    t: float
    machine_id: int
    reason: str          #: ``predicted_overrun`` or ``budget_exhausted``
    health: float


class _MachineState:
    """Per-machine control state: health, breaker, shed fairness."""

    __slots__ = ("health", "breaker", "shed_streak", "lab", "lab_state")

    def __init__(self, machine_id: int, lab: str, alpha: float):
        self.health = HealthTracker(alpha)
        self.breaker = CircuitBreaker(machine_id)
        self.shed_streak = 0
        self.lab = lab
        self.lab_state: "_LabState" = None  # bound by ResilienceControl


class _LabState:
    """Per-lab latency statistics (deadline + hedge estimators)."""

    __slots__ = ("q_deadline", "q_hedge", "mean")

    def __init__(self, deadline_tau: float, hedge_tau: float):
        self.q_deadline = QuantileTracker(deadline_tau)
        self.q_hedge = QuantileTracker(hedge_tau)
        self.mean = 0.0

    def observe(self, latency: float) -> None:
        # Inlined QuantileTracker.observe for both trackers: this runs
        # once per live probe, and the two method calls it replaces are
        # measurable against the 5% control-plane overhead budget.
        a = abs(latency)
        q = self.q_deadline
        if q.count == 0:
            q.estimate = latency
            q.scale = a
        else:
            q.scale += 0.05 * (a - q.scale)
            step = q.lr * (q.scale if q.scale > 1e-9 else 1e-9)
            if latency > q.estimate:
                q.estimate += step * q.tau
            else:
                q.estimate -= step * (1.0 - q.tau)
        q.count += 1
        q = self.q_hedge
        if q.count == 0:
            q.estimate = latency
            q.scale = a
        else:
            q.scale += 0.05 * (a - q.scale)
            step = q.lr * (q.scale if q.scale > 1e-9 else 1e-9)
            if latency > q.estimate:
                q.estimate += step * q.tau
            else:
                q.estimate -= step * (1.0 - q.tau)
        q.count += 1
        self.mean += 0.1 * (latency - self.mean)


class ResilienceControl:
    """Live control-plane state for one run.

    Parameters
    ----------
    policy:
        The knobs (see :class:`~repro.resilience.policy.ResiliencePolicy`).
    roster:
        ``(machine_id, lab)`` pairs in probing order -- the coordinator's
        roster; shedding plans walk it and ties break on roster position.
    off_timeout:
        The executor's fixed unreachable timeout (the adaptive deadline
        never exceeds it where it is applied).
    sample_period:
        Seconds between iterations; the pass budget is
        ``policy.shed_budget_fraction * sample_period``.
    observer:
        Optional :class:`repro.obs.Observer`; dropped at construction
        when absent or disabled, like every other layer.
    """

    def __init__(
        self,
        policy: ResiliencePolicy,
        roster: Sequence[Tuple[int, str]],
        *,
        off_timeout: float,
        sample_period: float,
        observer: Optional["Observer"] = None,
    ):
        if not roster:
            raise ValueError("control plane needs a non-empty roster")
        self.policy = policy
        self.roster: Tuple[Tuple[int, str], ...] = tuple(
            (int(m), str(lab)) for m, lab in roster
        )
        self.off_timeout = float(off_timeout)
        self.budget = policy.shed_budget_fraction * float(sample_period)
        self.rng = np.random.Generator(np.random.PCG64(policy.seed))
        self._machines: Dict[int, _MachineState] = {
            mid: _MachineState(mid, lab, policy.health_alpha)
            for mid, lab in self.roster
        }
        if len(self._machines) != len(self.roster):
            raise ValueError("roster contains duplicate machine ids")
        self._labs: Dict[str, _LabState] = {}
        for _, lab in self.roster:
            if lab not in self._labs:
                self._labs[lab] = _LabState(
                    policy.deadline_quantile, policy.hedge_quantile
                )
        for st in self._machines.values():
            # direct backref: saves a per-observe dict lookup on the hot
            # path (machine -> lab state without hashing the lab name)
            st.lab_state = self._labs[st.lab]
        # ledgers and counters
        self.breaker_log: List[BreakerTransition] = []
        self.shed_ledger: List[ShedRecord] = []
        self.log_dropped = 0
        self.breaker_skips = 0
        self.shed_total = 0
        self.shed_by_reason: Counter = Counter()
        self.hedges = 0
        self.hedge_wins = 0
        self.fastfail_cuts = 0
        self.passes = 0
        # pass-scoped state
        self._iteration = -1
        self._pass_start = 0.0
        self._budget_deadline = float("inf")
        self._hedges_left = policy.hedge_budget
        self._shed_plan: frozenset = frozenset()
        self._state_counts = [len(self.roster), 0, 0]
        #: Deadline / hedge threshold per lab, frozen for the duration of
        #: one pass (recomputed in :meth:`begin_pass`).  The executor
        #: reads these dicts directly on its hot path instead of paying
        #: a quantile computation per probe.
        self.pass_deadline: Dict[str, Optional[float]] = {}
        self.pass_hedge: Dict[str, Optional[float]] = {}
        self._refresh_pass_caches()
        # observability (drop-at-construction, like faults/obs layers)
        self._obs = observer if observer is not None and observer.enabled else None
        if self._obs is not None:
            m = self._obs.metrics
            self._c_opened = m.counter("resilience.breaker_opened")
            self._c_closed = m.counter("resilience.breaker_closed")
            self._c_skipped = m.counter("resilience.breaker_skipped")
            self._c_hedges = m.counter("resilience.hedges")
            self._c_hedge_wins = m.counter("resilience.hedge_wins")
            self._c_fastfail = m.counter("resilience.deadline_fastfail")
            self._g_states = [
                m.gauge("resilience.breaker_state", state=name)
                for name in STATE_NAMES
            ]
            self._g_states[CLOSED].set(len(self.roster))
            self._shed_counters: Dict[str, object] = {}

    # ------------------------------------------------------------------
    # bookkeeping helpers
    # ------------------------------------------------------------------
    def _log(self, transition: BreakerTransition) -> None:
        if len(self.breaker_log) < self.policy.max_log:
            self.breaker_log.append(transition)
        else:
            self.log_dropped += 1

    def _record_transition(self, st: _MachineState,
                           transition: BreakerTransition) -> None:
        self._log(transition)
        counts = self._state_counts
        old = STATE_NAMES.index(transition.old)
        new = st.breaker.state
        counts[old] -= 1
        counts[new] += 1
        if self._obs is not None:
            self._g_states[old].set(counts[old])
            self._g_states[new].set(counts[new])
            if new == OPEN:
                self._c_opened.inc()
            elif new == CLOSED:
                self._c_closed.inc()

    def _shed(self, st: _MachineState, mid: int, t: float,
              reason: str) -> int:
        st.shed_streak += 1
        self.shed_total += 1
        self.shed_by_reason[reason] += 1
        if len(self.shed_ledger) < self.policy.max_log:
            self.shed_ledger.append(ShedRecord(
                iteration=self._iteration, t=t, machine_id=mid,
                reason=reason, health=st.health.score,
            ))
        else:
            self.log_dropped += 1
        if self._obs is not None:
            c = self._shed_counters.get(reason)
            if c is None:
                c = self._obs.metrics.counter("resilience.shed", reason=reason)
                self._shed_counters[reason] = c
            c.inc()
        return SHED

    # ------------------------------------------------------------------
    # pass lifecycle (coordinator-facing)
    # ------------------------------------------------------------------
    def begin_pass(self, iteration: int, start: float) -> None:
        """Open iteration ``iteration``: reset budgets, plan shedding.

        Also freezes the per-lab deadline and hedge threshold for the
        pass: control values change between iterations, never inside
        one, which keeps the hot path to dictionary reads and makes a
        pass's decisions a pure function of the state at its start.
        """
        self._iteration = iteration
        self._pass_start = start
        self._budget_deadline = start + self.budget
        self._hedges_left = self.policy.hedge_budget
        self.passes += 1
        self._refresh_pass_caches()
        self._shed_plan = self._plan_shedding(start)

    def _refresh_pass_caches(self) -> None:
        hedging = self.policy.hedge_enabled
        self.pass_deadline = {lab: self.deadline(lab) for lab in self._labs}
        self.pass_hedge = {
            lab: self._hedge_threshold_raw(lab) if hedging else None
            for lab in self._labs
        }

    def _plan_shedding(self, start: float) -> frozenset:
        """Lowest-health shed set when the pass is predicted to overrun."""
        # Worst case, every probeable machine pays the full off_timeout;
        # when even that fits the budget (it does on the default fleet
        # and period), the plan is trivially empty and nothing below runs.
        if len(self.roster) * self.off_timeout <= self.budget:
            return frozenset()
        machines = self._machines
        live_dead = {}
        for lab, ls in self._labs.items():
            live = ls.mean if ls.q_deadline.count else self.off_timeout
            dead = self.off_timeout
            d = self.pass_deadline[lab]
            if d is not None and d < dead:
                dead = d
            live_dead[lab] = (live, dead)
        costs = {}
        total = 0.0
        for mid, lab in self.roster:
            st = machines[mid]
            br = st.breaker
            if br.state == OPEN and start < br.blocked_until:
                cost = 0.0  # will be breaker-skipped
            else:
                live, dead = live_dead[lab]
                h = st.health.score
                cost = h * live + (1.0 - h) * dead
            costs[mid] = cost
            total += cost
        if total <= self.budget:
            return frozenset()
        # Candidates: probeable machines that are not owed a probe by the
        # fairness cap.  Lowest health goes first; roster order breaks ties.
        candidates = sorted(
            (
                (machines[mid].health.score, idx, mid)
                for idx, (mid, _) in enumerate(self.roster)
                if costs[mid] > 0.0
                and machines[mid].shed_streak < self.policy.shed_max_streak
            ),
        )
        shed = []
        for score, _, mid in candidates:
            if total <= self.budget:
                break
            total -= costs[mid]
            shed.append(mid)
        return frozenset(shed)

    def admit(self, machine_id: int, now: float) -> int:
        """Decide one machine's fate this pass (hot path, O(1))."""
        st = self._machines[machine_id]
        br = st.breaker
        if br.state != CLOSED:
            if br.state == OPEN:
                if now < br.blocked_until:
                    self.breaker_skips += 1
                    if self._obs is not None:
                        self._c_skipped.inc()
                    return SKIP_BREAKER
                self._record_transition(st, br.half_open(now))
            # half-open: seeded trial-probe admission
            p = self.policy.probe_admission
            if p < 1.0 and self.rng.random() >= p:
                self.breaker_skips += 1
                if self._obs is not None:
                    self._c_skipped.inc()
                return SKIP_BREAKER
            st.shed_streak = 0
            return PROBE
        if now >= self._budget_deadline:
            return self._shed(st, machine_id, now, "budget_exhausted")
        if self._shed_plan and machine_id in self._shed_plan:
            return self._shed(st, machine_id, now, "predicted_overrun")
        st.shed_streak = 0
        return PROBE

    def observe(self, machine_id: int, t: float, reachable: bool,
                latency: Optional[float] = None) -> None:
        """Fold one executor call's outcome into the control state.

        ``reachable`` means the machine answered at all -- a stored
        sample, an auth rejection or garbled output are all proof of
        life; only an unreachable timeout counts against the breaker.
        (Arguments are positional-capable: this runs once per attempt
        and keyword passing is measurable on the hot path.)
        """
        st = self._machines[machine_id]
        br = st.breaker
        if reachable:
            # inlined HealthTracker.success(): this is the hot path
            h = st.health
            h.score += h.alpha * (1.0 - h.score)
            h.consecutive_failures = 0
            if br.state != CLOSED:
                self._record_transition(st, br.close(t))
                h.restore(self.policy.reset_health)
        else:
            h = st.health
            h.failure()
            if br.state == HALF_OPEN:
                self._record_transition(st, self._trip(br, t))
            elif (br.state == CLOSED
                  and h.consecutive_failures >= self.policy.breaker_min_failures
                  and h.score < self.policy.breaker_open_threshold):
                self._record_transition(st, self._trip(br, t))
        if latency is not None:
            st.lab_state.observe(latency)

    def _trip(self, br: CircuitBreaker, t: float) -> BreakerTransition:
        p = self.policy
        return br.trip(t, p.breaker_cooldown, p.breaker_backoff,
                       p.breaker_cooldown_max)

    # ------------------------------------------------------------------
    # executor-facing queries
    # ------------------------------------------------------------------
    def deadline(self, lab: str) -> Optional[float]:
        """Adaptive unreachable deadline for ``lab`` (None during warmup)."""
        p = self.policy
        q = self._labs[lab].q_deadline
        if q.count < p.deadline_warmup:
            return None
        d = p.deadline_margin * q.estimate
        if d < p.deadline_min:
            return p.deadline_min
        if d > p.deadline_max:
            return p.deadline_max
        return d

    def hedge_threshold(self, lab: str) -> Optional[float]:
        """Latency above which a duplicate probe is dispatched."""
        p = self.policy
        if not p.hedge_enabled or self._hedges_left <= 0:
            return None
        return self._hedge_threshold_raw(lab)

    def _hedge_threshold_raw(self, lab: str) -> Optional[float]:
        p = self.policy
        q = self._labs[lab].q_hedge
        if q.count < p.deadline_warmup:
            return None
        return p.hedge_margin * q.estimate

    def take_hedge(self) -> bool:
        """Consume one unit of the per-pass hedge budget."""
        if self._hedges_left <= 0:
            return False
        self._hedges_left -= 1
        return True

    def draw_hedge_latency(self, lo: float, hi: float) -> float:
        """Seeded latency draw for a hedged duplicate probe."""
        return float(self.rng.uniform(lo, hi))

    def note_hedge(self, won: bool) -> None:
        """Account one hedged dispatch (and whether the duplicate won)."""
        self.hedges += 1
        if won:
            self.hedge_wins += 1
        if self._obs is not None:
            self._c_hedges.inc()
            if won:
                self._c_hedge_wins.inc()

    def note_fastfail_cut(self) -> None:
        """Account one unreachable fast-fail cut short by the deadline."""
        self.fastfail_cuts += 1
        if self._obs is not None:
            self._c_fastfail.inc()

    # ------------------------------------------------------------------
    # introspection (reports / tests)
    # ------------------------------------------------------------------
    def state_counts(self) -> Dict[str, int]:
        """Machines per breaker state, e.g. ``{"closed": 167, ...}``."""
        return {name: self._state_counts[i]
                for i, name in enumerate(STATE_NAMES)}

    def health_of(self, machine_id: int) -> float:
        """Current health score of one machine."""
        return self._machines[machine_id].health.score

    def deadlines(self) -> Dict[str, Optional[float]]:
        """Current adaptive deadline per lab (None while warming up)."""
        return {lab: self.deadline(lab) for lab in sorted(self._labs)}
