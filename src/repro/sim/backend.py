"""The exact tick backend: the one scheduler of agent-driven fleets.

Every :class:`~repro.sim.fleet.FleetSimulator` whose machines are driven
by agents runs their behavioural events -- boots, logins, workload
redraws, short cycles -- on a private micro-engine, advanced in
batches by one outer ``btick`` event per DDC sampling period (15
minutes in the paper).
The outer (probing) engine carries only those batch events, the closing
staff sweeps and the probes.  The statistical vector engine
(:mod:`repro.sim.vector`) is the only other behavioural backend.

Agents schedule on the inner :class:`~repro.sim.engine.Simulator` with
the same callbacks, per-machine RNG streams and event times as any
engine; the inner clock is advanced to each event's time before its
callback runs, so every accumulator fold sees the event's own ``now``.

The visibility rule is one rule, independent of scheduling order:

- a probing pass at ``T`` sees every behavioural event with
  ``time <= T`` -- ``btick`` at ``T`` is scheduled before the DDC
  iteration at ``T`` (``FleetSimulator.start`` runs before
  ``DdcCoordinator.start`` and the chain keeps that order inductively),
  and advances the inner engine through ``T`` inclusive;
- a closing sweep at ``T`` runs before the behavioural events timed at
  ``T`` -- it advances the inner engine half-open, to events with
  ``time < T``, and the events at ``T`` fold in the ``btick`` that
  follows it.

Class and closing times sit on the 15-minute grid, so behavioural events
tying with a pass or a sweep are routine; the rule above fixes their
outcome.  Because the probing pass only reads machine state, the object
and columnar passes see the same fleet and write byte-identical traces
(``docs/columnar.md``; ``tests/test_columnar_equivalence.py`` pins it).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.sim.engine import Simulator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.observer import Observer

__all__ = ["TickBackend"]


class TickBackend:
    """Drive behavioural events in per-tick batches on a private engine.

    Parameters
    ----------
    sim:
        The outer (probing) engine; one ``btick`` event per ``tick``
        seconds is chained onto it.
    tick:
        Batch period in seconds -- the DDC sampling period, so each
        probing pass observes a fully advanced mirror.
    horizon:
        End of the run; the chain stops there, firing a final batch at
        the horizon itself so every event up to it has run.
    observer:
        Optional :class:`repro.obs.Observer`, handed to the private
        engine so its events count in the same ``sim.*`` metrics as the
        outer engine's.
    """

    def __init__(self, sim: Simulator, tick: float, horizon: float,
                 observer: Optional["Observer"] = None):
        if tick <= 0:
            raise ValueError(f"tick period must be positive, got {tick!r}")
        self.sim = sim
        self.tick = float(tick)
        self.horizon = float(horizon)
        #: The agents' scheduling environment: a private engine with the
        #: same ``schedule``/``now`` contract as the outer one.
        self.env = Simulator(start=sim.now, observer=observer)

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Chain the first batch event onto the outer engine.

        Must run before the coordinator schedules its first iteration so
        the batch at each shared instant keeps the lower sequence number.
        """
        self.sim.schedule(self.sim.now, self._btick, name="btick")

    def advance_to(self, t: float) -> None:
        """Fire every behavioural event with ``time <= t`` (inclusive)."""
        self.env.run_until(t)

    def advance_before(self, t: float) -> None:
        """Fire events with ``time < t``, leaving ``t`` itself queued.

        The closing-staff sweep advances half-open: it runs before any
        behavioural event sharing its timestamp -- a session end clamped
        to closing time, say.  Those events fold in the ``btick`` that
        follows the sweep at the same instant, before the probing pass
        reads the fleet.
        """
        self.env.run_before(t)

    def _btick(self) -> None:
        now = self.sim.now
        self.advance_to(now)
        nxt = min(now + self.tick, self.horizon)
        if nxt > now:
            self.sim.schedule(nxt, self._btick, name="btick")
