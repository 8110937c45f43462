"""In-memory span tracer installed around the public entry points of ``repro``.

The traced run wraps a fixed list of functions (``ENTRY_POINTS``) with
timing shims.  Each shim counts every call and, unless the call is
nested inside a span of the same entry point family (``absorb``), opens
a span.  Spans are folded into per-name aggregates on exit -- calls,
inclusive seconds and self seconds (duration minus the part its child
spans cover) -- so a paper-scale run keeps a few kilobytes of trace
state instead of one record per call.

Time is *attributed* when a layer span sits directly under a pipeline
step or under a *container* -- an entry point with no layer, such as
``run_shard``, that wraps a whole runtime and so explains nothing by
itself.  Code a container runs outside every layer span stays
unattributed.

Nothing here changes what the wrapped code computes: shims forward the
arguments and the return value unchanged, and ``functools.wraps`` keeps
the original names so pickled bound methods (checkpoints) still resolve.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from pathlib import Path

__all__ = ["ENTRY_POINTS", "KEEP", "Tracer"]

#: (span name, layer, "module:Qualified.name", absorb) -- ``absorb`` names a
#: span family: a call made while a span of the same family is open only
#: counts, it opens no span (``TraceStore.add`` inside ``read_csv``, the
#: tick engine inside the outer engine's ``run_until``).  A layer of
#: ``None`` marks a container.
ENTRY_POINTS = (
    ("sim.build", "sim", "repro.sim.fleet:FleetSimulator.__init__", None),
    ("sim.run", "sim", "repro.sim.engine:Simulator.run_until", "sim"),
    ("sim.run", "sim", "repro.sim.engine:Simulator.run_before", "sim"),
    ("sim.tick", "sim", "repro.sim.backend:TickBackend.advance_to", "sim"),
    ("sim.tick", "sim", "repro.sim.backend:TickBackend.advance_before", "sim"),
    ("ddc.iteration", "ddc", "repro.ddc.coordinator:DdcCoordinator._iteration", None),
    ("ddc.eligibility", "ddc",
     "repro.ddc.coordinator:DdcCoordinator.columnar_ineligibility", None),
    ("ddc.finalize", "ddc", "repro.ddc.coordinator:DdcCoordinator.finalize_meta", None),
    ("traces.store", "traces", "repro.traces.store:TraceStore.add", "traces"),
    ("traces.store", "traces", "repro.traces.store:TraceStore.extend", "traces"),
    ("traces.store", "traces", "repro.traces.store:TraceStore.extend_columns", "traces"),
    ("traces.write_csv", "traces", "repro.traces.store:TraceStore.write_csv", "traces"),
    ("traces.read_csv", "traces", "repro.traces.store:TraceStore.read_csv", "traces"),
    ("traces.columnarise", "traces", "repro.traces.columnar:ColumnarTrace.__init__", None),
    ("recovery.journal", "recovery", "repro.recovery.runtime:RecoveryRuntime.on_sample", None),
    ("recovery.checkpoint", "recovery", "repro.recovery.runtime:write_checkpoint", None),
    ("shard.worker", None, "repro.experiment:run_shard", "shard.worker"),
    ("shard.worker", None, "repro.shard.worker:execute_shard_task", "shard.worker"),
    ("shard.supervise", None, "repro.shard.supervisor:Supervisor.run", None),
    ("shard.merge", "shard", "repro.experiment:merge_outcomes", None),
    ("obs.snapshot", "obs", "repro.obs.observer:Observer.snapshot", None),
    ("nbench.attach", "nbench", "repro.shard.worker:attach_nbench_indexes", None),
    ("analysis.report", "analysis", "repro.report.experiments:generate_report", None),
    ("analysis.pairwise_cpu", "analysis", "repro.report.experiments:pairwise_cpu", None),
)

#: What a shim keeps of each call, by span name: ``fn(args, result)``.
KEEP = {
    "sim.run": lambda args, out: out,            # events fired
    "ddc.eligibility": lambda args, out: out,    # None when columnar
    # machine-iterations the coordinator probed, owned or not
    "ddc.finalize": lambda args, out: args[0].iterations_run * len(args[0].machines),
}


class _Agg:
    __slots__ = ("calls", "spans", "total", "self_s", "durations", "results")

    def __init__(self):
        self.calls = 0       # every call, spanned or absorbed
        self.spans = 0       # calls that opened a span
        self.total = 0.0     # inclusive seconds over spans
        self.self_s = 0.0    # seconds not covered by child spans
        self.durations = []  # per-span seconds, for Tracer.KEEP_DURATIONS
        self.results = []    # what KEEP extracts from each call


class Tracer:
    """Span stack plus per-name aggregates for one process.

    ``step(name)`` opens a pipeline-step span (``collect``, ``write_csv``
    ...), always the outermost span.  :attr:`covered` maps each step to
    its attributed seconds: layer spans directly under the step or under
    a container inside it.
    """

    #: Names whose per-span durations are kept (few calls, needed whole).
    KEEP_DURATIONS = frozenset({"shard.worker"})

    def __init__(self):
        self.aggs = {}
        self.covered = {}
        self._stack = []   # frames: [name, layer, family, start, child_s]
        self._patches = []

    # ------------------------------------------------------------------
    def agg(self, name: str) -> _Agg:
        a = self.aggs.get(name)
        if a is None:
            a = self.aggs[name] = _Agg()
        return a

    def _open(self, name, layer, family):
        self._stack.append([name, layer, family, time.perf_counter(), 0.0])

    def _close(self):
        name, layer, _family, start, child = self._stack.pop()
        dur = time.perf_counter() - start
        a = self.agg(name)
        a.spans += 1
        a.total += dur
        a.self_s += dur - child
        if name in self.KEEP_DURATIONS:
            a.durations.append(dur)
        if self._stack:
            parent = self._stack[-1]
            parent[4] += dur
            if layer is not None and parent[1] is None:
                step = self._stack[0][0]
                self.covered[step] = self.covered.get(step, 0.0) + dur

    @contextlib.contextmanager
    def step(self, name: str):
        """Time one pipeline step (a span that belongs to no layer)."""
        self._open("step." + name, None, None)
        try:
            yield
        finally:
            self._close()

    # ------------------------------------------------------------------
    def _shim(self, name, layer, family, fn):
        tracer = self
        keep = KEEP.get(name)

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            a = tracer.agg(name)
            a.calls += 1
            stack = tracer._stack
            if family is not None and stack and stack[-1][2] == family:
                out = fn(*args, **kwargs)
            else:
                tracer._open(name, layer, family)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    tracer._close()
            if keep is not None:
                a.results.append(keep(args, out))
            return out

        return shim

    def install(self) -> "Tracer":
        """Wrap every entry point; :meth:`uninstall` restores them."""
        for name, layer, target, family in ENTRY_POINTS:
            module_name, qual = target.split(":")
            owner = importlib.import_module(module_name)
            parts = qual.split(".")
            for part in parts[:-1]:
                owner = getattr(owner, part)
            attr = parts[-1]
            raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._shim(name, layer, family, raw.__func__))
            else:
                wrapped = self._shim(name, layer, family, raw)
            setattr(owner, attr, wrapped)
            self._patches.append((owner, attr, raw))
        return self

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()

    # ------------------------------------------------------------------
    def total(self, name: str) -> float:
        a = self.aggs.get(name)
        return a.total if a else 0.0

    def self_time(self, name: str) -> float:
        a = self.aggs.get(name)
        return a.self_s if a else 0.0

    def calls(self, name: str) -> int:
        a = self.aggs.get(name)
        return a.calls if a else 0

    def results(self, name: str) -> list:
        a = self.aggs.get(name)
        return a.results if a else []

    def durations(self, name: str) -> list:
        a = self.aggs.get(name)
        return a.durations if a else []

    def dump(self, path: Path) -> None:
        """Write the aggregated spans as JSON (one row per span name)."""
        rows = {
            name: {"calls": a.calls, "spans": a.spans, "total_s": a.total,
                   "self_s": a.self_s, "durations_s": a.durations}
            for name, a in sorted(self.aggs.items())
        }
        Path(path).write_text(json.dumps(
            {"covered_s": self.covered, "spans": rows}, indent=1))
