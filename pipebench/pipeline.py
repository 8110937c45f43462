"""Child-process side of the benchmark.

``python -m pipebench.pipeline <mode> <definition-json> <seed> [...]``
runs in a fresh interpreter so that its peak RSS and its set-up time
belong to one measurement.  Modes:

``setup``
    Import ``repro`` and build the workload's config, lab roster, fault
    plan and ``FleetSimulator``; print ``{"setup_s": ...}``.
``reference <out.json>``
    Run the workload's config with ``shards=1`` and no recovery, and
    write the trace's CSV and meta digests (the campaign's oracle).
``run <work-dir> <trace 0|1> [<reference.json>]``
    Run the pipeline steps once, check the outputs and write
    ``<work-dir>/result.json``.  With ``trace`` 1 the public entry points
    are wrapped by :class:`pipebench.tracer.Tracer` and the result holds
    per-layer metrics.

Nothing from ``repro`` is imported at module level: ``setup`` times the
import itself.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

from pipebench import checks

DAY = 86400.0
ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "reproduction_output" / "report.txt"


# ----------------------------------------------------------------------
# workload construction
# ----------------------------------------------------------------------
def build_config(defn: dict, seed: int):
    """The workload's ExperimentConfig and lab roster."""
    from repro import DdcParams, ExperimentConfig, ResiliencePolicy
    from repro.machines.hardware import scaled_labs

    ddc = DdcParams()
    if defn["resilience"] is not None:
        ddc = DdcParams(resilience=ResiliencePolicy(seed=seed, **defn["resilience"]))
    cfg = ExperimentConfig(days=defn["days"], seed=seed, kernel=defn["kernel"], ddc=ddc)
    return cfg, scaled_labs(defn["machines"])


def build_faults(defn: dict, seed: int):
    """A fresh FaultPlan (plans carry a mutable injection ledger)."""
    if not defn["faults"]:
        return None
    from repro import FaultPlan
    from repro.faults import scenarios

    built = []
    for spec in defn["faults"]:
        kwargs = dict(spec)
        kind = getattr(scenarios, kwargs.pop("kind"))
        for key in ("start", "end"):
            if key + "_day" in kwargs:
                kwargs[key] = kwargs.pop(key + "_day") * DAY
        built.append(kind(**kwargs))
    return FaultPlan(built, seed=seed)


def build_observer(defn: dict):
    from repro import Observer

    return Observer() if defn["observer"] else None


def setup(defn: dict, seed: int) -> float:
    """Seconds to import ``repro`` and build config, roster and fleet."""
    t0 = time.perf_counter()
    from repro.sim.fleet import FleetSimulator

    cfg, labs = build_config(defn, seed)
    build_faults(defn, seed)
    build_observer(defn)
    FleetSimulator(cfg, labs=labs)
    return time.perf_counter() - t0


def reference(defn: dict, seed: int, out: Path) -> None:
    """Digests of the workload's config run as one in-process shard."""
    from repro import run_experiment

    cfg, labs = build_config(defn, seed)
    result = run_experiment(cfg, labs=labs, faults=build_faults(defn, seed),
                            observer=build_observer(defn), shards=1)
    out.write_text(json.dumps(checks.trace_digests(result.store, out.parent)))


# ----------------------------------------------------------------------
# pipeline steps: each reads and extends ``state``
# ----------------------------------------------------------------------
def _collect(state):
    from repro import RecoveryConfig, experiment

    defn, seed = state["defn"], state["seed"]
    recovery = None
    if defn["recovery"] is not None:
        recovery = RecoveryConfig(run_dir=state["out"] / "run", **defn["recovery"])
    result = experiment.run_experiment(
        state["cfg"], labs=state["labs"], faults=build_faults(defn, seed),
        observer=build_observer(defn), shards=defn["shards"], recovery=recovery)
    state["collected"] = state["final"] = result


def _write_csv(state):
    state["collected"].store.write_csv(state["out"] / "trace.csv")


def _read_csv(state):
    from repro.experiment import MonitoringResult
    from repro.traces.store import TraceStore

    collected = state["collected"]
    store = TraceStore.read_csv(state["out"] / "trace.csv", meta=collected.meta)
    state["final"] = MonitoringResult(config=collected.config, fleet=None,
                                      coordinator=None, store=store)


def _resume(state):
    from repro import experiment

    state["final"] = experiment.run_experiment(resume_from=state["out"] / "run")


def _report(state):
    from repro.report import experiments

    state["report"] = experiments.generate_report(state["final"])


STEPS = {"collect": _collect, "write_csv": _write_csv, "read_csv": _read_csv,
         "resume": _resume, "report": _report}


def run_steps(state, tracer=None) -> dict:
    """Run the definition's steps in order; returns seconds per step."""
    seconds = {}
    for name in state["defn"]["steps"]:
        t0 = time.perf_counter()
        if tracer is None:
            STEPS[name](state)
        else:
            with tracer.step(name):
                STEPS[name](state)
        seconds[name] = time.perf_counter() - t0
    return seconds


def write_report(state) -> None:
    """Render the report's comparison tables to ``report.txt`` (untimed)."""
    from repro.report.tables import render_comparison

    report = state["report"]
    groups = (("Table 2", report.table2_rows), ("Fig 2", report.fig2_rows),
              ("Fig 3", report.fig3_rows), ("Fig 4", report.fig4_rows),
              ("Section 5.2.2", report.smart_rows), ("Fig 5", report.fig5_rows),
              ("Fig 6", report.fig6_rows))
    text = "\n\n".join(render_comparison(rows, title=title) for title, rows in groups)
    (state["out"] / "report.txt").write_text(text + "\n")


# ----------------------------------------------------------------------
# checks
# ----------------------------------------------------------------------
def run_checks(state, reference_digests) -> list:
    names = state["defn"]["checks"]
    chk = state["chk"]
    failures = []
    if "csv_roundtrip" in names:
        written = checks.file_sha256(state["out"] / "trace.csv")
        failures += checks.check_csv_roundtrip(written, state["final"].store, chk)
    if "headline_bands" in names:
        failures += checks.check_headline_bands(
            checks.headline_values(state["report"]), checks.load_golden(GOLDEN))
    collected = state["collected"]
    if "fleet_accounting" in names:
        failures += checks.check_fleet_accounting(collected.meta, len(collected.store))
    if "fleet_audit" in names:
        from repro.sim.validation import audit_fleet

        failures += checks.check_fleet_audit(audit_fleet(collected.fleet))
    if "resume_identical" in names or "reference_identical" in names:
        final = checks.trace_digests(state["final"].store, chk)
        if "resume_identical" in names:
            failures += checks.check_identical(
                "resume_identical", final, checks.trace_digests(collected.store, chk))
        if "reference_identical" in names:
            failures += checks.check_identical(
                "reference_identical", final, reference_digests)
    if "campaign_accounting" in names:
        restarts = sum(r.campaign.total_restarts for r in (collected, state["final"])
                       if r.campaign is not None)
        failures += checks.check_campaign_accounting(collected.meta, restarts)
    return failures


# ----------------------------------------------------------------------
# per-layer metrics of a traced run
# ----------------------------------------------------------------------
def _tree_mb(root: Path, pattern: str = "*") -> float:
    return sum(p.stat().st_size for p in root.rglob(pattern) if p.is_file()) / 1e6


def replay_shards(state) -> list:
    """Re-run each campaign shard in process, to time worker-side layers.

    The tasks are the ones the campaign handed its workers (same config,
    shard spec, fault plan, instrumentation and per-shard recovery
    namespace); ``execute_shard_task`` is the workers' own entry point.
    Returns the shards' outcomes.
    """
    from repro import RecoveryConfig
    from repro.shard import worker
    from repro.shard.plan import ShardPlan

    defn, seed = state["defn"], state["seed"]
    rcfg = RecoveryConfig(run_dir=state["chk"] / "replay", **defn["recovery"])
    outcomes = []
    for spec in ShardPlan.build(state["labs"], defn["shards"]).specs:
        task = worker.ShardTask(
            config=state["cfg"], shard=spec, labs=tuple(state["labs"]),
            faults=build_faults(defn, seed), instrument=defn["observer"],
            recovery=rcfg.for_shard(spec.index))
        outcomes.append(worker.execute_shard_task(task))
    return outcomes


def check_replay(state, outcomes) -> list:
    """The merged replay must equal the trace the campaign collected, so
    the layer figures taken from it describe that run."""
    from repro.shard.merge import merge_outcomes

    store, _faults, _snapshot = merge_outcomes(outcomes)
    chk = state["chk"]
    return checks.check_identical(
        "replay_identical", checks.trace_digests(store, chk),
        checks.trace_digests(state["collected"].store, chk))


def _recovery_infos(result) -> list:
    """RecoveryInfo summaries of a run: one per shard of a campaign."""
    infos = (result.campaign.recovery.values() if result.campaign is not None
             else [result.recovery])
    return [i for i in infos if i is not None]


def _slowest_worker_s(state, tracer) -> float:
    """The slowest shard worker of the collection, as the run measured it.

    In process (``shards=1``) that is the traced ``run_shard`` span.  A
    campaign's workers time their own phases, and the merged snapshot
    keeps the slowest shard's value of each phase.
    """
    if state["defn"]["shards"] == 1:
        return max(tracer.durations("shard.worker"))
    snapshot = state["collected"].obs_snapshot
    return sum(snapshot.gauge_value("experiment.phase_seconds", phase=p) or 0.0
               for p in ("build", "simulate", "collect"))


def unattributed_frac(tracer, seconds) -> float:
    """Share of the traced pipeline's time inside no layer span.

    A campaign collects in worker processes the tracer cannot see, so
    its collect step is replaced by the in-process replay of its shards.
    """
    wall = sum(seconds.values())
    covered = sum(tracer.covered.values())
    replay = tracer.total("step.replay")
    if replay:
        wall += replay - seconds["collect"]
        covered -= tracer.covered.get("step.collect", 0.0)
    return (wall - covered) / wall


def layer_metrics(state, tracer, seconds) -> dict:
    """Per-layer metrics of a traced pipeline run (and its shard replay)."""
    defn = state["defn"]
    collected, final = state["collected"], state["final"]
    meta = collected.meta
    eligibility = tracer.results("ddc.eligibility")
    workers = tracer.durations("shard.worker")
    ddc_busy = tracer.self_time("ddc.iteration")
    run_dir = state["out"] / "run"
    infos = _recovery_infos(collected)
    resumed = _recovery_infos(final) if "resume" in defn["steps"] else []
    ckpts = list(run_dir.rglob("ckpt-*")) if run_dir.is_dir() else []
    snapshot = collected.obs_snapshot
    if snapshot is None and collected.observer is not None:
        snapshot = collected.observer.snapshot()
    csv = state["out"] / "trace.csv"
    simulated = sum(tracer.results("ddc.finalize"))
    return {
        "sim.build_s": tracer.total("sim.build"),
        "sim.busy_s": tracer.self_time("sim.run") + tracer.self_time("sim.tick"),
        "sim.events": float(sum(tracer.results("sim.run"))),
        "sim.ticks": float(tracer.calls("sim.tick")),
        "ddc.busy_s": ddc_busy,
        "ddc.iterations": float(meta.iterations_run),
        "ddc.attempts": float(meta.attempts),
        "ddc.samples": float(meta.samples_collected),
        "ddc.retries": float(meta.retries),
        "ddc.us_per_attempt": 1e6 * ddc_busy / meta.attempts if meta.attempts else 0.0,
        "ddc.columnar": 1.0 if eligibility and all(r is None for r in eligibility) else 0.0,
        "resilience.shed": float(meta.shed),
        "resilience.breaker_skipped": float(meta.breaker_skipped),
        "resilience.hedges": float(meta.hedges),
        "faults.injected": float(sum(collected.faults.injected.values())
                                 if collected.faults is not None else 0),
        "traces.store_s": tracer.total("traces.store"),
        "traces.write_csv_s": tracer.total("traces.write_csv"),
        "traces.read_csv_s": tracer.total("traces.read_csv"),
        "traces.csv_mb": csv.stat().st_size / 1e6 if csv.exists() else 0.0,
        "traces.rows": float(len(final.store)),
        "traces.columnarise_s": tracer.total("traces.columnarise"),
        "recovery.journal_s": tracer.total("recovery.journal"),
        "recovery.checkpoint_s": tracer.total("recovery.checkpoint"),
        "recovery.checkpoints": float(sum(i.checkpoints_written for i in infos)),
        "recovery.records": float(sum(i.records_journaled for i in infos)),
        "recovery.journal_mb": _tree_mb(run_dir, "segment-*") if run_dir.is_dir() else 0.0,
        "recovery.checkpoint_mb": sum(p.stat().st_size for p in ckpts) / 1e6,
        "recovery.checkpoint_max_mb": max((p.stat().st_size for p in ckpts), default=0) / 1e6,
        "recovery.resume_s": seconds.get("resume", 0.0),
        "recovery.replay_verified": float(sum(i.replay_verified for i in resumed)),
        "shard.worker_s_max": max(workers, default=0.0),
        "shard.worker_s_min": min(workers, default=0.0),
        "shard.overhead_s": seconds["collect"] - _slowest_worker_s(state, tracer),
        "shard.merge_s": tracer.total("shard.merge"),
        "shard.restarts": float(sum(r.campaign.total_restarts for r in (collected, final)
                                    if r.campaign is not None)),
        "shard.useful_frac": (meta.n_machines * meta.iterations_run / simulated
                              if simulated else 0.0),
        "obs.snapshot_s": tracer.total("obs.snapshot"),
        "obs.series": float(len(snapshot.metrics)) if snapshot is not None else 0.0,
        "obs.spans": float(len(snapshot.spans)) if snapshot is not None else 0.0,
        "nbench.attach_s": tracer.total("nbench.attach"),
        "analysis.report_s": tracer.total("analysis.report"),
        "analysis.pairwise_cpu_s": tracer.total("analysis.pairwise_cpu"),
        "trace.unattributed_frac": unattributed_frac(tracer, seconds),
    }


# ----------------------------------------------------------------------
def run(defn: dict, seed: int, work: Path, traced: bool, reference_path) -> dict:
    """One pipeline run plus its checks; the dict lands in result.json."""
    import numpy

    import repro

    out, chk = work / "out", work / "chk"
    out.mkdir(parents=True)
    chk.mkdir(parents=True)
    tracer = None
    if traced:
        from pipebench.tracer import Tracer

        tracer = Tracer().install()
    cfg, labs = build_config(defn, seed)
    state = {"defn": defn, "seed": seed, "cfg": cfg, "labs": labs,
             "out": out, "chk": chk}
    seconds = run_steps(state, tracer)
    if "report" in state:
        write_report(state)
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    usage += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result = {
        "seconds": seconds,
        "wall_s": sum(seconds.values()),
        "collect_s": seconds["collect"],
        "post_s": sum(v for k, v in seconds.items() if k != "collect"),
        "peak_rss_mb": usage / 1024.0,
        "disk_mb": _tree_mb(out),
        "env": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                "repro_file": repro.__file__},
    }
    failures = []
    if tracer is not None:
        outcomes = None
        if defn["shards"] > 1:
            with tracer.step("replay"):
                outcomes = replay_shards(state)
        tracer.uninstall()
        result["layers"] = layer_metrics(state, tracer, seconds)
        tracer.dump(work / "spans.json")
        if outcomes is not None:
            failures += check_replay(state, outcomes)
    reference_digests = (json.loads(Path(reference_path).read_text())
                         if reference_path else None)
    result["failures"] = failures + run_checks(state, reference_digests)
    return result


def main(argv) -> int:
    mode, defn, seed = argv[0], json.loads(argv[1]), int(argv[2])
    if mode == "setup":
        print(json.dumps({"setup_s": setup(defn, seed)}))
    elif mode == "reference":
        reference(defn, seed, Path(argv[3]))
    elif mode == "run":
        work = Path(argv[3])
        result = run(defn, seed, work, argv[4] == "1", argv[5] if len(argv) > 5 else None)
        (work / "result.json").write_text(json.dumps(result))
    else:
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
