"""Phase-2 behavioural engine: vectorised event loop at fleet scale.

PR 6's columnar kernel vectorised the probing pass; at 10k machines the
*behavioural* event loop (session churn, power management, workload
redraws) became the dominant cost of a simulated day.  Phase 2 moves
those dynamics onto per-tick columnar draws when
``behavioural_equivalence="statistical"`` engages the vectorised engine
above the fleet-size threshold.

Two measurements, one JSON artifact (``BENCH_behavioural.json``):

1. **Behavioural phase** -- a fleet-only day (no coordinator, no
   probing): the agents on the exact tick backend versus the vector
   engine on the same roster and seed.  Target: **>= 4x** at 10k machines.
2. **End to end** -- a full 1-day run: the exact path (columnar probing
   + exact tick-backend behaviour, the previous state of the art and the
   ``BENCH_fleet_scale.json`` baseline) versus
   ``kernel="columnar", behavioural_equivalence="statistical"``.
   Target: **>= 2x** at 10k machines.

The artifact also records the committed ``BENCH_fleet_scale.json``
baseline's ``e2e_day_wall_seconds`` when that file is readable, so the
cross-host ratio stays inspectable alongside the same-host one that is
asserted.

Environment knobs: ``REPRO_BEHAVIOURAL_BENCH_MACHINES`` (default
``10000``), ``REPRO_BEHAVIOURAL_BENCH_OUT`` for the report path, and
``REPRO_BENCH_SEED`` as for the rest of the harness.
"""

from __future__ import annotations

import gc
import json
import os
import pathlib
import time

from benchmarks.conftest import bench_seed, show, write_bench_report
from repro.config import ExperimentConfig
from repro.experiment import run_experiment
from repro.machines.hardware import scaled_labs
from repro.report.tables import Table
from repro.sim.fleet import FleetSimulator

#: Same-host end-to-end speedup required of the statistical engine.
E2E_SPEEDUP_TARGET = 2.0
#: Same-host behavioural-phase (fleet-only) speedup required.
BEHAVIOURAL_SPEEDUP_TARGET = 4.0
#: The fleet size both targets are asserted at.
TARGET_MACHINES = 10_000


def _machines() -> int:
    return int(os.environ.get("REPRO_BEHAVIOURAL_BENCH_MACHINES", "10000"))


def _statistical(cfg: ExperimentConfig) -> ExperimentConfig:
    return cfg.replace(kernel="columnar",
                       behavioural_equivalence="statistical")


def _fleet_only_day(cfg: ExperimentConfig, labs) -> tuple[float, str]:
    """Wall seconds of one behavioural-only day (no probing passes)."""
    fleet = FleetSimulator(cfg, labs=labs)
    gc.collect()
    t0 = time.perf_counter()
    fleet.start()
    fleet.sim.run_until(cfg.horizon)
    return time.perf_counter() - t0, fleet.behavioural_backend


def _e2e_day(cfg: ExperimentConfig, labs) -> tuple[float, int]:
    gc.collect()
    t0 = time.perf_counter()
    result = run_experiment(cfg, collect_nbench=False, labs=labs)
    return time.perf_counter() - t0, len(result.store)


def _fleet_scale_baseline() -> float | None:
    """``e2e_day_wall_seconds`` at 10k from the committed artifact."""
    path = pathlib.Path(__file__).resolve().parents[1] \
        / "BENCH_fleet_scale.json"
    try:
        data = json.loads(path.read_text())
    except (OSError, ValueError):
        return None
    for row in data.get("runs", ()):
        if row.get("machines") == TARGET_MACHINES:
            return row.get("e2e_day_wall_seconds")
    return None


def test_behavioural_engine_speedup():
    n = _machines()
    labs = scaled_labs(n)
    exact = ExperimentConfig(days=1, seed=bench_seed())
    stat = _statistical(exact)

    obj_fleet_s, obj_backend = _fleet_only_day(exact, labs)
    vec_fleet_s, vec_backend = _fleet_only_day(stat, labs)
    assert obj_backend == "tick"
    assert vec_backend == "vector", (
        f"statistical mode did not engage the vector engine at {n} "
        f"machines (backend {vec_backend!r})"
    )
    behavioural_speedup = obj_fleet_s / vec_fleet_s

    exact_e2e_s, exact_samples = _e2e_day(exact, labs)
    stat_e2e_s, stat_samples = _e2e_day(stat, labs)
    e2e_speedup = exact_e2e_s / stat_e2e_s

    asserted = n >= TARGET_MACHINES
    rows = [
        {"mode": "exact", "phase": "behavioural",
         "wall_seconds": round(obj_fleet_s, 3)},
        {"mode": "statistical", "phase": "behavioural",
         "wall_seconds": round(vec_fleet_s, 3),
         "speedup": round(behavioural_speedup, 2)},
        {"mode": "exact", "phase": "e2e_day",
         "wall_seconds": round(exact_e2e_s, 3), "samples": exact_samples},
        {"mode": "statistical", "phase": "e2e_day",
         "wall_seconds": round(stat_e2e_s, 3), "samples": stat_samples,
         "speedup": round(e2e_speedup, 2)},
    ]
    report = {
        "seed": bench_seed(),
        "cpu_count": os.cpu_count() or 1,
        "machines": n,
        "behavioural_speedup_target": BEHAVIOURAL_SPEEDUP_TARGET,
        "e2e_speedup_target": E2E_SPEEDUP_TARGET,
        "fleet_scale_baseline_e2e_seconds": _fleet_scale_baseline(),
        "target_asserted": asserted,
        "runs": rows,
    }
    write_bench_report("behavioural", report,
                       env_var="REPRO_BEHAVIOURAL_BENCH_OUT")

    table = Table(["phase", "exact s", "statistical s", "speedup"],
                  ndigits=3)
    table.add_row(["behavioural", obj_fleet_s, vec_fleet_s,
                   f"{behavioural_speedup:.1f}x"])
    table.add_row(["e2e day", exact_e2e_s, stat_e2e_s,
                   f"{e2e_speedup:.1f}x"])
    show("behavioural engine", table.render())

    if asserted:
        assert behavioural_speedup >= BEHAVIOURAL_SPEEDUP_TARGET, (
            f"behavioural phase speedup {behavioural_speedup:.1f}x at "
            f"{n} machines is below the "
            f"{BEHAVIOURAL_SPEEDUP_TARGET:.0f}x target"
        )
        assert e2e_speedup >= E2E_SPEEDUP_TARGET, (
            f"end-to-end speedup {e2e_speedup:.1f}x at {n} machines is "
            f"below the {E2E_SPEEDUP_TARGET:.0f}x target"
        )
