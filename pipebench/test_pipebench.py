"""Tests of the pipeline benchmark at tiny sizes.

Run from the repository root: ``PYTHONPATH=src python -m pytest pipebench``.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from pipebench import checks, run
from pipebench.tracer import Tracer

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
DEFINITIONS = json.loads((HERE / "workloads.json").read_text())

#: Each workload shrunk to a couple of seconds; the headline bands only
#: hold at paper scale, so the tiny paper run skips them.
TINY = {
    "paper_run": dict(DEFINITIONS["paper_run"], days=2, machines=30,
                      checks=["csv_roundtrip"]),
    "fleet_day": dict(DEFINITIONS["fleet_day"], machines=200),
    "campaign": dict(DEFINITIONS["campaign"], days=2, machines=60),
}


def test_benchmark_json_names_defined_workloads():
    # fleet_day is defined but left out of BENCHMARK.json (time budget)
    assert [w["name"] for w in SPEC["workloads"]] == ["paper_run", "campaign"]
    assert set(TINY) == set(DEFINITIONS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(TINY))
def test_every_workload_emits_every_metric(workload, trace):
    record = run.measure(workload, TINY[workload], 11, 0.0, bool(trace),
                         time.monotonic() + 170)
    declared = SPEC["per_layer" if trace else "end_to_end"]
    line = run.summary(record, declared)
    assert record["failures"] == []
    assert line["correct"] and line["attempted"] >= 1 and line["failed"] == 0
    assert {n: m["unit"] for n, m in line["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    for name, m in line["metrics"].items():
        assert math.isfinite(m["value"]), name
    if not trace:
        assert all(m["value"] > 0 for m in line["metrics"].values())


def test_bare_directory_exits_nonzero_without_result(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "pipebench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "pipebench/run.py", "--workload", "paper_run",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_tracer_restores_every_entry_point():
    from repro.sim.engine import Simulator
    from repro.traces.store import TraceStore

    run_until, read_csv = Simulator.run_until, TraceStore.__dict__["read_csv"]
    tracer = Tracer().install()
    assert Simulator.run_until is not run_until
    tracer.uninstall()
    assert Simulator.run_until is run_until
    assert TraceStore.__dict__["read_csv"] is read_csv


def test_tracer_attributes_only_layer_spans():
    tracer = Tracer()
    leaf = tracer._shim("sim.run", "sim", "sim", lambda: time.sleep(0.02))
    container = tracer._shim("shard.worker", None, None,
                             lambda: (time.sleep(0.02), leaf()))
    with tracer.step("collect"):
        container()
        leaf()
    step = tracer.total("step.collect")
    covered = tracer.covered["step.collect"]
    assert covered == pytest.approx(tracer.total("sim.run"))
    assert tracer.calls("sim.run") == 2
    # the container's own sleep is explained by no layer
    assert step - covered >= 0.02


# ----------------------------------------------------------------------
# every output check fires on a deliberately broken output
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def tiny_result():
    from repro import ExperimentConfig, run_experiment
    from repro.machines.hardware import scaled_labs

    return run_experiment(ExperimentConfig(days=1, seed=3), labs=scaled_labs(20))


def _flip_digit(path: Path) -> None:
    """Change one digit of the first data row's timestamp field."""
    lines = path.read_text().splitlines(keepends=True)
    fields = lines[1].split(",")
    t = fields[4]
    i = next(k for k, c in enumerate(t) if c in "123456789")
    fields[4] = t[:i] + str(int(t[i]) % 9 + 1) + t[i + 1:]
    lines[1] = ",".join(fields)
    path.write_text("".join(lines))


def test_csv_roundtrip_fires_on_flipped_byte(tiny_result, tmp_path):
    from repro.traces.store import TraceStore

    csv = tmp_path / "trace.csv"
    tiny_result.store.write_csv(csv)
    sha = checks.file_sha256(csv)
    clean = TraceStore.read_csv(csv, meta=tiny_result.meta)
    assert checks.check_csv_roundtrip(sha, clean, tmp_path) == []
    _flip_digit(csv)
    broken = TraceStore.read_csv(csv, meta=tiny_result.meta)
    assert checks.check_csv_roundtrip(sha, broken, tmp_path)


def test_headline_bands_fire_outside_band():
    golden = checks.load_golden(HERE.parent / "reproduction_output" / "report.txt")
    values = {k: golden[k] for k in {**checks.TABLE2_BANDS, **checks.FIG6_BANDS}}
    assert checks.check_headline_bands(values, golden) == []
    values["CPU idle % [both]"] += checks.TABLE2_BANDS["CPU idle % [both]"] + 0.01
    values["cluster equivalence ratio"] = float("nan")
    assert len(checks.check_headline_bands(values, golden)) == 2


def test_fleet_accounting_fires_on_dropped_row(tiny_result):
    from repro.traces.store import TraceStore

    meta = tiny_result.meta
    assert checks.check_fleet_accounting(meta, len(tiny_result.store)) == []
    dropped = TraceStore(meta)
    dropped.extend(list(tiny_result.store.samples())[:-1])
    assert checks.check_fleet_accounting(meta, len(dropped))
    meta_lost = type(meta)(**{**vars(meta), "attempts": meta.attempts - 1})
    assert checks.check_fleet_accounting(meta_lost, len(tiny_result.store))


def test_fleet_audit_fires_on_violation(tiny_result):
    from repro.sim.validation import Violation, audit_fleet

    assert checks.check_fleet_audit(audit_fleet(tiny_result.fleet)) == []
    assert checks.check_fleet_audit([Violation("L01-M01", "boot-overlap", "1 > 0")])


def test_identity_checks_fire_on_diverged_resume(tiny_result, tmp_path):
    import dataclasses

    from repro.traces.store import TraceStore

    store = tiny_result.store
    same = checks.trace_digests(store, tmp_path)
    assert checks.check_identical("resume", same, checks.trace_digests(store, tmp_path)) == []
    samples = list(store.samples())
    samples[-1] = dataclasses.replace(samples[-1], mem_load_pct=samples[-1].mem_load_pct + 1)
    diverged = TraceStore(store.meta)
    diverged.extend(samples)
    assert checks.check_identical("resume", checks.trace_digests(diverged, tmp_path), same)
    assert checks.check_identical("reference", same, None)


def test_campaign_accounting_fires(tiny_result):
    meta = tiny_result.meta
    assert checks.check_campaign_accounting(meta, 0) == []
    assert checks.check_campaign_accounting(meta, 1)
    skewed = type(meta)(**{**vars(meta), "breaker_skipped": 1})
    assert checks.check_campaign_accounting(skewed, 0)
