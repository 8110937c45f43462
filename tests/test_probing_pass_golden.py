"""Fixed digests of the per-object probing pass.

The equivalence suites compare two code paths against each other
(sharded vs sequential, policy on vs the same policy after a resume), so
a drift common to both sides of a comparison would go unseen.  These
cases pin absolute values instead: the sha256 of the exported CSV bytes
and the :class:`~repro.traces.records.TraceMeta` accounting counters of
short seed-2005 runs through every branch of the per-object pass --
plain, resilience control plane (with winning hedges), shard shadowing of
foreign machines (with and without the control plane, with and without
retries), fault hooks and observation.  Every value was computed before
the resilient and shard-shadow forks of the pass were merged into one
loop.

A change that moves any of these values changes what the collector
records; it must say why and re-derive the digests consciously.
"""

import dataclasses
import hashlib

import pytest

from repro.config import ExperimentConfig
from repro.experiment import run_experiment
from repro.faults.scenarios import paper_like_plan
from repro.obs.observer import Observer
from repro.resilience.policy import ResiliencePolicy

COUNTERS = ("iterations_scheduled", "iterations_run", "attempts", "timeouts",
            "access_denied", "samples_collected", "parse_failures",
            "retries", "retries_recovered", "retries_skipped", "shed",
            "breaker_skipped", "hedges", "hedge_wins")


def _run(case: str, tmp_path):
    cfg = ExperimentConfig(days=2, seed=2005)
    kwargs = {"collect_nbench": False}
    if case == "object":
        cfg = cfg.replace(kernel="object")
    elif case.startswith("resilience"):
        cfg = cfg.replace(ddc=dataclasses.replace(
            cfg.ddc, resilience=ResiliencePolicy()))
    elif case.startswith("hedging"):
        # a threshold below the latency range's top lets duplicates win
        # without a fault plan, so hedging moves the pass clock
        cfg = cfg.replace(ddc=dataclasses.replace(
            cfg.ddc, resilience=ResiliencePolicy(hedge_quantile=0.5,
                                                 hedge_margin=0.8)))
    elif case.startswith("faults"):
        cfg = cfg.replace(ddc=dataclasses.replace(
            cfg.ddc, resilience=ResiliencePolicy(), retry_limit=2))
        kwargs.update(faults=paper_like_plan(cfg.horizon, labs=("L03",),
                                             seed=99),
                      strict_postcollect=False, observer=Observer())
    elif case.startswith("retry_unreachable"):
        cfg = cfg.replace(ddc=dataclasses.replace(
            cfg.ddc, retry_limit=2, retry_unreachable=True))
        kwargs.update(observer=Observer())
    else:  # pragma: no cover - table typo
        raise AssertionError(case)
    kwargs["shards"] = 2 if case.endswith("shards2") else 1
    result = run_experiment(cfg, **kwargs)
    path = tmp_path / "trace.csv"
    result.store.write_csv(path)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    return digest, {name: getattr(result.meta, name) for name in COUNTERS}


#: case -> (CSV sha256, TraceMeta counters in COUNTERS order).  The
#: shards=2 cases shadow foreign machines and must equal shards=1.
GOLDEN = {
    "object": (
        "f78c16d2f32954dec26a3e84b603b34d7ddb9139a5db2655bd870fe94fa7611b",
        (192, 182, 30758, 13778, 0, 16980, 0, 0, 0, 0, 0, 0, 0, 0)),
    "resilience": (
        "a54ebe2c8e27cfb63ebf561f915b30229b392bcaa3e6b2d7b2cb5a89b18b7f85",
        (192, 178, 18290, 2823, 0, 15467, 0, 0, 0, 0, 0, 11792, 20, 0)),
    "resilience_shards2": (
        "a54ebe2c8e27cfb63ebf561f915b30229b392bcaa3e6b2d7b2cb5a89b18b7f85",
        (192, 178, 18290, 2823, 0, 15467, 0, 0, 0, 0, 0, 11792, 20, 0)),
    "hedging_shards2": (
        "becbfdc1d23e8b133d9a1060715d6d06017cac8640bcad29161166b744589d52",
        (192, 179, 18405, 2823, 0, 15582, 0, 0, 0, 0, 0, 11846, 5133, 374)),
    "faults_shards1": (
        "52814daa2ae904bce91cfef7ca94a7fc84d66304d7526ff6a4f319ec8327f675",
        (192, 168, 17219, 2789, 1052, 13013, 365, 8557, 4996, 2789, 15,
         11158, 45, 0)),
    "faults_shards2": (
        "52814daa2ae904bce91cfef7ca94a7fc84d66304d7526ff6a4f319ec8327f675",
        (192, 168, 17219, 2789, 1052, 13013, 365, 8557, 4996, 2789, 15,
         11158, 45, 0)),
    "retry_unreachable_shards2": (
        "6f0295b5db7db57d523df1b5ed1587f673ef91dd66c91df1a689de739ed1e2ec",
        (192, 182, 30758, 13778, 0, 16980, 0, 27556, 0, 0, 0, 0, 0, 0)),
}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_per_object_pass_digest(case, tmp_path):
    digest, counters = _run(case, tmp_path)
    want_digest, want_counters = GOLDEN[case]
    assert counters == dict(zip(COUNTERS, want_counters))
    assert digest == want_digest
