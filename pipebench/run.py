"""Pipeline benchmark of the ``repro`` library: one workload, one seed.

    python3 pipebench/run.py --workload paper_run --seed 2005 --seconds 45 --trace 0

Runs the workload's pipeline (``pipebench/workloads.json``) as a closed
loop -- one client, one pipeline run at a time, each in a fresh
interpreter -- for about ``--seconds`` seconds (at least two runs), checks
every run's outputs, and prints each metric with its unit.  The last
line of standard output is one JSON object: ``correct``, ``attempted``
(pipeline runs), ``failed`` (runs that raised or failed a check) and
``metrics`` -- the end-to-end metrics of ``BENCHMARK.json`` with
``--trace 0``, its per-layer metrics with ``--trace 1``.

Exit codes: 0 when every run passed its checks, 1 when one failed (the
result is still printed), 2 when the benchmark cannot run at all (no
``src/repro`` beside it, unknown workload, too few CPUs); then nothing
is printed on standard output.

Everything the benchmark writes goes under ``.pipebench/`` in the
checkout; per-run scratch is deleted, result records are kept in
``.pipebench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".pipebench"
#: Wall-clock budget of one invocation; the contract allows 180 s.
DEADLINE_S = 170.0
#: Fresh interpreters timed per invocation for ``setup_s``.
SETUP_RUNS = 5
#: Pipeline runs per invocation, however long they take: the median of
#: two halves the weight of one slow stretch of the host.
MIN_RUNS = 2
#: Child environment: one BLAS thread and a fixed hash seed, so the
#: spread between runs comes from the program, not from thread
#: scheduling or set-iteration order.
CHILD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}


class BenchError(Exception):
    """The benchmark cannot run here (exit code 2, no result)."""


class RunFailed(Exception):
    """One pipeline run raised or was killed (counted in ``failed``)."""


# ----------------------------------------------------------------------
def _child_env() -> dict:
    env = dict(os.environ)
    env.update(CHILD_ENV)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    env["TMPDIR"] = str(WORK / "tmp")
    return env


def _reap_group(pgid: int) -> None:
    """Kill what is left of a child's process group and wait for it."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    for _ in range(200):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def child(args, deadline: float) -> str:
    """Run ``python -m pipebench.pipeline *args``; returns its stdout."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RunFailed("time budget exhausted before the run started")
    # flush what earlier runs left dirty, so its writeback lands in no
    # later run's timing
    os.sync()
    proc = subprocess.Popen(
        [sys.executable, "-m", "pipebench.pipeline", *map(str, args)],
        cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        _reap_group(proc.pid)
        proc.communicate()
        raise RunFailed(f"{args[0]} run killed after {timeout:.0f} s") from None
    finally:
        _reap_group(proc.pid)
    if proc.returncode != 0:
        tail = err.strip().splitlines()[-3:]
        raise RunFailed(f"{args[0]} exited {proc.returncode}: {' | '.join(tail)}")
    return out


def run_once(defn, seed, traced, reference, deadline, tag) -> dict:
    """One pipeline run in a fresh interpreter; returns its result record."""
    work = WORK / "work" / tag
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        args = ["run", json.dumps(defn), seed, work, int(traced)]
        if reference is not None:
            args.append(reference)
        child(args, deadline)
        result = json.loads((work / "result.json").read_text())
        if (work / "spans.json").exists():
            shutil.copy(work / "spans.json", WORK / "results" / f"{tag}-spans.json")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    repro_file = Path(result["env"]["repro_file"]).resolve()
    if ROOT / "src" not in repro_file.parents:
        raise BenchError(f"repro was imported from {repro_file}, not {ROOT / 'src'}")
    return result


def source_digest() -> str:
    """sha256 over the library and benchmark sources (the checkout may
    not be a git repository, so this stands in for the commit)."""
    h = hashlib.sha256()
    for path in sorted([*(ROOT / "src").rglob("*.py"), *HERE.glob("*.py"),
                        HERE / "workloads.json"]):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


# ----------------------------------------------------------------------
def measure(workload: str, defn: dict, seed: int, seconds: float, trace: bool,
            deadline: float) -> dict:
    """Run one benchmark invocation; returns the full result record."""
    nproc = len(os.sched_getaffinity(0))
    if defn["shards"] > nproc:
        raise BenchError(f"{workload} runs {defn['shards']} worker processes "
                         f"but only {nproc} CPUs are available")
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    (WORK / "tmp").mkdir(parents=True, exist_ok=True)
    tag = f"{workload}-seed{seed}-trace{int(trace)}"
    reference = None
    #: one entry per pipeline run: its record, or the error that ended it
    outcomes = []
    setups = []

    def attempt(traced):
        try:
            run = run_once(defn, seed, traced, reference, deadline,
                           f"{tag}-{len(outcomes)}")
        except RunFailed as exc:
            run = {"failures": [str(exc)], "error": True}
        outcomes.append(run)
        return None if "error" in run else run

    try:
        if "reference_identical" in defn["checks"]:
            reference = WORK / "work" / f"{tag}-reference.json"
            reference.parent.mkdir(parents=True, exist_ok=True)
            child(["reference", json.dumps(defn), seed, reference], deadline)
        if trace:
            if attempt(False) is not None:
                attempt(True)
        else:
            for _ in range(SETUP_RUNS):
                out = child(["setup", json.dumps(defn), seed], deadline)
                setups.append(json.loads(out)["setup_s"])
            start, last = time.monotonic(), 0.0
            # start another run while it would end less than half a run
            # past ``seconds``, so a run measures about ``seconds``
            while (len(outcomes) < MIN_RUNS
                   or time.monotonic() - start + last / 2 < seconds):
                # stop early rather than let the next run overrun the budget
                if deadline - time.monotonic() < 1.5 * last:
                    break
                t0 = time.monotonic()
                if attempt(False) is None:
                    break
                last = time.monotonic() - t0
    except RunFailed as exc:
        outcomes.append({"failures": [str(exc)], "error": True})
    finally:
        if reference is not None:
            reference.unlink(missing_ok=True)
    runs = [o for o in outcomes if "error" not in o]
    samples = {}
    if trace and len(runs) == 2:
        base, traced = runs
        samples = {name: [v] for name, v in traced["layers"].items()}
        samples["trace.overhead_frac"] = [traced["wall_s"] / base["wall_s"] - 1.0]
    elif not trace and runs and setups:
        samples = {name: [r[name] for r in runs] for name in
                   ("wall_s", "collect_s", "post_s", "peak_rss_mb", "disk_mb")}
        samples["setup_s"] = setups
    env = {"nproc": nproc, "python": sys.version.split()[0],
           "numpy": runs[0]["env"]["numpy"] if runs else None,
           "commit": git_commit(), "source_sha256": source_digest(),
           "seed": seed, "workload": workload, "definition": defn}
    return {"env": env, "runs": runs, "samples": samples,
            "metrics": {name: statistics.median(v) for name, v in samples.items()},
            "failures": [f for o in outcomes for f in o["failures"]],
            "attempted": len(outcomes),
            "failed": sum(1 for o in outcomes if o["failures"])}


def summary(record: dict, declared: list) -> dict:
    """The result line: every declared metric with its unit, or not correct."""
    metrics = {m["name"]: {"value": record["metrics"][m["name"]], "unit": m["unit"]}
               for m in declared if m["name"] in record["metrics"]}
    return {"correct": record["failed"] == 0 and len(metrics) == len(declared),
            "attempted": record["attempted"], "failed": record["failed"],
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=2005)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    try:
        if not (ROOT / "src" / "repro" / "__init__.py").is_file():
            raise BenchError(f"no repro package under {ROOT / 'src'}")
        definitions = json.loads((HERE / "workloads.json").read_text())
        if args.workload not in definitions:
            raise BenchError(f"unknown workload {args.workload!r}; "
                             f"choose from {sorted(definitions)}")
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        record = measure(args.workload, definitions[args.workload], args.seed,
                         args.seconds, bool(args.trace), deadline)
    except BenchError as exc:
        print(f"pipebench: {exc}", file=sys.stderr)
        return 2
    final = summary(record, spec["per_layer" if args.trace else "end_to_end"])
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (WORK / "results" / f"{tag}.json").write_text(json.dumps(record, indent=1))
    print(f"env: {json.dumps(record['env'], sort_keys=True)}")
    for failure in record["failures"]:
        print(f"FAILED: {failure}")
    for name, m in final["metrics"].items():
        v = record["samples"][name]
        print(f"{name:28s} {m['value']:14.6f} {m['unit']:6s} "
              f"median of {len(v)}, spread {max(v) - min(v):.6f}")
    print(f"{'failed_frac':28s} {record['failed'] / record['attempted']:14.6f} frac")
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
