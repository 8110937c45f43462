"""Output checks run after every benchmark pipeline.

Each check takes the artefacts a pipeline produced and returns a list
of failure messages (empty when the output is correct).  They are plain
functions of their inputs so the benchmark's tests can feed them
deliberately broken outputs.
"""

from __future__ import annotations

import hashlib
import re
from pathlib import Path
from typing import Dict, List, Mapping, Optional

__all__ = [
    "TABLE2_BANDS",
    "FIG6_BANDS",
    "file_sha256",
    "csv_sha256",
    "trace_digests",
    "meta_digest",
    "load_golden",
    "headline_values",
    "check_csv_roundtrip",
    "check_headline_bands",
    "check_fleet_accounting",
    "check_fleet_audit",
    "check_campaign_accounting",
    "check_identical",
]

#: |measured - golden| bands on the Table 2 headlines, in each metric's
#: unit -- the same bands the golden-reproduction tests apply to
#: ``reproduction_output/report.txt``.
TABLE2_BANDS = {
    "CPU idle % [no_login]": 0.5,
    "CPU idle % [with_login]": 1.5,
    "CPU idle % [both]": 1.0,
    "RAM load % [no_login]": 3.0,
    "RAM load % [with_login]": 4.0,
    "RAM load % [both]": 3.0,
    "swap load % [no_login]": 3.0,
    "swap load % [with_login]": 4.0,
    "swap load % [both]": 3.0,
    "disk used GB [no_login]": 1.0,
    "disk used GB [with_login]": 1.0,
    "disk used GB [both]": 1.0,
}

#: The same for the Fig 6 cluster-equivalence headlines.
FIG6_BANDS = {
    "cluster equivalence ratio": 0.08,
    "occupied contribution": 0.06,
    "user-free contribution": 0.06,
}


def file_sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def csv_sha256(store, scratch) -> str:
    """Digest of the CSV ``store.write_csv`` produces (written to ``scratch``)."""
    path = Path(scratch) / "digest.csv"
    store.write_csv(path)
    try:
        return file_sha256(path)
    finally:
        path.unlink()


def trace_digests(store, scratch) -> Dict[str, str]:
    """CSV and meta digests of a trace: the byte-identity oracle."""
    return {"csv": csv_sha256(store, scratch), "meta": meta_digest(store.meta)}


def meta_digest(meta) -> str:
    """Digest of a TraceMeta: counters plus statics in machine order.

    ``repr`` keeps NaN comparable (``nan`` prints the same every time),
    which ``==`` on the dataclass would not.
    """
    fields = {k: v for k, v in vars(meta).items() if k != "statics"}
    statics = sorted(meta.statics.items())
    return hashlib.sha256(repr((sorted(fields.items()), statics)).encode()).hexdigest()


def load_golden(path) -> Dict[str, float]:
    """Parse report.txt's fixed-width tables into {metric: measured}."""
    golden = {}
    row = re.compile(r"^(.*?)\s*\|\s*([-\d.]+)\s*\|\s*([-\d.]+)\s*\|")
    for line in Path(path).read_text().splitlines():
        m = row.match(line)
        if m and m.group(1).strip() != "metric":
            golden[m.group(1).strip()] = float(m.group(3))
    return golden


def headline_values(report) -> Dict[str, float]:
    """The banded headlines of an ExperimentReport, keyed like report.txt."""
    values = {}
    classes = {"no_login": report.main.no_login,
               "with_login": report.main.with_login,
               "both": report.main.both}
    for key, row in classes.items():
        values[f"CPU idle % [{key}]"] = row.cpu_idle_pct
        values[f"RAM load % [{key}]"] = row.ram_load_pct
        values[f"swap load % [{key}]"] = row.swap_load_pct
        values[f"disk used GB [{key}]"] = row.disk_used_gb
    eq = report.equivalence
    values["cluster equivalence ratio"] = eq.ratio_total
    values["occupied contribution"] = eq.ratio_occupied
    values["user-free contribution"] = eq.ratio_free
    return values


# ----------------------------------------------------------------------
def check_csv_roundtrip(written_sha: str, readback_store, scratch) -> List[str]:
    """The read-back store must re-write the CSV it was read from, byte for byte."""
    sha = csv_sha256(readback_store, scratch)
    if sha != written_sha:
        return [f"csv_roundtrip: re-written CSV sha256 {sha[:12]} != "
                f"written {written_sha[:12]}"]
    return []


def check_headline_bands(values: Mapping[str, float],
                         golden: Mapping[str, float]) -> List[str]:
    """Table 2 and Fig 6 headlines inside the golden report's bands."""
    failures = []
    for metric, band in {**TABLE2_BANDS, **FIG6_BANDS}.items():
        measured, expected = values[metric], golden[metric]
        if not abs(measured - expected) <= band:
            failures.append(f"headline_bands: {metric} = {measured:.3f}, "
                            f"golden {expected:.3f} +- {band}")
    return failures


def check_fleet_accounting(meta, rows: int) -> List[str]:
    """Every machine probed each iteration; every sample stored."""
    failures = []
    if meta.iterations_run * meta.n_machines != meta.attempts:
        failures.append(
            f"fleet_accounting: iterations_run {meta.iterations_run} x "
            f"n_machines {meta.n_machines} != attempts {meta.attempts}")
    if rows != meta.samples_collected:
        failures.append(f"fleet_accounting: {rows} rows != "
                        f"samples_collected {meta.samples_collected}")
    return failures


def check_fleet_audit(violations) -> List[str]:
    """``repro.sim.validation.audit_fleet`` found no broken invariant."""
    msgs = [f"fleet_audit: {v.hostname} {v.rule}: {v.detail}" for v in violations]
    return msgs[:5] + ([f"fleet_audit: {len(msgs) - 5} more"] if len(msgs) > 5 else [])


def check_campaign_accounting(meta, restarts: int) -> List[str]:
    """No worker restarted; every machine slot probed, shed or skipped."""
    failures = []
    if restarts != 0:
        failures.append(f"campaign_accounting: {restarts} worker restarts")
    covered = meta.attempts + meta.shed + meta.breaker_skipped
    if meta.iterations_run * meta.n_machines != covered:
        failures.append(
            f"campaign_accounting: iterations_run {meta.iterations_run} x "
            f"n_machines {meta.n_machines} != attempts + shed + "
            f"breaker_skipped {covered}")
    return failures


def check_identical(name: str, got: Mapping[str, str],
                    expected: Optional[Mapping[str, str]]) -> List[str]:
    """Two traces' digests (``csv`` and ``meta``) must match exactly."""
    if expected is None:
        return [f"{name}: no reference digests"]
    return [f"{name}: {key} digest {got[key][:12]} != {expected[key][:12]}"
            for key in ("csv", "meta") if got[key] != expected[key]]
