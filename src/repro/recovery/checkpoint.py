"""Versioned, atomic experiment checkpoints.

A checkpoint is a full snapshot of the live experiment graph -- the
fleet (machines, agents, behaviour RNG streams), the discrete-event
simulator (clock + pending heap), the DDC coordinator (schedule position
and accounting), the trace store, the fault plan (injection cursor and
private RNG) and the observer -- taken at an iteration boundary.  The
simulation is deterministic, so restoring the graph and running to the
horizon reproduces the uninterrupted run sample for sample.

File format (``ckpt-00000123.ckpt``)
------------------------------------
Line 1 is a JSON header::

    {"v": 2, "iteration": 123, "sim_now": 110700.0,
     "config": "<sha256 of the run config>", "payload_len": N,
     "payload_crc": "xxxxxxxx"}

followed by ``N`` bytes of pickled state.  Writes are atomic: the file
is staged as ``.tmp`` in the same directory, flushed, fsynced, then
``os.replace``d into place and the directory fsynced -- a crash leaves
either the previous checkpoint set or the new one, never a half
checkpoint under the real name.

Loading walks checkpoints newest-first and *quarantines* (moves +
ledgers) any with a bad header, payload CRC mismatch or unpicklable
payload, falling back to the next older one.  Stale ``.tmp`` files from
a crash mid-checkpoint are swept into quarantine as well.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional, Union

from repro.config import ExperimentConfig
from repro.errors import CheckpointError
from repro.recovery.journal import Quarantine, _fsync_dir

__all__ = [
    "CHECKPOINT_VERSION",
    "Checkpoint",
    "config_digest",
    "write_checkpoint",
    "load_latest_checkpoint",
]

#: Checkpoint schema version (bumped on incompatible state changes).
CHECKPOINT_VERSION = 2

_CKPT_FMT = "ckpt-{:08d}.ckpt"


def config_digest(config: ExperimentConfig) -> str:
    """Stable digest of a run configuration.

    Resume refuses to continue a checkpoint under a different
    configuration -- the simulation would silently diverge from both the
    original run and a fresh one.
    """
    blob = json.dumps(config.to_dict(), sort_keys=True, default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass
class Checkpoint:
    """One loaded checkpoint: header fields plus the revived state."""

    version: int
    iteration: int
    sim_now: float
    config: str
    path: Path
    state: Any


def write_checkpoint(
    ckpt_dir: Union[str, Path],
    *,
    iteration: int,
    sim_now: float,
    config: ExperimentConfig,
    state: Any,
    fsync: bool = True,
    _tear_after: Optional[int] = None,
) -> Path:
    """Atomically write one checkpoint; returns its final path.

    ``_tear_after`` is the crash-injection hook: when set, only that many
    payload bytes are staged and the rename never happens, emulating a
    process death mid-checkpoint.
    """
    ckpt_dir = Path(ckpt_dir)
    ckpt_dir.mkdir(parents=True, exist_ok=True)
    payload = pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)
    header = {
        "v": CHECKPOINT_VERSION,
        "iteration": int(iteration),
        "sim_now": float(sim_now),
        "config": config_digest(config),
        "payload_len": len(payload),
        "payload_crc": format(zlib.crc32(payload) & 0xFFFFFFFF, "08x"),
    }
    path = ckpt_dir / _CKPT_FMT.format(iteration)
    tmp = path.with_suffix(".tmp")
    with open(tmp, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("ascii") + b"\n")
        if _tear_after is not None:
            fh.write(payload[:_tear_after])
            fh.flush()
            return tmp  # crash emulation: no rename, no fsync
        fh.write(payload)
        fh.flush()
        if fsync:
            os.fsync(fh.fileno())
    os.replace(tmp, path)
    if fsync:
        _fsync_dir(ckpt_dir)
    return path


def _read_checkpoint(path: Path) -> Checkpoint:
    with open(path, "rb") as fh:
        header_line = fh.readline()
        try:
            header = json.loads(header_line)
        except json.JSONDecodeError as exc:
            raise CheckpointError(f"{path.name}: bad header") from exc
        if header.get("v") != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"{path.name}: unsupported checkpoint version "
                f"{header.get('v')!r} (supported: {CHECKPOINT_VERSION})"
            )
        payload = fh.read()
    if len(payload) != header.get("payload_len"):
        raise CheckpointError(
            f"{path.name}: truncated payload "
            f"({len(payload)} of {header.get('payload_len')} bytes)"
        )
    crc = format(zlib.crc32(payload) & 0xFFFFFFFF, "08x")
    if crc != header.get("payload_crc"):
        raise CheckpointError(
            f"{path.name}: payload CRC mismatch "
            f"(recorded {header.get('payload_crc')}, actual {crc})"
        )
    try:
        state = pickle.loads(payload)
    except Exception as exc:  # unpickling failures are corruption too
        raise CheckpointError(f"{path.name}: unpicklable payload: {exc}") from exc
    return Checkpoint(
        version=int(header["v"]),
        iteration=int(header["iteration"]),
        sim_now=float(header["sim_now"]),
        config=str(header["config"]),
        path=path,
        state=state,
    )


def load_latest_checkpoint(
    ckpt_dir: Union[str, Path], quarantine: Quarantine
) -> Optional[Checkpoint]:
    """Load the newest valid checkpoint, quarantining damaged ones.

    Returns ``None`` when no valid checkpoint exists (the caller then
    cold-restarts the run from iteration 0).
    """
    ckpt_dir = Path(ckpt_dir)
    if not ckpt_dir.is_dir():
        return None
    # Sweep crash residue first: a .tmp is a checkpoint whose rename
    # never happened and is by definition untrustworthy.
    for tmp in sorted(ckpt_dir.glob("*.tmp")):
        quarantine.report("stale_checkpoint_tmp", file=tmp)
    candidates = sorted(ckpt_dir.glob("ckpt-*.ckpt"), reverse=True)
    for path in candidates:
        try:
            return _read_checkpoint(path)
        except CheckpointError as exc:
            quarantine.report("bad_checkpoint", file=path, detail=str(exc))
    return None
