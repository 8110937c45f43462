"""Append-only trace storage with CSV / JSONL round-trip.

The coordinator appends one :class:`~repro.traces.records.Sample` per
successful probe execution.  Internally the store is **columnar** --
typed :mod:`array` buffers per field -- so a paper-scale trace (583,653
samples) costs ~70 MB instead of the ~300 MB half a million dataclass
instances would take, and converts to NumPy views without copying.

Two interchange formats are supported:

- **CSV** -- one row per sample, a fixed header, round-trips exactly;
- **JSONL** -- one JSON object per sample; self-describing, slightly
  larger, convenient for external tooling.

CSV contract
------------
CSV bytes are the equality oracle of the whole suite (shard merges,
kernels and resumed runs are all compared by them), so the format is
fixed to the byte:

- the first row is the fixed :data:`CSV_FIELDS` header;
- every row, the header included, ends in CRLF (``\\r\\n``);
- quoting is :mod:`csv` ``QUOTE_MINIMAL``: a field containing ``,``,
  ``"``, ``\\r`` or ``\\n`` is wrapped in double quotes with inner quotes
  doubled, every other field is written bare;
- integers are written with ``str``, floats with Python ``repr``
  (shortest round-tripping digits, ``inf``, ``-inf``, ``nan``);
- the NaN ``session_start`` of a sessionless sample is an empty field.

:meth:`TraceStore.write_csv` and :meth:`TraceStore.read_csv` work one
column and one chunk of rows at a time.  Their byte identity with the
per-row ``csv.writer`` / ``csv.reader`` implementation they replaced is
pinned by the reference property test ``tests/test_csv_reference.py``.
The reader accepts what ``csv.reader`` accepts (LF or CR line ends,
quoted fields spanning lines) and numeric fields accept what ``int()``
and ``float()`` accept; a malformed file raises
:class:`~repro.errors.TraceFormatError` (bad header) or
:class:`~repro.errors.TraceCorruptionError` (bad row) naming the line.
"""

from __future__ import annotations

import array
import csv
import json
import math
import re
from itertools import chain, islice, repeat
from pathlib import Path
from typing import Iterable, Iterator, List, Sequence, Union

import numpy as np

from repro.errors import TraceCorruptionError, TraceFormatError
from repro.traces.records import Sample, TraceMeta

__all__ = ["TraceStore", "CSV_FIELDS"]

#: (CSV field, buffer attribute, :mod:`array` typecode) in CSV column
#: order; a typecode of ``None`` marks a list of ``str``.  Each typecode
#: doubles as the NumPy dtype of the buffer.
_COLUMNS = (
    ("machine_id", "_machine_id", "i"),
    ("hostname", "_hostnames", None),
    ("lab", "_labs", None),
    ("iteration", "_iteration", "i"),
    ("t", "_t", "d"),
    ("boot_time", "_boot_time", "d"),
    ("uptime_s", "_uptime", "d"),
    ("cpu_idle_s", "_idle", "d"),
    ("mem_load_pct", "_mem", "d"),
    ("swap_load_pct", "_swap", "d"),
    ("disk_total_b", "_disk_total", "q"),
    ("disk_free_b", "_disk_free", "q"),
    ("smart_cycles", "_cycles", "q"),
    ("smart_poh_h", "_poh", "d"),
    ("net_sent_b", "_sent", "q"),
    ("net_recv_b", "_recv", "q"),
    ("has_session", "_has_session", "b"),
    ("username", "_usernames", None),
    ("session_start", "_session_start", "d"),
)

#: Column order of the CSV format (and of the internal buffers).
CSV_FIELDS = tuple(field for field, _, _ in _COLUMNS)

_ATTRS = {field: attr for field, attr, _ in _COLUMNS}

#: Rows per chunk of the CSV writer and reader.  The writer amortises
#: its per-chunk NumPy calls and formats fewer distinct values per row
#: over long chunks; the reader is bound by the ~20k field strings of a
#: chunk, which stay cache-resident in short ones.
_WRITE_CHUNK_ROWS = 8192
_READ_CHUNK_ROWS = 1024

#: A field ``csv.writer`` quotes under ``QUOTE_MINIMAL``.
_NEEDS_QUOTES = re.compile('[,"\r\n]')


class TraceStore:
    """Columnar, append-only store of probe samples.

    Parameters
    ----------
    meta:
        Experiment metadata; may be attached / replaced later via
        :attr:`meta` (the coordinator finalises counts at the end).
    """

    def __init__(self, meta: TraceMeta | None = None):
        self.meta = meta
        for _, attr, typecode in _COLUMNS:
            setattr(self, attr, [] if typecode is None else array.array(typecode))

    # ------------------------------------------------------------------
    def add(self, s: Sample) -> None:
        """Append one sample (validation happened in ``Sample.__post_init__``)."""
        self._machine_id.append(s.machine_id)
        self._iteration.append(s.iteration)
        self._t.append(s.t)
        self._boot_time.append(s.boot_time)
        self._uptime.append(s.uptime_s)
        self._idle.append(s.cpu_idle_s)
        self._mem.append(s.mem_load_pct)
        self._swap.append(s.swap_load_pct)
        self._disk_total.append(s.disk_total_b)
        self._disk_free.append(s.disk_free_b)
        self._cycles.append(s.smart_cycles)
        self._poh.append(s.smart_poh_h)
        self._sent.append(s.net_sent_b)
        self._recv.append(s.net_recv_b)
        self._has_session.append(1 if s.has_session else 0)
        self._session_start.append(s.session_start)
        self._usernames.append(s.username)
        self._hostnames.append(s.hostname)
        self._labs.append(s.lab)

    def extend(self, samples: Iterable[Sample]) -> None:
        """Append many samples."""
        for s in samples:
            self.add(s)

    def extend_columns(self, **columns) -> None:
        """Bulk-append one equal-length column per CSV field.

        The columnar DDC pass appends a whole iteration at once instead
        of materialising per-row :class:`Sample` objects.  Rows land in
        positional order -- exactly what the same values fed through
        sequential :meth:`add` calls would produce.  Numeric columns go
        through the buffer's exact dtype (integer casts truncate toward
        zero, matching ``int()``); string columns are list-extended.
        """
        n: int | None = None
        for field, attr, typecode in _COLUMNS:
            col = columns.pop(field)
            if typecode is not None:
                col = np.ascontiguousarray(col, dtype=typecode)
            if n is None:
                n = len(col)
            elif len(col) != n:
                raise TraceFormatError(
                    f"column {field!r} has length {len(col)}, expected {n}"
                )
            if typecode is None:
                getattr(self, attr).extend(col)
            else:
                # a copy, not a byte view: at the few-dozen-row batches of
                # the columnar pass, tobytes() is the cheaper of the two
                getattr(self, attr).frombytes(col.tobytes())
        if columns:
            raise TraceFormatError(
                f"unknown trace columns {sorted(columns)!r}"
            )

    def __len__(self) -> int:
        return len(self._t)

    # ------------------------------------------------------------------
    def sample_at(self, i: int) -> Sample:
        """Materialise the ``i``-th sample as a :class:`Sample` object."""
        return Sample(
            machine_id=self._machine_id[i],
            hostname=self._hostnames[i],
            lab=self._labs[i],
            iteration=self._iteration[i],
            t=self._t[i],
            boot_time=self._boot_time[i],
            uptime_s=self._uptime[i],
            cpu_idle_s=self._idle[i],
            mem_load_pct=self._mem[i],
            swap_load_pct=self._swap[i],
            disk_total_b=self._disk_total[i],
            disk_free_b=self._disk_free[i],
            smart_cycles=self._cycles[i],
            smart_poh_h=self._poh[i],
            net_sent_b=self._sent[i],
            net_recv_b=self._recv[i],
            has_session=bool(self._has_session[i]),
            username=self._usernames[i],
            session_start=self._session_start[i],
        )

    def samples(self) -> Iterator[Sample]:
        """Iterate all samples as :class:`Sample` objects (lazily)."""
        for i in range(len(self)):
            yield self.sample_at(i)

    # ------------------------------------------------------------------
    # shard merge
    # ------------------------------------------------------------------
    @classmethod
    def merge(cls, stores: "Sequence[TraceStore]") -> "TraceStore":
        """Merge per-shard stores into one deterministically ordered trace.

        Rows are re-ordered by ``(iteration, machine_id)``.  Because the
        roster is numbered fleet-wide in lab order and probed in that
        order within every iteration, this sort reproduces the sequential
        coordinator's append order exactly -- a merged trace is
        byte-identical to the unsharded run's CSV/JSONL export.

        Metadata merges via :meth:`TraceMeta.merged` (counters summed,
        schedule fields required to agree).  Guards raise
        :class:`~repro.errors.TraceFormatError`:

        - no stores, or a mix of with-meta and meta-less stores;
        - shard metas that disagree on period/horizon/iterations;
        - overlapping ``machine_id`` sets (two shards claiming the same
          machine would mean double-counted samples, never a valid plan).
        """
        stores = list(stores)
        if not stores:
            raise TraceFormatError("cannot merge zero trace stores")
        metas = [st.meta for st in stores]
        if any(m is None for m in metas) and any(m is not None for m in metas):
            raise TraceFormatError(
                "cannot merge stores with and without metadata"
            )
        meta = TraceMeta.merged(metas) if metas[0] is not None else None
        id_arrays = [
            np.frombuffer(st._machine_id, dtype="i4") for st in stores
        ]
        seen: set = set()
        for st, ids in zip(stores, id_arrays):
            present = set(np.unique(ids).tolist())
            overlap = seen & present
            if overlap:
                raise TraceFormatError(
                    f"stores overlap on machine ids {sorted(overlap)[:8]}; "
                    "shards must own disjoint machine sets"
                )
            seen |= present
        machine_id = np.concatenate(id_arrays)
        iteration = np.concatenate(
            [np.frombuffer(st._iteration, dtype="i4") for st in stores]
        )
        # lexsort keys run least-significant first; stability is moot
        # because (iteration, machine_id) pairs are unique per store and
        # disjoint across stores.
        perm = np.lexsort((machine_id, iteration))
        out = cls(meta)
        for _, attr, typecode in _COLUMNS:
            if typecode is None:
                combined: List[str] = []
                for st in stores:
                    combined.extend(getattr(st, attr))
                setattr(out, attr, [combined[i] for i in perm])
            else:
                col = np.concatenate(
                    [np.frombuffer(getattr(st, attr), dtype=typecode)
                     for st in stores]
                )[perm]
                # frombytes takes only a byte-format buffer; the cast
                # spares a copy of the whole merged column
                getattr(out, attr).frombytes(memoryview(col).cast("B"))
        return out

    # ------------------------------------------------------------------
    # raw column access (consumed by ColumnarTrace)
    # ------------------------------------------------------------------
    def column(self, name: str):
        """Return the raw internal buffer for column ``name``."""
        try:
            return getattr(self, _ATTRS[name])
        except KeyError:
            raise TraceFormatError(f"unknown trace column {name!r}") from None

    # ------------------------------------------------------------------
    # CSV
    # ------------------------------------------------------------------
    def write_csv(self, path: Union[str, Path]) -> None:
        """Write the trace as CSV under the module's CSV contract.

        Each chunk of rows is formatted column by column, then zipped
        into rows and written with a single join.
        """
        n = len(self)
        with open(path, "w", newline="") as fh:
            fh.write(",".join(CSV_FIELDS) + "\r\n")
            for a in range(0, n, _WRITE_CHUNK_ROWS):
                b = min(a + _WRITE_CHUNK_ROWS, n)
                columns = []
                for field, attr, typecode in _COLUMNS:
                    buf = getattr(self, attr)
                    if typecode is None:
                        columns.append(_quoted(buf[a:b]))
                    else:
                        values = np.frombuffer(buf, dtype=typecode)[a:b]
                        columns.append(_texts(values, _FORMATS[field]))
                fh.write("\r\n".join(map(",".join, zip(*columns))))
                fh.write("\r\n")

    @classmethod
    def read_csv(cls, path: Union[str, Path], meta: TraceMeta | None = None) -> "TraceStore":
        """Read a trace written by :meth:`write_csv`.

        Chunks whose lines are all CRLF-terminated and quote-free are
        split with one ``str.split`` and parsed column by column; any
        other chunk is split by ``csv.reader``, which may read on past
        the chunk to finish a quoted field.  String columns share one
        ``str`` object per distinct value.
        """
        store = cls(meta)
        strings: dict = {}
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or tuple(header) != CSV_FIELDS:
                raise TraceFormatError(f"bad CSV header in {path}")
            line = reader.line_num  # physical lines consumed so far
            while True:
                lines = list(islice(fh, _READ_CHUNK_ROWS))
                if not lines:
                    break
                text = ",".join(lines)
                if '"' in text or text.count("\r\n") != len(lines):
                    flat, row_lines, consumed = _split_with_csv(
                        lines, fh, line, path)
                else:
                    flat = _split_plain(text, lines, line, path)
                    row_lines = range(line + 1, line + 1 + len(lines))
                    consumed = len(lines)
                line += consumed
                store.extend_columns(
                    **_parse_columns(flat, row_lines, strings, path))
        return store

    # ------------------------------------------------------------------
    # JSONL
    # ------------------------------------------------------------------
    def write_jsonl(self, path: Union[str, Path]) -> None:
        """Write the trace as one JSON object per line."""
        with open(path, "w") as fh:
            for s in self.samples():
                d = {k: getattr(s, k) for k in Sample.__slots__}
                if math.isnan(d["session_start"]):
                    d["session_start"] = None
                fh.write(json.dumps(d) + "\n")

    @classmethod
    def read_jsonl(cls, path: Union[str, Path], meta: TraceMeta | None = None) -> "TraceStore":
        """Read a trace written by :meth:`write_jsonl`."""
        store = cls(meta)
        with open(path) as fh:
            for line_no, line in enumerate(fh, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    d = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise TraceCorruptionError(
                        f"{path}:{line_no}: bad JSON"
                    ) from exc
                if d.get("session_start") is None:
                    d["session_start"] = float("nan")
                try:
                    store.add(Sample(**d))
                except (TypeError, ValueError) as exc:
                    raise TraceCorruptionError(
                        f"{path}:{line_no}: {exc}"
                    ) from exc
        return store


# ----------------------------------------------------------------------
# CSV writer helpers
# ----------------------------------------------------------------------
def _quoted(values: List[str]) -> List[str]:
    """``values`` as ``csv.writer`` writes them under ``QUOTE_MINIMAL``."""
    if not _NEEDS_QUOTES.search("".join(values)):
        return values
    return ['"' + v.replace('"', '""') + '"' if _NEEDS_QUOTES.search(v) else v
            for v in values]


def _session_start_text(v: float) -> str:
    return "" if math.isnan(v) else repr(v)


#: Text of one numeric value, by CSV field.
_FORMATS = {field: str if typecode in "ibq" else repr
            for field, _, typecode in _COLUMNS if typecode is not None}
_FORMATS["session_start"] = _session_start_text


def _texts(values: np.ndarray, fmt) -> Iterable[str]:
    """``fmt`` of every value, formatting each distinct value once when
    at most half of the values are distinct.

    Values are told apart by their bit pattern, so ``-0.0`` and ``0.0``
    (equal as floats) keep their own text.
    """
    keys, inverse = np.unique(values.view(f"u{values.itemsize}"),
                              return_inverse=True)
    if 2 * len(keys) > len(values):
        return map(fmt, values.tolist())
    texts = list(map(fmt, keys.view(values.dtype).tolist()))
    return np.array(texts, dtype=object)[inverse].tolist()


# ----------------------------------------------------------------------
# CSV reader helpers
# ----------------------------------------------------------------------
def _split_plain(text: str, lines: List[str], line: int, path) -> List[str]:
    """Split quote-free, CRLF-terminated ``lines`` (joined by commas into
    ``text``) into row-major fields.

    Each line holds exactly one CRLF, at its end, so the field that
    carries it closes a row; every row has the full width exactly when
    those fields sit at the last column of every row.
    """
    width = len(_COLUMNS)
    flat = text.split(",")
    ends = flat[width - 1::width]
    if (len(flat) != width * len(lines)
            or "".join(ends).count("\r\n") != len(lines)):
        for k, row in enumerate(lines):
            if row.count(",") != width - 1:
                raise TraceCorruptionError(
                    f"{path}:{line + 1 + k}: bad CSV row width "
                    f"{row.count(',') + 1}, expected {width}"
                )
    flat[width - 1::width] = [s[:-2] for s in ends]
    return flat


def _split_with_csv(lines: List[str], rest, line: int, path):
    """Split a chunk with ``csv.reader``; returns (fields, row lines, lines read).

    ``rest`` is the open file: a quoted field that crosses the end of
    the chunk is finished from it, exactly as one ``csv.reader`` over the
    whole file would.
    """
    reader = csv.reader(chain(lines, rest))
    flat: List[str] = []
    row_lines: List[int] = []
    try:
        while reader.line_num < len(lines):
            row_lines.append(line + reader.line_num + 1)
            row = next(reader)
            if len(row) != len(_COLUMNS):
                raise TraceCorruptionError(
                    f"{path}:{row_lines[-1]}: bad CSV row width "
                    f"{len(row)}, expected {len(_COLUMNS)}"
                )
            flat.extend(row)
    except csv.Error as exc:
        raise TraceCorruptionError(f"{path}:{row_lines[-1]}: {exc}") from exc
    return flat, row_lines, reader.line_num


def _parse_columns(flat: List[str], row_lines: Sequence[int],
                   strings: dict, path) -> dict:
    """Parse one chunk of row-major fields into validated columns.

    ``row_lines`` maps a chunk row to its line in the file (for error
    messages); ``strings`` is the intern table shared across chunks.
    """
    width = len(_COLUMNS)
    cols = {}
    for j, (field, _, typecode) in enumerate(_COLUMNS):
        raw = flat[j::width]
        if typecode is None:
            cols[field] = list(map(strings.setdefault, raw, raw))
            continue
        if field == "session_start":
            raw = [s or "nan" for s in raw]
        try:
            # parses each str exactly as int() / float() would, and
            # raises OverflowError outside the buffer's range
            values = np.array(raw, dtype=typecode)
        except (ValueError, OverflowError):
            values = None
        if values is None or (field == "has_session" and (
                values.min() < 0 or values.max() > 1)):
            k = _first_bad(raw, typecode)
            raise TraceCorruptionError(
                f"{path}:{row_lines[k]}: bad {field} value {raw[k]!r}"
            )
        cols[field] = values
    # the Sample.__post_init__ invariants, as masks over the chunk
    uptime, idle = cols["uptime_s"], cols["cpu_idle_s"]
    session = cols["has_session"] == 1
    named = np.fromiter(map(bool, cols["username"]), dtype=bool,
                        count=len(session))
    for mask, message in (
        (uptime < 0, "uptime cannot be negative"),
        ((idle < -1e-6) | (idle > uptime + 1e-6),
         "idle time must lie within [0, uptime]"),
        (session != named, "session flag and username are inconsistent"),
        (session & np.isnan(cols["session_start"]),
         "an open session needs a start time"),
    ):
        bad = np.flatnonzero(mask)
        if bad.size:
            raise TraceCorruptionError(
                f"{path}:{row_lines[int(bad[0])]}: {message}"
            )
    return cols


def _first_bad(raw: List[str], typecode: str) -> int:
    """Index of the first text that does not parse into ``typecode``
    (for ``has_session``, that is not 0 or 1): the slow path that names
    the bad line once a whole column failed."""
    for k, text in enumerate(raw):
        try:
            v = np.array([text], dtype=typecode)[0]
        except (ValueError, OverflowError):
            return k
        if typecode == "b" and v not in (0, 1):
            return k
    raise AssertionError("no bad value in a column that failed to parse")
