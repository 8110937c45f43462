"""Reference property test of the columnar CSV writer and reader.

The per-row ``csv.writer`` / ``csv.reader`` implementation that
``TraceStore.write_csv`` / ``TraceStore.read_csv`` replaced lives on here
as the reference.  The only changes from the per-row code are three
typed failures that the columnar reader also raises:

- ``has_session`` must be exactly 0 or 1 (``bool(int(...))`` used to fold
  any integer into 1);
- an integer outside its buffer's range (``OverflowError``) and a
  ``csv.Error`` surface as :class:`TraceCorruptionError`.

Properties pinned:

- the columnar writer's bytes equal the reference writer's for any
  store, including ``-0.0``, subnormals, ``1e16``, ``+-inf``, NaN in
  every float column, int extremes, the empty store and strings that
  need quoting (``,``, ``"``, CR/LF, non-ASCII);
- the columnar reader returns the same buffers (typecode and bytes) and
  string lists as the reference reader, or raises the same exception
  type, for written files and for corrupted ones;
- chunk boundaries do not matter: every property also runs with chunks
  of one, two and three rows, so quoted line breaks straddle them.
"""

import csv
import io
import math
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.traces.store as store_mod
from repro.errors import TraceCorruptionError, TraceFormatError
from repro.traces.records import Sample
from repro.traces.store import CSV_FIELDS, TraceStore


# ----------------------------------------------------------------------
# the reference: the per-row writer and reader
# ----------------------------------------------------------------------
_FLOAT_FIELDS = ("t", "boot_time", "uptime_s", "cpu_idle_s", "mem_load_pct",
                 "swap_load_pct", "smart_poh_h")


def reference_write_csv(store, path):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(CSV_FIELDS)
        for i in range(len(store)):
            w.writerow(_row(store, i))


def _row(store, i):
    row = []
    for field in CSV_FIELDS:
        v = store.column(field)[i]
        if field == "session_start":
            v = "" if math.isnan(v) else repr(v)
        elif field in _FLOAT_FIELDS:
            v = repr(v)
        row.append(v)
    return tuple(row)


def reference_read_csv(path):
    store = TraceStore()
    with open(path, newline="") as fh:
        r = csv.reader(fh)
        try:
            header = next(r, None)
            if header is None or tuple(header) != CSV_FIELDS:
                raise TraceFormatError(f"bad CSV header in {path}")
            for row in r:
                if len(row) != len(CSV_FIELDS):
                    raise TraceCorruptionError(
                        f"bad CSV row width in {path}: {row!r}"
                    )
                try:
                    store.add(_sample_from_strings(row))
                except OverflowError as exc:
                    raise TraceCorruptionError(f"bad CSV row: {row!r}") from exc
        except csv.Error as exc:
            raise TraceCorruptionError(str(exc)) from exc
    return store


def _sample_from_strings(row):
    try:
        has_session = int(row[16])
        if has_session not in (0, 1):
            raise ValueError("has_session must be 0 or 1")
        return Sample(
            machine_id=int(row[0]),
            hostname=row[1],
            lab=row[2],
            iteration=int(row[3]),
            t=float(row[4]),
            boot_time=float(row[5]),
            uptime_s=float(row[6]),
            cpu_idle_s=float(row[7]),
            mem_load_pct=float(row[8]),
            swap_load_pct=float(row[9]),
            disk_total_b=int(row[10]),
            disk_free_b=int(row[11]),
            smart_cycles=int(row[12]),
            smart_poh_h=float(row[13]),
            net_sent_b=int(row[14]),
            net_recv_b=int(row[15]),
            has_session=bool(has_session),
            username=row[17],
            session_start=float(row[18]) if row[18] else float("nan"),
        )
    except (ValueError, IndexError) as exc:
        raise TraceCorruptionError(f"bad CSV row: {row!r}") from exc


# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------
INT32 = (-2**31, 2**31 - 1)
INT64 = (-2**63, 2**63 - 1)
SPECIAL_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1e-05, 1e16, 1e15, 0.1,
                  float("inf"), float("-inf"), float("nan"), -float("nan")]
SPECIAL_TEXT = ["", ",", '"', "\r\n", "\r", "\n", "a,b", 'say "hi"', '""',
                "ünï", "日本", " L01 ", "L01", "x\r\ny", ",\n\""]

floats = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats())
texts = st.one_of(
    st.sampled_from(SPECIAL_TEXT),
    st.text(st.characters(blacklist_categories=("Cs",),
                          blacklist_characters="\x00"), max_size=6),
)


def ints(bounds):
    lo, hi = bounds
    return st.one_of(st.sampled_from([lo, hi, 0, -1, 1]),
                     st.integers(lo, hi))


@st.composite
def valid_rows(draw):
    """One row that satisfies every ``Sample`` invariant."""
    uptime = draw(st.one_of(
        st.sampled_from([0.0, -0.0, 5e-324, 1e16, float("inf"), float("nan")]),
        st.floats(min_value=0.0)))
    idle = draw(st.one_of(
        st.sampled_from([0.0, -0.0, float("nan"), uptime]),
        st.floats(0.0, 1.0).map(lambda f: uptime * f)))
    username = draw(texts)
    has_session = 1 if username else 0
    session_start = draw(st.floats(allow_nan=not has_session))
    return dict(
        machine_id=draw(ints(INT32)), hostname=draw(texts), lab=draw(texts),
        iteration=draw(ints(INT32)), t=draw(floats), boot_time=draw(floats),
        uptime_s=uptime, cpu_idle_s=idle, mem_load_pct=draw(floats),
        swap_load_pct=draw(floats), disk_total_b=draw(ints(INT64)),
        disk_free_b=draw(ints(INT64)), smart_cycles=draw(ints(INT64)),
        smart_poh_h=draw(floats), net_sent_b=draw(ints(INT64)),
        net_recv_b=draw(ints(INT64)), has_session=has_session,
        username=username, session_start=session_start,
    )


@st.composite
def any_rows(draw):
    """One row of arbitrary values, invariants or not."""
    return dict(
        machine_id=draw(ints(INT32)), hostname=draw(texts), lab=draw(texts),
        iteration=draw(ints(INT32)), t=draw(floats), boot_time=draw(floats),
        uptime_s=draw(floats), cpu_idle_s=draw(floats),
        mem_load_pct=draw(floats), swap_load_pct=draw(floats),
        disk_total_b=draw(ints(INT64)), disk_free_b=draw(ints(INT64)),
        smart_cycles=draw(ints(INT64)), smart_poh_h=draw(floats),
        net_sent_b=draw(ints(INT64)), net_recv_b=draw(ints(INT64)),
        has_session=draw(st.sampled_from([0, 1])), username=draw(texts),
        session_start=draw(floats),
    )


def build_store(rows):
    store = TraceStore()
    if rows:
        store.extend_columns(**{f: [r[f] for r in rows] for f in CSV_FIELDS})
    return store


#: Rows per reader/writer chunk: tiny chunks put boundaries everywhere.
chunk_rows = st.sampled_from([1, 2, 3, 1024])

SETTINGS = settings(max_examples=100, deadline=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])
#: Corruption tests run once per field or invariant: fewer examples each.
CORRUPT_SETTINGS = settings(SETTINGS, max_examples=25)


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
def outcome(read, path):
    """What a reader makes of ``path``: its buffers, or its error type."""
    try:
        store = read(path)
    except Exception as exc:  # noqa: BLE001 - the type is the outcome
        return type(exc)
    return {f: (col.typecode, col.tobytes()) if hasattr(col, "typecode")
            else list(col)
            for f in CSV_FIELDS for col in [store.column(f)]}


def both_outcomes(path, chunk):
    with mock.patch.object(store_mod, "_READ_CHUNK_ROWS", chunk):
        new = outcome(TraceStore.read_csv, path)
    return new, outcome(reference_read_csv, path)


def write_both(store, tmp_path, chunk):
    new, ref = tmp_path / "new.csv", tmp_path / "ref.csv"
    with mock.patch.object(store_mod, "_WRITE_CHUNK_ROWS", chunk):
        store.write_csv(new)
    reference_write_csv(store, ref)
    return new.read_bytes(), ref.read_bytes()


def _lines(data: bytes):
    return io.StringIO(data.decode(), newline="")


def rewrite(path, rows):
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


# ----------------------------------------------------------------------
# writer and reader against the reference
# ----------------------------------------------------------------------
class TestAgainstReference:
    @SETTINGS
    @given(rows=st.lists(any_rows(), max_size=12), chunk=chunk_rows)
    def test_writer_bytes_equal_reference(self, tmp_path, rows, chunk):
        new, ref = write_both(build_store(rows), tmp_path, chunk)
        assert new == ref

    def test_three_day_run_matches_reference(self, small_result, tmp_path):
        """A real trace spanning several chunks, at the default chunk size."""
        assert len(small_result.store) > 2 * store_mod._WRITE_CHUNK_ROWS
        new, ref = write_both(small_result.store, tmp_path,
                              store_mod._WRITE_CHUNK_ROWS)
        assert new == ref
        new, ref = both_outcomes(tmp_path / "new.csv",
                                 store_mod._READ_CHUNK_ROWS)
        assert new == ref

    def test_empty_store_writes_header_only(self, tmp_path):
        new, ref = write_both(TraceStore(), tmp_path, 3)
        assert new == ref == (",".join(CSV_FIELDS) + "\r\n").encode()
        assert len(TraceStore.read_csv(tmp_path / "new.csv")) == 0

    @SETTINGS
    @given(rows=st.lists(valid_rows(), max_size=12), chunk=chunk_rows)
    def test_reader_equals_reference_on_valid_files(self, tmp_path, rows, chunk):
        path = tmp_path / "trace.csv"
        reference_write_csv(build_store(rows), path)
        new, ref = both_outcomes(path, chunk)
        assert isinstance(ref, dict)
        assert new == ref

    @SETTINGS
    @given(rows=st.lists(any_rows(), max_size=12), chunk=chunk_rows)
    def test_reader_equals_reference_on_any_store(self, tmp_path, rows, chunk):
        path = tmp_path / "trace.csv"
        reference_write_csv(build_store(rows), path)
        new, ref = both_outcomes(path, chunk)
        assert new == ref

    @SETTINGS
    @given(rows=st.lists(valid_rows(), min_size=1, max_size=8),
           chunk=chunk_rows)
    def test_lf_line_ends_read_like_csv_reader(self, tmp_path, rows, chunk):
        """LF-terminated files (no CR) take the csv.reader path."""
        path = tmp_path / "trace.csv"
        reference_write_csv(build_store(rows), path)
        path.write_bytes(path.read_bytes().replace(b"\r\n", b"\n"))
        new, ref = both_outcomes(path, chunk)
        assert new == ref


# ----------------------------------------------------------------------
# corrupted files
# ----------------------------------------------------------------------
def _written(tmp_path, rows):
    path = tmp_path / "trace.csv"
    reference_write_csv(build_store(rows), path)
    return path


def _header_len(data: bytes) -> int:
    return data.index(b"\r\n") + 2


CORRUPT_BYTES = b"0123456789-+.,e\"\r\nabxz _"


class TestCorruptedFiles:
    @CORRUPT_SETTINGS
    @given(rows=st.lists(valid_rows(), min_size=1, max_size=6),
           chunk=chunk_rows, where=st.floats(0.0, 1.0),
           byte=st.sampled_from(CORRUPT_BYTES))
    def test_flipped_byte(self, tmp_path, rows, chunk, where, byte):
        path = _written(tmp_path, rows)
        data = bytearray(path.read_bytes())
        start = _header_len(bytes(data))
        ascii_at = [i for i in range(start, len(data)) if data[i] < 0x80]
        pos = ascii_at[int(where * (len(ascii_at) - 1))]
        data[pos] = byte
        path.write_bytes(bytes(data))
        new, ref = both_outcomes(path, chunk)
        assert new == ref

    @CORRUPT_SETTINGS
    @given(rows=st.lists(valid_rows(), min_size=1, max_size=6),
           chunk=chunk_rows, data=st.data())
    def test_truncated_row(self, tmp_path, rows, chunk, data):
        path = _written(tmp_path, rows)
        table = list(csv.reader(_lines(path.read_bytes())))
        k = data.draw(st.integers(1, len(table) - 1))
        keep = data.draw(st.integers(1, len(CSV_FIELDS) - 1))
        table[k] = table[k][:keep]
        rewrite(path, table)
        new, ref = both_outcomes(path, chunk)
        assert new == ref == TraceCorruptionError

    @CORRUPT_SETTINGS
    @given(rows=st.lists(valid_rows(), min_size=1, max_size=6),
           chunk=chunk_rows, where=st.floats(0.0, 1.0))
    def test_truncated_file(self, tmp_path, rows, chunk, where):
        path = _written(tmp_path, rows)
        data = path.read_bytes()
        start = _header_len(data)
        cut = start + int(where * (len(data) - start))
        path.write_bytes(data[:cut])
        # a cut inside a multi-byte character is not a CSV question
        try:
            data[:cut].decode()
        except UnicodeDecodeError:
            return
        new, ref = both_outcomes(path, chunk)
        assert new == ref

    @CORRUPT_SETTINGS
    @given(rows=st.lists(valid_rows(), min_size=1, max_size=6),
           chunk=chunk_rows, data=st.data())
    def test_added_field(self, tmp_path, rows, chunk, data):
        path = _written(tmp_path, rows)
        table = list(csv.reader(_lines(path.read_bytes())))
        k = data.draw(st.integers(1, len(table) - 1))
        table[k].insert(data.draw(st.integers(0, len(CSV_FIELDS))), "1")
        rewrite(path, table)
        new, ref = both_outcomes(path, chunk)
        assert new == ref == TraceCorruptionError

    @CORRUPT_SETTINGS
    @given(rows=st.lists(valid_rows(), min_size=1, max_size=6),
           chunk=chunk_rows, data=st.data())
    def test_blank_line(self, tmp_path, rows, chunk, data):
        path = _written(tmp_path, rows)
        table = list(csv.reader(_lines(path.read_bytes())))
        table.insert(data.draw(st.integers(1, len(table))), [])
        rewrite(path, table)
        new, ref = both_outcomes(path, chunk)
        assert new == ref == TraceCorruptionError

    @pytest.mark.parametrize("field", [
        f for f in CSV_FIELDS if f not in ("hostname", "lab", "username")
    ])
    @CORRUPT_SETTINGS
    @given(rows=st.lists(valid_rows(), min_size=1, max_size=6),
           chunk=chunk_rows, data=st.data(),
           bad=st.sampled_from(["x", "1.2.3", "0x10", "--1", "1e", "nan(1)",
                                " ", "١٢x"]))
    def test_non_numeric_value(self, tmp_path, field, rows, chunk, data, bad):
        path = _written(tmp_path, rows)
        table = list(csv.reader(_lines(path.read_bytes())))
        k = data.draw(st.integers(1, len(table) - 1))
        table[k][CSV_FIELDS.index(field)] = bad
        rewrite(path, table)
        new, ref = both_outcomes(path, chunk)
        assert new == ref == TraceCorruptionError

    @pytest.mark.parametrize("field, bad", [
        ("machine_id", str(2**31)), ("iteration", str(-2**31 - 1)),
        ("disk_total_b", str(2**63)), ("net_recv_b", str(-2**63 - 1)),
        ("has_session", "2"), ("has_session", "-1"),
        ("machine_id", "1.0"), ("disk_free_b", "inf"),
    ])
    def test_out_of_range_value(self, tmp_path, field, bad):
        row = _valid_row()
        path = _written(tmp_path, [row, row])
        table = list(csv.reader(_lines(path.read_bytes())))
        table[2][CSV_FIELDS.index(field)] = bad
        rewrite(path, table)
        new, ref = both_outcomes(path, 1024)
        assert new == ref == TraceCorruptionError

    @pytest.mark.parametrize("edit", [
        {"cpu_idle_s": "-1e-06"},
        {"uptime_s": "10.0", "cpu_idle_s": repr(10.0 + 1e-6)},
        {"uptime_s": "-0.0", "cpu_idle_s": "-0.0"},
        {"uptime_s": "nan", "cpu_idle_s": "inf"},
    ])
    def test_invariant_boundaries_accepted(self, tmp_path, edit):
        path = _written(tmp_path, [_valid_row()])
        table = list(csv.reader(_lines(path.read_bytes())))
        for field, text in edit.items():
            table[1][CSV_FIELDS.index(field)] = text
        rewrite(path, table)
        new, ref = both_outcomes(path, 1024)
        assert isinstance(ref, dict)
        assert new == ref

    @pytest.mark.parametrize("edit", [
        {"uptime_s": "-1.0"},
        {"uptime_s": "-inf"},
        {"uptime_s": "10.0", "cpu_idle_s": "10.5"},
        {"cpu_idle_s": "-0.001"},
        {"has_session": "1", "username": "", "session_start": "5.0"},
        {"has_session": "0", "username": "ghost"},
        {"has_session": "1", "username": "u", "session_start": ""},
    ], ids=["negative-uptime", "minus-inf-uptime", "idle-above-uptime",
            "negative-idle", "session-without-user", "user-without-session",
            "session-without-start"])
    @CORRUPT_SETTINGS
    @given(rows=st.lists(valid_rows(), min_size=1, max_size=6),
           chunk=chunk_rows, data=st.data())
    def test_broken_invariant(self, tmp_path, edit, rows, chunk, data):
        path = _written(tmp_path, rows)
        table = list(csv.reader(_lines(path.read_bytes())))
        k = data.draw(st.integers(1, len(table) - 1))
        for field, text in edit.items():
            table[k][CSV_FIELDS.index(field)] = text
        rewrite(path, table)
        new, ref = both_outcomes(path, chunk)
        assert new == ref == TraceCorruptionError


def _valid_row():
    return dict(
        machine_id=3, hostname="L01-M04", lab="L01", iteration=1, t=900.0,
        boot_time=0.0, uptime_s=900.0, cpu_idle_s=850.0, mem_load_pct=55.0,
        swap_load_pct=26.0, disk_total_b=74_500_000_000,
        disk_free_b=60_000_000_000, smart_cycles=100, smart_poh_h=640.0,
        net_sent_b=1234, net_recv_b=4321, has_session=0, username="",
        session_start=float("nan"),
    )
