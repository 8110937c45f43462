"""Unit tests for trace records and the trace store."""

import math

import pytest

from repro.errors import TraceCorruptionError, TraceError, TraceFormatError
from repro.machines.hardware import TABLE1_LABS
from repro.traces.records import Sample, StaticInfo, TraceMeta
from repro.traces.store import TraceStore


def samples_equal(a, b):
    """Field-wise equality treating NaN session_start as equal."""
    for name in Sample.__slots__:
        va, vb = getattr(a, name), getattr(b, name)
        if isinstance(va, float) and math.isnan(va) and math.isnan(vb):
            continue
        if va != vb:
            return False
    return True


def make_sample(i=0, t=900.0, session=False, **overrides):
    kwargs = dict(
        machine_id=i,
        hostname=f"L01-M{i + 1:02d}",
        lab="L01",
        iteration=1,
        t=t,
        boot_time=0.0,
        uptime_s=t,
        cpu_idle_s=t * 0.99,
        mem_load_pct=55.0,
        swap_load_pct=26.0,
        disk_total_b=74_500_000_000,
        disk_free_b=60_000_000_000,
        smart_cycles=100,
        smart_poh_h=640.0,
        net_sent_b=1234,
        net_recv_b=4321,
        has_session=session,
        username="user1" if session else "",
        session_start=t - 600.0 if session else float("nan"),
    )
    kwargs.update(overrides)
    return Sample(**kwargs)


class TestSampleValidation:
    def test_valid_sample(self):
        s = make_sample()
        assert s.disk_used_b == 14_500_000_000

    def test_negative_uptime_rejected(self):
        with pytest.raises(ValueError):
            make_sample(uptime_s=-1.0)

    def test_idle_beyond_uptime_rejected(self):
        with pytest.raises(ValueError):
            make_sample(cpu_idle_s=1000.0, uptime_s=900.0)

    def test_session_flag_username_consistency(self):
        with pytest.raises(ValueError):
            make_sample(session=False, username="ghost")
        with pytest.raises(ValueError):
            make_sample(session=True, username="")

    def test_session_needs_start(self):
        with pytest.raises(ValueError):
            make_sample(session=True, session_start=float("nan"))

    def test_session_age(self):
        s = make_sample(session=True)
        assert s.session_age() == pytest.approx(600.0)
        assert math.isnan(make_sample().session_age())


class TestStore:
    def test_add_and_len(self):
        store = TraceStore()
        store.add(make_sample(0))
        store.extend([make_sample(1), make_sample(2)])
        assert len(store) == 3

    def test_sample_roundtrip_through_columns(self):
        store = TraceStore()
        original = make_sample(5, session=True)
        store.add(original)
        assert store.sample_at(0) == original

    def test_samples_iterator(self):
        store = TraceStore()
        for i in range(4):
            store.add(make_sample(i))
        assert [s.machine_id for s in store.samples()] == [0, 1, 2, 3]

    def test_unknown_column_rejected(self):
        with pytest.raises(TraceFormatError):
            TraceStore().column("nope")


class TestCsvRoundtrip:
    def test_roundtrip_exact(self, tmp_path):
        store = TraceStore()
        store.add(make_sample(0))
        store.add(make_sample(1, t=1800.0, session=True))
        path = tmp_path / "trace.csv"
        store.write_csv(path)
        back = TraceStore.read_csv(path)
        assert len(back) == 2
        for i in range(2):
            assert samples_equal(back.sample_at(i), store.sample_at(i))

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(TraceFormatError):
            TraceStore.read_csv(path)

    def test_bad_row_width_rejected(self, tmp_path):
        store = TraceStore()
        store.add(make_sample(0))
        path = tmp_path / "trace.csv"
        store.write_csv(path)
        with open(path, "a") as fh:
            fh.write("1,2,3\n")
        with pytest.raises(TraceCorruptionError):
            TraceStore.read_csv(path)

    def test_unparseable_row_is_corruption(self, tmp_path):
        store = TraceStore()
        store.add(make_sample(0))
        path = tmp_path / "trace.csv"
        store.write_csv(path)
        text = path.read_text().splitlines()
        # right width, garbage content (bit rot in a numeric field)
        text.append(text[-1].replace("0,", "xx,", 1))
        path.write_text("\n".join(text) + "\n")
        with pytest.raises(TraceCorruptionError):
            TraceStore.read_csv(path)

    def test_corruption_is_typed_format_error(self):
        # callers catching the broader classes keep working
        assert issubclass(TraceCorruptionError, TraceFormatError)
        assert issubclass(TraceCorruptionError, TraceError)

    @pytest.mark.parametrize("value", ["2", "-1", "10"])
    def test_has_session_outside_0_1_is_corruption(self, tmp_path, value):
        """Any other integer used to fold silently into 1 on read."""
        store = TraceStore()
        store.add(make_sample(0))
        path = tmp_path / "trace.csv"
        store.write_csv(path)
        header, row = path.read_bytes().decode().splitlines()
        fields = row.split(",")
        fields[16] = value
        path.write_bytes(f"{header}\r\n{','.join(fields)}\r\n".encode())
        with pytest.raises(TraceCorruptionError, match="has_session"):
            TraceStore.read_csv(path)

    def test_errors_name_the_line(self, tmp_path):
        store = TraceStore()
        for i in range(3):
            store.add(make_sample(i))
        path = tmp_path / "trace.csv"
        store.write_csv(path)
        lines = path.read_bytes().decode().splitlines(keepends=True)
        fields = lines[3].split(",")  # the third data row
        fields[3] = "x"  # its iteration
        lines[3] = ",".join(fields)
        path.write_bytes("".join(lines).encode())
        with pytest.raises(TraceCorruptionError, match=r"trace\.csv:4: bad iteration"):
            TraceStore.read_csv(path)
        lines[3] = "1,2,3\r\n"
        path.write_bytes("".join(lines).encode())
        with pytest.raises(TraceCorruptionError, match=r"trace\.csv:4: .*width"):
            TraceStore.read_csv(path)

    def test_read_back_strings_are_interned(self, small_result, tmp_path):
        """One str object per distinct hostname, lab and username."""
        path = tmp_path / "trace.csv"
        small_result.store.write_csv(path)
        back = TraceStore.read_csv(path)
        assert len({id(s) for s in back.column("lab")}) <= len(TABLE1_LABS)
        for name in ("hostname", "username"):
            col = back.column(name)
            assert len({id(s) for s in col}) == len(set(col))
        again = tmp_path / "again.csv"
        back.write_csv(again)
        assert again.read_bytes() == path.read_bytes()


class TestJsonlRoundtrip:
    def test_roundtrip_exact(self, tmp_path):
        store = TraceStore()
        store.add(make_sample(0))
        store.add(make_sample(1, session=True))
        path = tmp_path / "trace.jsonl"
        store.write_jsonl(path)
        back = TraceStore.read_jsonl(path)
        for i in range(2):
            assert samples_equal(back.sample_at(i), store.sample_at(i))

    def test_bad_json_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("{not json}\n")
        with pytest.raises(TraceCorruptionError):
            TraceStore.read_jsonl(path)

    def test_invalid_sample_fields_are_corruption(self, tmp_path):
        store = TraceStore()
        store.add(make_sample(0))
        path = tmp_path / "trace.jsonl"
        store.write_jsonl(path)
        tampered = path.read_text().replace('"uptime_s": 900.0',
                                            '"uptime_s": -900.0')
        assert tampered != path.read_text()
        path.write_text(tampered)
        with pytest.raises(TraceCorruptionError):
            TraceStore.read_jsonl(path)

    def test_blank_lines_skipped(self, tmp_path):
        store = TraceStore()
        store.add(make_sample(0))
        path = tmp_path / "trace.jsonl"
        store.write_jsonl(path)
        content = path.read_text()
        path.write_text("\n" + content + "\n\n")
        assert len(TraceStore.read_jsonl(path)) == 1


class TestMeta:
    def test_response_rate(self):
        meta = TraceMeta(n_machines=169, sample_period=900.0, horizon=86400.0,
                         attempts=1000, timeouts=498)
        assert meta.response_rate == pytest.approx(0.502)

    def test_response_rate_no_attempts_nan(self):
        meta = TraceMeta(n_machines=1, sample_period=900.0, horizon=1.0)
        assert math.isnan(meta.response_rate)

    def test_statics_helpers(self):
        meta = TraceMeta(n_machines=2, sample_period=900.0, horizon=1.0)
        info = StaticInfo(
            machine_id=1, hostname="h", lab="L01", cpu_name="c", cpu_mhz=1.0,
            os_name="o", ram_mb=512, swap_mb=768, disk_serial="s",
            disk_total_b=1, mac="m", nbench_int=30.0, nbench_fp=20.0,
        )
        meta.statics[1] = info
        assert meta.machine_ids() == [1]
        assert meta.static_for(1).perf_index == 25.0
        assert meta.static_for(0) is None
