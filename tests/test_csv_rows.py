"""The C row formatter: CPython's ``%.9g`` bytes over its exact range, and declined elsewhere."""

import ctypes
import errno
import io
import logging
import math
import os
import struct
import tempfile
import threading
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cascade_droop import Trace, _native, emit_trace_csv, reports, simulate
from test_reports_cli import _oracle_csv


@pytest.fixture(scope="module")
def formatter():
    """A row formatter built here without the self-check, so a wrong value shows as itself."""
    if _native.compiler() is None:
        pytest.skip("no C compiler on PATH")
    return _native._build()[1]


def _accepted(x: float) -> bool:
    """The exact range: +-0 and 2^-79 <= |x| < 2^120 (no subnormal, infinity or nan)."""
    return x == 0.0 or 2.0 ** -79 <= abs(x) < 2.0 ** 120


def _printed(rows, x: float) -> str | None:
    """``x`` as the C formatter prints it alone in a row, or None where it declines it."""
    value = ctypes.c_double(x)
    text = ctypes.create_string_buffer(_native.VALUE_BYTES)
    row = ctypes.c_int64(0)
    size = rows(ctypes.addressof(value), 1, ctypes.byref(row), 1, text)
    if row.value == 0:
        assert size == 0
        return None
    assert text.raw[size - 1:size] == b"\n"
    return text.raw[:size - 1].decode()


def _from_bits(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


# raw patterns, most of them outside the range; patterns with an exponent next to the range;
# and 10-digit ties (a 5 in the tenth digit) times 10^j, all exact in binary
_VALUES = (
    st.integers(0, 2 ** 64 - 1).map(_from_bits)
    | st.builds(lambda sign, exponent, fraction: _from_bits(sign << 63 | exponent << 52 | fraction),
                st.integers(0, 1), st.integers(1023 - 82, 1023 + 122), st.integers(0, 2 ** 52 - 1))
    | st.builds(lambda digits, j: float((10 * digits + 5) * 10 ** j),
                st.integers(10 ** 8, 10 ** 9 - 1), st.integers(0, 5))
)


@settings(max_examples=300, deadline=None)
@given(values=st.lists(_VALUES, min_size=1, max_size=50))
def test_c_rows_print_every_accepted_value_as_cpython_and_decline_the_rest(formatter, values):
    for x in values:
        assert _printed(formatter, x) == (format(x, ".9g") if _accepted(x) else None), x.hex()


def test_c_rows_on_the_edge_list(formatter):
    edges = _native._csv_edges()
    assert [x for x in edges if _printed(formatter, x) != (
        format(x, ".9g") if _accepted(x) else None)] == []
    # the list holds both ends of the range, ties, the carry, and each class of declined value
    for accepted in (2.0 ** -79, math.nextafter(2.0 ** 120, 0.0), -0.0, 1234567885.0,
                     1234567895.0, 999_999_999.5):
        assert accepted in edges and _printed(formatter, accepted) == format(accepted, ".9g")
    assert [_printed(formatter, x) for x in (1234567885.0, 1234567895.0, 999_999_999.5)] == [
        "1.23456788e+09", "1.2345679e+09", "1e+09"]  # ties to even, and the carry
    for declined in (math.nextafter(2.0 ** -79, 0.0), 2.0 ** 120, 2.2250738585072014e-308,
                     5e-324, math.inf):
        assert declined in edges and _printed(formatter, declined) is None
    assert _printed(formatter, math.nan) is None




def test_c_rows_round_ties_below_1e9_half_to_even(formatter):
    # x = odd / 2^(q + 1) in [10^(8 - q), 10^(9 - q)) is a 10-digit tie: x 10^q ends in .5;
    # such ties exist for q = 0..13, where the digits come from 64-bit arithmetic
    ties = []
    for q in range(14):
        step, low = Fraction(1, 2 ** (q + 1)), Fraction(10) ** (8 - q)
        first = math.ceil(low / step) | 1
        ties += [float(odd * step) for odd in (first, first + 2, first + 4, 3 * first)
                 if odd * step < 10 * low]
    assert len(ties) == 53
    values = [y for x in ties for y in (x, -x, math.nextafter(x, 0.0), math.nextafter(x, math.inf))]
    assert [x for x in values if _printed(formatter, x) != format(x, ".9g")] == []

# the longest value of each %g style: exponent, fixed below 1, and fixed with the point after
# each of the 1..9 integer digits
_LONGEST = [-1.23456789e+36, -1.23456789e-23, -0.000123456789,
            *(-float(f"123456789e{j}") for j in range(-8, 1))]


def _guarded(rows, table):
    """``table`` printed by ``rows`` into exactly VALUE_BYTES per value, then 32 canary bytes."""
    size = _native.VALUE_BYTES * table.size
    text = (ctypes.c_char * (size + 32)).from_buffer_copy(b"\xa5" * (size + 32))
    row = ctypes.c_int64(0)
    written = rows(table.ctypes.data, table.shape[1], ctypes.byref(row), table.shape[0], text)
    assert row.value == table.shape[0] and text.raw[size:] == b"\xa5" * 32
    return text.raw[:written]


def test_c_rows_write_no_byte_past_value_bytes_per_value(formatter):
    # the digits go out in fixed-width copies: after two values of 16 bytes, each longest
    # value starts 16 bytes before the buffer's end, and no byte past that end may change
    for x in _LONGEST:
        table = np.array([[_LONGEST[0], _LONGEST[0], x]])
        assert _guarded(formatter, table) == ",".join(
            format(v, ".9g") for v in table[0]).encode() + b"\n", x
    table = np.array([_LONGEST] * 3)
    assert _guarded(formatter, table) == b"".join(
        ",".join(format(v, ".9g") for v in values).encode() + b"\n" for values in table)

def test_c_rows_stop_before_a_declined_row_and_the_template_prints_it(tmp_path, formatter):
    table = simulate(_native._probe()).trace.table.copy()
    table[3, 5] = math.inf
    table[4, 7] = 5e-324
    odd = Trace(table)
    assert emit_trace_csv(odd, tmp_path / "odd.csv").read_bytes() == _oracle_csv(odd)
    # a table the formatter cannot read as it is goes to the template whole
    for other in (np.asfortranarray(table), table.astype(np.float32)):
        assert emit_trace_csv(Trace(other), tmp_path / "other.csv").read_bytes() == _oracle_csv(
            Trace(other))


def test_a_formatter_mismatch_falls_back_with_one_warning_and_the_same_bytes(
        monkeypatch, tmp_path, caplog, formatter):
    stretch = _native.kernel(_native.MODULE_STEPS)

    def corrupt(base, width, at, stop, text):  # the C rows with their first byte changed
        size = formatter(base, width, at, stop, text)
        if size:
            text[0] = b"8" if text[0] == b"9" else b"9"
        return size

    monkeypatch.setattr(_native, "_kernel", None)
    monkeypatch.setattr(_native, "_build", lambda: (stretch, corrupt))
    trace = simulate(_native._probe()).trace
    with caplog.at_level(logging.DEBUG, logger="cascade_droop"):
        assert _native.kernel(_native.MODULE_STEPS) is None
        assert _native.csv_rows() is None
        data = emit_trace_csv(trace, tmp_path / "probe.csv").read_bytes()
    warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
    assert len(warnings) == 1
    assert "the C kernel is not used (self-check mismatch: the C rows" in warnings[0]
    assert data == _oracle_csv(trace)


def test_without_128_bit_integers_every_value_is_declined_and_the_kernel_loads(
        monkeypatch, tmp_path, formatter):
    # a build where the compiler defines no __SIZEOF_INT128__
    monkeypatch.setattr(_native, "FLAGS", (*_native.FLAGS, "-U__SIZEOF_INT128__"))
    monkeypatch.setattr(_native, "_kernel", None)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    assert _native.kernel(_native.MODULE_STEPS) is not None
    rows = _native.csv_rows()
    assert rows is not None and rows is not formatter
    assert {_printed(rows, x) for x in [1.0, 0.0, *_native._csv_edges()]} == {None}
    trace = simulate(_native._probe()).trace
    assert emit_trace_csv(trace, tmp_path / "probe.csv").read_bytes() == _oracle_csv(trace)


# 5.5 chunks of n = 2; declined values at the first and last rows of chunks 0 and 1 (this
# thread's and the helper's) and inside the chunks after them
_CHUNK = reports._CSV_CHUNK_VALUES // 9
_DECLINED = {0: math.inf, _CHUNK - 1: -math.inf, _CHUNK: math.nan, 2 * _CHUNK - 1: 5e-324,
             2 * _CHUNK + 5: 2.0 ** 120, 3 * _CHUNK + 1: -math.inf, 5 * _CHUNK: math.nan}


def _sines(rows: int):
    table = np.sin(np.arange(rows * 9, dtype=float)).reshape(rows, 9) * 1e3
    table[:, 0] = np.arange(rows) * 1e-3
    return table


def _chunked_trace(chunks: float) -> Trace:
    rows = int(chunks * _CHUNK)
    table = _sines(rows)
    for row, value in _DECLINED.items():
        if row < rows:
            table[row, 1 + row % 8] = value
    return Trace(table)


def _affinity(monkeypatch, cpus: int) -> None:
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)


@pytest.mark.parametrize("cpus", [2, 1])
def test_the_threaded_writer_prints_the_oracle_bytes(monkeypatch, tmp_path, formatter, cpus):
    _affinity(monkeypatch, cpus)
    buffers, declined_by = set(), {}  # (thread, buffer) pairs; declined row: its thread

    def recording(base, width, at, stop, text):
        assert isinstance(text, ctypes.Array)  # the buffer itself, not an offset into it
        size = formatter(base, width, at, stop, text)
        buffers.add((threading.get_ident(), id(text)))
        if at._obj.value < stop:
            declined_by[at._obj.value] = threading.get_ident()
        return size

    started = []
    start = threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start", lambda self: (started.append(self), start(self)))
    monkeypatch.setattr(_native, "csv_rows", lambda: recording)
    trace = _chunked_trace(5.5)
    assert emit_trace_csv(trace, tmp_path / "t.csv").read_bytes() == _oracle_csv(trace)
    assert len(started) == (cpus > 1)
    # each thread formats into a buffer of its own and meets the declined rows of its chunks,
    # which it then prints with the template
    assert len(buffers) == len({t for t, _ in buffers}) == len({b for _, b in buffers}) == cpus
    assert declined_by.keys() == _DECLINED.keys()
    caller = threading.get_ident()
    for row, thread in declined_by.items():
        assert (thread != caller) == (cpus > 1 and row // _CHUNK % 2 == 1), row


@pytest.mark.parametrize("cpus, chunks, others", [(1, 5.5, 0), (2, 1, 0), (2, 5.5, 1)],
                         ids=["one-cpu", "one-chunk", "beside-a-thread"])
def test_the_writer_starts_no_thread_where_none_is_needed(monkeypatch, tmp_path, formatter, cpus,
                                                          chunks, others):
    # beside a thread that runs on, as another share of case all does, no CPU is left over
    _affinity(monkeypatch, cpus)
    release = threading.Event()
    running = [threading.Thread(target=release.wait) for _ in range(others)]
    for thread in running:
        thread.start()

    def no_thread(*_args, **_kwargs):
        raise AssertionError("a writer thread started")

    try:
        monkeypatch.setattr(threading.Thread, "start", no_thread)
        monkeypatch.setattr(_native, "csv_rows", lambda: formatter)
        trace = _chunked_trace(chunks)
        assert emit_trace_csv(trace, tmp_path / "t.csv").read_bytes() == _oracle_csv(trace)
    finally:
        release.set()
        for thread in running:
            thread.join(timeout=10)
    assert not any(thread.is_alive() for thread in running)


class _FullDisk(io.RawIOBase):
    """A binary file whose write number ``failing`` raises ENOSPC."""

    def __init__(self, failing: int):
        self.writes, self.failing = 0, failing

    def writable(self):
        return True

    def write(self, data):
        self.writes += 1
        if self.writes == self.failing:
            raise OSError(errno.ENOSPC, "No space left on device")
        return len(data)


@pytest.mark.parametrize("cpus", [2, 1])
@pytest.mark.parametrize("failing", ["write-2", "write-3", "formatter"])
def test_a_writer_failure_reaches_the_caller_and_leaves_no_thread(monkeypatch, formatter, cpus,
                                                                  failing):
    # without declined values, each chunk is one write: on two CPUs the second is chunk 1, the
    # helper's, and the third is chunk 2, this thread's, while the helper formats chunk 3
    _affinity(monkeypatch, cpus)
    rows, expected = formatter, (OSError, "[Errno 28] No space left on device")
    if failing == "formatter":  # chunk 3 is the helper's on two CPUs
        out, expected = io.BytesIO(), (RuntimeError, f"no rows from {3 * _CHUNK}")

        def rows(base, width, at, stop, text):
            if 3 * _CHUNK <= at._obj.value < 4 * _CHUNK:
                raise RuntimeError(f"no rows from {at._obj.value}")
            return formatter(base, width, at, stop, text)
    else:
        out = _FullDisk(int(failing[-1]))

    before = threading.active_count()
    with pytest.raises(expected[0]) as raised:
        reports._write_rows(_sines(int(5.5 * _CHUNK)), out, rows)
    assert (type(raised.value), str(raised.value)) == expected
    assert threading.active_count() == before
