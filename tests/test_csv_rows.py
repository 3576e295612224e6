"""The C row formatter: CPython's ``%.9g`` bytes over its exact range, and declined elsewhere."""

import ctypes
import logging
import math
import struct
import tempfile
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cascade_droop import Trace, _native, emit_trace_csv, simulate
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
