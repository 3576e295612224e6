"""Serialization of traces and stability reports.

Both outputs are byte-deterministic for identical inputs: numbers are
printed with 9 significant digits (below solver tolerance, above the noise
a diff would amplify), rows are newline-terminated, and nothing
time-of-day-dependent is ever written.  Neither imports numpy: a trace
table already holds its rows in the CSV's column order, and stability
reports are plain ``math``.  Neither holds memory that grows with its
output: the CSV is formatted and written a fixed budget of values at a
time, and ``stability_lines`` yields a report one line at a time, after
every check, for the CLI to stream; ``report_stability`` joins those lines.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field
from pathlib import Path

from .engine import SystemConfig, Trace
from .errors import DegeneratePointError, EmptyTraceError, ValidationError
from .linearization import slow_mode


def _num(x: float) -> str:
    return format(x, ".9g")


# Values formatted per CSV write: a chunk holds max(1, _CSV_CHUNK_VALUES // (1 + 4n))
# rows, so its text stays about the same size at any n.  4,352 = 256 rows at n = 4.
_CSV_CHUNK_VALUES = 4352

# Most rows one stability report may tabulate (about 75 MB of text).
_MAX_SWEEP_ROWS = 1_000_000


def emit_trace_csv(trace: Trace, path) -> Path:
    """Write a trace as CSV: ``time,f1..fn,P1..Pn,Q1..Qn,phi1..phin``.

    Each row is one ``%.9g`` template; ``'%.9g' % x`` and ``_num(x)`` share
    CPython's float formatter, so every value prints as ``_num`` prints it.
    ``trace.table`` is already in this column order; it is read one chunk of
    about ``_CSV_CHUNK_VALUES`` values at a time, so the text held at once
    does not grow with the row count or with n.
    """
    if len(trace) == 0:
        raise EmptyTraceError("refusing to write an empty trace")
    n = trace.module_count
    header = (
        "time,"
        + ",".join(f"f{i}" for i in range(1, n + 1)) + ","
        + ",".join(f"P{i}" for i in range(1, n + 1)) + ","
        + ",".join(f"Q{i}" for i in range(1, n + 1)) + ","
        + ",".join(f"phi{i}" for i in range(1, n + 1))
    )
    row = ",".join(["%.9g"] * (1 + 4 * n)) + "\n"
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="\n") as out:
        out.write(header + "\n")
        rows = max(1, _CSV_CHUNK_VALUES // (1 + 4 * n))
        for a in range(0, len(trace), rows):
            chunk = trace.table[a:a + rows].tolist()
            out.write("".join([row % tuple(values) for values in chunk]))
    return path


@dataclass(frozen=True)
class SweepAxis:
    """A closed numeric range ``lo:hi:step`` for stability sweeps, of at most a million points."""

    lo: float
    hi: float
    step: float
    count: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValidationError(f"sweep range [{self.lo}, {self.hi}] must be finite")
        if not (math.isfinite(self.step) and self.step > 0.0):
            raise ValidationError(f"sweep step must be > 0, got {self.step}")
        if self.hi < self.lo:
            raise ValidationError(f"sweep range [{self.lo}, {self.hi}] is empty")
        spans = (self.hi - self.lo) / self.step
        if not math.isfinite(spans):
            raise ValidationError(
                f"sweep {self.lo}:{self.hi}:{self.step} has no finite number of points"
            )
        count = math.floor(spans + 1e-9) + 1
        _check_rows(count)
        object.__setattr__(self, "count", count)

    def __len__(self) -> int:
        return self.count

    def __iter__(self) -> Iterator[float]:
        return (self.lo + k * self.step for k in range(self.count))

    def points(self) -> list[float]:
        return list(self)

    @classmethod
    def parse(cls, text: str) -> "SweepAxis":
        parts = text.split(":")
        if len(parts) != 3:
            raise ValidationError(f"sweep axis must be 'lo:hi:step', got {text!r}")
        try:
            lo, hi, step = (float(p) for p in parts)
        except ValueError:
            raise ValidationError(f"sweep axis has a non-numeric bound: {text!r}") from None
        return cls(lo, hi, step)


def _check_rows(rows: int) -> None:
    if rows > _MAX_SWEEP_ROWS:
        raise ValidationError(
            f"sweep has {float(rows):.6g} rows; a report holds at most {_MAX_SWEEP_ROWS:,}"
        )


def _verdict_row(n: int, v_star: float, v_g: float, m: float, angle: float) -> str:
    try:
        lam1, verdict = slow_mode(n, v_star, v_g, m, angle)
    except DegeneratePointError:
        return "degenerate"
    except ValidationError:
        return "invalid"
    return f"lambda1={_num(lam1)} verdict={verdict.value}"


def report_stability(
    config: SystemConfig,
    sweep: tuple[SweepAxis | None, SweepAxis | None] | None = None,
    angle_diff: float = 0.0,
) -> str:
    """Plain-text stability report for the grid-connected linearization.

    The verdict depends only on the module count, the voltage sizing and
    the string-to-grid angle; the line impedance carried by ``config`` is
    accepted and deliberately absent from every row, so configurations that
    differ only in their line produce identical reports.

    With ``sweep`` given as (angle_axis, vstar_axis) the report tabulates
    the verdict over the grid of both axes (either may be None to keep the
    single configured value).  Degenerate points are marked, not fatal.
    The text is the lines of ``stability_lines``, each newline-terminated.
    """
    return "\n".join(stability_lines(config, sweep, angle_diff)) + "\n"


def stability_lines(
    config: SystemConfig,
    sweep: tuple[SweepAxis | None, SweepAxis | None] | None = None,
    angle_diff: float = 0.0,
) -> Iterator[str]:
    """The lines of ``report_stability``, without newlines, one row at a time.

    Every check runs before the first line is yielded, so a refused sweep
    raises before any of its report is written.  The sweep axes are read
    point by point, so the memory held does not grow with the row count.
    """
    d = config.droop
    n = config.n
    m = d.droop_gain
    if sweep is not None:
        angle_axis, vstar_axis = sweep
        angles = angle_axis if angle_axis is not None else (angle_diff,)
        vstars = vstar_axis if vstar_axis is not None else (d.nominal_voltage,)
        rows = len(angles) * len(vstars)
        _check_rows(rows)
    yield "stability report (grid-connected linearization)"
    yield f"n={n} v_star={_num(d.nominal_voltage)} v_grid={_num(config.grid_voltage)} m={_num(m)}"
    yield f"fast modes: lambda_2..n = {_num(-m)} (multiplicity {n - 1})"
    if sweep is None:
        yield (f"point angle_diff={_num(angle_diff)}: "
               + _verdict_row(n, d.nominal_voltage, config.grid_voltage, m, angle_diff))
        return
    yield f"sweep rows: {rows}"
    for v_star in vstars:
        for angle in angles:
            yield (f"angle_diff={_num(angle)} v_star={_num(v_star)}: "
                   + _verdict_row(n, v_star, config.grid_voltage, m, angle))
