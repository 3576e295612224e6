"""Deterministic cost counts of the package: opcodes, C calls and traced memory, as JSON.

    python3 tools/opcount.py [--src PATH]

Wall time on a shared host drifts and spreads too widely to resolve small
changes; these counts are the same on every run of one interpreter, so two
revisions compare by running this tool on each one's ``src`` (``--src``,
default this checkout's).  Counts differ between Python versions, so
compare only counts taken with the same interpreter, which the output names.

Method:

* ``opcodes_per_step``: interpreted opcodes that ``simulate`` executes per
  RK4 step, counted with ``sys.settrace`` and ``frame.f_trace_opcodes``.
  ``c_calls_per_step``: calls into C functions per step, counted as
  ``c_call`` events of ``sys.setprofile``.  Each is the count of a 600-step
  run minus that of a 300-step run of the same scenario, over 300, so the
  costs paid once per run cancel.  numpy is imported and one short run is
  made untraced first, so no import is counted.
* ``kernel_opcodes_per_step``: the share of ``opcodes_per_step`` executed in
  frames of the kernel ``step``, the code object of the function that
  ``engine._plant(config, dt)`` returns; the rest is ``simulate``'s loop and
  recording.
* These three count the generated Python kernel: where a revision has the C
  kernel (``cascade_droop._native``), its loader ``_native.kernel`` is
  replaced by one that picks the Python kernel while they are counted.
  ``c_kernel_opcodes_per_step`` counts the same runs on the C kernel, one
  call per schedule stretch: the opcodes ``simulate`` still interprets per
  step (None where the C kernel does not build, or the revision has none).
* Two scenarios, both grid-tied and without events: case 1's config and
  start (n = 4, decimation 10) and a string of n = 48 at decimation 1.
* ``report_stability.opcodes_per_row``: opcodes per sweep row of
  ``report_stability`` over an angle sweep of case 1's config, the count of
  a 201-row sweep minus that of a 101-row sweep of the same range, over 100.
* ``emit_trace_csv.opcodes_per_row``: opcodes per row that ``emit_trace_csv``
  writes of the n = 48 scenario's trace, the count of a 512-row trace minus
  that of a 256-row trace, over 256.  Both traces come from ``simulate``, so
  the count reads the trace however a revision stores it.
* ``emit_trace_csv.peak_kib``: the peak of the memory that ``tracemalloc``
  traces while ``emit_trace_csv`` writes 300 rows of a fixed table at
  n = 48 and at n = 1,024, in KiB: the writer's temporary memory, since
  the trace exists before the call.
* ``stability.peak_kib``: the same peak for ``cli.main(["stability", ...])``
  on case 1's scenario with an angle sweep of 10,001 and of 100,001 rows,
  into a stdout that discards what it gets; equal peaks show memory that
  does not grow with the row count.  Each peak follows one untraced call.
  The CSV peaks repeat exactly; the stability peaks varied by up to
  0.5 KiB over five runs of one interpreter (cause not found).
* ``scenario.opcodes_per_build``: opcodes of building the n = 48 scenario
  with two events, a ``phi_star`` step at 0.25 s and a switch to islanded at
  0.5 s: the checks a ``Scenario`` makes when it is built, its schedule
  and, where a revision has one, its guard on each grid config's slow mode.
* ``import_opcodes``: opcodes of ``import cascade_droop.cli`` in a fresh
  interpreter (``python -c``), after a first fresh import has written the
  bytecode caches it can.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import platform
import subprocess
import sys
import tempfile
import tracemalloc
from dataclasses import replace
from functools import partial
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
STEPS = (300, 600)
SWEEP_STEPS = (0.06, 0.03)  # angle steps over [-3, 3]: 101 and 201 rows
CSV_ROWS = (256, 512)
PEAK_CSV = (300, (48, 1024))  # rows, and the module counts of the traced writes
PEAK_SWEEPS = {"rows_10001": "-5:5:0.001", "rows_100001": "-5:5:0.0001"}  # angle sweeps

# Counts opcodes from here to the end of the import; printed on the last line.
_IMPORT_SCRIPT = """\
import sys
sys.path.insert(0, {src!r})
count = 0
def local(frame, event, arg):
    global count
    if event == "opcode":
        count += 1
    return local
def start(frame, event, arg):
    frame.f_trace_opcodes = True
    return local
sys.settrace(start)
import cascade_droop.cli
sys.settrace(None)
print(count)
"""


def count_opcodes(fn, code=None) -> int:
    """Opcodes that ``fn()`` executes; with ``code``, only those in frames of that code object."""
    count = 0

    def local(frame, event, arg):
        nonlocal count
        if event == "opcode":
            count += 1
        return local

    def start(frame, event, arg):
        if code is not None and frame.f_code is not code:
            return None
        frame.f_trace_opcodes = True
        return local

    sys.settrace(start)
    try:
        fn()
    finally:
        sys.settrace(None)
    return count


def count_c_calls(fn) -> int:
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        if event == "c_call":
            count += 1

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return count


def scenarios() -> dict:
    """The counted scenarios, built from names every revision of the package has."""
    from cascade_droop import DroopParams, Impedance, Mode, Scenario, SystemConfig
    from cascade_droop.cases import build_case

    n = 48
    wide = Scenario(
        config=SystemConfig(
            n=n,
            droop=DroopParams(50.0, 0.6 * 315.0 / n, 0.7, 5.0, (49.0, 51.0)),
            grid_voltage=315.0,
            grid_angle=0.2,
            line=Impedance(0.35, 0.9),
            load=Impedance.from_rect(12.0, 3.0),
            mode=Mode.GRID_CONNECTED,
        ),
        initial_deltas=tuple(0.3 * ((7 * i) % n) / n - 0.15 for i in range(n)),
        duration=1.0,
        record_decimation=1,
    )
    return {"n4_decimation10": replace(build_case(1)[0], events=()), "n48_decimation1": wide}


def per_step(counter, simulate, scenario) -> float:
    short, long = (replace(scenario, duration=steps * scenario.dt) for steps in STEPS)
    return (counter(lambda: simulate(long)) - counter(lambda: simulate(short))) / (
        STEPS[1] - STEPS[0])


def per_sweep_row(config) -> float:
    from cascade_droop import SweepAxis, report_stability

    sweeps = [(SweepAxis(-3.0, 3.0, step), None) for step in SWEEP_STEPS]
    rows = [len(sweep[0].points()) for sweep in sweeps]
    report_stability(config, sweep=sweeps[0])  # untraced warm-up
    counts = [count_opcodes(lambda: report_stability(config, sweep=sweep)) for sweep in sweeps]
    return (counts[1] - counts[0]) / (rows[1] - rows[0])


def per_csv_row(scenario) -> float:
    from cascade_droop import emit_trace_csv, simulate

    traces = [simulate(replace(scenario, duration=(rows - 1) * scenario.dt)).trace
              for rows in CSV_ROWS]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.csv"
        emit_trace_csv(traces[0], path)  # untraced warm-up
        counts = [count_opcodes(lambda: emit_trace_csv(trace, path)) for trace in traces]
    return (counts[1] - counts[0]) / (CSV_ROWS[1] - CSV_ROWS[0])


def peak_kib(fn) -> float:
    """Peak KiB that ``tracemalloc`` traces while ``fn()`` runs, after one untraced call."""
    fn()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 1024
    finally:
        tracemalloc.stop()


def csv_peaks() -> dict:
    import numpy as np

    from cascade_droop import Trace, emit_trace_csv

    rows, counts = PEAK_CSV
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for n in counts:
            table = np.sin(np.arange(rows * (1 + 4 * n), dtype=float)).reshape(rows, 1 + 4 * n)
            table[:, 0] = np.arange(rows) * 1e-3
            trace = Trace(table)
            out[f"n{n}"] = peak_kib(lambda: emit_trace_csv(trace, Path(tmp) / "trace.csv"))
    return out


class _Discard(io.TextIOBase):
    def write(self, text):
        return len(text)


def stability_peaks(scenario) -> dict:
    from cascade_droop import cli, serialize_scenario

    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "case1.scn"
        path.write_text(serialize_scenario(scenario), encoding="utf-8")
        stdout, sys.stdout = sys.stdout, _Discard()
        try:
            for name, sweep in PEAK_SWEEPS.items():
                argv = ["stability", str(path), "--sweep", f"angle={sweep}"]
                out[name] = peak_kib(lambda: cli.main(argv))
        finally:
            sys.stdout = stdout
    return out


def per_build(scenario) -> int:
    from cascade_droop import Mode, SetMode, SetPfRef, TimedEvent

    events = (TimedEvent(0.25, SetPfRef(-0.3)), TimedEvent(0.5, SetMode(Mode.ISLANDED)))
    build = partial(replace, scenario, events=events)
    build()  # untraced warm-up
    return count_opcodes(build)


def import_opcodes(src: Path) -> int:
    script = _IMPORT_SCRIPT.format(src=str(src))
    counts = []
    for _ in range(2):  # the first run writes the bytecode caches it can
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              check=True)
        counts.append(int(proc.stdout.split()[-1]))
    return counts[-1]


@contextlib.contextmanager
def python_kernel():
    """Every ``simulate`` on the generated Python kernel, where a revision has a C kernel."""
    try:
        from cascade_droop import _native
    except ImportError:  # a revision with the Python kernel only
        yield
        return
    loader = _native.kernel
    _native.kernel = lambda module_steps: None
    try:
        yield
    finally:
        _native.kernel = loader


def c_kernel_per_step(simulate, scenario) -> float | None:
    """``opcodes_per_step`` on the C kernel, or None where there is none."""
    try:
        from cascade_droop import _native
    except ImportError:
        return None
    if _native.kernel(_native.MODULE_STEPS) is None:
        return None
    simulate(replace(scenario, duration=10 * scenario.dt))  # untraced warm-up
    return per_step(count_opcodes, simulate, scenario)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="directory holding the cascade_droop package to count")
    args = parser.parse_args(argv)
    src = args.src.resolve()
    sys.path.insert(0, str(src))

    import numpy  # noqa: F401  (imported before any count)

    from cascade_droop import engine, simulate

    built = scenarios()
    out = {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "simulate": {},
    }
    for name, scenario in built.items():
        with python_kernel():
            simulate(replace(scenario, duration=10 * scenario.dt))  # untraced warm-up
            kernel_code = engine._plant(scenario.config, scenario.dt).__code__
            out["simulate"][name] = {
                "opcodes_per_step": per_step(count_opcodes, simulate, scenario),
                "c_calls_per_step": per_step(count_c_calls, simulate, scenario),
                "kernel_opcodes_per_step": per_step(partial(count_opcodes, code=kernel_code),
                                                    simulate, scenario),
            }
        out["simulate"][name]["c_kernel_opcodes_per_step"] = c_kernel_per_step(simulate, scenario)
    out["report_stability"] = {"opcodes_per_row": per_sweep_row(built["n4_decimation10"].config)}
    out["emit_trace_csv"] = {"opcodes_per_row": per_csv_row(built["n48_decimation1"]),
                             "peak_kib": csv_peaks()}
    out["stability"] = {"peak_kib": stability_peaks(built["n4_decimation10"])}
    out["scenario"] = {"opcodes_per_build": per_build(built["n48_decimation1"])}
    out["import_opcodes"] = import_opcodes(src)
    print(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
