"""Deterministic cost counts of the package: interpreted opcodes and C calls, as JSON.

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
* Two scenarios, both grid-tied and without events: case 1's config and
  start (n = 4, decimation 10) and a string of n = 48 at decimation 1.
* ``import_opcodes``: opcodes of ``import cascade_droop.cli`` in a fresh
  interpreter (``python -c``), after a first fresh import has written the
  bytecode caches it can.
"""

from __future__ import annotations

import argparse
import json
import platform
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
STEPS = (300, 600)

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


def count_opcodes(fn) -> int:
    count = 0

    def local(frame, event, arg):
        nonlocal count
        if event == "opcode":
            count += 1
        return local

    def start(frame, event, arg):
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


def import_opcodes(src: Path) -> int:
    script = _IMPORT_SCRIPT.format(src=str(src))
    counts = []
    for _ in range(2):  # the first run writes the bytecode caches it can
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              check=True)
        counts.append(int(proc.stdout.split()[-1]))
    return counts[-1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="directory holding the cascade_droop package to count")
    args = parser.parse_args(argv)
    src = args.src.resolve()
    sys.path.insert(0, str(src))

    import numpy  # noqa: F401  (imported before any count)

    from cascade_droop import simulate

    built = scenarios()
    out = {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "simulate": {},
    }
    for name, scenario in built.items():
        simulate(replace(scenario, duration=10 * scenario.dt))  # untraced warm-up
        out["simulate"][name] = {
            "opcodes_per_step": per_step(count_opcodes, simulate, scenario),
            "c_calls_per_step": per_step(count_c_calls, simulate, scenario),
        }
    out["import_opcodes"] = import_opcodes(src)
    print(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
