"""Trace CSV emission, stability reports, and the command-line surface."""

import contextlib
import errno
import hashlib
import importlib
import io
import math
import multiprocessing
import os
import platform
import re
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from cascade_droop import (
    DroopParams,
    EmptyTraceError,
    Impedance,
    Mode,
    Scenario,
    SweepAxis,
    SystemConfig,
    Trace,
    emit_trace_csv,
    parse_scenario,
    report_stability,
    simulate,
)
from cascade_droop import _native, cases, cli, engine, reports, scenario_io
from cascade_droop.cases import _segments, build_case, run_case
from cascade_droop.engine import apply_event
from conftest import c_kernel, python_kernel

PI = math.pi
TAU = math.tau

SCENARIO_TEXT = """
[system]
n = 2
f_star = 50
v_star = 50
v_grid = 100
phi_star = 0.2
m = 0.5
mode = islanded

[line]
mag = 0.314
theta = 1.5707963267948966

[load]
r = 12

[initial]
delta = 0.2, -0.2

[solver]
duration = 2
"""


def small_trace(samples=3, modules=2):
    config = SystemConfig(
        n=modules,
        droop=DroopParams(50.0, 50.0, 0.2, 0.5, (49.0, 51.0)),
        grid_voltage=100.0,
        grid_angle=0.0,
        line=Impedance(0.314, PI / 2),
        load=Impedance.from_rect(12.0, 0.0),
        mode=Mode.ISLANDED,
    )
    scenario = Scenario(
        config=config,
        initial_deltas=tuple(0.05 * k for k in range(modules)),
        duration=(samples - 1) * 1e-2,
        dt=1e-2,
        record_decimation=1,
    )
    return simulate(scenario).trace


def test_csv_shape_and_rows(tmp_path):
    trace = small_trace(samples=3, modules=2)
    path = emit_trace_csv(trace, tmp_path / "t.csv")
    lines = path.read_text().splitlines()
    assert len(lines) == 4  # header + 3 samples
    assert lines[0] == "time,f1,f2,P1,P2,Q1,Q2,phi1,phi2"
    assert all(len(line.split(",")) == 9 for line in lines)


def test_csv_byte_deterministic(tmp_path):
    trace = small_trace()
    a = emit_trace_csv(trace, tmp_path / "a.csv").read_bytes()
    b = emit_trace_csv(trace, tmp_path / "b.csv").read_bytes()
    assert a == b


def _oracle_csv(trace) -> bytes:
    """The per-value writer the row template replaced, kept as the byte oracle."""
    def num(x):
        return format(x, ".9g")

    n = trace.module_count
    header = (
        "time,"
        + ",".join(f"f{i}" for i in range(1, n + 1)) + ","
        + ",".join(f"P{i}" for i in range(1, n + 1)) + ","
        + ",".join(f"Q{i}" for i in range(1, n + 1)) + ","
        + ",".join(f"phi{i}" for i in range(1, n + 1))
    )
    lines = [header]
    for k in range(len(trace)):
        row = [num(trace.times[k])]
        row += [num(v) for v in trace.frequency_hz[k]]
        row += [num(v) for v in trace.active[k]]
        row += [num(v) for v in trace.reactive[k]]
        row += [num(v) for v in trace.pf_angle[k]]
        lines.append(",".join(row))
    return ("\n".join(lines) + "\n").encode("utf-8")


_SPECIAL_VALUES = (
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310, math.inf, -math.inf,
    math.nan, 1e300, -1e300, 1.7976931348623157e308, 0.1, -123456789.0, 1.0000000005,
)


@st.composite
def _traces(draw):
    # n = 272, 363 and 544 are the narrowest strings whose chunks hold 3, 2 and 1 rows
    n = draw(st.integers(1, 3) | st.sampled_from([272, 363, 544]))
    chunk = max(1, reports._CSV_CHUNK_VALUES // (1 + 4 * n))
    rows = draw(st.sampled_from([1, 2, 3, chunk, chunk + 1]) | st.integers(1, 40))
    pool = draw(st.lists(st.floats(allow_nan=True, allow_infinity=True)
                         | st.sampled_from(_SPECIAL_VALUES), min_size=1, max_size=12))
    pool += list(_SPECIAL_VALUES)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    channels = [np.array(pool)[rng.integers(0, len(pool), (rows, n))] for _ in range(4)]
    t0 = draw(st.sampled_from([0.0, -0.0, 5e-324, -math.inf, -1e300])
              | st.floats(-1e6, 1e6))
    dt = draw(st.floats(1e-3, 1e3))
    times = np.concatenate(([t0], 1e6 + dt * np.arange(1, rows)))
    return Trace(np.column_stack([times, *channels]))


def _writers():
    """Loaders that pick each CSV writer: the template, and the C library's rows where it builds."""
    writers = {"template": python_kernel}
    if c_kernel(0) is not None:
        writers["c"] = c_kernel
    return writers


@settings(max_examples=60, deadline=None)
@given(trace=_traces())
def test_csv_matches_per_value_oracle(tmp_path_factory, trace):
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    for writer, loader in _writers().items():
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(_native, "kernel", loader)
            assert emit_trace_csv(trace, path).read_bytes() == _oracle_csv(trace), writer


def test_csv_chunk_rows_follow_the_value_budget():
    chunk = [max(1, reports._CSV_CHUNK_VALUES // (1 + 4 * n)) for n in (4, 271, 272, 363, 544)]
    assert chunk == [256, 4, 3, 2, 1]


def _traced_peak(fn) -> int:
    """Peak bytes that tracemalloc sees ``fn()`` allocate, after an untraced warm-up call."""
    fn()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_csv_writer_memory_does_not_grow_with_n(tmp_path):
    # 300 rows of n = 1,024: a 9.8 MB table, 11 MB of text; 256-row chunks peaked at 56 MB
    table = np.random.default_rng(1).standard_normal((300, 1 + 4 * 1024))
    table[:, 0] = np.arange(300) * 1e-3
    trace = Trace(table)
    for writer, loader in _writers().items():
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(_native, "kernel", loader)
            assert _traced_peak(lambda: emit_trace_csv(trace, tmp_path / "wide.csv")) < 2e6, writer
        assert (tmp_path / "wide.csv").read_bytes().count(b"\n") == 1 + 300


def test_csv_refuses_empty_trace(tmp_path):
    empty = Trace(np.empty((0, 1 + 4 * 2)))
    with pytest.raises(EmptyTraceError):
        emit_trace_csv(empty, tmp_path / "empty.csv")


def _grid_config(line):
    return SystemConfig(
        n=4,
        droop=DroopParams(50.0, 23.625, 0.2, 0.5, (49.0, 51.0)),
        grid_voltage=315.0,
        grid_angle=0.0,
        line=line,
        load=Impedance.from_rect(12.0, 0.0),
        mode=Mode.GRID_CONNECTED,
    )


def test_stability_report_line_independent():
    sweep = (SweepAxis(-PI, PI, PI / 6), None)
    texts = {
        report_stability(_grid_config(line), sweep=sweep)
        for line in (Impedance(0.314, PI / 2), Impedance(0.314, 0.0), Impedance(7.0, -1.2))
    }
    assert len(texts) == 1


def test_stability_report_point_and_sweep_content():
    report = report_stability(_grid_config(Impedance(0.314, PI / 2)), angle_diff=PI / 2)
    assert "verdict=stable" in report
    # matched sizing at zero angle: the exact zero-current point is marked degenerate
    config = SystemConfig(
        n=4,
        droop=DroopParams(50.0, 78.75, 0.2, 0.5, (49.0, 51.0)),
        grid_voltage=315.0,
        grid_angle=0.0,
        line=Impedance(0.314, PI / 2),
        load=Impedance.from_rect(12.0, 0.0),
        mode=Mode.GRID_CONNECTED,
    )
    assert "degenerate" in report_stability(config, angle_diff=0.0)
    # a sweep cell constructed to null the stability margin reads marginal
    dd = PI / 4
    v_null = 315.0 / (4 * math.cos(dd))
    sweep = (SweepAxis(dd, dd, 1.0), SweepAxis(v_null, v_null, 1.0))
    assert "verdict=marginal" in report_stability(config, sweep=sweep)


def test_sweep_axis_parsing():
    axis = SweepAxis.parse("-1:1:0.5")
    assert axis.points() == pytest.approx([-1.0, -0.5, 0.0, 0.5, 1.0])
    with pytest.raises(Exception):
        SweepAxis.parse("1:2")


def test_case1_smoke(tmp_path):
    report = run_case(1, tmp_path)
    assert report.all_passed
    assert (tmp_path / "case1.csv").exists()
    text = (tmp_path / "case1_report.txt").read_text()
    assert text.count("CHECK ") == len(report.checks)
    assert "pass" in text


CHECK_TABLES = {
    1: [("delta-continuity-at-switch", 0.0), ("frequency-within-clamp-band", 0.0),
        ("active-power-equalized-within-5s", 1e-3),
        ("final-frequency-matches-closed-form", 1e-3)],
    2: [("steady-frequency-resistive", 1e-4), ("steady-frequency-inductive", 1e-4),
        ("steady-frequency-capacitive", 1e-4), ("frequency-ordering-rc-above-r-above-rl", 0.0),
        ("reactive-small-positive-resistive", 0.05), ("reactive-positive-inductive", 0.0),
        ("reactive-negative-capacitive", 0.0)],
    3: [("modules-resynchronize-each-quadrant", 1e-8),
        ("active-power-identical-across-quadrants", 1e-6),
        ("reactive-power-identical-across-quadrants", 1e-6),
        ("frequency-identical-across-quadrants", 1e-6)],
    4: [("frequency-locks-to-grid-all-lines", 1e-4),
        ("pf-angle-tracks-reference-all-lines", 1e-6),
        ("stability-report-line-independent", 0.0)],
    5: [("pf-angle-tracks-within-3s", 1e-4), ("frequency-returns-to-nominal", 1e-4)],
}


@pytest.mark.parametrize("case_id", [1, 2, 3, 4, 5])
def test_case_check_table_is_pinned(case_id, tmp_path):
    # names, order, tolerances and verdicts; the measured digits depend on libm
    checks = run_case(case_id, tmp_path).checks
    assert [(c.name, c.tol, c.passed) for c in checks] == [
        (name, tol, True) for name, tol in CHECK_TABLES[case_id]]


@pytest.mark.parametrize("case_id", [1, 2, 3, 4, 5])
def test_case_segments_match_a_search_of_the_sample_times(case_id):
    # oracle: fold the events again and search the recorded times for the
    # last sample before each event time
    scenario = build_case(case_id)[0]
    steps, decim = scenario.steps, scenario.record_decimation
    times = np.array([k for k in range(steps + 1) if k % decim == 0 or k == steps]) * scenario.dt
    zeros = np.zeros((len(times), scenario.config.n))
    trace = Trace(np.column_stack([times, zeros, zeros, zeros, zeros]))
    want = []
    start = 0.0
    config = scenario.config
    for ev in scenario.events:
        if ev.time > start:
            want.append((start, int(times.searchsorted(ev.time - 1e-12)) - 1, config))
            start = ev.time
        config = apply_event(config, ev.action)
    want.append((start, len(times) - 1, config))
    assert _segments(scenario, trace) == want


# --- CLI ------------------------------------------------------------------------


def _cli(*args, cwd):
    return subprocess.run(
        [sys.executable, "-m", "cascade_droop", *args],
        capture_output=True, text=True, cwd=cwd,
    )


def test_console_script_target_exits_1_on_bad_usage(monkeypatch, capsys):
    # the installed cascade-droop command calls this target, not python -m
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["scripts"]
    module_name, _, attr = scripts["cascade-droop"].partition(":")
    target = getattr(importlib.import_module(module_name), attr)
    monkeypatch.setattr(sys, "argv", ["cascade-droop", "case", "6"])
    with pytest.raises(SystemExit) as exit_info:
        target()
    assert exit_info.value.code == 1
    assert capsys.readouterr().err.startswith("error: argument which: invalid choice")


def test_cli_simulate_writes_trace(tmp_path):
    scenario = tmp_path / "demo.scn"
    scenario.write_text(SCENARIO_TEXT)
    proc = _cli("simulate", "demo.scn", "--out", "out", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out" / "demo_trace.csv").exists()
    assert "final frequencies" in proc.stdout


def test_cli_simulate_overrides(tmp_path):
    scenario = tmp_path / "demo.scn"
    scenario.write_text(SCENARIO_TEXT)
    proc = _cli("simulate", "demo.scn", "--out", "o", "--dt", "0.002",
                "--duration", "1", "--no-clamp", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    header, first, *_rest, last = (tmp_path / "o" / "demo_trace.csv").read_text().splitlines()
    assert last.split(",")[0] == "1"
    # the new dt is checked against the new duration, not the file's 0.25 s
    scenario.write_text(SCENARIO_TEXT.replace("duration = 2", "duration = 0.25"))
    proc = _cli("simulate", "demo.scn", "--out", "p", "--dt", "0.1", "--duration", "0.3",
                cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_cli_overrides_replace_the_file_values_before_the_one_check(tmp_path, capsys):
    # the file's own m dt = 5 is refused; with --dt the scenario that runs is valid
    text = (SCENARIO_TEXT.replace("m = 0.5", "m = 5")
            .replace("duration = 2", "duration = 2\ndt = 1"))
    (tmp_path / "m5.scn").write_text(text)
    out = str(tmp_path / "out")
    assert cli.main(["simulate", str(tmp_path / "m5.scn"), "--out", out]) == 1
    assert "m*dt = 5, past RK4's stability limit" in capsys.readouterr().err
    assert cli.main(["simulate", str(tmp_path / "m5.scn"), "--out", out,
                     "--dt", "0.001", "--duration", "1"]) == 0
    assert "samples: 101" in capsys.readouterr().out


# A grid string next to zero current whose root's slow mode decays at lambda1 = -19.03 /s:
# at dt = 0.2 s, m dt is 0.1 but |lambda1| dt is 3.81, where an unguarded run ends off the root
# at 50.018 Hz
FAST_ROOT_TEXT = """
[system]
n = 40
f_star = 50
v_star = 7.805406242661235
v_grid = 315
phi_star = -2.5323637894048843
m = 0.5
mode = grid

[line]
mag = 0.314
theta = 1.5707963267948966

[load]
r = 12

[solver]
dt = 0.2
duration = 40
decimation = 1
"""


def test_cli_refuses_a_grid_slow_mode_past_the_rk4_stability_limit(tmp_path, capsys):
    path = tmp_path / "fast.scn"
    path.write_text(FAST_ROOT_TEXT)
    out = tmp_path / "out"
    for command in (["simulate", str(path), "--out", str(out)], ["stability", str(path)]):
        assert cli.main(command) == 1
        stdout, err = capsys.readouterr()
        assert stdout == "" and err.count("\n") == 1
        assert err.startswith("validation error: grid slow mode lambda1 = -19.0282 /s at "
                              "dt = 0.2 s gives |lambda1|*dt = 3.80564, past RK4's stability")
    assert not out.exists()
    # the same file at 1 ms runs and locks to 50 Hz (2 s of its 40 keep the test short)
    assert cli.main(["simulate", str(path), "--out", str(out), "--dt", "0.001",
                     "--duration", "2"]) == 0
    final = capsys.readouterr().out.split("final frequencies (Hz): ", 1)[1]
    assert [float(f) for f in final.split(",")] == [50.0] * 40


def test_cli_runs_the_reproducer_at_the_largest_step_the_slow_mode_guard_accepts(tmp_path, capsys):
    # started 1e-3 rad below delta_s, where RK4's own limit let the run rest at 50.0102 Hz
    config = scenario_io.scenario_fields(FAST_ROOT_TEXT)["config"]
    (root,) = engine.grid_equilibrium(config).roots
    dt = engine.SLOW_MODE_LIMIT / -root.lambda_slow
    while -root.lambda_slow * dt > engine.SLOW_MODE_LIMIT:
        dt = math.nextafter(dt, 0.0)
    path = tmp_path / "fast.scn"
    start = ", ".join([repr(root.delta - 1e-3)] * 40)
    path.write_text(FAST_ROOT_TEXT.replace("[solver]", f"[initial]\ndelta = {start}\n\n[solver]"))
    run = ["simulate", str(path), "--out", str(tmp_path / "out"), "--duration", repr(273 * dt)]
    assert cli.main(run + ["--dt", repr(dt)]) == 0
    final = capsys.readouterr().out.split("final frequencies (Hz): ", 1)[1]
    assert [float(f) for f in final.split(",")] == [50.0] * 40
    assert cli.main(run + ["--dt", repr(math.nextafter(dt, 1.0))]) == 1
    stdout, err = capsys.readouterr()
    assert stdout == "" and err.count("\n") == 1 and "grid slow mode lambda1" in err


SAME_TIME_TEXT = """
[system]
n = 2
f_star = 50
v_star = 50
v_grid = 100
phi_star = 0.2
m = 0.5
mode = grid

[line]
mag = 1
theta = 1.5707963267948966

[load]
r = 0
x = -1

[events]
{events}

[solver]
duration = 2
"""


def test_same_time_events_apply_together(tmp_path, monkeypatch, capsys):
    # islanded, the -j1 ohm load cancels the j1 ohm line; only a config
    # between the two events at t=1 would pair them, and none is built
    monkeypatch.chdir(tmp_path)
    orders = {"island_first": "1.0 mode islanded\n1.0 load r=12",
              "load_first": "1.0 load r=12\n1.0 mode islanded"}
    for name, events in orders.items():
        (tmp_path / f"{name}.scn").write_text(SAME_TIME_TEXT.format(events=events))
        assert cli.main(["simulate", f"{name}.scn", "--out", "out"]) == 0
        assert "Traceback" not in capsys.readouterr().err
    traces = [(tmp_path / "out" / f"{name}_trace.csv").read_bytes() for name in orders]
    assert traces[0] == traces[1]


def test_cli_exit_code_validation_error(tmp_path):
    bad = tmp_path / "bad.scn"
    bad.write_text(SCENARIO_TEXT.replace("m = 0.5", "m = -2"))
    proc = _cli("simulate", "bad.scn", cwd=tmp_path)
    assert proc.returncode == 1
    assert "droop_gain" in proc.stderr
    proc = _cli("simulate", "missing.scn", cwd=tmp_path)
    assert proc.returncode == 1
    proc = _cli("bogus-command", cwd=tmp_path)
    assert proc.returncode == 1


def test_cli_rejects_a_module_count_above_the_cap(tmp_path):
    # no [initial] section, so no default angles may be built before the cap
    # check; the address-space limit turns an attempt into a quick failure
    import resource

    limit = 1 << 30
    huge = tmp_path / "huge.scn"
    huge.write_text(SCENARIO_TEXT.replace("\nn = 2\n", "\nn = 1000000000\n")
                    .replace("[initial]\ndelta = 0.2, -0.2\n", ""))
    proc = subprocess.run(
        [sys.executable, "-m", "cascade_droop", "stability", "huge.scn"],
        capture_output=True, text=True, cwd=tmp_path,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )
    assert proc.returncode == 1, proc.stderr
    assert "line 3" in proc.stderr and "cap of 1,000,000 modules" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_cli_simulate_runs_a_string_past_1024_modules_on_both_kernels(tmp_path, monkeypatch,
                                                                      capsys, kernels):
    # no kernel caps n below the 1,000,000 of every string: at n = 1,025 both kernels write
    # the same trace bytes, and the stability report still runs
    (tmp_path / "wide.scn").write_text(SCENARIO_TEXT.replace("\nn = 2\n", "\nn = 1025\n")
                                       .replace("[initial]\ndelta = 0.2, -0.2\n", ""))
    monkeypatch.chdir(tmp_path)
    written = set()
    for name, chooser in kernels.items():
        monkeypatch.setattr(_native, "kernel", chooser)
        assert cli.main(["simulate", "wide.scn", "--duration", "0.05", "--out", name]) == 0
        written.add((tmp_path / name / "wide_trace.csv").read_bytes())
    assert len(written) == 1
    header, *rows = written.pop().decode().splitlines()
    assert len(rows) == 6 and all(row.count(",") == 4 * 1025 for row in [header, *rows])
    capsys.readouterr()
    assert cli.main(["stability", "wide.scn"]) == 0
    assert capsys.readouterr().out.startswith("stability report")


def test_cli_simulate_refuses_a_table_past_physical_memory(tmp_path, monkeypatch, capsys):
    # one row more than physical memory holds: exit 1 before any kernel, step or output directory
    n = 1025
    width = 8 * (1 + 4 * n)
    rows = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") // width + 1
    (tmp_path / "huge.scn").write_text(
        SCENARIO_TEXT.replace("\nn = 2\n", f"\nn = {n}\n")
        .replace("[initial]\ndelta = 0.2, -0.2\n", "")
        .replace("duration = 2", f"duration = {rows - 1}\ndt = 1\ndecimation = 1"))
    monkeypatch.chdir(tmp_path)
    asked = []
    monkeypatch.setattr(_native, "kernel", lambda module_steps: asked.append(module_steps))
    monkeypatch.setattr(engine, "_bind", lambda *args: asked.append(args))
    assert cli.main(["simulate", "huge.scn", "--out", "out"]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "more than can be allocated" in err
    assert f"{float(rows):.3g} samples of {1 + 4 * n} values" in err
    assert not asked and not (tmp_path / "out").exists()


def test_cli_exit_code_runtime_error(tmp_path):
    # series LC cancellation scheduled mid-run: the circuit becomes singular
    text = SCENARIO_TEXT + "\n[events]\n1.0 load mag=0.314 theta=-1.5707963267948966\n"
    scn = tmp_path / "singular.scn"
    scn.write_text(text)
    proc = _cli("simulate", "singular.scn", cwd=tmp_path)
    assert proc.returncode == 2
    assert "runtime error" in proc.stderr


@pytest.mark.parametrize("args, code, stdout_part", [
    (["simulate", "demo.scn", "--dt", "1e-320"], 1, ""),
    (["simulate", "demo.scn", "--duration", "1e300"], 1, ""),
    (["stability", "demo.scn", "--sweep", "angle=0:inf:1"], 1, ""),
    # (hi - lo) / step overflows to inf: no finite point count
    (["stability", "demo.scn", "--sweep", "angle=0:1:5e-324"], 1, ""),
    (["stability", "demo.scn", "--sweep", "angle=-1e308:1e308:1"], 1, ""),
    # finite counts above the row ceiling, on one axis and as a product of two
    (["stability", "demo.scn", "--sweep", "angle=0:1:1e-300"], 1, ""),
    (["stability", "demo.scn", "--sweep", "angle=0:999:1", "vstar=1:1001:1"], 1, ""),
    # a report marks a point it cannot linearize instead of failing
    (["stability", "demo.scn", "--angle", "nan"], 0, "angle_diff=nan: invalid"),
    # V*^2 is past float range, the voltage shares are not; n V* + V_g is past it
    (["stability", "demo.scn", "--sweep", "vstar=1e150:1e160:2e159"], 0,
     "v_star=2e+159: lambda1="),
    (["stability", "demo.scn", "--sweep", "vstar=1e308:1e308:1"], 0,
     "v_star=1e+308: invalid"),
    (["stability", "demo.scn", "--sweep", "angle=0:1:0.5", "angle=2:3:0.5"], 1, ""),
], ids=["tiny-dt", "huge-duration", "infinite-sweep", "subnormal-step", "overflowing-range",
        "huge-count", "too-many-rows", "nan-angle", "overflowing-vstar", "overflowing-sum",
        "repeated-axis"])
def test_cli_bad_numbers_never_raise(tmp_path, monkeypatch, capsys, args, code, stdout_part):
    (tmp_path / "demo.scn").write_text(SCENARIO_TEXT.replace("mode = islanded", "mode = grid"))
    monkeypatch.chdir(tmp_path)
    assert cli.main(args + (["--out", "out"] if args[0] == "simulate" else [])) == code
    out, err = capsys.readouterr()
    assert "Traceback" not in err
    assert stdout_part in out
    if code == 1:
        assert err.startswith("validation error:")
        # the scenario is validated before any output directory is made
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("v_star", ["1e154", "1e160"])
def test_cli_simulate_refuses_an_overflowing_power_scale(tmp_path, monkeypatch, capsys, v_star):
    # 1e154 overflows the zero-power floor, which would hold every measurement
    # at 50 Hz; 1e160 overflows the measured powers as well
    (tmp_path / "big.scn").write_text(
        SCENARIO_TEXT.replace("\nn = 2\n", "\nn = 4\n")
        .replace("v_star = 50", f"v_star = {v_star}")
        .replace("m = 0.5", "m = 0.5\nclamp = off")
        .replace("delta = 0.2, -0.2", "delta = 0.5, -0.5, 0.5, -0.5"))
    monkeypatch.chdir(tmp_path)
    stretch = engine._stretch
    calls = []
    monkeypatch.setattr(_native, "kernel", python_kernel)
    monkeypatch.setattr(engine, "_stretch", lambda *args: calls.append(1) or stretch(*args))
    assert cli.main(["simulate", "big.scn", "--out", "out"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("validation error: power scale n V*^2/|Z| = inf VA")
    assert calls == []  # refused before the first step
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("angle", ["nan", "inf", "-inf"])
def test_cli_simulate_refuses_a_non_finite_angle_reset(tmp_path, monkeypatch, capsys, angle):
    text = SCENARIO_TEXT.replace("[solver]", f"[events]\n1.0 delta 2 {angle}\n\n[solver]")
    lineno = text.splitlines().index(f"1.0 delta 2 {angle}") + 1
    (tmp_path / "reset.scn").write_text(text)
    monkeypatch.chdir(tmp_path)
    assert cli.main(["simulate", "reset.scn", "--out", "out"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"validation error: line {lineno}: delta event: "
                   f"angle-reset angle must be finite, got {float(angle)}\n")
    assert not (tmp_path / "out").exists()


def test_cli_simulate_names_the_line_of_a_bad_reset_index(tmp_path, monkeypatch, capsys):
    text = EXAMPLE_SCENARIO.read_text().replace("6.0 load r=12 x=6\n",
                                                "6.0 load r=12 x=6\n7.0 delta 9 0.5\n")
    lineno = text.splitlines().index("7.0 delta 9 0.5") + 1
    (tmp_path / "reset.scn").write_text(text)
    monkeypatch.chdir(tmp_path)
    assert cli.main(["simulate", "reset.scn", "--out", "out"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"validation error: line {lineno}: delta event: "
                   "angle-reset index 9 outside 1..4\n")
    assert not (tmp_path / "out").exists()


# (text replaced in demos/example_scenario.scn, its replacement, or None and
# the --sweep argument of a stability run; the one stderr line after "validation error: ")
_REFUSALS = [
    ("2.0 mode islanded", "2.0", "line 25: event needs '<time> <kind> ...', got '2.0'"),
    ("2.0 mode islanded", "2.0 phi_star", "line 25: phi_star event takes one angle in rad"),
    ("2.0 mode islanded", "2.0 delta 1", "line 25: delta event takes '<module-index> <angle>'"),
    ("decimation = 10\n", "decimation = 10\n\n[line]\nmag = 1\n",
     "line 33: duplicate section [line]"),
    ("r = 12\n", "r = 12\nc = -1e-3\n", "line 19: [load]: capacitance must be > 0 farad"),
    ("duration = 10", "duration = 0", "duration must be > 0, got 0.0"),
    ("duration = 10", "duration = 1e-10", "duration must cover at least one step"),
    (None, "angle=0:1:0", "sweep step must be > 0, got 0.0"),
    (None, "angle=1:0:0.1", "sweep range [1.0, 0.0] is empty"),
    (None, "angle=a:1:0.1", "sweep axis has a non-numeric bound: 'a:1:0.1'"),
    (None, "angle", "sweep axis must look like angle=lo:hi:step, got 'angle'"),
    (None, "theta=0:1:0.1", "unknown sweep axis 'theta' (use angle or vstar)"),
]


@pytest.mark.parametrize("old, new, message", _REFUSALS)
def test_cli_refusals_print_one_line(tmp_path, monkeypatch, capsys, old, new, message):
    text = EXAMPLE_SCENARIO.read_text()
    if old is None:
        args = ["stability", "s.scn", "--sweep", new]
    else:
        assert old in text
        text = text.replace(old, new, 1)
        args = ["simulate", "s.scn", "--out", "out"]
    (tmp_path / "s.scn").write_text(text)
    monkeypatch.chdir(tmp_path)
    assert cli.main(args) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"validation error: {message}\n"
    assert not (tmp_path / "out").exists()


def test_cold_start_loads_numpy_only_to_simulate(tmp_path):
    # a fresh interpreter: the package, stability reports, validation errors,
    # parsing and the equilibria are plain math; simulate builds numpy arrays
    (tmp_path / "grid.scn").write_text(SCENARIO_TEXT.replace("mode = islanded", "mode = grid"))
    (tmp_path / "islanded.scn").write_text(SCENARIO_TEXT)
    (tmp_path / "bad.scn").write_text(SCENARIO_TEXT.replace("m = 0.5", "m = -1"))
    script = (
        "import sys\n"
        "import cascade_droop\n"
        "from cascade_droop import cli, grid_equilibrium, parse_scenario, simulate\n"
        "from cascade_droop.cases import build_case\n"
        "assert cli.main(['stability', 'grid.scn', '--angle', '0.4']) == 0\n"
        "assert cli.main(['stability', 'grid.scn', '--sweep', 'angle=-3:3:1']) == 0\n"
        "assert cli.main(['stability', 'grid.scn', '--sweep', 'angle=0:1:5e-324']) == 1\n"
        "assert cli.main(['simulate', 'bad.scn', '--out', 'out']) == 1\n"
        "assert cli.main(['case', '6']) == 1\n"
        "grid = parse_scenario(open('grid.scn').read())\n"
        "grid_equilibrium(grid.config)\n"
        "build_case(1)\n"
        "assert 'numpy' not in sys.modules, 'numpy loaded before simulate'\n"
        "trace = simulate(parse_scenario(open('islanded.scn').read())).trace\n"
        "assert 'numpy' in sys.modules\n"
        "cascade_droop.emit_trace_csv(trace, 'cold.csv')\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    warm = emit_trace_csv(simulate(parse_scenario(SCENARIO_TEXT)).trace, tmp_path / "warm.csv")
    assert (tmp_path / "cold.csv").read_bytes() == warm.read_bytes()


def test_cli_case_all(tmp_path):
    proc = _cli("case", "all", "--out", "cases", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    for k in range(1, 6):
        assert f"case {k}:" in proc.stdout
        assert (tmp_path / "cases" / f"case{k}.csv").exists()
        assert (tmp_path / "cases" / f"case{k}_report.txt").exists()
    assert "fail" not in proc.stdout


def test_cli_case_exits_2_when_a_claim_fails(tmp_path, monkeypatch, capsys):
    # one case runs in this process, so its patched checker is the one that runs
    failed = cases.CheckResult("forced", False, 1.0, 0.5)
    monkeypatch.setitem(cases._CHECKERS, 2, lambda segments, trace, continuity: [failed])
    assert cli.main(["case", "2", "--out", str(tmp_path)]) == 2
    out, err = capsys.readouterr()
    assert out.startswith("case 2:") and failed.line() in out and err == ""
    assert (tmp_path / "case2_report.txt").read_text() == out


EXAMPLE_SCENARIO = Path(__file__).resolve().parent.parent / "demos" / "example_scenario.scn"

# sha256 of the reproduction's bytes; libm rounding may differ on other platforms
_PINNED_DIGESTS = {
    "case all": "b433727222bafb069222674ca583da6c00d37dc0681ac772d2f23b1f1913ee32",
    "case1.csv": "33029bf90b9a5259664cedfaad196e85488a394a2d119055b6ec9d0aca48cdfe",
    "case2.csv": "8b6b25ab32673c9cabb1cbc93c452bdce8c6e1b4fa61f494bb9e3c689e81792b",
    "case3.csv": "1002a05c10daafc51c54030892c9fad9664e70ec79884d431497f92217d7f48f",
    "case4.csv": "fb72c98edd963c17ec9dfeb3ca715be33b109f81778707b58dc456d4050898eb",
    "case5.csv": "5c0429ce6de7aee22be445c33f4520bb6e3996b0f9258852e0dc2e9b1f0fae60",
    "stability sweep": "210c5e1ad9acbc0702d892a0c34d3141da7937cb2bf8b3e039a2e83d8218c9b8",
    "example_scenario_trace.csv": "8ac95b7e98d71eec5793dfe09464f05134afc03981073eebfec5f5d0fa95aea6",
    "decimation1_trace.csv": "96f868deefe514dd894682ccfc6e0ce77143814117a65834323d0422859369f7",
}


@pytest.mark.skipif((sys.platform, platform.machine()) != ("linux", "x86_64"),
                    reason="digests are pinned on Linux x86-64")
def test_cli_reproduction_bytes_are_pinned(tmp_path, monkeypatch, capsys, kernels):
    def sha(data):
        return hashlib.sha256(data).hexdigest()

    for path, chooser in kernels.items():
        monkeypatch.setattr(_native, "kernel", chooser)
        out = tmp_path / path
        got = {}
        capsys.readouterr()  # the last kernel's simulate lines
        assert cli.main(["case", "all", "--out", str(out / "cases")]) == 0
        got["case all"] = sha(capsys.readouterr().out.encode())
        for k in range(1, 6):
            got[f"case{k}.csv"] = sha((out / "cases" / f"case{k}.csv").read_bytes())
        assert cli.main(["stability", str(EXAMPLE_SCENARIO),
                         "--sweep", "angle=-3.14:3.14:0.01", "vstar=20:100:1"]) == 0
        got["stability sweep"] = sha(capsys.readouterr().out.encode())
        assert cli.main(["simulate", str(EXAMPLE_SCENARIO), "--out", str(out / "sim")]) == 0
        got["example_scenario_trace.csv"] = sha(
            (out / "sim" / "example_scenario_trace.csv").read_bytes())
        # every step recorded, through an angle reset and a reference step
        (out / "decimation1.scn").write_text(
            EXAMPLE_SCENARIO.read_text().replace("decimation = 10", "decimation = 1").replace(
                "2.0 mode islanded\n", "1.0 delta 2 0.9\n2.0 mode islanded\n4.0 phi_star -0.3\n"))
        assert cli.main(["simulate", str(out / "decimation1.scn"),
                         "--out", str(out / "sim")]) == 0
        got["decimation1_trace.csv"] = sha((out / "sim" / "decimation1_trace.csv").read_bytes())
        assert got == _PINNED_DIGESTS, path


def test_cli_stability_streams_the_library_report(capsys):
    # 15,005 lines: four writes of at most 4,096 lines each
    sweep = "angle=-3:3:0.0004"
    assert cli.main(["stability", str(EXAMPLE_SCENARIO), "--sweep", sweep]) == 0
    out = capsys.readouterr().out
    assert out.count("\n") > 3 * cli._STDOUT_CHUNK_LINES
    config = parse_scenario(EXAMPLE_SCENARIO.read_text()).config
    assert out == report_stability(config, sweep=(SweepAxis.parse("-3:3:0.0004"), None))


class _DiscardingStdout(io.TextIOBase):
    """A text stream that counts the lines written to it and keeps none of them."""

    lines = 0

    def write(self, text):
        self.lines += text.count("\n")
        return len(text)


def test_cli_stability_memory_does_not_grow_with_the_sweep(monkeypatch):
    # 50,001 rows, 3.7 MB of text; one report string peaked at 12.3 MB
    sink = _DiscardingStdout()
    monkeypatch.setattr(sys, "stdout", sink)
    argv = ["stability", str(EXAMPLE_SCENARIO), "--sweep", "angle=-3:3:0.00012"]
    assert _traced_peak(lambda: cli.main(argv)) < 2e6
    assert sink.lines == 2 * (4 + 50_001)  # the warm-up call and the traced one


def test_cli_stability_into_a_closed_pipe_exits_1_without_a_traceback():
    # 60,001 rows: far more than a pipe holds, so the writer meets the closed end
    proc = subprocess.Popen(
        [sys.executable, "-m", "cascade_droop", "stability", str(EXAMPLE_SCENARIO),
         "--sweep", "angle=-3:3:0.0001"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        assert proc.stdout.readline() == "stability report (grid-connected linearization)\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 1
    finally:
        proc.kill()
        proc.wait()
    assert "Traceback" not in err and err.count("\n") <= 1, err


def test_stability_linearizes_a_point_next_to_zero_current(tmp_path, capsys):
    # |sum V - V_g| = 1e-8 n V*: small, but above the zero-power rule
    scenario = tmp_path / "near.scn"
    scenario.write_text(EXAMPLE_SCENARIO.read_text().replace("v_star = 78.75",
                                                             "v_star = 78.7500007875"))
    assert cli.main(["stability", str(scenario), "--angle", "0"]) == 0
    assert capsys.readouterr().out.endswith(
        "point angle_diff=0: lambda1=50000000 verdict=unstable\n")


_PAST_RK4 = (r"validation error: droop gain m = {} /s at dt = 0.001 s gives m\*dt = {}, "
             r"past RK4's stability limit 2.785293563405282 on the angle modes that decay at -m")


@pytest.mark.parametrize("m, message", [
    # 2 pi f* + pi m is finite, but m dt is far past RK4's stability limit
    ("1e306", _PAST_RK4.format(r"1e\+306", r"1e\+303")),
    ("1e307", _PAST_RK4.format(r"1e\+307", r"1e\+304")),
    ("5e307", _PAST_RK4.format(r"5e\+307", r"5e\+304")),
    # pi m itself overflows: refused on the m line
    ("1e308", r"validation error: line 10: \[system\]: droop_gain must be > 0"),
], ids=["1e306-refused", "1e307-refused", "5e307-refused", "1e308-refused"])
def test_cli_unclamped_gain_near_float_range_ends_in_one_line(tmp_path, capsys, m, message):
    scenario = tmp_path / "gain.scn"
    scenario.write_text(EXAMPLE_SCENARIO.read_text().replace("m = 0.5", f"m = {m}")
                        .replace("clamp = 49, 51", "clamp = off"))
    assert cli.main(["simulate", str(scenario), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert re.match(message, err) and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_cli_case_and_stability(tmp_path):
    proc = _cli("case", "1", "--out", "cases", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "case 1:" in proc.stdout
    assert (tmp_path / "cases" / "case1_report.txt").exists()

    scenario = tmp_path / "demo.scn"
    scenario.write_text(SCENARIO_TEXT.replace("mode = islanded", "mode = grid"))
    proc = _cli("stability", "demo.scn", "--angle", "1.0", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "verdict=" in proc.stdout
    proc = _cli("stability", "demo.scn", "--sweep", "angle=-3:3:1", "vstar=10:40:10",
                cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("angle_diff=") >= 28


def test_cli_invocations_are_byte_deterministic(tmp_path):
    scenario = tmp_path / "demo.scn"
    scenario.write_text(SCENARIO_TEXT)
    for out in ("r1", "r2"):
        proc = _cli("simulate", "demo.scn", "--out", out, cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
    a = (tmp_path / "r1" / "demo_trace.csv").read_bytes()
    b = (tmp_path / "r2" / "demo_trace.csv").read_bytes()
    assert a == b


def _case_all_outputs(out):
    files = sorted(p.name for p in out.iterdir())
    assert len(files) == 10
    return {name: (out / name).read_bytes() for name in files}


def test_case_all_pool_loop_and_spawn_write_the_same_bytes(tmp_path, monkeypatch, capsys):
    runs = {}
    # 3 shares even on a 1-CPU host; then a count of 1, where this process runs every case
    for label, cpus in (("pool", 3), ("loop", 1)):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: set(range(cpus)),
                            raising=False)
        assert cli.main(["case", "all", "--out", str(tmp_path / label)]) == 0
        runs[label] = (capsys.readouterr().out, _case_all_outputs(tmp_path / label))
    # spawned workers start from a fresh import (the default on macOS and Python >= 3.14)
    driver = (
        "import multiprocessing, os, sys\n"
        "from cascade_droop.cli import main\n"
        "os.sched_getaffinity = lambda pid: {0, 1, 2}\n"
        "multiprocessing.set_start_method('spawn')\n"
        "sys.exit(main(['case', 'all', '--out', 'spawn']))\n"
    )
    proc = subprocess.run([sys.executable, "-c", driver], capture_output=True, text=True,
                          cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    runs["spawn"] = (proc.stdout, _case_all_outputs(tmp_path / "spawn"))
    assert runs["pool"] == runs["loop"]
    assert runs["spawn"] == runs["loop"]


def test_case_runs_take_the_loop_on_one_usable_cpu(tmp_path, monkeypatch):
    # os.cpu_count() counts the host's CPUs; an affinity of one CPU starts no worker
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)

    def no_pool(*_args, **_kwargs):
        raise AssertionError("a worker process started on one usable CPU")

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", no_pool)
    reports = cases.run_cases([2, 1], tmp_path)
    assert [report.case_id for report in reports] == [2, 1]


@pytest.mark.parametrize("args", [
    ["simulate", "demo.scn"],
    ["case", "1"],
    ["case", "all"],
], ids=["simulate", "case-1", "case-all"])
def test_cli_unwritable_output_exits_1(tmp_path, monkeypatch, capsys, args):
    (tmp_path / "demo.scn").write_text(SCENARIO_TEXT)
    (tmp_path / "taken").write_text("a file, not a directory")
    monkeypatch.chdir(tmp_path)

    def no_pool(*_args, **_kwargs):
        raise AssertionError("a worker process started before the output directory was made")

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", no_pool)
    assert cli.main(args + ["--out", "taken"]) == 1
    out, err = capsys.readouterr()
    assert err == "error: cannot write taken: File exists\n"
    assert "Traceback" not in out + err


@pytest.mark.parametrize("ids, first", [([1, 2, 3, 4, 5], 2), ([4, 3, 2, 1, 5], 4)],
                         ids=["worker-case-first", "caller-case-first"])
def test_case_runs_re_raise_the_first_failure_in_ids_order(tmp_path, monkeypatch, ids, first):
    # two shares: this process runs case 4, the longest, and a worker runs 1, 2, 3 and 5; a
    # directory where a case writes a file fails case 4 here and case 2 in the worker
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    failing = {4: tmp_path / "case4.csv", 2: tmp_path / "case2_report.txt"}
    for path in failing.values():
        path.mkdir()
    with pytest.raises(IsADirectoryError) as raised:
        cases.run_cases(ids, tmp_path)
    assert type(raised.value) is IsADirectoryError
    assert (raised.value.strerror, raised.value.filename) == (os.strerror(errno.EISDIR),
                                                              str(failing[first]))
    # every other case ran to its report, and case 2 wrote its CSV before it failed
    for k in (1, 3, 5):
        assert (tmp_path / f"case{k}_report.txt").is_file()
    assert (tmp_path / "case2.csv").is_file()
    assert multiprocessing.active_children() == []


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="no fork start method here")
def test_case_all_worker_that_dies_unreported_is_a_runtime_error(tmp_path):
    # a forked worker inherits the patch, so the worker given cases 1, 2, 3 and 5 exits at its
    # first case, and this process runs case 4
    driver = (
        "import multiprocessing, os, sys\n"
        "from cascade_droop import cases\n"
        "from cascade_droop.cli import main\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "multiprocessing.set_start_method('fork')\n"
        "caller, run_case = os.getpid(), cases.run_case\n"
        "cases.run_case = lambda case_id, out: (run_case(case_id, out) if os.getpid() == caller\n"
        "                                       else os._exit(3))\n"
        "code = main(['case', 'all', '--out', 'cases'])\n"
        "print(multiprocessing.active_children())\n"
        "sys.exit(code)\n"
    )
    proc = subprocess.run([sys.executable, "-c", driver], capture_output=True, text=True,
                          cwd=tmp_path, timeout=120)
    assert (proc.returncode, proc.stdout) == (2, "[]\n"), proc.stderr
    assert proc.stderr == ("runtime error: the worker process given cases [1, 2, 3, 5] ended "
                           "with exit code 3 before reporting them\n")
    assert (tmp_path / "cases" / "case4_report.txt").is_file()
    assert multiprocessing.active_children() == []


_FUZZ_BASE = """
[system]
n = 2
f_star = 50
v_star = 50
v_grid = 100
phi_star = 0.2
m = 0.5
mode = grid

[line]
mag = 0.314
theta = 1.5707963267948966

[load]
r = 12

[initial]
delta = 0.2, -0.2

[events]
0.05 phi_star 0.5
0.08 delta 1 0.3
0.1 line mag=0.314 theta=0
0.12 mode islanded
0.15 load r=12 x=6

[solver]
dt = 0.001
duration = 0.2
"""
_NUMBER = re.compile(r"-?[0-9]+(?:\.[0-9]+)?")


@st.composite
def _mutated_scenarios(draw):
    # an unclamped string lets a large gain reach its largest slopes
    text = _FUZZ_BASE.replace("mode = grid", draw(st.sampled_from(("", "clamp = off\n")))
                              + "mode = grid")
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(("insert", "delete", "replace", "number")))
        if op == "number":
            match = draw(st.sampled_from(list(_NUMBER.finditer(text))))
            new = draw(st.sampled_from(("nan", "inf", "-inf", "0", "-1", "1e307", "5e307",
                                        "1e308", "1e-320")))
            text = text[:match.start()] + new + text[match.end():]
            continue
        pos = draw(st.integers(0, len(text) - 1))
        char = draw(st.sampled_from("0123456789.-e=,[]# \nxn"))
        if op == "insert":
            text = text[:pos] + char + text[pos:]
        elif op == "delete":
            text = text[:pos] + text[pos + 1:]
        else:
            text = text[:pos] + char + text[pos + 1:]
    return text


@seed(11)
@settings(max_examples=150, deadline=None, database=None)
@example(text=_FUZZ_BASE.replace("m = 0.5", "m = 5e307\nclamp = off"))  # exit 1: m dt
@example(text=_FUZZ_BASE.replace("m = 0.5", "m = 1e308\nclamp = off"))  # exit 1
@example(text=_FUZZ_BASE.replace("0.08 delta 1 0.3", "0.08 delta 1 nan"))  # exit 1
@example(text=_FUZZ_BASE.replace("0.08 delta 1 0.3", "0.08 delta 1 inf"))  # exit 1
@example(text=_FUZZ_BASE.replace("0.05 phi_star", "0.0 phi_star"))  # exit 0: at t = 0
@example(text=_FUZZ_BASE.replace("[events]\n", "[events]\n0.0 delta 1 1.0\n"))  # exit 0
@given(text=_mutated_scenarios())
def test_cli_simulate_exit_codes_on_mutated_scenarios(text):
    # --dt and --duration bound every run to 200 steps, whatever the text says
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fuzz.scn")
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["simulate", path, "--out", os.path.join(tmp, "out"),
                             "--dt", "0.001", "--duration", "0.2"])
    assert code in (0, 1, 2)
    assert "Traceback" not in out.getvalue() + err.getvalue()
    if code == 0:
        final = out.getvalue().split("final frequencies (Hz): ", 1)[1]
        assert all(math.isfinite(float(f)) for f in final.split(","))
