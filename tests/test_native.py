"""The C kernel: bit for bit the Python kernel at any n, built once, and never a silent fallback."""

import cmath
import functools
import hashlib
import logging
import math
import multiprocessing
import os
import platform
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, seed, settings
from hypothesis import strategies as st

from cascade_droop import (
    Impedance,
    Mode,
    Scenario,
    SetInitialDelta,
    SetLine,
    SetLoad,
    SetMode,
    SetPfRef,
    SingularImpedanceError,
    TimedEvent,
    ValidationError,
    _native,
    cases,
    engine,
    simulate,
)
from test_engine import _KERNEL_NS, _dead_angles, _exactly_at_the_dead_band, make_config
from test_reports_cli import _PINNED_DIGESTS

PI = math.pi
TAU = math.tau


@pytest.fixture(scope="module")
def c_kernel():
    found = _native.kernel(_native.MODULE_STEPS)
    if found is None:
        pytest.skip("no C kernel in this process")
    return found


def _hex(result):
    """A run's table and final states as ``float.hex`` strings."""
    return ([x.hex() for x in result.trace.table.ravel().tolist()],
            [(s.delta.hex(), s.pf_angle.hex()) for s in result.final_states])


def _outcome(scenario, found):
    """The run of ``scenario`` on ``found`` (None: the Python kernel), or its error."""
    try:
        return _hex(engine._run(scenario, None, lambda module_steps: found))
    except (SingularImpedanceError, ValidationError) as exc:
        return type(exc).__name__, str(exc)


def test_the_c_kernel_is_used_wherever_a_compiler_is_on_path():
    # so a CI job with a compiler cannot fall back to the Python kernel unnoticed
    if _native.compiler() is None:
        pytest.skip("no C compiler on PATH")
    assert _native.kernel(_native.MODULE_STEPS) is not None


_IMPEDANCES = st.builds(Impedance, st.floats(0.05, 2.0), st.floats(-PI / 2, PI / 2))
_LOADS = st.builds(Impedance.from_rect, st.floats(0.5, 20.0), st.floats(-10.0, 10.0))


@st.composite
def _runs(draw):
    """A run over ``_KERNEL_NS`` with every event kind, at t = 0 and at the end too.

    The start is live, dead (a matched grid-tied string at the grid angle or
    an islanded polygon), on the seam (phi* puts module 0's droop error at
    pi, or within 1e-9 rad of it) or in runs: neighbours with the same bits,
    drawn from 0.0, -0.0 and one or two angles, whose angle resets draw from
    those values too, so that a reset splits a run or, with others at the
    same time, forms one.  The clamp is off, normal or narrow.
    """
    n = draw(st.sampled_from(_KERNEL_NS))
    v_grid = draw(st.floats(10.0, 1000.0))
    theta = draw(st.floats(-PI, PI))
    config = make_config(
        n=n, m=draw(st.floats(0.5, 20.0)), phi_star=draw(st.floats(-PI, PI)),
        v_star=draw(st.floats(0.1, 3.0)) * v_grid / n, v_grid=v_grid,
        clamp=draw(st.sampled_from([None, (49.0, 51.0), (49.9, 50.2)])),
        line=draw(_IMPEDANCES), load=draw(_LOADS), mode=draw(st.sampled_from(Mode)),
        grid_angle=theta)
    deltas = draw(st.lists(st.floats(-PI, PI), min_size=n, max_size=n))
    start = draw(st.sampled_from(["live", "dead", "seam", "runs"]))
    reset = st.floats(-PI, PI)
    if start == "runs":
        values = [0.0, -0.0, *draw(st.lists(st.floats(-PI, PI), min_size=1, max_size=2))]
        deltas = []
        while len(deltas) < n:
            deltas += [draw(st.sampled_from(values))] * draw(st.integers(1, n))
        deltas = deltas[:n]
        reset = st.one_of(st.sampled_from(values), reset)
        if draw(st.booleans()):  # resistive at grid angle 0: where every angle is a zero, sum V
            # - V_g is real, and each module's Q is a zero with its angle's sign
            config = replace(config, line=Impedance(config.line.magnitude, 0.0),
                             load=Impedance(config.load.magnitude, 0.0), grid_angle=0.0)
    elif start == "dead":
        config = replace(config, grid_voltage=n * config.droop.nominal_voltage)
        deltas = _dead_angles(config, theta)
    elif start == "seam":
        z, drive = engine._bind(config, 1e-3)[6:8]
        total = sum((cmath.rect(config.droop.nominal_voltage, x) for x in deltas), 0j) - drive
        eps = draw(st.sampled_from([0.0, 1e-9, -1e-9]))
        phi_star = deltas[0] - cmath.phase(total / z) - PI + eps
        config = replace(config, droop=replace(config.droop, nominal_pf_angle=phi_star))
    steps = draw(st.integers(1, 40))
    actions = st.one_of(
        st.builds(SetMode, st.sampled_from(Mode)), st.builds(SetLoad, _LOADS),
        st.builds(SetLine, _IMPEDANCES), st.builds(SetPfRef, st.floats(-PI, PI)),
        st.builds(SetInitialDelta, st.integers(1, n), reset))
    at = st.one_of(st.just(0), st.just(steps), st.integers(0, steps))
    timed = sorted(draw(st.lists(st.tuples(at, actions), max_size=6)), key=lambda ev: ev[0])
    try:
        return Scenario(config=config, initial_deltas=tuple(deltas),
                        events=tuple(TimedEvent(k * 1e-3, a) for k, a in timed),
                        duration=steps * 1e-3, dt=1e-3, record_decimation=draw(st.integers(1, 7)))
    except ValidationError:  # a grid slow mode past the step guard
        assume(False)


# a matched string at the grid angle, dead until a reset at step 3; every step recorded
_DEAD_GRID = Scenario(
    config=make_config(n=4, mode=Mode.GRID_CONNECTED, grid_angle=0.4, clamp=(49.9, 50.2)),
    initial_deltas=(0.4,) * 4, events=(TimedEvent(0.003, SetInitialDelta(2, 1.0)),),
    duration=0.008, record_decimation=1)


# |sum V - V_g| is exactly the dead band: every stage holds
_AT_THE_DEAD_BAND = Scenario(
    config=make_config(n=2, v_star=_exactly_at_the_dead_band()[0],
                       v_grid=_exactly_at_the_dead_band()[1], mode=Mode.GRID_CONNECTED),
    initial_deltas=(0.0, 0.0), duration=0.003, record_decimation=1)


# four modules at -0.0, 0.0, 0.0, -0.0 in a resistive island: arg I is 0, and a module's Q on the
# first row is a zero with its angle's sign, so a kernel that compares neighbouring angles with
# == (which takes -0.0 for 0.0) and shares their terms fails here
_SIGNED_ZEROS = Scenario(
    config=make_config(line=Impedance(0.5, 0.0), load=Impedance(8.0, 0.0)),
    initial_deltas=(-0.0, 0.0, 0.0, -0.0), duration=0.003, dt=1e-3, record_decimation=1)


@settings(max_examples=250, deadline=None, database=None)
@seed(30)
@example(scenario=_SIGNED_ZEROS)
@example(scenario=_DEAD_GRID)
@example(scenario=_AT_THE_DEAD_BAND)
@example(scenario=_native._probe())
@given(scenario=_runs())
def test_c_kernel_matches_the_python_kernel_bit_for_bit(c_kernel, scenario):
    # every row, final angle and held measurement, compared as float.hex
    assert _outcome(scenario, c_kernel) == _outcome(scenario, None)


@pytest.mark.parametrize("n, mode", [(1025, Mode.ISLANDED), (2000, Mode.GRID_CONNECTED)],
                         ids=["1025-islanded", "2000-grid"])
def test_c_kernel_matches_the_python_kernel_past_1024_modules(c_kernel, n, mode):
    # 50 steps, every one recorded, from angles all round the circle and into the narrow clamp
    config = make_config(n=n, v_star=1.2 * 315.0 / n, clamp=(49.9, 50.2), mode=mode,
                         grid_angle=0.3)
    scenario = Scenario(config=config, initial_deltas=tuple(PI * math.sin(1.7 * i)
                                                            for i in range(n)),
                        duration=0.05, dt=1e-3, record_decimation=1)
    assert _outcome(scenario, c_kernel) == _outcome(scenario, None)


def test_a_stretch_the_c_kernel_declines_runs_in_python(monkeypatch, c_kernel):
    # where a value is not finite the C kernel writes nothing back, and the run goes on in Python
    config = make_config()
    held = [0.2] * 4
    table = np.zeros((2, 17))
    deltas = [0.1, math.inf, 0.0, 0.0]
    assert _native.run(c_kernel, engine._bind(config, 1e-3), deltas, held, table, 0, 0, 1, 1,
                       1) is None
    assert held == [0.2] * 4 and deltas[1] == math.inf
    scenario = replace(_DEAD_GRID, record_decimation=3)
    want = _outcome(scenario, c_kernel)
    monkeypatch.setattr(_native, "run", lambda *args: None)
    assert _outcome(scenario, c_kernel) == want


@pytest.mark.parametrize("table", [
    np.zeros((2, 17), dtype=np.float32),
    np.zeros((17, 2)).T,
    np.zeros((2, 13)),
    np.zeros(34),
], ids=["float32", "transposed", "width", "flat"])
def test_the_c_kernel_refuses_a_table_it_cannot_fill(table, c_kernel):
    config = make_config()
    with pytest.raises(ValueError, match="a trace table is a writeable C-contiguous float64"):
        _native.run(c_kernel, engine._bind(config, 1e-3), [0.0] * 4, [0.2] * 4, table, 0, 0, 1,
                    1, 1)


def _stretch_on(chooser, constants, deltas, held, steps=2):
    """Steps 0 .. ``steps`` of one stretch, each recorded, on the kernel ``chooser`` picks.

    Returns the table, the angles and the held values after it, or None
    where the C kernel declines the stretch.
    """
    table = np.zeros((steps + 1, 1 + 4 * len(deltas)))
    found = chooser(0)
    run = engine._stretch if found is None else functools.partial(_native.run, found)
    out = run(constants, list(deltas), list(held), table, 0, 0, steps + 1, steps, 1)
    return None if out is None else (table, *out[:2])


def _hex_of(out):
    table, deltas, held = out
    return [[x.hex() for x in values] for values in (table.ravel().tolist(), deltas, held)]


# 0, TAU and 2 TAU, an ulp either side of TAU and 2 TAU, and values in and past [TAU, 2 TAU),
# where wrap's two shortcuts and its fmod meet; each next to its negation
_WRAP_EDGES = [y for x in (0.0, TAU, 2 * TAU, math.nextafter(TAU, 0.0),
                           math.nextafter(TAU, math.inf), math.nextafter(2 * TAU, 0.0),
                           math.nextafter(2 * TAU, math.inf), 1.5 * TAU, 3 * TAU,
                           7 * TAU + 0.5, 1e6)
               for y in (x, -x)]


def test_droop_errors_and_held_values_wrap_exactly_at_tau_and_two_tau(kernels):
    n = len(_WRAP_EDGES)
    # live: a resistive islanded circuit whose angles come in pairs +-x, so sum V is real and
    # positive, arg I is 0 and, with phi* = 0, each stage-1 droop error and held value is
    # remainder(x_i, TAU)
    live = make_config(n=n, phi_star=0.0, clamp=None, line=Impedance(0.314, 0.0))
    constants = engine._bind(live, 1e-3)
    z = constants[6]
    total = sum((cmath.rect(live.droop.nominal_voltage, x) for x in _WRAP_EDGES), 0j)
    assert total.imag == 0.0 and total.real > 0.0 and cmath.phase(total / z) == 0.0
    # dead: a matched grid-tied string at the grid angle 0 carries no current, so each stage-1
    # droop error is remainder(held_i - phi*, TAU) with phi* = 0
    dead = make_config(n=n, phi_star=0.0, clamp=None, v_grid=n * 78.75,
                       mode=Mode.GRID_CONNECTED)
    wrapped = [math.remainder(x, TAU) for x in _WRAP_EDGES]
    w_star, m = constants[1:3]
    omegas = [(w_star - m * e).hex() for e in wrapped]
    runs = {"live": (constants, _WRAP_EDGES, [0.0] * n),
            "dead": (engine._bind(dead, 1e-3), [0.0] * n, _WRAP_EDGES)}
    for name, (c, deltas, held) in runs.items():
        outcomes = []
        for path, chooser in kernels.items():
            out = _stretch_on(chooser, c, deltas, held)
            assert out is not None, (name, path)
            row = out[0][0].tolist()
            assert [x.hex() for x in row[1:1 + n]] == omegas, (name, path)
            assert [x.hex() for x in row[1 + 3 * n:]] == [
                x.hex() for x in (wrapped if name == "live" else held)], (name, path)
            outcomes.append(_hex_of(out))
        assert all(outcome == outcomes[0] for outcome in outcomes), name


_BIG = 2.0 ** 1000


@pytest.mark.parametrize("sum_v, band", [
    (complex(1.0, 0.0), 1.0),  # the larger part is the band
    (complex(-1.0, 1e-9), 1.0),  # ... and abs rounds to it
    (complex(math.nextafter(1.0, 2.0), 0.0), 1.0),  # an ulp above the band
    (complex(0.0, -math.nextafter(1.0, 2.0)), 1.0),
    (complex(0.75, -0.75), 1.0),  # both parts below the band, abs above it
    (complex(math.nextafter(1.0, 0.0), 1e-8), 1.0),  # below, and abs at most the band
    (complex(_BIG, 0.0), 1.0),  # where hypot is called again
    (complex(math.nextafter(_BIG, 0.0), -_BIG / 2), 1.0),
    (complex(0.0, 0.0), 0.0),
], ids=["at", "at-abs-rounds", "ulp-above", "ulp-above-imag", "abs-above", "below",
        "at-2^1000", "below-2^1000", "zero-band"])
def test_the_dead_band_decides_as_abs_at_its_edges(kernels, sum_v, band):
    # V* = 0, so every stage's sum V - V_g is exactly -drive: a stage is dead, and the
    # recorded row keeps the held sentinel, exactly where abs(sum) <= band
    c = list(engine._bind(make_config(n=1), 1e-3))
    c[0], c[7], c[8] = 0.0, -sum_v, band
    outcomes = []
    for path, chooser in kernels.items():
        out = _stretch_on(chooser, tuple(c), [0.0], [10.0])
        assert out is not None, path
        assert (out[0][0, -1] == 10.0) == (abs(sum_v) <= band), path
        outcomes.append(_hex_of(out))
    assert all(outcome == outcomes[0] for outcome in outcomes)


@pytest.mark.parametrize("sum_v", [complex(math.inf, 0.0), complex(math.nan, 2.0),
                                   complex(1.5 * 2.0 ** 1023, 1.5 * 2.0 ** 1023)],
                         ids=["inf", "nan", "abs-overflows"])
def test_the_c_kernel_declines_a_sum_whose_abs_is_not_finite(c_kernel, sum_v):
    # CPython's abs raises OverflowError on the last; the dead-band test calls hypot for each
    c = list(engine._bind(make_config(n=1), 1e-3))
    c[0], c[7] = 0.0, -sum_v
    assert _stretch_on(lambda module_steps: c_kernel, tuple(c), [0.0], [10.0]) is None


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=1000, deadline=None, database=None)
@seed(34)
@example(a=1.0, b=1e-9)
@example(a=5e-324, b=5e-324)
@example(a=math.nextafter(1.0, 0.0), b=1e-8)
@example(a=2.0 ** 1000, b=2.0 ** 1000)
@example(a=1.7e308, b=1e308)
@given(a=_FINITE, b=_FINITE)
def test_abs_of_a_complex_is_never_below_its_larger_part(a, b):
    # the libm hypot that CPython's abs(complex) and the C kernel call: a stage whose larger
    # part is above the dead band is live without the call
    try:
        size = abs(complex(a, b))
    except OverflowError:  # past float range, so above both parts
        return
    assert size >= max(abs(a), abs(b))

def _write_then_mismatch(found):
    def stretch(*args):  # the C kernel, then one ulp added to the table's first value
        end = found(*args)
        args[8][0] = math.nextafter(args[8][0], math.inf)
        return end

    return stretch


@pytest.mark.parametrize("reason", ["no compiler", "build error", "load error",
                                    "self-check mismatch"])
def test_each_failure_falls_back_once_with_one_warning(monkeypatch, tmp_path, caplog, kernels,
                                                       reason):
    if reason == "self-check mismatch":
        if "c" not in kernels:
            pytest.skip("no C kernel in this process")
        library = _write_then_mismatch(kernels["c"](0)), _native.csv_rows()
        monkeypatch.setattr(_native, "_build", lambda: library)
    else:
        # a stand-in compiler that exits 1, or writes a file that is not a library
        compilers = {"no compiler": None,
                     "build error": [sys.executable, "-c", "raise SystemExit(1)"],
                     "load error": [sys.executable, "-c", "import sys; open(sys.argv["
                                    "sys.argv.index('-o') + 1], 'w').write('not a library')"]}
        monkeypatch.setattr(_native, "compiler", lambda: compilers[reason])
    monkeypatch.setattr(_native, "_kernel", None)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    with caplog.at_level(logging.DEBUG, logger="cascade_droop"):
        assert _native.kernel(_native.MODULE_STEPS) is None
        assert _native.kernel(_native.MODULE_STEPS) is None  # tried once per process
        result = _hex(simulate(_DEAD_GRID))
    warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
    assert len(warnings) == 1 and f"the C kernel is not used ({reason}" in warnings[0]
    assert list(tmp_path.iterdir()) == []  # the build directory is gone
    for found in kernels.values():  # the same bytes as on each kernel
        assert result == _outcome(_DEAD_GRID, found(0))


@pytest.mark.parametrize("name, old, new", [
    # neighbouring angles compared with ==, which takes -0.0 for 0.0, where their bits must be
    ("_rk4.c", "return x != y;", "return a[i] != a[i - 1];"),
    # 10-digit ties below 1e9, on scaled's 64-bit shift path, rounded up instead of half to even
    ("_csv.c", "((r64 == half64) & (t64 & 1))", "(r64 == half64)"),
], ids=["kernel-compares-with-==", "rows-round-shift-ties-up"])
def test_the_self_check_refuses_a_library_built_from_a_mutant(monkeypatch, tmp_path, c_kernel,
                                                             name, old, new):
    sources = []
    for path in map(Path, _native._SOURCES):
        text = path.read_text(encoding="utf-8")
        if path.name == name:
            assert text.count(old) == 1
            text = text.replace(old, new)
        sources.append(tmp_path / path.name)
        sources[-1].write_text(text, encoding="utf-8")
    monkeypatch.setattr(_native, "_SOURCES", tuple(map(str, sources)))
    with pytest.raises(_native._Unavailable, match="self-check mismatch"):
        _native._checked(*_native._build())


def test_a_build_logs_its_compiler_and_seconds(monkeypatch, tmp_path, caplog, c_kernel):
    monkeypatch.setattr(_native, "_kernel", None)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    with caplog.at_level(logging.DEBUG, logger="cascade_droop"):
        assert _native.kernel(_native.MODULE_STEPS) is not None
    (record,) = caplog.records
    assert record.levelno == logging.DEBUG
    assert record.getMessage().startswith(
        f"cascade_droop: built the C kernel with {_native.compiler()[0]}")
    assert record.getMessage().endswith(" s")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.skipif((sys.platform, platform.machine()) != ("linux", "x86_64"),
                    reason="digests are pinned on Linux x86-64")
@pytest.mark.parametrize("reason, compiler", [
    ("no compiler", "None"),
    ("build error", "[sys.executable, '-c', 'raise SystemExit(1)']"),
], ids=["no-compiler", "build-error"])
def test_case_all_without_the_c_kernel_writes_the_pinned_bytes(tmp_path, reason, compiler):
    # the share threads run in this process, with its stand-in compiler
    script = (
        "import sys\n"
        "from cascade_droop import _native\n"
        "from cascade_droop.cli import main\n"
        f"_native.compiler = lambda: {compiler}\n"
        "sys.exit(main(['case', 'all', '--out', 'cases']))\n"
    )
    tmp = tmp_path / "tmp"
    tmp.mkdir()
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          cwd=tmp_path, env={**os.environ, "TMPDIR": str(tmp)})
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == _PINNED_DIGESTS["case all"]
    for k in range(1, 6):
        data = (tmp_path / "cases" / f"case{k}.csv").read_bytes()
        assert hashlib.sha256(data).hexdigest() == _PINNED_DIGESTS[f"case{k}.csv"]
    assert proc.stderr.count("\n") == 1, proc.stderr
    assert proc.stderr.startswith(f"cascade_droop: the C kernel is not used ({reason}")
    assert list(tmp.iterdir()) == []


def test_the_c_kernel_is_built_at_2e5_module_steps_and_then_kept(monkeypatch, c_kernel):
    builds, stretches = [], []
    run = _native.run
    library = c_kernel, _native.csv_rows()
    monkeypatch.setattr(_native, "_kernel", None)
    monkeypatch.setattr(_native, "_build", lambda: builds.append(1) or library)
    # each stretch's module count: the build's self-check runs n = 4, this string n = 64
    monkeypatch.setattr(_native, "run", lambda *args: stretches.append(len(args[2])) or run(*args))
    below = Scenario(config=make_config(n=64), initial_deltas=(0.1,) * 64, duration=3.124,
                     record_decimation=100)
    at = replace(below, duration=3.125)
    assert 64 * below.steps == _native.MODULE_STEPS - 64 and 64 * at.steps == _native.MODULE_STEPS
    simulate(below)
    assert (builds, stretches.count(64)) == ([], 0)  # the Python kernel
    simulate(at)
    assert (builds, stretches.count(64)) == ([1], 1)
    simulate(below)  # the kernel is loaded now, so a small run takes it too
    assert (builds, stretches.count(64)) == ([1], 2)


_ASKED = []


def _asking(module_steps):
    """A stand-in loader that records what it is asked."""
    _ASKED.append(module_steps)


def test_run_cases_asks_for_the_kernel_with_all_its_module_steps(monkeypatch, tmp_path):
    _ASKED.clear()
    monkeypatch.setattr(_native, "kernel", _asking)
    # one share on each of two usable CPUs
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    build_case, builds = cases.build_case, []
    monkeypatch.setattr(cases, "build_case", lambda k: builds.append(k) or build_case(k))
    cases.run_cases([1, 2], tmp_path)
    assert sorted(builds) == [1, 2]  # each scenario is built once, for the dealing and the run
    monkeypatch.setattr(cases, "build_case", build_case)
    scenarios = [build_case(k)[0] for k in (1, 2)]
    assert _ASKED[0] == sum(s.steps * s.config.n for s in scenarios)
    # the five built-in cases reach the rule together, and only case 4 on its own
    built = [cases.build_case(k)[0] for k in range(1, 6)]
    sizes = [s.steps * s.config.n for s in built]
    assert sum(sizes) >= _native.MODULE_STEPS
    assert [k for k, size in enumerate(sizes, 1) if size >= _native.MODULE_STEPS] == [4]


def _case_all_builds(tmp_path, method):
    """The process ids that build the C kernel in a ``case all`` on two shares, with ``method`` as
    the start method, and the parent's."""
    if _native.compiler() is None:
        pytest.skip("no C compiler on PATH")
    if method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"no {method} start method here")
    # a process started afresh would run this file as its main module and log as the parent does
    (tmp_path / "driver.py").write_text(
        "import logging, multiprocessing, os, sys\n"
        "logging.basicConfig(level=logging.DEBUG, format='%(process)d %(message)s')\n"
        "if __name__ == '__main__':\n"
        "    from cascade_droop.cli import main\n"
        "    logging.info('the parent')\n"
        "    os.sched_getaffinity = lambda pid: {0, 1}\n"
        f"    multiprocessing.set_start_method({method!r})\n"
        "    sys.exit(main(['case', 'all', '--out', 'cases']))\n")
    proc = subprocess.run([sys.executable, "driver.py"], capture_output=True, text=True,
                          cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "not used" not in proc.stderr
    lines = [line.partition(" ")[::2] for line in proc.stderr.splitlines()]
    (parent,) = [pid for pid, message in lines if message == "the parent"]
    return [pid for pid, message in lines if "built the C kernel" in message], parent


@pytest.mark.parametrize("method", ["spawn", "forkserver"])
def test_pool_workers_started_afresh_each_load_the_c_library(tmp_path, method):
    # the shares run on threads of the parent, so a start method that would give a worker process
    # nothing to inherit changes nothing: each share uses the one library the parent builds
    builds, parent = _case_all_builds(tmp_path, method)
    assert builds == [parent], builds


def test_forked_pool_workers_inherit_the_library_the_parent_builds(tmp_path):
    builds, parent = _case_all_builds(tmp_path, "fork")
    assert builds == [parent]
