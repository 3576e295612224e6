"""The C kernel: bit for bit the generated Python kernel, built once, and never a silent fallback."""

import cmath
import hashlib
import logging
import math
import os
import platform
import subprocess
import sys
import tempfile
from dataclasses import replace

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
    an islanded polygon) or on the seam: phi* puts module 0's droop error at
    pi, or within 1e-9 rad of it.  The clamp is off, normal or narrow.
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
    start = draw(st.sampled_from(["live", "dead", "seam"]))
    if start == "dead":
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
        st.builds(SetInitialDelta, st.integers(1, n), st.floats(-PI, PI)))
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


@settings(max_examples=250, deadline=None, database=None)
@seed(30)
@example(scenario=_DEAD_GRID)
@example(scenario=_AT_THE_DEAD_BAND)
@example(scenario=_native._probe())
@given(scenario=_runs())
def test_c_kernel_matches_the_python_kernel_bit_for_bit(c_kernel, scenario):
    # every row, final angle and held measurement, compared as float.hex
    assert _outcome(scenario, c_kernel) == _outcome(scenario, None)


def test_a_stretch_the_c_kernel_declines_runs_in_python(monkeypatch, c_kernel):
    # where a value is not finite the C kernel writes nothing back, and the run goes on in Python
    config = make_config()
    held = engine._Held([0.2] * 4)
    table = np.zeros((2, 17))
    deltas = [0.1, math.inf, 0.0, 0.0]
    assert _native.run(c_kernel, engine._bind(config, 1e-3), deltas, held, table, 0, 0, 1, 1,
                       1) is None
    assert held.angles == [0.2] * 4 and held.arg is None
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
        _native.run(c_kernel, engine._bind(config, 1e-3), [0.0] * 4, engine._Held([0.2] * 4),
                    table, 0, 0, 1, 1, 1)


def _write_then_mismatch(found):
    def stretch(*args):  # the C kernel, then one ulp added to the table's first value
        end = found(*args)
        args[10][0] = math.nextafter(args[10][0], math.inf)
        return end

    return stretch


@pytest.mark.parametrize("reason", ["no compiler", "build error", "load error",
                                    "self-check mismatch"])
def test_each_failure_falls_back_once_with_one_warning(monkeypatch, tmp_path, caplog, kernels,
                                                       reason):
    if reason == "self-check mismatch":
        if "c" not in kernels:
            pytest.skip("no C kernel in this process")
        monkeypatch.setattr(_native, "_build", lambda: _write_then_mismatch(kernels["c"](0)))
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
    monkeypatch.setattr(_native, "_kernel", None)
    monkeypatch.setattr(_native, "_build", lambda: builds.append(1) or c_kernel)
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


def test_run_cases_asks_for_the_kernel_with_all_its_module_steps(monkeypatch, tmp_path):
    asked = []
    monkeypatch.setattr(_native, "kernel", lambda module_steps: asked.append(module_steps))
    cases.run_cases([1, 2], tmp_path)
    scenarios = [cases.build_case(k)[0] for k in (1, 2)]
    assert asked[0] == sum(s.steps * s.config.n for s in scenarios)
    # the five built-in cases reach the rule together, and only case 4 on its own
    built = [cases.build_case(k)[0] for k in range(1, 6)]
    sizes = [s.steps * s.config.n for s in built]
    assert sum(sizes) >= _native.MODULE_STEPS
    assert [k for k, size in enumerate(sizes, 1) if size >= _native.MODULE_STEPS] == [4]
