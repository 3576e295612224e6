"""Time-domain engine: integrator, events, equilibria, convergence invariants."""

import cmath
import functools
import math
from dataclasses import fields, replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, seed, settings
from hypothesis import strategies as st

from cascade_droop import (
    DegeneratePointError,
    DroopParams,
    Impedance,
    Mode,
    NoRootError,
    Phasor,
    Scenario,
    SetInitialDelta,
    SetLine,
    SetLoad,
    SetMode,
    SetPfRef,
    Stability,
    SweepAxis,
    SystemConfig,
    TimedEvent,
    Trace,
    ValidationError,
    droop_frequency,
    generalized_load,
    grid_ab,
    grid_equilibrium,
    grid_jacobian,
    islanded_equilibrium,
    report_stability,
    simulate,
    synchronized_grid_power,
    wrap_angle,
)
from cascade_droop import _native, engine
from cascade_droop.cases import build_case
from cascade_droop.droop import ZERO_POWER_FRACTION
from cascade_droop.engine import apply_event
from oracles import (
    loop_plant,
    module_rows,
    phi_vector,
    power_scales,
    share_terms,
    trig_power_flow,
)

PI = math.pi
TAU = math.tau


def make_config(n=4, m=0.5, phi_star=0.2, v_star=78.75, v_grid=315.0, clamp=(49.0, 51.0),
                line=None, load=None, mode=Mode.ISLANDED, grid_angle=0.0):
    return SystemConfig(
        n=n,
        droop=DroopParams(50.0, v_star, phi_star, m, clamp),
        grid_voltage=v_grid,
        grid_angle=grid_angle,
        line=line or Impedance(0.314, PI / 2),
        load=load or Impedance.from_rect(12.0, 0.0),
        mode=mode,
    )


def simulate_from(config, deltas, duration, dt=None):
    """``simulate`` from ``deltas``, recording every step; one RK4 step unless ``dt`` is given."""
    dt = duration if dt is None else dt
    return simulate(Scenario(config=config, initial_deltas=tuple(deltas), duration=duration,
                             dt=dt, record_decimation=1))


# --- one step -------------------------------------------------------------------


def test_step_holds_exact_fixed_point():
    # reference angle set to the generalized-load angle: zero droop error
    line = Impedance(0.314, PI / 2)
    load = Impedance.from_rect(12.0, 0.0)
    theta = generalized_load(line, load).angle
    config = make_config(phi_star=theta, line=line, load=load)
    result = simulate_from(config, [0.3] * 4, 0.01)
    assert [s.delta for s in result.final_states] == [0.3] * 4
    assert result.trace.frequency_hz[-1].tolist() == pytest.approx([50.0] * 4, abs=1e-12 / TAU)


def test_step_contracts_two_module_spread():
    config = make_config(n=2)
    result = simulate_from(config, [0.1, -0.1], 0.01)
    f = result.trace.frequency_hz[-1]
    assert f[0] < f[1]  # leading module is slowed, lagging one sped up
    out = result.final_states
    assert out[0].delta - out[1].delta < 0.2


def test_step_validates_inputs():
    config = make_config(n=2)
    with pytest.raises(ValidationError, match="initial_deltas has 1 entries"):
        simulate_from(config, [0.0], 0.01)
    with pytest.raises(ValidationError, match="dt must be > 0"):
        simulate_from(config, [0.0, 0.0], 0.01, dt=-1.0)


def test_rk4_local_error_is_fifth_order():
    config = make_config(n=2, m=2.0, clamp=None)

    def advance(deltas, dt, substeps):
        final = simulate_from(config, deltas, dt, dt / substeps).final_states
        return np.array([s.delta for s in final])

    diffs = []
    for dt in (0.4, 0.2):
        one = advance([0.5, -0.5], dt, 1)
        two = advance([0.5, -0.5], dt, 2)
        diffs.append(np.max(np.abs(one - two)))
    ratio = diffs[0] / diffs[1]
    assert 20.0 < ratio < 45.0  # halving dt shrinks the one-vs-two gap ~2^5


@st.composite
def _one_step_runs(draw, ns=st.integers(1, 8)):
    n = draw(ns)
    v_grid = draw(st.floats(10.0, 1000.0))
    config = make_config(
        n=n, m=draw(st.floats(0.1, 10.0)), phi_star=draw(st.floats(-PI, PI)),
        v_star=draw(st.floats(0.1, 3.0)) * v_grid / n, v_grid=v_grid,
        clamp=draw(st.sampled_from([None, (49.0, 51.0), (49.9, 50.2)])),
        line=Impedance(draw(st.floats(0.01, 5.0)), draw(st.floats(-PI / 2, PI / 2))),
        load=Impedance.from_rect(draw(st.floats(0.5, 50.0)), draw(st.floats(-20.0, 20.0))),
        mode=draw(st.sampled_from([Mode.ISLANDED, Mode.GRID_CONNECTED])),
        grid_angle=draw(st.floats(-PI, PI)),
    )
    return config, draw(st.lists(st.floats(-10.0, 10.0), min_size=n, max_size=n))


# n V* e^{j 0.3} = V_g e^{j 0.3}: no current flows, so every module holds phi* and f*
_ZERO_CURRENT = (make_config(n=4, v_star=78.75, v_grid=315.0, mode=Mode.GRID_CONNECTED,
                             grid_angle=0.3), [0.3] * 4)


@settings(max_examples=300, deadline=None, database=None)
@seed(9)
@example(run=_ZERO_CURRENT)
@given(run=_one_step_runs())
def test_kernel_sample_matches_power_flow_and_droop_oracles(run):
    # the first trace row is the kernel's step-boundary sample at the initial angles
    config, deltas = run
    trace = simulate_from(config, deltas, 1e-3).trace
    rated, scale = power_scales(config)
    rows = module_rows(config, deltas)
    for i, (phi, p, q, f) in enumerate(rows):
        assert abs(trace.active[0, i] - p) <= 1e-12 * scale
        assert abs(trace.reactive[0, i] - q) <= 1e-12 * scale
        apparent = max(abs(p), abs(q))
        if 1e-13 * rated <= apparent <= 1e-3 * scale:
            continue  # near the hold threshold, or an angle that rounding dominates
        assert abs(wrap_angle(trace.pf_angle[0, i] - phi)) <= 1e-12 * PI
        if abs(wrap_angle(phi - config.droop.nominal_pf_angle)) < PI - 1e-9:  # off the seam
            assert abs(trace.frequency_hz[0, i] - f) <= 1e-12 * f
    if run is _ZERO_CURRENT:
        assert trace.pf_angle[0].tolist() == [config.droop.nominal_pf_angle] * 4
        assert trace.frequency_hz[0].tolist() == [config.droop.nominal_frequency] * 4


def test_kernel_and_droop_law_agree_on_the_seam():
    # resistive line, phi* = 0, n V* < V_g, every angle 0: the current is real and
    # negative, so every droop error starts exactly on the seam, at -pi
    config = make_config(v_star=50.0, phi_star=0.0, clamp=None, line=Impedance(0.314, 0.0),
                         mode=Mode.GRID_CONNECTED)
    trace = simulate(Scenario(config=config, initial_deltas=(0.0,) * 4, duration=20.0)).trace
    assert trace.pf_angle[0].tolist() == [-PI] * 4
    for phi, f in zip(trace.pf_angle[0].tolist(), trace.frequency_hz[0].tolist()):
        assert f == droop_frequency(phi, config.droop) / TAU
        assert f == pytest.approx(50.25, abs=1e-12)


@st.composite
def _step_calls(draw, ns=st.integers(1, 8)):
    """One RK4 step: config, angles, held angles and step size.

    About half the draws carry no current at any stage: an islanded polygon
    whose modules share one held angle turns rigidly and stays balanced, and
    a matched grid-tied string at the grid angle that holds phi* stays put.
    """
    config, deltas = draw(_one_step_runs(ns))
    n = config.n
    dt = draw(st.floats(2e-4, 0.1))
    held = draw(st.lists(st.floats(-PI, PI), min_size=n, max_size=n))
    if not draw(st.booleans()):
        theta = draw(st.floats(-PI, PI))
        if n >= 2 and draw(st.booleans()):
            config = replace(config, mode=Mode.ISLANDED)
            deltas = [theta + TAU * i / n for i in range(n)]
            held = [held[0]] * n
        else:
            config = replace(config, mode=Mode.GRID_CONNECTED, grid_angle=theta,
                             grid_voltage=n * config.droop.nominal_voltage)
            deltas = [theta] * n
            held = [config.droop.nominal_pf_angle] * n
    return config, deltas, held, dt


def _reference_step(config, deltas, held, dt):
    """A classical RK4 step whose four slopes come from the trig power flow and the droop law.

    Returns the new angles, the held angles after the step, the slopes, and
    per module whether its result is comparable.  A stage near the hold
    threshold, where rounding dominates the angle, or with a droop error on
    the seam spoils that module's slope; before stage 4 it also moves the
    module's next stage angle, and so every module's.  The held angles are
    None when the boundary is spoiled.
    """
    d = config.droop
    w_star = TAU * d.nominal_frequency
    rated, scale = power_scales(config)
    n = config.n
    comparable = [True] * n
    slopes = []
    for stage, h in enumerate((0.0, 0.5 * dt, 0.5 * dt, dt)):
        angles = [x + h * s for x, s in zip(deltas, slopes[-1])] if slopes else deltas
        rows = module_rows(config, angles)
        dead = [max(abs(row.active), abs(row.reactive)) < 1e-13 * rated for row in rows]
        k = []
        for i, row in enumerate(rows):
            phi = held[i] if dead[i] else row.phi
            near_hold = not dead[i] and max(abs(row.active), abs(row.reactive)) <= 1e-3 * scale
            if near_hold or abs(wrap_angle(phi - d.nominal_pf_angle)) >= PI - 1e-9:
                if stage < 3:
                    comparable = [False] * n
                comparable[i] = False
            k.append(droop_frequency(phi, d) - w_star)
        if stage == 0:
            if all(dead):
                after = held
            else:
                after = [row.phi for row in rows] if all(comparable) else None
        slopes.append(k)
    k1, k2, k3, k4 = slopes
    sixth = dt / 6.0
    new = [x + sixth * (a + 2.0 * (b + c) + e) for x, a, b, c, e in zip(deltas, k1, k2, k3, k4)]
    return new, after, slopes, comparable


# both modules far enough off phi* that the (49.9, 50.2) Hz clamp cuts their droop at every stage
_CLAMPED = (make_config(n=2, m=10.0, phi_star=0.0, clamp=(49.9, 50.2)),
            [1.0, -1.0], [0.0, 0.0], 1e-3)
# four phasors pi/2 apart, opposite ones sharing a held angle: each pair turns together,
# so no current flows at any stage and every module droops on its own held angle
_DEAD = (make_config(n=4), [0.0, PI / 2, PI, 3 * PI / 2], [0.5, -2.0, 0.5, -2.0], 5e-4)


@settings(max_examples=300, deadline=None, database=None)
@seed(17)
@example(call=_CLAMPED)
@example(call=_DEAD)
@given(call=_step_calls())
def test_kernel_step_matches_a_reference_rk4_step(call):
    # one kernel call advances a whole RK4 step, and stores the boundary's measurement
    config, deltas, held, dt = call
    w_star = TAU * config.droop.nominal_frequency
    hold = engine._Held(list(held))
    got = engine._plant(config, dt)(list(deltas), hold)
    want, want_held, slopes, comparable = _reference_step(config, deltas, held, dt)
    for i, ok in enumerate(comparable):
        if ok:
            # the tolerance of each slope, 1e-12 omega*, on the step's mean slope
            assert abs(got[i] - want[i]) <= 1e-12 * w_star * dt
    if want_held is held:  # a dead boundary keeps the held angles exactly
        assert hold.values() == held
    elif want_held is not None:
        assert max(abs(wrap_angle(a - b)) for a, b in zip(hold.values(), want_held)) <= 1e-12 * PI
    if call is _CLAMPED:
        assert slopes == [[TAU * 49.9 - w_star, TAU * 50.2 - w_star]] * 4
        assert got == want
    if call is _DEAD:
        assert slopes == [[droop_frequency(phi, config.droop) - w_star for phi in held]] * 4
        assert got == want and hold.values() == held


# each n is its own generated code object, so the draws span one to 64 modules
_KERNEL_NS = (1, 2, 3, 4, 5, 7, 8, 13, 16, 24, 31, 48, 64)


@st.composite
def _kernel_runs(draw):
    """``_step_calls`` over ``_KERNEL_NS``, maybe on the seam, then 1-3 steps each sampled or not.

    A seam draw sets phi* so that module 0's droop error at the start is pi,
    or within 1e-9 rad of it.
    """
    config, deltas, held, dt = draw(_step_calls(st.sampled_from(_KERNEL_NS)))
    if draw(st.booleans()):
        z, drive = engine._bind(config, dt)[6:8]  # the impedance the string drives, the drive
        total = sum((cmath.rect(config.droop.nominal_voltage, x) for x in deltas), 0j) - drive
        eps = draw(st.sampled_from([0.0, 1e-9, -1e-9]))
        phi_star = deltas[0] - cmath.phase(total / z) - PI + eps
        config = replace(config, droop=replace(config.droop, nominal_pf_angle=phi_star))
    return config, deltas, held, dt, draw(st.lists(st.booleans(), min_size=1, max_size=3))


def _bits(values):
    return [x.hex() for x in values]


@settings(max_examples=300, deadline=None, database=None)
@seed(23)
@given(run=_kernel_runs())
def test_generated_kernel_matches_the_loop_kernel_bit_for_bit(run):
    # the same angles, held measurement and sample lists as the loop kernel, step after step
    config, deltas, held, dt, sampled = run
    steps = engine._plant(config, dt), loop_plant(config, dt)
    states = [(list(deltas), engine._Held(list(held))) for _ in steps]
    for take in sampled:
        rows = []
        for i, (step, (xs, hold)) in enumerate(zip(steps, states)):
            sample = [] if take else None
            states[i] = (step(xs, hold, sample), hold)
            rows.append((_bits(states[i][0]), _bits(hold.angles), hold.arg,
                         sample and _bits(sample)))
        assert rows[0] == rows[1]
    got, want = (hold.values() for _, hold in states)
    assert _bits(got) == _bits(want)


@pytest.mark.parametrize("fraction, holds", [
    (0.5 * ZERO_POWER_FRACTION, True),
    (2.0 * ZERO_POWER_FRACTION, False),
    (5e-12, False),
], ids=["0.5-True", "2.0-False", "literal-5e-12-False"])
def test_kernel_dead_band_is_the_zero_power_fraction(fraction, holds):
    # |sum V - V_g| = fraction * n V*: held at half the rule, measured at twice, and
    # measured at a literal 5e-12, which pins the constant's value as well
    n, v_star = 4, 78.75
    v_grid = n * v_star * (1.0 - fraction)
    config = make_config(n=n, v_star=v_star, v_grid=v_grid, mode=Mode.GRID_CONNECTED)
    gap = n * v_star - config.grid_voltage  # exact: the string and the grid phasor are real
    assert gap == pytest.approx(fraction * n * v_star, rel=1e-3)
    sentinels = [10.0 + i for i in range(n)]
    held = engine._Held(list(sentinels))
    sample = []
    engine._plant(config, 1e-3)([0.0] * n, held, sample)
    # a real positive gap drives I at -arg Z_line, so each module measures arg Z_line
    want = sentinels if holds else [config.line.angle] * n
    assert held.values() == pytest.approx(want, abs=1e-12)
    assert sample[3 * n:] == held.values()


def _exactly_at_the_dead_band():
    """(V*, V_g) of a matched n = 2 string whose gap n V* - V_g is the kernel's dead band.

    The band 2^-32 V is a multiple of the spacing of floats near n V* ~ 233 V, so
    V_g = n V* - band is exact; V* is nudged by ulps until the band rounds to it.
    """
    n, band = 2, 2.0 ** -32
    v_star = band / (ZERO_POWER_FRACTION * n)
    for _ in range(8):
        if ZERO_POWER_FRACTION * n * v_star == band:  # the kernel's dead_band expression
            return v_star, n * v_star - band
        v_star = math.nextafter(v_star, math.inf if ZERO_POWER_FRACTION * n * v_star < band
                                else 0.0)
    raise AssertionError("no V* within 8 ulps rounds to the band")


def test_kernel_holds_at_exactly_the_dead_band():
    # |sum V - V_g| == dead band at every stage: each stage holds, on phi*, so no
    # module moves; a stage that measured instead would turn the string
    v_star, v_grid = _exactly_at_the_dead_band()
    config = make_config(n=2, v_star=v_star, v_grid=v_grid, mode=Mode.GRID_CONNECTED)
    assert 2 * v_star - v_grid == ZERO_POWER_FRACTION * 2 * v_star
    result = simulate_from(config, [0.0, 0.0], 1e-3)
    assert [s.delta for s in result.final_states] == [0.0, 0.0]
    assert result.trace.pf_angle.tolist() == [[0.2, 0.2]] * 2
    assert result.trace.frequency_hz.tolist() == [[50.0, 50.0]] * 2


def test_angle_differences_decay_exactly_exponentially():
    # equal-voltage islanded strings contract pairwise angle differences at
    # exactly the droop gain; RK4 should track exp(-m t) to float precision
    m = 0.7
    config = make_config(n=2, m=m, v_star=10.0, v_grid=0.0, clamp=None,
                         line=Impedance(0.1, PI / 2), load=Impedance.from_rect(3.0, 1.0))
    scenario = Scenario(config=config, initial_deltas=(0.4, -0.2), duration=6.0, dt=1e-3)
    final = simulate(scenario).final_states
    spread = final[0].delta - final[1].delta
    assert spread == pytest.approx(0.6 * math.exp(-m * 6.0), abs=1e-12)


@st.composite
def _off_seam_runs(draw):
    """A clamp-free run, n = 2..8, whose droop errors stay off the +/-pi seam.

    The initial angles spread over exactly ``spread`` <= 0.2 rad, and phi*
    sits at least 0.6 rad from the anti-reference, the measured angle at the
    start plus pi.  Islanded, the synchronized string measures the constant
    generalized-load angle.  Grid-connected the string is undersized
    (n V* < V_g), where d(phi)/d(delta) > 0: the common droop error shrinks
    monotonically and never reaches the seam.
    """
    n = draw(st.integers(2, 8))
    m = draw(st.floats(0.5, 4.0))
    line = Impedance(draw(st.floats(0.1, 1.0)), draw(st.floats(-PI / 2, PI / 2)))
    center = draw(st.floats(-PI, PI))
    spread = draw(st.floats(0.05, 0.2))
    inner = draw(st.lists(st.floats(-0.5, 0.5), min_size=n - 2, max_size=n - 2))
    deltas = [center + spread * u for u in [0.5, -0.5] + inner]
    mode = draw(st.sampled_from([Mode.ISLANDED, Mode.GRID_CONNECTED]))
    load = Impedance.from_rect(draw(st.floats(1.0, 20.0)), draw(st.floats(-10.0, 10.0)))
    grid_angle = draw(st.floats(-PI, PI))
    if mode is Mode.ISLANDED:
        v_star = draw(st.floats(10.0, 300.0))
        phi_start = generalized_load(line, load).angle
    else:
        v_star = draw(st.floats(0.1, 0.9)) * 315.0 / n
        v = cmath.rect(v_star, center)
        current = (n * v - cmath.rect(315.0, grid_angle)) / line.rect
        phi_start = cmath.phase(v * current.conjugate())
    phi_star = wrap_angle(phi_start + draw(st.floats(-(PI - 0.6), PI - 0.6)))
    config = make_config(n=n, m=m, phi_star=phi_star, v_star=v_star, clamp=None, line=line,
                         load=load, mode=mode, grid_angle=grid_angle)
    return Scenario(config=config, initial_deltas=tuple(deltas), duration=0.5), spread


@settings(max_examples=60, deadline=None, database=None)
@seed(3)
@given(run=_off_seam_runs())
def test_pairwise_angle_differences_decay_exactly_in_both_modes(run):
    # every module carries the same current, so phi_i - phi_j = delta_i - delta_j
    # and off the seam each difference obeys d/dt (delta_i - delta_j) = -m (delta_i - delta_j)
    scenario, spread = run
    m = scenario.config.droop.droop_gain
    d0 = scenario.initial_deltas
    result = simulate(scenario)
    trace = result.trace
    samples = list(zip(trace.times, trace.pf_angle.tolist()))
    samples.append((scenario.duration, [s.delta for s in result.final_states]))
    for t, angles in samples:
        decay = math.exp(-m * t)
        for i in range(len(d0)):
            for j in range(i + 1, len(d0)):
                got = wrap_angle(angles[i] - angles[j])
                assert abs(got - (d0[i] - d0[j]) * decay) <= 1e-10 * spread * decay


def test_common_mode_drifts_at_closed_form_rate():
    m = 0.7
    config = make_config(n=2, m=m, v_star=10.0, v_grid=0.0, clamp=None,
                         line=Impedance(0.1, PI / 2), load=Impedance.from_rect(3.0, 1.0))
    theta = generalized_load(config.line, config.load).angle
    scenario = Scenario(config=config, initial_deltas=(0.2, -0.2), duration=5.0, dt=1e-3)
    final = simulate(scenario).final_states
    mean_delta = 0.5 * (final[0].delta + final[1].delta)
    want = -m * wrap_angle(theta - 0.2) * 5.0  # symmetric start keeps the mean exact
    assert mean_delta == pytest.approx(want, abs=1e-9)


# --- scenarios ------------------------------------------------------------------


def test_run_scenario_deterministic():
    config = make_config()
    scenario = Scenario(config=config, initial_deltas=(0.3, 0.1, -0.1, -0.3),
                        events=(TimedEvent(1.0, SetLoad(Impedance.from_rect(12.0, 6.0))),),
                        duration=3.0, dt=1e-3)
    a = simulate(scenario).trace
    b = simulate(scenario).trace
    assert np.array_equal(a.times, b.times)
    assert np.array_equal(a.frequency_hz, b.frequency_hz)
    assert np.array_equal(a.active, b.active)
    assert np.array_equal(a.reactive, b.reactive)
    assert np.array_equal(a.pf_angle, b.pf_angle)


def test_trace_is_immutable():
    config = make_config()
    trace = simulate(Scenario(config=config, initial_deltas=(0.1, 0.0, 0.0, -0.1),
                              duration=0.5, dt=1e-3)).trace
    with pytest.raises(ValueError):
        trace.frequency_hz[0, 0] = 0.0


@pytest.mark.parametrize("table", [
    np.zeros(9),
    np.zeros((3, 1)),
    np.zeros((3, 4)),
    np.zeros((3, 6)),
    np.zeros((3, 8)),
], ids=["1-D", "1-column", "4-columns", "6-columns", "8-columns"])
def test_trace_refuses_a_table_that_is_not_1_plus_4n_columns(table):
    with pytest.raises(ValidationError, match=r"1 \+ 4n columns"):
        Trace(table)


@pytest.mark.parametrize("times", [
    [0.0, 0.0, 1.0],
    [0.0, 2.0, 1.0],
    [0.0, math.nan, 1.0],
    [math.nan],
], ids=["repeated", "decreasing", "nan-inside", "nan-alone"])
def test_trace_refuses_times_that_do_not_strictly_increase(times):
    table = np.zeros((len(times), 9))
    table[:, 0] = times
    with pytest.raises(ValidationError, match="strictly increasing"):
        Trace(table)


@pytest.mark.parametrize("n", [1, 3])
def test_trace_channels_are_read_only_column_blocks_of_its_table(n):
    # channel k of a (rows, 1 + 4n) table is columns 1 + k n .. (k + 1) n
    rows = 5
    table = np.arange(rows * (1 + 4 * n), dtype=float).reshape(rows, 1 + 4 * n)
    table[:, 0] = np.arange(rows)
    want = table.copy()
    trace = Trace(table)
    assert (len(trace), trace.module_count) == (rows, n)
    assert np.array_equal(trace.times, want[:, 0])
    channels = (trace.frequency_hz, trace.active, trace.reactive, trace.pf_angle)
    for k, channel in enumerate(channels):
        assert np.array_equal(channel, want[:, 1 + k * n:1 + (k + 1) * n])
        assert np.shares_memory(channel, trace.table)
    for array in (trace.table, trace.times, *channels):
        with pytest.raises(ValueError):
            array[0] = -1.0
    assert np.array_equal(trace.table, want)


def test_islanded_translation_symmetry():
    config = make_config(clamp=(49.0, 51.0))
    base = Scenario(config=config, initial_deltas=(0.3, 0.1, -0.1, -0.3), duration=4.0, dt=1e-3)
    shifted = Scenario(config=config,
                       initial_deltas=tuple(d + 1.234 for d in base.initial_deltas),
                       duration=4.0, dt=1e-3)
    ta = simulate(base).trace
    tb = simulate(shifted).trace
    apparent = np.hypot(ta.active, ta.reactive)  # natural scale of the power channels
    assert np.max(np.abs(ta.active - tb.active) / apparent) < 1e-12
    assert np.max(np.abs(ta.reactive - tb.reactive) / apparent) < 1e-12
    assert np.max(np.abs(ta.frequency_hz - tb.frequency_hz)) < 1e-12 * 50.0
    assert np.max(np.abs(ta.pf_angle - tb.pf_angle)) < 1e-12


def test_events_never_touch_angles_except_reset():
    config = make_config(mode=Mode.GRID_CONNECTED)
    events = (
        TimedEvent(0.5, SetPfRef(0.4)),
        TimedEvent(1.0, SetLine(Impedance(0.314, 0.0))),
        TimedEvent(1.5, SetMode(Mode.ISLANDED)),
        TimedEvent(2.0, SetLoad(Impedance.from_rect(6.0, 1.0))),
        TimedEvent(2.5, SetInitialDelta(2, 0.9)),
    )
    scenario = Scenario(config=config, initial_deltas=(0.41, 0.40, 0.39, 0.38),
                        events=events, duration=3.0, dt=1e-3)
    seen = []

    def watch(t, action, before, after):
        seen.append((t, type(action).__name__, max(abs(x - y) for x, y in zip(before, after)),
                     after))

    simulate(scenario, on_event=watch)
    assert len(seen) == 5
    for t, kind, jump, after in seen:
        if kind == "SetInitialDelta":
            assert after[1] == 0.9
        else:
            assert jump == 0.0


def test_singular_event_reports_its_time():
    from cascade_droop import SingularImpedanceError

    config = make_config()
    scenario = Scenario(config=config, initial_deltas=(0.1, 0.0, 0.0, -0.1),
                        events=(TimedEvent(1.5, SetLoad(Impedance(0.314, -PI / 2))),),
                        duration=3.0, dt=1e-3)
    with pytest.raises(SingularImpedanceError, match="t=1.5"):
        simulate(scenario).trace
    # on the grid the load is not in the current path: a cancelling load is
    # harmless until the switch to islanded puts it in series with the line
    scenario = Scenario(config=make_config(mode=Mode.GRID_CONNECTED),
                        initial_deltas=(0.1, 0.0, 0.0, -0.1),
                        events=(TimedEvent(1.0, SetLoad(Impedance(0.314, -PI / 2))),
                                TimedEvent(1.5, SetMode(Mode.ISLANDED))),
                        duration=3.0, dt=1e-3)
    with pytest.raises(SingularImpedanceError, match=r"t=1\.5"):
        simulate(scenario).trace


def _changed(before, after) -> set[str]:
    return {f.name for f in fields(before) if getattr(before, f.name) != getattr(after, f.name)}


def test_apply_event_mode_load_and_line_replace_one_field():
    config = make_config(mode=Mode.GRID_CONNECTED)
    line = Impedance(0.5, 0.3)
    load = Impedance.from_rect(3.0, -1.0)
    islanded = apply_event(config, SetMode(Mode.ISLANDED))
    assert _changed(config, islanded) == {"mode"} and islanded.mode is Mode.ISLANDED
    loaded = apply_event(config, SetLoad(load))
    assert _changed(config, loaded) == {"load"} and loaded.load == load
    relined = apply_event(config, SetLine(line))
    assert _changed(config, relined) == {"line"} and relined.line == line


@pytest.mark.parametrize("target, expected", [
    (PI + 0.3, -PI + 0.3),
    (-PI, -PI),
    (-PI - 0.3, PI - 0.3),
    (3 * TAU + 0.25, 0.25),
])
def test_apply_event_pf_reference_lands_in_closed_interval(target, expected):
    config = make_config()
    after = apply_event(config, SetPfRef(target))
    assert _changed(config, after) == {"droop"}
    assert _changed(config.droop, after.droop) == {"nominal_pf_angle"}
    phi = after.droop.nominal_pf_angle
    assert -PI <= phi <= PI
    assert phi == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("target", [math.nan, math.inf, -math.inf])
def test_apply_event_rejects_non_finite_pf_reference(target):
    with pytest.raises(ValidationError, match="nominal_pf_angle must be finite"):
        apply_event(make_config(), SetPfRef(target))


def test_apply_event_angle_reset_and_unknown_action():
    config = make_config()
    assert apply_event(config, SetInitialDelta(2, 0.7)) is config
    for index in (0, 5, 1.5):  # 1.5 reached simulate and failed there with a TypeError
        with pytest.raises(ValidationError, match=f"angle-reset index {index} outside 1..4"):
            apply_event(config, SetInitialDelta(index, 0.7))
    with pytest.raises(ValidationError, match="unsupported event action"):
        apply_event(config, "islanded")


def test_zero_power_startup_holds_reference_angle():
    # dead start: string phasor equals the grid phasor, so no current flows;
    # the held measurement keeps the loop quiescent instead of dividing 0/0
    config = make_config(mode=Mode.GRID_CONNECTED)
    scenario = Scenario(config=config, initial_deltas=(0.0, 0.0, 0.0, 0.0),
                        duration=1.0, dt=1e-3)
    trace = simulate(scenario).trace
    assert np.max(np.abs(trace.frequency_hz - 50.0)) < 1e-12
    assert np.max(np.abs(trace.active)) < 1e-9
    assert np.max(np.abs(trace.pf_angle - 0.2)) < 1e-12


@pytest.mark.parametrize("v_star", [78.75, 1e-100, 1e-160, 1e-200])
def test_zero_current_polygon_holds_at_any_voltage_scale(v_star):
    # four phasors pi/2 apart sum to zero current at any V*; at 1e-160 the
    # power scale n V*^2/|Z| underflows, so the rule must not read it
    config = make_config(v_star=v_star, mode=Mode.ISLANDED)
    trace = simulate_from(config, [0.0, PI / 2, PI, 3 * PI / 2], 1.0, dt=1e-3).trace
    assert np.max(np.abs(trace.frequency_hz - 50.0)) < 1e-12
    assert np.all(trace.pf_angle == 0.2)


@pytest.mark.parametrize("v_star", [1e-155, 1e-160, 1e-165])
def test_measured_angles_keep_their_digits_at_tiny_voltage(v_star):
    # below V* ~ 1e-154 each module's power V* |I| is subnormal; sum V - V_g is not
    config = make_config(v_star=v_star)
    deltas = [0.1, 0.2, 0.3, 0.4]
    sample = []
    engine._plant(config, 1e-3)(deltas, engine._Held([0.0] * 4), sample)
    want = phi_vector(deltas, 1.0, generalized_load(config.line, config.load))
    assert max(abs(wrap_angle(a - b)) for a, b in zip(sample[3 * len(deltas):], want)) <= 1e-13


def _case1_scaled(k):
    """Case 1's first 2.5 s, the island switch at 2 s included, with V* and V_g scaled by 2^k."""
    scenario = build_case(1)[0]
    config = scenario.config
    droop = replace(config.droop, nominal_voltage=math.ldexp(config.droop.nominal_voltage, k))
    config = replace(config, droop=droop, grid_voltage=math.ldexp(config.grid_voltage, k))
    events = tuple(ev for ev in scenario.events if ev.time <= 2.5)
    return simulate(Scenario(config=config, initial_deltas=scenario.initial_deltas,
                             events=events, duration=2.5, dt=scenario.dt)).trace


@functools.lru_cache(maxsize=1)
def _case1_reference():
    return _case1_scaled(0)


@settings(max_examples=25, deadline=None, database=None)
@seed(18)
@example(k=-554)  # V* = 1.3e-165, where per-module atan2 measured 0.176 rad off
@example(k=-517)  # P and Q next to the smallest normal
@example(k=-950)
@example(k=500)
@given(k=st.integers(-950, 500))
def test_traces_are_exact_under_power_of_two_voltage_scaling(k):
    # angles and frequencies do not depend on the voltage scale, and P, Q scale by 4^k
    ref = _case1_reference()
    trace = _case1_scaled(k)
    assert np.array_equal(trace.pf_angle, ref.pf_angle)
    assert np.array_equal(trace.frequency_hz, ref.frequency_hz)
    # P = Re(V conj(I)) sums two products; within 2^56 of the smallest normal a
    # subnormal product can move P's last bit, so only values above that compare
    floor = np.ldexp(np.finfo(float).tiny, 56)
    for got, base in ((trace.active, ref.active), (trace.reactive, ref.reactive)):
        want = np.ldexp(base, 2 * k)
        normal = np.abs(want) >= floor
        assert np.array_equal(got[normal], want[normal])


@st.composite
def _near_zero_current(draw):
    """A string with |sum V - V_g| about 1e-11..1e-14 of n V*: an islanded polygon or a
    grid-matched string, each angle nudged."""
    n = draw(st.integers(2, 8))
    islanded = draw(st.booleans())
    base = draw(st.floats(-PI, PI))
    scale = 10.0 ** -draw(st.floats(11.0, 14.0))
    deltas = [base + (TAU * i / n if islanded else 0.0) + scale * draw(st.floats(-1.0, 1.0))
              for i in range(n)]
    config = make_config(n=n, v_star=315.0 / n, grid_angle=base,
                         mode=Mode.ISLANDED if islanded else Mode.GRID_CONNECTED)
    return config, deltas


@settings(max_examples=300, deadline=None, database=None)
@seed(16)
@given(run=_near_zero_current())
def test_kernel_holds_all_modules_or_none(run):
    # every module carries the one string current, so |S_i| is the same for all
    config, deltas = run
    sentinels = [10.0 + i for i in range(config.n)]  # no measured angle reaches these
    held = engine._Held(list(sentinels))
    sample = []
    engine._plant(config, 1e-3)(deltas, held, sample)
    phis = sample[3 * config.n:]
    kept = [phi == mark for phi, mark in zip(phis, sentinels)]
    assert all(kept) or not any(kept)
    assert held.values() == (sentinels if all(kept) else phis)


def test_scenario_validation_errors():
    config = make_config()
    good = dict(config=config, initial_deltas=(0.0, 0.0, 0.0, 0.0), duration=1.0, dt=1e-3)
    with pytest.raises(ValidationError, match="sorted"):
        Scenario(**good, events=(TimedEvent(0.5, SetPfRef(0.1)),
                                 TimedEvent(0.2, SetPfRef(0.2))))
    with pytest.raises(ValidationError, match="outside"):
        Scenario(**good, events=(TimedEvent(5.0, SetPfRef(0.1)),))
    with pytest.raises(ValidationError, match="multiple"):
        Scenario(**good, events=(TimedEvent(0.0005, SetPfRef(0.1)),))
    # at t = 2 s the tolerance is 1e-9 * 2 s: 5e-8 s off the dt grid is refused, 1e-10 s snaps
    longer = dict(good, duration=3.0)
    with pytest.raises(ValidationError, match="event time 2.00000005 is not a multiple of dt"):
        Scenario(**longer, events=(TimedEvent(2.0 + 5e-8, SetPfRef(0.1)),))
    snapped = Scenario(**longer, events=(TimedEvent(2.0 + 1e-10, SetPfRef(0.1)),))
    assert snapped.schedule[1].step == 2000
    with pytest.raises(ValidationError, match="dt"):
        Scenario(config=config, initial_deltas=(0.0,) * 4, duration=1.0, dt=-1e-3)
    with pytest.raises(ValidationError, match="initial_deltas"):
        Scenario(config=config, initial_deltas=(0.0,) * 3, duration=1.0, dt=1e-3)
    with pytest.raises(ValidationError, match="decimation"):
        Scenario(**good, record_decimation=0)
    with pytest.raises(ValidationError, match="index"):
        Scenario(**good, events=(TimedEvent(0.5, SetInitialDelta(9, 0.0)),))
    for angle in (math.nan, math.inf, -math.inf):  # nan ran to an all-nan trace
        with pytest.raises(ValidationError, match="angle-reset angle must be finite"):
            Scenario(**good, events=(TimedEvent(0.5, SetInitialDelta(2, angle)),))


def test_scenario_refuses_m_dt_past_the_rk4_stability_limit():
    # the limit is the real root of z^3 + 4 z^2 + 12 z + 24, negated, to within an ulp
    def cubic(x):
        z = -Fraction(x)
        return z ** 3 + 4 * z ** 2 + 12 * z + 24

    limit = engine.RK4_STABILITY_LIMIT
    assert cubic(math.nextafter(limit, 0.0)) > 0 > cubic(math.nextafter(limit, 4.0))
    good = dict(config=make_config(n=2, m=1.0, clamp=None), initial_deltas=(0.1, -0.1),
                record_decimation=1)
    Scenario(**good, duration=limit, dt=limit)
    past = math.nextafter(limit, 4.0)
    with pytest.raises(ValidationError, match=r"^droop gain m = 1 /s at dt = 2.78529 s gives "
                       r"m\*dt = 2.78529, past RK4's stability limit 2.785293563405282 "):
        Scenario(**good, duration=past, dt=past)
    # inside the limit each pairwise angle mode advances by RK4's growth factor R(-m dt)
    dt = 2.7
    growth = 1.0 - dt + dt ** 2 / 2 - dt ** 3 / 6 + dt ** 4 / 24
    final = simulate(Scenario(**good, duration=20 * dt, dt=dt)).final_states
    assert final[0].delta - final[1].delta == pytest.approx(0.2 * growth ** 20, rel=1e-9)
    # a step sums six slopes of up to pi m: a gain for which that overflows is refused,
    # and one below it runs to finite angles at the largest stable dt
    with pytest.raises(ValidationError, match="the RK4 slope sum 6 pi m overflows"):
        Scenario(config=make_config(n=2, m=5e307, clamp=None), initial_deltas=(0.1, -0.1),
                 duration=5e-308, dt=5e-308)
    dt = 2.7e-306
    final = simulate(Scenario(config=make_config(n=2, m=1e306, clamp=None),
                              initial_deltas=(0.1, -0.1), duration=50 * dt, dt=dt)).final_states
    assert all(math.isfinite(s.delta) for s in final)


# A grid string next to zero current: m dt = 0.1 at dt = 0.2, but its one root's slow
# mode decays at lambda1 = -19.03 /s, so |lambda1| dt = 3.81
_FAST_ROOT = make_config(n=40, v_star=7.805406242661235, phi_star=-2.5323637894048843,
                         mode=Mode.GRID_CONNECTED)


def _largest_slow_mode_dt(config):
    """The stable root and the largest dt with |lambda1| dt within the slow-mode limit."""
    (root,) = grid_equilibrium(config).roots
    dt = engine.SLOW_MODE_LIMIT / -root.lambda_slow
    while -root.lambda_slow * dt > engine.SLOW_MODE_LIMIT:
        dt = math.nextafter(dt, 0.0)
    return root, dt


def test_scenario_refuses_a_grid_slow_mode_past_the_rk4_stability_limit():
    root, inside = _largest_slow_mode_dt(_FAST_ROOT)
    assert root.verdict is Stability.STABLE and root.lambda_slow == pytest.approx(-19.03, abs=5e-3)
    start = dict(config=_FAST_ROOT, initial_deltas=(0.0,) * 40)
    Scenario(**start, duration=inside, dt=inside)
    past = math.nextafter(inside, 1.0)
    with pytest.raises(ValidationError, match=(
            r"^grid slow mode lambda1 = -19.0282 /s at dt = 0.131739 s gives \|lambda1\|\*dt = "
            r"2.50676, past RK4's stability limit with a margin, 2.506764207064754 \(0.9 of "
            r"2.785293563405282\), in the config in force from t = 0 s$")):
        Scenario(**start, duration=past, dt=past)
    # a phi* event into the fast root is refused with the event's time; a slow start is not
    slow = replace(_FAST_ROOT, droop=replace(_FAST_ROOT.droop, nominal_pf_angle=0.0))
    assert grid_equilibrium(slow).roots[0].lambda_slow == pytest.approx(-0.5)
    good = dict(config=slow, initial_deltas=(0.0,) * 40, duration=2.0, dt=0.2)
    Scenario(**good)
    with pytest.raises(ValidationError,
                       match=r"lambda1 = -19.0282 /s at dt = 0.2 s .* from t = 0.4 s$"):
        Scenario(**good, events=(TimedEvent(0.4, SetPfRef(_FAST_ROOT.droop.nominal_pf_angle)),))
    # an islanded config and a grid config with no root have no slow mode to guard
    Scenario(**dict(start, config=replace(_FAST_ROOT, mode=Mode.ISLANDED)), duration=1.0, dt=1.0)
    rootless = make_config(v_star=118.125, mode=Mode.GRID_CONNECTED)
    with pytest.raises(NoRootError):
        grid_equilibrium(rootless)
    Scenario(config=rootless, initial_deltas=(0.0,) * 4, duration=5.0, dt=5.0)


def test_run_at_the_largest_slow_mode_dt_settles_to_its_root():
    # started 1e-3 rad to either side of delta_s, 273 steps (about 36 s) settle on the root;
    # at RK4's own limit the start below it rested 4.1e-3 rad off, at 50.0102 Hz
    root, dt = _largest_slow_mode_dt(_FAST_ROOT)
    for side in (-1.0, 1.0):
        result = simulate(Scenario(config=_FAST_ROOT,
                                   initial_deltas=(root.delta + side * 1e-3,) * 40,
                                   duration=273 * dt, dt=dt, record_decimation=273))
        assert all(abs(s.delta - root.delta) < 5e-5 for s in result.final_states)
        assert result.trace.frequency_hz[-1].tolist() == pytest.approx([50.0] * 40, abs=1e-3)


@st.composite
def _accepted_grid_runs(draw):
    """A grid config's stable root, a dt its ``Scenario`` accepts, and a start 1e-3 rad off it.

    Half the strings are sized within 1e-4..1e-1 of the grid voltage, next to zero current,
    where lambda1 is many times -m and the slow-mode limit, not m dt, bounds the step.
    """
    n = draw(st.integers(1, 6))
    m = draw(st.floats(0.05, 20.0))
    v_grid = draw(st.floats(1.0, 400.0))
    mismatch = st.floats(-4.0, -1.0).map(lambda e: 10.0 ** e)
    sizing = draw(st.floats(0.3, 3.0) | st.tuples(st.sampled_from([-1.0, 1.0]), mismatch).map(
        lambda pair: 1.0 + pair[0] * pair[1]))
    config = make_config(
        n=n, m=m, phi_star=draw(st.floats(-PI, PI)), v_star=sizing * v_grid / n, v_grid=v_grid,
        clamp=draw(st.sampled_from([None, (49.0, 51.0)])), mode=Mode.GRID_CONNECTED,
        line=Impedance(draw(st.floats(0.01, 10.0)), draw(st.floats(-PI / 2, PI / 2))),
        grid_angle=draw(st.floats(-PI, PI)),
    )
    try:
        equilibrium = grid_equilibrium(config)
    except NoRootError:
        assume(False)
    root = next(r for r in equilibrium.roots if r.delta == equilibrium.delta_s)
    assume(root.verdict is Stability.STABLE)
    largest = min(engine.SLOW_MODE_LIMIT / -root.lambda_slow, engine.RK4_STABILITY_LIMIT / m)
    dt = largest * draw(st.sampled_from([1.0]) | st.floats(0.05, 1.0))
    # 400 steps shrink the linear mode at lambda1 by RK4's growth factor, at most
    # 0.942 ** 400 = 4e-11 from |lambda1| dt = 0.06 up to the slow-mode limit
    assume(-root.lambda_slow * dt >= 0.06)
    side = draw(st.sampled_from([-1.0, 1.0]))
    try:
        scenario = Scenario(config=config, initial_deltas=(root.delta + side * 1e-3,) * n,
                            duration=400 * dt, dt=dt, record_decimation=400)
    except ValidationError:
        assume(False)  # rounding put the largest dt a hair past a limit
    return root, scenario


@settings(max_examples=300, deadline=None, database=None)
@seed(28)
@given(run=_accepted_grid_runs())
def test_every_accepted_grid_run_started_next_to_its_root_settles_to_it(run):
    root, scenario = run
    final = simulate(scenario).final_states
    assert max(abs(wrap_angle(s.delta - root.delta)) for s in final) < 1e-8


def test_scenario_schedule_groups_events_by_step():
    config = make_config(mode=Mode.GRID_CONNECTED)
    load = Impedance.from_rect(3.0, -1.0)
    events = (TimedEvent(0.0, SetInitialDelta(1, 0.3)),
              TimedEvent(0.5, SetMode(Mode.ISLANDED)),
              TimedEvent(0.5 + 1e-13, SetLoad(load)),  # the same step as 0.5
              TimedEvent(0.7, SetInitialDelta(2, 0.1)))
    scenario = Scenario(config=config, initial_deltas=(0.0,) * 4, events=events, duration=1.0)
    assert scenario.steps == 1000
    assert [(g.step, g.time, g.actions) for g in scenario.schedule] == [
        (0, 0.0, (events[0].action,)),
        (500, 0.5, (events[1].action, events[2].action)),
        (700, 0.7, (events[3].action,)),
    ]
    after = apply_event(apply_event(config, events[1].action), events[2].action)
    assert scenario.schedule[0].config is config
    assert scenario.schedule[1].config == after
    assert scenario.schedule[2].config is scenario.schedule[1].config
    # replace() builds a new scenario, so the schedule follows the new config
    clamp_off = replace(config, droop=replace(config.droop, freq_clamp=None))
    again = replace(scenario, config=clamp_off)
    assert again.schedule[1].config == replace(after, droop=clamp_off.droop)
    assert again != scenario and replace(scenario) == scenario


# --- events at t = 0 and at t = duration ------------------------------------------

# three starts of make_config's matched string (n V* = V_g): one live, two at zero current
_STARTS = {
    "live": (Mode.GRID_CONNECTED, (0.55, 0.45, 0.35, 0.25)),
    "islanded-polygon": (Mode.ISLANDED, (0.0, PI / 2, PI, 3 * PI / 2)),
    "matched-grid": (Mode.GRID_CONNECTED, (0.0,) * 4),
}
_ACTIONS = {
    "mode-islanded": st.just(SetMode(Mode.ISLANDED)),
    "mode-grid": st.just(SetMode(Mode.GRID_CONNECTED)),
    "load": st.builds(lambda r, x: SetLoad(Impedance.from_rect(r, x)),
                      st.floats(1.0, 20.0), st.floats(-10.0, 10.0)),
    "line": st.builds(lambda mag, theta: SetLine(Impedance(mag, theta)),
                      st.floats(0.05, 1.0), st.floats(-PI / 2, PI / 2)),
    "phi_star": st.builds(SetPfRef, st.floats(-PI, PI)),
    "delta": st.builds(SetInitialDelta, st.integers(1, 4), st.floats(-PI, PI)),
}
_CHANNELS = ("times", "frequency_hz", "active", "reactive", "pf_angle")


def _folded(scenario):
    """``scenario`` with its events at t = 0 folded into its config and initial angles."""
    config, deltas = scenario.config, list(scenario.initial_deltas)
    for ev in scenario.events:
        if ev.time == 0.0:
            config = apply_event(config, ev.action)
            if isinstance(ev.action, SetInitialDelta):
                deltas[ev.action.index - 1] = ev.action.delta
    return replace(scenario, config=config, initial_deltas=tuple(deltas),
                   events=tuple(ev for ev in scenario.events if ev.time > 0.0))


@pytest.mark.parametrize("kind", list(_ACTIONS))
@pytest.mark.parametrize("start", list(_STARTS))
@settings(max_examples=8, deadline=None, database=None)
@seed(23)
@given(data=st.data())
def test_events_at_t0_run_as_the_folded_scenario(start, kind, data):
    # the run starts after its t = 0 events, held measurement included: bit for bit
    # the run with those events folded in, from a live start or a dead one
    mode, deltas = _STARTS[start]
    config = make_config(mode=mode)
    events = (TimedEvent(0.0, data.draw(_ACTIONS[kind])), TimedEvent(0.05, SetPfRef(-0.3)))
    scenario = Scenario(config=config, initial_deltas=deltas, events=events, duration=0.1,
                        record_decimation=data.draw(st.sampled_from((1, 7, 10))))
    got, want = simulate(scenario), simulate(_folded(scenario))
    for name in _CHANNELS:
        assert getattr(got.trace, name).tobytes() == getattr(want.trace, name).tobytes(), name
    assert got.final_states == want.final_states


def test_a_t0_event_replaces_the_config_before_any_kernel_is_built():
    # the islanded start config cancels its line; a t = 0 load event takes it out first
    config = make_config(load=Impedance(0.314, -PI / 2))
    scenario = Scenario(config=config, initial_deltas=_STARTS["live"][1], duration=0.1,
                        events=(TimedEvent(0.0, SetLoad(Impedance.from_rect(12.0, 0.0))),))
    got, want = simulate(scenario), simulate(_folded(scenario))
    assert got.trace.frequency_hz.tobytes() == want.trace.frequency_hz.tobytes()


@pytest.mark.parametrize("decimation", [1, 7, 10])
@pytest.mark.parametrize("action", [
    SetMode(Mode.GRID_CONNECTED),
    SetLoad(Impedance.from_rect(6.0, 3.0)),
    SetLine(Impedance(0.5, 0.3)),
    SetPfRef(-0.3),
    SetInitialDelta(2, 1.0),
], ids=["mode", "load", "line", "phi_star", "delta"])
def test_an_event_at_duration_changes_only_the_last_row(action, decimation):
    base = Scenario(config=make_config(), initial_deltas=_STARTS["live"][1], duration=0.05,
                    record_decimation=decimation)
    plain = simulate(base)
    ended = simulate(replace(base, events=(TimedEvent(0.05, action),)))
    assert ended.trace.times.tobytes() == plain.trace.times.tobytes()
    for name in _CHANNELS[1:]:
        got, want = getattr(ended.trace, name), getattr(plain.trace, name)
        assert got[:-1].tobytes() == want[:-1].tobytes(), name
    # the last row measures the plant after the event, and no step follows it
    assert (ended.trace.frequency_hz[-1] != plain.trace.frequency_hz[-1]).all()
    deltas = [s.delta for s in plain.final_states]
    if isinstance(action, SetInitialDelta):
        deltas[action.index - 1] = action.delta
    assert [s.delta for s in ended.final_states] == deltas


def _dead_angles(config, offset):
    """Angles at which a matched string (n V* = V_g) carries no current in ``config``'s mode."""
    n = config.n
    if config.mode is Mode.GRID_CONNECTED:
        return [config.grid_angle] * n
    return [offset + TAU * i / n for i in range(n)]


def _reset_to_dead(scenario, step, offset):
    """``scenario`` with a group of angle resets at ``step`` into the dead set of the mode then."""
    t = step * scenario.dt
    before = [ev for ev in scenario.events if ev.time <= t]
    config = scenario.config
    for ev in before:
        config = apply_event(config, ev.action)
    resets = [TimedEvent(t, SetInitialDelta(i + 1, x))
              for i, x in enumerate(_dead_angles(config, offset))]
    return replace(scenario, events=(*before, *resets, *scenario.events[len(before):]))


@st.composite
def _deferred_runs(draw):
    """A matched string with all five event kinds, recorded every d >= 3 steps.

    Half the starts carry no current, and a group of angle resets on a step
    that neither it nor the step before records puts the string into the
    dead set of the mode in force.  Returns the scenario and that step.
    """
    n = draw(st.integers(2, 5))
    theta = draw(st.floats(-PI, PI))
    impedances = st.builds(Impedance, st.floats(0.05, 2.0), st.floats(-PI / 2, PI / 2))
    loads = st.builds(Impedance.from_rect, st.floats(0.5, 20.0), st.floats(-10.0, 10.0))
    config = make_config(n=n, m=draw(st.floats(0.5, 8.0)), phi_star=draw(st.floats(-PI, PI)),
                         v_grid=n * 78.75, clamp=draw(st.sampled_from([None, (49.0, 51.0)])),
                         line=draw(impedances), load=draw(loads),
                         mode=draw(st.sampled_from(Mode)), grid_angle=theta)
    if draw(st.booleans()):
        initial = _dead_angles(config, theta)
    else:
        initial = draw(st.lists(st.floats(-PI, PI), min_size=n, max_size=n))
    decim = draw(st.integers(3, 7))
    steps = draw(st.integers(4 * decim, 150))
    actions = [SetMode(draw(st.sampled_from(Mode))), SetLoad(draw(loads)),
               SetLine(draw(impedances)), SetPfRef(draw(st.floats(-PI, PI))),
               SetInitialDelta(draw(st.integers(1, n)), draw(st.floats(-PI, PI)))]
    at = [draw(st.integers(0, steps)) for _ in actions]
    events = [TimedEvent(k * 1e-3, a) for k, a in sorted(zip(at, actions), key=lambda p: p[0])]
    scenario = Scenario(config=config, initial_deltas=tuple(initial), events=tuple(events),
                        duration=steps * 1e-3, dt=1e-3, record_decimation=decim)
    step = draw(st.sampled_from([k for k in range(2, steps) if k % decim not in (0, 1)]))
    return _reset_to_dead(scenario, step, draw(st.floats(-PI, PI))), step


# the example scenario's string, live until every module is reset onto the grid angle at step 13
_LIVE_TO_DEAD = (_reset_to_dead(Scenario(
    config=make_config(mode=Mode.GRID_CONNECTED), initial_deltas=(0.55, 0.45, 0.35, 0.25),
    events=(TimedEvent(0.004, SetPfRef(0.5)), TimedEvent(0.02, SetMode(Mode.ISLANDED)),
            TimedEvent(0.025, SetLoad(Impedance.from_rect(12.0, 6.0))),
            TimedEvent(0.03, SetInitialDelta(3, 1.0)), TimedEvent(0.035, SetLine(Impedance(0.5, 1.0)))),
    duration=0.04, dt=1e-3, record_decimation=5), 13, 0.0), 13)


@settings(max_examples=60, deadline=None, database=None)
@seed(19)
@example(run=_LIVE_TO_DEAD)
@given(run=_deferred_runs())
def test_deferred_held_measurement_is_exact_at_any_decimation(run):
    # a step stores only its angles and arg I; recording every step forms the held
    # angles at every boundary, recording every d-th forms them only where read
    scenario, dead_step = run
    sparse = simulate(scenario)
    dense = simulate(replace(scenario, record_decimation=1))
    rows = list(range(0, scenario.steps + 1, scenario.record_decimation))
    if rows[-1] != scenario.steps:
        rows.append(scenario.steps)
    for name in ("times", "frequency_hz", "active", "reactive", "pf_angle"):
        assert np.array_equal(getattr(sparse.trace, name), getattr(dense.trace, name)[rows])
    assert sparse.final_states == dense.final_states
    # the reset step carries no current, so its row repeats the held angles of the step before
    assert dense.trace.pf_angle[dead_step].tolist() == dense.trace.pf_angle[dead_step - 1].tolist()


def test_simulate_binds_one_kernel_per_changed_config(monkeypatch, kernels):
    # the Python path builds one kernel per changed config, the C path binds its constants
    config = make_config(mode=Mode.GRID_CONNECTED)
    load = Impedance.from_rect(3.0, -1.0)
    events = (TimedEvent(0.2, SetMode(Mode.ISLANDED)),
              TimedEvent(0.2, SetLoad(load)),
              TimedEvent(0.4, SetInitialDelta(1, 0.3)),
              TimedEvent(0.6, SetLoad(load)))
    scenario = Scenario(config=config, initial_deltas=(0.0,) * 4, events=events, duration=1.0)
    for path, chooser in kernels.items():
        built = []
        counted = engine._plant if path == "python" else engine._bind

        def counting(config, dt, counted=counted):
            built.append(config)
            return counted(config, dt)

        with monkeypatch.context() as patch:
            patch.setattr(engine, counted.__name__, counting)
            patch.setattr(_native, "kernel", chooser)
            simulate(scenario)
        assert built == [config, scenario.schedule[1].config], path


def test_engine_omega_matches_droop_law():
    config = make_config(n=3, m=1.1, phi_star=0.15)
    scenario = Scenario(config=config, initial_deltas=(0.4, 0.0, -0.4), duration=2.0, dt=1e-3)
    result = simulate(scenario)
    trace = result.trace
    # the final state holds the last row's measurement; its frequency is that row's droop law
    assert [s.pf_angle for s in result.final_states] == trace.pf_angle[-1].tolist()
    for phi, f in zip(trace.pf_angle[-1], trace.frequency_hz[-1]):
        assert f == pytest.approx(droop_frequency(phi, config.droop) / TAU, abs=1e-12 / TAU)


def test_recording_keeps_the_final_step_off_the_decimation_grid():
    config = make_config(n=2)
    scenario = Scenario(config=config, initial_deltas=(0.1, -0.1), duration=0.021, dt=1e-3,
                        record_decimation=10)
    trace = simulate(scenario).trace
    assert len(trace) == 4
    assert trace.frequency_hz.shape == (4, 2)
    np.testing.assert_array_equal(trace.times, [k * 1e-3 for k in (0, 10, 20, 21)])
    np.testing.assert_allclose(trace.times, [0.0, 0.01, 0.02, 0.021], rtol=0, atol=1e-15)


def test_recording_with_decimation_beyond_the_run_keeps_both_ends():
    config = make_config(n=3)
    scenario = Scenario(config=config, initial_deltas=(0.1, 0.0, -0.1), duration=0.005,
                        dt=1e-3, record_decimation=100)
    trace = simulate(scenario).trace
    assert len(trace) == 2
    np.testing.assert_array_equal(trace.times, [0.0, 5e-3])


# --- integrator oracle -------------------------------------------------------------


# 10x the gap measured with scipy 1.17 (1.2e-13, 6.0e-13, 1.6e-7, 7.8e-13,
# 3.7e-12 rad); case 3's clamp engages and disengages, and at each kink the
# fixed-step RK4 loses its fourth order
@pytest.mark.parametrize("case_id, bound", [
    (1, 1.2e-12), (2, 6e-12), (3, 1.6e-6), (4, 7.8e-12), (5, 3.7e-11),
])
def test_rk4_angles_match_an_adaptive_integrator(case_id, bound):
    from scipy.integrate import solve_ivp

    scenario = build_case(case_id)[0]
    befores = []
    final = simulate(scenario, on_event=lambda t, a, before, after: befores.append(before))
    config, deltas, t = scenario.config, list(scenario.initial_deltas), 0.0
    gaps = []

    def integrate_to(t_end):
        nonlocal deltas, t
        if t_end > t:
            d = config.droop
            sol = solve_ivp(lambda _t, x: [droop_frequency(row.phi, d) - TAU * d.nominal_frequency
                                           for row in module_rows(config, x)],
                            (t, t_end), deltas, method="DOP853", rtol=1e-12, atol=1e-12)
            assert sol.success, sol.message
            deltas, t = sol.y[:, -1].tolist(), t_end

    for ev, before in zip(scenario.events, befores, strict=True):
        integrate_to(ev.time)
        gaps.append(max(abs(wrap_angle(a - b)) for a, b in zip(before, deltas)))
        if isinstance(ev.action, SetInitialDelta):
            deltas[ev.action.index - 1] = ev.action.delta
        else:
            config = apply_event(config, ev.action)
    integrate_to(scenario.duration)
    gaps.append(max(abs(wrap_angle(s.delta - b)) for s, b in zip(final.final_states, deltas)))
    assert max(gaps) <= bound


# --- convergence invariants -----------------------------------------------------


def test_islanded_convergence_to_closed_form():
    rng = np.random.default_rng(43)
    config = make_config(n=5, m=2.0, clamp=(49.0, 51.0),
                         load=Impedance.from_rect(10.0, 3.0))
    eq = islanded_equilibrium(config)
    base = float(rng.uniform(-PI, PI))
    deltas = tuple(base + float(rng.uniform(-PI / 4, PI / 4)) for _ in range(5))
    scenario = Scenario(config=config, initial_deltas=deltas, duration=12.0, dt=1e-3)
    result = simulate(scenario)
    final = result.final_states
    worst = max(
        abs(wrap_angle(a.delta - b.delta)) for a in final for b in final
    )
    assert worst < 1e-8
    freqs = result.trace.frequency_hz[-1]
    assert abs(float(np.mean(freqs)) - eq.frequency_hz) < 1e-4
    active, reactive = result.trace.active[-1], result.trace.reactive[-1]
    p_scale = np.abs(active).max()
    assert np.ptp(active) < 1e-6 * p_scale
    assert np.ptp(reactive) < 1e-6 * p_scale
    phis = [s.pf_angle for s in final]
    assert max(abs(wrap_angle(a - b)) for a in phis for b in phis) < 1e-8


def test_grid_steady_state_pins_nominal_frequency():
    # undersized string: unique, always-stable operating point for any reference
    config = make_config(v_star=23.625, m=1.0, phi_star=-0.8, mode=Mode.GRID_CONNECTED)
    scenario = Scenario(config=config, initial_deltas=(0.1, 0.05, -0.05, -0.1),
                        duration=30.0, dt=1e-3)
    result = simulate(scenario)
    for st in result.final_states:
        assert abs(wrap_angle(st.pf_angle + 0.8)) < 1e-6
    trace = result.trace
    assert np.abs(trace.frequency_hz[-1] - 50.0).max() < 1e-6 / TAU
    active, reactive = trace.active[-1], trace.reactive[-1]
    scale = np.hypot(active, reactive).max()
    assert np.ptp(active) < 1e-6 * scale
    assert np.ptp(reactive) < 1e-6 * scale


# --- equilibria -------------------------------------------------------------------


def test_islanded_equilibrium_closed_forms():
    # zero load angle: frequency rises by m * phi_star / tau
    config = make_config(line=Impedance(1e-9, 0.0), load=Impedance.from_rect(10.0, 0.0))
    eq = islanded_equilibrium(config)
    assert eq.frequency_hz == pytest.approx(50.01591549430919, abs=1e-12)
    assert eq.power.active == pytest.approx(4 * 78.75**2 / 10.0, rel=1e-9)
    assert eq.power.reactive == pytest.approx(0.0, abs=1e-6)
    # matching the reference angle lands exactly on nominal frequency
    theta = generalized_load(Impedance(0.314, PI / 2), Impedance.from_rect(12.0, 0.0)).angle
    eq = islanded_equilibrium(make_config(phi_star=theta))
    assert eq.frequency_hz == pytest.approx(50.0, abs=1e-12)


def test_islanded_equilibrium_rc_faster_than_rl():
    line = Impedance(1e-9, 0.0)
    f_rl = islanded_equilibrium(
        make_config(line=line, load=Impedance.from_rect(12.0, 6.0))
    ).frequency_hz
    f_rc = islanded_equilibrium(
        make_config(line=line, load=Impedance.from_rect(12.0, -6.0))
    ).frequency_hz
    assert f_rc > f_rl


@pytest.mark.parametrize("phi_star", [0.2, 1.7e-05])
def test_grid_equilibrium_matched_sizing_hand_root(phi_star):
    # matched string on an inductive line: synchronized angle is exactly 2*phi*;
    # at a small phi* the root is next to zero current, and the other root of
    # the quadratic is t = 0 itself, which is no operating point
    config = make_config(phi_star=phi_star, mode=Mode.GRID_CONNECTED)
    eq = grid_equilibrium(config)
    assert eq.delta_s == pytest.approx(2.0 * phi_star, abs=1e-9)
    assert len(eq.roots) == 1
    assert eq.roots[0].verdict is Stability.STABLE
    assert eq.roots[0].lambda_slow == pytest.approx(-0.25, abs=1e-9)
    # independent of the root solver's complex path: the trig-form measurement at the root
    assert abs(wrap_angle(module_rows(config, [eq.delta_s] * 4)[0].phi - phi_star)) < 1e-10


def test_grid_equilibrium_matched_sizing_has_no_zero_current_root():
    # a matched string reaches only a phi* within a quarter turn of the line
    # angle, here 0 < phi* < pi: just below 0 no root exists, and t = 0 is not one
    config = make_config(phi_star=-1.1e-05, mode=Mode.GRID_CONNECTED)
    with pytest.raises(NoRootError):
        grid_equilibrium(config)


@pytest.mark.parametrize("excess, lam", [(1e-8, 1.97e6), (1e-11, 1.97e9)])
def test_grid_equilibrium_keeps_the_root_next_to_zero_current(excess, lam):
    # a string just above matched sizing: besides the stable root near 2 phi*,
    # a root at delta ~ 5 excess whose current is small but not zero
    config = make_config(v_star=78.75 * (1.0 + excess), mode=Mode.GRID_CONNECTED)
    low, high = grid_equilibrium(config).roots
    assert high.delta == pytest.approx(0.4, abs=1e-6)
    assert high.verdict is Stability.STABLE
    assert low.verdict is Stability.UNSTABLE
    assert low.lambda_slow == pytest.approx(lam, rel=1e-2)


@st.composite
def _near_matched_strings(draw):
    """Sizing n V*/V_g = 1 +- 10^-k with k in 2..12, uniform reference, line and grid angles."""
    n = draw(st.integers(1, 8))
    sizing = 1.0 + draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** -draw(st.floats(2.0, 12.0))
    return make_config(n=n, v_star=sizing * 315.0 / n, phi_star=draw(st.floats(-PI, PI)),
                       line=Impedance(0.314, draw(st.floats(-PI / 2, PI / 2))),
                       grid_angle=draw(st.floats(-PI, PI)), mode=Mode.GRID_CONNECTED)


@settings(max_examples=300, deadline=None, database=None)
@seed(17)
@given(config=_near_matched_strings())
def test_grid_roots_near_zero_current_have_finite_slow_modes(config):
    try:
        roots = grid_equilibrium(config).roots
    except NoRootError:
        roots = ()
    d = config.droop
    n, v_star, v_g, m = config.n, d.nominal_voltage, config.grid_voltage, d.droop_gain
    grid = Phasor(v_g, config.grid_angle)
    for root in roots:
        assert math.isfinite(root.lambda_slow)
        # V_g - n V* cos(dd) exactly, with cos(dd) = 1 - 2 sin^2(dd/2) from the float sine
        dd = wrap_angle(root.delta - config.grid_angle)
        margin = Fraction(v_g) - n * Fraction(v_star) * (1 - 2 * Fraction(math.sin(0.5 * dd)) ** 2)
        assert root.verdict is (Stability.STABLE if margin > 0 else Stability.UNSTABLE)
        pq = trig_power_flow([root.delta] * n, v_star, config.line, grid)[0]
        residual = wrap_angle(math.atan2(pq.reactive, pq.active) - d.nominal_pf_angle)
        assert abs(residual) <= 1e-12 * max(1.0, abs(root.lambda_slow) / m)


@pytest.mark.parametrize("eps", [1e-4, 1e-5, 1e-6])
def test_grid_equilibrium_resolves_near_tangent_root_pairs(eps):
    # the ray at phi* - theta_line grazes the circle of centre c and radius r:
    # a stable and an unstable root, 1.6, 0.5 and 0.16 degrees apart
    n, v_star, v_grid = 4, 157.5, 315.0
    c, r = n * v_star**2, v_star * v_grid
    phi_star = PI / 2 + math.asin(r / c * (1.0 - eps))
    for k in range(100):
        config = make_config(n=n, v_star=v_star, v_grid=v_grid, phi_star=phi_star,
                             mode=Mode.GRID_CONNECTED, grid_angle=-PI + k * TAU / 100)
        eq = grid_equilibrium(config)
        assert len(eq.roots) == 2
        assert {root.verdict for root in eq.roots} == {Stability.STABLE, Stability.UNSTABLE}
        for root in eq.roots:
            phi = module_rows(config, [root.delta] * n)[0].phi
            assert abs(wrap_angle(phi - phi_star)) < 1e-10


_SCAN_POINTS = 50_000


def _scanned_roots(config):
    """Brute-force oracle: sign changes of wrap(phi(delta) - phi*) on a dense grid.

    Returns the bracket midpoints.  Cells touching the zero-power hole and
    jumps of the wrapped residual across +-pi are not crossings.
    """
    d = config.droop
    step = TAU / _SCAN_POINTS
    deltas = -PI + step * np.arange(1, _SCAN_POINTS + 1)
    v = d.nominal_voltage * np.exp(1j * deltas)
    grid = cmath.rect(config.grid_voltage, config.grid_angle)
    s = v * np.conj((config.n * v - grid) / config.line.rect)
    residual = np.angle(s * cmath.exp(-1j * d.nominal_pf_angle))
    valid = np.abs(s) >= 1e-9 * config.n * d.nominal_voltage**2 / config.line.magnitude
    nxt = np.roll(residual, -1)
    crossing = (
        valid & np.roll(valid, -1)
        & ((residual > 0.0) != (nxt > 0.0))
        & (np.abs(nxt - residual) < PI)
    )
    return [wrap_angle(x + 0.5 * step) for x in deltas[crossing]]


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(1, 8),
    sizing=st.floats(0.3, 3.0),
    phi_star=st.floats(-PI, PI),
    line_angle=st.floats(-PI / 2, PI / 2),
    line_mag=st.floats(0.05, 5.0),
    grid_angle=st.floats(-PI, PI),
    m=st.floats(0.1, 6.0),
    point_angle=st.floats(-PI, PI),
    point_sizing=st.floats(0.3, 3.0),
)
def test_grid_equilibrium_and_verdicts_match_brute_force(
    n, sizing, phi_star, line_angle, line_mag, grid_angle, m, point_angle, point_sizing
):
    v_grid = 315.0
    v_star = sizing * v_grid / n
    c, r = n * v_star**2, v_star * v_grid
    # away from tangency of the ray with the circle, and of the circle with
    # the zero-power point, where a finite grid cannot resolve the roots
    assume(abs(r * r - (c * math.sin(phi_star - line_angle)) ** 2) > 1e-6 * c * c)
    assume(abs(r - c) > 1e-3 * c)
    config = make_config(n=n, m=m, phi_star=phi_star, v_star=v_star, v_grid=v_grid,
                         line=Impedance(line_mag, line_angle), mode=Mode.GRID_CONNECTED,
                         grid_angle=grid_angle)
    try:
        roots = [root.delta for root in grid_equilibrium(config).roots]
    except NoRootError:
        roots = []
    scanned = _scanned_roots(config)
    assert len(scanned) == len(roots)
    for delta in roots:
        assert min(abs(wrap_angle(delta - x)) for x in scanned) <= TAU / _SCAN_POINTS

    # the report's verdict shortcut against the Jacobian and its eigvalsh spectrum
    v_point = point_sizing * v_grid / n
    axis = (SweepAxis(point_angle, point_angle, 1.0), SweepAxis(v_point, v_point, 1.0))
    row = report_stability(config, sweep=axis).splitlines()[-1].split(": ", 1)[1]
    try:
        lin = grid_ab(n, v_point, v_grid, point_angle)
    except DegeneratePointError:
        assert row == "degenerate"
        return
    except ValidationError:
        assert row == "invalid"
        return
    assume(share_terms(n, v_point, v_grid, point_angle)[2] > 1e-3)
    model = grid_jacobian(lin, n, m)
    lam_text, verdict_text = row.split()
    lam1 = float(lam_text.removeprefix("lambda1="))
    assert verdict_text == f"verdict={model.stable.value}"
    want = sorted(model.numeric_eigs)
    got = sorted([lam1] + [-m] * (n - 1))
    assert got == pytest.approx(want, rel=1e-8, abs=1e-12)


def test_grid_equilibrium_undersized_unique_for_any_reference():
    for phi_star in (0.2, 2.5, -2.9, -PI / 4):
        config = make_config(v_star=23.625, phi_star=phi_star, mode=Mode.GRID_CONNECTED)
        eq = grid_equilibrium(config)
        assert len(eq.roots) == 1
        assert eq.roots[0].verdict is Stability.STABLE
        assert abs(wrap_angle(module_rows(config, [eq.delta_s] * 4)[0].phi - phi_star)) < 1e-10


def test_grid_equilibrium_degenerate_grid_voltage():
    # V_g = 0 collapses the angle to the line angle for every delta
    config = make_config(v_grid=0.0, phi_star=0.3, line=Impedance(0.5, 0.3),
                         mode=Mode.GRID_CONNECTED)
    eq = grid_equilibrium(config)
    s = synchronized_grid_power(config, eq.delta_s)
    assert math.atan2(s.reactive, s.active) == pytest.approx(0.3, abs=1e-12)
    config = make_config(v_grid=0.0, phi_star=0.2, line=Impedance(0.5, 0.3),
                         mode=Mode.GRID_CONNECTED)
    with pytest.raises(NoRootError):
        grid_equilibrium(config)


def test_simulate_refuses_a_current_past_float_range():
    # (n V* + V_g)/|Z| overflows while V* times it would not; the powers come out nan
    config = make_config(v_star=1e-30, v_grid=1e300, line=Impedance(1e-11, 0.0),
                         mode=Mode.GRID_CONNECTED)
    with pytest.raises(ValidationError, match=r"current \(n V\* \+ V_g\)/\|Z\| = inf A or V\* times it is not finite"):
        simulate_from(config, [0.1, 0.0, -0.1, 0.2], 1e-3)


def test_grid_equilibrium_roots_do_not_depend_on_the_voltage_scale():
    # n V*^2 x 4^250 squares past float range; the root quadratic reads only the shares
    config = build_case(1)[0].config
    scaled = replace(
        config,
        droop=replace(config.droop, nominal_voltage=math.ldexp(config.droop.nominal_voltage, 250)),
        grid_voltage=math.ldexp(config.grid_voltage, 250),
    )
    assert repr(grid_equilibrium(scaled)) == repr(grid_equilibrium(config))
    # n V* + V_g = 4e308 V is past float range itself
    with pytest.raises(ValidationError, match="exceed float range"):
        grid_equilibrium(make_config(v_star=1e308, mode=Mode.GRID_CONNECTED))


def test_grid_equilibrium_mode_guard():
    with pytest.raises(ValidationError):
        grid_equilibrium(make_config(mode=Mode.ISLANDED))
    with pytest.raises(ValidationError):
        islanded_equilibrium(make_config(mode=Mode.GRID_CONNECTED))


def test_perturbed_stable_root_returns():
    config = make_config(v_star=23.625, phi_star=1.1, m=1.0, clamp=None,
                         mode=Mode.GRID_CONNECTED)
    eq = grid_equilibrium(config)
    scenario = Scenario(config=config,
                        initial_deltas=tuple(eq.delta_s + 1e-3 for _ in range(4)),
                        duration=10.0, dt=2e-3)
    final = simulate(scenario).final_states
    for st in final:
        assert abs(wrap_angle(st.delta - eq.delta_s)) < 5e-5
