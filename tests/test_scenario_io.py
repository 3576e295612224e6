"""Scenario text format: parsing, validation messages, round-trips."""

import math

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from cascade_droop import (
    DroopParams,
    Impedance,
    Mode,
    Scenario,
    ScenarioParseError,
    SetInitialDelta,
    SetLine,
    SetLoad,
    SetMode,
    SetPfRef,
    SystemConfig,
    TimedEvent,
    parse_scenario,
    serialize_scenario,
)
from cascade_droop.engine import RK4_STABILITY_LIMIT

PI = math.pi

BASELINE = """
# four modules tied to a stiff grid through an inductive line
[system]
n = 4
f_star = 50
v_star = 78.75
v_grid = 315
phi_star = 0.2
m = 0.5
mode = grid

[line]
mag = 0.314
theta = 1.5707963267948966

[load]
r = 12

[initial]
delta = 0.1, 0.05, -0.05, -0.1

[events]
2.0 mode islanded
6.0 load r=12 x=6
8.0 phi_star 0.75
9.0 delta 1 0.7853981633974483

[solver]
duration = 10
"""


def test_parse_baseline_fields():
    sc = parse_scenario(BASELINE)
    c = sc.config
    assert c.n == 4
    assert c.grid_voltage == 315.0
    assert c.droop.nominal_voltage == 78.75
    assert c.droop.droop_gain == 0.5
    assert c.droop.nominal_pf_angle == 0.2
    assert c.droop.nominal_frequency == 50.0
    assert c.mode is Mode.GRID_CONNECTED
    assert c.line.magnitude == 0.314
    assert c.line.angle == pytest.approx(PI / 2)
    assert c.load.magnitude == pytest.approx(12.0)
    assert sc.initial_deltas == (0.1, 0.05, -0.05, -0.1)
    # defaults
    assert sc.dt == 1e-3
    assert sc.record_decimation == 10
    assert c.droop.freq_clamp == (49.0, 51.0)
    # events
    kinds = [type(ev.action) for ev in sc.events]
    assert kinds == [SetMode, SetLoad, SetPfRef, SetInitialDelta]
    assert sc.events[1].action.load.magnitude == pytest.approx(math.hypot(12.0, 6.0))


def test_clamp_off_and_solver_overrides():
    text = BASELINE.replace("m = 0.5", "m = 0.5\nclamp = off").replace(
        "duration = 10", "duration = 12\ndt = 0.002\ndecimation = 4"
    )
    sc = parse_scenario(text)
    assert sc.config.droop.freq_clamp is None
    assert sc.dt == 0.002
    assert sc.record_decimation == 4
    assert sc.duration == 12.0


def test_load_from_inductance_and_capacitance():
    # reactances evaluated at f_star: x = w*l - 1/(w*c)
    w = math.tau * 50.0
    l = 6.0 / w
    text = BASELINE.replace("r = 12", f"r = 12\nl = {l!r}")
    sc = parse_scenario(text)
    assert sc.config.load.reactance == pytest.approx(6.0, rel=1e-12)
    c = 1.0 / (w * 5.0)
    text = BASELINE.replace("r = 12", f"r = 12\nc = {c!r}")
    sc = parse_scenario(text)
    assert sc.config.load.reactance == pytest.approx(-5.0, rel=1e-12)


def test_negative_gain_rejected_with_field_name():
    text = BASELINE.replace("m = 0.5", "m = -1")
    with pytest.raises(ScenarioParseError, match="droop_gain"):
        parse_scenario(text)


@pytest.mark.parametrize("old, new, message", [
    ("phi_star = 0.2", "phi_star = nan", "nominal_pf_angle must be finite"),
    ("8.0 phi_star 0.75", "8.0 phi_star nan", "nominal_pf_angle must be finite"),
    ("8.0 phi_star 0.75", "8.0 phi_star -inf", "nominal_pf_angle must be finite"),
    ("v_star = 78.75", "v_star = -1", "nominal_voltage"),
    ("f_star = 50", "f_star = 1e308", "f_star must be > 0 Hz, 2 pi f_star finite"),
    ("m = 0.5", "m = 1e308", r"droop_gain must be > 0 with 2 pi f\* \+ pi m finite"),
    ("mode = grid", "clamp = 51, 52\nmode = grid", "freq_clamp"),
    ("v_grid = 315", "v_grid = -1", "grid_voltage must be >= 0"),
    ("mode = grid", "grid_angle = inf\nmode = grid", "grid_angle must be finite"),
    ("v_star = 78.75", "v_star = abc", r"^line \d+: \[system\] v_star: not a number"),
    ("delta = 0.1, 0.05, -0.05, -0.1", "delta = 0.1, 0.05,, -0.05, -0.1", "not a number: ''"),
    ("delta = 0.1, 0.05, -0.05, -0.1", "delta = 0.1, 0.05, -0.05, -0.1,", "not a number: ''"),
], ids=["phi_star-key", "phi_star-event", "phi_star-event-inf", "v_star-key", "f_star-overflow",
        "m-overflow", "clamp-key", "v_grid-key", "grid_angle-key", "v_star-not-a-number",
        "initial-empty-entry", "initial-trailing-comma"])
def test_droop_errors_name_their_own_line(old, new, message):
    text = BASELINE.replace(old, new)
    lineno = text.splitlines().index(new.split("\n")[0]) + 1
    with pytest.raises(ScenarioParseError, match=message) as err:
        parse_scenario(text)
    assert err.value.line == lineno


def test_unknown_key_reports_line_number():
    text = BASELINE.replace("m = 0.5", "m = 0.5\nfrobnicate = 1")
    with pytest.raises(ScenarioParseError, match="line 10") as err:
        parse_scenario(text)
    assert "frobnicate" in str(err.value)


def test_unknown_section_and_event_kind():
    with pytest.raises(ScenarioParseError, match="unknown section"):
        parse_scenario(BASELINE + "\n[extras]\nx = 1\n")
    with pytest.raises(ScenarioParseError, match="unknown event kind"):
        parse_scenario(BASELINE.replace("8.0 phi_star 0.75", "8.0 wobble 0.75"))


def test_missing_required_bits():
    with pytest.raises(ScenarioParseError, match=r"\[solver\]"):
        parse_scenario(BASELINE.replace("[solver]\nduration = 10", ""))
    with pytest.raises(ScenarioParseError, match="duration"):
        parse_scenario(BASELINE.replace("duration = 10", "dt = 0.001"))
    with pytest.raises(ScenarioParseError, match="mode"):
        parse_scenario(BASELINE.replace("mode = grid\n", ""))


@pytest.mark.parametrize("value", ["nan", "inf", "0", "1e308"])
def test_bad_f_star_is_blamed_on_its_own_line_before_a_reactance(value):
    # an inductive load reads 2 pi f_star; a nan or inf reactance must not take the blame
    text = (BASELINE.replace("f_star = 50", f"f_star = {value}")
            .replace("r = 12", "r = 12\nl = 0.01"))
    with pytest.raises(ScenarioParseError, match="f_star must be > 0 Hz") as err:
        parse_scenario(text)
    assert err.value.line == text.splitlines().index(f"f_star = {value}") + 1


def test_initial_length_mismatch():
    text = BASELINE.replace("delta = 0.1, 0.05, -0.05, -0.1", "delta = 0.1, 0.2")
    with pytest.raises(ScenarioParseError, match="n=4"):
        parse_scenario(text)


@pytest.mark.parametrize("fields, message", [
    ("r12", "expected 'key = value' in [events], got 'r12'"),
    ("r=12 q=6", "unknown key 'q' in [events]"),
    ("r=12 R=6", "duplicate key 'r' in [events]"),
    ("r=", "empty value for 'r' in [events]"),
    ("", "impedance event needs at least one field"),
], ids=["malformed", "unknown", "duplicate", "empty", "no-fields"])
def test_event_impedance_fields_share_the_key_value_reader(fields, message):
    new = f"6.0 load {fields}".rstrip()
    text = BASELINE.replace("6.0 load r=12 x=6", new)
    with pytest.raises(ScenarioParseError) as err:
        parse_scenario(text)
    assert message in str(err.value)
    assert err.value.line == text.splitlines().index(new) + 1


def test_mixed_polar_and_rect_impedance_rejected():
    text = BASELINE.replace("mag = 0.314", "mag = 0.314\nr = 1")
    with pytest.raises(ScenarioParseError, match="polar form"):
        parse_scenario(text)


_impedances = st.builds(Impedance, st.floats(1e-3, 1e3), st.floats(-PI / 2, PI / 2))
_angles = st.floats(-10.0, 10.0)


@st.composite
def _scenarios(draw):
    n = draw(st.integers(1, 6))
    # the file and DroopParams both store the nominal frequency in Hz
    f_star = draw(st.floats(1e-3, 1e6))
    clamp = draw(st.none() | st.tuples(st.floats(0.01, 0.99), st.floats(1.01, 100.0)))
    dt = draw(st.sampled_from([1e-4, 1e-3, 2e-3]) | st.floats(1e-5, 1.0))
    # the gain stays inside RK4's stability limit on m dt, with a margin for rounding
    m = draw(st.floats(1e-3, min(100.0, 0.999 * RK4_STABILITY_LIMIT / dt)))
    droop = DroopParams(
        f_star, draw(st.floats(1e-3, 1e4)), draw(_angles), m,
        None if clamp is None else (clamp[0] * f_star, clamp[1] * f_star),
    )
    config = SystemConfig(
        n=n, droop=droop, grid_voltage=draw(st.floats(0.0, 1e4)), grid_angle=draw(_angles),
        line=draw(_impedances), load=draw(_impedances), mode=draw(st.sampled_from(Mode)),
    )
    steps = draw(st.integers(1, 10_000))
    actions = st.one_of(
        st.builds(SetMode, st.sampled_from(Mode)),
        st.builds(SetLoad, _impedances),
        st.builds(SetLine, _impedances),
        st.builds(SetPfRef, _angles),
        st.builds(SetInitialDelta, st.integers(1, n), _angles),
    )
    at = sorted(draw(st.lists(st.integers(0, steps), max_size=5)))
    return Scenario(
        config=config,
        initial_deltas=tuple(draw(st.lists(_angles, min_size=n, max_size=n))),
        events=tuple(TimedEvent(k * dt, draw(actions)) for k in at),
        duration=steps * dt,
        dt=dt,
        record_decimation=draw(st.integers(1, 100)),
    )


@given(sc=_scenarios())
@example(sc=parse_scenario(BASELINE))
def test_round_trip_is_stable(sc):
    text = serialize_scenario(sc)
    again = parse_scenario(text)
    assert again == sc
    assert serialize_scenario(again) == text


def test_round_trip_all_builtin_cases():
    from cascade_droop.cases import build_case

    for case_id in range(1, 6):
        scenario, _notes = build_case(case_id)
        text = serialize_scenario(scenario)
        assert parse_scenario(text) == scenario
