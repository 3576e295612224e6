"""The abstract's benefits as seeded properties over generated configurations and timelines.

The dynamics halves measure each claim through the claim functions of
`cascade_droop.cases`, the same ones the built-in cases' CHECK lines use.
"""

import cmath
import math
from dataclasses import replace

from hypothesis import assume, example, given, seed, settings
from hypothesis import strategies as st

from cascade_droop import (
    DroopParams,
    Impedance,
    Mode,
    NoRootError,
    Scenario,
    SetLoad,
    SetPfRef,
    Stability,
    SweepAxis,
    SystemConfig,
    TimedEvent,
    Trace,
    generalized_load,
    grid_equilibrium,
    report_stability,
    simulate,
    wrap_angle,
)
from cascade_droop.cases import (
    _checks_case1,
    _segments,
    angle_spread,
    build_case,
    frequency_error,
    relative_spread,
    tracking_error,
)

PI = math.pi
V_GRID = 315.0


def grid_config(n, sizing, phi_star, line, m=0.5, grid_angle=0.0):
    """A grid-tied string whose sizing n V* / V_g is ``sizing``."""
    return SystemConfig(
        n=n,
        droop=DroopParams(50.0, sizing * V_GRID / n, phi_star, m, (49.0, 51.0)),
        grid_voltage=V_GRID,
        grid_angle=grid_angle,
        line=line,
        load=Impedance.from_rect(12.0, 0.0),
        mode=Mode.GRID_CONNECTED,
    )


lines = st.builds(Impedance, st.floats(1e-3, 10.0), st.floats(-PI / 2, PI / 2))
loads = st.builds(
    lambda kind, r, x: Impedance.from_rect(r, kind * x),  # R, RC or RL
    st.sampled_from((0.0, -1.0, 1.0)), st.floats(1.0, 30.0), st.floats(0.5, 30.0),
)
# a common angle plus offsets of at most 0.05 rad: a start within 0.1 rad of
# synchronized, since strings started from uniform angles can split
commons = st.floats(-PI, PI)
offsets = st.lists(st.floats(-0.05, 0.05), min_size=5, max_size=5)


def stretch_ends(config, common, offsets, events, stretch):
    """Simulate events at multiples of ``stretch`` s; the trace and its stretches."""
    scenario = Scenario(
        config=config,
        initial_deltas=tuple(common + x for x in offsets[:config.n]),
        events=tuple(TimedEvent(stretch * k, action) for k, action in enumerate(events, start=1)),
        duration=stretch * (len(events) + 1),
        dt=2e-3,
    )
    trace = simulate(scenario).trace
    return trace, _segments(scenario, trace)


@settings(max_examples=100, deadline=None, database=None)
@seed(5)
@given(
    n=st.integers(1, 8),
    sizing=st.floats(0.1, 3.0),
    m=st.floats(0.1, 10.0),
    angle_diff=st.floats(-PI, PI),
    first=lines,
    second=lines,
)
def test_benefit3_stability_report_ignores_the_line(n, sizing, m, angle_diff, first, second):
    # the verdict depends on n, the sizing and the string-to-grid angle only
    config = grid_config(n, sizing, 0.2, first, m=m)
    other = replace(config, line=second)
    sweep = (SweepAxis(-PI, PI, PI / 6), SweepAxis(0.5 * config.droop.nominal_voltage,
                                                   1.5 * config.droop.nominal_voltage,
                                                   0.25 * config.droop.nominal_voltage))
    assert report_stability(config, angle_diff=angle_diff) == report_stability(
        other, angle_diff=angle_diff)
    assert report_stability(config, sweep=sweep) == report_stability(other, sweep=sweep)


@settings(max_examples=600, deadline=None, database=None)
@seed(5)
@given(
    n=st.integers(1, 8),
    sizing=st.floats(0.1, 3.0),
    phi_star=st.floats(-PI, PI),
    line=lines,
    grid_angle=st.floats(-PI, PI),
)
# matched sizing next to zero current, where a cancelling root formula once
# returned t = 0 as a second stable root
@example(n=4, sizing=1.0, phi_star=1.7e-05, line=Impedance(0.314, PI / 2), grid_angle=0.0)
def test_benefit5_never_two_stable_equilibria(n, sizing, phi_star, line, grid_angle):
    config = grid_config(n, sizing, phi_star, line, grid_angle=grid_angle)
    try:
        roots = grid_equilibrium(config).roots
    except NoRootError:
        roots = ()
    assert sum(root.verdict is Stability.STABLE for root in roots) <= 1
    # an undersized string reaches every reference through one stable root; the
    # margin keeps the root out of the zero-power hole, which closes at sizing 1
    if sizing < 1.0 - 1e-6:
        assert [root.verdict for root in roots] == [Stability.STABLE]


@settings(max_examples=30, deadline=None, database=None)
@seed(5)
@given(
    n=st.integers(1, 5),
    m=st.floats(1.0, 2.0),
    phi_star=st.floats(-PI, PI),
    line=lines,
    timeline=st.lists(loads, min_size=2, max_size=3),
    common=commons,
    offsets=offsets,
)
def test_benefit4_islanded_frequency_is_the_closed_form_under_any_load(
        n, m, phi_star, line, timeline, common, offsets):
    # droop errors off the +/-pi seam, where modules on both sides split
    assume(all(abs(wrap_angle(generalized_load(line, load).angle - phi_star)) < PI - 0.3
               for load in timeline))
    config = replace(grid_config(n, 1.0, phi_star, line, m=m), load=timeline[0],
                     mode=Mode.ISLANDED)
    events = [SetLoad(load) for load in timeline[1:]]
    trace, stretches = stretch_ends(config, common, offsets, events, 4.0)
    for _, row, stretch_config in stretches:
        assert frequency_error(trace, row, stretch_config) < 1e-6


@settings(max_examples=25, deadline=None, database=None)
@seed(5)
@given(
    n=st.integers(1, 5),
    sizing=st.floats(0.1, 0.9),
    m=st.floats(4.0, 8.0),
    references=st.lists(st.floats(-PI, PI), min_size=2, max_size=4),
    line=lines,
    grid_angle=st.floats(-PI, PI),
    common=commons,
    offsets=offsets,
)
def test_benefit6_undersized_string_tracks_every_reference(
        n, sizing, m, references, line, grid_angle, common, offsets):
    # four quadrants: an undersized string reaches any reference, clamp and all
    config = grid_config(n, sizing, references[0], line, m=m, grid_angle=grid_angle)
    events = [SetPfRef(phi) for phi in references[1:]]
    trace, stretches = stretch_ends(config, common, offsets, events, 6.0)
    for _, row, stretch_config in stretches:
        assert tracking_error(trace, row, stretch_config) < 1e-4
        assert frequency_error(trace, row, stretch_config) < 1e-4


# --- the spread claim functions (case 1's power and case 3's checks) --------------

angle_lists = st.lists(st.floats(-PI, PI), min_size=1, max_size=8)


@settings(max_examples=200, deadline=None, database=None)
@seed(5)
@given(angles=angle_lists, rotation=st.floats(-PI, PI))
@example(angles=[3.0, -3.0, 0.1], rotation=0.5)
@example(angles=[PI, -PI + 1e-9, 2.0], rotation=-2.5)
def test_angle_spread_ignores_a_common_rotation(angles, rotation):
    # rotated angles are wrapped again, so some of them cross the +-pi seam
    rotated = [wrap_angle(a + rotation) for a in angles]
    assert abs(angle_spread(rotated) - angle_spread(angles)) <= 1e-12


@settings(max_examples=200, deadline=None, database=None)
@seed(5)
@given(angles=angle_lists)
def test_angle_spread_is_the_largest_pairwise_phase(angles):
    pairs = [abs(cmath.phase(cmath.exp(1j * (a - b)))) for a in angles for b in angles]
    assert abs(angle_spread(angles) - max(pairs)) <= 1e-12
    assert angle_spread(angles[:1]) == 0.0


nonzero = st.floats(1e-100, 1e100).flatmap(lambda x: st.sampled_from((x, -x)))


@settings(max_examples=200, deadline=None, database=None)
@seed(5)
@given(values=st.lists(st.one_of(st.just(0.0), nonzero), min_size=1, max_size=8),
       power=st.integers(-60, 60))
def test_relative_spread_is_scale_free(values, power):
    # a power-of-two scale is exact in every sum, difference and quotient
    scaled = [math.ldexp(x, power) for x in values]
    assert relative_spread(scaled) == relative_spread(values)
    assert relative_spread([values[0]] * len(values)) == 0.0
    assert relative_spread([0.0] * len(values)) == 0.0


def test_case1_power_spread_is_the_largest_relative_spread_of_its_rows():
    # case 1 takes relative_spread of every settled row in one pass over the block, to the bit,
    # also where a row carries no power
    scenario = build_case(1)[0]
    trace = simulate(scenario).trace
    segments = _segments(scenario, trace)
    settled = int(trace.times.searchsorted(segments[1][0] + 5.0 - 1e-12))
    n = scenario.config.n
    table = trace.table.copy()
    table[settled + 1, 1 + n:1 + 2 * n] = 0.0
    table[-1, 1 + n:1 + 2 * n] = [-1.0] + [0.5] * (n - 1)
    for each in (trace, Trace(table)):
        want = max(relative_spread(p) for p in each.active[settled:])
        got = {c.name: c.measured for c in _checks_case1(segments, each, 0.0)}
        assert got["active-power-equalized-within-5s"].hex() == want.hex()
