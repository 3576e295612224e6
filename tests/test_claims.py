"""The abstract's benefits as seeded properties over generated configurations."""

import math
from dataclasses import replace

from hypothesis import given, seed, settings
from hypothesis import strategies as st

from cascade_droop import (
    DroopParams,
    Impedance,
    Mode,
    NoRootError,
    Stability,
    SweepAxis,
    SystemConfig,
    grid_equilibrium,
    report_stability,
)

PI = math.pi
TAU = math.tau
V_GRID = 315.0


def grid_config(n, sizing, phi_star, line, m=0.5, grid_angle=0.0):
    """A grid-tied string whose sizing n V* / V_g is ``sizing``."""
    return SystemConfig(
        n=n,
        droop=DroopParams(TAU * 50.0, sizing * V_GRID / n, phi_star, m, (49.0, 51.0)),
        grid_voltage=V_GRID,
        grid_angle=grid_angle,
        line=line,
        load=Impedance.from_rect(12.0, 0.0),
        mode=Mode.GRID_CONNECTED,
    )


lines = st.builds(Impedance, st.floats(1e-3, 10.0), st.floats(-PI / 2, PI / 2))


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
