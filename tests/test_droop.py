"""The droop law: four-quadrant measurement, wrapped error, clamp."""

import math

import numpy as np
import pytest

from cascade_droop import (
    DroopParams,
    Impedance,
    Mode,
    PowerPair,
    Scenario,
    SetPfRef,
    SystemConfig,
    TimedEvent,
    ValidationError,
    ZeroPowerError,
    droop_frequency,
    power_factor_angle,
    simulate,
)

PI = math.pi
TAU = math.tau


def make_params(m=0.5, phi_star=0.2, f_star=50.0, v_star=78.75, clamp=(49.0, 51.0)):
    return DroopParams(f_star, v_star, phi_star, m, clamp)


def test_power_factor_angle_quadrants():
    assert power_factor_angle(PowerPair(1.0, 1.0)) == pytest.approx(PI / 4)
    assert power_factor_angle(PowerPair(-1.0, 1.0)) == pytest.approx(3 * PI / 4)
    assert power_factor_angle(PowerPair(-1.0, -1.0)) == pytest.approx(-3 * PI / 4)
    assert power_factor_angle(PowerPair(1.0, -1.0)) == pytest.approx(-PI / 4)


def test_power_factor_angle_zero_power_errors():
    with pytest.raises(ZeroPowerError):
        power_factor_angle(PowerPair(0.0, 0.0))
    with pytest.raises(ZeroPowerError):
        power_factor_angle(PowerPair(1e-9, -1e-9), rated=1e6)
    # the same powers are fine against a small rated power
    assert power_factor_angle(PowerPair(1e-9, -1e-9), rated=1.0) == pytest.approx(-PI / 4)


def test_power_factor_angle_matches_atan_where_p_positive():
    rng = np.random.default_rng(3)
    for _ in range(200):
        p = float(rng.uniform(0.1, 100.0))
        q = float(rng.uniform(-100.0, 100.0))
        assert power_factor_angle(PowerPair(p, q)) == pytest.approx(
            math.atan(q / p), abs=1e-15
        )


def test_droop_frequency_at_reference_is_nominal():
    params = make_params()
    assert droop_frequency(0.2, params) == pytest.approx(TAU * 50.0)


def test_droop_frequency_table_values():
    # phi=0 against phi*=0.2 at m=0.5 raises the frequency by 0.1 rad/s
    params = make_params()
    w = droop_frequency(0.0, params)
    assert w == pytest.approx(TAU * 50.0 + 0.1)
    assert w / TAU == pytest.approx(50.01591549430919)


def test_droop_error_wraps_across_seam():
    # phi and phi* on opposite sides of the seam: short-path error is -0.2
    params = make_params(phi_star=-PI + 0.1)
    w = droop_frequency(PI - 0.1, params)
    assert w == pytest.approx(TAU * 50.0 + 0.1)


def test_droop_linearity_and_monotonicity_unclamped():
    params = make_params(m=0.8, phi_star=0.7, clamp=None)
    rng = np.random.default_rng(5)
    for _ in range(200):
        e = float(rng.uniform(-PI + 1e-6, PI - 1e-6))
        plus = droop_frequency(params.nominal_pf_angle + e, params)
        minus = droop_frequency(params.nominal_pf_angle - e, params)
        assert plus + minus == pytest.approx(2 * TAU * params.nominal_frequency, rel=1e-12)
    errors = np.sort(rng.uniform(-PI + 1e-6, PI, size=50))
    freqs = [droop_frequency(params.nominal_pf_angle + e, params) for e in errors]
    assert all(a > b for a, b in zip(freqs, freqs[1:]))


def test_clamp_containment():
    params = make_params(m=5.0)
    rng = np.random.default_rng(9)
    for phi in rng.uniform(-4 * PI, 4 * PI, size=500):
        f = droop_frequency(float(phi), params) / TAU
        assert 49.0 <= f <= 51.0


def test_voltage_reference_is_constant():
    # no amplitude droop: every module holds V* whatever its droop error, so
    # the modules of the string, which share one current, share one |S| = V* |I|
    config = SystemConfig(n=3, droop=make_params(m=4.0), grid_voltage=315.0, grid_angle=0.0,
                          line=Impedance(0.314, PI / 2), load=Impedance.from_rect(12.0, 6.0),
                          mode=Mode.ISLANDED)
    scenario = Scenario(config=config, initial_deltas=(0.9, 0.0, -0.9),
                        events=(TimedEvent(0.1, SetPfRef(2.0)),), duration=0.2)
    result = simulate(scenario)
    apparent = np.hypot(result.trace.active, result.trace.reactive)
    assert np.ptp(apparent, axis=1).max() <= 1e-12 * apparent.max()


def test_params_validation():
    with pytest.raises(ValidationError):
        make_params(m=-1.0)
    with pytest.raises(ValidationError):
        make_params(m=0.0)
    with pytest.raises(ValidationError):
        DroopParams(50.0, 78.75, 0.2, 0.5, (51.0, 49.0))
    with pytest.raises(ValidationError):
        DroopParams(50.0, 78.75, 0.2, 0.5, (50.5, 51.0))  # band misses nominal
    for phi_star in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValidationError, match="nominal_pf_angle must be finite"):
            make_params(phi_star=phi_star)
    for f_star in (0.0, math.nan, math.inf, 1e308):  # 2 pi 1e308 overflows
        with pytest.raises(ValidationError, match="nominal_frequency must be > 0"):
            make_params(f_star=f_star, clamp=None)
    # 2 pi f* + pi m must be finite; just below that the unclamped law stays finite
    for m in (1e308, 6e307, math.inf, math.nan):
        with pytest.raises(ValidationError, match="droop_gain must be > 0"):
            make_params(m=m, clamp=None)
    params = make_params(m=5e307, clamp=None)
    for phi in (params.nominal_pf_angle + PI, params.nominal_pf_angle - PI + 1e-9):
        assert math.isfinite(droop_frequency(phi, params))
    # reference angle stored wrapped
    params = make_params(phi_star=2 * PI + 0.3)
    assert params.nominal_pf_angle == pytest.approx(0.3)

