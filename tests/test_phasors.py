"""Phasor arithmetic and the trig-form power flows against a rectangular reference."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cascade_droop import (
    Impedance,
    Phasor,
    PowerPair,
    SingularImpedanceError,
    ValidationError,
    generalized_load,
    grid_power_flow,
    islanded_power_flow,
    power_factor_angle,
    wrap_angle,
)
from oracles import rect_power_flow

PI = math.pi


@given(angle=st.floats(allow_nan=False, allow_infinity=False), inside=st.floats(-PI, PI))
def test_wrap_angle_closed_interval(angle, inside):
    wrapped = wrap_angle(angle)
    assert -PI <= wrapped <= PI
    assert wrap_angle(wrapped) == wrapped
    assert wrap_angle(inside).hex() == inside.hex()  # the identity on [-pi, pi], signed zeros too
    assert wrap_angle(PI) == PI
    assert wrap_angle(-PI) == -PI
    assert abs(wrap_angle(3 * PI)) == pytest.approx(PI)
    assert wrap_angle(0.25) == 0.25
    assert wrap_angle(2 * PI - 0.2) == pytest.approx(-0.2)
    assert wrap_angle(-2 * PI + 0.3) == pytest.approx(0.3)


def test_phasor_wraps_angle_and_validates():
    p = Phasor(2.0, 3 * PI)
    assert abs(p.angle) == pytest.approx(PI)
    assert p.rect == pytest.approx(cmath.rect(2.0, PI))
    with pytest.raises(ValidationError):
        Phasor(-1.0, 0.0)
    with pytest.raises(ValidationError):
        Phasor(math.nan, 0.0)


def test_impedance_validation():
    with pytest.raises(ValidationError):
        Impedance(0.0, 0.0)
    with pytest.raises(ValidationError):
        Impedance(1.0, 2.0)  # outside the passive quadrant
    with pytest.raises(ValidationError):
        Impedance.from_rect(-1.0, 0.5)
    z = Impedance.from_rect(3.0, 4.0)
    assert z.magnitude == pytest.approx(5.0)
    assert z.angle == pytest.approx(math.atan2(4.0, 3.0))


def test_generalized_load_series_resistors():
    z = generalized_load(Impedance(1.0, 0.0), Impedance(1.0, 0.0))
    assert z.magnitude == pytest.approx(2.0)
    assert z.angle == pytest.approx(0.0)


def test_generalized_load_inductive_line_plus_resistor():
    # j0.314 line in series with R: magnitude sqrt(R^2 + 0.314^2), angle atan2(0.314, R)
    for r in (0.5, 12.0, 80.0):
        z = generalized_load(Impedance(0.314, PI / 2), Impedance(r, 0.0))
        assert z.magnitude == pytest.approx(math.hypot(r, 0.314), rel=1e-14)
        assert z.angle == pytest.approx(math.atan2(0.314, r), rel=1e-14)


def test_generalized_load_series_cancellation_is_singular():
    with pytest.raises(SingularImpedanceError):
        generalized_load(Impedance(1.0, PI / 2), Impedance(1.0, -PI / 2))


def test_islanded_symmetric_resistive_string():
    volts = [Phasor(1.0, 0.0), Phasor(1.0, 0.0)]
    flows = islanded_power_flow(volts, Impedance(1.0, 0.0))
    # 2 V across 1 ohm: 4 W total, each module carries half
    for pq in flows:
        assert pq.active == pytest.approx(2.0, abs=1e-15)
        assert pq.reactive == pytest.approx(0.0, abs=1e-15)


def test_islanded_single_module_pure_inductor():
    (pq,) = islanded_power_flow([Phasor(1.0, 0.0)], Impedance(1.0, PI / 2))
    assert pq.active == pytest.approx(0.0, abs=1e-15)
    assert pq.reactive == pytest.approx(1.0)


def test_grid_matched_voltage_carries_nothing():
    (pq,) = grid_power_flow([Phasor(315.0, 0.0)], Phasor(315.0, 0.0), Impedance(0.314, PI / 2))
    assert pq.active == pytest.approx(0.0, abs=1e-9)
    assert pq.reactive == pytest.approx(0.0, abs=1e-9)


def test_grid_sized_string_powers_vanish_at_zero_angle():
    # four modules at a quarter of the grid voltage sum to exactly the grid phasor
    zline = Impedance(0.314, PI / 2)
    grid = Phasor(315.0, 0.0)
    volts = [Phasor(78.75, 0.0)] * 4
    for pq in grid_power_flow(volts, grid, zline):
        assert abs(pq.active) < 1e-9
        assert abs(pq.reactive) < 1e-9
    # a small common angle moves the powers off zero only gently
    volts = [Phasor(78.75, 1e-6)] * 4
    for pq in grid_power_flow(volts, grid, zline):
        assert abs(pq.active) < 0.2
        assert abs(pq.reactive) < 0.2


def test_oracle_hand_values():
    # rotation of a single module leaves (P, Q) unchanged
    (pq,) = rect_power_flow([Phasor(1.0, PI / 2)], None, Impedance(1.0, 0.0))
    assert pq.active == pytest.approx(1.0)
    assert pq.reactive == pytest.approx(0.0, abs=1e-15)
    # hand value: S = 1 * conj((1 - (-j))/1) = 1 - j
    (pq,) = rect_power_flow(
        [Phasor(1.0, 0.0)], Phasor(1.0, -PI / 2), Impedance(1.0, 0.0)
    )
    assert pq.active == pytest.approx(1.0)
    assert pq.reactive == pytest.approx(-1.0)


def test_oracle_matches_islanded_symmetric_case():
    volts = [Phasor(1.0, 0.0), Phasor(1.0, 0.0)]
    for pq in rect_power_flow(volts, None, Impedance(1.0, 0.0)):
        assert pq.active == pytest.approx(2.0)
        assert pq.reactive == pytest.approx(0.0, abs=1e-15)


def _random_setup(rng):
    n = int(rng.integers(1, 9))
    volts = [
        Phasor(float(rng.uniform(20.0, 150.0)), float(rng.uniform(-PI, PI))) for _ in range(n)
    ]
    z = Impedance(float(10.0 ** rng.uniform(-1.0, 1.0)), float(rng.uniform(-PI / 2, PI / 2)))
    return volts, z


def _assert_flows_match(got, want, volts, z):
    v_sum = sum(v.magnitude for v in volts)
    for pq_a, pq_b, vi in zip(got, want, volts):
        scale = vi.magnitude * v_sum / z.magnitude  # triangle bound on |S_i|
        assert abs(pq_a.active - pq_b.active) <= 1e-12 * scale
        assert abs(pq_a.reactive - pq_b.reactive) <= 1e-12 * scale


_angles = st.floats(-PI, PI)


@given(
    volts=st.lists(st.builds(Phasor, st.floats(20.0, 150.0), _angles), min_size=1, max_size=8),
    z=st.builds(Impedance, st.floats(-1.0, 1.0).map(lambda u: 10.0**u), st.floats(-PI / 2, PI / 2)),
    grid=st.builds(Phasor, st.floats(0.0, 400.0), _angles),
)
def test_trig_forms_match_complex_oracle(volts, z, grid):
    _assert_flows_match(
        islanded_power_flow(volts, z), rect_power_flow(volts, None, z), volts, z
    )
    got = grid_power_flow(volts, grid, z)
    want = rect_power_flow(volts, grid, z)
    v_sum = sum(v.magnitude for v in volts) + grid.magnitude
    for pq_a, pq_b, vi in zip(got, want, volts):
        scale = vi.magnitude * v_sum / z.magnitude
        assert abs(pq_a.active - pq_b.active) <= 1e-12 * scale
        assert abs(pq_a.reactive - pq_b.reactive) <= 1e-12 * scale


def test_islanded_rotational_invariance():
    rng = np.random.default_rng(7)
    for _ in range(50):
        volts, z = _random_setup(rng)
        shift = float(rng.uniform(-PI, PI))
        shifted = [Phasor(v.magnitude, v.angle + shift) for v in volts]
        base = islanded_power_flow(volts, z)
        moved = islanded_power_flow(shifted, z)
        v_sum = sum(v.magnitude for v in volts)
        for pq_a, pq_b, vi in zip(base, moved, volts):
            scale = vi.magnitude * v_sum / z.magnitude
            assert abs(pq_a.active - pq_b.active) <= 1e-12 * scale
            assert abs(pq_a.reactive - pq_b.reactive) <= 1e-12 * scale


def test_islanded_power_balance():
    rng = np.random.default_rng(11)
    for _ in range(50):
        volts, z = _random_setup(rng)
        flows = islanded_power_flow(volts, z)
        current = sum(v.rect for v in volts) / z.rect
        i2 = abs(current) ** 2
        total_p = sum(pq.active for pq in flows)
        total_q = sum(pq.reactive for pq in flows)
        want_p = i2 * z.magnitude * math.cos(z.angle)
        want_q = i2 * z.magnitude * math.sin(z.angle)
        scale = max(abs(want_p), abs(want_q), i2 * z.magnitude)
        assert abs(total_p - want_p) <= 1e-10 * scale
        assert abs(total_q - want_q) <= 1e-10 * scale


def test_equal_angle_collapse_measures_load_angle():
    rng = np.random.default_rng(13)
    for _ in range(40):
        n = int(rng.integers(1, 9))
        v_star = float(rng.uniform(10.0, 120.0))
        common = float(rng.uniform(-PI, PI))
        z = Impedance(float(rng.uniform(0.5, 20.0)), float(rng.uniform(-PI / 2, PI / 2)))
        volts = [Phasor(v_star, common)] * n
        for pq in islanded_power_flow(volts, z):
            assert abs(power_factor_angle(pq, rated=pq.apparent) - z.angle) < 2e-15


def test_input_validation():
    with pytest.raises(ValidationError):
        islanded_power_flow([], Impedance(1.0, 0.0))
    with pytest.raises(ValidationError):
        PowerPair(math.inf, 0.0)
