"""Jacobians, closed-form spectra, the eigvalsh eigensolver oracle, and verdicts."""

import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, seed, settings
from hypothesis import strategies as st

from cascade_droop import (
    AsymmetricMatrixError,
    DegeneratePointError,
    DroopParams,
    GridLinearization,
    Impedance,
    LinearModel,
    Mode,
    NoRootError,
    Phasor,
    Stability,
    SystemConfig,
    ValidationError,
    grid_ab,
    grid_equilibrium,
    grid_jacobian,
    islanded_jacobian,
    numeric_eigenvalues,
    report_stability,
    stability_condition,
    wrap_angle,
)
from cascade_droop.linearization import slow_mode
from oracles import central_difference, phi_vector, share_terms

PI = math.pi


# --- numeric eigensolver -----------------------------------------------------


def test_numeric_eigenvalues_identity_and_zero():
    assert numeric_eigenvalues(np.eye(3)) == pytest.approx([1.0, 1.0, 1.0])
    assert numeric_eigenvalues(np.zeros((4, 4))) == pytest.approx([0.0] * 4)


def test_numeric_eigenvalues_complete_graph_laplacian():
    # hand-computed characteristic polynomial of the 3x3 complete-graph
    # Laplacian gives {0, 3, 3}
    lap = [[2.0, -1.0, -1.0], [-1.0, 2.0, -1.0], [-1.0, -1.0, 2.0]]
    eigs = numeric_eigenvalues(lap)
    assert eigs == pytest.approx([0.0, 3.0, 3.0], abs=1e-11)


def test_numeric_eigenvalues_random_vs_numpy():
    rng = np.random.default_rng(17)
    for _ in range(30):
        n = int(rng.integers(2, 9))
        a = rng.normal(size=(n, n))
        a = (a + a.T) / 2.0
        got = numeric_eigenvalues(a)
        want = np.linalg.eigvalsh(a)
        assert got == pytest.approx(list(want), abs=1e-10)


def test_numeric_eigenvalues_rejects_bad_input():
    with pytest.raises(AsymmetricMatrixError):
        numeric_eigenvalues([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValidationError):
        numeric_eigenvalues([[1.0, 2.0]])


# --- islanded spectrum --------------------------------------------------------


def test_islanded_jacobian_examples():
    model = islanded_jacobian(4, 0.5)
    assert model.analytic_eigs == pytest.approx([-0.5, -0.5, -0.5, 0.0])
    assert model.stable is Stability.MARGINAL

    single = islanded_jacobian(1, 2.0)
    assert single.matrix == pytest.approx(np.zeros((1, 1)))
    assert single.analytic_eigs == pytest.approx([0.0])

    big = islanded_jacobian(6, 1.3)
    assert max(abs(a - b) for a, b in zip(big.analytic_eigs, big.numeric_eigs)) < 1e-9


def test_islanded_spectrum_exactly_one_zero_mode():
    for n in range(1, 17):
        model = islanded_jacobian(n, 0.9)
        eigs = sorted(model.numeric_eigs)
        zeros = [e for e in eigs if abs(e) < 1e-9]
        rest = [e for e in eigs if abs(e) >= 1e-9]
        assert len(zeros) == 1
        assert all(abs(e + 0.9) < 1e-9 for e in rest)


def test_islanded_jacobian_validation():
    with pytest.raises(ValidationError):
        islanded_jacobian(0, 0.5)
    with pytest.raises(ValidationError):
        islanded_jacobian(4, -0.5)


# --- grid linearization --------------------------------------------------------


def test_grid_ab_hand_value():
    lin = grid_ab(1, 1.0, 1.0, PI / 3)
    assert lin.a == pytest.approx(0.5)
    assert lin.b == pytest.approx(-0.5)
    assert lin.slow_rate == pytest.approx(0.5)  # w (w - u cos dd) / d at u = w = 1/2


def test_grid_ab_zero_grid_recovers_islanded_coefficients():
    for n in (1, 3, 7):
        lin = grid_ab(n, 42.0, 0.0, 1.234)
        assert lin.a == pytest.approx((n - 1) / n)
        assert lin.b == pytest.approx(-1.0 / n)


def test_grid_ab_identity_a_minus_b():
    rng = np.random.default_rng(23)
    for _ in range(2000):
        n = int(rng.integers(1, 9))
        v_star = float(rng.uniform(5.0, 150.0))
        v_g = float(rng.uniform(0.0, 400.0))
        dd = float(rng.uniform(-PI, PI))
        try:
            lin = grid_ab(n, v_star, v_g, dd)
        except DegeneratePointError:
            continue
        assert abs(lin.a - lin.b - 1.0) <= 1e-12


def test_grid_ab_degenerate_point():
    # string phasor meeting the grid phasor head-on: zero denominator
    with pytest.raises(DegeneratePointError):
        grid_ab(4, 78.75, 315.0, 0.0)


def test_grid_ab_near_degenerate_point_keeps_its_identity():
    # D ~ 1e-5 against terms ~ 1e5: the n^2 V*^2 + V_g^2 - 2 n V* V_g cos(dd)
    # form of D loses six digits here, and used to fail the a - b = 1 check
    n, v_star, v_g, m = 2, 0.99999 * 315.0 / 2, 315.0, 0.5
    config = SystemConfig(
        n=n,
        droop=DroopParams(50.0, v_star, 0.2, m),
        grid_voltage=v_g,
        grid_angle=0.0,
        line=Impedance(0.314, PI / 2),
        load=Impedance(12.0, 0.0),
        mode=Mode.GRID_CONNECTED,
    )
    row = report_stability(config, angle_diff=0.0).splitlines()[-1]
    assert row.startswith("point angle_diff=0: lambda1=")
    assert row.endswith(" verdict=stable")
    lin = grid_ab(n, v_star, v_g, 0.0)
    lam1 = -m * (lin.a + (n - 1) * lin.b)
    fs, fg = Fraction(v_star), Fraction(v_g)
    exact = -Fraction(m) * fg * (fg - n * fs) / (n * fs - fg) ** 2
    assert abs(Fraction(lam1) - exact) <= Fraction(1, 10**9) * abs(exact)
    # the relative identity bound still rejects a formula bug
    with pytest.raises(ValidationError, match="unit-difference"):
        GridLinearization(2.0, 0.5, 0.0)
    # and an error of a - b - 1 = 1e-4, which a bound of 1e-3 would let through
    with pytest.raises(ValidationError, match="unit-difference"):
        GridLinearization(1.5 + 1e-4, 0.5, 0.0)


def test_construction_checks_reject_nan():
    # every comparison with NaN is False, so each check must fail unless its bound holds
    with pytest.raises(ValidationError, match="unit-difference"):
        GridLinearization(math.nan, math.nan, 0.0)
    with pytest.raises(ValidationError, match="unit-difference"):
        GridLinearization(math.inf, 0.5, 0.0)
    for analytic, numeric in (((math.nan, 0.0), (0.0, 0.0)), ((-1.0, 0.0), (0.0, math.nan))):
        with pytest.raises(ValidationError, match="disagree"):
            LinearModel(np.zeros((2, 2)), analytic, numeric, Stability.MARGINAL)


def _exact_lambda_1(n, v_star, v_g, m, angle_diff):
    # -m V_g (V_g - n V* cos dd) / D in exact arithmetic, from the float sin^2 and
    # n V*: near the degenerate point lambda_1 amplifies even the rounding of n V*.
    # cos dd = 1 - 2 sin^2(dd/2) exactly; a float cos(dd) differs from it by an ulp.
    fs, fg = Fraction(n * v_star), Fraction(v_g)
    sin2 = Fraction(math.sin(0.5 * angle_diff) ** 2)
    cos_dd = 1 - 2 * sin2
    denom = (fs - fg) ** 2 + 4 * fs * fg * sin2
    return -Fraction(m) * fg * (fg - fs * cos_dd) / denom


def test_grid_ab_is_exact_until_the_voltage_sum_overflows():
    # V*^2 is past float range here, the voltage shares are not
    lin = grid_ab(4, 1e160, 315.0, 0.1)
    exact = _exact_lambda_1(4, 1e160, 315.0, 1.0, 0.1)
    assert abs(Fraction(-lin.slow_rate) - exact) <= Fraction(1, 10**12) * abs(exact)
    # n V* + V_g itself overflows
    with pytest.raises(ValidationError, match="exceed float range"):
        grid_ab(4, 1e308, 315.0, 0.1)


def _grid_config(n, v_star, phi_star=0.0, line_angle=0.0):
    return SystemConfig(
        n=n,
        droop=DroopParams(50.0, v_star, phi_star, 0.5),
        grid_voltage=315.0,
        grid_angle=0.0,
        line=Impedance(0.314, line_angle),
        load=Impedance(12.0, 0.0),
        mode=Mode.GRID_CONNECTED,
    )


@st.composite
def _grid_points(draw):
    """A grid-tied string of sizing n V*/V_g in 1e-8..1e8, and an angle to linearize at."""
    n = draw(st.integers(1, 8))
    v_star = 10.0 ** draw(st.floats(-8.0, 8.0)) * 315.0 / n
    config = _grid_config(n, v_star, draw(st.floats(-PI, PI)), draw(st.floats(-PI / 2, PI / 2)))
    return config, draw(st.floats(-PI, PI))


def _outcome(f, *args):
    # a result or the error it raised, printed so that every bit of a float shows
    try:
        return repr(f(*args))
    except (ValidationError, NoRootError) as exc:
        return repr(exc)


@settings(max_examples=300, deadline=None, database=None)
@seed(14)
@given(point=_grid_points(), k=st.integers(-400, 400))
def test_grid_analysis_is_free_of_the_voltage_scale(point, k):
    config, dd = point
    n, v_star, v_g, m = config.n, config.droop.nominal_voltage, config.grid_voltage, 0.5
    sv, sg = math.ldexp(v_star, k), math.ldexp(v_g, k)
    scaled = replace(config, droop=replace(config.droop, nominal_voltage=sv), grid_voltage=sg)
    try:
        lin = grid_ab(n, v_star, v_g, dd)
    except DegeneratePointError:
        with pytest.raises(DegeneratePointError):
            grid_ab(n, sv, sg, dd)
    else:
        # every field is dimensionless: the whole record is unchanged, bit for bit
        assert repr(grid_ab(n, sv, sg, dd)) == repr(lin)
    assert _outcome(slow_mode, n, sv, sg, m, dd) == _outcome(slow_mode, n, v_star, v_g, m, dd)
    assert _outcome(grid_equilibrium, scaled) == _outcome(grid_equilibrium, config)


@settings(max_examples=300, deadline=None, database=None)
@seed(15)
@given(point=_grid_points())
@example(point=(_grid_config(1, 315.0), 2.0**-7))  # slow_mode gives exactly -0.25
def test_slow_mode_matches_the_exact_closed_form(point):
    config, dd = point
    n, v_star, v_g, m = config.n, config.droop.nominal_voltage, config.grid_voltage, 0.5
    try:
        lam = slow_mode(n, v_star, v_g, m, dd)[0]
    except DegeneratePointError:
        assume(False)
    exact = _exact_lambda_1(n, v_star, v_g, m, dd)
    assume(abs(exact) >= Fraction(m) * Fraction(1, 10**6))
    assert abs(Fraction(lam) - exact) <= Fraction(1, 10**12) * abs(exact)


def test_grid_jacobian_accepts_large_slow_eigenvalues():
    # near D -> 0 the slow eigenvalue reaches |lambda_1| ~ 1e3..1e5, where an
    # absolute 1e-9 analytic-vs-numeric bound is below LAPACK's rounding
    n, v_star, v_g, m = 2, 157.40987, 315.0, 4.7
    for k in range(-2000, 2001):
        dd = k * 1e-5
        model = grid_jacobian(grid_ab(n, v_star, v_g, dd), n, m)
        assert model.stable is stability_condition(n, v_star, v_g, dd)


def test_grid_jacobian_fast_modes_are_minus_m():
    rng = np.random.default_rng(29)
    for _ in range(100):
        n = int(rng.integers(2, 9))
        m = float(rng.uniform(0.1, 3.0))
        lin = grid_ab(n, float(rng.uniform(10, 100)), float(rng.uniform(150, 400)),
                      float(rng.uniform(-PI, PI)))
        model = grid_jacobian(lin, n, m)
        fast = sorted(model.analytic_eigs, reverse=True)[: n - 1]
        # all but the slow mode sit exactly at -m
        assert any(e == -m for e in model.analytic_eigs)
        assert max(abs(a - b) for a, b in zip(sorted(model.analytic_eigs),
                                              sorted(model.numeric_eigs))) < 1e-9
        assert len(fast) == n - 1


def test_grid_jacobian_verdicts():
    # stable: quarter-turn angle keeps V_g - n V* cos positive
    lin = grid_ab(4, 78.75, 315.0, PI / 2)
    assert grid_jacobian(lin, 4, 0.5).stable is Stability.STABLE
    # unstable: oversized string aligned with the grid
    lin = grid_ab(4, 100.0, 315.0, 0.0)
    model = grid_jacobian(lin, 4, 0.5)
    assert model.stable is Stability.UNSTABLE
    lam1 = -0.5 * (lin.a + 3 * lin.b)
    assert lam1 == pytest.approx(0.5 * 315.0 * 85.0 / 7225.0)
    # marginal: grid voltage constructed to null the condition exactly
    dd = 0.6628
    v_g = 4 * 100.0 * math.cos(dd)
    assert stability_condition(4, 100.0, v_g, dd) is Stability.MARGINAL
    lin = grid_ab(4, 100.0, v_g, dd)
    assert grid_jacobian(lin, 4, 0.5).stable is Stability.MARGINAL


def test_marginal_band_is_closed_at_1e_12():
    # |lambda_1 / m| == 1e-12 exactly is marginal; the next float out is decided by sign
    for rate, verdict in ((1e-12, Stability.MARGINAL), (-1e-12, Stability.MARGINAL),
                          (math.nextafter(1e-12, 1.0), Stability.STABLE),
                          (math.nextafter(-1e-12, -1.0), Stability.UNSTABLE)):
        lin = GridLinearization((1.0 + rate) / 2.0, (rate - 1.0) / 2.0, rate)  # n = 2
        assert grid_jacobian(lin, 2, 0.5).stable is verdict


def test_stability_condition_examples_and_consistency():
    assert stability_condition(4, 78.75, 315.0, PI / 2) is Stability.STABLE
    assert stability_condition(4, 100.0, 315.0, 0.0) is Stability.UNSTABLE
    rng = np.random.default_rng(31)
    for _ in range(2000):
        n = int(rng.integers(1, 9))
        v_star = float(rng.uniform(5.0, 150.0))
        v_g = float(rng.uniform(10.0, 420.0))
        dd = float(rng.uniform(-PI, PI))
        try:
            lin = grid_ab(n, v_star, v_g, dd)
        except DegeneratePointError:
            continue
        m = float(rng.uniform(0.05, 4.0))
        assert stability_condition(n, v_star, v_g, dd) is grid_jacobian(lin, n, m).stable


# --- linearization vs finite differences ---------------------------------------


def test_islanded_linearization_matches_finite_differences():
    rng = np.random.default_rng(37)
    for _ in range(10):
        n = int(rng.integers(1, 7))
        v_star = float(rng.uniform(20.0, 120.0))
        z = Impedance(float(rng.uniform(0.5, 20.0)), float(rng.uniform(-PI / 2, PI / 2)))
        common = float(rng.uniform(-PI, PI))
        deltas = [common] * n
        phi_of = lambda d: phi_vector(d, v_star, z)
        for i in range(n):
            for k in range(n):
                want = (n - 1) / n if i == k else -1.0 / n
                assert abs(central_difference(phi_of, deltas, i, k) - want) < 1e-6


def test_grid_linearization_matches_finite_differences():
    rng = np.random.default_rng(41)
    done = 0
    while done < 10:
        n = int(rng.integers(1, 6))
        v_star = float(rng.uniform(20.0, 120.0))
        v_g = float(rng.uniform(100.0, 400.0))
        delta_s = float(rng.uniform(-PI, PI))
        delta_g = float(rng.uniform(-PI, PI))
        theta = float(rng.uniform(-PI / 2, PI / 2))
        try:
            lin = grid_ab(n, v_star, v_g, wrap_angle(delta_s - delta_g))
        except DegeneratePointError:
            continue
        u, w, d = share_terms(n, v_star, v_g, wrap_angle(delta_s - delta_g))
        if d < 0.05 * u * w:
            continue
        z = Impedance(0.5, theta)
        grid = Phasor(v_g, delta_g)
        # keep away from the zero-power hole where the angle is ill-conditioned
        string = abs(sum(Phasor(v_star, delta_s).rect for _ in range(n)) - grid.rect)
        if string < 1e-3 * n * v_star:
            continue
        deltas = [delta_s] * n
        phi_of = lambda d: phi_vector(d, v_star, z, grid)
        for i in range(n):
            for k in range(n):
                want = lin.a if i == k else lin.b
                assert abs(central_difference(phi_of, deltas, i, k) - want) < 1e-6
        done += 1
