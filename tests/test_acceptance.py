"""Acceptance suite: every criterion at its pinned tolerance.

Each test prints one ``CHECK <name> <pass|fail> measured=<v> tol=<t>`` line
(plus the per-case sub-check lines for the five built-in cases), then
asserts.  Run with ``pytest tests/test_acceptance.py -v -s`` to see them.
"""

import math
import subprocess
import sys
import time

import numpy as np

from cascade_droop import (
    DegeneratePointError,
    DroopParams,
    Impedance,
    Mode,
    Phasor,
    Scenario,
    SystemConfig,
    grid_ab,
    grid_jacobian,
    grid_power_flow,
    islanded_jacobian,
    islanded_power_flow,
    simulate,
    stability_condition,
    synchronized_grid_power,
    wrap_angle,
)
from cascade_droop.cases import run_case
from oracles import central_difference, phi_vector, rect_power_flow, share_terms

PI = math.pi


def _check(name: str, measured: float, tol: float, ok: bool | None = None) -> None:
    if ok is None:
        ok = measured <= tol
    print(f"CHECK {name} {'pass' if ok else 'fail'} measured={measured:.6g} tol={tol:.6g}")
    assert ok, f"{name}: measured {measured:.6g} vs tol {tol:.6g}"


# --- criterion 1: trig power flows match the rectangular reference --------------


def test_criterion_01_oracle_equivalence():
    rng = np.random.default_rng(101)
    worst = 0.0
    t0 = time.perf_counter()
    for _ in range(1000):
        n = int(rng.integers(1, 9))
        volts = [
            Phasor(float(rng.uniform(20.0, 150.0)), float(rng.uniform(-PI, PI)))
            for _ in range(n)
        ]
        z = Impedance(float(10.0 ** rng.uniform(-1.0, 1.0)),
                      float(rng.uniform(-PI / 2, PI / 2)))
        grid = Phasor(float(rng.uniform(0.0, 400.0)), float(rng.uniform(-PI, PI)))
        v_sum = sum(v.magnitude for v in volts)

        for got, want, extra in (
            (islanded_power_flow(volts, z), rect_power_flow(volts, None, z), 0.0),
            (grid_power_flow(volts, grid, z), rect_power_flow(volts, grid, z), grid.magnitude),
        ):
            for pq_a, pq_b, vi in zip(got, want, volts):
                scale = vi.magnitude * (v_sum + extra) / z.magnitude
                worst = max(worst,
                            abs(pq_a.active - pq_b.active) / scale,
                            abs(pq_a.reactive - pq_b.reactive) / scale)
    elapsed = time.perf_counter() - t0
    _check("criterion-01-oracle-equivalence", worst, 1e-12)
    _check("criterion-01-runtime-seconds", elapsed, 1.0)


# --- criterion 2: islanded spectrum ----------------------------------------------


def test_criterion_02_islanded_spectrum():
    rng = np.random.default_rng(102)
    worst = 0.0
    t0 = time.perf_counter()
    for n in range(1, 9):
        for _ in range(20):
            m = float(rng.uniform(0.05, 3.0))
            model = islanded_jacobian(n, m)
            want = sorted([0.0] + [-m] * (n - 1))
            worst = max(worst, max(abs(a - b) for a, b in
                                   zip(want, sorted(model.numeric_eigs))))
    elapsed = time.perf_counter() - t0
    _check("criterion-02-islanded-spectrum", worst, 1e-9)
    _check("criterion-02-runtime-seconds", elapsed, 1.0)


# --- criterion 3: grid spectrum with the denominator kept ------------------------


def test_criterion_03_grid_spectrum():
    rng = np.random.default_rng(103)
    worst_eig = 0.0
    worst_identity = 0.0
    verdicts_agree = True
    count = 0
    t0 = time.perf_counter()
    while count < 10_000:
        n = int(rng.integers(1, 9))
        v_star = float(rng.uniform(20.0, 150.0))
        v_g = float(rng.uniform(80.0, 400.0))
        dd = float(rng.uniform(-PI, PI))
        m = float(rng.uniform(0.05, 3.0))
        try:
            lin = grid_ab(n, v_star, v_g, dd)
        except DegeneratePointError:
            continue
        # non-degenerate draw: the denominator d keeps a 0.1% margin of the
        # squared shares u^2 + w^2, else the a/b quotients are ill-conditioned
        u, w, d = share_terms(n, v_star, v_g, dd)
        if d < 1e-3 * (u * u + w * w):
            continue
        count += 1
        worst_identity = max(worst_identity, abs(lin.a - lin.b - 1.0))
        model = grid_jacobian(lin, n, m)
        lam1 = -m * (lin.a + (n - 1) * lin.b)
        want = sorted([lam1] + [-m] * (n - 1))
        worst_eig = max(worst_eig, max(abs(a - b) for a, b in
                                       zip(want, sorted(model.numeric_eigs))))
        if stability_condition(n, v_star, v_g, dd) is not model.stable:
            verdicts_agree = False
    elapsed = time.perf_counter() - t0
    _check("criterion-03-grid-spectrum", worst_eig, 1e-9)
    _check("criterion-03-a-minus-b-identity", worst_identity, 1e-12)
    _check("criterion-03-verdict-consistency", 0.0 if verdicts_agree else 1.0, 0.0)
    _check("criterion-03-runtime-seconds", elapsed, 5.0)


# --- criterion 4: linearization vs central finite differences --------------------


def test_criterion_04_linearization_vs_finite_differences():
    rng = np.random.default_rng(104)
    worst = 0.0
    done = 0
    while done < 50:  # islanded points
        n = int(rng.integers(1, 7))
        v_star = float(rng.uniform(20.0, 120.0))
        z = Impedance(float(rng.uniform(0.5, 20.0)), float(rng.uniform(-PI / 2, PI / 2)))
        deltas = [float(rng.uniform(-PI, PI))] * n
        phi_of = lambda d: phi_vector(d, v_star, z)
        for i in range(n):
            for k in range(n):
                want = (n - 1) / n if i == k else -1.0 / n
                worst = max(worst, abs(central_difference(phi_of, deltas, i, k) - want))
        done += 1
    done = 0
    while done < 50:  # grid points
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
        grid = Phasor(v_g, delta_g)
        z = Impedance(0.5, theta)
        deltas = [delta_s] * n
        phi_of = lambda d: phi_vector(d, v_star, z, grid)
        for i in range(n):
            for k in range(n):
                want = lin.a if i == k else lin.b
                worst = max(worst, abs(central_difference(phi_of, deltas, i, k) - want))
        done += 1
    _check("criterion-04-linearization-fd", worst, 1e-6)


# --- criterion 5: stability verdict against time-domain behaviour ----------------


def _draw_equilibrium_config(rng):
    """A random grid-tied operating point made an exact equilibrium by
    choosing the reference angle from the measured one."""
    while True:
        n = int(rng.integers(1, 7))
        v_star = float(rng.uniform(30.0, 120.0))
        v_g = float(rng.uniform(100.0, 400.0))
        dd = float(rng.uniform(-PI, PI))
        m = float(rng.uniform(0.2, 1.5))
        theta_l = float(rng.uniform(-PI / 2, PI / 2))
        denom = n * n * v_star * v_star + v_g * v_g - 2 * n * v_star * v_g * math.cos(dd)
        if denom < 0.05 * n * v_star * v_g:
            continue
        lam1 = -m * v_g * (v_g - n * v_star * math.cos(dd)) / denom
        if not (0.1 * m <= abs(lam1) <= 5.0 * m):
            continue
        probe = SystemConfig(
            n=n,
            droop=DroopParams(50.0, v_star, 0.0, m, None),
            grid_voltage=v_g,
            grid_angle=0.0,
            line=Impedance(0.5, theta_l),
            load=Impedance.from_rect(10.0, 0.0),
            mode=Mode.GRID_CONNECTED,
        )
        s = synchronized_grid_power(probe, dd)
        if s.apparent < 1e-6 * n * v_star * v_star / 0.5:
            continue
        phi_star = math.atan2(s.reactive, s.active)
        config = SystemConfig(
            n=n,
            droop=DroopParams(50.0, v_star, phi_star, m, None),
            grid_voltage=v_g,
            grid_angle=0.0,
            line=Impedance(0.5, theta_l),
            load=Impedance.from_rect(10.0, 0.0),
            mode=Mode.GRID_CONNECTED,
        )
        return config, dd, lam1


def _measured_rate(config, delta_s, lam1):
    """Slope of log|wrapped angle error| under a 1e-3 rad common-mode nudge."""
    m = config.droop.droop_gain
    dt = 0.02 / max(m, abs(lam1))
    horizon = 2.6 / abs(lam1) if lam1 < 0 else math.log(4.0) / lam1
    steps = max(60, math.ceil(horizon / dt))
    scenario = Scenario(
        config=config,
        initial_deltas=tuple(delta_s + 1e-3 for _ in range(config.n)),
        duration=steps * dt,
        dt=dt,
        record_decimation=1,
    )
    trace = simulate(scenario).trace
    phi_star = config.droop.nominal_pf_angle
    err = np.array([
        wrap_angle(float(np.mean(row)) - phi_star) for row in trace.pf_angle
    ])
    t = trace.times
    if lam1 < 0:
        lo, hi = 0.3 / abs(lam1), 2.3 / abs(lam1)
    else:
        lo, hi = 0.15 * steps * dt, steps * dt
    window = (t >= lo) & (t <= hi) & (np.abs(err) > 0)
    slope = float(np.polyfit(t[window], np.log(np.abs(err[window])), 1)[0])
    return slope, err


def test_criterion_05_verdict_vs_dynamics():
    rng = np.random.default_rng(105)
    worst_rate = 0.0
    behaviour_ok = True
    saw_unstable = 0
    for _ in range(50):
        config, dd, lam1 = _draw_equilibrium_config(rng)
        slope, err = _measured_rate(config, dd, lam1)
        worst_rate = max(worst_rate, abs(slope - lam1) / abs(lam1))
        decayed = abs(err[-1]) < 0.5 * abs(err[0])
        if lam1 < 0:
            behaviour_ok &= decayed
        else:
            behaviour_ok &= abs(err[-1]) > 2.0 * abs(err[0])
            saw_unstable += 1
    _check("criterion-05-decay-iff-stable", 0.0 if behaviour_ok else 1.0, 0.0)
    _check("criterion-05-rate-relative-error", worst_rate, 0.05)
    assert saw_unstable > 0  # the draw spans both verdicts


# --- criteria 6..10: the five built-in cases -------------------------------------


def _run_case_criterion(case_id: int, label: str, tmp_path):
    t0 = time.perf_counter()
    report = run_case(case_id, tmp_path)
    elapsed = time.perf_counter() - t0
    for check in report.checks:
        print(check.line())
    _check(label, 0.0 if report.all_passed else 1.0, 0.0)
    _check(f"criterion-{case_id + 5:02d}-wall-seconds", elapsed, 5.0)


def test_criterion_06_case1_seamless_transition(tmp_path):
    _run_case_criterion(1, "criterion-06-case1-unified-control", tmp_path)


def test_criterion_07_case2_all_load_types(tmp_path):
    _run_case_criterion(2, "criterion-07-case2-load-types", tmp_path)


def test_criterion_08_case3_unique_equilibrium(tmp_path):
    _run_case_criterion(3, "criterion-08-case3-unique-equilibrium", tmp_path)


def test_criterion_09_case4_any_line_impedance(tmp_path):
    _run_case_criterion(4, "criterion-09-case4-line-impedance", tmp_path)


def test_criterion_10_case5_four_quadrant(tmp_path):
    _run_case_criterion(5, "criterion-10-case5-four-quadrant", tmp_path)


# --- criterion 11: byte-deterministic CLI outputs --------------------------------

_SCN = """
[system]
n = 3
f_star = 50
v_star = 70
v_grid = 315
phi_star = 0.25
m = 0.8
mode = islanded

[line]
mag = 0.314
theta = 1.5707963267948966

[load]
r = 9
x = 2

[initial]
delta = 0.2, 0.0, -0.2

[events]
1.0 load r=9 x=-2

[solver]
duration = 3
"""


def _cli(*args, cwd):
    return subprocess.run([sys.executable, "-m", "cascade_droop", *args],
                          capture_output=True, text=True, cwd=cwd)


def test_criterion_11_cli_determinism(tmp_path):
    (tmp_path / "demo.scn").write_text(_SCN)
    blobs = []
    for run in ("a", "b"):
        proc = _cli("simulate", "demo.scn", "--out", run, cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        proc = _cli("case", "2", "--out", run, cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        blobs.append((
            (tmp_path / run / "demo_trace.csv").read_bytes(),
            (tmp_path / run / "case2.csv").read_bytes(),
            (tmp_path / run / "case2_report.txt").read_bytes(),
        ))
    identical = blobs[0] == blobs[1]
    _check("criterion-11-cli-determinism", 0.0 if identical else 1.0, 0.0)
