"""Independent oracles shared by the test modules.

Each circuit formula the tests compare against lives here once: the
per-module power factor angles of the trigonometric power flow that the
paper's analysis uses, a central difference of them, the per-module
(phi, P, Q, f) rows a simulation kernel should record, the squared distance
between the string and grid phasors in voltage shares, a rectangular
complex reference for the trigonometric expansions themselves, and the RK4
step written as loops over the modules, which the generated kernel must
match bit for bit.
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple

from cascade_droop import (
    Mode,
    Phasor,
    PowerPair,
    ZeroPowerError,
    droop_frequency,
    generalized_load,
    grid_power_flow,
    islanded_power_flow,
    power_factor_angle,
    wrap_angle,
)
from cascade_droop.engine import _bind

TAU = math.tau


def trig_power_flow(deltas, v_star, z, grid=None):
    """Per-module (P, Q) of equal-magnitude modules; islanded when ``grid`` is None."""
    volts = [Phasor(v_star, d) for d in deltas]
    return islanded_power_flow(volts, z) if grid is None else grid_power_flow(volts, grid, z)


def phi_vector(deltas, v_star, z, grid=None):
    """Each module's power factor angle from the trigonometric power flow."""
    return [power_factor_angle(pq, rated=pq.apparent)
            for pq in trig_power_flow(deltas, v_star, z, grid)]


def central_difference(phi_of, deltas, i, k, h=1e-6):
    """d phi_i / d delta_k by a central difference of the wrapped angles."""
    up = list(deltas)
    dn = list(deltas)
    up[k] += h
    dn[k] -= h
    return wrap_angle(phi_of(up)[i] - phi_of(dn)[i]) / (2.0 * h)


class Row(NamedTuple):
    phi: float
    active: float
    reactive: float
    frequency_hz: float


def _circuit(config):
    """The impedance the string drives and the grid phasor, None when islanded."""
    if config.mode is Mode.ISLANDED:
        return generalized_load(config.line, config.load), None
    return config.line, Phasor(config.grid_voltage, config.grid_angle)


def power_scales(config):
    """The zero-power floor's scale n V*^2/|Z| and a bound V* (n V* + V_g)/|Z| on any |S|."""
    z, grid = _circuit(config)
    v_star = config.droop.nominal_voltage
    sink = 0.0 if grid is None else grid.magnitude
    rated = config.n * v_star * v_star / z.magnitude
    return rated, v_star * (config.n * v_star + sink) / z.magnitude


def module_rows(config, deltas):
    """Per-module (phi, P, Q, f) at ``deltas`` from the trig-form power flow and the droop law.

    A module below the zero-power floor holds the reference angle, where a
    kernel's held measurement starts.
    """
    d = config.droop
    z, grid = _circuit(config)
    rated = power_scales(config)[0]
    rows = []
    for pq in trig_power_flow(deltas, d.nominal_voltage, z, grid):
        try:
            phi = power_factor_angle(pq, rated=rated)
        except ZeroPowerError:
            phi = d.nominal_pf_angle
        rows.append(Row(phi, pq.active, pq.reactive, droop_frequency(phi, d) / math.tau))
    return rows


def share_terms(n, v_star, v_g, angle_diff):
    """(u, w, d): the shares (n V*, V_g)/(n V* + V_g) and d = |u - w e^{j dd}|^2."""
    span = n * v_star + v_g
    u, w = n * v_star / span, v_g / span
    return u, w, u * u + w * w - 2.0 * u * w * math.cos(angle_diff)


def rect_power_flow(voltages, sink, z):
    """S_i = V_i conj(I) with I = (sum_j V_j - V_sink)/Z, in rectangular complex arithmetic."""
    total = sum(v.rect for v in voltages) - (sink.rect if sink is not None else 0.0)
    current_conj = (total / z.rect).conjugate()
    return [PowerPair(s.real, s.imag) for s in (v.rect * current_conj for v in voltages)]


def loop_plant(config, dt):
    """The engine's RK4 step as loops over the modules: the reference for the generated kernel.

    It takes and returns what ``engine._plant`` does, from the constants of
    ``engine._bind``, and its step reads and writes an ``engine._Held``
    alike.  The closure ``step`` holds the droop law and its clamp twice: in
    the loop body of stages 1-3 and in stage 4, which needs no next string sum.
    """
    v_star, w_star, m, phi_star, w_lo, w_hi, z, drive, dead_band, half, dt, sixth = _bind(
        config, dt)
    increments = (half, half, dt)  # from stages 1-3 to the next stage's angles
    rect = cmath.rect
    phase = cmath.phase
    remainder = math.remainder

    def step(deltas: list[float], held: _Held, sample: list[float] | None = None) -> list[float]:
        """The angles one classical RK4 step after ``deltas``, as a new list.

        Each stage sums the string voltage once; while current flows it
        droops every module on wrap(x - arg I - phi*) at the stage's angles
        x, and at zero current on ``held`` with arg I = 0.  A live step
        boundary stores ``deltas`` and its arg I in ``held``.  One loop runs
        stages 1-3, each pass one loop over the modules that forms the
        clamped omega, the next stage angle and that angle's term of the
        next string sum; the stage-4 loop combines the four stages' omegas.
        With ``sample``, a list, the step then extends it with the
        boundary's stage-1 clamped omega, P, Q and phi (the held values):
        only a sampled step forms the powers V_i conj(I).
        """
        total = 0j
        for x in deltas:
            total += rect(v_star, x)
        boundary = total
        stages = []
        xs = deltas
        for h in increments:
            total -= drive
            if abs(total) <= dead_band:
                es = held.values()
                base = phi_star
            else:
                arg_i = phase(total / z)
                if xs is deltas:  # the step boundary's measurement is the one held
                    held.angles = deltas
                    held.arg = arg_i
                es = xs
                base = arg_i + phi_star
            omegas = []
            xs = []
            total = 0j
            for x, e in zip(deltas, es):
                w = w_star - m * remainder(e - base, TAU)
                if w < w_lo:
                    w = w_lo
                elif w > w_hi:
                    w = w_hi
                omegas.append(w)
                y = x + h * (w - w_star)
                xs.append(y)
                total += rect(v_star, y)
            stages.append(omegas)
        total -= drive
        if abs(total) <= dead_band:
            es = held.values()
            base = phi_star
        else:
            es = xs
            base = phase(total / z) + phi_star
        out = []
        for x, a, b, c, e in zip(deltas, *stages, es):
            w = w_star - m * remainder(e - base, TAU)
            if w < w_lo:
                w = w_lo
            elif w > w_hi:
                w = w_hi
            out.append(x + sixth * ((a - w_star) + 2.0 * ((b - w_star) + (c - w_star))
                                    + (w - w_star)))
        if sample is not None:
            icon = ((boundary - drive) / z).conjugate()
            powers = [rect(v_star, x) * icon for x in deltas]
            sample.extend(stages[0])
            sample.extend(s.real for s in powers)
            sample.extend(s.imag for s in powers)
            sample.extend(held.values())
        return out

    return step
