"""Independent oracles shared by the test modules.

Each circuit formula the tests compare against lives here once: the
per-module power factor angles of the trigonometric power flow that the
paper's analysis uses, a central difference of them, the per-module
(phi, P, Q, f) rows a simulation kernel should record, the squared distance
between the string and grid phasors in voltage shares, and a rectangular
complex reference for the trigonometric expansions themselves.
"""

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
