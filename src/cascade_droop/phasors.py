"""Polar phasors and the power-transmission characteristics of a series string.

The electrical model is quasi-static: every module of the cascade is an ideal
voltage source ``V_i at angle delta_i``, the sources add in series, and the
circuit is solved algebraically at nominal frequency.  Two topologies exist:

* islanded -- the string drives a lumped "generalized load" (transmission
  line in series with the load);
* grid-connected -- the string ties to a stiff grid source through the line.

Per-module active/reactive power is given here in the trigonometric form the
control analysis is built on (`islanded_power_flow`, `grid_power_flow`).
Islanded is grid-connected at V_g = 0 through the generalized load.  The
simulation kernel evaluates the same circuit in rectangular form,
S_i = V_i conj(I) with the one string current I, and the tests hold the
kernel to these expansions.

Sign convention: S = V * conj(I) with the current flowing from the string
into the load (or grid), so an inductive load absorbs positive Q.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import SingularImpedanceError, ValidationError

TAU = math.tau
PI = math.pi


def wrap_angle(angle: float) -> float:
    """Map an angle in radians to the half-open interval (-pi, pi]."""
    w = math.remainder(angle, TAU)
    # remainder() may return exactly -pi; the convention here keeps +pi.
    return w if w > -PI else w + TAU


@dataclass(frozen=True)
class Phasor:
    """A complex electrical quantity in polar form.

    Parameters
    ----------
    magnitude : float
        Non-negative amplitude (volts or amperes).
    angle : float
        Phase in radians; stored wrapped to (-pi, pi].
    """

    magnitude: float
    angle: float

    def __post_init__(self):
        if not (math.isfinite(self.magnitude) and self.magnitude >= 0.0):
            raise ValidationError(f"phasor magnitude must be finite and >= 0, got {self.magnitude}")
        if not math.isfinite(self.angle):
            raise ValidationError("phasor angle must be finite")
        object.__setattr__(self, "angle", wrap_angle(self.angle))

    @property
    def rect(self) -> complex:
        """Rectangular (cartesian) value."""
        return cmath.rect(self.magnitude, self.angle)


@dataclass(frozen=True)
class Impedance:
    """A passive impedance in polar form: magnitude in ohms, angle in [-pi/2, pi/2]."""

    magnitude: float
    angle: float

    def __post_init__(self):
        if not (math.isfinite(self.magnitude) and self.magnitude > 0.0):
            raise ValidationError(f"impedance magnitude must be finite and > 0, got {self.magnitude}")
        if not math.isfinite(self.angle) or abs(self.angle) > PI / 2 + 1e-12:
            raise ValidationError(
                f"impedance angle must lie in [-pi/2, pi/2] (passive element), got {self.angle}"
            )

    @property
    def rect(self) -> complex:
        return cmath.rect(self.magnitude, self.angle)

    @property
    def reactance(self) -> float:
        return self.magnitude * math.sin(self.angle)

    @classmethod
    def from_rect(cls, r: float, x: float) -> "Impedance":
        if r < 0.0:
            raise ValidationError(f"impedance resistance must be >= 0, got {r}")
        return cls(math.hypot(r, x), math.atan2(x, r))


@dataclass(frozen=True)
class PowerPair:
    """Active power (W) and reactive power (var) of one module."""

    active: float
    reactive: float

    def __post_init__(self):
        if not (math.isfinite(self.active) and math.isfinite(self.reactive)):
            raise ValidationError("power components must be finite")

    @property
    def apparent(self) -> float:
        return math.hypot(self.active, self.reactive)


def series_impedance(line: Impedance, load: Impedance) -> complex:
    """``line.rect + load.rect``, the impedance the islanded string drives.

    Raises SingularImpedanceError below 1e-12 ohm: a near-resonant series
    LC cancellation leaves the string with no defined current.
    """
    z = line.rect + load.rect
    if abs(z) < 1e-12:
        raise SingularImpedanceError(
            f"series combination of {line.magnitude:g} ohm and {load.magnitude:g} ohm "
            f"elements cancels to {abs(z):.3e} ohm"
        )
    return z


def generalized_load(line: Impedance, load: Impedance) -> Impedance:
    """Series combination of the transmission line and the load, in polar form."""
    z = series_impedance(line, load)
    return Impedance(abs(z), cmath.phase(z))


def _trig_power_flow(voltages: list[Phasor], grid: Phasor | None, z: Impedance) -> list[PowerPair]:
    if not voltages:
        raise ValidationError("at least one module voltage is required")
    zmag = z.magnitude
    theta = z.angle
    out = []
    for vi in voltages:
        cos_sum = 0.0
        sin_sum = 0.0
        for vj in voltages:
            arg = vi.angle - vj.angle + theta
            cos_sum += vj.magnitude * math.cos(arg)
            sin_sum += vj.magnitude * math.sin(arg)
        if grid is not None:
            arg_g = vi.angle - grid.angle + theta
            cos_sum -= grid.magnitude * math.cos(arg_g)
            sin_sum -= grid.magnitude * math.sin(arg_g)
        scale = vi.magnitude / zmag
        out.append(PowerPair(scale * cos_sum, scale * sin_sum))
    return out


def islanded_power_flow(voltages: list[Phasor], zload: Impedance) -> list[PowerPair]:
    """Per-module (P, Q) of the islanded string feeding a generalized load.

    Trigonometric form: P_i = (V_i/|Z|) * sum_j V_j cos(d_i - d_j + theta)
    and Q_i likewise with sin.
    """
    return _trig_power_flow(voltages, None, zload)


def grid_power_flow(voltages: list[Phasor], grid: Phasor, zline: Impedance) -> list[PowerPair]:
    """Per-module (P, Q) of the string tied to a stiff grid through the line.

    Trigonometric form including the grid back-voltage terms
    -V_g cos(d_i - d_g + theta_line) and -V_g sin(...).
    """
    return _trig_power_flow(voltages, grid, zline)

