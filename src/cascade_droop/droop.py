"""The decentralized per-module control law.

Each module measures only its own output power, converts it to a power
factor angle, and droops its frequency against that angle:

    omega_i = 2 pi f_star - m * wrap(phi_i - phi_star)
    V_i     = V_star                      (no amplitude droop)

The wrap makes the error take the short way around the circle, so a
reference step across the +/-pi seam is tracked without a full-turn
excursion.  An optional output clamp keeps the commanded frequency inside a
configured band.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ValidationError, ZeroPowerError
from .phasors import PowerPair, wrap_angle

TAU = math.tau
# |S| at most this fraction of the power scale n V*^2/|Z| is zero power: the one
# rule of the engine's measurement hold, the grid roots and the linearization.
ZERO_POWER_FRACTION = 1e-12


@dataclass(frozen=True)
class DroopParams:
    """Controller constants shared by every module of one string.

    nominal_frequency : Hz, the frequency f* commanded at zero angle error
    nominal_voltage : volts, the fixed amplitude reference
    nominal_pf_angle : radians in [-pi, pi], the power-factor-angle setpoint
    droop_gain : 1/s, positive slope of the frequency droop
    freq_clamp : optional (low, high) band in Hz applied to the output

    Frequencies are in Hz; only the droop law works in rad/s.  A gain with
    2 pi f* + pi m past float range is refused.
    """

    nominal_frequency: float
    nominal_voltage: float
    nominal_pf_angle: float
    droop_gain: float
    freq_clamp: tuple[float, float] | None = None

    def __post_init__(self):
        f_star, m = self.nominal_frequency, self.droop_gain
        if not (f_star > 0.0 and TAU * f_star < math.inf):
            raise ValidationError(f"nominal_frequency must be > 0 Hz, 2 pi f* finite, got {f_star}")
        if not (math.isfinite(self.nominal_voltage) and self.nominal_voltage > 0.0):
            raise ValidationError(f"nominal_voltage must be > 0, got {self.nominal_voltage}")
        if not (m > 0.0 and TAU * f_star + math.pi * m < math.inf):
            raise ValidationError(f"droop_gain must be > 0 with 2 pi f* + pi m finite, got {m}")
        if not math.isfinite(self.nominal_pf_angle):
            raise ValidationError(f"nominal_pf_angle must be finite, got {self.nominal_pf_angle}")
        object.__setattr__(self, "nominal_pf_angle", wrap_angle(self.nominal_pf_angle))
        if self.freq_clamp is not None:
            lo, hi = self.freq_clamp
            if not (lo < f_star < hi):
                raise ValidationError(
                    f"freq_clamp must straddle the nominal frequency: {lo} < {f_star:g} < {hi} fails"
                )
            object.__setattr__(self, "freq_clamp", (float(lo), float(hi)))


def power_factor_angle(power: PowerPair, rated: float = 1.0) -> float:
    """Four-quadrant angle atan2(Q, P) in [-pi, pi].

    Raises ZeroPowerError when |S| is at most ``ZERO_POWER_FRACTION`` of the
    rated power: the ratio is undefined at zero current.  Callers that must
    survive a dead start (the simulation engine) hold the previous
    measurement instead of calling this.
    """
    if rated <= 0.0:
        raise ValidationError(f"rated power must be > 0, got {rated}")
    floor = ZERO_POWER_FRACTION * rated
    if power.apparent <= floor:
        raise ZeroPowerError(
            f"power factor angle undefined: |S|={power.apparent:.3e} VA is at most {floor:.3e}"
        )
    return math.atan2(power.reactive, power.active)


def droop_frequency(phi: float, params: DroopParams) -> float:
    """Commanded angular frequency 2 pi f* - m wrap(phi - phi*), clamped, in rad/s."""
    if not math.isfinite(phi):
        raise ValidationError("measured power factor angle must be finite")
    error = wrap_angle(phi - params.nominal_pf_angle)
    omega = TAU * params.nominal_frequency - params.droop_gain * error
    if params.freq_clamp is not None:
        lo, hi = params.freq_clamp
        omega = min(max(omega, TAU * lo), TAU * hi)
    return omega

