"""The frequency droop against the measured power factor angle.

The law is linear in the wrapped angle error and saturates at the clamp
band.  Stepping the reference across the +/-pi seam produces a short-path
error, not a full-turn excursion.
"""

import math

from cascade_droop import DroopParams, PowerPair, droop_frequency, power_factor_angle

TAU = math.tau
params = DroopParams(
    nominal_frequency=50.0,
    nominal_voltage=78.75,
    nominal_pf_angle=0.2,
    droop_gain=0.5,
    freq_clamp=(49.0, 51.0),
)

print("droop characteristic (gain 0.5, reference angle 0.2 rad, clamp 49..51 Hz):")
for phi in (-3.0, -1.5, -0.5, 0.0, 0.2, 0.5, 1.5, 3.0):
    f = droop_frequency(phi, params) / TAU
    print(f"  phi = {phi:+5.2f} rad  ->  f = {f:9.5f} Hz")

print("\nfour-quadrant measurement from (P, Q):")
for p, q in ((1.0, 1.0), (-1.0, 1.0), (-1.0, -1.0), (1.0, -1.0)):
    phi = power_factor_angle(PowerPair(p, q))
    print(f"  P={p:+.0f}, Q={q:+.0f}  ->  phi = {phi:+.6f} rad ({phi / math.pi:+.2f} pi)")

print("\nshort-path tracking across the seam:")
near_seam = DroopParams(50.0, 78.75, -math.pi + 0.1, 0.5, (49.0, 51.0))
f = droop_frequency(math.pi - 0.1, near_seam) / TAU
print(f"  measured pi-0.1 against reference -pi+0.1: wrapped error -0.2 rad, f = {f:.5f} Hz")
