"""Power flow of a series string, both topologies, and the shared-current identity.

Four modules add their voltages in series.  Islanded, the string drives a
lumped load; grid-tied, it pushes current through the line against a stiff
source.  Either way every module carries the same current I, so module i
delivers S_i = V_i conj(I).  The trigonometric power expressions the
analysis uses must agree with that product to machine precision.
"""

import math

from cascade_droop import (
    Impedance,
    Phasor,
    generalized_load,
    grid_power_flow,
    islanded_power_flow,
)

line = Impedance(0.314, math.pi / 2)          # j0.314 ohm
load = Impedance.from_rect(12.0, 0.0)         # 12 ohm resistive
zload = generalized_load(line, load)
print(f"generalized load: {zload.magnitude:.6g} ohm at {zload.angle:.6g} rad")

volts = [Phasor(78.75, d) for d in (0.05, 0.02, -0.02, -0.05)]

print("\nislanded power flow (slightly desynchronized string):")
current = sum(v.rect for v in volts) / zload.rect   # the one string current
print(f"  string current: {abs(current):.6g} A at {math.atan2(current.imag, current.real):.6g} rad")
for i, (v, pq) in enumerate(zip(volts, islanded_power_flow(volts, zload)), start=1):
    s = v.rect * current.conjugate()
    print(f"  module {i}: P={pq.active:10.3f} W  Q={pq.reactive:9.3f} var"
          f"   |trig - V_i conj(I)|={abs(complex(pq.active, pq.reactive) - s):.2e}")

grid = Phasor(315.0, 0.0)
print("\ngrid-connected power flow (same angles, stiff 315 V grid):")
for i, pq in enumerate(grid_power_flow(volts, grid, line), start=1):
    print(f"  module {i}: P={pq.active:10.3f} W  Q={pq.reactive:9.3f} var")

print("\nwith every module at the same angle the string matches the grid phasor")
print("exactly and no current flows:")
matched = [Phasor(78.75, 0.0)] * 4
for i, pq in enumerate(grid_power_flow(matched, grid, line), start=1):
    print(f"  module {i}: P={pq.active:.3e} W  Q={pq.reactive:.3e} var")
