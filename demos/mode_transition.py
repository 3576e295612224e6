"""Opening the transfer switch: grid-tied operation handing over to an island.

The string runs against the grid for two seconds, then the switch opens and
the same controllers, with no new information, carry the local load.  Phase
angles are continuous through the switch; only the circuit topology changes.
"""

import math
from dataclasses import replace

import numpy as np

from cascade_droop import (
    DroopParams,
    Impedance,
    Mode,
    Scenario,
    SetMode,
    SystemConfig,
    TimedEvent,
    grid_equilibrium,
    islanded_equilibrium,
    simulate,
)

config = SystemConfig(
    n=4,
    droop=DroopParams(50.0, 78.75, 0.2, 0.5, (49.0, 51.0)),
    grid_voltage=315.0,
    grid_angle=0.0,
    line=Impedance(0.314, math.pi / 2),
    load=Impedance.from_rect(12.0, 0.0),
    mode=Mode.GRID_CONNECTED,
)

eq = grid_equilibrium(config)
print(f"grid-tied operating point: delta_s = {eq.delta_s:.4f} rad, "
      f"slow eigenvalue {eq.roots[0].lambda_slow:.3f} 1/s ({eq.roots[0].verdict.value})")

island = islanded_equilibrium(replace(config, mode=Mode.ISLANDED))
print(f"island will settle at f = {island.frequency_hz:.5f} Hz on the 12 ohm load")

scenario = Scenario(
    config=config,
    initial_deltas=tuple(eq.delta_s + off for off in (0.15, 0.05, -0.05, -0.15)),
    events=(TimedEvent(2.0, SetMode(Mode.ISLANDED)),),
    duration=10.0,
    dt=1e-3,
)

jumps = []
simulate(scenario, on_event=lambda t, a, before, after:
         jumps.append(max(abs(x - y) for x, y in zip(before, after))))
trace = simulate(scenario).trace

print(f"\nangle discontinuity at the switch: {jumps[0]:.1e} rad (exactly zero by design)")
print("\n   t     mean f (Hz)   P1 (W)      P4 (W)")
for t in (0.0, 1.0, 1.99, 2.0, 2.5, 4.0, 7.0, 10.0):
    k = int(np.argmin(np.abs(trace.times - t)))
    print(f"  {trace.times[k]:5.2f}  {np.mean(trace.frequency_hz[k]):10.5f}"
          f"  {trace.active[k][0]:10.1f}  {trace.active[k][3]:10.1f}")
print(f"\nfinal frequency {np.mean(trace.frequency_hz[-1]):.5f} Hz "
      f"vs closed form {island.frequency_hz:.5f} Hz")
