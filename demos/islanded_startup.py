"""Islanded start from scattered angles: synchronization and power sharing.

Five modules start with different phase angles.  The droop law pulls the
angle differences to zero at exactly the gain, after which every module
carries the same power and the shared frequency sits at the closed-form
value set by the load angle.
"""

import math

import numpy as np

from cascade_droop import (
    DroopParams,
    Impedance,
    Mode,
    Scenario,
    SystemConfig,
    islanded_equilibrium,
    simulate,
    wrap_angle,
)

config = SystemConfig(
    n=5,
    droop=DroopParams(50.0, 63.0, 0.2, 2.0, (49.0, 51.0)),
    grid_voltage=315.0,
    grid_angle=0.0,
    line=Impedance(0.314, math.pi / 2),
    load=Impedance.from_rect(10.0, 3.0),
    mode=Mode.ISLANDED,
)
eq = islanded_equilibrium(config)
print(f"closed-form operating point: f = {eq.frequency_hz:.6f} Hz, "
      f"P = {eq.power.active:.1f} W, Q = {eq.power.reactive:.1f} var per module")

scenario = Scenario(
    config=config,
    initial_deltas=(0.6, 0.3, 0.0, -0.3, -0.6),
    duration=12.0,
    dt=1e-3,
)
result = simulate(scenario)
trace = result.trace

print("\n   t      f1..f5 (Hz)                                 max|P_i - P_j| (W)")
for t in (0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 12.0):
    k = int(np.argmin(np.abs(trace.times - t)))
    freqs = " ".join(f"{v:8.4f}" for v in trace.frequency_hz[k])
    spread = trace.active[k].max() - trace.active[k].min()
    print(f"  {trace.times[k]:5.1f}  {freqs}   {spread:10.4f}")

final = result.final_states
worst = max(abs(wrap_angle(a.delta - b.delta)) for a in final for b in final)
print(f"\nfinal pairwise angle disagreement: {worst:.2e} rad")
print(f"final mean frequency: {float(np.mean(trace.frequency_hz[-1])):.6f} Hz "
      f"(closed form {eq.frequency_hz:.6f} Hz)")
