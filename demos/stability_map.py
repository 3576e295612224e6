"""Where the grid-tied string is stable, as a verdict map.

The slow eigenvalue's sign is set by V_g - n V* cos(angle) alone; the line
impedance never appears.  With the string sized below the grid voltage the
whole circle is stable, which is what makes arbitrary reference angles and
arbitrary lines workable.
"""

import math

from cascade_droop import DegeneratePointError, Stability, stability_condition

V_GRID = 315.0
N = 4

angles = [k * math.pi / 8 for k in range(-8, 9)]
sizings = [0.3, 0.6, 0.9, 1.0, 1.1, 1.3]

MARKS = {Stability.STABLE: "S", Stability.MARGINAL: "m", Stability.UNSTABLE: "U"}

print(f"verdict of the grid-tied linearization, {N} modules, grid {V_GRID:.0f} V")
print("rows: string sizing n*V*/V_g; columns: string-to-grid angle (deg)\n")
header = "        " + " ".join(f"{math.degrees(a):5.0f}" for a in angles)
print(header)
for ratio in sizings:
    v_star = ratio * V_GRID / N
    cells = []
    for angle in angles:
        try:
            cells.append(MARKS[stability_condition(N, v_star, V_GRID, angle)])
        except DegeneratePointError:
            cells.append("x")  # degenerate: string phasor meets the grid phasor
    print(f"  {ratio:4.2f}  " + " ".join(f"{c:>5}" for c in cells))

print("\nS stable, m marginal, U unstable, x degenerate (zero current).")
print("Undersized strings (ratio < 1) are stable at every angle; oversized ones")
print("lose stability in a widening wedge around the aligned position.")
