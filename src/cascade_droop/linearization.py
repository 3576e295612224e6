"""Small-signal models of the closed loop around a synchronized operating point.

Grid-connected, the Jacobian is the uniform a/b matrix whose closed-form
spectrum is

    lambda_1      = -m * w (w - u cos(dd)) / d
    lambda_2..n   = -m

with dd the string-to-grid angle, (u, w) = (n V*, V_g) / (n V* + V_g) the
voltage shares and d = u^2 + w^2 - 2 u w cos(dd), degenerate at zero current.
The sign of (V_g - n V* cos(dd)) alone decides stability; neither the voltage
scale nor the line impedance enters.  The islanded model is the same one at
V_g = 0: there a = (n-1)/n and b = -1/n for any load, the Jacobian is the
complete-graph Laplacian scaled by -m/n, and its spectrum is one zero
eigenvalue (the rotational symmetry of the string) and n-1 eigenvalues at
exactly -m.

The n-1 modes at -m hold beyond first order.  Every module of the series
string carries the same current I, so S_i = V* e^{j delta_i} conj(I) and each
module measures phi_i = wrap(delta_i - angle(I)).  While every droop error
sits on one side of the +/-pi seam and the clamp is idle, the droop law then
gives d(delta_i - delta_j)/dt = -m (delta_i - delta_j) exactly, in both
modes; only the common mode (lambda_1 here) depends on the circuit.

Every constructed model carries both the closed-form eigenvalues and the
spectrum of its matrix from LAPACK (``numpy.linalg.eigvalsh``), and refuses
to exist if the two disagree beyond 1e-9 times the largest |eigenvalue|
(or 1e-9 when that is below 1).  numpy is imported only where such a
matrix is built; verdicts on the runtime path (`slow_mode`) need
no matrix at all and stay plain ``math``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING

from .droop import ZERO_POWER_FRACTION
from .errors import AsymmetricMatrixError, DegeneratePointError, ValidationError

if TYPE_CHECKING:
    import numpy as np

_EIG_AGREEMENT = 1e-9
_MARGINAL_BAND = 1e-12  # on lambda_1 / m, dimensionless


class Stability(Enum):
    STABLE = "stable"
    MARGINAL = "marginal"
    UNSTABLE = "unstable"


@dataclass(frozen=True)
class LinearModel:
    """A closed-loop Jacobian with its spectrum computed two independent ways."""

    matrix: np.ndarray
    analytic_eigs: tuple[float, ...]
    numeric_eigs: tuple[float, ...]
    stable: Stability

    def __post_init__(self):
        n = self.matrix.shape[0]
        if self.matrix.shape != (n, n):
            raise ValidationError(f"matrix must be square, got shape {self.matrix.shape}")
        if len(self.analytic_eigs) != n or len(self.numeric_eigs) != n:
            raise ValidationError("eigenvalue lists must have one entry per state")
        gaps = [abs(a - b) for a, b in zip(sorted(self.analytic_eigs), sorted(self.numeric_eigs))]
        bound = _EIG_AGREEMENT * max(1.0, max(abs(a) for a in self.analytic_eigs))
        # written so that a NaN gap or bound fails too
        worst = next((g for g in gaps if not g <= bound), None)
        if worst is not None:
            raise ValidationError(
                f"analytic and numeric eigenvalues disagree by {worst:.3e} (> {bound:.3g})"
            )
        self.matrix.flags.writeable = False


@dataclass(frozen=True)
class GridLinearization:
    """Coefficients of the grid-connected angle sensitivity d(phi_i) = a*dd_i + b*sum_j dd_j.

    All three fields are dimensionless and read the voltages only as shares
    of n V* + V_g.  ``slow_rate`` = a + (n-1) b = -lambda_1 / m in closed
    form; ``a - b == 1`` is an algebraic identity of the two formulas, written
    without cancellation so that it holds down to the degenerate point.  The
    construction-time bound is relative to the larger of |a| and |b|, which
    grow as 1/d near that point: it catches formula bugs, not conditioning.
    A NaN or infinite coefficient fails it too.
    """

    a: float
    b: float
    slow_rate: float

    def __post_init__(self):
        if not abs(self.a - self.b - 1.0) <= 1e-6 * max(1.0, abs(self.a), abs(self.b)) < math.inf:
            raise ValidationError(
                f"a - b = {self.a - self.b!r} violates the unit-difference identity"
            )


def _check_count(n: int) -> None:
    if not (isinstance(n, int) and n >= 1):
        raise ValidationError(f"module count must be an integer >= 1, got {n!r}")


def _symmetric_spectrum(matrix) -> tuple[np.ndarray, list[float]]:
    # The one place this module imports numpy: the matrix as a float array
    # and its eigenvalues, ascending.
    import numpy as np

    a = [list(map(float, row)) for row in matrix]
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValidationError("matrix must be square")
    if n == 0:
        raise ValidationError("matrix must be non-empty")
    arr = np.array(a)
    asym = float(abs(arr - arr.T).max())
    if asym > 1e-12:
        raise AsymmetricMatrixError(f"matrix is asymmetric by {asym:.3e} (> 1e-12)")
    return arr, np.linalg.eigvalsh(0.5 * (arr + arr.T)).tolist()


def numeric_eigenvalues(matrix) -> list[float]:
    """All eigenvalues of a real symmetric matrix, ascending, via ``numpy.linalg.eigvalsh``.

    Deliberately independent of the closed forms used elsewhere in this
    module so the two can check each other.
    """
    return _symmetric_spectrum(matrix)[1]


def islanded_jacobian(n: int, m: float) -> LinearModel:
    """Closed-loop Jacobian A = -(m/n) L, with L the complete-graph Laplacian.

    This is `grid_jacobian` at V_g = 0 (a = (n-1)/n, b = -1/n).  Spectrum
    {0, -m x (n-1)}; the zero mode is the common rotation of all angles, so
    lambda_1 falls in the 1e-12 band and the verdict is Marginal.
    """
    return grid_jacobian(grid_ab(n, 1.0, 0.0, 0.0), n, m)


def voltage_shares(n: int, v_star: float, v_g: float) -> tuple[float, float, float]:
    """The voltage shares u, w = (n V*, V_g) / (n V* + V_g) and their gap u - w.

    u + w = 1 up to rounding.  The gap is formed unrounded, as
    (n V* - V_g) / (n V* + V_g), so it is exactly 0 at matched sizing and
    keeps its relative accuracy next to it, where u - w would cancel.
    Raises ValidationError if n V* + V_g overflows.
    """
    string = n * v_star
    span = string + v_g
    if not span < math.inf:
        raise ValidationError(f"voltages n V* + V_g = {span:g} V exceed float range")
    return string / span, v_g / span, (string - v_g) / span


def grid_ab(n: int, v_star: float, v_g: float, angle_diff: float) -> GridLinearization:
    """Angle-sensitivity coefficients of the grid-connected string, from `voltage_shares`.

    At a synchronized point |sum V - V_g| = (n V* + V_g) sqrt(d), so the
    engine's zero-power rule reads d <= (``ZERO_POWER_FRACTION`` u)^2; there
    the string phasor meets the grid phasor and this raises DegeneratePointError.
    """
    _check_count(n)
    if not (math.isfinite(v_star) and v_star > 0.0):
        raise ValidationError(f"module voltage must be > 0, got {v_star}")
    if not (math.isfinite(v_g) and v_g >= 0.0):
        raise ValidationError(f"grid voltage must be >= 0, got {v_g}")
    if not math.isfinite(angle_diff):
        raise ValidationError(f"angle difference must be finite, got {angle_diff}")
    # the unrounded gap and cos(dd) = 1 - 2 sin^2(dd/2): d, a, b and w - u cos(dd) do not cancel
    u, w, gap = voltage_shares(n, v_star, v_g)
    half_sin2 = math.sin(0.5 * angle_diff) ** 2
    d = gap * gap + 4.0 * u * w * half_sin2
    if d <= (ZERO_POWER_FRACTION * u) ** 2:
        raise DegeneratePointError(
            f"|sum V - V_g| = {math.sqrt(d):.3e} (n V* + V_g) is at most {ZERO_POWER_FRACTION:g} n V*: "
            "operating point is degenerate (string phasor coincides with the grid phasor)"
        )
    a = (gap * gap - u * gap / n + (4.0 - 2.0 / n) * u * w * half_sin2) / d
    b = -u * (gap + 2.0 * w * half_sin2) / (n * d)
    return GridLinearization(a, b, w * (2.0 * u * half_sin2 - gap) / d)


def _verdict_from_scaled(scaled: float) -> Stability:
    # scaled = -lambda_1 / m; positive means decay.
    if abs(scaled) <= _MARGINAL_BAND:
        return Stability.MARGINAL
    return Stability.STABLE if scaled > 0.0 else Stability.UNSTABLE


def grid_jacobian(lin: GridLinearization, n: int, m: float) -> LinearModel:
    """Grid-connected Jacobian B = -m [[a, b, ...], [b, a, ...], ...].

    Closed-form spectrum: lambda_1 = -m * ``lin.slow_rate`` and lambda_2..n = -m.
    Verdict: Stable if lambda_1 < 0, Marginal within 1e-12*m of zero,
    Unstable otherwise.
    """
    _check_count(n)
    if not (math.isfinite(m) and m > 0.0):
        raise ValidationError(f"droop gain must be > 0, got {m}")
    matrix, numeric = _symmetric_spectrum(
        [[-m * (lin.a if i == j else lin.b) for j in range(n)] for i in range(n)])
    analytic = sorted([-m * lin.slow_rate] + [-m] * (n - 1))
    return LinearModel(matrix, tuple(analytic), tuple(numeric),
                       _verdict_from_scaled(lin.slow_rate))


def slow_mode(n: int, v_star: float, v_g: float, m: float,
              angle_diff: float) -> tuple[float, Stability]:
    """The slow eigenvalue lambda_1 = -m * ``slow_rate`` and its verdict, from one `grid_ab`.

    The verdict is the sign of V_g - n V* cos(angle_diff) alone, over the
    shared (positive) denominator; it does not depend on ``m``.  Raises what
    `grid_ab` raises.
    """
    slow_rate = grid_ab(n, v_star, v_g, angle_diff).slow_rate
    return -m * slow_rate, _verdict_from_scaled(slow_rate)


def stability_condition(n: int, v_star: float, v_g: float, angle_diff: float) -> Stability:
    """Grid-mode stability from the sign of V_g - n V* cos(angle_diff) alone.

    The returned verdict always equals the one `grid_jacobian` derives from
    its slow eigenvalue: both read `grid_ab`'s ``slow_rate``.
    """
    return slow_mode(n, v_star, v_g, 1.0, angle_diff)[1]
