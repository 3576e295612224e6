"""Closed-loop time simulation of the droop-controlled series string.

State per module is the phase angle delta_i, kept in a frame rotating at the
nominal frequency; the grid, when connected, sits at a fixed angle in that
frame (it runs at exactly nominal frequency).  Each integrator stage solves
the quasi-static circuit at the current angles, measures each module's
power factor angle, applies the droop law and advances

    d(delta_i)/dt = omega_i - omega_star.

Integration is fixed-step classical Runge-Kutta (RK4).  The closed-loop
rates are of order the droop gain, so the default 1 ms step is deeply
conservative; fixed stepping keeps every run bit-reproducible.  Every
pairwise angle mode decays at -m, and RK4 is stable there only for
m dt <= ``RK4_STABILITY_LIMIT``, so a ``Scenario`` past it is refused.

One kernel holds the measurement, the droop law and the integrator:
``_plant(config, dt)`` binds the constants once and returns the closure
``step``, which advances a whole RK4 step in one call.  Stages 1-3 share
one loop, one droop-and-clamp pass over the modules each, and stage 4
combines the four stages' clamped omegas.  ``simulate`` is the only way to
advance the plant: one call per step, and on a recorded step the call fills
the step's sample (phi, P, Q, omega) once, after the step; the last row
keeps its angles and reads only the sample.  The held measurement is formed
only where it is read: a live step boundary stores its angle list and
arg I, and the held wrap(delta_i - arg I) is formed for a recorded row, a
zero-current stage or the final states.
The recorded sample count is known before the run, so ``simulate`` writes
each retained sample straight into preallocated trace arrays.  Those arrays
are the only numpy this module needs, so ``simulate`` imports numpy only to
allocate them; scenario checks and the equilibria are plain ``math``.

Every module of the series string carries the same current I, so module i
sees S_i = V* e^{j delta_i} conj(I) and measures the power factor angle
phi_i = wrap(delta_i - arg I).  The kernel uses that form: each call sums
the string voltage once, takes one phase of I = (sum V - V_g)/Z, and droops
module i on wrap(delta_i - arg I - phi*).  It forms the products
V_i conj(I) only for a recorded row's P and Q, and the tests hold both to
the trigonometric power flow.  The sum stays a normal number where the
per-module powers V* |I| would be subnormal, so the measured angles keep
their digits at any voltage scale the power-scale check admits.  While
every droop error stays on one side of the +/-pi seam and the clamp is
idle, pairwise angle differences decay as exactly exp(-m t) in both modes,
not just to first order; the tests use this as an oracle that is
independent of the linearization.

A scenario is a timeline of parameter/topology events at exact step
boundaries (event times must be multiples of dt); a ``Scenario`` that fails
a check raises ``ValidationError`` when it is built.  A mode, load, line or
reference event is a pure update of the configuration, ``apply_event(config,
action)``, which is also the one check of an event's own values; only the
angle-reset event writes state, and it leaves the config unchanged.  Events
at one time apply together, in file order: the scenario's ``schedule``
holds one entry per event step with the fold of ``apply_event`` over all
events so far, and ``simulate`` builds one kernel per entry whose config
changed, never one for a config between two events.

At zero current the power factor angle is undefined.  All modules carry one
current, so the zero-power rule of ``droop.ZERO_POWER_FRACTION`` holds for
all or none; the engine then holds each module's previous valid measurement,
initialized to the phi* in force at the first step, so a dead start is
well defined.  The run starts after the events at t = 0, with their kernel
and their phi*: it is, bit for bit, the run with those events folded into
the config and the initial angles.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import TYPE_CHECKING, Callable, NamedTuple, Union

from . import linearization
from .droop import ZERO_POWER_FRACTION, DroopParams, droop_frequency
from .errors import DegeneratePointError, NoRootError, SingularImpedanceError, ValidationError
from .phasors import Impedance, PowerPair, generalized_load, series_impedance, wrap_angle

if TYPE_CHECKING:
    import numpy as np

TAU = math.tau
# Every pairwise angle mode decays at exactly -m, and classical RK4 is stable on the
# negative real axis only for m dt <= this limit: the real root of z^3 + 4 z^2 + 12 z + 24,
# negated, where the step's growth factor 1 + z + z^2/2 + z^3/6 + z^4/24 returns to 1.
RK4_STABILITY_LIMIT = 2.785293563405282

# Most modules one string may have; every per-module list is sized from n.
_MAX_MODULES = 1_000_000


class Mode(Enum):
    ISLANDED = "islanded"
    GRID_CONNECTED = "grid"


@dataclass
class InverterState:
    """Dynamic state of one module: its angle and its held measurement ``pf_angle``.

    The amplitude is always V*; the final power and frequency are the trace's last row.
    """

    delta: float
    pf_angle: float


@dataclass(frozen=True)
class SystemConfig:
    """Full plant description: controller constants, grid, line, load, topology."""

    n: int
    droop: DroopParams
    grid_voltage: float
    grid_angle: float
    line: Impedance
    load: Impedance
    mode: Mode

    def __post_init__(self):
        if not (isinstance(self.n, int) and self.n >= 1):
            raise ValidationError(f"n must be an integer >= 1, got {self.n!r}")
        if self.n > _MAX_MODULES:
            raise ValidationError(f"n={self.n} exceeds the cap of {_MAX_MODULES:,} modules")
        if not (math.isfinite(self.grid_voltage) and self.grid_voltage >= 0.0):
            raise ValidationError(f"grid_voltage must be >= 0, got {self.grid_voltage}")
        if not math.isfinite(self.grid_angle):
            raise ValidationError("grid_angle must be finite")
        object.__setattr__(self, "grid_angle", wrap_angle(self.grid_angle))


# --- scenario events ------------------------------------------------------


@dataclass(frozen=True)
class SetMode:
    mode: Mode


@dataclass(frozen=True)
class SetLoad:
    load: Impedance


@dataclass(frozen=True)
class SetLine:
    line: Impedance


@dataclass(frozen=True)
class SetPfRef:
    pf_angle: float


@dataclass(frozen=True)
class SetInitialDelta:
    """Re-initialize one module's angle (1-based index). The only event that writes state."""

    index: int
    delta: float


EventAction = Union[SetMode, SetLoad, SetLine, SetPfRef, SetInitialDelta]


def apply_event(config: SystemConfig, action: EventAction) -> SystemConfig:
    """The config in force after ``action`` (a reset keeps it); the one check of its values."""
    if isinstance(action, SetMode):
        return replace(config, mode=action.mode)
    if isinstance(action, SetLoad):
        return replace(config, load=action.load)
    if isinstance(action, SetLine):
        return replace(config, line=action.line)
    if isinstance(action, SetPfRef):
        return replace(config, droop=replace(config.droop, nominal_pf_angle=action.pf_angle))
    if isinstance(action, SetInitialDelta):
        if not (isinstance(action.index, int) and 1 <= action.index <= config.n):
            raise ValidationError(f"angle-reset index {action.index!r} outside 1..{config.n}")
        if not math.isfinite(action.delta):
            raise ValidationError(f"angle-reset angle must be finite, got {action.delta}")
        return config
    raise ValidationError(f"unsupported event action {action!r}")


@dataclass(frozen=True)
class TimedEvent:
    time: float
    action: EventAction


class EventStep(NamedTuple):
    """The events of one step: the first one's time, the actions in file order, the config after."""

    step: int
    time: float
    actions: tuple[EventAction, ...]
    config: SystemConfig


@dataclass(frozen=True)
class Scenario:
    """A timeline: initial condition, events, and solver settings, checked when built."""

    config: SystemConfig
    initial_deltas: tuple[float, ...]
    events: tuple[TimedEvent, ...] = ()
    duration: float = 1.0
    dt: float = 1e-3
    record_decimation: int = 10
    steps: int = field(init=False, repr=False, compare=False)
    schedule: tuple[EventStep, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "initial_deltas", tuple(float(d) for d in self.initial_deltas))
        object.__setattr__(self, "events", tuple(self.events))
        if not (math.isfinite(self.dt) and self.dt > 0.0):
            raise ValidationError(f"dt must be > 0, got {self.dt}")
        m = self.config.droop.droop_gain
        if not m * self.dt <= RK4_STABILITY_LIMIT:
            raise ValidationError(
                f"droop gain m = {m:g} /s at dt = {self.dt:g} s gives m*dt = {m * self.dt:g}, past "
                f"RK4's stability limit {RK4_STABILITY_LIMIT!r} on the angle modes that decay at -m"
            )
        if not 6.0 * math.pi * m < math.inf:
            # a step sums k1 + 2 (k2 + k3) + k4: six slopes of up to pi m each
            raise ValidationError(f"droop gain m = {m:g} /s: the RK4 slope sum 6 pi m overflows")
        if not (math.isfinite(self.duration) and self.duration > 0.0):
            raise ValidationError(f"duration must be > 0, got {self.duration}")
        if not (isinstance(self.record_decimation, int) and self.record_decimation >= 1):
            raise ValidationError(
                f"record_decimation must be an integer >= 1, got {self.record_decimation!r}"
            )
        if len(self.initial_deltas) != self.config.n:
            raise ValidationError(
                f"initial_deltas has {len(self.initial_deltas)} entries for n={self.config.n} modules"
            )
        if any(not math.isfinite(d) for d in self.initial_deltas):
            raise ValidationError("initial_deltas must be finite")
        steps = _exact_step(self.duration, self.dt, "duration")
        if steps < 1:
            raise ValidationError("duration must cover at least one step")
        schedule: list[EventStep] = []
        config = self.config
        last = -math.inf
        for ev in self.events:
            if ev.time < last:
                raise ValidationError("events must be sorted by time")
            last = ev.time
            if not (0.0 <= ev.time <= self.duration):
                raise ValidationError(f"event time {ev.time} outside [0, {self.duration}]")
            step = _exact_step(ev.time, self.dt, "event time")
            config = apply_event(config, ev.action)
            if schedule and schedule[-1].step == step:
                actions = (*schedule[-1].actions, ev.action)
                schedule[-1] = schedule[-1]._replace(actions=actions, config=config)
            else:
                schedule.append(EventStep(step, ev.time, (ev.action,), config))
        object.__setattr__(self, "steps", steps)
        object.__setattr__(self, "schedule", tuple(schedule))


def _exact_step(t: float, dt: float, what: str) -> int:
    ratio = t / dt
    if not math.isfinite(ratio):
        raise ValidationError(f"{what} {t} is not a finite number of steps of dt={dt}")
    k = round(ratio)
    if abs(t - k * dt) > 1e-9 * max(1.0, abs(t)):
        raise ValidationError(f"{what} {t} is not a multiple of dt={dt}")
    return k


@dataclass(frozen=True)
class Trace:
    """Recorded per-sample channels; columns are modules, rows are samples."""

    times: np.ndarray
    frequency_hz: np.ndarray
    active: np.ndarray
    reactive: np.ndarray
    pf_angle: np.ndarray

    def __post_init__(self):
        rows = len(self.times)
        for arr in (self.frequency_hz, self.active, self.reactive, self.pf_angle):
            if arr.shape != self.frequency_hz.shape or arr.shape[0] != rows:
                raise ValidationError("trace channels must share one (samples, modules) shape")
        if rows > 1 and not (self.times[1:] > self.times[:-1]).all():
            raise ValidationError("trace times must be strictly increasing")
        for arr in (self.times, self.frequency_hz, self.active, self.reactive, self.pf_angle):
            arr.flags.writeable = False

    def __len__(self) -> int:
        return len(self.times)

    @property
    def module_count(self) -> int:
        return self.frequency_hz.shape[1]


class SimulationResult(NamedTuple):
    trace: Trace
    final_states: list[InverterState]


class _Held:
    """Each module's held measurement phi_i = wrap(delta_i - arg I), formed when read.

    A live step boundary stores only its angle list and arg I; ``values``
    wraps them on the first read after it (a recorded row, a zero-current
    stage or the final states) and keeps the result.  No code writes into an
    angle list once a step has stored it: every step returns a new list.
    """

    __slots__ = ("angles", "arg")

    def __init__(self, values: list[float]):
        self.angles = values
        self.arg: float | None = None  # None: ``angles`` are the held values themselves

    def values(self) -> list[float]:
        if self.arg is not None:
            self.angles = [wrap_angle(x - self.arg) for x in self.angles]
            self.arg = None
        return self.angles


def _plant(config: SystemConfig, dt: float) -> Callable[..., list[float]]:
    """The RK4 step of one configuration and step size, its constants bound once.

    The closure ``step`` holds the droop law and its clamp twice: in the loop
    body of stages 1-3 and in stage 4, which needs no next string sum.
    """
    d = config.droop
    v_star = d.nominal_voltage
    w_star = TAU * d.nominal_frequency
    m = d.droop_gain
    phi_star = d.nominal_pf_angle
    if d.freq_clamp is None:
        w_lo, w_hi = -math.inf, math.inf
    else:
        w_lo, w_hi = TAU * d.freq_clamp[0], TAU * d.freq_clamp[1]
    if config.mode is Mode.ISLANDED:
        z = series_impedance(config.line, config.load)
        drive = 0j
    else:
        z = config.line.rect
        drive = cmath.rect(config.grid_voltage, config.grid_angle)
    # The power scale and bounds on |I| and every |S_i|: past float range
    # the kernel's current or powers would be inf or nan.
    rated = config.n * v_star * v_star / abs(z)
    current = (config.n * v_star + abs(drive)) / abs(z)
    if not max(rated, current, v_star * current) < math.inf:
        raise ValidationError(f"power scale n V*^2/|Z| = {rated:g} VA, current (n V* + V_g)/|Z| = "
                              f"{current:g} A or V* times it is not finite")
    # Every module carries the one string current, so |S_i| = V* |I| for all
    # i, and |S| <= fraction * n V*^2/|Z| reads |sum V - V_g| <= fraction * n V*.
    dead_band = ZERO_POWER_FRACTION * config.n * v_star
    increments = (0.5 * dt, 0.5 * dt, dt)  # from stages 1-3 to the next stage's angles
    sixth = dt / 6.0
    rect = cmath.rect
    phase = cmath.phase
    remainder = math.remainder

    def step(deltas: list[float], held: _Held,
             sample: tuple[list[float], ...] | None = None) -> list[float]:
        """The angles one classical RK4 step after ``deltas``, as a new list.

        Each stage sums the string voltage once; while current flows it
        droops every module on wrap(x - arg I - phi*) at the stage's angles
        x, and at zero current on ``held`` with arg I = 0.  A live step
        boundary stores ``deltas`` and its arg I in ``held``.  One loop runs
        stages 1-3, each pass one loop over the modules that forms the
        clamped omega, the next stage angle and that angle's term of the
        next string sum; the stage-4 loop combines the four stages' omegas.
        With ``sample``, the step then fills four lists with the boundary's
        phi (the held values), P, Q and stage-1 clamped omega: only a
        sampled step forms the powers V_i conj(I).
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
            phis, actives, reactives, row_omegas = sample
            phis.extend(held.values())
            icon = ((boundary - drive) / z).conjugate()
            for x in deltas:
                s = rect(v_star, x) * icon
                actives.append(s.real)
                reactives.append(s.imag)
            row_omegas.extend(stages[0])
        return out

    return step


EventCallback = Callable[[float, EventAction, list[float], list[float]], None]


def simulate(scenario: Scenario, on_event: EventCallback | None = None) -> SimulationResult:
    """Run a scenario to completion; deterministic for identical inputs.

    This is the one way to advance the plant: one kernel call per step
    advances the angles by a whole RK4 step and, on a recorded step, fills
    the step's sample after it; the last row keeps its angles.  Between
    stretches it applies one ``scenario.schedule`` entry.

    Parameters
    ----------
    scenario : Scenario
        The timeline; it is never mutated.
    on_event : callable, optional
        Invoked as ``on_event(time, action, deltas_before, deltas_after)``
        with copies of the angle vector around each event application.
    """
    steps = scenario.steps
    bounds = [group.step for group in scenario.schedule]
    # the run starts after the events at t = 0: the first kernel and held phi* are theirs
    config = scenario.schedule[0].config if bounds[:1] == [0] else scenario.config
    n = config.n
    dt = scenario.dt
    step = _plant(config, dt)
    deltas = list(scenario.initial_deltas)
    held = _Held([config.droop.nominal_pf_angle] * n)
    decim = scenario.record_decimation

    import numpy as np

    rows = steps // decim + 1 + (steps % decim != 0)
    try:
        times = np.empty(rows)
        omega = np.empty((rows, n))
        active = np.empty((rows, n))
        reactive = np.empty((rows, n))
        pf_angle = np.empty((rows, n))
    except (ValueError, MemoryError):
        raise ValidationError(
            f"duration {scenario.duration} s at dt={dt} s records {float(rows):.3g} samples, "
            "more than can be allocated"
        ) from None
    row = 0

    for group, start, stop in zip((None, *scenario.schedule), [0, *bounds], [*bounds, steps + 1]):
        if group is not None:
            # a reset writes into the list the last step returned, which no step has read yet
            for action in group.actions:
                before = deltas.copy() if on_event is not None else None
                if isinstance(action, SetInitialDelta):
                    deltas[action.index - 1] = float(action.delta)
                if on_event is not None:
                    on_event(start * dt, action, before, deltas.copy())
            if group.config != config:
                config = group.config
                try:
                    step = _plant(config, dt)
                except (SingularImpedanceError, ValidationError) as exc:
                    raise type(exc)(f"at event time t={start * dt:g} s: {exc}") from exc
        for k in range(start, stop):
            if k % decim == 0 or k == steps:
                sample = ([], [], [], [])
                moved = step(deltas, held, sample)
                times[row] = k * dt
                pf_angle[row], active[row], reactive[row], omega[row] = sample
                row += 1
                if k < steps:  # the last row only measures
                    deltas = moved
            else:
                deltas = step(deltas, held)

    np.divide(omega, TAU, out=omega)  # rad/s to Hz without a second (rows, n) array
    trace = Trace(
        times=times,
        frequency_hz=omega,
        active=active,
        reactive=reactive,
        pf_angle=pf_angle,
    )
    return SimulationResult(trace, [InverterState(x, phi) for x, phi in zip(deltas, held.values())])


# --- equilibria -----------------------------------------------------------


class IslandedEquilibrium(NamedTuple):
    frequency_hz: float
    power: PowerPair


class GridRoot(NamedTuple):
    """A synchronized grid-mode angle, its lambda_1 (always finite) and verdict."""

    delta: float
    lambda_slow: float
    verdict: linearization.Stability


class GridEquilibrium(NamedTuple):
    delta_s: float
    roots: tuple[GridRoot, ...]


def islanded_equilibrium(config: SystemConfig) -> IslandedEquilibrium:
    """Closed-form synchronized operating point of the islanded string.

    All angles are equal, every module measures the generalized-load angle,
    and the shared frequency is the droop law evaluated there, in Hz.  The
    common angle is a free symmetry of the islanded string, so the record
    holds only what does not depend on it: that frequency and the
    per-module power.
    """
    if config.mode is not Mode.ISLANDED:
        raise ValidationError("islanded_equilibrium requires an islanded configuration")
    z = generalized_load(config.line, config.load)
    d = config.droop
    omega = droop_frequency(z.angle, d)
    v = d.nominal_voltage
    scale = config.n * v * v / z.magnitude
    return IslandedEquilibrium(
        omega / TAU,
        PowerPair(scale * math.cos(z.angle), scale * math.sin(z.angle)),
    )


def synchronized_grid_power(config: SystemConfig, delta_common: float) -> PowerPair:
    """Per-module power of the grid-tied string with every angle at ``delta_common``."""
    v = cmath.rect(config.droop.nominal_voltage, delta_common)
    total = config.n * v - cmath.rect(config.grid_voltage, config.grid_angle)
    s = v * (total / config.line.rect).conjugate()
    return PowerPair(s.real, s.imag)


def grid_equilibrium(config: SystemConfig) -> GridEquilibrium:
    """Synchronized grid-mode operating points, in closed form.

    With every angle at delta and x = delta - delta_g, the per-module power
    is S(x) = k (c - r e^{jx}) / conj(Z_line), k = V* (n V* + V_g), with
    (c, r, gap) the `linearization.voltage_shares`: no root depends on the
    voltage scale.  The condition arg S = phi* asks where the ray at
    psi = phi* - theta_line meets the circle of centre c and radius r.
    Since c + r = 1 and c - r = gap, its points c - r e^{jx} = t e^{j psi}
    are the roots t > 0 of

        t^2 - 2 c cos(psi) t + gap = 0,

    taken as q = c cos(psi) + sign(cos psi) sqrt((c cos psi)^2 - gap) and
    gap / q, which do not cancel, and each mapped back by
    x = atan2(-t sin psi, c - t cos psi).  Since |S| = k t / |Z|, a root
    next to t = 0 has almost no current: ``linearization.slow_mode`` calls
    its point degenerate and it is dropped.

    There are at most two roots, returned sorted by delta, each with a
    finite lambda_1 and verdict from ``slow_mode``.  ``delta_s`` is the one
    with the larger t, the far intersection.  Along the circle,
    d arg S / dx = r (r - c cos x) / t^2 = (t^2 - gap) / (2 t^2), and
    t^2 - gap has the sign of V_g - n V* cos(x), the stability margin.  Two
    roots have t_near t_far = gap > 0, so the far root is the stable one
    and the near root the unstable one; a tangent root (t^2 = gap) is
    marginal; an undersized string (gap < 0) has one root, and it is stable.

    Raises NoRootError when no root is left: the requested power factor
    angle is unreachable at this sizing.  Raises ValidationError when
    n V* + V_g overflows.
    """
    if config.mode is not Mode.GRID_CONNECTED:
        raise ValidationError("grid_equilibrium requires a grid-connected configuration")
    d = config.droop
    n = config.n
    c, _, gap = linearization.voltage_shares(n, d.nominal_voltage, config.grid_voltage)
    psi = d.nominal_pf_angle - config.line.angle
    cos_psi = math.cos(psi)
    sin_psi = math.sin(psi)
    disc = (c * cos_psi) ** 2 - gap
    ts: tuple[float, ...] = ()
    if disc >= 0.0:
        q = c * cos_psi + math.copysign(math.sqrt(disc), cos_psi)
        if q != 0.0:
            ts = (q,) if disc == 0.0 else (q, gap / q)
    roots = []
    for t in sorted(ts, reverse=True):  # the far root first: it is delta_s
        if t <= 0.0:
            continue
        delta = wrap_angle(math.atan2(-t * sin_psi, c - t * cos_psi) + config.grid_angle)
        try:
            lam, verdict = linearization.slow_mode(
                n, d.nominal_voltage, config.grid_voltage, d.droop_gain,
                wrap_angle(delta - config.grid_angle),
            )
        except DegeneratePointError:
            continue
        roots.append(GridRoot(delta, lam, verdict))
    if not roots:
        raise NoRootError(
            "no synchronized grid-mode operating point: the power factor angle reference "
            "is unreachable for this string sizing and line"
        )
    return GridEquilibrium(roots[0].delta, tuple(sorted(roots, key=lambda root: root.delta)))
