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
m dt <= ``RK4_STABILITY_LIMIT``, so a ``Scenario`` past it is refused.  A
grid config's common mode decays at its slow eigenvalue lambda_1, which can
be many times faster than -m, so a ``Scenario`` also refuses a stable root of
``grid_equilibrium`` with |lambda_1| dt past ``SLOW_MODE_LIMIT``, 0.9 of that
limit (short of the limit itself RK4 has rest points next to the root), in
every config of its schedule; a config with no root is skipped.  An islanded
config needs no such check: its common mode is neutral and its pairwise
modes decay at -m.
The guard bounds the linearization at the root only, so it is necessary but
not sufficient: nearer zero current the flow is stiffer still.

Two kernels hold the measurement, the droop law and the integrator, and
they give the same bits for any n.  Both run a whole stretch between two
schedule entries in one call, from the same ``_bind`` constants, and take
and return the same values: the angles, the held values and the next table
row.  The Python kernel ``_stretch`` runs one loop over the four stages per
step, whose inner loop droops and clamps each module in one place; stage 4
combines the four stages' slopes w - omega*.  The C kernel, ``_rk4.c``
loaded by ``_native``, ports each of its operations from CPython's own
arithmetic.  ``simulate`` takes it where it is loaded, or where the run has
at least ``_native.MODULE_STEPS`` module-steps (n x steps), which builds it
once per process; otherwise, and wherever it cannot be built or fails its
check, ``_stretch`` runs.  In the tests ``_stretch`` is the C kernel's
oracle, and ``tests/oracles.py``'s loop kernel is ``_stretch``'s.  On a
recorded step the kernel writes the row [t, omega, P, Q, phi] after the
step; the last row keeps its angles.  The held measurement
wrap(delta_i - arg I) is formed only where it is read (a zero-current
stage, a recorded row, the stretch's end): inside a stretch a live step
boundary keeps just its angle list and arg I.  ``simulate``, the only way
to advance the plant, has the kernels write each row into one preallocated
(rows, 1 + 4n) table in the trace CSV's column order, after refusing one
larger than the machine's physical memory.  That table is the only numpy
this module needs; scenario checks and the equilibria are plain ``math``.

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
independent of the linearization.  The kernel's remainder(e - base, TAU)
is ``wrap_angle`` inlined, so the kernel and ``droop_frequency`` are one
law, the seam included.

A scenario is a timeline of parameter/topology events at exact step
boundaries (event times must be multiples of dt); a ``Scenario`` that fails
a check raises ``ValidationError`` when it is built.  A mode, load, line or
reference event is a pure update of the configuration, ``apply_event(config,
action)``, which is also the one check of an event's own values; only the
angle-reset event writes state, and it leaves the config unchanged.  Events
at one time apply together, in file order: the scenario's ``schedule``
holds one entry per event step with the fold of ``apply_event`` over all
events so far.  The schedule's first entry is step 0, so it lists every
config a run runs, and ``simulate`` binds the kernels' constants for it and
for each later entry whose config changed, never for a config between two
events.

At zero current the power factor angle is undefined.  All modules carry one
current, so the zero-power rule of ``droop.ZERO_POWER_FRACTION`` holds for
all or none; the engine then holds each module's previous valid measurement,
initialized to the phi* in force at the first step, so a dead start is
well defined.  Step 0's constants and phi* are those of the schedule's first
entry, so a run with events at t = 0 is, bit for bit, the run with those
events folded into the config and the initial angles.
"""

from __future__ import annotations

import cmath
import math
import os
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import partial
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
# Most |lambda1| dt a stable grid root's slow mode may take.  At RK4_STABILITY_LIMIT RK4's
# growth factor on lambda1 is exactly 1, and just short of it RK4's map of the common mode has
# rest points and cycles next to delta_s that are not equilibria: a 40-module string with
# lambda1 = -19.03 /s, started 1e-3 rad below delta_s, rests 4.1e-3 rad off at the limit.  The
# largest fraction of the limit at which runs started 1e-3 rad on both sides of delta_s settle
# to it, found by bisection: 0.9797 for that string; at least 0.9759 over 3,451 drawn grid
# configs with |lambda1| >= 0.9 m, and 0.9733 next to zero current; 0.9058 where the ray of
# phi* grazes the circle of operating points at zero current (the gap of the voltage shares
# -> 0-, lambda1 -> -m).  0.9 is below every one of them.
SLOW_MODE_LIMIT = 0.9 * RK4_STABILITY_LIMIT

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
        schedule = [EventStep(0, 0.0, (), self.config)]
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
            if schedule[-1].step == step:
                actions = (*schedule[-1].actions, ev.action)
                schedule[-1] = schedule[-1]._replace(actions=actions, config=config)
            else:
                schedule.append(EventStep(step, ev.time, (ev.action,), config))
        for group in schedule:
            _check_slow_mode(group, self.dt)
        object.__setattr__(self, "steps", steps)
        object.__setattr__(self, "schedule", tuple(schedule))


def _check_slow_mode(group: EventStep, dt: float) -> None:
    """Refuse a stable grid root whose |lambda_1| dt is past ``SLOW_MODE_LIMIT``."""
    if group.config.mode is not Mode.GRID_CONNECTED:
        return  # islanded: the common mode is neutral and the pairwise modes decay at -m
    try:
        roots = grid_equilibrium(group.config).roots
    except (NoRootError, ValidationError):
        return  # no root, or voltages past float range: no equilibrium to protect
    for root in roots:
        lam = root.lambda_slow
        if root.verdict is linearization.Stability.STABLE and not -lam * dt <= SLOW_MODE_LIMIT:
            raise ValidationError(
                f"grid slow mode lambda1 = {lam:g} /s at dt = {dt:g} s gives |lambda1|*dt = "
                f"{-lam * dt:g}, past RK4's stability limit with a margin, {SLOW_MODE_LIMIT!r} "
                f"({SLOW_MODE_LIMIT / RK4_STABILITY_LIMIT:g} of {RK4_STABILITY_LIMIT!r}), "
                f"in the config in force from t = {group.time:g} s"
            )


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
    """Rows are samples in the CSV's columns (time, f, P, Q, phi); channels are read-only views."""

    table: np.ndarray

    def __post_init__(self):
        shape = self.table.shape
        if len(shape) != 2 or shape[1] < 5 or (shape[1] - 1) % 4:
            raise ValidationError(f"a trace table has 1 + 4n columns for n >= 1, got shape {shape}")
        times = self.times
        if (times != times).any() or not (times[1:] > times[:-1]).all():
            raise ValidationError("trace times must be strictly increasing")
        self.table.flags.writeable = False

    def __len__(self) -> int:
        return self.table.shape[0]

    @property
    def module_count(self) -> int:
        return (self.table.shape[1] - 1) // 4

    def _channel(self, k: int) -> np.ndarray:
        n = self.module_count
        return self.table[:, 1 + k * n:1 + (k + 1) * n]

    times = property(lambda self: self.table[:, 0])
    frequency_hz = property(lambda self: self._channel(0))
    active = property(lambda self: self._channel(1))
    reactive = property(lambda self: self._channel(2))
    pf_angle = property(lambda self: self._channel(3))


class SimulationResult(NamedTuple):
    trace: Trace
    final_states: list[InverterState]


def _bind(config: SystemConfig, dt: float) -> tuple:
    """The kernels' constants for one configuration and step size, in the order both take them.

    They are V*, omega*, m and phi*, the clamp band in rad/s, the impedance
    Z the string drives and the drive, the zero-power dead band and the RK4
    increments dt/2, dt and dt/6.  A power scale past float range is refused.
    """
    d = config.droop
    v_star = d.nominal_voltage
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
    return (v_star, TAU * d.nominal_frequency, d.droop_gain, d.nominal_pf_angle, w_lo, w_hi,
            z, drive, dead_band, 0.5 * dt, dt, dt / 6.0)


def _stretch(constants: tuple, deltas: list[float], held: list[float], table: np.ndarray,
             row: int, start: int, stop: int, steps: int,
             decim: int) -> tuple[list[float], list[float], int]:
    """Steps ``start`` .. ``stop`` - 1 of one config, from ``_bind``'s ``constants``.

    Each stage sums the string voltage once; while current flows it droops
    every module on wrap(x - arg I - phi*) at the stage's angles x, and at
    zero current on the held values ``held`` with arg I = 0.  A live step
    boundary keeps its angles and arg I in ``live`` and ``arg``; the held
    values wrap(delta_i - arg I) are formed from them where they are read (a
    zero-current stage, a recorded row, the stretch's end).  Step k is
    recorded when k % decim == 0 or k == steps, as table row (k dt, the
    stage-1 clamped omegas, P, Q, the held values) from ``row`` on: only a
    recorded step forms the powers V_i conj(I), and the step k == steps only
    measures.  Returns the angles, the held values and the next row.
    """
    v_star, w_star, m, phi_star, w_lo, w_hi, z, drive, dead_band, half, dt, sixth = constants
    rect = cmath.rect
    phase = cmath.phase
    remainder = math.remainder
    live, arg = None, 0.0  # the last live step boundary's angles and arg I, until formed
    for k in range(start, stop):
        es = deltas
        stages = []
        for h in (half, half, dt, None):  # from each stage to the next stage's angles
            total = 0j
            for e in es:
                total += rect(v_star, e)
            total -= drive
            if not stages:
                boundary = total
            if abs(total) <= dead_band:
                if live is not None:
                    held, live = [remainder(x - arg, TAU) for x in live], None
                es = held
                base = phi_star
            else:
                arg_i = phase(total / z)
                if not stages:  # the step boundary's measurement is the one held
                    live, arg = deltas, arg_i
                base = arg_i + phi_star
            omegas = []
            for e in es:
                w = w_star - m * remainder(e - base, TAU)
                if w < w_lo:
                    w = w_lo
                elif w > w_hi:
                    w = w_hi
                omegas.append(w)
            stages.append(omegas)
            if h is not None:
                es = [x + h * (w - w_star) for x, w in zip(deltas, omegas)]
        if k % decim == 0 or k == steps:
            if live is not None:
                held, live = [remainder(x - arg, TAU) for x in live], None
            icon = (boundary / z).conjugate()
            powers = [rect(v_star, x) * icon for x in deltas]
            table[row] = [k * dt, *stages[0], *[s.real for s in powers],
                          *[s.imag for s in powers], *held]
            row += 1
        if k < steps:  # the last row only measures
            deltas = [x + sixth * ((a - w_star) + 2.0 * ((b - w_star) + (c - w_star))
                                   + (d - w_star)) for x, a, b, c, d in zip(deltas, *stages)]
    if live is not None:
        held = [remainder(x - arg, TAU) for x in live]
    return deltas, held, row


EventCallback = Callable[[float, EventAction, list[float], list[float]], None]


def simulate(scenario: Scenario, on_event: EventCallback | None = None) -> SimulationResult:
    """Run a scenario to completion; deterministic for identical inputs.

    This is the one way to advance the plant.  Each stretch opens with one
    ``scenario.schedule`` entry, the first at step 0, and runs in one call of
    one of two kernels that give the same bits: the C kernel where it is
    loaded in this process or the run has at least ``_native.MODULE_STEPS``
    module-steps (n x steps), else the Python kernel, for any n up to
    ``_MAX_MODULES``.  On a recorded step the kernel fills the step's row
    after it; the last row keeps its angles.  A trace table larger than the
    machine's physical memory is refused before the first step.

    Parameters
    ----------
    scenario : Scenario
        The timeline; it is never mutated.
    on_event : callable, optional
        Invoked as ``on_event(time, action, deltas_before, deltas_after)``
        with copies of the angle vector around each event application.
    """
    from . import _native  # at the first run, so that importing the package costs no more

    return _run(scenario, on_event, _native.kernel)


def _run(scenario: Scenario, on_event: EventCallback | None,
         native: Callable[[int], Callable | None]) -> SimulationResult:
    """``simulate`` on the C kernel that ``native(n * steps)`` returns, or on Python's for None."""
    from . import _native

    steps = scenario.steps
    schedule = scenario.schedule
    config = schedule[0].config
    n = config.n
    dt = scenario.dt
    deltas = list(scenario.initial_deltas)
    held = [config.droop.nominal_pf_angle] * n
    decim = scenario.record_decimation

    rows = steps // decim + 1 + (steps % decim != 0)
    width = 1 + 4 * n
    too_big = (f"duration {scenario.duration} s at dt={dt} s records {float(rows):.3g} samples "
               f"of {width} values, {8.0 * rows * width:.3g} bytes, more than can be allocated")
    try:  # the machine's physical memory, where the platform tells it
        memory = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        memory = -1
    if 0 < memory < 8 * rows * width:
        raise ValidationError(too_big)

    import numpy as np

    try:
        table = np.empty((rows, width))
    except (ValueError, MemoryError):
        raise ValidationError(too_big) from None
    row = 0
    stretch = native(n * steps)
    kernel = _stretch if stretch is None else partial(_native.run, stretch)
    constants = _bind(config, dt)

    for group, stop in zip(schedule, [*(g.step for g in schedule[1:]), steps + 1]):
        start = group.step
        # a reset writes into the list the last stretch returned, which nothing else holds
        for action in group.actions:
            before = deltas.copy() if on_event is not None else None
            if isinstance(action, SetInitialDelta):
                deltas[action.index - 1] = float(action.delta)
            if on_event is not None:
                on_event(start * dt, action, before, deltas.copy())
        if group.config != config:
            config = group.config
            try:
                constants = _bind(config, dt)
            except (SingularImpedanceError, ValidationError) as exc:
                raise type(exc)(f"at event time t={start * dt:g} s: {exc}") from exc
        ran = kernel(constants, deltas, held, table, row, start, stop, steps, decim)
        if ran is None:
            # the C kernel declines where CPython raises or a value is not finite: the
            # Python kernel runs the rest of the run from the stretch's start
            kernel = _stretch
            ran = kernel(constants, deltas, held, table, row, start, stop, steps, decim)
        deltas, held, row = ran

    omega = table[:, 1:1 + n]
    np.divide(omega, TAU, out=omega)  # rad/s to Hz in place
    final = [InverterState(x, phi) for x, phi in zip(deltas, held)]
    return SimulationResult(Trace(table), final)


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
