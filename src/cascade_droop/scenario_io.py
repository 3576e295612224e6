"""Scenario files: a small structured-text format for plant + timeline.

Grammar (``#`` starts a comment, blank lines are ignored)::

    [system]
    n = 4                 # module count, integer 1..1,000,000
    f_star = 50           # nominal frequency, Hz
    v_star = 78.75        # per-module voltage amplitude, V
    v_grid = 315          # grid voltage amplitude, V (>= 0)
    grid_angle = 0        # grid phase in the nominal frame, rad (default 0)
    phi_star = 0.2        # power-factor-angle reference, rad
    m = 0.5               # droop gain, 1/s
    clamp = 49, 51        # frequency clamp band in Hz, or 'off' (default 49, 51)
    mode = grid           # initial topology: 'grid' or 'islanded'

    [line]                # transmission line impedance, ohms
    mag = 0.314           # either mag/theta (rad) ...
    theta = 1.5707963267948966

    [load]                # local load impedance, ohms
    r = 12                # ... or r/x, optionally with l (H) and c (F)
    x = 0                 # reactances are evaluated at f_star

    [initial]             # optional; default all zeros
    delta = 0.1, 0.05, -0.05, -0.1     # rad, one per module

    [events]              # optional; '<time> <kind> <args>' one per line,
    2.0 mode islanded     # sorted by time; events at one time apply together,
    6.0 load r=12 x=6     # in file order, with one new plant per event time
    5.0 phi_star 2.356194490192345
    5.0 delta 1 0.7853981633974483    # module index (1-based), finite angle (rad)
    50.0 line mag=0.314 theta=0

    [solver]
    dt = 0.001            # step, s (default 0.001)
    duration = 10         # required, s; must be a multiple of dt
    decimation = 10       # record every k-th step (default 10)

Unknown sections or keys are rejected; every parse or validation error
carries the offending line number where one exists.  Event times are checked
against dt and duration when the ``Scenario`` is built.  Each event's own
values are checked by ``engine.apply_event`` where it is parsed, so a
non-finite angle or an angle-reset index outside 1..n names the event's line.
Events at t = 0 apply before the first step, as if folded into the sections.
"""

from __future__ import annotations

import math

from .droop import DroopParams
from .engine import (
    Mode,
    Scenario,
    SetInitialDelta,
    SetLine,
    SetLoad,
    SetMode,
    SetPfRef,
    SystemConfig,
    TimedEvent,
    apply_event,
)
from .errors import ScenarioParseError, ValidationError
from .phasors import Impedance

TAU = math.tau

_SECTIONS = ("system", "line", "load", "initial", "events", "solver")
_SYSTEM_KEYS = ("n", "f_star", "v_star", "v_grid", "grid_angle", "phi_star", "m", "clamp", "mode")
_IMPEDANCE_KEYS = ("mag", "theta", "r", "x", "l", "c")
_SOLVER_KEYS = ("dt", "duration", "decimation")

DEFAULT_CLAMP = (49.0, 51.0)

# The [system] key behind each DroopParams and SystemConfig field, by the field
# name that opens its error message.  A default clamp is blamed on f_star.
_SYSTEM_FIELD_KEYS = {
    "nominal_frequency": "f_star",
    "nominal_voltage": "v_star",
    "nominal_pf_angle": "phi_star",
    "droop_gain": "m",
    "freq_clamp": "clamp",
    "grid_voltage": "v_grid",
    "grid_angle": "grid_angle",
}


def _scan_sections(text: str) -> dict[str, list[tuple[int, str]]]:
    sections: dict[str, list[tuple[int, str]]] = {}
    current: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ScenarioParseError(lineno, f"malformed section header {raw.strip()!r}")
            name = line[1:-1].strip().lower()
            if name not in _SECTIONS:
                raise ScenarioParseError(lineno, f"unknown section [{name}]")
            if name in sections:
                raise ScenarioParseError(lineno, f"duplicate section [{name}]")
            sections[name] = []
            current = name
            continue
        if current is None:
            raise ScenarioParseError(lineno, "content before any [section] header")
        sections[current].append((lineno, line))
    return sections


def _parse_kv(lines: list[tuple[int, str]], allowed: tuple[str, ...], section: str):
    out: dict[str, tuple[int, str]] = {}
    for lineno, line in lines:
        if "=" not in line:
            raise ScenarioParseError(lineno, f"expected 'key = value' in [{section}], got {line!r}")
        key, value = line.split("=", 1)
        key = key.strip().lower()
        value = value.strip()
        if key not in allowed:
            raise ScenarioParseError(lineno, f"unknown key {key!r} in [{section}]")
        if key in out:
            raise ScenarioParseError(lineno, f"duplicate key {key!r} in [{section}]")
        if not value:
            raise ScenarioParseError(lineno, f"empty value for {key!r} in [{section}]")
        out[key] = (lineno, value)
    return out


def _as_float(entry: tuple[int, str], what: str) -> float:
    lineno, value = entry
    try:
        return float(value)
    except ValueError:
        raise ScenarioParseError(lineno, f"{what}: not a number: {value!r}") from None


def _as_int(entry: tuple[int, str], what: str) -> int:
    lineno, value = entry
    try:
        return int(value)
    except ValueError:
        raise ScenarioParseError(lineno, f"{what}: not an integer: {value!r}") from None


def _impedance_from_fields(fields: dict[str, tuple[int, str]], section: str,
                           omega_star: float, lineno: int) -> Impedance:
    vals = {k: _as_float(v, f"[{section}] {k}") for k, v in fields.items()}
    try:
        if "mag" in vals or "theta" in vals:
            if set(vals) != {"mag", "theta"}:
                raise ValidationError(
                    f"[{section}]: polar form takes exactly mag and theta, got {sorted(vals)}"
                )
            return Impedance(vals["mag"], vals["theta"])
        r = vals.get("r", 0.0)
        x = vals.get("x", 0.0)
        if "l" in vals:
            x += omega_star * vals["l"]
        if "c" in vals:
            if vals["c"] <= 0.0:
                raise ValidationError(f"[{section}]: capacitance must be > 0 farad")
            x -= 1.0 / (omega_star * vals["c"])
        return Impedance.from_rect(r, x)
    except ValidationError as exc:
        raise ScenarioParseError(lineno, str(exc)) from None


def _parse_event_impedance(tokens: list[str], section: str, omega_star: float,
                           lineno: int) -> Impedance:
    fields = _parse_kv([(lineno, tok) for tok in tokens], _IMPEDANCE_KEYS, section)
    if not fields:
        raise ScenarioParseError(lineno, "impedance event needs at least one field")
    return _impedance_from_fields(fields, section, omega_star, lineno)


def parse_scenario(text: str) -> Scenario:
    """Parse and validate a scenario document. See the module docstring for the grammar."""
    sections = _scan_sections(text)
    for required in ("system", "line", "load", "solver"):
        if required not in sections:
            raise ScenarioParseError(0, f"missing required section [{required}]")

    sys_kv = _parse_kv(sections["system"], _SYSTEM_KEYS, "system")
    for required in ("n", "f_star", "v_star", "v_grid", "phi_star", "m", "mode"):
        if required not in sys_kv:
            raise ScenarioParseError(0, f"[system] is missing required key {required!r}")

    n = _as_int(sys_kv["n"], "[system] n")
    f_star = _as_float(sys_kv["f_star"], "[system] f_star")
    omega_star = TAU * f_star  # the l and c reactances read it
    if not 0.0 < omega_star < math.inf:  # checked before a reactance can blame its own line
        raise ScenarioParseError(sys_kv["f_star"][0], "f_star must be > 0 Hz, 2 pi f_star finite")

    clamp: tuple[float, float] | None = DEFAULT_CLAMP
    if "clamp" in sys_kv:
        lineno, value = sys_kv["clamp"]
        if value.lower() == "off":
            clamp = None
        else:
            parts = [p.strip() for p in value.split(",")]
            if len(parts) != 2:
                raise ScenarioParseError(lineno, "clamp takes 'low, high' in Hz or 'off'")
            clamp = (_as_float((lineno, parts[0]), "clamp low"),
                     _as_float((lineno, parts[1]), "clamp high"))

    mode_lineno, mode_text = sys_kv["mode"]
    mode_text = mode_text.lower()
    try:
        mode = Mode(mode_text)
    except ValueError:
        raise ScenarioParseError(
            mode_lineno, f"mode must be 'grid' or 'islanded', got {mode_text!r}"
        ) from None

    num = {key: _as_float(entry, f"[system] {key}") for key, entry in sys_kv.items()
           if key in ("v_star", "v_grid", "grid_angle", "phi_star", "m")}
    line_lineno = sections["line"][0][0] if sections["line"] else 0
    load_lineno = sections["load"][0][0] if sections["load"] else 0
    line = _impedance_from_fields(
        _parse_kv(sections["line"], _IMPEDANCE_KEYS, "line"), "line", omega_star, line_lineno
    )
    load = _impedance_from_fields(
        _parse_kv(sections["load"], _IMPEDANCE_KEYS, "load"), "load", omega_star, load_lineno
    )

    try:
        config = SystemConfig(
            n=n,
            droop=DroopParams(f_star, num["v_star"], num["phi_star"], num["m"], clamp),
            grid_voltage=num["v_grid"],
            grid_angle=num.get("grid_angle", 0.0),
            line=line,
            load=load,
            mode=mode,
        )
    except ValidationError as exc:
        key = _SYSTEM_FIELD_KEYS.get(str(exc).split(" ", 1)[0], "n")  # else one of n's messages
        raise ScenarioParseError(sys_kv.get(key, sys_kv["f_star"])[0], f"[system]: {exc}") from None

    init_kv = _parse_kv(sections.get("initial", []), ("delta",), "initial")
    if "delta" in init_kv:
        lineno, value = init_kv["delta"]
        # an empty entry is not a number, as in clamp
        initial = tuple(_as_float((lineno, p.strip()), "[initial] delta") for p in value.split(","))
        if len(initial) != n:
            raise ScenarioParseError(
                lineno, f"[initial] delta lists {len(initial)} angles for n={n} modules"
            )
    else:
        initial = (0.0,) * n

    events: list[TimedEvent] = []
    for lineno, line_text in sections.get("events", []):
        tokens = line_text.split()
        if len(tokens) < 2:
            raise ScenarioParseError(lineno, f"event needs '<time> <kind> ...', got {line_text!r}")
        t = _as_float((lineno, tokens[0]), "event time")
        kind = tokens[1].lower()
        args = tokens[2:]
        if kind == "mode":
            try:
                (word,) = args
                action = SetMode(Mode(word.lower()))
            except ValueError:
                raise ScenarioParseError(lineno, "mode event takes 'grid' or 'islanded'") from None
        elif kind == "load":
            action = SetLoad(_parse_event_impedance(args, "events", omega_star, lineno))
        elif kind == "line":
            action = SetLine(_parse_event_impedance(args, "events", omega_star, lineno))
        elif kind == "phi_star":
            if len(args) != 1:
                raise ScenarioParseError(lineno, "phi_star event takes one angle in rad")
            action = SetPfRef(_as_float((lineno, args[0]), "phi_star event"))
        elif kind == "delta":
            if len(args) != 2:
                raise ScenarioParseError(lineno, "delta event takes '<module-index> <angle>'")
            action = SetInitialDelta(
                _as_int((lineno, args[0]), "delta event index"),
                _as_float((lineno, args[1]), "delta event angle"),
            )
        else:
            raise ScenarioParseError(lineno, f"unknown event kind {kind!r}")
        try:
            apply_event(config, action)
        except ValidationError as exc:
            raise ScenarioParseError(lineno, f"{kind} event: {exc}") from None
        events.append(TimedEvent(t, action))

    solver_kv = _parse_kv(sections["solver"], _SOLVER_KEYS, "solver")
    if "duration" not in solver_kv:
        raise ScenarioParseError(0, "[solver] is missing required key 'duration'")
    solver = {"duration": _as_float(solver_kv["duration"], "[solver] duration")}
    if "dt" in solver_kv:  # else Scenario's own default
        solver["dt"] = _as_float(solver_kv["dt"], "[solver] dt")
    if "decimation" in solver_kv:
        solver["record_decimation"] = _as_int(solver_kv["decimation"], "[solver] decimation")
    return Scenario(config=config, initial_deltas=initial, events=tuple(events), **solver)


def _fmt(x: float) -> str:
    return repr(float(x))


def _impedance_text(z: Impedance) -> str:
    return f"mag={_fmt(z.magnitude)} theta={_fmt(z.angle)}"


def serialize_scenario(scenario: Scenario) -> str:
    """Canonical text form of a scenario; parsing it back yields an equal Scenario."""
    c = scenario.config
    d = c.droop
    lines = [
        "[system]",
        f"n = {c.n}",
        f"f_star = {_fmt(d.nominal_frequency)}",
        f"v_star = {_fmt(d.nominal_voltage)}",
        f"v_grid = {_fmt(c.grid_voltage)}",
        f"grid_angle = {_fmt(c.grid_angle)}",
        f"phi_star = {_fmt(d.nominal_pf_angle)}",
        f"m = {_fmt(d.droop_gain)}",
        "clamp = off" if d.freq_clamp is None
        else f"clamp = {_fmt(d.freq_clamp[0])}, {_fmt(d.freq_clamp[1])}",
        f"mode = {c.mode.value}",
        "",
        "[line]",
        f"mag = {_fmt(c.line.magnitude)}",
        f"theta = {_fmt(c.line.angle)}",
        "",
        "[load]",
        f"mag = {_fmt(c.load.magnitude)}",
        f"theta = {_fmt(c.load.angle)}",
        "",
        "[initial]",
        "delta = " + ", ".join(_fmt(x) for x in scenario.initial_deltas),
    ]
    if scenario.events:
        lines += ["", "[events]"]
        for ev in scenario.events:
            a = ev.action
            if isinstance(a, SetMode):
                lines.append(f"{_fmt(ev.time)} mode {a.mode.value}")
            elif isinstance(a, SetLoad):
                lines.append(f"{_fmt(ev.time)} load {_impedance_text(a.load)}")
            elif isinstance(a, SetLine):
                lines.append(f"{_fmt(ev.time)} line {_impedance_text(a.line)}")
            elif isinstance(a, SetPfRef):
                lines.append(f"{_fmt(ev.time)} phi_star {_fmt(a.pf_angle)}")
            else:
                lines.append(f"{_fmt(ev.time)} delta {a.index} {_fmt(a.delta)}")
    lines += [
        "",
        "[solver]",
        f"dt = {_fmt(scenario.dt)}",
        f"duration = {_fmt(scenario.duration)}",
        f"decimation = {scenario.record_decimation}",
        "",
    ]
    return "\n".join(lines)
