"""Per-layer tracing from outside the package.

Each traced function is replaced, at every module-global name that binds it
inside ``cascade_droop`` (``cases.simulate``, ``reports.grid_jacobian``,
``cli.run_case``, the package namespace, ...), by a wrapper that records a
span: name, parent span, start, end and a small per-call detail.  Hot
helpers whose individual calls are too short to time get a counting
wrapper instead.  Spans stay in memory until the run ends; a layer's self
time is its span's duration minus the durations of its direct child spans.
"""

from __future__ import annotations

import functools
import sys
import time
from pathlib import Path

SPANNED = (
    ("scenario_io", "parse_scenario"),
    ("cases", "build_case"),
    ("cases", "run_case"),
    ("cli", "main"),
    ("engine", "simulate"),
    ("engine", "grid_equilibrium"),
    ("engine", "islanded_equilibrium"),
    ("linearization", "grid_ab"),
    ("linearization", "grid_jacobian"),
    ("linearization", "numeric_eigenvalues"),
    ("linearization", "stability_condition"),
    ("reports", "report_stability"),
    ("reports", "emit_trace_csv"),
)

COUNTED = (
    ("engine", "synchronized_grid_power"),
    ("droop", "droop_frequency"),
    ("phasors", "wrap_angle"),
)

PACKAGE = "cascade_droop"


def _simulate_detail(args, kwargs):
    scenario = args[0] if args else kwargs["scenario"]
    steps = round(scenario.duration / scenario.dt)
    return (steps, scenario.config.n, len(scenario.events))


def _roots_detail(result):
    return len(result.roots)


def _rows_detail(text):
    marker = "sweep rows: "
    start = text.find(marker)
    if start < 0:
        return 1
    return int(text[start + len(marker):text.index("\n", start)])


def _bytes_detail(path):
    return Path(path).stat().st_size


# Per-call detail taken from the arguments (before the call) or the result
# (after it), kept outside the timed interval of the span.
_BEFORE = {"engine.simulate": _simulate_detail}
_AFTER = {
    "engine.grid_equilibrium": _roots_detail,
    "reports.report_stability": _rows_detail,
    "reports.emit_trace_csv": _bytes_detail,
}


class Tracer:
    """Installs span and count wrappers; ``spans`` holds (name, parent, t0_ns, t1_ns, detail)."""

    def __init__(self):
        self.spans: list = []
        self.counts = {f"{m}.{f}": [0] for m, f in COUNTED}
        self._patched: list = []
        self._stack: list[int] = []

    def _span_wrapper(self, name, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns
        before = _BEFORE.get(name)
        after = _AFTER.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            detail = before(args, kwargs) if before is not None else None
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = clock()
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                t1 = clock()
                stack.pop()
                if ok and after is not None:
                    detail = after(result)
                spans[sid] = (name, parent, t0, t1, detail)
            return result

        return wrapper

    def _count_wrapper(self, name, fn):
        cell = self.counts[name]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        modules = [
            mod for key, mod in sorted(sys.modules.items())
            if key == PACKAGE or key.startswith(PACKAGE + ".")
        ]
        targets = [(m, f, self._span_wrapper) for m, f in SPANNED]
        targets += [(m, f, self._count_wrapper) for m, f in COUNTED]
        for mod_name, fn_name, make in targets:
            original = getattr(sys.modules[f"{PACKAGE}.{mod_name}"], fn_name)
            wrapper = make(f"{mod_name}.{fn_name}", original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def aggregate(self) -> dict:
        """Per-layer calls, self time and counts for the spans recorded so far."""
        spans = self.spans
        child_ns = [0] * len(spans)
        for name, parent, t0, t1, _ in spans:
            if parent >= 0:
                child_ns[parent] += t1 - t0
        calls = {f"{m}.{f}": 0 for m, f in SPANNED}
        self_ns = dict.fromkeys(calls, 0)
        steps = module_steps = events = roots = csv_bytes = rows = 0
        sim_self_ns = 0
        by_n: dict[int, list[int]] = {}
        for i, (name, _parent, t0, t1, detail) in enumerate(spans):
            own = t1 - t0 - child_ns[i]
            calls[name] += 1
            self_ns[name] += own
            if name == "engine.simulate":
                s, n, e = detail
                steps += s
                module_steps += s * n
                events += e
                sim_self_ns += own
                acc = by_n.setdefault(n, [0, 0])
                acc[0] += own
                acc[1] += s * n
            elif name == "engine.grid_equilibrium" and detail is not None:
                roots += detail
            elif name == "reports.emit_trace_csv" and detail is not None:
                csv_bytes += detail
            elif name == "reports.report_stability" and detail is not None:
                rows += detail
        out = {}
        for key in calls:
            out[f"{key}.calls"] = calls[key]
            out[f"{key}.self_s"] = self_ns[key] / 1e9
        sgp = self.counts["engine.synchronized_grid_power"][0]
        out.update({
            "engine.steps": steps,
            "engine.events": events,
            "engine.us_per_module_step": sim_self_ns / 1e3 / module_steps if module_steps else 0.0,
            "engine.synchronized_grid_power.calls": sgp,
            "engine.grid_equilibrium.evals_per_root": sgp / roots if roots else 0.0,
            "engine.grid_equilibrium.roots": roots,
            "reports.emit_trace_csv.bytes": csv_bytes,
            "reports.report_stability.rows": rows,
            "droop.droop_frequency.calls": self.counts["droop.droop_frequency"][0],
            "phasors.wrap_angle.calls": self.counts["phasors.wrap_angle"][0],
        })
        out["us_per_module_step_by_n"] = {
            str(n): ns / 1e3 / ms for n, (ns, ms) in sorted(by_n.items()) if ms
        }
        return out

    def write_spans(self, path: Path, iteration: int) -> None:
        with open(path, "a", encoding="utf-8") as fh:
            for i, (name, parent, t0, t1, detail) in enumerate(self.spans):
                fh.write(f"{iteration}\t{i}\t{parent}\t{name}\t{t0}\t{t1}\t{detail}\n")
