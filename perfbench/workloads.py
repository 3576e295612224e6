"""The four benchmark workloads: seeded inputs, the timed body, output checks.

Every workload calls the package only through its public entry points,
looked up as module attributes at call time so that the tracer's wrappers
see each call.  ``setup`` builds the inputs (the part of a fresh process
that ``setup_s`` times), ``body`` is the timed work, and ``check`` compares
one body's outputs against oracles of the benchmark's own.

A body returns ``wall``, its timed seconds, and may add ``phases`` (seconds
of named parts of the body) and ``latencies`` (seconds per scenario).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import random
import re
import time
from dataclasses import replace
from pathlib import Path

import cascade_droop as cd
from cascade_droop import cases, cli, engine, linearization, reports, scenario_io

TAU = math.tau
PI = math.pi
F_STAR = 50.0
V_GRID = 315.0
CLAMP = (49.0, 51.0)


class Checks:
    """Counts attempted and failed output checks, keeping the first few failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(what)


def sha256(data) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _lattice(rng: random.Random, count: int, generator: int) -> list[tuple[float, float]]:
    """A rank-1 lattice of ``count`` points in the unit square, randomly shifted.

    Every seed covers the square equally evenly, so the share of inputs in
    any region (and with it the work per body) hardly changes between seeds.
    """
    u, v = rng.random(), rng.random()
    return [((i / count + u) % 1.0, (i * generator / count + v) % 1.0) for i in range(count)]


def _f(x: float) -> str:
    return repr(float(x))


def closed_form_root_count(n: int, v_star: float, v_grid: float, phi_star: float,
                           line_angle: float) -> int:
    """Synchronized grid-mode operating points, counted as ray-circle intersections.

    The per-module power is S(x) = (n V*^2 - V* V_g e^{jx}) / conj(Z_line), so
    arg S = phi* asks where the ray at angle psi = phi* - theta_line meets the
    circle of centre c = n V*^2 and radius r = V* V_g: the positive roots t of
    t^2 - 2 c cos(psi) t + c^2 - r^2 = 0.  A root at t = 0 (zero power) is no
    operating point.
    """
    c = n * v_star * v_star
    r = v_star * v_grid
    psi = phi_star - line_angle
    disc = r * r - (c * math.sin(psi)) ** 2
    if disc < 0.0:
        return 0
    if r >= c:
        return 1 if r > c or math.cos(psi) > 0.0 else 0
    if math.cos(psi) <= 0.0:
        return 0
    return 2 if disc > 0.0 else 1


def _check_roots(checks: Checks, config, roots, label: str) -> None:
    d = config.droop
    want = closed_form_root_count(
        config.n, d.nominal_voltage, config.grid_voltage, d.nominal_pf_angle, config.line.angle
    )
    checks.expect(len(roots) == want, f"{label}: {len(roots)} roots, closed form gives {want}")
    for root in roots:
        s = engine.synchronized_grid_power(config, root.delta)
        residual = cd.wrap_angle(math.atan2(s.reactive, s.active) - d.nominal_pf_angle)
        checks.expect(abs(residual) < 1e-9, f"{label}: root {root.delta!r} residual {residual:.3e}")


def _grid_roots(config):
    try:
        return engine.grid_equilibrium(config).roots
    except cd.NoRootError:
        return ()


# --- cases-all ---------------------------------------------------------------


class CasesAll:
    """The five built-in cases as ``cascade-droop case all`` runs them; the seed is unused."""

    name = "cases-all"
    CASE_IDS = (1, 2, 3, 4, 5)

    def setup(self, seed: int) -> dict:
        built = [cases.build_case(i)[0] for i in self.CASE_IDS]
        return {
            "sim_s": sum(s.duration for s in built),
            "module_steps": sum(round(s.duration / s.dt) * s.config.n for s in built),
        }

    def body(self, inputs: dict, out_dir: Path) -> dict:
        buf = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["case", "all", "--out", str(out_dir)])
        wall = time.perf_counter() - t0
        return {"wall": wall, "code": code, "stdout": buf.getvalue(), "dir": out_dir}

    def outputs(self, out: dict) -> dict:
        files = {"stdout": sha256(out["stdout"])}
        for i in self.CASE_IDS:
            for fname in (f"case{i}.csv", f"case{i}_report.txt"):
                path = out["dir"] / fname
                files[fname] = sha256(path.read_bytes()) if path.exists() else "missing"
        return files

    def check(self, inputs: dict, out: dict, checks: Checks) -> None:
        checks.expect(out["code"] == 0, f"cli.main returned {out['code']}")
        lines = [ln for ln in out["stdout"].splitlines() if ln.startswith("CHECK ")]
        checks.expect(len(lines) > 0, "no CHECK lines printed")
        for line in lines:
            checks.expect(line.split()[2] == "pass", line)
        for i in self.CASE_IDS:
            for fname in (f"case{i}.csv", f"case{i}_report.txt"):
                checks.expect((out["dir"] / fname).exists(), f"{fname} not written")

    def facts(self, inputs: dict, out: dict) -> dict:
        return {"sim_s": inputs["sim_s"], "module_steps": inputs["module_steps"]}


# --- wide-string ----------------------------------------------------------------


class WideString:
    """One wide string (n=48, decimation 1) through all five event kinds."""

    name = "wide-string"
    N = 48
    DT = 1e-3
    DURATION = 5.5

    def scenario_text(self, seed: int) -> str:
        rng = _rng(self.name, seed)
        n = self.N
        u = rng.uniform
        times = [round(u(lo, lo + 0.5), 3) for lo in (0.5, 1.0, 1.5, 2.0, 2.5)]
        deltas = ", ".join(_f(u(-0.3, 0.3)) for _ in range(n))
        return "\n".join([
            "[system]",
            f"n = {n}",
            f"f_star = {_f(F_STAR)}",
            f"v_star = {_f(u(0.3, 0.9) * V_GRID / n)}",
            f"v_grid = {_f(V_GRID)}",
            f"grid_angle = {_f(u(-0.5, 0.5))}",
            f"phi_star = {_f(u(-PI, PI))}",
            f"m = {_f(u(4.0, 6.0))}",
            f"clamp = {CLAMP[0]:g}, {CLAMP[1]:g}",
            "mode = grid",
            "[line]",
            f"mag = {_f(u(0.2, 0.5))}",
            f"theta = {_f(u(-PI / 2, PI / 2))}",
            "[load]",
            f"r = {_f(u(8.0, 16.0))}",
            f"x = {_f(u(-6.0, 6.0))}",
            "[initial]",
            f"delta = {deltas}",
            "[events]",
            f"{times[0]:.3f} phi_star {_f(u(-PI, PI))}",
            f"{times[1]:.3f} line mag={_f(u(0.2, 0.5))} theta={_f(u(-PI / 2, PI / 2))}",
            f"{times[2]:.3f} delta {rng.randint(1, n)} {_f(u(-PI, PI))}",
            f"{times[3]:.3f} mode islanded",
            f"{times[4]:.3f} load r={_f(u(8.0, 16.0))} x={_f(u(-6.0, 6.0))}",
            "[solver]",
            f"dt = {_f(self.DT)}",
            f"duration = {_f(self.DURATION)}",
            "decimation = 1",
            "",
        ])

    def setup(self, seed: int) -> dict:
        text = self.scenario_text(seed)
        scenario = scenario_io.parse_scenario(text)
        steps = round(scenario.duration / scenario.dt)
        return {
            "text": text,
            "scenario": scenario,
            "sim_s": scenario.duration,
            "module_steps": steps * scenario.config.n,
        }

    def body(self, inputs: dict, out_dir: Path) -> dict:
        t0 = time.perf_counter()
        scenario = scenario_io.parse_scenario(inputs["text"])
        result = engine.simulate(scenario)
        t1 = time.perf_counter()
        path = reports.emit_trace_csv(result.trace, out_dir / "wide_trace.csv")
        t2 = time.perf_counter()
        return {"wall": t2 - t0, "phases": {"simulate": t1 - t0, "csv": t2 - t1},
                "result": result, "path": path}

    def outputs(self, out: dict) -> dict:
        return {"wide_trace.csv": sha256(Path(out["path"]).read_bytes())}

    def check(self, inputs: dict, out: dict, checks: Checks) -> None:
        scenario = inputs["scenario"]
        trace = out["result"].trace
        n = scenario.config.n
        steps = round(scenario.duration / scenario.dt)
        checks.expect(trace.frequency_hz.shape == (steps + 1, n),
                      f"trace shape {trace.frequency_hz.shape}, expected {(steps + 1, n)}")
        finite = all(
            bool((abs(arr) < math.inf).all())
            for arr in (trace.frequency_hz, trace.active, trace.reactive, trace.pf_angle)
        )
        checks.expect(finite, "trace holds a non-finite value")
        lo, hi = float(trace.frequency_hz.min()), float(trace.frequency_hz.max())
        checks.expect(CLAMP[0] - 1e-9 <= lo and hi <= CLAMP[1] + 1e-9,
                      f"frequencies [{lo}, {hi}] leave the clamp band")
        # After the last event the island settles; its frequency has a closed form.
        final = scenario.config
        for ev in scenario.events:
            a = ev.action
            if isinstance(a, cd.SetMode):
                final = replace(final, mode=a.mode)
            elif isinstance(a, cd.SetLoad):
                final = replace(final, load=a.load)
            elif isinstance(a, cd.SetLine):
                final = replace(final, line=a.line)
            elif isinstance(a, cd.SetPfRef):
                final = replace(final, droop=replace(final.droop, nominal_pf_angle=a.pf_angle))
        f_eq = engine.islanded_equilibrium(final).frequency_hz
        f_err = float(abs(trace.frequency_hz[-1] - f_eq).max())
        checks.expect(f_err < 1e-3, f"final frequency off the islanded equilibrium by {f_err:.3e} Hz")
        with open(out["path"], encoding="utf-8") as fh:
            header = fh.readline().rstrip("\n")
            first = fh.readline().rstrip("\n")
            rows = 1 + sum(1 for _ in fh)
        checks.expect(header.split(",")[:2] == ["time", "f1"] and header.count(",") == 4 * n,
                      "trace CSV header malformed")
        checks.expect(rows == len(trace), f"trace CSV has {rows} rows for {len(trace)} samples")
        want = ",".join(format(float(v), ".9g") for v in (
            [trace.times[0]] + list(trace.frequency_hz[0]) + list(trace.active[0])
            + list(trace.reactive[0]) + list(trace.pf_angle[0])
        ))
        checks.expect(first == want, "first trace CSV row differs from the trace")

    def facts(self, inputs: dict, out: dict) -> dict:
        return {"sim_s": inputs["sim_s"], "module_steps": inputs["module_steps"]}


# --- stability-map ----------------------------------------------------------------


class StabilityMap:
    """A 50k-row angle x v_star sweep, then grid_equilibrium over a 1000-point grid."""

    name = "stability-map"
    N = 4
    ANGLES = 250
    VSTARS = 200
    PHI_POINTS = 40
    SIZING_POINTS = 25
    SIZING_RANGE = (0.3, 3.0)

    def config_text(self, rng: random.Random) -> str:
        u = rng.uniform
        return "\n".join([
            "[system]",
            f"n = {self.N}",
            f"f_star = {_f(F_STAR)}",
            f"v_star = {_f(u(0.5, 2.0) * V_GRID / self.N)}",
            f"v_grid = {_f(V_GRID)}",
            f"grid_angle = {_f(u(-PI, PI))}",
            f"phi_star = {_f(u(-PI, PI))}",
            f"m = {_f(u(0.5, 6.0))}",
            "mode = grid",
            "[line]",
            f"mag = {_f(u(0.2, 0.5))}",
            f"theta = {_f(u(-PI / 2, PI / 2))}",
            "[load]",
            "r = 12",
            "[solver]",
            "duration = 1",
            "",
        ])

    def setup(self, seed: int) -> dict:
        rng = _rng(self.name, seed)
        config = scenario_io.parse_scenario(self.config_text(rng)).config
        step = TAU / self.ANGLES
        lo = -PI + rng.random() * step
        angle_axis = cd.SweepAxis(lo, lo + (self.ANGLES - 0.5) * step, step)
        v_unit = V_GRID / self.N
        v_lo = rng.uniform(0.2, 0.4) * v_unit
        v_step = (rng.uniform(2.0, 3.0) * v_unit - v_lo) / (self.VSTARS - 1)
        vstar_axis = cd.SweepAxis(v_lo, v_lo + (self.VSTARS - 0.5) * v_step, v_step)
        log_lo, log_hi = (math.log(x) for x in self.SIZING_RANGE)
        phi_off, k_off = rng.random(), rng.random()
        grid = []
        for i in range(self.PHI_POINTS):
            phi = -PI + (i + phi_off) * TAU / self.PHI_POINTS
            for j in range(self.SIZING_POINTS):
                k = math.exp(log_lo + (j + k_off) * (log_hi - log_lo) / self.SIZING_POINTS)
                droop = replace(config.droop, nominal_voltage=k * V_GRID / self.N,
                                nominal_pf_angle=phi)
                grid.append(replace(config, droop=droop))
        return {"config": config, "sweep": (angle_axis, vstar_axis), "grid": grid}

    def body(self, inputs: dict, out_dir: Path) -> dict:
        t0 = time.perf_counter()
        report = reports.report_stability(inputs["config"], sweep=inputs["sweep"])
        t1 = time.perf_counter()
        roots = [_grid_roots(c) for c in inputs["grid"]]
        t2 = time.perf_counter()
        return {"wall": t2 - t0, "phases": {"sweep": t1 - t0, "equilibria": t2 - t1},
                "report": report, "roots": roots}

    def outputs(self, out: dict) -> dict:
        return {
            "stability_report": sha256(out["report"]),
            "equilibria": sha256(repr([[(r.delta, r.verdict.value) for r in rs]
                                       for rs in out["roots"]])),
        }

    _ROW = re.compile(r"angle_diff=\S+ v_star=\S+: (?:lambda1=\S+ verdict=(\w+)|(degenerate)|(invalid))$")

    def check(self, inputs: dict, out: dict, checks: Checks) -> None:
        config = inputs["config"]
        angle_axis, vstar_axis = inputs["sweep"]
        points = [(v, a) for v in vstar_axis.points() for a in angle_axis.points()]
        rows = [ln for ln in out["report"].splitlines() if ln.startswith("angle_diff=")]
        checks.expect(len(rows) == len(points), f"{len(rows)} sweep rows for {len(points)} points")
        for line, (v_star, angle) in zip(rows, points):
            match = self._ROW.match(line)
            try:
                want = linearization.stability_condition(config.n, v_star, config.grid_voltage,
                                                         angle).value
            except cd.DegeneratePointError:
                want = "degenerate"
            got = None if match is None else (match.group(1) or match.group(2) or match.group(3))
            checks.expect(got == want, f"row {line!r}: stability_condition says {want}")
        for c, roots in zip(inputs["grid"], out["roots"]):
            _check_roots(checks, c, roots,
                         f"v_star={c.droop.nominal_voltage!r} phi_star={c.droop.nominal_pf_angle!r}")

    def facts(self, inputs: dict, out: dict) -> dict:
        return {
            "rows": len(inputs["sweep"][0].points()) * len(inputs["sweep"][1].points()),
            "equilibria": len(inputs["grid"]),
        }


# --- monte-carlo -------------------------------------------------------------------


class MonteCarlo:
    """Many short runs: random grid configs, each text -> equilibria -> dynamics per root."""

    name = "monte-carlo"
    CONFIGS = 112  # 16 of each n in 2..8
    LATTICE_GENERATOR = 69  # coprime with CONFIGS, near CONFIGS / golden ratio
    N_RANGE = (2, 8)
    SIZING_RANGE = (0.3, 3.0)
    EPS = 1e-3  # common-mode offset from each root, rad
    DURATION = 1.0

    def texts(self, seed: int) -> list[str]:
        rng = _rng(self.name, seed)
        n_lo, n_hi = self.N_RANGE
        log_lo, log_hi = (math.log(x) for x in self.SIZING_RANGE)
        out = []
        for i, (ks, ps) in enumerate(_lattice(rng, self.CONFIGS, self.LATTICE_GENERATOR)):
            n = n_lo + i % (n_hi - n_lo + 1)
            k = math.exp(log_lo + ks * (log_hi - log_lo))
            theta = rng.uniform(-PI / 2, PI / 2)
            out.append("\n".join([
                "[system]",
                f"n = {n}",
                f"f_star = {_f(F_STAR)}",
                f"v_star = {_f(k * V_GRID / n)}",
                f"v_grid = {_f(V_GRID)}",
                f"grid_angle = {_f(rng.uniform(-PI, PI))}",
                # The root count depends on phi_star - theta_line, which the lattice spreads.
                f"phi_star = {_f(cd.wrap_angle(theta - PI + ps * TAU))}",
                f"m = {_f(rng.uniform(0.5, 6.0))}",
                "mode = grid",
                "[line]",
                "mag = 0.314",
                f"theta = {_f(theta)}",
                "[load]",
                "r = 12",
                "[solver]",
                "dt = 0.001",
                f"duration = {_f(self.DURATION)}",
                "decimation = 10",
                "",
            ]))
        return out

    def setup(self, seed: int) -> dict:
        texts = self.texts(seed)
        for text in texts:
            scenario_io.parse_scenario(text)
        return {"texts": texts}

    def body(self, inputs: dict, out_dir: Path) -> dict:
        clock = time.perf_counter
        runs = []
        latencies = []
        eq_s = 0.0
        start = clock()
        for text in inputs["texts"]:
            t0 = clock()
            scenario = scenario_io.parse_scenario(text)
            te = clock()
            roots = _grid_roots(scenario.config)
            eq_s += clock() - te
            finals = []
            for root in roots:
                perturbed = replace(scenario,
                                    initial_deltas=(root.delta + self.EPS,) * scenario.config.n)
                finals.append(tuple(s.delta for s in engine.simulate(perturbed).final_states))
            latencies.append(clock() - t0)
            runs.append((scenario, roots, finals))
        return {"wall": clock() - start, "phases": {"equilibria": eq_s},
                "latencies": latencies, "runs": runs}

    def outputs(self, out: dict) -> dict:
        return {"monte_carlo": sha256(repr([
            ([(r.delta, r.verdict.value) for r in roots], finals)
            for _, roots, finals in out["runs"]
        ]))}

    def check(self, inputs: dict, out: dict, checks: Checks) -> None:
        for i, (scenario, roots, finals) in enumerate(out["runs"]):
            config = scenario.config
            _check_roots(checks, config, roots, f"config {i}")
            for root, deltas in zip(roots, finals):
                if root.verdict is cd.Stability.MARGINAL:
                    continue
                offset = abs(sum(cd.wrap_angle(d - root.delta) for d in deltas) / len(deltas))
                if root.verdict is cd.Stability.STABLE:
                    ok = offset < self.EPS
                else:
                    ok = offset > self.EPS
                checks.expect(ok, f"config {i}: root {root.delta!r} reported "
                                  f"{root.verdict.value} but offset {self.EPS:g} -> {offset:.3e}")

    def facts(self, inputs: dict, out: dict) -> dict:
        sim_s = module_steps = equilibria = 0
        for scenario, roots, _ in out["runs"]:
            equilibria += 1
            sim_s += scenario.duration * len(roots)
            module_steps += round(scenario.duration / scenario.dt) * scenario.config.n * len(roots)
        return {"sim_s": sim_s, "module_steps": module_steps, "equilibria": equilibria}


WORKLOADS = {w.name: w for w in (CasesAll(), WideString(), StabilityMap(), MonteCarlo())}
