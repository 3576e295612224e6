"""Benchmark of cascade-droop: four workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload cases-all --seed 1 --seconds 15 --trace 0

Run from the root of a checkout.  Each workload runs in fresh child
processes that import ``cascade_droop`` from the checkout's ``src``
directory with BLAS/OpenMP pinned to one thread: several set-up-only
children time ``setup_s``, then one child measures the body for
``--seconds``.  The report lists every metric with its unit; the last line
of standard output is one JSON object with the end-to-end metrics
(``--trace 0``) or the per-layer metrics (``--trace 1``).  See
perfbench/README.md for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
BENCHMARK = ROOT / "BENCHMARK.json"

WORKLOAD_NAMES = ("cases-all", "wide-string", "stability-map", "monte-carlo")
SETUP_REPEATS = 11
CHILD_TIMEOUT_S = 170.0

# Metrics each workload prints in its report, beyond those in BENCHMARK.json.
REPORTED = {
    "cases-all": ("sim_s_per_s", "module_steps_per_s"),
    "wide-string": ("sim_s_per_s", "module_steps_per_s"),
    "stability-map": ("sweep_rows_per_s", "equilibria_per_s"),
    "monte-carlo": ("sim_s_per_s", "module_steps_per_s", "equilibria_per_s",
                    "run_p50_ms", "run_p90_ms"),
}
UNITS = {
    "setup_s": "s", "wall_s": "s", "sim_s_per_s": "s/s", "module_steps_per_s": "1/s",
    "sweep_rows_per_s": "1/s", "equilibria_per_s": "1/s", "run_p50_ms": "ms",
    "run_p90_ms": "ms", "peak_rss_mb": "MB", "ops_failed_frac": "ratio",
}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    return env


def spawn(args: list[str]) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), *args],
        cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
    )


def run_child(args: list[str], timeout: float) -> str:
    proc = spawn(args)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit(f"child {args[:2]} timed out after {timeout:.0f} s")
    if proc.returncode != 0:
        raise SystemExit(f"child {args[:2]} exited with {proc.returncode}")
    return out


def time_setup(workload: str, seed: int) -> float:
    """Seconds from starting a fresh process to its inputs being ready."""
    t0 = time.perf_counter()
    proc = spawn(["setup", workload, str(seed)])
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if code != 0 or line.strip() != "ready":
        raise SystemExit(f"set-up child for {workload} failed (exit {code})")
    return elapsed


def host() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"cpu": cpu, "nproc": os.cpu_count(), "python": platform.python_version()}


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def end_to_end(setups: list[float], raw: dict) -> dict:
    wall = statistics.median(raw["walls"])
    facts = raw["facts"]
    phase = {name: statistics.median(v) for name, v in raw["phases"].items()}
    m = {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "peak_rss_mb": raw["peak_rss_mb"],
        "ops_failed_frac": raw["failed"] / raw["attempted"],
    }
    if "sim_s" in facts:
        m["sim_s_per_s"] = facts["sim_s"] / wall
        m["module_steps_per_s"] = facts["module_steps"] / wall
    if "rows" in facts:
        m["sweep_rows_per_s"] = facts["rows"] / phase["sweep"]
    if "equilibria" in facts:
        m["equilibria_per_s"] = facts["equilibria"] / phase["equilibria"]
    if raw["latencies"]:
        m["run_p50_ms"] = quantile(raw["latencies"], 0.5) * 1e3
        m["run_p90_ms"] = quantile(raw["latencies"], 0.9) * 1e3
    return m


def per_layer(raw: dict) -> dict:
    layers = raw["layers"]
    out = {}
    for key in layers[0]:
        if key == "us_per_module_step_by_n":
            continue
        values = [layer[key] for layer in layers]
        out[key] = statistics.median(values) if key.endswith(("_s", "_step")) else values[0]
    out["trace_overhead_frac"] = raw["trace_overhead_frac"]
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "cascade_droop" / "__init__.py").is_file():
        print(f"error: no cascade_droop package under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    work = WORK / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        time_setup(args.workload, args.seed)  # warm the bytecode and file caches
        setups = [time_setup(args.workload, args.seed) for _ in range(SETUP_REPEATS)]
        raw = json.loads(run_child(
            ["measure", args.workload, str(args.seed), str(args.seconds), str(args.trace),
             str(work)],
            CHILD_TIMEOUT_S,
        ).splitlines()[-1])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    info = host() | {"numpy": raw["numpy"]}
    e2e = end_to_end(setups, raw)
    print(f"host: cpu={info['cpu']!r} nproc={info['nproc']} python={info['python']} "
          f"numpy={info['numpy']}")
    print(f"workload: {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} package={raw['package']}")
    for name in ("setup_s", "wall_s", *REPORTED[args.workload], "peak_rss_mb"):
        value = e2e[name]
        note = {
            "setup_s": f"median of {len(setups)} fresh processes",
            "wall_s": f"median of {len(raw['walls'])} bodies",
            "run_p50_ms": f"of {len(raw['latencies'])} scenario runs",
            "run_p90_ms": f"of {len(raw['latencies'])} scenario runs",
        }.get(name, "")
        print(f"  {name:<20} {value:<14.6g} {UNITS[name]:<6} {note}")
    print(f"  {'ops_failed_frac':<20} {e2e['ops_failed_frac']:<14.6g} ratio  "
          f"({raw['failed']} failed of {raw['attempted']} output checks)")
    for name, digest in sorted(raw["digests"].items()):
        print(f"  digest {name} sha256:{digest}")
    for message in raw["failures"]:
        print(f"  FAILED {message}")

    if args.trace:
        layer_metrics = per_layer(raw)
        by_n = raw["layers"][0]["us_per_module_step_by_n"]
        for name, value in layer_metrics.items():
            print(f"  {name:<44} {value:<14.6g} {units[name]}")
        if by_n:
            print("  n-scaling: engine.us_per_module_step "
                  + " ".join(f"n={n}:{v:.4g}" for n, v in by_n.items()))
        print(f"  spans: {Path(raw['spans']).relative_to(ROOT)}")
        chosen = {m["name"]: layer_metrics[m["name"]] for m in spec["per_layer"]}
    else:
        chosen = {m["name"]: e2e[m["name"]] for m in spec["end_to_end"]}

    results = WORK / f"results-{args.workload}-trace{args.trace}.json"
    results.write_text(json.dumps({
        "host": info, "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "end_to_end": e2e,
        "raw": raw,
    }, indent=1) + "\n", encoding="utf-8")

    print(json.dumps({
        "correct": raw["failed"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in chosen.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
