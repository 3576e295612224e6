"""Smoke test of the benchmark itself: a shortened run of every workload.

    python3 perfbench/smoke.py

For every workload and two seeds, runs run.py with ``--seconds 1`` untraced
and traced, and checks that the report names every metric the workload
should print with its unit, that the last line carries exactly the metrics
BENCHMARK.json lists, that cases-all has no failed output check, and that
the second seed yields the same metric set as the first.  Exits 1 on the
first problem found.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import REPORTED, UNITS, WORKLOAD_NAMES  # noqa: E402

SEEDS = (1, 2)


def run(workload: str, seed: int, trace: int) -> tuple[list[str], dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    if proc.returncode != 0:
        raise AssertionError(f"{workload} seed {seed} trace {trace}: exit {proc.returncode}\n"
                             f"{proc.stderr}")
    lines = proc.stdout.splitlines()
    return lines[:-1], json.loads(lines[-1])


def reported(lines: list[str]) -> dict[str, str]:
    """Metric name -> unit, from the report lines."""
    out = {}
    for line in lines:
        parts = line.split()
        if len(parts) >= 3 and not parts[0].endswith(":") and parts[0] not in ("digest", "FAILED"):
            out[parts[0]] = parts[2]
    return out


def lines_value(lines: list[str], name: str) -> str:
    for line in lines:
        parts = line.split()
        if parts and parts[0] == name:
            return parts[1]
    return "nan"


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for workload in WORKLOAD_NAMES:
        named = {name: UNITS[name] for name in
                 ("setup_s", "wall_s", *REPORTED[workload], "peak_rss_mb", "ops_failed_frac")}
        sets = []
        for seed in SEEDS:
            seen = {}
            for trace, want_json in ((0, e2e), (1, layers)):
                lines, result = run(workload, seed, trace)
                got = reported(lines)
                for name, unit in (named | (layers if trace else {})).items():
                    if got.get(name) != unit:
                        raise AssertionError(f"{workload} seed {seed} trace {trace}: "
                                             f"{name} printed as {got.get(name)!r}, want {unit!r}")
                metrics = {k: v["unit"] for k, v in result["metrics"].items()}
                if metrics != want_json:
                    raise AssertionError(f"{workload} trace {trace}: JSON metrics {sorted(metrics)}")
                if workload == "cases-all" and (
                        result["failed"] or float(lines_value(lines, "ops_failed_frac")) != 0.0):
                    raise AssertionError(f"cases-all seed {seed}: {result['failed']} failed checks")
                seen.update(got)
            sets.append(set(seen))
            print(f"ok {workload} seed {seed}: {len(seen)} metrics, "
                  f"{result['failed']} of {result['attempted']} checks failed")
        if sets[0] != sets[1]:
            raise AssertionError(f"{workload}: seeds give different metric sets "
                                 f"{sorted(sets[0] ^ sets[1])}")
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except AssertionError as exc:
        print(f"smoke test failed: {exc}", file=sys.stderr)
        sys.exit(1)
