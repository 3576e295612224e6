"""One workload in a fresh process; started by run.py, never by hand.

    child.py setup   <workload> <seed>
        import the package, build the inputs, print "ready" and exit.
    child.py measure <workload> <seed> <seconds> <trace 0|1> <work-dir>
        build the inputs, run the timed body until ``seconds`` have passed
        (at least twice, to compare output bytes), check every output and
        print one JSON line of raw results.

With trace 1 untraced and traced bodies alternate, so that the tracing
overhead is measured within the same run.
"""

from __future__ import annotations

import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path


def _setup(workload_name: str, seed: int) -> None:
    from workloads import WORKLOADS

    WORKLOADS[workload_name].setup(seed)
    sys.stdout.write("ready\n")
    sys.stdout.flush()


def _measure(workload_name: str, seed: int, seconds: float, trace: bool, work: Path) -> None:
    import numpy

    import cascade_droop
    from tracer import Tracer
    from workloads import WORKLOADS, Checks

    workload = WORKLOADS[workload_name]
    inputs = workload.setup(seed)
    checks = Checks()
    walls: list[float] = []
    traced_walls: list[float] = []
    layers: list[dict] = []
    phases: dict[str, list[float]] = {}
    latencies: list[float] = []
    facts = None
    first_outputs = None
    spans_path = work.parent / f"spans-{workload_name}.tsv"
    if trace:
        spans_path.unlink(missing_ok=True)
    tracers = []
    peak_rss_mb = None

    min_each = 2
    started = time.perf_counter()
    k = 0
    while True:
        elapsed = time.perf_counter() - started
        done_min = len(walls) >= min_each and (not trace or len(traced_walls) >= min_each)
        per_iter = elapsed / k if k else 0.0
        if done_min and elapsed + per_iter > seconds:
            break
        traced = trace and k % 2 == 1
        out_dir = work / f"iter{k}"
        out_dir.mkdir(parents=True, exist_ok=True)
        tracer = Tracer() if traced else None
        if tracer is not None:
            tracer.install()
        try:
            out = workload.body(inputs, out_dir)
        finally:
            if tracer is not None:
                tracer.uninstall()
        if traced:
            traced_walls.append(out["wall"])
            layers.append(tracer.aggregate())
            tracers.append(tracer)
        else:
            walls.append(out["wall"])
            for name, phase_s in out.get("phases", {}).items():
                phases.setdefault(name, []).append(phase_s)
            latencies += out.get("latencies", [])
            if len(walls) == min_each:
                # Peak RSS over set-up and the first bodies, so that it does not
                # creep with the number of bodies a fast host fits in the run.
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            if facts is None:
                facts = workload.facts(inputs, out)
        outputs = workload.outputs(out)
        if first_outputs is None:
            first_outputs = outputs
            workload.check(inputs, out, checks)
        else:
            for name, digest in first_outputs.items():
                checks.expect(outputs.get(name) == digest,
                              f"{name} bytes differ between body runs 1 and {k + 1}")
        del out
        shutil.rmtree(out_dir)
        k += 1

    for i, tracer in enumerate(tracers):
        tracer.write_spans(spans_path, i)

    result = {
        "walls": walls,
        "phases": phases,
        "latencies": latencies,
        "facts": facts,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "failures": checks.messages,
        "digests": first_outputs,
        "peak_rss_mb": peak_rss_mb,
        "numpy": numpy.__version__,
        "package": cascade_droop.__file__,
    }
    if trace:
        result["traced_walls"] = traced_walls
        result["trace_overhead_frac"] = (
            statistics.median(traced_walls) / statistics.median(walls) - 1.0
        )
        result["layers"] = layers
        result["spans"] = str(spans_path)
    sys.stdout.write(json.dumps(result) + "\n")


def main(argv: list[str]) -> int:
    phase, workload_name, seed = argv[0], argv[1], int(argv[2])
    if phase == "setup":
        _setup(workload_name, seed)
    else:
        _measure(workload_name, seed, float(argv[3]), argv[4] == "1", Path(argv[5]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
