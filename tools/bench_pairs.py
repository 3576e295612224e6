"""Alternating parent/change pairs of the gated benchmark workloads, written as BENCH_<pr>.json.

    python3 tools/bench_pairs.py --parent HEAD --pr 16 --pairs 10 --scratch /tmp/bench

Run from anywhere inside the repository.  Both sides run from copies in one
temporary directory under ``--scratch`` (removed afterwards): the parent
revision exported with ``git archive``, and the change as the working tree
stands, its tracked and untracked, non-ignored files that exist.  Neither
side runs in the checkout, so a slower read of its directory biases
neither side, and the checkout's ``perfbench/_work`` stays untouched.  For each
workload that BENCHMARK.json gates, pair i runs ``perfbench/run.py`` once on
each side with seed i, for the benchmark's ``run_seconds``; odd pairs run
the parent first and even pairs the change first, so drift in the host's
speed falls on both sides alike.  Every end-to-end metric that ``run.py`` reports is kept per
run, with the run's output digests, and summarized per side as the median
and the nearest-rank quartiles.  A pair counts as a win for the change when
its value is better than the parent's in the direction BENCHMARK.json gives.
Beside the wins, ``order_effect`` is the median over pairs of the side that
ran second minus the side that ran first: alternation cancels that bias in
the medians, but not in the count of wins.
Before the pairs, the change's ``tools/opcount.py`` counts opcodes and C
calls on each side's ``src`` once; both sides' counts go under ``opcount``.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 600.0


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def export(rev: str, dest: Path) -> None:
    """Write the tree of ``rev`` into ``dest`` without touching the repository's state."""
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def export_worktree(dest: Path) -> None:
    """Copy the working tree's tracked and untracked, non-ignored files into ``dest``."""
    names = git("ls-files", "-z", "--cached", "--others", "--exclude-standard").split("\0")
    for name in filter(None, names):
        source = ROOT / name
        if source.is_file():  # a tracked file deleted in the tree is left out
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, dest / name)


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced ``perfbench/run.py`` run: its host line, end-to-end metrics and digests."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", f"{seconds:g}", "--trace", "0"],
        cwd=tree, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise SystemExit(f"run.py failed in {tree} ({workload}, seed {seed}):\n{proc.stderr}")
    host_line = proc.stdout.splitlines()[0]
    results = tree / "perfbench" / "_work" / f"results-{workload}-trace0.json"
    data = json.loads(results.read_text(encoding="utf-8"))
    return {"seed": seed, "host_line": host_line, "metrics": data["end_to_end"],
            "digests": data["raw"]["digests"]}


def opcount(tool: Path, tree: Path) -> dict:
    """The deterministic cost counts of ``tree``'s package, from ``tools/opcount.py``."""
    proc = subprocess.run([sys.executable, str(tool), "--src", str(tree / "src")], cwd=tree,
                          capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"opcount.py failed on {tree}:\n{proc.stderr}")
    return json.loads(proc.stdout)


def quartiles(values: list[float]) -> tuple[float, float]:
    """Nearest-rank first and third quartiles, as ``run.py`` takes its quantiles."""
    ordered = sorted(values)
    return tuple(ordered[max(1, math.ceil(q * len(ordered))) - 1] for q in (0.25, 0.75))


def summarize(runs: dict[str, list[dict]], better: dict[str, str],
              order: list[list[str]]) -> dict:
    out = {}
    for name in runs["parent"][0]["metrics"]:
        row = {}
        for side in ("parent", "change"):
            values = [r["metrics"][name] for r in runs[side]]
            q1, q3 = quartiles(values)
            row[side] = {"median": statistics.median(values), "q1": q1, "q3": q3,
                         "iqr": q3 - q1}
        if name in better:
            sign = -1.0 if better[name] == "lower" else 1.0
            pairs = zip(runs["parent"], runs["change"])
            row["better"] = better[name]
            row["change_wins"] = sum(
                sign * (c["metrics"][name] - p["metrics"][name]) > 0.0 for p, c in pairs)
            row["pairs"] = len(runs["parent"])
            row["change_over_parent"] = row["change"]["median"] / row["parent"]["median"]
            row["order_effect"] = statistics.median(
                runs[second][i]["metrics"][name] - runs[first][i]["metrics"][name]
                for i, (first, second) in enumerate(order))
        out[name] = row
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent")
    parser.add_argument("--pr", required=True, type=int, help="number in BENCH_<pr>.json")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--scratch", type=Path, required=True,
                        help="directory for the two sides' exported trees")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in spec["workloads"]]
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    seconds = float(spec["run_seconds"])
    parent_sha = git("rev-parse", args.parent)
    # export_worktree copies untracked, non-ignored files too, so they count as changes
    dirty = bool(git("status", "--porcelain"))
    args.scratch.mkdir(parents=True, exist_ok=True)

    report = {
        "pr": args.pr,
        "parent": parent_sha,
        "change": {"head": git("rev-parse", "HEAD"), "uncommitted_changes": dirty},
        "command": ["python3", "perfbench/run.py", "--workload", "<name>", "--seed", "<seed>",
                    "--seconds", f"{seconds:g}", "--trace", "0"],
        "pairs": args.pairs,
        "seconds": seconds,
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(dir=args.scratch) as tmp:
        trees = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
        for tree in trees.values():
            tree.mkdir()
        export(parent_sha, trees["parent"])
        export_worktree(trees["change"])
        tool = trees["change"] / "tools" / "opcount.py"
        report["opcount"] = {side: opcount(tool, tree) for side, tree in trees.items()}
        hosts = set()
        for workload in workloads:
            runs: dict[str, list[dict]] = {"parent": [], "change": []}
            order = []
            for i in range(args.pairs):
                sides = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                order.append(list(sides))
                seed = i + 1
                for side in sides:
                    run = run_once(trees[side], workload, seed, seconds)
                    hosts.add(run.pop("host_line"))
                    runs[side].append(run)
                    wall = run["metrics"]["wall_s"]
                    print(f"{workload} pair {i + 1}/{args.pairs} seed {seed} {side}: "
                          f"wall_s={wall:.4f}", flush=True)
            report["workloads"][workload] = {
                "order": order,
                "runs": runs,
                "summary": summarize(runs, better, order),
                # per pair, the outputs whose digests differ between the two sides
                "digests_changed": [
                    sorted(name for name, digest in p["digests"].items()
                           if c["digests"].get(name) != digest)
                    for p, c in zip(runs["parent"], runs["change"])
                ],
            }
        report["host"] = sorted(hosts)

    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    for workload, entry in report["workloads"].items():
        for name, row in entry["summary"].items():
            if "change_wins" in row:
                print(f"{workload} {name}: parent {row['parent']['median']:.4g} "
                      f"(IQR {row['parent']['iqr']:.3g}), change {row['change']['median']:.4g} "
                      f"(IQR {row['change']['iqr']:.3g}), change wins "
                      f"{row['change_wins']}/{row['pairs']}, second run minus first "
                      f"{row['order_effect']:+.3g}")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
