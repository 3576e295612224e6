"""Command-line entry point.

    cascade-droop simulate <scenario-file> --out <dir> [--dt S] [--duration S] [--no-clamp]
    cascade-droop case <1..5|all> --out <dir>
    cascade-droop stability <scenario-file> [--angle RAD] [--sweep angle=lo:hi:step vstar=lo:hi:step]

``case all`` runs the five cases in up to five worker processes, one per
CPU; its output bytes match a serial run.

Exit codes: 0 success, 1 validation error (bad usage, unparsable or invalid
scenario) or an output file or directory that cannot be written, 2 runtime
error (the simulation itself failed).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .cases import run_cases
from .engine import simulate
from .errors import SimulationError, ValidationError
from .reports import SweepAxis, emit_trace_csv, report_stability
from .scenario_io import parse_scenario


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; this artifact reserves 2
    # for runtime failures, so usage problems are rethrown and mapped to 1.
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="cascade-droop", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a scenario file and write its trace CSV")
    sim.add_argument("scenario", type=Path)
    sim.add_argument("--out", type=Path, default=Path("."), help="output directory")
    sim.add_argument("--dt", type=float, default=None, help="override the solver step (s)")
    sim.add_argument("--duration", type=float, default=None, help="override the duration (s)")
    sim.add_argument("--no-clamp", action="store_true", help="disable the frequency clamp")

    case = sub.add_parser("case", help="run one built-in case (or all five)")
    case.add_argument("which", choices=["1", "2", "3", "4", "5", "all"])
    case.add_argument("--out", type=Path, default=Path("."), help="output directory")

    stab = sub.add_parser("stability", help="print a grid-mode stability report")
    stab.add_argument("scenario", type=Path)
    stab.add_argument("--angle", type=float, default=0.0,
                      help="string-to-grid angle of the operating point (rad)")
    stab.add_argument("--sweep", nargs="+", default=None, metavar="AXIS=LO:HI:STEP",
                      help="tabulate verdicts over angle=... and/or vstar=... axes")
    return parser


def _load_scenario(path: Path):
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ValidationError(f"cannot read scenario file {path}: {exc}") from None
    return parse_scenario(text)


def _cmd_simulate(args) -> int:
    scenario = _load_scenario(args.scenario)
    overrides = {}
    if args.dt is not None:
        overrides["dt"] = args.dt
    if args.duration is not None:
        overrides["duration"] = args.duration
    if args.no_clamp:
        config = scenario.config
        overrides["config"] = replace(config, droop=replace(config.droop, freq_clamp=None))
    scenario = replace(scenario, **overrides)
    trace = simulate(scenario).trace
    args.out.mkdir(parents=True, exist_ok=True)
    out = emit_trace_csv(trace, args.out / f"{args.scenario.stem}_trace.csv")
    final_f = ", ".join(f"{v:.6g}" for v in trace.frequency_hz[-1])
    print(f"wrote {out}")
    print(f"samples: {len(trace)}  final frequencies (Hz): {final_f}")
    return 0


def _cmd_case(args) -> int:
    ids = [1, 2, 3, 4, 5] if args.which == "all" else [int(args.which)]
    for report in run_cases(ids, args.out):
        sys.stdout.write(report.render())
    return 0


def _parse_sweep(tokens: list[str]):
    axes = {}
    for tok in tokens:
        if "=" not in tok:
            raise ValidationError(f"sweep axis must look like angle=lo:hi:step, got {tok!r}")
        key, axis_text = tok.split("=", 1)
        key = key.strip().lower()
        if key not in ("angle", "vstar"):
            raise ValidationError(f"unknown sweep axis {key!r} (use angle or vstar)")
        if key in axes:
            raise ValidationError(f"sweep axis {key!r} is given more than once")
        axes[key] = SweepAxis.parse(axis_text)
    return axes.get("angle"), axes.get("vstar")


def _cmd_stability(args) -> int:
    scenario = _load_scenario(args.scenario)
    sweep = _parse_sweep(args.sweep) if args.sweep is not None else None
    sys.stdout.write(report_stability(scenario.config, sweep=sweep, angle_diff=args.angle))
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "simulate":
            return _cmd_simulate(args)
        if args.command == "case":
            return _cmd_case(args)
        return _cmd_stability(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 1
    except SimulationError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        # An unreadable scenario file is a ValidationError, so an OSError that
        # names a file comes from making the output directory or writing into it.
        if exc.filename is None:
            raise
        print(f"error: cannot write {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 1


def entry() -> None:
    raise SystemExit(main())
