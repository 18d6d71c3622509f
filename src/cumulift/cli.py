"""Command-line front end.

Subcommands: infer, bound, check, emit, graph.  Exit codes: 0 success,
1 usage error, 2 malformed input, 3 infeasible instance, 4 verification
failure.  Primary output goes to stdout (or --out); logs and timing go to
stderr so reports stay byte-reproducible.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import Optional, Sequence

from .errors import (
    InfeasibleTask,
    MalformedInput,
    PositiveCycle,
    TooLarge,
    VerificationFailed,
)
from .fixtures import FIXTURE_FILES
from .instance import SchedulingInstance, to_demand_system
from .lifting import LiftingConfig, run_pipeline
from .parsers import InstanceFormat, detect_format, parse_instance
from .polyhedral import LiftedInequality, check_validity_bruteforce
from .report import (
    ReportFormat,
    emit_report,
    export_parallelism_graph,
    fragment_from_report,
    parse_report,
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # keep exit-code control in cli_main
        raise _UsageError(message)


def _add_instance_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("instance", help="path to the instance file")
    sub.add_argument(
        "--format",
        choices=[f.value for f in InstanceFormat],
        help="instance format (default: detect from the file extension)",
    )


def _add_config_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--n-cover", type=int, default=100, metavar="N",
                     help="short-cover budget (default 100)")
    sub.add_argument("--n-out", type=int, default=5, metavar="N",
                     help="constraints to keep (default 5)")
    sub.add_argument("--max-cover-card", type=int, default=None, metavar="K",
                     help="cap on cover cardinality; 2 = disjunctive-only mode")
    sub.add_argument("--no-verify", action="store_true",
                     help="skip the brute-force validity check on small systems")


def _build_parser() -> _Parser:
    parser = _Parser(prog="cumulift", description=__doc__)
    parser.add_argument(
        "--seed-fixtures",
        metavar="DIR",
        help="write the bundled example instances into DIR and exit",
    )
    sub = parser.add_subparsers(dest="command")

    p_infer = sub.add_parser("infer", help="run the inference pipeline, print a report")
    _add_instance_args(p_infer)
    _add_config_args(p_infer)
    p_infer.add_argument("--report-format", choices=[f.value for f in ReportFormat],
                         default="json")
    p_infer.add_argument("--out", metavar="PATH", help="write output here instead of stdout")

    p_bound = sub.add_parser("bound", help="print the search-less and precedence-path bounds")
    _add_instance_args(p_bound)
    _add_config_args(p_bound)
    p_bound.add_argument("--out", metavar="PATH")

    p_check = sub.add_parser("check", help="re-verify a report's constraints by brute force")
    p_check.add_argument("report", help="path to a JSON report")
    p_check.add_argument("--instance", required=True, help="path to the instance file")
    p_check.add_argument("--format", choices=[f.value for f in InstanceFormat])
    p_check.add_argument("--limit", type=int, default=20,
                         help="brute-force column limit (default 20)")
    p_check.add_argument("--out", metavar="PATH")

    p_emit = sub.add_parser("emit", help="emit cumulative model-fragment lines")
    _add_instance_args(p_emit)
    _add_config_args(p_emit)
    p_emit.add_argument("--report", metavar="PATH",
                        help="take constraints from this report instead of re-running")
    p_emit.add_argument("--out", metavar="PATH")

    p_graph = sub.add_parser("graph", help="export the parallelism graph as DOT")
    _add_instance_args(p_graph)
    p_graph.add_argument("--out", metavar="PATH")
    return parser


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        raise MalformedInput(
            f"{path} is not UTF-8 text ({exc.reason} at byte {exc.start})"
        ) from exc


def _load_instance(path: str, fmt_name: Optional[str]) -> SchedulingInstance:
    if fmt_name:
        fmt = InstanceFormat(fmt_name)
    else:
        fmt = detect_format(path)
        if fmt is None:
            raise _UsageError(
                f"cannot detect the format of {path!r}; pass --format"
            )
    name = os.path.splitext(os.path.basename(path))[0]
    return parse_instance(_read(path), fmt, name=name)


def _config_from_args(args) -> LiftingConfig:
    try:
        return LiftingConfig(
            n_cover=args.n_cover,
            n_out=args.n_out,
            max_cover_cardinality=args.max_cover_card,
            bruteforce_verify=not args.no_verify,
        )
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc


def _write_output(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _cmd_infer(args) -> int:
    instance = _load_instance(args.instance, args.format)
    config = _config_from_args(args)
    started = time.perf_counter()
    report = run_pipeline(instance, config)
    elapsed = time.perf_counter() - started
    print(f"inference finished in {elapsed:.3f}s", file=sys.stderr)
    _write_output(emit_report(report, ReportFormat(args.report_format)), args.out)
    return 0


def _cmd_bound(args) -> int:
    instance = _load_instance(args.instance, args.format)
    config = _config_from_args(args)
    report = run_pipeline(instance, config)
    text = (
        f"searchless_lb: {report.searchless_lb}\n"
        f"precedence_lb: {report.precedence_lb}\n"
    )
    _write_output(text, args.out)
    return 0


def _cmd_check(args) -> int:
    report = parse_report(_read(args.report))
    instance = _load_instance(args.instance, args.format)
    system = to_demand_system(instance)
    column_of = {task_id: col for col, task_id in enumerate(system.task_map)}
    failures = 0
    lines = []
    for idx, constraint in enumerate(report.constraints):
        coeffs = [0] * system.n_cols
        for task_id, usage in constraint.usages:
            col = column_of.get(task_id)
            if col is None:
                raise MalformedInput(
                    f"constraint {idx} uses task {task_id} outside the demand system"
                )
            coeffs[col] = usage
        try:
            ineq = LiftedInequality(tuple(coeffs), constraint.capacity)
        except ValueError as exc:
            raise MalformedInput(f"constraint {idx}: {exc}") from exc
        ok, point = check_validity_bruteforce(ineq, system, limit=args.limit)
        lines.append(f"constraint {idx}: {'valid' if ok else f'VIOLATED at {point}'}")
        failures += 0 if ok else 1
    _write_output("\n".join(lines) + "\n", args.out)
    if failures:
        raise VerificationFailed(f"{failures} constraint(s) failed the oracle")
    return 0


def _cmd_emit(args) -> int:
    instance = _load_instance(args.instance, args.format)
    if args.report:
        report = parse_report(_read(args.report))
    else:
        report = run_pipeline(instance, _config_from_args(args))
    _write_output(fragment_from_report(instance, report), args.out)
    return 0


def _cmd_graph(args) -> int:
    instance = _load_instance(args.instance, args.format)
    _write_output(export_parallelism_graph(to_demand_system(instance)), args.out)
    return 0


_COMMANDS = {
    "infer": _cmd_infer,
    "bound": _cmd_bound,
    "check": _cmd_check,
    "emit": _cmd_emit,
    "graph": _cmd_graph,
}


def cli_main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.seed_fixtures:
            os.makedirs(args.seed_fixtures, exist_ok=True)
            for filename, text in FIXTURE_FILES.items():
                with open(os.path.join(args.seed_fixtures, filename), "w",
                          encoding="utf-8") as handle:
                    handle.write(text)
            print(f"wrote {len(FIXTURE_FILES)} fixture files to {args.seed_fixtures}",
                  file=sys.stderr)
            return 0
        if not args.command:
            raise _UsageError("a subcommand is required")
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        parser.print_usage(sys.stderr)
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)
    except (MalformedInput, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (InfeasibleTask, PositiveCycle) as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 3
    except TooLarge as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except VerificationFailed as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 4


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
