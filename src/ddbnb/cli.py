"""Command line front-end: solve single instances, generate them, batch-run.

Exit codes: 0 when solved to optimality, 2 on timeout, 1 on any usage or
input error.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import json
import sys
from pathlib import Path

from . import instances
from .mdd import DiagramKind, SubProblem, compile_diagram, to_dot
from .model import NEG_INF, POS_INF
from .problems import max2sat, mcp, misp, tsptw
from .solver import SolveConfig, Status, solve

LOADERS = {
    "misp": misp.load,
    "mcp": mcp.load,
    "max2sat": max2sat.load,
    "tsptw": tsptw.load,
}

CONFIGS = {
    "none": (False, False),
    "rub": (True, False),
    "locb": (False, True),
    "rub+locb": (True, True),
}


def _onoff(value: str) -> bool:
    if value not in ("on", "off"):
        raise argparse.ArgumentTypeError("expected 'on' or 'off'")
    return value == "on"


def _positive(value: str) -> int:
    number = int(value)
    if number < 1:
        raise argparse.ArgumentTypeError("expected an integer >= 1")
    return number


def _reported(problem, value):
    """Sign-corrected objective value for display."""
    return -value if problem.negated else value


def _json_number(x):
    """JSON has no infinities: an unbounded side is reported as null."""
    return None if x in (NEG_INF, POS_INF) else x


def _fmt(x) -> str:
    if x == NEG_INF:
        return "-inf"
    if x == POS_INF:
        return "inf"
    return str(x)


def _solve_one(problem_name: str, path: Path, width, use_rub, use_locb,
               timeout) -> tuple:
    problem, relaxation = LOADERS[problem_name](path.read_text())
    config = SolveConfig(width=width, use_rub=use_rub, use_locb=use_locb,
                         timeout=timeout)
    outcome = solve(problem, relaxation, config)
    return (outcome, _reported(problem, outcome.value),
            _reported(problem, outcome.bound))


def cmd_solve(args) -> int:
    path = Path(args.file)
    if not path.is_file():
        print(f"error: no such instance file: {path}", file=sys.stderr)
        return 1
    if args.dot:
        problem, relaxation = LOADERS[args.problem](path.read_text())
        width = args.width or max(1, problem.n)
        root = SubProblem(problem.initial_state, problem.initial_value)
        dd = compile_diagram(problem, relaxation, root, DiagramKind.RELAXED,
                             width)
        Path(args.dot).write_text(to_dot(dd))
    outcome, objective, bound = _solve_one(
        args.problem, path, args.width, args.rub, args.locb, args.timeout)
    gap = outcome.gap
    payload = {
        "status": outcome.status.value,
        "gap": gap,
        "objective": _json_number(objective),
        "bound": _json_number(bound),
        "explored": outcome.explored,
        "seconds": round(outcome.duration, 3),
        "problem": args.problem,
        "instance": str(path),
    }
    if args.json:
        print(json.dumps(payload, allow_nan=False))
    else:
        print(f"status={payload['status']} gap={gap}"
              f" objective={_fmt(objective)} bound={_fmt(bound)}"
              f" explored={outcome.explored} seconds={payload['seconds']:.3f}")
    return 0 if outcome.status is Status.OPTIMAL else 2


def cmd_gen(args) -> int:
    if args.problem != "tsptw" and args.p is None:
        print("error: --p is required for misp/mcp/max2sat", file=sys.stderr)
        return 1
    text = instances.gen_erdos_renyi(args.problem, args.n,
                                     args.p if args.p is not None else 0.0,
                                     args.seed)
    Path(args.output).write_text(text)
    return 0


CSV_FIELDS = ["instance", "problem", "config", "status", "objective",
              "bound", "gap", "explored", "seconds"]


def _bench_row(job, width, timeout, no_time) -> list:
    """The CSV cells of one (instance, config) row, in any process."""
    problem_name, rel_path, path, name = job
    use_rub, use_locb = CONFIGS[name]
    outcome, objective, bound = _solve_one(problem_name, path, width, use_rub,
                                           use_locb, timeout)
    seconds = "0.000" if no_time else f"{outcome.duration:.3f}"
    return [rel_path, problem_name, name, outcome.status.value,
            _fmt(objective), _fmt(bound), repr(outcome.gap), outcome.explored,
            seconds]


def cmd_bench(args) -> int:
    manifest_path = Path(args.manifest)
    if not manifest_path.is_file():
        print(f"error: no such manifest: {manifest_path}", file=sys.stderr)
        return 1
    entries = instances.parse_manifest(manifest_path.read_text())
    config_names = args.configs.split(",")
    for name in config_names:
        if name not in CONFIGS:
            print(f"error: unknown config {name!r}", file=sys.stderr)
            return 1
    jobs, missing = [], []
    for problem_name, rel_path in entries:
        path = Path(rel_path)
        if not path.is_absolute():
            path = manifest_path.parent / path
        if problem_name not in LOADERS or not path.is_file():
            missing.append(rel_path)
            continue
        jobs.extend((problem_name, rel_path, path, name)
                    for name in config_names)
    row = functools.partial(_bench_row, width=args.width,
                            timeout=args.timeout, no_time=args.no_time)
    processes = min(args.threads, len(jobs))
    with contextlib.ExitStack() as stack:
        out = (stack.enter_context(open(args.output, "w", newline=""))
               if args.output else sys.stdout)
        if processes > 1:
            # imported here so that `import ddbnb.cli` stays light
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor
            pool = ProcessPoolExecutor(
                processes, mp_context=multiprocessing.get_context("spawn"))
            # on any exit, an error included, rows not yet started are
            # dropped instead of solved
            stack.callback(pool.shutdown, cancel_futures=True)
            # map() yields rows in manifest order at any process count
            rows = pool.map(row, jobs)
        else:
            rows = map(row, jobs)
        writer = csv.writer(out)
        writer.writerow(CSV_FIELDS)
        writer.writerows(rows)
    for rel_path in missing:
        print(f"warning: skipped missing instance {rel_path}", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ddbnb",
        description="Branch-and-bound over decision diagrams")
    commands = parser.add_subparsers(dest="command", required=True)

    p_solve = commands.add_parser("solve", help="solve one instance")
    p_solve.add_argument("problem", choices=sorted(LOADERS))
    p_solve.add_argument("file")
    p_solve.add_argument("--width", type=int, default=None,
                         help="layer width (default: unfixed variable count)")
    p_solve.add_argument("--rub", type=_onoff, default=True,
                         help="rough-bound filtering during compilation")
    p_solve.add_argument("--locb", type=_onoff, default=True,
                         help="local-bound pruning of subproblems")
    p_solve.add_argument("--timeout", type=float, default=1800.0)
    p_solve.add_argument("--json", action="store_true")
    p_solve.add_argument("--dot", metavar="FILE",
                         help="dump a root relaxed diagram in DOT form")
    p_solve.set_defaults(func=cmd_solve)

    p_gen = commands.add_parser("gen", help="generate a random instance")
    p_gen.add_argument("problem", choices=sorted(LOADERS))
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--p", type=float, default=None)
    p_gen.add_argument("--seed", type=int, required=True)
    p_gen.add_argument("-o", "--output", required=True)
    p_gen.set_defaults(func=cmd_gen)

    p_bench = commands.add_parser("bench", help="run a manifest of instances")
    p_bench.add_argument("manifest")
    p_bench.add_argument("--configs", default="none,rub,locb,rub+locb")
    p_bench.add_argument("--width", type=int, default=None)
    p_bench.add_argument("--timeout", type=float, default=1800.0)
    p_bench.add_argument("--threads", type=_positive, default=1,
                         help="solve rows in this many worker processes")
    p_bench.add_argument("-o", "--output", default=None)
    p_bench.add_argument("--no-time", action="store_true",
                         help="zero the seconds column for reproducible output")
    p_bench.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; 2 is reserved for timeouts here
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
