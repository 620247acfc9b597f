"""ddbnb benchmark: seeded solve workloads, timed end to end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the solver is imported from the
checkout's `src/`.  A run draws its instances from the workload's stored
pool (see `workloads.py`) and solves them one at a time in one process: a
closed loop with one client and `workers=1`.  Every solve must end OPTIMAL
with an assignment that replays to the reported value, and that value must
equal the stored reference optimum; any miss counts as a failure and makes
the command exit 1.

`--trace 0` times the run.  It solves each instance once for the counts and
keeps re-solving the set in order until `--seconds` have passed; an
instance's solve time is the median of its solves, and the p50 and tail over
instances are Harrell-Davis estimates (see `metrics.quantile`).
`SETUP_ROUNDS_PER_PASS` times a pass, spread over the whole run, it loads
every instance of the run (repeatedly, for at least `SETUP_ROUND_S`);
`setup_s` is the median round's time per load of the whole set.  It prints every
end-to-end metric by name and unit.

`--trace 1` solves each instance of the draw once untraced and once traced
(see `layertrace.py`); it checks that tracing changed no count, prints the
per-layer metrics and writes the spans to `perfbench/out/`.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  Exit codes: 0 when every
solve was correct, 1 when one was not, 2 when the run could not start.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import itertools
import json
import resource
import statistics
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))

from metrics import Tally, check_solve, quantile, tail_percentile  # noqa: E402
from layertrace import Tracer, layer_metrics  # noqa: E402
from workloads import (REPO_ROOT, WORKLOADS, import_ddbnb,  # noqa: E402
                       instance_texts)

SETUP_ROUNDS_PER_PASS = 12
SETUP_ROUND_S = 0.05
SOLVE_TIMEOUT = 60.0          # seconds; a timeout counts as a failure
OUT_DIR = Path(__file__).resolve().parent / "out"


def solve_config(ddbnb, workload, **hooks):
    use_rub, use_locb = ddbnb.cli.CONFIGS[workload.config]
    return ddbnb.SolveConfig(width=None, use_rub=use_rub, use_locb=use_locb,
                             timeout=SOLVE_TIMEOUT, workers=1, **hooks)


def timed_solve(solve, problem, relaxation, config):
    """(outcome, seconds, failure); a solve that raises is a failed solve."""
    gc.collect()
    started = time.perf_counter()
    try:
        outcome = solve(problem, relaxation, config)
    except Exception as exc:  # the run goes on and reports it
        return (None, time.perf_counter() - started,
                f"{type(exc).__name__}: {exc}")
    return outcome, time.perf_counter() - started, None


def timed_run(ddbnb, workload, runs, seconds: float):
    loader = ddbnb.cli.LOADERS[workload.problem]
    config = solve_config(ddbnb, workload)
    texts = [text for _, text in runs]

    def setup_round() -> float:
        """Seconds per load of the whole set, over as many loads as fit in
        SETUP_ROUND_S, so that one round is not a few milliseconds long."""
        gc.collect()
        loads = 0
        started = time.perf_counter()
        while True:
            for text in texts:
                loader(text)
            loads += 1
            elapsed = time.perf_counter() - started
            if elapsed >= SETUP_ROUND_S:
                return elapsed / loads

    # set-up rounds are spread over the whole run, so their median sees the
    # same host as the solves do: a shared host can switch between a fast
    # and a slow speed for seconds at a time, and rounds kept to one stretch
    # of the run follow whichever speed held there
    setup_every = max(1, len(runs) // SETUP_ROUNDS_PER_PASS)
    models = [loader(text) for text in texts]
    setup = []
    tally = Tally()
    times = [[] for _ in runs]
    counts = [None] * len(runs)           # (explored, dd_nodes) of pass 1
    started = time.perf_counter()
    solved = 0
    for i in itertools.cycle(range(len(runs))):
        if solved >= len(runs) and time.perf_counter() - started >= seconds:
            break
        if solved % setup_every == 0:
            setup.append(setup_round())
        (entry, _), (problem, relaxation) = runs[i], models[i]
        outcome, elapsed, failure = timed_solve(ddbnb.solve, problem,
                                                relaxation, config)
        failure = failure or check_solve(ddbnb, problem, outcome,
                                         entry["value"])
        pair = (outcome.explored, outcome.dd_nodes) if outcome else (0, 0)
        if failure is None and counts[i] not in (None, pair):
            failure = f"counts {pair} differ from the first pass {counts[i]}"
        tally.record(failure and f"pool seed {entry['seed']}: {failure}")
        times[i].append(elapsed)
        counts[i] = counts[i] or pair
        solved += 1

    per_instance = [statistics.median(t) for t in times]
    percentile = tail_percentile(len(per_instance))
    metrics = {
        "solves_per_s": (len(per_instance) / sum(per_instance), "1/s"),
        "solve_s.p50": (quantile(per_instance, 0.5), "s"),
        "solve_s.tail": (quantile(per_instance, percentile / 100), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "explored": (sum(c[0] for c in counts), "count"),
        "dd_nodes": (sum(c[1] for c in counts), "count"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
    }
    notes = [f"solve_s.tail is p{percentile} of {len(per_instance)} "
             f"instances ({sum(map(len, times))} timed solves)",
             f"fail_rate {tally.fail_rate} ({tally.failed} of "
             f"{tally.attempted} solves)"]
    return tally, metrics, notes


def traced_run(ddbnb, workload, runs, seed: int):
    config = solve_config(ddbnb, workload)
    tally = Tally()
    untraced = []
    for entry, text in runs:
        problem, relaxation = ddbnb.cli.LOADERS[workload.problem](text)
        outcome, elapsed, failure = timed_solve(ddbnb.solve, problem,
                                                relaxation, config)
        failure = failure or check_solve(ddbnb, problem, outcome,
                                         entry["value"])
        tally.record(failure and f"pool seed {entry['seed']}: {failure}")
        untraced.append((problem, outcome, elapsed))

    tracer = Tracer()
    hooks = {}
    fields = {f.name for f in dataclasses.fields(ddbnb.SolveConfig)}
    if "dd_observer" in fields:
        hooks["dd_observer"] = tracer.dd_observer
    else:
        tracer.absent.append("solver.SolveConfig.dd_observer")
    traced_config = solve_config(ddbnb, workload, **hooks)
    tracer.install(ddbnb)
    traced_s = 0.0
    try:
        solve = tracer.wrap("solver.solve", ddbnb.solver.solve)
        for (entry, text), (plain, before, _) in zip(runs, untraced):
            pops = tracer.calls("solver.Fringe.pop")
            created = tracer.counts["nodes_created"]
            problem, relaxation = ddbnb.cli.LOADERS[workload.problem](text)
            tracer.trace_model(problem, relaxation)
            outcome, elapsed, failure = timed_solve(solve, problem,
                                                    relaxation, traced_config)
            traced_s += elapsed
            pops = tracer.calls("solver.Fringe.pop") - pops
            created = tracer.counts["nodes_created"] - created
            # replay on the untraced model so the check adds no spans
            failure = failure or check_solve(ddbnb, plain, outcome,
                                             entry["value"])
            if failure is None and before is not None:
                failure = reconcile(tracer, before, outcome, pops, created)
            tally.record(failure and f"pool seed {entry['seed']}: {failure}")
    finally:
        tracer.uninstall()

    untraced_s = sum(elapsed for _, _, elapsed in untraced)
    metrics = layer_metrics(
        tracer, untraced_s=untraced_s, traced_s=traced_s,
        dd_nodes=sum(out.dd_nodes for _, out, _ in untraced if out),
        solves=len(runs), package=REPO_ROOT / "src" / "ddbnb")
    path = OUT_DIR / f"trace-{workload.name}-{seed}.jsonl"
    tracer.write(path, {"workload": workload.name, "seed": seed,
                        "clock": "time.perf_counter"})
    notes = [f"spans written to {path.relative_to(REPO_ROOT)}",
             f"absent: {', '.join(tracer.absent) or 'none'}",
             f"fail_rate {tally.fail_rate} ({tally.failed} of "
             f"{tally.attempted} solves)"]
    return tally, metrics, notes


def reconcile(tracer, untraced, traced, pops: int, created: int):
    """Why the traced solve's counts disagree, or None."""
    if (traced.explored, traced.dd_nodes) != (untraced.explored,
                                              untraced.dd_nodes):
        return (f"traced explored/dd_nodes {traced.explored}/"
                f"{traced.dd_nodes}, untraced {untraced.explored}/"
                f"{untraced.dd_nodes}")
    popped = not {"solver.Fringe", "solver.Fringe.pop"} & set(tracer.absent)
    if popped and pops != traced.explored:
        return f"{pops} fringe pops, explored {traced.explored}"
    if "solver.compile_diagram" not in tracer.absent \
            and created != traced.dd_nodes:
        return (f"{created} nodes in compiled diagrams, "
                f"dd_nodes {traced.dd_nodes}")
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one ddbnb benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    try:
        ddbnb = import_ddbnb()
        runs = instance_texts(workload, args.seed)
    except (ImportError, OSError) as exc:
        print(f"error: cannot set up the benchmark: {exc}", file=sys.stderr)
        return 2

    if args.trace:
        tally, metrics, notes = traced_run(ddbnb, workload, runs, args.seed)
    else:
        tally, metrics, notes = timed_run(ddbnb, workload, runs, args.seconds)

    for name, (value, unit) in metrics.items():
        print(f"{workload.name} {name} {value} {unit}")
    for note in notes:
        print(f"{workload.name} {note}")
    for failure in tally.failures:
        print(f"{workload.name} FAILED {failure}")
    print(json.dumps({
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if not tally.failures else 1


if __name__ == "__main__":
    sys.exit(main())
