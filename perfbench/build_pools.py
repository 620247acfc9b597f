"""Regenerate a workload's instance pool with its reference optima.

    python3 perfbench/build_pools.py <workload> --count N

Solves generator seeds 0..N-1 under the workload's config (for the
stratification count) and under its reference config, and refuses to write
the pool unless both reach OPTIMAL with the same value, and each assignment
replays to it.  A seed with more `dd_nodes` than the workload's admission
limit (`MAX_DD_NODES`) is left out of the pool, so that no single instance
takes a large share of a run.  Run it only when a workload's
instance family changes; the stored optima are what every run checks
against.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import WORKLOADS, import_ddbnb  # noqa: E402

# admission limits on `dd_nodes` under the workload's config
MAX_DD_NODES = {"tsptw-branchy": 20_000}


def solve_checked(ddbnb, loader, text, config):
    use_rub, use_locb = ddbnb.cli.CONFIGS[config]
    problem, relaxation = loader(text)
    out = ddbnb.solve(problem, relaxation,
                      ddbnb.SolveConfig(use_rub=use_rub, use_locb=use_locb))
    if out.status is not ddbnb.Status.OPTIMAL:
        raise RuntimeError(f"{config}: status {out.status.value}")
    if ddbnb.evaluate_assignment(problem, out.assignment) != out.value:
        raise RuntimeError(f"{config}: assignment does not replay")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--count", type=int, required=True)
    args = parser.parse_args(argv)

    ddbnb = import_ddbnb()
    from ddbnb.cli import LOADERS

    workload = WORKLOADS[args.workload]
    loader = LOADERS[workload.problem]
    limit = MAX_DD_NODES.get(workload.name)
    entries, left_out = [], []
    for seed in range(args.count):
        started = time.perf_counter()
        text = workload.generate(seed)
        out = solve_checked(ddbnb, loader, text, workload.config)
        if limit is not None and out.dd_nodes > limit:
            left_out.append(seed)
            print(f"seed {seed}: dd_nodes={out.dd_nodes} over {limit}, "
                  f"left out", file=sys.stderr, flush=True)
            continue
        ref = solve_checked(ddbnb, loader, text, workload.reference_config)
        if ref.value != out.value:
            raise RuntimeError(f"seed {seed}: {workload.config} found "
                               f"{out.value}, {workload.reference_config} "
                               f"found {ref.value}")
        entries.append({"seed": seed, "value": out.value,
                        "dd_nodes": out.dd_nodes})
        print(f"seed {seed}: value={out.value} dd_nodes={out.dd_nodes} "
              f"explored={out.explored} "
              f"({time.perf_counter() - started:.2f}s)", file=sys.stderr,
              flush=True)

    payload = {"workload": workload.name, "config": workload.config,
               "reference_config": workload.reference_config,
               "max_dd_nodes": limit, "left_out": left_out,
               "entries": entries}
    path = workload.pool_path()
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(payload, indent=0) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
