"""Workload definitions: instance generators, stored pools and seeded draws.

Every workload owns a pool of generator seeds stored in `pools/<name>.json`,
each with its reference optimum and its `dd_nodes` count under the
workload's own config.  A run takes the `HEAVIEST` entries with the most
`dd_nodes` every time, cuts the rest of the pool, sorted by `dd_nodes`, into
strata of about `STRATUM` entries, and draws one instance per stratum with an
RNG seeded from the workload name and the run seed.  Every run therefore
covers the whole difficulty range of the pool while different seeds solve
different instances; the few heaviest instances, which would otherwise swing
per-run totals, are in every run.

Instance text comes from the seeded generators in `ddbnb.instances`; the
solver only ever sees that text, through `cli.LOADERS`.
"""

from __future__ import annotations

import json
import random
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
POOL_DIR = Path(__file__).resolve().parent / "pools"

STRATUM = 2           # pool entries per drawn instance
# heaviest pool entries solved in every run: the p91 tail of a run's ~115
# instances then rests on these alone, so it does not change with the draw
HEAVIEST = 24

# Instance sizes: a few hundredths of a second per solve, so that a run of
# about a hundred instances solves each of them four to six times.
MCP_VERTICES = 18
MISP_VERTICES = 55

# Window slack of tsptw-branchy: wide enough that RUB and LocB still leave
# thousands of small subproblems a run; wider windows make every instance
# slower and let a few of them take most of a run.
TSPTW_SLACK = 55


@dataclass(frozen=True)
class Workload:
    name: str
    problem: str                  # key of ddbnb.cli.LOADERS
    config: str                   # key of ddbnb.cli.CONFIGS it measures
    reference_config: str         # config the stored optima were solved under

    def generate(self, seed: int) -> str:
        """Instance text for one pool seed."""
        from ddbnb import instances as io

        if self.problem == "mcp":
            return io.emit_graph(io.random_mcp(MCP_VERTICES, 0.2, seed))
        if self.problem == "misp":
            return io.emit_graph(io.random_misp(MISP_VERTICES, 0.5, seed))
        if self.problem == "tsptw":
            return io.emit_tsptw(io.random_tsptw(
                20, seed, span=40, early_slack=TSPTW_SLACK,
                late_slack=TSPTW_SLACK))
        raise ValueError(f"no generator for {self.problem!r}")

    def pool_path(self) -> Path:
        return POOL_DIR / f"{self.name}.json"

    def load_pool(self) -> List[dict]:
        """Pool entries: {"seed", "value", "dd_nodes"}."""
        with open(self.pool_path()) as fh:
            return json.load(fh)["entries"]


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("mcp-rublocb", "mcp", "rub+locb", "none"),
    Workload("misp-none", "misp", "none", "rub+locb"),
    Workload("tsptw-branchy", "tsptw", "rub+locb", "rub"),
)}


def draw(entries: List[dict], workload: str, seed: int) -> List[dict]:
    """The `HEAVIEST` entries plus one entry per stratum of the rest.

    Entries are ranked by (dd_nodes, seed); the rest is cut into
    len // STRATUM strata of `STRATUM` or `STRATUM + 1` consecutive entries,
    so no entry is left out.  The same (workload, seed) always yields the
    same list, in a seeded order.
    """
    ranked = sorted(entries, key=lambda e: (e["dd_nodes"], e["seed"]))
    rest = ranked[:len(ranked) - HEAVIEST]
    picked = ranked[len(rest):]
    rng = random.Random(f"{workload}/{seed}")
    count = len(rest) // STRATUM
    cuts = [len(rest) * i // count for i in range(count + 1)]
    picked += [rng.choice(rest[lo:hi]) for lo, hi in zip(cuts, cuts[1:])]
    rng.shuffle(picked)
    return picked


def instance_texts(workload: Workload, seed: int) -> List[Tuple[dict, str]]:
    """(pool entry, instance text) pairs for one run."""
    picked = draw(workload.load_pool(), workload.name, seed)
    return [(e, workload.generate(e["seed"])) for e in picked]


def import_ddbnb():
    """Import the package from this checkout's `src/`, never from elsewhere."""
    src = REPO_ROOT / "src"
    if not (src / "ddbnb" / "__init__.py").is_file():
        raise ImportError(f"no ddbnb sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import ddbnb
    import ddbnb.cli  # noqa: F401  (binds ddbnb.cli; the package does not)

    if Path(ddbnb.__file__).resolve().parent != src / "ddbnb":
        raise ImportError(f"ddbnb imported from {ddbnb.__file__}, not {src}")
    return ddbnb
