"""Outside-in tracing of ddbnb's layers, installed from the benchmark's code.

`Tracer.install` rebinds the names that `ddbnb.solver` and `ddbnb.mdd` look
up at call time (`compile_diagram`, `best_solution`, `exact_cutset`,
`compute_local_bounds`, `Fringe`, `restrict_layer`, `relax_layer`), the
parsers in `ddbnb.instances` and the entries of `ddbnb.cli.LOADERS`;
`Tracer.trace_model` wraps the callbacks on one Problem and Relaxation
instance.  `Tracer.uninstall` puts every original back.  No file of the
program changes.  A name that no longer exists is listed in `absent`
instead of failing the run.

Each wrapped call is a span: name, start, end and the span that caused it.
A span's self time is its duration minus the time its child spans cover.
Calls made once per arc or per layer (model callbacks, layer squeezes) are
rolled up per (parent span name, name) rather than stored one by one, which
keeps memory bounded; every other span is kept in memory and written out as
JSON lines by `write`.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from pathlib import Path
from types import GeneratorType
from typing import Callable, Dict, List, Optional

PROBLEM_CALLBACKS = ("domain", "transition", "transition_cost", "rough_bound",
                     "successors")
RELAXATION_CALLBACKS = ("merge", "relax_arc")
CALLBACKS = PROBLEM_CALLBACKS + RELAXATION_CALLBACKS

PARSERS = ("parse_graph", "parse_wcnf", "parse_tsptw")


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Optional[tuple]] = []  # (name, start, end, parent id)
        self.totals: Dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.rollups: Dict[str, dict] = {}      # name -> {parent name: same}
        self.counts: Counter = Counter()
        self.absent: List[str] = []
        # a frame starts [child seconds, name, nearest stored span id]
        self._stack: List[list] = [[0.0, "", -1]]
        self._patches: List[tuple] = []
        self._rub_results: List[float] = []

    # -- spans -------------------------------------------------------------

    def _enter(self, name: str, store: bool) -> list:
        parent = self._stack[-1]
        sid = parent[2]
        if store:
            sid = len(self.spans)
            self.spans.append(None)
        frame = [0.0, name, sid, store, parent]
        self._stack.append(frame)
        frame.append(self.clock())
        return frame

    def _exit(self, frame: list, counted: bool = True) -> None:
        end = self.clock()
        self._stack.pop()
        child, name, sid, store, parent, start = frame
        duration = end - start
        parent[0] += duration
        _add(self.totals, name, counted, duration, duration - child)
        if store:
            self.spans[sid] = (name, start, end, parent[2])
        else:
            _add(self.rollups.setdefault(name, {}), parent[1], counted,
                 duration, duration - child)

    def wrap(self, name, fn: Callable, store: bool = True,
             observe: Optional[Callable] = None) -> Callable:
        """`fn` with a span around every call.

        `name` is a string or a function of (args, kwargs) giving one.
        `observe(args, kwargs, result)` runs after each call, outside the
        span.  A generator result is timed step by step under the same name.
        """
        if not store and isinstance(name, str):
            return self._wrap_rolled_up(name, fn, observe)
        enter, leave = self._enter, self._exit
        fixed = isinstance(name, str)

        def traced(*args, **kwargs):
            frame = enter(name if fixed else name(args, kwargs), store)
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(frame)
            if type(result) is GeneratorType:
                result = self._steps(frame[1], store, result)
            if observe is not None:
                observe(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_rolled_up(self, name: str, fn: Callable,
                        observe: Optional[Callable]) -> Callable:
        """`wrap` for per-arc calls: positional arguments only, bookkeeping
        inlined, since its cost lands in the caller's self time."""
        clock, stack = self.clock, self._stack
        acc = self.totals.setdefault(name, [0, 0.0, 0.0])
        by_parent = self.rollups.setdefault(name, {})

        def traced(*args):
            parent = stack[-1]
            frame = [0.0, name, parent[2]]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args)
            finally:
                duration = clock() - start
                stack.pop()
                parent[0] += duration
                own = duration - frame[0]
                acc[0] += 1
                acc[1] += duration
                acc[2] += own
                roll = by_parent.get(parent[1])
                if roll is None:
                    roll = by_parent[parent[1]] = [0, 0.0, 0.0]
                roll[0] += 1
                roll[1] += duration
                roll[2] += own
            if type(result) is GeneratorType:
                result = self._steps(name, False, result)
            if observe is not None:
                observe(args, None, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _steps(self, name: str, store: bool, gen):
        while True:
            frame = self._enter(name, store)
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                self._exit(frame, counted=False)
            self.counts[f"{name}.items"] += 1
            yield item

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr: str, label: str, wrapper: Callable) -> None:
        original = getattr(owner, attr, None)
        if original is None:
            self.absent.append(label)
            return
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper(original))

    def install(self, ddbnb) -> None:
        solver, mdd = ddbnb.solver, ddbnb.mdd
        wrap = self.wrap
        self._patch(solver, "compile_diagram", "solver.compile_diagram",
                    lambda f: wrap(_compile_name, f, observe=self._on_compile))
        self._patch(solver, "best_solution", "solver.best_solution",
                    lambda f: wrap("mdd.best_solution", f))
        self._patch(solver, "exact_cutset", "solver.exact_cutset",
                    lambda f: wrap("mdd.exact_cutset", f,
                                   observe=self._on_cutset))
        self._patch(solver, "compute_local_bounds",
                    "solver.compute_local_bounds",
                    lambda f: wrap("pruning.compute_local_bounds", f))
        self._patch(solver, "Fringe", "solver.Fringe", self._fringe_class)
        for squeeze in ("restrict_layer", "relax_layer"):
            self._patch(mdd, squeeze, f"mdd.{squeeze}",
                        lambda f, s=squeeze: wrap(f"mdd.{s}", f, store=False,
                                                  observe=self._on_squeeze))
        for parser in PARSERS:
            self._patch(ddbnb.instances, parser, f"instances.{parser}",
                        lambda f, p=parser: wrap(f"instances.{p}", f))
        loaders = getattr(ddbnb.cli, "LOADERS", None)
        if loaders is None:
            self.absent.append("cli.LOADERS")
        else:
            for key, loader in list(loaders.items()):
                self._patches.append((loaders, key, loader))
                loaders[key] = wrap(f"cli.LOADERS.{key}", loader)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    def _fringe_class(self, base):
        methods = {}
        for method in ("push", "pop"):
            original = getattr(base, method, None)
            if original is None:
                self.absent.append(f"solver.Fringe.{method}")
                continue
            methods[method] = self.wrap(
                f"solver.Fringe.{method}", original,
                observe=self._on_push if method == "push" else None)
        return type(base.__name__, (base,), methods)

    def trace_model(self, problem, relaxation) -> None:
        """Wrap the callbacks on these two instances (instance attributes)."""
        observers = {"transition": self._on_transition,
                     "rough_bound": self._on_rough_bound}
        for owner, names in ((problem, PROBLEM_CALLBACKS),
                             (relaxation, RELAXATION_CALLBACKS)):
            for cb in names:
                original = getattr(owner, cb, None)
                if original is None:
                    if f"problems.{cb}" not in self.absent:
                        self.absent.append(f"problems.{cb}")
                    continue
                setattr(owner, cb, self.wrap(f"problems.{cb}", original,
                                             store=False,
                                             observe=observers.get(cb)))

    # -- observers ---------------------------------------------------------

    def _on_compile(self, args, kwargs, dd) -> None:
        counts = self.counts
        counts["nodes_created"] += dd.nodes_created
        widest = max((len(layer) for layer in dd.layers), default=0)
        counts["max_layer_width"] = max(counts["max_layer_width"], widest)
        if dd.kind.value == "restricted" and dd.is_exact:
            counts["restricted_exact"] += 1

    def _on_squeeze(self, args, kwargs, result) -> None:
        self.counts["max_layer_width"] = max(self.counts["max_layer_width"],
                                             len(args[0]))

    def _on_cutset(self, args, kwargs, children) -> None:
        self.counts["cutset_children"] += len(children)

    def _on_push(self, args, kwargs, result) -> None:
        self.counts["peak_fringe"] = max(self.counts["peak_fringe"],
                                         len(args[0]))

    def _on_transition(self, args, kwargs, result) -> None:
        if result is not None:
            self.counts["feasible_transitions"] += 1

    def _on_rough_bound(self, args, kwargs, result) -> None:
        self._rub_results.append(result)

    def dd_observer(self, kind, dd, sub, incumbent) -> None:
        """SolveConfig.dd_observer: settles the RUB tests of one compile."""
        self.counts["rub_rejects"] += sum(
            1 for bound in self._rub_results if bound <= incumbent)
        self._rub_results.clear()

    # -- output ------------------------------------------------------------

    def calls(self, name: str) -> int:
        return self.totals.get(name, (0, 0.0, 0.0))[0]

    def total_s(self, name: str) -> float:
        return self.totals.get(name, (0, 0.0, 0.0))[1]

    def self_s(self, name: str) -> float:
        return self.totals.get(name, (0, 0.0, 0.0))[2]

    def write(self, path: Path, header: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as out:
            out.write(json.dumps({**header, "absent": self.absent}) + "\n")
            for sid, (name, start, end, parent) in enumerate(self.spans):
                out.write(json.dumps({"id": sid, "name": name, "start": start,
                                      "end": end, "parent": parent}) + "\n")
            for name, by_parent in sorted(self.rollups.items()):
                for parent, (calls, total, own) in sorted(by_parent.items()):
                    out.write(json.dumps({"rollup": name, "parent": parent,
                                          "calls": calls, "total_s": total,
                                          "self_s": own}) + "\n")


def _add(table: dict, key, counted: bool, duration: float, own: float):
    acc = table.get(key)
    if acc is None:
        acc = table[key] = [0, 0.0, 0.0]
    acc[0] += counted
    acc[1] += duration
    acc[2] += own


def _compile_name(args, kwargs) -> str:
    kind = kwargs.get("kind", args[3] if len(args) > 3 else None)
    return f"mdd.compile.{getattr(kind, 'value', kind)}"


LINE_MODULES = ("cli", "instances", "mdd", "model", "pruning", "solver")


def source_lines(package: Path) -> Dict[str, tuple]:
    """`lines.<module>` for the core modules, the problems package and all."""
    def count(path: Path) -> int:
        with open(path) as fh:
            return sum(1 for _ in fh)

    metrics = {}
    for module in LINE_MODULES:
        path = package / f"{module}.py"
        metrics[f"lines.{module}"] = (count(path) if path.is_file() else 0,
                                      "lines")
    metrics["lines.problems"] = (
        sum(count(p) for p in (package / "problems").glob("*.py")), "lines")
    metrics["lines.total"] = (sum(count(p) for p in package.rglob("*.py")),
                              "lines")
    return metrics


def layer_metrics(tracer: Tracer, *, untraced_s: float, traced_s: float,
                  dd_nodes: int, solves: int,
                  package: Path) -> Dict[str, tuple]:
    """Per-layer metrics of a traced pass, as {name: (value, unit)}.

    `untraced_s`, `traced_s` and `dd_nodes` are solve wall time and the
    `Outcome.dd_nodes` total over the same `solves` instances.
    """
    def ratio(num, den):
        return num / den if den else 0.0

    counts = tracer.counts
    metrics: Dict[str, tuple] = {}
    for cb in CALLBACKS:
        metrics[f"problems.calls.{cb}"] = (tracer.calls(f"problems.{cb}"),
                                           "count")
        metrics[f"problems.self_s.{cb}"] = (tracer.self_s(f"problems.{cb}"),
                                            "s")
    created = counts["nodes_created"]
    arcs = (counts["problems.successors.items"]
            or counts["feasible_transitions"])
    metrics["problems.arcs_per_node"] = (ratio(arcs, created), "arcs/node")

    compiles = 0
    for kind in ("restricted", "relaxed"):
        name = f"mdd.compile.{kind}"
        compiles += tracer.calls(name)
        metrics[f"mdd.compiles.{kind}"] = (tracer.calls(name), "count")
        metrics[f"mdd.self_s.{kind}"] = (tracer.self_s(name), "s")
    restricted = tracer.calls("mdd.compile.restricted")
    metrics["mdd.nodes_per_compile"] = (ratio(created, compiles),
                                        "nodes/compile")
    metrics["mdd.us_per_node"] = (1e6 * ratio(untraced_s, dd_nodes), "us/node")
    metrics["mdd.squeeze_s.restrict"] = (tracer.total_s("mdd.restrict_layer"),
                                         "s")
    metrics["mdd.squeeze_s.relax"] = (tracer.total_s("mdd.relax_layer"), "s")
    metrics["mdd.max_layer_width"] = (counts["max_layer_width"], "nodes")
    metrics["mdd.restricted_exact_frac"] = (
        ratio(counts["restricted_exact"], restricted), "frac")

    pushes = tracer.calls("solver.Fringe.push")
    pops = tracer.calls("solver.Fringe.pop")
    metrics["pruning.rub_reject_frac"] = (
        ratio(counts["rub_rejects"], tracer.calls("problems.rough_bound")),
        "frac")
    metrics["pruning.locb_calls"] = (
        tracer.calls("pruning.compute_local_bounds"), "count")
    metrics["pruning.locb_s"] = (
        tracer.total_s("pruning.compute_local_bounds"), "s")
    # every solve pushes its root once; other pushes are cutset children
    metrics["pruning.push_prunes"] = (
        counts["cutset_children"] - (pushes - solves), "count")
    metrics["pruning.pop_prunes"] = (pops - restricted, "count")

    metrics["solver.fringe_s"] = (tracer.total_s("solver.Fringe.push")
                                  + tracer.total_s("solver.Fringe.pop"), "s")
    metrics["solver.peak_fringe"] = (counts["peak_fringe"], "count")
    metrics["solver.cutset_s"] = (tracer.total_s("mdd.exact_cutset")
                                  + tracer.total_s("mdd.best_solution"), "s")
    metrics["solver.self_s"] = (tracer.self_s("solver.solve"), "s")
    metrics["instances.parse_s"] = (
        sum(tracer.total_s(f"instances.{p}") for p in PARSERS), "s")
    metrics["trace.overhead_frac"] = (ratio(traced_s, untraced_s) - 1.0,
                                      "frac")
    metrics.update(source_lines(package))
    return metrics
