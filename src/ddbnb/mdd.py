"""Top-down compilation of exact, restricted and relaxed decision diagrams,
and the bottom-up local-bound pass over relaxed ones.

A diagram unrolls the transition system of a subproblem layer by layer.
Every layer of every diagram has the same shape: a dict `state -> value_top`,
the value of the best root-to-node path, and a dict `state -> [(parent
state, decision value, weight), ...]` of its inbound arcs in the order they
were generated (see `DecisionDiagram`).  Layers are deduplicated by state,
so a parent state names one node of the layer above.  The best arc of a
state is the first inbound arc that reaches its value_top, and best paths
are read back along best arcs.

When a layer of a width-bounded diagram grows past the width limit it is
squeezed: a restricted diagram simply drops its lowest-ranked nodes, a
relaxed diagram keeps the best `width - 1` of them and folds the rest into a
single merged node through the problem's merge/relax operators, redirecting
their inbound arcs to it.  Nodes rank by value-from-root (the longest-path
ranking of Bergman et al.), or, with `rank_by_bound`, by `(rough bound,
value-from-root)`.  Ranking ties break on insertion order so compilation is
fully deterministic.

Every path into a layer above the first relaxed squeeze is a path of the
exact diagram, so the last exact layer is the one above that squeeze; its
nodes are the branching frontier handed to the driver.  A relaxed diagram
never squeezes the first layer below its root, so that frontier lies below
the root and every branching fixes at least one variable.

Each node is expanded once per compile, with one `Problem.successors`
call, or one `Problem.live_successors` call under `use_rub` when the model
has that hook.  Given an `expansions` memo (see `successors_memo`), which
the solver keeps for a whole solve when the model sets
`memoize_successors`, the call happens only on a (layer, state)'s first
expansion, and every later node with that layer and state re-reads the
kept arcs.  With `use_rub`, every candidate arc whose child's rough bound
does not strictly beat the incumbent is discarded before insertion.  This
may only remove completions that are no better than the incumbent, so
values derived from the diagram remain valid for pruning and incumbent
improvement.  A deadline is checked before each layer; once it has passed,
`TimeoutError` is raised.

Given the solve's dominance marks (see `dominance_marks` and the solver's
docstring), a node whose value_top does not beat the mark on its (layer,
state) is dropped too, once its layer is deduplicated and before it is
counted or squeezed.  Its completions are the marked node's, at no higher
value, and that node's subproblem is on the fringe or done.  When the
model has a `Problem.dominance_key`, marks are stored and read by key
instead, and of the nodes of a layer with equal keys only the one with the
best value_top, the first on ties, is kept, and only if it beats its key's
mark.  The filter runs on every layer down to a relaxed diagram's first
squeeze, that layer included.  It never runs below a merge, where a node's
state and value stand for many paths.  A model without a key costs no call
per node, and a layer with no marks skips the filter.

The rough bound of a node is its value-from-root plus a completion estimate
that depends only on its (layer, state) (see `Problem.rough_bound`).  The
estimates live in a memo, one `Estimates` dict per layer, that the solver
keeps for a whole solve, so `rough_bound` is evaluated once per (layer,
state) per solve; every RUB test and ranking key reads the memo.

`compute_local_bounds` walks a relaxed diagram's inbound arcs bottom-up from
its terminal layer, stopping once it reaches the last exact layer, and
gives each state of that layer the value of the best path from it to the
terminal.  Stopping there is sound only because the cutset is always that
whole layer; a cutset taken anywhere else would need the walk to go on up
to the root.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from enum import Enum
from typing import Any, Callable, List, Optional, Sequence, Tuple

from .model import NEG_INF, POS_INF, Problem, Relaxation


class DiagramKind(Enum):
    EXACT = "exact"
    RESTRICTED = "restricted"
    RELAXED = "relaxed"


@dataclass(slots=True)
class Node:
    """A node of `DecisionDiagram.layers`, the read-only view."""

    state: Any
    value_top: Any                      # value of the best root-to-node path
    best_arc: Optional[tuple] = None    # (parent Node, decision value, weight)
    inbound: Optional[list] = None      # all (parent, value, weight) arcs


@dataclass(slots=True)
class SubProblem:
    """Fringe entry: a diagram root plus the path that reached it."""

    state: Any
    value_top: Any
    path: Tuple = ()
    ub: Any = POS_INF


class DecisionDiagram:
    """A compiled diagram.

    `_values[rel]` is layer `first_layer + rel` as a dict `state ->
    value_top`, and `_arcs[rel]` maps each of its states to its inbound arcs,
    `[(parent state, decision value, weight), ...]`; the root's is empty.
    `_arcs` may also hold the arcs of states that a squeeze or a dominance
    mark dropped, which nothing reads.  A dead end ends `_values` with an
    empty layer.  `_value_bot` is set by `compute_local_bounds`: the last
    exact layer's `state -> value_bot` for the states that reach the
    terminal.  `value` is the best terminal's value, NEG_INF without one.

    `layers` and `best_terminal` are a `Node` view, built on first read and
    then cached; the solver never reads them.  Its nodes above and at the
    last exact layer (every node, when there is none) show only their best
    arc; those below it show every inbound arc too.
    """

    __slots__ = ("kind", "first_layer", "is_exact", "last_exact_layer",
                 "nodes_created", "max_width", "value", "_values", "_arcs",
                 "_value_bot", "_layers", "_best_terminal")

    def __init__(self, kind: DiagramKind, first_layer: int):
        self.kind = kind
        self.first_layer = first_layer      # number of variables fixed by the root
        self.is_exact = True                # no restriction/relaxation occurred
        # absolute index of the layer above the first relaxed squeeze, else None
        self.last_exact_layer: Optional[int] = None
        self.nodes_created = 0
        self.max_width = 0      # most nodes a compiled layer held unsqueezed
        self.value = NEG_INF
        self._values: List[dict] = []
        self._arcs: List[dict] = []
        self._value_bot: dict = {}
        self._layers: Optional[List[List[Node]]] = None
        self._best_terminal: Optional[Node] = None

    @property
    def layers(self) -> List[List[Node]]:
        if self._layers is None:
            self._build_view()
        return self._layers

    @property
    def best_terminal(self) -> Optional[Node]:
        if self._layers is None:
            self._build_view()
        return self._best_terminal

    def _build_view(self) -> None:
        cut = (len(self._values) if self.last_exact_layer is None
               else self.last_exact_layer - self.first_layer)
        layers, nodes = [], {}
        for rel, (values, arcs) in enumerate(zip(self._values, self._arcs)):
            parents, nodes = nodes, {}
            for state, value_top in values.items():
                into = arcs.get(state, ())
                best = next((arc for arc in into if parents[arc[0]].value_top
                             + arc[2] == value_top), None)
                nodes[state] = Node(
                    state, value_top,
                    best and (parents[best[0]], best[1], best[2]),
                    [(parents[parent], value, weight)
                     for parent, value, weight in into] if rel > cut else None)
            layers.append(list(nodes.values()))
        self._layers = layers
        if self.value != NEG_INF:
            self._best_terminal = nodes[_terminal(self)]


def _split(layer: dict, count: int,
           keys: Optional[Sequence] = None) -> Tuple[list, list]:
    """(the states of the `count` largest keys, the other states), both in
    insertion order; of the states tied at the cut, the earlier are kept.

    `keys` parallels the states of `layer` and defaults to their values.
    """
    if keys is None:
        keys = list(layer.values())
    if count < 1:
        return [], list(layer)
    ranked = sorted(keys, reverse=True)[:count]
    cut = ranked[-1]
    ties = ranked.count(cut)            # kept states keyed exactly `cut`
    kept, rest = [], []
    for state, key in zip(layer, keys):
        if key > cut or key == cut and ties:
            ties -= key == cut
            kept.append(state)
        else:
            rest.append(state)
    return kept, rest


def restrict_layer(layer: dict, width: int,
                   keys: Optional[Sequence] = None) -> dict:
    """Keep the `width` best-ranked states of a `state -> value_top` layer
    (see `_split` for `keys`)."""
    if len(layer) <= width:
        return layer
    return {state: layer[state] for state in _split(layer, width, keys)[0]}


def relax_layer(layer: dict, width: int, relaxation: Relaxation, arcs: dict,
                above: dict, keys: Optional[Sequence] = None) -> dict:
    """Merge all states of a `state -> value_top` layer ranked below the
    best `width - 1` into a single state (see `_split` for `keys`).

    `arcs` is the layer's `state -> inbound arcs` and `above` the layer
    above's `state -> value_top`.  The merged state's arcs are the selected
    states' arcs, relaxed by `relax_arc`, and are stored in `arcs`.  The
    merged state may collide with a kept state; the redirected arcs then
    follow that state's own.  A layer of exactly `width` states selects one,
    which merging copies (merging is the identity on singletons); the
    compiler never passes one.
    """
    if len(layer) < width:
        return layer
    kept, selected = _split(layer, width - 1, keys)
    merged_state = relaxation.merge(selected)
    relax_arc = relaxation.relax_arc
    out = {state: layer[state] for state in kept}

    value_top = out.get(merged_state, NEG_INF)
    redirected = []
    for state in selected:
        for parent, value, weight in arcs[state]:
            relaxed = relax_arc(weight, state, merged_state)
            candidate = above[parent] + relaxed
            if candidate > value_top:
                value_top = candidate
            redirected.append((parent, value, relaxed))
    if merged_state in out:
        arcs[merged_state] += redirected
    else:
        arcs[merged_state] = redirected
    out[merged_state] = value_top
    return out


# Entries a completion-estimate memo may hold, split evenly over its layers.
# A layer's dict that holds its share is emptied before its next evaluation,
# which costs only re-evaluations: the benchmark workloads peak near 1,200
# entries per layer, while a long solve of a 40-vertex MCP instance gathers
# about 34,000 entries (14 MB) per second without the cap.
BOUND_MEMO_ENTRIES = 1 << 17


class Estimates(dict):
    """The memo of layer k: state -> completion estimate, that is
    `rough_bound(state, 0, k)`, evaluated on the state's first lookup."""

    __slots__ = ("rough_bound", "k", "cap")

    def __init__(self, problem: Problem, k: int):
        self.rough_bound = problem.rough_bound
        self.k = k
        self.cap = BOUND_MEMO_ENTRIES // (problem.n + 1)

    def __missing__(self, state):
        if len(self) >= self.cap:
            self.clear()
        rest = self[state] = self.rough_bound(state, 0, self.k)
        return rest


def bound_memo(problem: Problem) -> List[Estimates]:
    """An empty completion-estimate memo: one `Estimates` per layer 0..n."""
    return [Estimates(problem, k) for k in range(problem.n + 1)]


# Entries a successors memo may hold per solve, split evenly over its
# layers like BOUND_MEMO_ENTRIES.  The cap is checked once per layer: a
# compile that reaches a layer whose dict holds its share empties it first,
# which costs only re-expansions.  The benchmark workloads peak near 420
# entries per layer and 2,700 per solve; a 10 s solve of a 40-vertex MCP
# instance holds about 6,900 entries, each keeping two 40-component states
# alive.
SUCCESSOR_MEMO_ENTRIES = 1 << 14


def successors_memo(problem: Problem) -> List[dict]:
    """An empty successors memo: one dict per layer 0..n-1, mapping a state
    to the tuple of its expansion, `successors(state, k)` or, under
    `use_rub`, `live_successors(state, k)`.  A memo therefore serves the
    compiles of one `use_rub` setting, as the solver's per-solve memo
    does."""
    return [{} for _ in range(problem.n)]


# Entries the dominance marks of a solve may hold, split evenly over their
# layers like BOUND_MEMO_ENTRIES.  A layer's dict that holds its share is
# emptied before its next mark, which costs only pruning: a missing mark
# drops no node.  The benchmark workloads peak near 620 entries per layer
# and 13,200 per solve; a 10 s solve of a 40-vertex MCP instance holds
# about 2,200.
MARK_ENTRIES = 1 << 17


def dominance_marks(problem: Problem) -> List[dict]:
    """Empty dominance marks: one dict per layer 0..n, mapping a state, or
    its `Problem.dominance_key` when the model has one, to the value_top of
    a node that marked it."""
    return [{} for _ in range(problem.n + 1)]


def mark(marks: List[dict], k: int, values: dict,
         key: Optional[Callable] = None) -> None:
    """Mark layer k's `state -> value_top` pairs in `values`, by state, or
    by `key(state)` when a key is given.  Every marked node beats its
    state's or key's old mark, so the new values overwrite; the states of
    `values` have distinct keys, as every compiled layer's do."""
    seen = marks[k]
    if len(seen) >= MARK_ENTRIES // len(marks):
        seen.clear()
    if key is None:
        seen.update(values)
    else:
        seen.update((key(state), value) for state, value in values.items())


def mark_diagram(marks: List[dict], dd: DecisionDiagram,
                 key: Optional[Callable] = None) -> None:
    """Mark every layer below the root of an exact diagram (see `mark`)."""
    for k, values in enumerate(dd._values[1:], dd.first_layer + 1):
        mark(marks, k, values, key)


def compile_diagram(problem: Problem, relaxation: Optional[Relaxation],
                    sub: SubProblem, kind: DiagramKind, width: int = 0,
                    incumbent=NEG_INF, use_rub: bool = False,
                    deadline: Optional[float] = None,
                    rank_by_bound: bool = False,
                    bounds: Optional[List[Estimates]] = None,
                    expansions: Optional[List[dict]] = None,
                    marks: Optional[List[dict]] = None) -> DecisionDiagram:
    """Unroll the subproblem rooted at `sub.state` into a decision diagram.

    `width` bounds every layer below the root of a restricted diagram and
    every layer below the first of a relaxed one (exact diagrams never
    bound).  `incumbent` and `use_rub` drive the before-insertion
    completion-bound filter.  Every layer is built by the same per-node
    loop into a `state -> value_top` dict and a `state -> inbound arcs`
    dict (see `DecisionDiagram`), and squeezed by `restrict_layer` or
    `relax_layer`; a relaxed diagram's first squeeze records its last
    exact layer and compilation goes on from the squeezed layer.
    `deadline` is a `time.monotonic()` reading.  `rank_by_bound` ranks the
    nodes of an oversized layer by `(rough bound, value_top)` instead of by
    `value_top`.  `bounds` is the completion-estimate memo (see
    `bound_memo`) shared by the compiles of one solve; each compile gets a
    fresh one by default.  `expansions` is a successors memo (see
    `successors_memo`) shared the same way; by default every node's
    `successors` is called directly.  `marks` are the solve's dominance
    marks (see `dominance_marks`): a node of a layer above the first merge
    whose value_top does not beat its (layer, state)'s mark is dropped
    before the layer is counted or squeezed.  With marks and a
    `problem.dominance_key`, marks are read by key, and such a layer keeps
    only the best node per key, the first on ties.
    """
    if kind is not DiagramKind.EXACT and width < 1:
        raise ValueError("width-bounded compilation needs width >= 1")
    if kind is DiagramKind.RELAXED and relaxation is None:
        raise ValueError("relaxed compilation needs a relaxation")
    relaxed = kind is DiagramKind.RELAXED

    first = len(sub.path)
    dd = DecisionDiagram(kind, first)
    layer = {sub.state: sub.value_top}
    values = dd._values = [layer]
    inbound = dd._arcs = [{}]
    dd.nodes_created = dd.max_width = 1

    successors = problem.successors
    if use_rub and problem.live_successors is not None:
        successors = problem.live_successors
    key = None if marks is None else problem.dominance_key
    if bounds is None:
        bounds = bound_memo(problem)
    memo = None
    cap = SUCCESSOR_MEMO_ENTRIES // (problem.n + 1)

    for k in range(first, problem.n):
        if deadline is not None and time.monotonic() > deadline:
            raise TimeoutError("compilation passed its deadline")
        estimates = bounds[k + 1]
        if expansions is not None:
            memo = expansions[k]
            if len(memo) >= cap:
                memo.clear()
            known = memo.get
        children: dict = {}
        into: dict = {}
        get = children.get
        for state, base in layer.items():
            if memo is None:
                arcs = successors(state, k)
            else:
                arcs = known(state)
                if arcs is None:
                    arcs = memo[state] = tuple(successors(state, k))
            for value, child_state, weight in arcs:
                candidate = base + weight
                if use_rub and not candidate + estimates[child_state] > incumbent:
                    continue
                old = get(child_state)
                if old is None:
                    children[child_state] = candidate
                    into[child_state] = [(state, value, weight)]
                else:
                    if candidate > old:
                        children[child_state] = candidate
                    into[child_state].append((state, value, weight))
        if dd.last_exact_layer is None:     # never filter below a merge
            if key is None:
                seen = marks and marks[k + 1]
                if seen:
                    for state in children.keys() & seen.keys():
                        if children[state] <= seen[state]:
                            del children[state]
            else:
                # the best node per key, the first on ties, if it beats
                # its key's mark
                marked = marks[k + 1].get
                top: dict = {}
                for state, value in children.items():
                    name = key(state)
                    rival = top.get(name)
                    if value > (marked(name, NEG_INF) if rival is None
                                 else children[rival]):
                        top[name] = state
                if len(top) < len(children):
                    for state in children.keys() - top.values():
                        del children[state]
        dd.nodes_created += len(children)
        if len(children) > dd.max_width:
            dd.max_width = len(children)
        # a relaxed diagram keeps its root's children whole, so that its
        # last exact layer lies below its root
        if (kind is not DiagramKind.EXACT and len(children) > width
                and (k > first or not relaxed)):
            keys = ([(v + estimates[state], v) for state, v in children.items()]
                    if rank_by_bound else None)
            if relaxed:
                if dd.last_exact_layer is None:
                    dd.last_exact_layer = k
                children = relax_layer(children, width, relaxation, into,
                                       layer, keys)
                if len(children) == width:
                    # width - 1 kept plus a fresh merged node; a collision
                    # folds into a kept node instead and creates nothing
                    dd.nodes_created += 1
            else:
                children = restrict_layer(children, width, keys)
            dd.is_exact = False
        layer = children
        values.append(layer)
        inbound.append(into)
        if not layer:
            break

    # `layer` is empty after a dead end, else the terminal layer
    if layer:
        dd.value = max(layer.values())
    return dd


def _terminal(dd: DecisionDiagram):
    """The state of the best terminal, the first on ties."""
    return next(state for state, value in dd._values[-1].items()
                if value == dd.value)


def _prefix(dd: DecisionDiagram, state, rel: int) -> list:
    """Decision values along best arcs from the root to `state` in layer
    `rel`; a best arc is the first inbound arc reaching its value_top."""
    values, arcs = dd._values, dd._arcs
    value_top = values[rel][state]
    path = []
    for rel in range(rel, 0, -1):
        above = values[rel - 1]
        for parent, value, weight in arcs[rel][state]:
            base = above[parent]
            if base + weight == value_top:
                break
        path.append(value)
        state, value_top = parent, base
    path.reverse()
    return path


def best_solution(dd: DecisionDiagram):
    """(value, decision values from the diagram root) of the best terminal path."""
    if dd.value == NEG_INF:
        return None
    return dd.value, _prefix(dd, _terminal(dd), len(dd._values) - 1)


def exact_cutset(dd: DecisionDiagram, use_local_bounds: bool = True) -> List[SubProblem]:
    """One subproblem per node of the last exact layer of a relaxed diagram.

    Bounds come from the per-node local bounds when they were computed,
    otherwise every subproblem inherits the diagram value.
    """
    if dd.kind is not DiagramKind.RELAXED or dd.is_exact:
        raise ValueError("exact cutset is only defined for inexact relaxed diagrams")
    rel = dd.last_exact_layer - dd.first_layer
    bots = dd._value_bot
    return [SubProblem(state, value_top, tuple(_prefix(dd, state, rel)),
                       value_top + bots.get(state, NEG_INF)
                       if use_local_bounds else dd.value)
            for state, value_top in dd._values[rel].items()]


def compute_local_bounds(dd: DecisionDiagram) -> int:
    """Give the last-exact-layer states of a relaxed diagram their local
    bounds, which `exact_cutset` reads.

    Walking up from the terminal layer, each layer's `state -> value_bot`
    holds the value of the best path from each state to the terminal,
    for the states that reach one.  A cutset state's local bound is
    `value_top + value_bot`, the value of the best full path through it,
    an upper bound on anything attainable from its state; a dead end's is
    NEG_INF.  The pass touches only nodes and arcs the compilation created
    at or below the last exact layer.  Returns the number of node visits,
    which callers may compare against `dd.nodes_created`.
    """
    if dd.kind is not DiagramKind.RELAXED:
        raise ValueError("local bounds are computed on relaxed diagrams")
    if dd.is_exact or dd.last_exact_layer is None:
        raise ValueError("an exact diagram has no cutset to annotate")

    values, arcs = dd._values, dd._arcs
    cut = dd.last_exact_layer - dd.first_layer
    bots = dict.fromkeys(values[-1], 0)     # empty after a dead end
    visits = len(values[cut])
    for rel in range(len(values) - 1, cut, -1):
        visits += len(bots)
        into, above = arcs[rel], {}
        for state, bot in bots.items():
            for parent, _, weight in into[state]:
                if bot + weight > above.get(parent, NEG_INF):
                    above[parent] = bot + weight
        bots = above
    dd._value_bot = bots
    return visits


def to_dot(dd: DecisionDiagram) -> str:
    """GraphViz rendering: states and path values on nodes, a double border
    on the nodes below the last exact layer, decision/weight labels on
    arcs."""
    ids = {}
    out = ["digraph dd {", "  rankdir=TB;"]
    exact_layers = (len(dd.layers) if dd.last_exact_layer is None
                    else dd.last_exact_layer - dd.first_layer + 1)
    for rel, layer in enumerate(dd.layers):
        shape = ', peripheries=2' if rel >= exact_layers else ''
        for node in layer:
            ids[id(node)] = name = f"n{len(ids)}"
            out.append(f'  {name} [label="{node.state}\\nv={node.value_top}"{shape}];')
    for layer in dd.layers[1:]:
        for node in layer:
            arcs = node.inbound if node.inbound is not None else (
                [node.best_arc] if node.best_arc else [])
            for parent, value, weight in arcs:
                out.append(f'  {ids[id(parent)]} -> {ids[id(node)]}'
                           f' [label="{value}/{weight}"];')
    out.append("}")
    return "\n".join(out) + "\n"
