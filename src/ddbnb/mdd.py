"""Top-down compilation of exact, restricted and relaxed decision diagrams,
and the bottom-up local-bound pass over relaxed ones.

A diagram unrolls the transition system of a subproblem layer by layer.
Nodes within a layer are deduplicated by state, keeping the best
value-from-root and its incoming arc.  When a layer of a width-bounded
diagram grows past the width limit it is squeezed: a restricted diagram
simply drops its lowest-ranked nodes, a relaxed diagram keeps the best
`width - 1` of them and folds the rest into a single merged node through the
problem's merge/relax operators.  Nodes rank by value-from-root (the
longest-path ranking of Bergman et al.), or, with `rank_by_bound`, by
`(rough bound, value-from-root)`.  Ranking ties break on insertion order so
compilation is fully deterministic.

Every diagram starts as state-keyed layers (see `DecisionDiagram`), which
keep only each state's value and best incoming arc: a new node costs a dict
lookup and two stores.  Restricted and exact diagrams, and relaxed ones
that never squeeze, stay that way, and their best paths are read from the
arcs.  Merging and `compute_local_bounds` need every inbound arc, so at a
relaxed diagram's first squeeze the layer above it, its last exact layer,
is rebuilt as `Node`s and expanded again into `Node`s that keep their
inbound arcs; the rest of the diagram is built from `Node`s.  The second
expansion repeats that layer's `successors` calls unless an `expansions`
memo serves them.

Every path into a layer above the first relaxed squeeze is a path of the
exact diagram, so the last exact layer is the one above that squeeze; its
nodes are the branching frontier handed to the driver.  A relaxed diagram
never squeezes the first layer below its root, so that frontier lies below
the root and every branching fixes at least one variable.

Each node is expanded with one `Problem.successors` call.  Given an
`expansions` memo (see `successors_memo`), which the solver keeps for a
whole solve when the model sets `memoize_successors`, the call happens only
on a (layer, state)'s first expansion, and every later node with that layer
and state re-reads the kept arcs.  With `use_rub`, every candidate arc whose
child's rough bound does not strictly beat the incumbent is discarded before
insertion.  This may only remove completions that are no better than the
incumbent, so values derived from the diagram remain valid for pruning and
incumbent improvement.  A deadline is
checked before each layer; once it has passed, `TimeoutError` is raised.

Given the solve's dominance marks (see `dominance_marks` and the solver's
docstring), a node whose value_top does not beat the mark on its (layer,
state) is dropped too, once its layer is deduplicated and before it is
counted or squeezed.  Its completions are the marked node's, at no higher
value, and that node's subproblem is on the fringe or done.  When the
model has a `Problem.dominance_key`, marks are stored and read by key
instead, and of the nodes of a layer with equal keys only the one with the
best value_top, the first on ties, is kept, and only if it beats its key's
mark.  The filter runs on every state-keyed layer and, at a relaxed
diagram's first squeeze, on the layer being squeezed: the `Node` expansion
then builds only the children the state-keyed pass kept.  It never runs
below a merge, where a node's state and value stand for many paths.  A
model without a key costs no call per node, and a layer with no marks
skips the filter.

The rough bound of a node is its value-from-root plus a completion estimate
that depends only on its (layer, state) (see `Problem.rough_bound`).  The
estimates live in a memo, one `Estimates` dict per layer, that the solver
keeps for a whole solve, so `rough_bound` is evaluated once per (layer,
state) per solve; every RUB test and ranking key reads the memo.

`compute_local_bounds` walks a relaxed diagram bottom-up from its terminal
layer, stopping once it crosses the last exact layer, and gives each node of
that layer the value of the best full path through it.  Stopping there is
sound only because the cutset is always that whole layer; a cutset taken
anywhere else would need the walk to go on up to the root.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from enum import Enum
from operator import attrgetter, itemgetter
from typing import Any, Callable, List, Optional, Sequence, Tuple

from .model import NEG_INF, POS_INF, Problem, Relaxation


class DiagramKind(Enum):
    EXACT = "exact"
    RESTRICTED = "restricted"
    RELAXED = "relaxed"


@dataclass(slots=True)
class Node:
    state: Any
    value_top: Any                      # value of the best root-to-node path
    best_arc: Optional[tuple] = None    # (parent Node, decision value, weight)
    inbound: Optional[list] = None      # all (parent, value, weight) arcs
    value_bot: Any = NEG_INF            # best node-to-terminal path or NEG_INF
    local_bound: Any = NEG_INF


@dataclass(slots=True)
class SubProblem:
    """Fringe entry: a diagram root plus the path that reached it."""

    state: Any
    value_top: Any
    path: Tuple = ()
    ub: Any = POS_INF


class DecisionDiagram:
    """A compiled diagram, or one built by hand from `Node` layers.

    A compiled diagram holds state-keyed layers (see the module docstring)
    down to its last exact layer, or to its terminal layer when it has
    none: `_values`, a dict `state -> value_top` per layer; `_arcs`, a dict
    `state -> (parent state, decision value, weight)` per layer, empty for
    the root's; `_terminal`, the best terminal's `(state, value)` when the
    terminal layer is state-keyed.  An inexact relaxed diagram also holds
    `_nodes`, its `Node` layers from the last exact layer, whose nodes have
    no arcs, down to the terminal layer, whose best node is
    `_best_terminal`; merging and `compute_local_bounds` need their inbound
    arcs.  `layers` and `best_terminal` are a `Node` view joining both
    parts, built on first read and then cached; the solver never reads
    them.  `value` is the best terminal's value, NEG_INF without one.
    """

    __slots__ = ("kind", "first_layer", "is_exact", "last_exact_layer",
                 "nodes_created", "max_width", "value", "_layers",
                 "_best_terminal", "_values", "_arcs", "_terminal", "_nodes")

    def __init__(self, kind: DiagramKind, first_layer: int,
                 layers: Optional[List[List[Node]]] = None,
                 is_exact: bool = True,
                 last_exact_layer: Optional[int] = None,
                 best_terminal: Optional[Node] = None,
                 nodes_created: int = 0):
        self.kind = kind
        self.first_layer = first_layer      # number of variables fixed by the root
        self.is_exact = is_exact            # no restriction/relaxation occurred
        # absolute index of the layer above the first relaxed squeeze, else None
        self.last_exact_layer = last_exact_layer
        self.nodes_created = nodes_created
        self.max_width = 0      # most nodes a compiled layer held unsqueezed
        self.value = (NEG_INF if best_terminal is None
                      else best_terminal.value_top)
        self._layers = [] if layers is None else layers
        self._best_terminal = best_terminal
        self._values: Optional[List[dict]] = None
        self._arcs: Optional[List[dict]] = None
        self._terminal: Optional[tuple] = None
        self._nodes = (None if layers is None or last_exact_layer is None
                       else layers[last_exact_layer - first_layer:])

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
        layers, parents, nodes = [], {}, {}
        for values, arcs in zip(self._values, self._arcs):
            parents, nodes = nodes, {}
            for state, value_top in values.items():
                arc = arcs.get(state)
                nodes[state] = Node(state, value_top, arc and (
                    parents[arc[0]], arc[1], arc[2]))
            layers.append(list(nodes.values()))
        if self._nodes is not None:
            # the last exact layer was compiled in both forms: the view
            # shows its Nodes, given best arcs into the layer above
            arcs = self._arcs[-1]
            for node in self._nodes[0]:
                parent, value, weight = arcs[node.state]
                node.best_arc = (parents[parent], value, weight)
            layers[-1:] = self._nodes
        self._layers = layers
        if self._terminal is not None:
            self._best_terminal = nodes[self._terminal[0]]


def _split(nodes: Sequence[Node], count: int,
           keys: Optional[Sequence] = None) -> Tuple[List[Node], List[Node]]:
    """(the `count` nodes with the largest keys, the others), both in
    insertion order; of the nodes tied at the cut, the earlier are kept.

    `keys` parallels `nodes` and defaults to their values-from-root; given
    keys, the items may be anything, such as the `(state, value_top)` pairs
    of a state-keyed layer.
    """
    if count < 1:
        return [], list(nodes)
    if keys is None:
        keys = [node.value_top for node in nodes]
    ranked = sorted(keys, reverse=True)[:count]
    cut = ranked[-1]
    ties = ranked.count(cut)            # kept nodes keyed exactly `cut`
    kept, rest = [], []
    for node, key in zip(nodes, keys):
        if key > cut or key == cut and ties:
            ties -= key == cut
            kept.append(node)
        else:
            rest.append(node)
    return kept, rest


def restrict_layer(nodes: List[Node], width: int,
                   keys: Optional[Sequence] = None) -> List[Node]:
    """Keep the `width` best-ranked nodes (see `_split` for `keys`)."""
    return _split(nodes, width, keys)[0] if len(nodes) > width else nodes


def relax_layer(nodes: List[Node], width: int, relaxation: Relaxation,
                keys: Optional[Sequence] = None) -> List[Node]:
    """Merge all nodes ranked below the best `width - 1` into a single node
    (see `_split` for `keys`).

    The merged state may collide with a kept node's state; the redirected
    arcs then fold into that node.  A layer of exactly `width` nodes selects
    one node, which merging copies into a fresh node (merging is the
    identity on singletons); the compiler never passes one.
    """
    if len(nodes) < width:
        return nodes
    kept, selected = _split(nodes, width - 1, keys)
    merged_state = relaxation.merge([node.state for node in selected])

    target = next((node for node in kept if node.state == merged_state), None)
    fresh = target is None
    if fresh:
        target = Node(merged_state, NEG_INF, None, [])

    for node in selected:
        for parent, value, weight in (node.inbound or ()):
            relaxed = relaxation.relax_arc(weight, node.state, merged_state)
            candidate = parent.value_top + relaxed
            if candidate > target.value_top:
                target.value_top = candidate
                target.best_arc = (parent, value, relaxed)
            target.inbound.append((parent, value, relaxed))
    return kept + [target] if fresh else kept


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
    to `tuple(problem.successors(state, k))`."""
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
    completion-bound filter.  Layers are state-keyed until a relaxed
    diagram's first squeeze, which rebuilds the layer above it as `Node`s
    and expands it again keeping every inbound arc (see `DecisionDiagram`);
    only the per-node loop differs.  `deadline` is a `time.monotonic()`
    reading.  `rank_by_bound` ranks the nodes of an oversized layer by
    `(rough bound, value_top)` instead of by `value_top`.  `bounds` is the
    completion-estimate memo (see `bound_memo`) shared by the compiles of
    one solve; each compile gets a fresh one by default.  `expansions` is
    a successors memo (see `successors_memo`) shared the same way; by
    default every node's `successors` is called directly.  `marks` are the
    solve's dominance marks (see `dominance_marks`): a node of a layer above
    the first merge whose value_top does not beat its (layer, state)'s mark
    is dropped before the layer is counted or squeezed.  With marks and a
    `problem.dominance_key`, marks are read by key, and such a layer keeps
    only the best node per key, the first on ties.
    """
    if kind is not DiagramKind.EXACT and width < 1:
        raise ValueError("width-bounded compilation needs width >= 1")
    if kind is DiagramKind.RELAXED and relaxation is None:
        raise ValueError("relaxed compilation needs a relaxation")
    relaxed = kind is DiagramKind.RELAXED

    first = len(sub.path)
    dd = DecisionDiagram(kind=kind, first_layer=first)
    layer = {sub.state: sub.value_top}
    values = dd._values = [layer]
    best_arcs = dd._arcs = [{}]
    dd._layers = None
    nodes = None                        # a relaxed diagram's Node layers
    dd.nodes_created = dd.max_width = 1

    successors = problem.successors
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
        if nodes is None:
            children: dict = {}
            best: dict = {}
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
                    if old is None or candidate > old:
                        children[child_state] = candidate
                        best[child_state] = (state, value, weight)
            survivors = None
            if key is None:
                seen = marks and marks[k + 1]
                if seen:
                    for state in children.keys() & seen.keys():
                        if children[state] <= seen[state]:
                            del children[state]
                            del best[state]
                            survivors = children
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
                        del best[state]
                    survivors = children
            if len(children) > dd.max_width:
                dd.max_width = len(children)
            # a relaxed diagram keeps its root's children whole, so that
            # its last exact layer lies below its root
            squeeze = (kind is not DiagramKind.EXACT and len(children) > width
                       and (k > first or not relaxed))
            if not (squeeze and relaxed):
                dd.nodes_created += len(children)
                if squeeze:
                    items = list(children.items())
                    keys = ([(v + estimates[state], v) for state, v in items]
                            if rank_by_bound else list(children.values()))
                    children = dict(restrict_layer(items, width, keys))
                    dd.is_exact = False
                layer = children
                values.append(layer)
                best_arcs.append(best)
                if not layer:
                    break
                continue
            # the first relaxed squeeze: `layer` is the last exact layer;
            # rebuild it as Nodes and expand it again, keeping every arc
            # into a child state that `survivors`, when set, still holds
            dd.last_exact_layer = k
            layer = [Node(state, base) for state, base in layer.items()]
            nodes = dd._nodes = [layer]

        by_state: dict = {}
        get = by_state.get
        for node in layer:
            base = node.value_top
            if memo is None:
                arcs = successors(node.state, k)
            else:
                arcs = known(node.state)
                if arcs is None:
                    arcs = memo[node.state] = tuple(successors(node.state, k))
            if survivors is not None:
                arcs = [arc for arc in arcs if arc[1] in survivors]
            for value, child_state, weight in arcs:
                candidate = base + weight
                if use_rub and not candidate + estimates[child_state] > incumbent:
                    continue
                arc = (node, value, weight)
                child = get(child_state)
                if child is None:
                    child = by_state[child_state] = Node(
                        child_state, candidate, arc, [])
                elif candidate > child.value_top:
                    child.value_top = candidate
                    child.best_arc = arc
                child.inbound.append(arc)
        layer = list(by_state.values())
        survivors = None                # never filter below a merge
        dd.nodes_created += len(layer)
        if len(layer) > dd.max_width:
            dd.max_width = len(layer)
        if len(layer) > width:
            keys = ([(nd.value_top + estimates[nd.state], nd.value_top)
                     for nd in layer] if rank_by_bound else None)
            layer = relax_layer(layer, width, relaxation, keys)
            if len(layer) == width:
                # width - 1 kept plus a fresh merge node; a collision
                # folds into a kept node instead and creates nothing
                dd.nodes_created += 1
            dd.is_exact = False
        nodes.append(layer)
        if not layer:
            break

    # `layer` is empty after a dead end, else the terminal layer
    if layer:
        if nodes is None:
            dd._terminal = max(layer.items(), key=itemgetter(1))
            dd.value = dd._terminal[1]
        else:
            dd._best_terminal = max(layer, key=attrgetter("value_top"))
            dd.value = dd._best_terminal.value_top
    return dd


def best_solution(dd: DecisionDiagram):
    """(value, decision values from the diagram root) of the best terminal path."""
    if dd.value == NEG_INF:
        return None
    if dd._terminal is not None:
        return dd.value, _prefix(dd._arcs, dd._terminal[0], len(dd._arcs) - 1)
    return dd.value, _path_to(dd.best_terminal)


def _prefix(arcs: List[dict], state, rel: int) -> list:
    """Decision values along the best arcs of state-keyed layers, from the
    root to `state` in layer `rel`."""
    values = []
    for rel in range(rel, 0, -1):
        state, value, _ = arcs[rel][state]
        values.append(value)
    values.reverse()
    return values


def _path_to(node: Node) -> list:
    values = []
    while node.best_arc is not None:
        parent, value, _ = node.best_arc
        values.append(value)
        node = parent
    values.reverse()
    return values


def exact_cutset(dd: DecisionDiagram, use_local_bounds: bool = True) -> List[SubProblem]:
    """One subproblem per node of the last exact layer of a relaxed diagram.

    Bounds come from the per-node local bounds when they were computed,
    otherwise every subproblem inherits the diagram value.
    """
    if dd.kind is not DiagramKind.RELAXED or dd.is_exact:
        raise ValueError("exact cutset is only defined for inexact relaxed diagrams")
    rel = dd.last_exact_layer - dd.first_layer
    arcs = dd._arcs
    return [SubProblem(node.state, node.value_top,
                       tuple(_path_to(node) if arcs is None
                             else _prefix(arcs, node.state, rel)),
                       node.local_bound if use_local_bounds else dd.value)
            for node in dd._nodes[0]]


def compute_local_bounds(dd: DecisionDiagram) -> int:
    """Annotate the last-exact-layer nodes of a relaxed diagram with their
    local bounds.

    Walking up from the terminal layer, each node accumulates `value_bot`,
    the value of its best node-to-terminal path (NEG_INF when it reaches no
    terminal).  A cutset node's local bound is `value_top + value_bot`, the
    value of the best full path through it, an upper bound on anything
    attainable from its state; a dead end's is NEG_INF.  The pass touches
    only nodes and arcs the compilation created, all of them `Node`s at or
    below the last exact layer.  Returns the number of node visits, which
    callers may compare against `dd.nodes_created`.
    """
    if dd.kind is not DiagramKind.RELAXED:
        raise ValueError("local bounds are computed on relaxed diagrams")
    if dd.is_exact or dd.last_exact_layer is None:
        raise ValueError("an exact diagram has no cutset to annotate")

    visits = 0
    nodes = dd._nodes
    if dd._best_terminal is not None:
        for node in nodes[-1]:
            node.value_bot = 0
        for layer in reversed(nodes[1:]):
            for node in layer:
                visits += 1
                bot = node.value_bot
                if bot == NEG_INF:
                    continue
                for parent, _, weight in (node.inbound or ()):
                    candidate = bot + weight
                    if candidate > parent.value_bot:
                        parent.value_bot = candidate

    for node in nodes[0]:
        visits += 1
        node.local_bound = node.value_top + node.value_bot
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
