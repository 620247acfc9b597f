"""Bound-based pruning: per-cutset local bounds.

`compute_local_bounds` walks a relaxed diagram bottom-up from its terminal
layer, stopping once it crosses the last exact layer.  Along the way it
accumulates, per node, the value of its best node-to-terminal path; it stays
NEG_INF on the nodes that cannot reach a terminal.  A cutset node's local
bound is then its best root-to-node value plus that suffix value: the value
of the best full path threading through it, an upper bound on anything
attainable from its state.  Dead-end cutset nodes get the NEG_INF bound.

Everything lives inside the already-allocated nodes (two numbers each) and
the traversal touches only arcs the compilation created, so the pass costs
nothing beyond the compilation itself.  Note that a cutset taken
anywhere other than a full exact layer would need the traversal to continue
all the way up to the root; stopping at the last exact layer is only sound
because the cutset here always is that whole layer.

The other filter, rough-bound filtering, runs inside `compile_diagram`: a
candidate node survives only when its rough bound, value-from-root plus the
completion estimate of its (layer, state), strictly beats the incumbent.
`Problem.rough_bound` supplies that estimate and is evaluated once per
(layer, state) per solve; later tests read it from the solve's memo.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .model import NEG_INF

if TYPE_CHECKING:  # pragma: no cover
    from .mdd import DecisionDiagram


def compute_local_bounds(dd: "DecisionDiagram") -> int:
    """Annotate the last-exact-layer nodes of `dd` with their local bounds.

    Returns the number of node visits, which callers may compare against
    `dd.nodes_created` to confirm the pass stays within the compilation's
    own footprint.
    """
    from .mdd import DiagramKind

    if dd.kind is not DiagramKind.RELAXED:
        raise ValueError("local bounds are computed on relaxed diagrams")
    if dd.is_exact or dd.last_exact_layer is None:
        raise ValueError("an exact diagram has no cutset to annotate")

    visits = 0
    if dd.best_terminal is not None:
        for node in dd.layers[-1]:
            node.value_bot = 0
        cutoff = dd.last_exact_layer - dd.first_layer
        for rel in range(len(dd.layers) - 1, cutoff, -1):
            for node in dd.layers[rel]:
                visits += 1
                bot = node.value_bot
                if bot == NEG_INF:
                    continue
                for parent, _, weight in (node.inbound or ()):
                    candidate = bot + weight
                    if candidate > parent.value_bot:
                        parent.value_bot = candidate

    rel = dd.last_exact_layer - dd.first_layer
    for node in dd.layers[rel]:
        visits += 1
        # a dead end's NEG_INF suffix makes its bound NEG_INF as well
        node.local_bound = node.value_top + node.value_bot
    return visits
