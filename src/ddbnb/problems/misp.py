"""Weighted maximum independent set.

State: bitmask of the vertices that may still join the independent set given
the decisions taken so far.  Taking vertex k removes k and its neighbors from
the mask; skipping it removes k only.  Merging states is the bitwise union
(an over-approximation of what remains selectable), and redirected arcs keep
their weight.  The cheap completion bound adds the positive part of every
still-selectable vertex weight, which is sound because the mask is a superset
of any optimal completion.
"""

from __future__ import annotations

from typing import Sequence

from ..instances import Graph
from ..model import Problem, Relaxation, iter_bits


class MaxIndependentSet(Problem):
    def __init__(self, graph: Graph):
        self.n = graph.n
        self.weights = tuple(graph.vertex_weights)
        self.neighbors = tuple(graph.neighbor_masks())
        self.positive = tuple(max(0, w) for w in self.weights)
        self.initial_state = (1 << self.n) - 1
        self.initial_value = 0

    def domain(self, state: int, k: int):
        return (0, 1) if (state >> k) & 1 else (0,)

    def transition(self, state: int, k: int, value: int):
        if value == 0:
            return state & ~(1 << k)
        if not (state >> k) & 1:
            return None
        return state & ~(1 << k) & ~self.neighbors[k]

    def transition_cost(self, state: int, k: int, value: int) -> int:
        return self.weights[k] if value else 0

    def successors(self, state: int, k: int):
        bit = 1 << k
        skip = state & ~bit
        if state & bit:
            return ((0, skip, 0),
                    (1, skip & ~self.neighbors[k], self.weights[k]))
        return ((0, skip, 0),)

    def rough_bound(self, state: int, value_top, k: int):
        positive = self.positive
        return value_top + sum(positive[i] for i in iter_bits(state))


class MispRelaxation(Relaxation):
    def merge(self, states: Sequence[int]) -> int:
        merged = 0
        for s in states:
            merged |= s
        return merged


def load(text: str):
    from ..instances import parse_graph

    graph = parse_graph(text)
    return MaxIndependentSet(graph), MispRelaxation()
