"""Maximum cut with signed integer edge weights.

Vertices are assigned in index order to one of the two cut sides, S (value 0)
or T (value 1).  The state after k decisions is a length-n vector whose
component l >= k is the net benefit of eventually putting vertex l in T:
the sum of +-w[i][l] over decided i, positive when i went to S.  Components
below k are zero.

The total objective starts from the sum of all negative edge weights and the
per-decision cost collects, at decision time of vertex k:

  * the chosen side of the accumulated net benefit, (-s_k)^+ for S and
    (s_k)^+ for T, and
  * for every undecided l, the benefit guaranteed regardless of where l ends
    up: min(|s_l|, |w_kl|) whenever the update to component l cancels against
    its current sign (s_l * w_kl < 0 when k joins S, > 0 when k joins T).

Replaying any complete assignment through these costs reproduces its exact
cut value; the cancellation condition must follow the chosen side or the
identity breaks (checked against exhaustive enumeration in the tests).

Merging keeps, per component, the common-sign value closest to zero (zero on
sign disagreement); a redirected arc is compensated by the magnitude its head
lost, so no path length can decrease.

A `MaxCut` decides vertices in its graph's own index order.  `load`, which
solves from instance text, first renumbers the graph heaviest vertex first
(descending sum of |w| over its edges, ties in index order): deciding the
heavy vertices early shrinks the diagrams and the search several-fold.  It
records the renumbering as `problem.order`, where order[k] is the instance
index of the k-th decided vertex, so an assignment maps back to the
instance as `values[order[k]] = assignment[k]`.
"""

from __future__ import annotations

from operator import add, sub
from typing import Sequence, Tuple

from ..instances import Graph, parse_graph, relabel_graph
from ..model import Problem, Relaxation

S, T = 0, 1


class MaxCut(Problem):
    # the completion bound adds the pending benefit |s_l| of every undecided
    # vertex to the prefix value, so it sees what a layer's states still
    # promise; ranked by it, squeezes keep far fewer doomed nodes
    rank_by_bound = True
    # an expansion builds two n-component states; the relaxed compile and
    # the cutset children re-reach most of them, so keep them per solve
    memoize_successors = True

    def __init__(self, graph: Graph):
        n = self.n = graph.n
        self.w = tuple(tuple(row) for row in graph.weight_matrix())
        self.initial_state = (0,) * n
        # one pass over the edges (u < v): |w| to later vertices per
        # decision, positive weight to later vertices, negative weight from
        # earlier ones
        after = [0] * n
        pos_from = [0] * (n + 1)
        neg_into = [0] * n
        for (u, v), wt in graph.edges.items():
            if wt > 0:
                after[u] += wt
                pos_from[u] += wt
            else:
                after[u] -= wt
                neg_into[v] += wt
        self.initial_value = sum(neg_into)
        self.abs_w_after = tuple(after)
        # Layer table for the completion bound: rem[k] over-estimates the
        # cut among undecided vertices, neg[k] re-adds the negative edges
        # already interconnecting decided ones.
        rem = pos_from
        for i in range(n - 1, -1, -1):
            rem[i] += rem[i + 1]
        neg = [0] * (n + 1)
        for k in range(n):
            neg[k + 1] = neg[k] + neg_into[k]
        self.rest = tuple(r + s - self.initial_value for r, s in zip(rem, neg))

    def domain(self, state, k: int):
        return (S, T)

    def transition(self, state: Tuple[int, ...], k: int, value: int):
        w_k = self.w[k]
        nxt = list(state)
        nxt[k] = 0
        if value == S:
            for l in range(k + 1, self.n):
                nxt[l] = state[l] + w_k[l]
        else:
            for l in range(k + 1, self.n):
                nxt[l] = state[l] - w_k[l]
        return tuple(nxt)

    def transition_cost(self, state: Tuple[int, ...], k: int, value: int) -> int:
        s_k = state[k]
        cost = max(0, -s_k) if value == S else max(0, s_k)
        w_k = self.w[k]
        for l in range(k + 1, self.n):
            cross = state[l] * w_k[l]
            if value == S:
                if cross < 0:
                    cost += min(abs(state[l]), abs(w_k[l]))
            elif cross > 0:
                cost += min(abs(state[l]), abs(w_k[l]))
        return cost

    def successors(self, state: Tuple[int, ...], k: int):
        # For each undecided l, |s_l| + |w_kl| - |s_l +- w_kl| is twice the
        # min(|s_l|, |w_kl|) that transition_cost collects when the update
        # cancels against s_l, and 0 otherwise.
        tail = state[k + 1:]
        w_tail = self.w[k][k + 1:]
        both = sum(map(abs, tail)) + self.abs_w_after[k]
        to_s = list(state)
        to_s[k] = 0
        to_t = to_s[:]
        to_s[k + 1:] = map(add, tail, w_tail)
        to_t[k + 1:] = map(sub, tail, w_tail)
        s_k = state[k]
        return ((S, tuple(to_s),
                 max(0, -s_k) + (both - sum(map(abs, to_s[k + 1:]))) // 2),
                (T, tuple(to_t),
                 max(0, s_k) + (both - sum(map(abs, to_t[k + 1:]))) // 2))

    def rough_bound(self, state: Tuple[int, ...], value_top, k: int):
        return value_top + sum(map(abs, state[k:])) + self.rest[k]


class BenefitVectorRelaxation(Relaxation):
    """Componentwise merge for net-benefit vector states (shared with MAX2SAT)."""

    def merge(self, states: Sequence[Tuple[int, ...]]) -> Tuple[int, ...]:
        merged = []
        for comps in zip(*states):
            lo, hi = min(comps), max(comps)
            if lo >= 0:
                merged.append(lo)
            elif hi <= 0:
                merged.append(hi)
            else:
                merged.append(0)
        return tuple(merged)

    def relax_arc(self, weight, head_state, merged_state):
        # the magnitude the head lost to the merge, summed over components
        return weight + sum(map(abs, head_state)) - sum(map(abs, merged_state))


McpRelaxation = BenefitVectorRelaxation


def heaviest_first(graph: Graph) -> Tuple[int, ...]:
    """Vertices by descending sum of |w| over their edges; ties keep index
    order."""
    weight = [0] * graph.n
    for (u, v), wt in graph.edges.items():
        weight[u] += abs(wt)
        weight[v] += abs(wt)
    # a stable sort, reversed stably: equal weights stay in index order
    return tuple(sorted(range(graph.n), key=weight.__getitem__, reverse=True))


def load(text: str):
    graph = parse_graph(text)
    order = heaviest_first(graph)
    problem = MaxCut(relabel_graph(graph, order))
    problem.order = order
    return problem, McpRelaxation()
