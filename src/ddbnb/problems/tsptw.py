"""Traveling salesman with time windows, minimizing tour makespan.

The tour starts at the depot (city 0) at time 0, visits every other city
once, and returns to the depot; the objective is the arrival time back at the
depot.  Arriving at a city before its window opens means waiting until it
does; arriving after it closes is infeasible.  The core maximizes, so this
plugin negates every cost and bound and the CLI negates reported values back.

Variables 0..n-2 pick the city visited at each tour position; variable n-1 is
the return leg with the single value 0.  A state carries

  position  -- bitmask of cities the salesman may currently be at
  earliest  -- smallest possible arrival time at any of them
  latest    -- largest possible arrival time
  must      -- cities unvisited on every path into the state
  may       -- cities unvisited on some but not all paths

On exact (never-merged) states position is a singleton, earliest equals
latest and may is empty, which collapses to the classical makespan DP.
Merging unions position and may, intersects must and keeps the widest time
interval.  An arc's weight, minus travel and wait, is the parent's earliest
arrival minus the child's, so every path's value telescopes to -earliest of
its last state.  A redirected arc is re-based the same way: its weight grows
by its old head's earliest minus the merge's, so the paths through the merge
also telescope to -earliest of their last state.  With the old weight, a
path through a later-arriving node would lose the gap between that node's
earliest and the merge's, since the arcs below the merge start from the
merge's earliest; local bounds, which sum those arcs, could then fall below
the optimum and prune it.

Two exact states of one layer at the same city with the same unvisited
cities share the dominance key (position, must) (see
`Problem.dominance_key`); any other state is its own key.  Waiting is
allowed, so the state that arrives earlier can follow every completion of
the other and arrive no later at each city and back at the depot.  An exact
state's value_top is -earliest, so the higher value_top is the earlier
arrival, and the solver keeps only that node of the two.

The completion bound underestimates the remaining work with per-city cheapest
inbound edges.  It prunes (returns the NEG_INF sentinel) when too few
window-reachable cities remain to fill the tour, when a mandatory city can no
longer be reached inside its window, or when even the underestimated return
would miss the depot's closing time.  All of its estimates stay below every
true completion without assuming the triangle inequality.

Under rough-bound filtering the compiler expands through `live_successors`
(see `Problem.live_successors`), which skips the children that fail the
bound's mandatory-city test before building them.  A city's last start is
its closing time minus its cheapest inbound edge.  A child that visits city
c still must visit `must` minus c, so it is dead when its start exceeds the
smallest last start over that set.  One pass over the parent's `must`
finds the smallest and second-smallest last starts: the child that visits
the argmin city compares with the second, every other child with the
first.  `successors` keeps every child, so the filters' ablations still
compare RUB against expanding them all.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from ..instances import TsptwInstance
from ..model import NEG_INF, POS_INF, Problem, Relaxation, iter_bits


class TsptwState(NamedTuple):
    position: int
    earliest: int
    latest: int
    must: int
    may: int


class Tsptw(Problem):
    negated = True
    # an expansion computes the arrival window of every open city; the
    # relaxed compile and the cutset children re-reach most states, so keep
    # them per solve
    memoize_successors = True

    def __init__(self, inst: TsptwInstance):
        self.n = inst.n
        self.dist = inst.dist
        self.windows = inst.windows
        self.shortest_edge = inst.shortest_edge
        self.initial_state = TsptwState(1, 0, 0, ((1 << inst.n) - 1) & ~1, 0)
        self.initial_value = 0
        self.opens = tuple(open_t for open_t, _ in inst.windows)
        self.closes = tuple(close_t for _, close_t in inst.windows)
        # latest time from which city p can still be entered inside its window
        self.last_start = tuple(close_t - edge for close_t, edge
                                in zip(self.closes, inst.shortest_edge))
        self.to_depot = tuple(row[0] for row in inst.dist)

    def dominance_key(self, state: TsptwState):
        position, earliest, latest, must, may = state
        if may or earliest != latest or position & (position - 1):
            return state
        return position, must

    def domain(self, state: TsptwState, k: int):
        if k == self.n - 1:
            return (0,)
        return tuple(iter_bits(state.must | state.may))

    def _arrival(self, state: TsptwState, city: int):
        col = self.dist
        lo = min(col[p][city] for p in iter_bits(state.position))
        hi = max(col[p][city] for p in iter_bits(state.position))
        return state.earliest + lo, state.latest + hi, lo

    def transition(self, state: TsptwState, k: int, city: int):
        if k == self.n - 1:
            if city != 0:
                return None
            lo, hi, _ = self._arrival(state, 0)
            if lo > self.windows[0][1]:
                return None
            return TsptwState(1, lo, max(lo, min(self.windows[0][1], hi)), 0, 0)
        bit = 1 << city
        if not (state.must | state.may) & bit:
            return None
        lo, hi, _ = self._arrival(state, city)
        open_t, close_t = self.windows[city]
        if lo > close_t:
            return None
        earliest = max(open_t, lo)
        latest = max(earliest, min(close_t, hi))
        return TsptwState(bit, earliest, latest,
                          state.must & ~bit, state.may & ~bit)

    def transition_cost(self, state: TsptwState, k: int, city: int) -> int:
        lo, _, travel = self._arrival(state, city)
        if k == self.n - 1:
            return -travel
        wait = max(0, self.windows[city][0] - lo)
        return -(travel + wait)

    def successors(self, state: TsptwState, k: int):
        return self._expand(state, k, False)

    def live_successors(self, state: TsptwState, k: int):
        return self._expand(state, k, True)

    def _expand(self, state: TsptwState, k: int, live: bool):
        """`successors`, minus the dead children when `live` is set: those
        that start after the last start of a city they still must visit."""
        position, earliest, latest, must, may = state
        dist = self.dist
        if position & (position - 1):
            rows = [dist[p] for p in iter_bits(position)]
        else:
            rows = None
            row = dist[position.bit_length() - 1]
        if k == self.n - 1:
            if rows is None:
                lo_d = hi_d = row[0]
            else:
                lo_d = min(r[0] for r in rows)
                hi_d = max(r[0] for r in rows)
            lo = earliest + lo_d
            close_t = self.closes[0]
            if lo > close_t:
                return ()
            return ((0, TsptwState(1, lo, max(lo, min(close_t, latest + hi_d)),
                                   0, 0), -lo_d),)
        opens, closes = self.opens, self.closes
        # the smallest and second-smallest last starts over must, and the
        # argmin city's bit (see the module docstring)
        first = second = POS_INF
        argmin = 0
        if live:
            last_start = self.last_start
            mask = must
            while mask:
                bit = mask & -mask
                mask ^= bit
                t = last_start[bit.bit_length() - 1]
                if t < second:
                    if t < first:
                        first, second, argmin = t, first, bit
                    else:
                        second = t
        # tuple.__new__ skips the NamedTuple's Python-level __new__
        new = tuple.__new__
        out = []
        pool = must | may
        while pool:
            bit = pool & -pool
            pool ^= bit
            city = bit.bit_length() - 1
            if rows is None:
                lo_d = hi_d = row[city]
            else:
                lo_d = min(r[city] for r in rows)
                hi_d = max(r[city] for r in rows)
            lo = earliest + lo_d
            close_t = closes[city]
            if lo > close_t:
                continue
            open_t = opens[city]
            start = open_t if open_t > lo else lo
            if start > (second if bit == argmin else first):
                continue
            hi = latest + hi_d
            end = hi if hi < close_t else close_t
            if end < start:
                end = start
            # minus travel and wait, which add up to start - earliest
            out.append((city, new(TsptwState, (bit, start, end, must & ~bit,
                                               may & ~bit)), earliest - start))
        return out

    def rough_bound(self, state: TsptwState, value_top, k: int):
        position, earliest, _, must, may = state
        last_start = self.last_start
        # cities that can still fill a slot: every mandatory one (checked
        # below) and the optional ones still reachable inside their windows
        candidates = must.bit_count()
        mask = may
        while mask:
            bit = mask & -mask
            mask ^= bit
            if earliest <= last_start[bit.bit_length() - 1]:
                candidates += 1
        if candidates < (self.n - 1) - k:
            return NEG_INF
        shortest = self.shortest_edge
        base = earliest
        mask = must
        while mask:
            bit = mask & -mask
            mask ^= bit
            p = bit.bit_length() - 1
            if earliest > last_start[p]:
                return NEG_INF
            base += shortest[p]
        depot_close = self.closes[0]
        if base > depot_close:
            return NEG_INF
        to_depot = self.to_depot
        mask = (must or position) | may
        back = POS_INF
        while mask:
            bit = mask & -mask
            mask ^= bit
            d = to_depot[bit.bit_length() - 1]
            if d < back:
                back = d
        total = base + back
        if total > depot_close:
            return NEG_INF
        # -total, written as value_top plus a completion estimate of the
        # state alone: arc costs telescope, so value_top == -earliest
        return value_top + earliest - total


class TsptwRelaxation(Relaxation):
    def merge(self, states: Sequence[TsptwState]) -> TsptwState:
        position = 0
        must = -1
        pool = 0
        earliest = None
        latest = None
        for s in states:
            position |= s.position
            must &= s.must
            pool |= s.must | s.may
            earliest = s.earliest if earliest is None else min(earliest, s.earliest)
            latest = s.latest if latest is None else max(latest, s.latest)
        return TsptwState(position, earliest, latest, must, pool & ~must)

    def relax_arc(self, weight, head_state: TsptwState,
                  merged_state: TsptwState):
        return weight + head_state.earliest - merged_state.earliest


def load(text: str):
    from ..instances import parse_tsptw

    return Tsptw(parse_tsptw(text)), TsptwRelaxation()
