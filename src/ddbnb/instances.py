"""Instance containers, text formats, and seeded random generators.

Three text formats are supported:

  graph   -- DIMACS-style: header "p edge N M", edge lines "e U V W"
             (1-indexed endpoints, integer weight), optional vertex-weight
             lines "n I W" (default weight 1), comment lines "c ...".
  wcnf    -- weighted CNF restricted to clauses of at most two literals:
             header "p wcnf N M", clause lines "W L1 [L2] 0".  Tautologies
             such as "2 1 -1 0" are legal.
  tsptw   -- first line N, then N rows of N integer travel times, then N
             lines "EARLIEST LATEST" (closed time windows, city 0 = depot).

All random generation goes through SplitMix64 so that instance suites are
reproducible bit-for-bit across platforms and across implementations of the
same formats: state' = state + 0x9E3779B97F4A7C15 (mod 2^64), output mixes
with xor-shifts and the constants 0xBF58476D1CE4E5B9 and 0x94D049BB133111EB.
Integers in [lo, hi] are drawn as lo + next() % (hi - lo + 1), and floats in
[0, 1) as next() / 2^64.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

MASK64 = (1 << 64) - 1


class SplitMix64:
    """Tiny portable seeded RNG (see module docstring for the exact stream)."""

    def __init__(self, seed: int):
        self.state = seed & MASK64

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        return z ^ (z >> 31)

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in the closed range [lo, hi]."""
        return lo + self.next_u64() % (hi - lo + 1)

    def random(self) -> float:
        return self.next_u64() / 2.0**64

    def choice(self, seq):
        return seq[self.next_u64() % len(seq)]

    def shuffle(self, seq: list) -> None:
        for i in range(len(seq) - 1, 0, -1):
            j = self.next_u64() % (i + 1)
            seq[i], seq[j] = seq[j], seq[i]


class ParseError(ValueError):
    """Malformed instance text; carries the offending 1-based line number."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno
        self.message = message

    def __reduce__(self):
        # rebuilt from the constructor's arguments, not from `args`, so the
        # error survives the trip back from a `bench --threads` worker
        return type(self), (self.lineno, self.message)


# ---------------------------------------------------------------------------
# Containers


@dataclass(frozen=True)
class Graph:
    """Undirected weighted graph; edges keyed by (u, v) with u < v."""

    n: int
    edges: Dict[Tuple[int, int], int]
    vertex_weights: Tuple[int, ...]

    def edge_weight(self, u: int, v: int) -> int:
        if u > v:
            u, v = v, u
        return self.edges.get((u, v), 0)

    def weight_matrix(self) -> List[List[int]]:
        w = [[0] * self.n for _ in range(self.n)]
        for (u, v), wt in self.edges.items():
            w[u][v] = wt
            w[v][u] = wt
        return w

    def neighbor_masks(self) -> List[int]:
        masks = [0] * self.n
        for (u, v) in self.edges:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        return masks


@dataclass(frozen=True)
class CnfFormula:
    """Weighted clauses of one or two literals; literal L is +-(var + 1)."""

    n_vars: int
    clauses: Tuple[Tuple[int, Tuple[int, ...]], ...]  # (weight, literals)


@dataclass(frozen=True)
class TsptwInstance:
    """Travel-time matrix plus closed time windows; city 0 is the depot.

    shortest_edge[p] is the cheapest way of entering city p from any other
    city; it never changes during a solve.
    """

    n: int
    dist: Tuple[Tuple[int, ...], ...]
    windows: Tuple[Tuple[int, int], ...]
    shortest_edge: Tuple[int, ...] = field(default=())

    @staticmethod
    def make(dist, windows) -> "TsptwInstance":
        n = len(dist)
        dist = tuple(tuple(row) for row in dist)
        windows = tuple((int(e), int(l)) for e, l in windows)
        shortest = tuple(
            min((dist[q][p] for q in range(n) if q != p), default=0)
            for p in range(n)
        )
        return TsptwInstance(n, dist, windows, shortest)


# ---------------------------------------------------------------------------
# Parsers


def _tokenized_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        yield lineno, line.split()


def parse_graph(text: str) -> Graph:
    n = None
    m_declared = 0
    edges: Dict[Tuple[int, int], int] = {}
    weights: Dict[int, int] = {}
    for lineno, tok in _tokenized_lines(text):
        kind = tok[0]
        if kind == "c":
            continue
        if kind == "p":
            if n is not None:
                raise ParseError(lineno, "duplicate header")
            if len(tok) != 4 or tok[1] != "edge":
                raise ParseError(lineno, "header must be 'p edge N M'")
            try:
                n, m_declared = int(tok[2]), int(tok[3])
            except ValueError:
                raise ParseError(lineno, "non-integer header fields") from None
            continue
        if n is None:
            raise ParseError(lineno, "missing 'p edge' header")
        if kind == "e":
            if len(tok) != 4:
                raise ParseError(lineno, "edge line must be 'e U V W'")
            try:
                u, v, w = int(tok[1]) - 1, int(tok[2]) - 1, int(tok[3])
            except ValueError:
                raise ParseError(lineno, "non-integer edge fields") from None
            if not (0 <= u < n and 0 <= v < n) or u == v:
                raise ParseError(lineno, "edge endpoints out of range")
            if u > v:
                u, v = v, u
            if (u, v) in edges:
                raise ParseError(lineno, f"duplicate edge {u + 1}-{v + 1}")
            edges[(u, v)] = w
        elif kind == "n":
            if len(tok) != 3:
                raise ParseError(lineno, "vertex line must be 'n I W'")
            try:
                i, w = int(tok[1]) - 1, int(tok[2])
            except ValueError:
                raise ParseError(lineno, "non-integer vertex fields") from None
            if not 0 <= i < n:
                raise ParseError(lineno, "vertex index out of range")
            weights[i] = w
        else:
            raise ParseError(lineno, f"unknown line type {kind!r}")
    if n is None:
        raise ParseError(1, "missing 'p edge' header")
    if len(edges) != m_declared:
        raise ParseError(1, f"declared {m_declared} edges, found {len(edges)}")
    vw = tuple(weights.get(i, 1) for i in range(n))
    return Graph(n, edges, vw)


def parse_wcnf(text: str) -> CnfFormula:
    n = None
    m_declared = 0
    clauses = []
    for lineno, tok in _tokenized_lines(text):
        if tok[0] == "c":
            continue
        if tok[0] == "p":
            if n is not None:
                raise ParseError(lineno, "duplicate header")
            if len(tok) != 4 or tok[1] != "wcnf":
                raise ParseError(lineno, "header must be 'p wcnf N M'")
            n, m_declared = int(tok[2]), int(tok[3])
            continue
        if n is None:
            raise ParseError(lineno, "missing 'p wcnf' header")
        try:
            nums = [int(t) for t in tok]
        except ValueError:
            raise ParseError(lineno, "non-integer clause fields") from None
        if len(nums) < 3 or nums[-1] != 0:
            raise ParseError(lineno, "clause line must be 'W L1 [L2] 0'")
        weight, lits = nums[0], tuple(nums[1:-1])
        if len(lits) > 2:
            raise ParseError(lineno, "clauses may have at most two literals")
        if weight < 0:
            raise ParseError(lineno, "clause weight must be non-negative")
        for lit in lits:
            if lit == 0 or abs(lit) > n:
                raise ParseError(lineno, f"literal {lit} out of range")
        clauses.append((weight, lits))
    if n is None:
        raise ParseError(1, "missing 'p wcnf' header")
    if len(clauses) != m_declared:
        raise ParseError(1, f"declared {m_declared} clauses, found {len(clauses)}")
    return CnfFormula(n, tuple(clauses))


def parse_tsptw(text: str) -> TsptwInstance:
    lines = [(no, ln.split()) for no, ln in
             ((no, raw.strip()) for no, raw in enumerate(text.splitlines(), 1))
             if ln and not ln.startswith("#")]
    if not lines:
        raise ParseError(1, "empty instance")
    lineno, head = lines[0]
    if len(head) != 1:
        raise ParseError(lineno, "first line must be the city count")
    n = int(head[0])
    if len(lines) != 1 + 2 * n:
        raise ParseError(lineno, f"expected {1 + 2 * n} lines for n={n}")
    dist = []
    for lineno, tok in lines[1:1 + n]:
        row = [int(t) for t in tok]
        if len(row) != n:
            raise ParseError(lineno, f"matrix row must have {n} entries")
        if any(d < 0 for d in row):
            raise ParseError(lineno, "negative travel time")
        dist.append(row)
    windows = []
    for lineno, tok in lines[1 + n:]:
        if len(tok) != 2:
            raise ParseError(lineno, "window line must be 'EARLIEST LATEST'")
        e, l = int(tok[0]), int(tok[1])
        if e > l:
            raise ParseError(lineno, "window opens after it closes")
        windows.append((e, l))
    return TsptwInstance.make(dist, windows)


# ---------------------------------------------------------------------------
# Emitters (canonical form; generators emit through these, so parse o emit is
# the identity on generated text)


def emit_graph(graph: Graph) -> str:
    out = [f"p edge {graph.n} {len(graph.edges)}"]
    for i, w in enumerate(graph.vertex_weights):
        if w != 1:
            out.append(f"n {i + 1} {w}")
    for (u, v) in sorted(graph.edges):
        out.append(f"e {u + 1} {v + 1} {graph.edges[(u, v)]}")
    return "\n".join(out) + "\n"


def emit_wcnf(formula: CnfFormula) -> str:
    out = [f"p wcnf {formula.n_vars} {len(formula.clauses)}"]
    for weight, lits in formula.clauses:
        out.append(" ".join(str(x) for x in (weight, *lits, 0)))
    return "\n".join(out) + "\n"


def emit_tsptw(inst: TsptwInstance) -> str:
    out = [str(inst.n)]
    for row in inst.dist:
        out.append(" ".join(str(d) for d in row))
    for e, l in inst.windows:
        out.append(f"{e} {l}")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Seeded generators

MISP_WEIGHTS = (-5, -4, -3, -2, -1, 1, 2, 3, 4, 5)
MCP_WEIGHTS = (-1, 1)
MAX2SAT_WEIGHTS = (1, 2, 3, 5, 6, 7, 8, 9, 10)


def _erdos_renyi_edges(n: int, p: float, rng: SplitMix64):
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                yield u, v


def random_misp(n: int, p: float, seed: int) -> Graph:
    """G(n, p) with vertex weights drawn uniformly from MISP_WEIGHTS."""
    rng = SplitMix64(seed)
    edges = {(u, v): 1 for u, v in _erdos_renyi_edges(n, p, rng)}
    weights = tuple(rng.choice(MISP_WEIGHTS) for _ in range(n))
    return Graph(n, edges, weights)


def random_mcp(n: int, p: float, seed: int) -> Graph:
    """G(n, p) with edge weights drawn uniformly from {-1, 1}."""
    rng = SplitMix64(seed)
    edges = {}
    for u, v in _erdos_renyi_edges(n, p, rng):
        edges[(u, v)] = rng.choice(MCP_WEIGHTS)
    return Graph(n, edges, tuple([1] * n))


def random_max2sat(n: int, p: float, seed: int) -> CnfFormula:
    """2-CNF derived from G(n, p); the formula has n // 2 variables.

    Each graph edge (u, v) becomes one clause over variables u mod m and
    v mod m (m = n // 2) with random polarities; edges whose endpoints
    collapse to the same variable become unit clauses.  Weights are drawn
    from MAX2SAT_WEIGHTS.
    """
    rng = SplitMix64(seed)
    m = max(1, n // 2)
    clauses = []
    for u, v in _erdos_renyi_edges(n, p, rng):
        i, j = u % m, v % m
        si = 1 if rng.random() < 0.5 else -1
        sj = 1 if rng.random() < 0.5 else -1
        w = rng.choice(MAX2SAT_WEIGHTS)
        if i == j:
            clauses.append((w, (si * (i + 1),)))
        else:
            clauses.append((w, (si * (i + 1), sj * (j + 1))))
    return CnfFormula(m, tuple(clauses))


def random_tsptw(n: int, seed: int, span: int = 40,
                 early_slack: int = 10, late_slack: int = 12) -> TsptwInstance:
    """Random metric TSPTW instance with at least one feasible tour.

    Cities are lattice points with Manhattan travel times (so the triangle
    inequality holds exactly over the integers).  Windows are cut around the
    arrival times of a random reference tour, which keeps the instance
    feasible while leaving room for waiting and for infeasible branches;
    smaller slacks give tighter windows and a smaller search space.
    """
    rng = SplitMix64(seed)
    pts = [(rng.randint(0, span), rng.randint(0, span)) for _ in range(n)]
    dist = [[abs(a[0] - b[0]) + abs(a[1] - b[1]) for b in pts] for a in pts]
    order = list(range(1, n))
    rng.shuffle(order)
    windows = [(0, 0)] * n
    t = 0
    prev = 0
    for city in order:
        t += dist[prev][city]
        early = max(0, t - rng.randint(0, early_slack))
        late = t + rng.randint(1, late_slack)
        windows[city] = (early, late)
        prev = city
    t += dist[prev][0]
    windows[0] = (0, t + rng.randint(5, 25))
    return TsptwInstance.make(dist, windows)


def gen_erdos_renyi(problem: str, n: int, p: float, seed: int) -> str:
    """Instance text for one of misp/mcp/max2sat/tsptw, deterministic in seed."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    if problem == "misp":
        return emit_graph(random_misp(n, p, seed))
    if problem == "mcp":
        return emit_graph(random_mcp(n, p, seed))
    if problem == "max2sat":
        return emit_wcnf(random_max2sat(n, p, seed))
    if problem == "tsptw":
        return emit_tsptw(random_tsptw(n, seed))
    raise ValueError(f"unknown problem {problem!r}")


def parse_manifest(text: str) -> List[Tuple[str, str]]:
    """Batch manifest: one '<problem> <path>' pair per line, '#' comments."""
    entries = []
    for lineno, tok in _tokenized_lines(text):
        if tok[0].startswith("#"):
            continue
        if len(tok) != 2:
            raise ParseError(lineno, "manifest line must be '<problem> <path>'")
        entries.append((tok[0], tok[1]))
    return entries
