import math
import pickle

import pytest

from ddbnb import instances as io


def test_parse_graph_k2():
    graph = io.parse_graph("p edge 2 1\ne 1 2 3\n")
    assert graph.n == 2
    assert graph.edges == {(0, 1): 3}
    assert graph.vertex_weights == (1, 1)


def test_parse_graph_vertex_weights_default_one():
    graph = io.parse_graph("p edge 3 1\nn 1 4\ne 2 3 -2\n")
    assert graph.vertex_weights == (4, 1, 1)
    assert graph.edge_weight(2, 1) == -2


def test_parse_graph_missing_header():
    with pytest.raises(io.ParseError):
        io.parse_graph("e 1 2 3\n")


def test_parse_graph_duplicate_edge():
    with pytest.raises(io.ParseError, match="duplicate edge"):
        io.parse_graph("p edge 2 2\ne 1 2 3\ne 2 1 4\n")


def test_parse_graph_reports_line_number():
    with pytest.raises(io.ParseError, match="line 3"):
        io.parse_graph("p edge 2 1\nc fine\ne 1 5 3\n")


def test_parse_error_survives_pickling():
    # bench worker processes send errors back to the parent pickled
    with pytest.raises(io.ParseError) as info:
        io.parse_graph("p edge 2 1\ne 1 5 3\n")
    copy = pickle.loads(pickle.dumps(info.value))
    assert type(copy) is io.ParseError
    assert str(copy) == str(info.value) == "line 2: edge endpoints out of range"
    assert copy.lineno == 2


def test_parse_wcnf_tautology_and_unit():
    formula = io.parse_wcnf("p wcnf 2 2\n2 1 -1 0\n5 1 0\n")
    assert formula.n_vars == 2
    assert formula.clauses == ((2, (1, -1)), (5, (1,)))


def test_parse_wcnf_rejects_long_clause():
    with pytest.raises(io.ParseError, match="two literals"):
        io.parse_wcnf("p wcnf 3 1\n1 1 2 3 0\n")


def test_parse_tsptw_roundtrip():
    text = "2\n0 7\n7 0\n0 30\n5 20\n"
    inst = io.parse_tsptw(text)
    assert inst.n == 2
    assert inst.windows == ((0, 30), (5, 20))
    assert inst.shortest_edge == (7, 7)
    assert io.emit_tsptw(inst) == text


def test_parse_tsptw_rejects_non_square():
    with pytest.raises(io.ParseError):
        io.parse_tsptw("2\n0 7 1\n7 0\n0 30\n5 20\n")


def test_parse_tsptw_rejects_inverted_window():
    with pytest.raises(io.ParseError, match="closes"):
        io.parse_tsptw("2\n0 7\n7 0\n0 30\n20 5\n")


@pytest.mark.parametrize("problem", ["misp", "mcp", "max2sat", "tsptw"])
def test_generated_text_is_deterministic(problem):
    a = io.gen_erdos_renyi(problem, 12, 0.4, 7)
    b = io.gen_erdos_renyi(problem, 12, 0.4, 7)
    assert a == b


@pytest.mark.parametrize("problem,parse,emit", [
    ("misp", io.parse_graph, io.emit_graph),
    ("mcp", io.parse_graph, io.emit_graph),
    ("max2sat", io.parse_wcnf, io.emit_wcnf),
    ("tsptw", io.parse_tsptw, io.emit_tsptw),
])
def test_parse_emit_identity(problem, parse, emit):
    for seed in range(5):
        text = io.gen_erdos_renyi(problem, 10, 0.5, seed)
        assert emit(parse(text)) == text


def test_edgeless_and_complete_graphs():
    assert io.random_mcp(5, 0.0, 3).edges == {}
    assert len(io.random_mcp(3, 1.0, 3).edges) == 3


def test_generator_weight_ranges():
    misp_graph = io.random_misp(40, 0.3, 11)
    assert set(misp_graph.vertex_weights) <= set(io.MISP_WEIGHTS)
    mcp_graph = io.random_mcp(40, 0.3, 11)
    assert set(mcp_graph.edges.values()) <= {-1, 1}
    formula = io.random_max2sat(40, 0.3, 11)
    assert formula.n_vars == 20
    assert {w for w, _ in formula.clauses} <= set(io.MAX2SAT_WEIGHTS)


def test_edge_count_matches_binomial_mean():
    n, p, runs = 30, 0.3, 200
    pairs = n * (n - 1) // 2
    counts = [len(io.random_mcp(n, p, seed).edges) for seed in range(runs)]
    mean = sum(counts) / runs
    sigma = math.sqrt(pairs * p * (1 - p) / runs)
    assert abs(mean - p * pairs) <= 3 * sigma


def test_splitmix64_stream_is_frozen():
    # the generator stream is part of the reproducibility contract
    rng = io.SplitMix64(42)
    assert [rng.next_u64() for _ in range(3)] == [
        13679457532755275413,
        2949826092126892291,
        5139283748462763858,
    ]


def test_tsptw_generator_is_metric_and_feasible():
    from support import tsptw_optimum

    for seed in range(5):
        inst = io.random_tsptw(6, seed)
        for a in range(inst.n):
            for b in range(inst.n):
                for c in range(inst.n):
                    assert inst.dist[a][c] <= inst.dist[a][b] + inst.dist[b][c]
        assert tsptw_optimum(inst) is not None


def test_manifest_parsing():
    entries = io.parse_manifest("# comment\nmisp a.gr\n\ntsptw b.tw\n")
    assert entries == [("misp", "a.gr"), ("tsptw", "b.tw")]
    with pytest.raises(io.ParseError):
        io.parse_manifest("misp\n")
