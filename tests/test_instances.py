import math
import os
import pickle
import subprocess
import sys

import pytest

from ddbnb import instances as io
from ddbnb.cli import LOADERS


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


# ---------------------------------------------------------------------------
# malformed text always ends as a ParseError with a line number


@pytest.mark.parametrize("parse,text", [
    (io.parse_graph, "p edge -3 0\n"),
    (io.parse_graph, "p edge 3 -1\n"),
    (io.parse_wcnf, "p wcnf -2 0\n"),
])
def test_negative_header_sizes_are_rejected(parse, text):
    with pytest.raises(io.ParseError, match="line 1: header sizes"):
        parse(text)


@pytest.mark.parametrize("parse,text", [
    (io.parse_graph, "c big\np edge 1001 0\n"),
    (io.parse_wcnf, "c big\np wcnf 1001 0\n"),
])
def test_declared_sizes_above_the_limit_are_rejected(parse, text):
    # the models allocate from the declared size before any solve
    assert io.MAX_DECLARED_SIZE == 1000
    with pytest.raises(io.ParseError, match="line 2: declared size 1001") as info:
        parse(text)
    assert info.value.lineno == 2
    parse(text.replace("1001", "1000"))


@pytest.mark.parametrize("parse,text", [
    (io.parse_graph, "c a\nc b\np edge 2 1\n"),
    (io.parse_wcnf, "c a\nc b\np wcnf 2 2\n1 1 0\n"),
])
def test_a_count_mismatch_names_the_header_line(parse, text):
    with pytest.raises(io.ParseError, match="line 3: declared") as info:
        parse(text)
    assert info.value.lineno == 3


def test_tsptw_without_a_depot_is_rejected():
    with pytest.raises(io.ParseError, match="line 1: .*depot"):
        io.parse_tsptw("0\n")


@pytest.mark.parametrize("parse,text,lineno", [
    (io.parse_wcnf, "p wcnf x 1\n1 1 0\n", 1),
    (io.parse_wcnf, "p wcnf 2 1.5\n1 1 0\n", 1),
    (io.parse_tsptw, "two\n0 7\n7 0\n0 30\n5 20\n", 1),
    (io.parse_tsptw, "2\n0 7\n7 x\n0 30\n5 20\n", 3),
    (io.parse_tsptw, "2\n0 7\n7 0\n0 30\n5 2.0\n", 5),
])
def test_non_integer_fields_name_their_line(parse, text, lineno):
    with pytest.raises(io.ParseError, match="non-integer") as info:
        parse(text)
    assert info.value.lineno == lineno


# Replacement tokens of the fuzz test: every numeric one is small, so no
# mutation can declare a size the test would have to allocate.
FUZZ_TOKENS = ("-1", "0", "1", "2", "x", "1.5", "")


def mutate(text: str, rng: io.SplitMix64) -> str:
    """One to three line- or token-level edits of `text`."""
    lines = text.splitlines()
    for _ in range(rng.randint(1, 3)):
        if not lines:
            break
        i = rng.randint(0, len(lines) - 1)
        op = rng.randint(0, 3)
        if op == 0:
            del lines[i]
        elif op == 1:
            lines.insert(i, lines[i])
        elif op == 2:
            j = rng.randint(0, len(lines) - 1)
            lines[i], lines[j] = lines[j], lines[i]
        else:
            tokens = lines[i].split()
            if tokens:
                tokens[rng.randint(0, len(tokens) - 1)] = rng.choice(
                    FUZZ_TOKENS)
            lines[i] = " ".join(tokens)
    return "\n".join(lines) + "\n"


FUZZ_PROBLEMS = ("misp", "mcp", "max2sat", "tsptw")


def fuzzed_texts(problem: str, count: int):
    rng = io.SplitMix64(2024 + FUZZ_PROBLEMS.index(problem))
    for i in range(count):
        text = io.gen_erdos_renyi(problem, 6, 0.5, i % 4)
        yield mutate(text, rng)


@pytest.mark.parametrize("problem", FUZZ_PROBLEMS)
def test_fuzzed_text_loads_or_raises_parse_error(problem):
    loaded = rejected = 0
    for text in fuzzed_texts(problem, 150):
        try:
            LOADERS[problem](text)
        except io.ParseError as exc:
            assert exc.lineno >= 1
            rejected += 1
        else:
            loaded += 1
    # the mutations reach both outcomes
    assert loaded and rejected


def test_solve_on_fuzzed_files_never_prints_a_traceback(tmp_path):
    # the checkout's src/, whatever the working directory
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env = {**os.environ, "PYTHONPATH": src}
    for problem in FUZZ_PROBLEMS:
        # the first mutated text that loads and the first that does not
        picked = {}
        for text in fuzzed_texts(problem, 150):
            try:
                LOADERS[problem](text)
            except io.ParseError:
                picked.setdefault("rejected", text)
            else:
                picked.setdefault("loaded", text)
            if len(picked) == 2:
                break
        for outcome, text in picked.items():
            path = tmp_path / f"{problem}-{outcome}.txt"
            path.write_text(text)
            proc = subprocess.run(
                [sys.executable, "-m", "ddbnb.cli", "solve", problem,
                 str(path), "--timeout", "5"],
                capture_output=True, text=True, env=env, timeout=60)
            assert proc.returncode in ((0, 2) if outcome == "loaded"
                                       else (1,)), (text, proc.stderr)
            assert "Traceback" not in proc.stdout + proc.stderr, text
