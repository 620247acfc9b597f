"""Tests of the benchmark's own rules, on synthetic inputs.

    python3 -m pytest perfbench -q
"""

import dataclasses
import math
import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from layertrace import Tracer  # noqa: E402
from metrics import Tally, check_solve, quantile, tail_percentile  # noqa: E402
from workloads import HEAVIEST, STRATUM, draw, import_ddbnb  # noqa: E402

ddbnb = import_ddbnb()
from ddbnb import instances as io  # noqa: E402
from ddbnb.cli import LOADERS  # noqa: E402


def fake_clock(*reads):
    ticks = iter(reads)
    return lambda: next(ticks)


def test_self_time_of_nested_spans():
    # clock reads: outer in, inner in/out, leaf in/out, inner in/out, outer out
    tracer = Tracer(clock=fake_clock(0.0, 1.0, 3.0, 4.0, 5.5, 6.0, 7.0, 10.0))
    leaf = tracer.wrap("leaf", lambda: None)
    inner_calls = iter([lambda: None, leaf])
    inner = tracer.wrap("inner", lambda: next(inner_calls)(), store=False)

    def body():
        inner()
        inner()

    tracer.wrap("outer", body)()

    assert tracer.totals["outer"] == [1, 10.0, 10.0 - 2.0 - 3.0]
    assert tracer.totals["inner"] == [2, 5.0, 2.0 + (3.0 - 0.5)]
    assert tracer.totals["leaf"] == [1, 0.5, 0.5]
    # the stored leaf names the stored outer span as its parent, since the
    # rolled-up inner span in between is not kept
    assert tracer.spans == [("outer", 0.0, 10.0, -1), ("leaf", 5.5, 6.0, 0)]
    assert tracer.rollups == {"inner": {"outer": [2, 5.0, 4.5]}}


def test_generator_steps_count_once_and_time_each_step():
    tracer = Tracer(clock=fake_clock(0.0, 0.5, 1.0, 2.0, 3.0, 3.5, 4.0, 4.25))
    gen = tracer.wrap("gen", lambda: (x for x in "ab"), store=False)
    assert list(gen()) == ["a", "b"]
    calls, total, own = tracer.totals["gen"]
    assert calls == 1
    assert total == own == 0.5 + 1.0 + 0.5 + 0.25
    assert tracer.counts["gen.items"] == 2


def test_tail_percentile_keeps_ten_samples_beyond():
    assert tail_percentile(20) == 50
    assert tail_percentile(100) == 90
    for n in range(11, 400):
        p = tail_percentile(n)
        assert n - math.ceil(p * n / 100) >= 10, n
        # one percentile higher leaves fewer than ten samples beyond
        assert p == 99 or n - math.ceil((p + 1) * n / 100) < 10, n
    with pytest.raises(ValueError):
        tail_percentile(10)


def test_quantile_is_a_weighted_mean_of_order_statistics():
    assert quantile(list(range(1, 100)), 0.5) == pytest.approx(50)
    assert quantile([3.0] * 25, 0.9) == pytest.approx(3.0)
    samples = [1.0] * 12 + [2.0] + [100.0] * 12
    assert 1.0 < quantile(samples, 0.5) < 100.0
    assert quantile(samples, 0.6) > quantile(samples, 0.5)
    # one outlier moves the estimate far less than its own size
    assert quantile(list(range(25)) + [10_000], 0.5) < 13


def solved_misp():
    problem, relaxation = LOADERS["misp"](
        io.emit_graph(io.random_misp(10, 0.4, 3)))
    optimum, _ = ddbnb.brute_force_optimum(problem)
    return problem, ddbnb.solve(problem, relaxation), optimum


def test_wrong_reference_counts_as_failure():
    problem, outcome, optimum = solved_misp()
    tally = Tally()
    tally.record(check_solve(ddbnb, problem, outcome, optimum))
    tally.record(check_solve(ddbnb, problem, outcome, optimum + 1))
    timed_out = dataclasses.replace(outcome, status=ddbnb.Status.TIMEOUT)
    tally.record(check_solve(ddbnb, problem, timed_out, optimum))
    bad_path = dataclasses.replace(outcome, value=outcome.value - 1)
    tally.record(check_solve(ddbnb, problem, bad_path, outcome.value - 1))
    assert (tally.attempted, tally.failed) == (4, 3)
    assert tally.fail_rate == 0.75
    assert "reference optimum" in tally.failures[0]
    assert "timeout" in tally.failures[1]
    assert "replays" in tally.failures[2]


def test_installed_tracer_reconciles_and_uninstalls():
    originals = (ddbnb.solver.compile_diagram, ddbnb.solver.Fringe,
                 ddbnb.mdd.relax_layer, ddbnb.instances.parse_graph,
                 LOADERS["mcp"])
    text = io.emit_graph(io.random_mcp(12, 0.4, 5))
    plain = ddbnb.solve(*LOADERS["mcp"](text))

    tracer = Tracer()
    tracer.install(ddbnb)
    try:
        problem, relaxation = LOADERS["mcp"](text)
        tracer.trace_model(problem, relaxation)
        out = ddbnb.solve(problem, relaxation,
                          ddbnb.SolveConfig(dd_observer=tracer.dd_observer))
    finally:
        tracer.uninstall()

    assert (ddbnb.solver.compile_diagram, ddbnb.solver.Fringe,
            ddbnb.mdd.relax_layer, ddbnb.instances.parse_graph,
            LOADERS["mcp"]) == originals
    assert (out.explored, out.dd_nodes) == (plain.explored, plain.dd_nodes)
    assert tracer.calls("solver.Fringe.pop") == out.explored
    assert tracer.counts["nodes_created"] == out.dd_nodes
    assert tracer.calls("instances.parse_graph") == 1
    assert tracer.calls("problems.rough_bound") > 0
    assert tracer.absent == ["problems.successors"]


def test_missing_names_are_reported_absent():
    tracer = Tracer()
    stub = types.SimpleNamespace(
        solver=types.SimpleNamespace(), mdd=types.SimpleNamespace(),
        instances=types.SimpleNamespace(), cli=types.SimpleNamespace())
    tracer.install(stub)
    tracer.uninstall()
    assert "solver.compile_diagram" in tracer.absent
    assert "solver.Fringe" in tracer.absent
    assert "cli.LOADERS" in tracer.absent


def test_draw_takes_heaviest_entries_and_one_per_stratum():
    size = HEAVIEST + 10 * STRATUM
    entries = [{"seed": s, "value": 0, "dd_nodes": 1000 - s}
               for s in range(size)]
    picked = draw(entries, "w", 7)
    assert picked == draw(entries, "w", 7)
    assert picked != draw(entries, "w", 8)
    seeds = {e["seed"] for e in picked}
    # ranked by ascending dd_nodes the pool is seeds size-1..0; the HEAVIEST
    # seeds are in every draw, and the rest form ten strata of STRATUM seeds
    heaviest = set(range(HEAVIEST))
    assert heaviest <= seeds
    assert sorted((size - 1 - s) // STRATUM for s in seeds - heaviest) \
        == list(range(10))


def test_uneven_strata_leave_no_entry_out():
    entries = [{"seed": s, "value": 0, "dd_nodes": s}
               for s in range(HEAVIEST + 2 * STRATUM + 1)]
    drawn = set()
    for seed in range(200):
        picked = draw(entries, "w", seed)
        assert len(picked) == HEAVIEST + 2
        drawn |= {e["seed"] for e in picked}
    assert drawn == set(range(len(entries)))
