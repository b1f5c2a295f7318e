"""E4 — TwigM construction is linear in the query size.

Paper claim (Feature 2): "The query processor TwigM can be constructed from
an XPath query in time which is linear in the size of the query."

Reproduced shape: building the machine for queries of 1 to 200 steps, the
per-node construction cost stays flat (no super-linear growth), and total
build time grows proportionally to the query size.
"""

from __future__ import annotations

import gc
import time

import pytest

from repro.bench.reporting import print_report, render_table
from repro.bench.runner import run_builder_scaling
from repro.core.builder import build_machine
from repro.xpath.generator import linear_descendant_query
from repro.xpath.normalize import compile_query


@pytest.mark.benchmark(group="E4-builder")
class TestBuilderBenchmarks:
    @pytest.mark.parametrize("steps", [1, 10, 100])
    def test_build_machine(self, benchmark, steps):
        tree = compile_query(linear_descendant_query("a", steps, predicate_tag="b"))

        machine = benchmark(lambda: build_machine(tree))
        assert machine.size == 2 * steps

    def test_parse_and_build_paper_query(self, benchmark):
        machine = benchmark(
            lambda: build_machine("//section[author]//table[position]//cell")
        )
        assert machine.size == 5


def test_e4_builder_scaling_table(benchmark):
    """Print the scaling table and assert per-node cost stays flat."""
    benchmark(lambda: build_machine(compile_query(linear_descendant_query("a", 50, predicate_tag="b"))))
    rows = run_builder_scaling(step_counts=(1, 5, 10, 25, 50, 100, 200), repeats=30)
    print_report(render_table(rows, title="E4: TwigM builder time vs query size"))

    per_node = [row["build_us_per_node"] for row in rows]
    totals = [row["build_s"] for row in rows]
    sizes = [row["query_nodes"] for row in rows]

    # Total time increases with query size...
    assert totals[-1] > totals[0]
    # ...but per-node cost does not blow up (linearity): the largest query's
    # per-node cost stays within a small constant factor of the median.
    median = sorted(per_node)[len(per_node) // 2]
    assert per_node[-1] < median * 10

    # Sanity: the machines really do have linearly many nodes.
    assert sizes == [2 * steps for steps in (1, 5, 10, 25, 50, 100, 200)]


def test_e4_build_time_linear_fit(benchmark):
    """A coarse two-point linearity check: 10x nodes => roughly 10x time (±5x)."""
    def measure(steps: int) -> float:
        tree = compile_query(linear_descendant_query("a", steps, predicate_tag="b"))
        # Time construction alone, as ``timeit`` does: one full collection of
        # the test session's heap costs more than all 20 small builds, and
        # whether it lands in the small or the large sample depends on the
        # allocation history of every earlier test, not on the builder.
        gc.collect()
        gc.disable()
        try:
            start = time.perf_counter()
            for _ in range(20):
                build_machine(tree)
            return (time.perf_counter() - start) / 20
        finally:
            gc.enable()

    small = benchmark.pedantic(lambda: measure(20), rounds=1, iterations=1)
    large = measure(200)
    ratio = large / small
    assert 2 < ratio < 50
