"""The dp/bj greedy-matching kernel (:func:`greedy_matching_sums`).

Two layers of checks, both on float bits:

- the kernel alone against a plain per-problem sequential greedy on
  random matching problems with tied, zero and negative scores;
- the whole numpy backend against the python reference engine on
  skewed-degree graphs: a few hub nodes make some matching problems far
  longer than the kernel's tail cut-off while thousands of short ones
  keep the vectorized steps busy (cold iterate, dirty-subset sweeps and
  a replay after edge toggles).

``REPRO_KERNEL_EXAMPLES`` raises the hypothesis example count (CI runs
the hub test with more examples than the tier-1 suite).
"""

import os
import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import FSimConfig, FSimEngine
from repro.core.compile import MatchStructure, compile_fsim
from repro.core.vectorized import (
    TAIL_PROBLEMS,
    VectorizedFSimEngine,
    greedy_matching_sums,
    greedy_rank,
)
from repro.graph.digraph import LabeledDigraph
from repro.obs import metrics
from repro.obs.profiling import GREEDY_STEPS_COUNTER, GREEDY_TAIL_COUNTER
from repro.simulation import Variant
from repro.streaming import IncrementalFSim

EXAMPLES = int(os.environ.get("REPRO_KERNEL_EXAMPLES", "3"))


def bits(values):
    """IEEE-754 bit patterns: equal only for identical floats."""
    return np.asarray(values, dtype=np.float64).view(np.int64).tolist()


# ----------------------------------------------------------------------
# the kernel against a sequential greedy
# ----------------------------------------------------------------------
def random_problems(rng, num_problems, num_arena, hubs=3):
    """A MatchStructure of random problems, a few of them hub-sized."""
    arena, lslot, rslot, counts, caps = [], [], [], [], []
    lbase = rbase = 0
    for p in range(num_problems):
        size = rng.randint(9, 14) if p < hubs else rng.randint(1, 4)
        left, right = rng.randint(1, size), rng.randint(1, size)
        cells = [(a, b) for a in range(left) for b in range(right)]
        cells = rng.sample(cells, rng.randint(0, len(cells)))
        ids = rng.sample(range(num_arena), len(cells))  # one use per problem
        arena += ids
        lslot += [lbase + a for a, _ in cells]
        rslot += [rbase + b for _, b in cells]
        counts.append(len(cells))
        caps.append(rng.randint(1, min(left, right)))
        lbase += left
        rbase += right
    structure = MatchStructure(
        np.array(arena, dtype=np.int64), np.array(lslot, dtype=np.int64),
        np.array(rslot, dtype=np.int64), np.array(counts, dtype=np.int64),
        np.array(caps, dtype=np.int64), lbase, rbase,
    )
    return structure


def sequential_greedy(structure, scores, tie_rank, problem):
    """One problem's greedy matched-weight sum, entry by entry."""
    start = int(structure.ent_start[problem])
    stop = start + int(structure.ent_count[problem])
    entries = [
        (float(scores[a]), int(tie_rank[a]), int(l), int(r))
        for a, l, r in zip(structure.ent_arena[start:stop],
                           structure.ent_lslot[start:stop],
                           structure.ent_rslot[start:stop])
    ]
    entries.sort(key=lambda entry: (-entry[0], entry[1]))
    used_l, used_r = set(), set()
    total = 0.0
    for weight, _, left, right in entries:
        if weight <= 0.0 or len(used_l) == structure.cap[problem]:
            break
        if left in used_l or right in used_r:
            continue
        used_l.add(left)
        used_r.add(right)
        total += weight
    return total


@pytest.mark.parametrize("seed", range(6))
def test_kernel_matches_sequential_greedy(seed):
    rng = random.Random(seed)
    num_arena = 400
    structure = random_problems(rng, num_problems=150, num_arena=num_arena)
    # Few distinct values: many ties, some zero and negative weights.
    scores = np.array(
        [rng.choice([-0.25, 0.0, 0.125, 0.5, 0.5, 0.75, 1.0])
         for _ in range(num_arena)]
    )
    tie_rank = np.array(rng.sample(range(num_arena), num_arena))
    rank = greedy_rank(scores, tie_rank)
    expected = [sequential_greedy(structure, scores, tie_rank, p)
                for p in range(len(structure.ent_count))]
    full = np.arange(len(structure.ent_count))
    totals, steps, tail = greedy_matching_sums(structure, rank, scores, full)
    assert bits(totals) == bits(expected)
    assert steps > 0 and 0 < tail < TAIL_PROBLEMS  # both phases ran
    subset = np.array(sorted(rng.sample(range(len(full)), 90)))
    totals, _, _ = greedy_matching_sums(structure, rank, scores, subset)
    assert bits(totals) == bits([expected[p] for p in subset])


def test_kernel_handles_empty_inputs():
    rng = random.Random(0)
    structure = random_problems(rng, num_problems=5, num_arena=50)
    scores = np.zeros(50)  # nothing positive: no entry is ever visited
    rank = greedy_rank(scores, np.arange(50))
    totals, steps, tail = greedy_matching_sums(
        structure, rank, scores, np.arange(5)
    )
    assert bits(totals) == bits([0.0] * 5) and (steps, tail) == (0, 0)
    totals, _, _ = greedy_matching_sums(
        structure, rank, scores, np.empty(0, dtype=np.int64)
    )
    assert totals.size == 0


# ----------------------------------------------------------------------
# the backend against the reference engine on hub graphs
# ----------------------------------------------------------------------
@st.composite
def hub_graphs(draw):
    """~45 nodes over two labels; a few hubs linked both ways to half
    the graph, so hub-pair problems hold hundreds of entries."""
    seed = draw(st.integers(min_value=0, max_value=2 ** 16))
    num_nodes = draw(st.integers(min_value=40, max_value=48))
    num_hubs = draw(st.integers(min_value=2, max_value=3))
    rng = random.Random(seed)
    graph = LabeledDigraph()
    for node in range(num_nodes):
        graph.add_node(node, label=f"L{rng.randrange(2)}")
    edges = set()
    for node in range(num_nodes):
        for _ in range(2):
            edges.add((node, rng.randrange(num_nodes)))
    for hub in range(num_hubs):
        for other in rng.sample(range(num_nodes), num_nodes // 2):
            edges.add((hub, other))
            edges.add((other, hub))
    for source, target in sorted(edges):
        if source != target:
            graph.add_edge(source, target)
    return graph, seed


def hub_config(variant):
    return FSimConfig(variant=variant, theta=1.0, label_function="indicator")


def assert_same_run(vectorized, reference):
    assert vectorized.scores.keys() == reference.scores.keys()
    pairs = list(reference.scores)
    assert bits([vectorized.scores[p] for p in pairs]) == bits(
        [reference.scores[p] for p in pairs]
    )
    assert bits(vectorized.deltas) == bits(reference.deltas)
    assert vectorized.iterations == reference.iterations


def reference_run(graph, config):
    return FSimEngine(
        graph, graph, config.with_options(backend="python")
    ).run()


HUB_SETTINGS = settings(
    max_examples=EXAMPLES, deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@pytest.mark.parametrize("variant", [Variant.DP, Variant.BJ])
@HUB_SETTINGS
@given(drawn=hub_graphs())
def test_hub_graphs_match_reference_bitwise(variant, drawn):
    graph, seed = drawn
    config = hub_config(variant)
    compiled = compile_fsim(graph, graph, config)
    structures = [term.structures[0]
                  for term in (compiled.out_term, compiled.in_term)]
    assert compiled.num_updatable > 4 * TAIL_PROBLEMS
    assert max(int(s.ent_count.max()) for s in structures) > 2 * TAIL_PROBLEMS

    # cold iterate (its later sweeps are dirty subsets)
    vectorized = FSimEngine(
        graph, graph, config.with_options(backend="numpy")
    ).run()
    assert_same_run(vectorized, reference_run(graph, config))

    # an explicit dirty-subset sweep equals the full sweep on its rows
    engine = VectorizedFSimEngine(compiled)
    scores = compiled.scores0.copy()
    everything = np.arange(compiled.num_updatable)
    full = engine.sweep(scores, everything)
    subset = np.array(sorted(random.Random(seed).sample(
        range(compiled.num_updatable), compiled.num_updatable // 3
    )))
    assert bits(engine.sweep(scores, subset)) == bits(full[subset])

    # replay after an edge toggle at a hub
    session = IncrementalFSim(graph, graph, config.with_options(
        backend="numpy"
    ))
    session.compute()
    other = random.Random(seed).randrange(2, graph.num_nodes)
    if graph.has_edge(0, other):
        session.log1.remove_edge(0, other)
    else:
        session.log1.add_edge(0, other)
    assert_same_run(session.compute(), reference_run(graph, config))
    assert session.stats["compiled_patches"] == 1


def fixed_hub_graph():
    graph = LabeledDigraph()
    rng = random.Random(5)
    for node in range(60):
        graph.add_node(node, label=f"L{node % 2}")
    for node in range(60):
        graph.add_edge(node, (node + 1 + rng.randrange(58)) % 60)
    for other in range(1, 60, 2):
        if not graph.has_edge(0, other):
            graph.add_edge(0, other)
    return graph


def test_kernel_counters_bump_once_per_direction_sweep():
    compiled = compile_fsim(fixed_hub_graph(), fixed_hub_graph(),
                            hub_config(Variant.BJ))
    everything = np.arange(compiled.num_updatable)
    rank = greedy_rank(compiled.scores0, compiled.tie_rank)
    runs = [greedy_matching_sums(term.structures[0], rank,
                                 compiled.scores0, everything)
            for term in (compiled.out_term, compiled.in_term)]
    steps = sum(run[1] for run in runs)
    tail = sum(run[2] for run in runs)
    assert steps > 0 and tail > 0
    prior = metrics.enabled()
    metrics.configure(enabled=True)
    metrics.REGISTRY.reset()
    try:
        VectorizedFSimEngine(compiled).sweep(compiled.scores0, everything)
        assert metrics.REGISTRY.get(GREEDY_STEPS_COUNTER).value == steps
        assert metrics.REGISTRY.get(GREEDY_TAIL_COUNTER).value == tail
        metrics.configure(enabled=False)
        VectorizedFSimEngine(compiled).sweep(compiled.scores0, everything)
        assert metrics.REGISTRY.get(GREEDY_STEPS_COUNTER).value == steps
        assert metrics.REGISTRY.get(GREEDY_TAIL_COUNTER).value == tail
    finally:
        metrics.REGISTRY.reset()
        metrics.configure(enabled=prior)
