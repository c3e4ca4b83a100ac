"""Each output check of the benchmark accepts a correct answer and
rejects a deliberately corrupted one.

Run with ``PYTHONPATH=src python -m pytest fsimbench -q``.
"""

import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from repro.core.api import fsim_matrix  # noqa: E402
from repro.core.config import FSimConfig  # noqa: E402
from repro.core.engine import FSimEngine  # noqa: E402
from repro.core.topk import TopKSearch  # noqa: E402
from repro.graph.generators import random_graph, uniform_labels  # noqa: E402

from checks import (  # noqa: E402
    CheckFailure,
    Verdict,
    answer_properties,
    check_bounds,
    check_iterations,
    check_reference_step,
    check_same_partners,
    check_same_scores,
    check_self_one,
    check_symmetric,
    check_topk,
)
from layers import layered_solve, level_scores  # noqa: E402


def _ulp_up(value: float) -> float:
    return float(np.nextafter(value, 2.0))


@pytest.fixture(scope="module")
def solved():
    graph = random_graph(60, 240, uniform_labels(60, 4, 3), 3)
    config = FSimConfig(variant="bj", theta=1.0, label_function="indicator",
                        backend="numpy")
    result = fsim_matrix(graph, graph, config=config)
    return graph, config, result


def _inner_pair(scores):
    """A pair strictly inside (lower bound, 1), off the diagonal."""
    for (u, v), value in scores.items():
        if u != v and 0.2 < value < 1.0:
            return (u, v)
    raise AssertionError("no interior pair")


def test_correct_answer_passes_every_property(solved):
    graph, config, result = solved
    verdict = Verdict()
    answer_properties(verdict, result.scores, result.iterations, graph,
                      config)
    assert verdict.ok and verdict.checks == 4


def test_bounds_reject_score_above_one_and_below_label_floor(solved):
    graph, config, result = solved
    pair = _inner_pair(result.scores)
    floor = config.w_label  # L = 1 on every theta = 1 candidate
    for bad in (_ulp_up(1.0), float(np.nextafter(floor, 0.0))):
        scores = dict(result.scores)
        scores[pair] = bad
        with pytest.raises(CheckFailure):
            check_bounds(scores, graph, graph, config)


def test_self_one_rejects_diagonal_below_one(solved):
    graph, _, result = solved
    scores = dict(result.scores)
    node = next(iter(graph.nodes()))
    scores[(node, node)] = 0.9999999999999999
    with pytest.raises(CheckFailure):
        check_self_one(scores, graph)


def test_symmetry_rejects_one_ulp(solved):
    _, _, result = solved
    scores = dict(result.scores)
    pair = _inner_pair(scores)
    scores[pair] = _ulp_up(scores[pair])
    with pytest.raises(CheckFailure):
        check_symmetric(scores)


def test_iterations_reject_over_budget(solved):
    _, config, _ = solved
    check_iterations(config.iteration_budget(), config)
    with pytest.raises(CheckFailure):
        check_iterations(config.iteration_budget() + 1, config)
    with pytest.raises(CheckFailure):
        check_iterations(0, config)


def test_topk_rejects_unsorted_missing_query_and_long_lists(solved):
    graph, config, _ = solved
    query = next(iter(graph.nodes()))
    partners = TopKSearch(graph, graph, config).search(query, 5).partners
    check_topk(query, partners, 5)
    swapped = [partners[1], partners[0]] + list(partners[2:])
    if partners[0][1] != partners[1][1]:
        with pytest.raises(CheckFailure):
            check_topk(query, swapped, 5)
    without = [p for p in partners if p[0] != query]
    with pytest.raises(CheckFailure):
        check_topk(query, without, 5)
    below_one = [(n, 0.9999999999999999 if n == query else v)
                 for n, v in partners]
    with pytest.raises(CheckFailure):
        check_topk(query, below_one, 5)
    with pytest.raises(CheckFailure):
        check_topk(query, partners, len(partners) - 1)
    with pytest.raises(CheckFailure):
        check_topk(query, [], 5)


def test_same_scores_rejects_one_ulp_and_reordering(solved):
    _, _, result = solved
    check_same_scores(result.scores, dict(result.scores))
    flipped = dict(result.scores)
    pair = _inner_pair(flipped)
    flipped[pair] = _ulp_up(flipped[pair])
    with pytest.raises(CheckFailure):
        check_same_scores(result.scores, flipped)
    reordered = dict(reversed(list(result.scores.items())))
    with pytest.raises(CheckFailure):
        check_same_scores(result.scores, reordered)


def test_same_partners_rejects_one_ulp(solved):
    graph, config, _ = solved
    query = next(iter(graph.nodes()))
    partners = TopKSearch(graph, graph, config).search(query, 5).partners
    check_same_partners(partners, list(partners))
    node, value = partners[-1]
    corrupted = list(partners[:-1]) + [(node, _ulp_up(value))]
    with pytest.raises(CheckFailure):
        check_same_partners(partners, corrupted)


def test_layered_path_matches_api_and_reference_step(solved):
    graph, config, result = solved
    answer = layered_solve(graph, graph, config, clear_caches=True,
                           keep_trajectory=True)
    check_same_scores(result.scores, answer.scores)
    reference = FSimEngine(graph, graph, config)
    level = answer.iterations
    prev = level_scores(answer, level - 1)
    new = level_scores(answer, level)
    pairs = list(new.keys())
    check_reference_step(reference, prev, new, pairs)
    pair = _inner_pair(new)
    corrupted = dict(new)
    corrupted[pair] = _ulp_up(corrupted[pair])
    with pytest.raises(CheckFailure):
        check_reference_step(reference, prev, corrupted, [pair])


def test_verdict_counts_failures():
    verdict = Verdict()

    def bad():
        raise CheckFailure("corrupted")

    assert verdict.run("ok", lambda: None)
    assert not verdict.run("bad", bad)
    assert not verdict.ok
    assert verdict.report()["failed"] == 1
