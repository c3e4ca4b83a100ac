"""Backend parity: the vectorized numpy engine vs the reference engine.

The compiled backend must reproduce the dict-based reference *bit for
bit* across every variant, pruning configuration, pinned pairs and
self-similarity: the compiler replicates the reference's iteration
order, greedy tie-breaking (repr rank) and clamping arithmetic (see
docs/PERF.md), so scores and per-iteration deltas are compared as
IEEE-754 bit patterns, not within a tolerance.
"""

import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import FSimConfig, FSimEngine, vectorized_fallback_reason
from repro.graph import LabeledDigraph, figure1_graphs
from repro.graph.generators import random_graph, uniform_labels
from repro.simulation import Variant

ALL_VARIANTS = [Variant.S, Variant.DP, Variant.B, Variant.BJ]

def bits(values):
    """IEEE-754 bit patterns: equal only for identical floats."""
    return np.asarray(values, dtype=np.float64).view(np.int64).tolist()


def assert_parity(graph1, graph2, config):
    reference = FSimEngine(
        graph1, graph2, config.with_options(backend="python")
    ).run()
    vectorized = FSimEngine(
        graph1, graph2, config.with_options(backend="numpy")
    ).run()
    assert reference.scores.keys() == vectorized.scores.keys()
    pairs = list(reference.scores)
    assert bits([vectorized.scores[p] for p in pairs]) == bits(
        [reference.scores[p] for p in pairs]
    )
    assert vectorized.iterations == reference.iterations
    assert vectorized.converged == reference.converged
    assert vectorized.num_candidates == reference.num_candidates
    assert bits(vectorized.deltas) == bits(reference.deltas)
    return reference, vectorized


@pytest.fixture
def graph_pair():
    g1 = random_graph(18, 40, uniform_labels(18, 3, seed=21), seed=22)
    g2 = random_graph(22, 55, uniform_labels(22, 3, seed=23), seed=24)
    return g1, g2


class TestVariantParity:
    @pytest.mark.parametrize("variant", ALL_VARIANTS)
    @pytest.mark.parametrize("label_function", ["indicator", "jaro_winkler"])
    def test_two_graphs(self, variant, label_function, graph_pair):
        g1, g2 = graph_pair
        assert_parity(
            g1, g2, FSimConfig(variant=variant, label_function=label_function)
        )

    @pytest.mark.parametrize("variant", ALL_VARIANTS)
    def test_self_similarity(self, variant, graph_pair):
        g1, _ = graph_pair
        assert_parity(g1, g1, FSimConfig(variant=variant))

    def test_cross_configuration(self, graph_pair):
        g1, _ = graph_pair
        assert_parity(
            g1, g1,
            FSimConfig(
                variant=Variant.CROSS, w_out=0.0, w_in=0.8,
                label_function="indicator",
            ),
        )

    def test_figure1(self):
        pattern, data = figure1_graphs()
        for variant in ALL_VARIANTS:
            assert_parity(
                pattern, data,
                FSimConfig(variant=variant, label_function="indicator"),
            )


class TestPruningParity:
    @pytest.mark.parametrize("variant", ALL_VARIANTS)
    @pytest.mark.parametrize("theta", [0.0, 0.6, 1.0])
    def test_theta(self, variant, theta, graph_pair):
        g1, g2 = graph_pair
        assert_parity(g1, g2, FSimConfig(variant=variant, theta=theta))

    @pytest.mark.parametrize("variant", ALL_VARIANTS)
    @pytest.mark.parametrize("beta,alpha", [(0.5, 0.0), (0.8, 0.4)])
    def test_upper_bound(self, variant, beta, alpha, graph_pair):
        g1, g2 = graph_pair
        reference, vectorized = assert_parity(
            g1, g2,
            FSimConfig(
                variant=variant, use_upper_bound=True, beta=beta, alpha=alpha
            ),
        )
        # The alpha-fallback must answer pruned pairs identically too.
        for u in g1.nodes():
            for v in g2.nodes():
                assert bits([vectorized.score(u, v)]) == bits(
                    [reference.score(u, v)]
                )

    @pytest.mark.parametrize("variant", ALL_VARIANTS)
    def test_fig9_configuration(self, variant, graph_pair):
        g1, _ = graph_pair
        assert_parity(
            g1, g1,
            FSimConfig(variant=variant, theta=1.0, use_upper_bound=True),
        )

    @pytest.mark.parametrize("normalizer", ["table3", "max"])
    def test_normalizers(self, normalizer, graph_pair):
        g1, g2 = graph_pair
        for variant in (Variant.DP, Variant.BJ):
            assert_parity(
                g1, g2, FSimConfig(variant=variant, normalizer=normalizer)
            )


class TestPinnedParity:
    def test_pinned_pairs(self, graph_pair):
        g1, _ = graph_pair
        nodes = g1.nodes()
        pinned = {
            (nodes[0], nodes[0]): 1.0,  # feasible diagonal pin
            (nodes[1], nodes[2]): 0.5,  # arbitrary pin
            ("missing", "nodes"): 0.25,  # off-graph pin
        }
        reference, vectorized = assert_parity(
            g1, g1,
            FSimConfig(
                variant=Variant.S, label_function="indicator",
                pinned_pairs=pinned,
            ),
        )
        for pair, value in pinned.items():
            assert vectorized.scores[pair] == value

    @pytest.mark.parametrize("variant", ALL_VARIANTS + [Variant.CROSS])
    def test_negative_pinned_values(self, variant, graph_pair):
        # The reference s/b mapping floors each source's best weight at
        # 0.0; a negative pinned score must not leak into the sums.
        g1, _ = graph_pair
        nodes = g1.nodes()
        weights = (
            {"w_out": 0.3, "w_in": 0.5} if variant is Variant.CROSS else {}
        )
        assert_parity(
            g1, g1,
            FSimConfig(
                variant=variant, label_function="indicator",
                pinned_pairs={(nodes[0], nodes[1]): -0.9}, **weights,
            ),
        )

    def test_pinned_with_pruning(self, graph_pair):
        g1, _ = graph_pair
        nodes = g1.nodes()
        assert_parity(
            g1, g1,
            FSimConfig(
                variant=Variant.BJ, theta=1.0, use_upper_bound=True,
                pinned_pairs={(nodes[0], nodes[0]): 1.0},
            ),
        )


class TestBackendSelection:
    def test_explicit_numpy_falls_back_with_warning(self, graph_pair):
        g1, _ = graph_pair
        config = FSimConfig(
            variant=Variant.S, backend="numpy",
            init_function=lambda u, v: 0.5,
        )
        with pytest.warns(RuntimeWarning, match="init_function"):
            result = FSimEngine(g1, g1, config).run()
        assert result.converged

    def test_auto_fallback_is_silent(self, graph_pair):
        g1, _ = graph_pair
        config = FSimConfig(
            variant=Variant.S, backend="auto",
            candidate_filter=lambda u, v: True,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            FSimEngine(g1, g1, config).run()

    def test_fallback_reasons(self):
        assert vectorized_fallback_reason(FSimConfig()) is None
        assert "init_function" in vectorized_fallback_reason(
            FSimConfig(init_function=lambda u, v: 0.0)
        )
        assert "candidate_filter" in vectorized_fallback_reason(
            FSimConfig(candidate_filter=lambda u, v: True)
        )
        assert "exact" in vectorized_fallback_reason(
            FSimConfig(variant=Variant.BJ, matching_mode="exact")
        )
        # Exact matching only matters for the injective variants.
        assert vectorized_fallback_reason(
            FSimConfig(variant=Variant.S, matching_mode="exact")
        ) is None

    def test_invalid_backend_rejected(self):
        from repro.exceptions import ConfigError

        with pytest.raises(ConfigError):
            FSimConfig(backend="cuda")

    def test_workers_match_serial(self, graph_pair):
        g1, _ = graph_pair
        config = FSimConfig(
            variant=Variant.BJ, theta=1.0, use_upper_bound=True,
            backend="numpy",
        )
        serial = FSimEngine(g1, g1, config).run(workers=1)
        parallel = FSimEngine(g1, g1, config).run(workers=2)
        assert serial.scores == parallel.scores
        assert serial.iterations == parallel.iterations


@st.composite
def labeled_digraphs(draw, max_nodes=8, max_labels=3):
    """Small random labeled digraphs (hypothesis strategy)."""
    size = draw(st.integers(min_value=0, max_value=max_nodes))
    graph = LabeledDigraph()
    for node in range(size):
        label = draw(st.integers(min_value=0, max_value=max_labels - 1))
        graph.add_node(node, label=f"L{label}")
    possible = [(u, v) for u in range(size) for v in range(size)]
    for u, v in possible:
        if draw(st.booleans()):
            graph.add_edge(u, v)
    return graph


@given(
    graph=labeled_digraphs(),
    variant=st.sampled_from(ALL_VARIANTS),
    theta=st.sampled_from([0.0, 1.0]),
    use_ub=st.booleans(),
)
@settings(
    max_examples=30, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_property_backend_parity(graph, variant, theta, use_ub):
    """Property: the backends agree on arbitrary small graphs."""
    config = FSimConfig(
        variant=variant, theta=theta, use_upper_bound=use_ub,
        label_function="indicator",
    )
    assert_parity(graph, graph, config)
