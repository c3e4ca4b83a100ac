"""The three workloads' inputs: graphs, configurations and the seeded
operation choices.

Every workload runs the paper's Figure-9 configuration (FSim_bj,
theta = 1).  The graphs are fixed; ``--seed`` picks the operations run
on them (which edges are toggled, which nodes are queried, which pairs
the reference check samples).  Seeding the graphs themselves would
change the work of a solve, not only its noise: on the ACMCit emulator
another dataset or densification seed moves a solve from 5 to 6
sweeps, and another dataset seed moves the match entries by up to 30%.
"""

from __future__ import annotations

import random
from typing import List, Tuple

from repro.core.config import FSimConfig
from repro.datasets import load_dataset
from repro.graph.digraph import LabeledDigraph
from repro.graph.generators import random_graph, uniform_labels
from repro.graph.noise import densify
from repro.simulation import Variant

FIG9 = "fig9-acmcit-x5"
STREAM = "stream-rand-3e3"
SERVICE = "service-nell-x5"
WORKLOADS = (FIG9, STREAM, SERVICE)

#: Process launches timed per run for ``setup_s`` (median reported).
#: A Fig-9 set-up includes one ~10 s solve, so it is timed once.
SETUP_REPEATS = {FIG9: 1, STREAM: 5, SERVICE: 5}

#: Pairs per answer whose last Jacobi step is recomputed by the
#: reference engine (``FSimEngine.update_pair``).
REFERENCE_SAMPLES = 24

#: stream-rand-3e3 shape: ~3e3 nodes, 5 edges per node, 100 labels.
STREAM_NODES = 3000
STREAM_EDGES_PER_NODE = 5
STREAM_LABELS = 100
#: Edges toggled per half round (removed, then re-added in the next).
STREAM_EDGES_PER_ROUND = 2

#: service-nell-x5 round: two edits with read-backs, then N top-k reads.
SERVICE_TOPK_PER_ROUND = 8
SERVICE_TOPK_K = 5
#: One request line over the server's 4 MiB line limit per round.
OVERSIZED_BYTES = (1 << 22) + 64


def fig9_graph() -> LabeledDigraph:
    """The ACMCit emulator densified x5 (Figure 9(b)): 420 nodes."""
    return densify(load_dataset("acmcit", scale=1.0, seed=0), 5.0, 0)


def fig9_config() -> FSimConfig:
    return FSimConfig(variant=Variant.BJ, theta=1.0, use_upper_bound=True,
                      backend="numpy")


def stream_graph() -> LabeledDigraph:
    """Uniform random graph, 3e3 nodes, 1.5e4 edges, 100 labels."""
    edges = STREAM_NODES * STREAM_EDGES_PER_NODE
    labels = uniform_labels(STREAM_NODES, STREAM_LABELS, 0)
    return random_graph(STREAM_NODES, edges, labels, 0, name="stream")


def stream_config() -> FSimConfig:
    return FSimConfig(variant=Variant.BJ, theta=1.0,
                      label_function="indicator", backend="numpy")


def service_graph() -> LabeledDigraph:
    """The NELL emulator densified x5: 120 nodes, 1200 edges."""
    return densify(load_dataset("nell", scale=1.0, seed=0), 5.0, 0)


#: ``repro serve`` flags giving the service the configuration below.
SERVICE_SERVE_ARGS = ("--variant", "bj", "--theta", "1.0",
                      "--label-function", "jaro_winkler",
                      "--backend", "numpy")


def service_config() -> FSimConfig:
    return FSimConfig(variant=Variant.BJ, theta=1.0,
                      label_function="jaro_winkler", backend="numpy")


class OpPicker:
    """Seeded choices of the operations a run performs."""

    def __init__(self, seed: int):
        self.rng = random.Random(int(seed))

    def edges(self, graph: LabeledDigraph, count: int) -> List[Tuple]:
        """``count`` distinct edges of ``graph`` (in a stable order)."""
        ordered = sorted(graph.edges(), key=repr)
        return self.rng.sample(ordered, count)

    def nodes(self, graph: LabeledDigraph, count: int) -> list:
        """``count`` distinct nodes, so no read in a round hits a cache
        entry another read of the round filled."""
        ordered = sorted(graph.nodes(), key=repr)
        return self.rng.sample(ordered, count)

    def pairs(self, pairs: list, count: int) -> list:
        return self.rng.sample(pairs, min(count, len(pairs)))

    def level(self, iterations: int) -> int:
        """A trajectory level 1..iterations to re-check by reference."""
        return self.rng.randint(1, iterations)
