"""Output checks, run outside every timed interval.

Property checks hold for any correct FSim_chi answer:

- every score lies in [w* . L(u, v), 1] (Equation 3 with non-negative
  neighbor terms, clamped to 1);
- FSim(u, u) = 1 when a graph is compared with itself;
- FSim_bj is symmetric, bit for bit, on a self-comparison;
- the iteration count stays within Corollary 1's budget;
- a top-k list is sorted best first and holds the query at score 1.

Differential checks compare an answer with a path the program documents
as identical: another entry point, a cold solve of the edited graph, a
library call on a replica graph, or one Jacobi step of the dict-based
reference engine (``FSimEngine.update_pair``) on sampled pairs.

Each check raises :class:`CheckFailure`; :class:`Verdict` collects them.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Hashable, List, Sequence, Tuple

from common import same_scores

Pair = Tuple[Hashable, Hashable]


class CheckFailure(AssertionError):
    """An answer failed a property or differential check."""


class Verdict:
    """Runs checks, counting them and keeping the first failures."""

    def __init__(self, keep: int = 8):
        self.checks = 0
        self.failures: List[str] = []
        self._keep = keep
        self._failed = 0

    def run(self, name: str, check: Callable, *args, **kwargs) -> bool:
        self.checks += 1
        try:
            check(*args, **kwargs)
        except CheckFailure as exc:
            self._failed += 1
            if len(self.failures) < self._keep:
                self.failures.append(f"{name}: {exc}")
            return False
        return True

    @property
    def ok(self) -> bool:
        return self._failed == 0

    def report(self) -> dict:
        return {"checks": self.checks, "failed": self._failed,
                "first_failures": self.failures}


def _same_bits(a: float, b: float) -> bool:
    return math.copysign(1.0, a) == math.copysign(1.0, b) and (
        a == b or (a != a and b != b)
    )


# ----------------------------------------------------------------------
# property checks
# ----------------------------------------------------------------------
def check_bounds(scores: Dict[Pair, float], graph1, graph2, config) -> None:
    """Every score lies in [w* . L(u, v), 1]."""
    label_fn = config.resolved_label_function
    w_label = config.w_label
    lows: Dict[tuple, float] = {}
    for (u, v), score in scores.items():
        key = (graph1.label(u), graph2.label(v))
        low = lows.get(key)
        if low is None:
            low = w_label * float(label_fn(key[0], key[1]))
            lows[key] = low
        if not low <= score <= 1.0:
            raise CheckFailure(
                f"score {score!r} of {(u, v)!r} outside [{low!r}, 1]"
            )


def check_self_one(scores: Dict[Pair, float], graph) -> None:
    """FSim(u, u) = 1 for every node of a self-comparison."""
    for node in graph.nodes():
        value = scores.get((node, node))
        if value != 1.0:
            raise CheckFailure(f"FSim({node!r}, {node!r}) = {value!r}")


def check_symmetric(scores: Dict[Pair, float]) -> None:
    """FSim_bj(u, v) == FSim_bj(v, u) bit for bit."""
    for (u, v), value in scores.items():
        mirror = scores.get((v, u))
        if mirror is None or not _same_bits(value, mirror):
            raise CheckFailure(
                f"FSim({u!r}, {v!r}) = {value!r} but "
                f"FSim({v!r}, {u!r}) = {mirror!r}"
            )


def check_iterations(iterations: int, config) -> None:
    """Corollary 1: at most ceil(log_{w+ + w-} epsilon) iterations."""
    budget = config.iteration_budget()
    if not 1 <= iterations <= budget:
        raise CheckFailure(f"{iterations} iterations, budget {budget}")


def check_topk(query: Hashable, partners: Sequence[Tuple[Hashable, float]],
               k: int) -> None:
    """Sorted best first, at most k long, holding the query at 1."""
    if not 0 < len(partners) <= k:
        raise CheckFailure(f"{len(partners)} partners for k={k}")
    values = [value for _, value in partners]
    if any(later > earlier for earlier, later in zip(values, values[1:])):
        raise CheckFailure(f"partners not sorted: {values!r}")
    if not any(node == query and value == 1.0 for node, value in partners):
        raise CheckFailure(f"query {query!r} not among {partners!r} at 1")


# ----------------------------------------------------------------------
# differential checks
# ----------------------------------------------------------------------
def check_same_scores(expected: Dict[Pair, float],
                      actual: Dict[Pair, float]) -> None:
    """Same pairs, same order, bit-identical scores."""
    if same_scores(expected, actual):
        return
    if list(expected.keys()) != list(actual.keys()):
        raise CheckFailure(
            f"pair lists differ ({len(expected)} vs {len(actual)} pairs)"
        )
    for pair, value in expected.items():
        if not _same_bits(value, actual[pair]):
            raise CheckFailure(
                f"{pair!r}: {value!r} expected, {actual[pair]!r} found"
            )


def check_equal(expected, actual, what: str) -> None:
    if expected != actual:
        raise CheckFailure(f"{what}: {expected!r} expected, "
                           f"{actual!r} found")


def check_same_partners(expected: Sequence[Tuple[Hashable, float]],
                        actual: Sequence[Tuple[Hashable, float]]) -> None:
    """Same top-k nodes in the same order with bit-identical scores."""
    if len(expected) != len(actual) or any(
        node_e != node_a or not _same_bits(float(val_e), float(val_a))
        for (node_e, val_e), (node_a, val_a) in zip(expected, actual)
    ):
        raise CheckFailure(f"{list(actual)!r} != {list(expected)!r}")


def check_reference_step(reference, prev: Dict[Pair, float],
                         new: Dict[Pair, float], pairs: Sequence[Pair]
                         ) -> None:
    """One Equation-3 step of the reference engine from ``prev``
    reproduces ``new`` bit for bit on the sampled ``pairs``.

    ``reference`` is a :class:`repro.core.engine.FSimEngine` on the same
    graphs and configuration; ``prev`` / ``new`` are consecutive levels
    of the compiled engine's Jacobi trajectory.  With the exact dirty
    scheduler every pair of a level equals its recomputation from the
    previous level, swept or not.
    """
    for u, v in pairs:
        value = reference.update_pair(u, v, prev)
        if not _same_bits(value, new[(u, v)]):
            raise CheckFailure(
                f"reference step of {(u, v)!r} gives {value!r}, "
                f"compiled engine {new[(u, v)]!r}"
            )


def answer_properties(verdict: Verdict, scores: Dict[Pair, float],
                      iterations: int, graph, config) -> None:
    """All property checks of one all-pairs self-comparison answer."""
    verdict.run("bounds", check_bounds, scores, graph, graph, config)
    verdict.run("self_one", check_self_one, scores, graph)
    verdict.run("symmetric", check_symmetric, scores)
    verdict.run("iterations", check_iterations, iterations, config)
