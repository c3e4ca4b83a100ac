"""Tests for the unified executor runtime (repro.runtime).

The load-bearing contract: a forked pool (``workers > 1``) produces
**bitwise identical** ``FSimResult``s (scores, iterations,
per-iteration deltas) to serial iteration on both compute backends.
Every parity test also asserts that a pool was actually forked, so a
silent serial fallback cannot pass it.  Plus the runtime's resource
behavior: lazy pool creation (tiny workloads never fork a process) and
the serial fallback, with a warning, where fork is unavailable.
"""

import pickle
import warnings

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import FSimConfig, FSimEngine, fsim_matrix
from repro.core.api import fsim_matrix_many
from repro.core.topk import TopKSearch
from repro.core.vectorized import run_vectorized
from repro.exceptions import ConfigError
from repro.graph.generators import random_graph, uniform_labels
from repro.runtime import (
    ForkExecutor,
    SerialExecutor,
    fork_available,
    resolve_executor,
)
from repro.runtime import executor as executor_module
from repro.simulation import Variant

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="the fork start method needs a unix-like "
    "platform",
)


@pytest.fixture
def forked(monkeypatch):
    """Parallel thresholds lowered to 1 so small test graphs reach the
    pool, and the process-wide pool counter zeroed."""
    if not fork_available():
        pytest.skip("the fork start method needs a unix-like platform")
    monkeypatch.setattr(executor_module, "MIN_PARALLEL_UPD", 1)
    monkeypatch.setattr(executor_module, "MIN_PARALLEL_PAIRS", 1)
    monkeypatch.setattr(ForkExecutor, "pools_created", 0)


def on_pool(compute):
    """``compute()``, asserting it forked at least one pool."""
    before = ForkExecutor.pools_created
    result = compute()
    assert ForkExecutor.pools_created > before, "ran serially"
    return result


def assert_identical(serial, parallel):
    """Bitwise result equality: scores, trajectory and metadata."""
    assert serial.scores == parallel.scores
    assert serial.iterations == parallel.iterations
    assert serial.converged == parallel.converged
    assert serial.deltas == parallel.deltas
    assert serial.num_candidates == parallel.num_candidates


# ----------------------------------------------------------------------
# bitwise parity of the forked pool (property test, both backends)
# ----------------------------------------------------------------------
class TestExecutorParity:
    @settings(
        max_examples=6, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        num_nodes=st.integers(min_value=8, max_value=24),
        num_labels=st.integers(min_value=2, max_value=4),
        seed=st.integers(min_value=0, max_value=10_000),
        backend=st.sampled_from(["python", "numpy"]),
        variant=st.sampled_from([Variant.S, Variant.B, Variant.BJ]),
    )
    def test_bitwise_identical_results(
        self, forked, num_nodes, num_labels, seed, backend, variant,
    ):
        graph = random_graph(
            num_nodes, 2 * num_nodes,
            uniform_labels(num_nodes, num_labels, seed=seed), seed=seed + 1,
        )
        cfg = FSimConfig(
            variant=variant, label_function="indicator", backend=backend,
        )
        serial = FSimEngine(graph, graph, cfg).run()
        parallel = on_pool(lambda: FSimEngine(graph, graph, cfg).run(workers=2))
        assert_identical(serial, parallel)

    def test_parity_with_pruning(self, medium_random_graph, forked):
        cfg = FSimConfig(
            variant=Variant.BJ, label_function="indicator",
            theta=1.0, use_upper_bound=True, alpha=0.4, backend="numpy",
        )
        g = medium_random_graph
        serial = FSimEngine(g, g, cfg).run()
        parallel = on_pool(lambda: FSimEngine(g, g, cfg).run(workers=2))
        assert_identical(serial, parallel)

    def test_parity_with_pinned_pairs(self, medium_random_graph, forked):
        g = medium_random_graph
        node = g.nodes()[0]
        for backend in ("python", "numpy"):
            cfg = FSimConfig(
                variant=Variant.S, label_function="indicator",
                pinned_pairs={(node, node): 1.0}, backend=backend,
            )
            serial = FSimEngine(g, g, cfg).run()
            parallel = on_pool(lambda: FSimEngine(g, g, cfg).run(workers=2))
            assert_identical(serial, parallel)
            assert parallel.scores[(node, node)] == 1.0

    def test_num_candidates_excludes_foreign_pinned_pairs(
        self, medium_random_graph, forked
    ):
        """A pinned pair outside the candidate store must not inflate
        ``num_candidates`` on the parallel path (the legacy runner
        counted every pinned pair as a candidate)."""
        g = medium_random_graph
        # theta=1 with indicator labels: only equal-label pairs are
        # candidates; pin a pair of differently-labeled nodes.
        nodes = g.nodes()
        foreign = next(
            (u, v)
            for u in nodes for v in nodes
            if g.label(u) != g.label(v)
        )
        cfg = FSimConfig(
            variant=Variant.S, label_function="indicator", theta=1.0,
            pinned_pairs={foreign: 0.5}, backend="python",
        )
        serial = FSimEngine(g, g, cfg).run()
        parallel = on_pool(lambda: FSimEngine(g, g, cfg).run(workers=2))
        assert parallel.num_candidates == serial.num_candidates
        assert parallel.scores[foreign] == 0.5

    def test_dp_arena_parity(self, forked):
        """A dp arena swept on a forked pool matches the serial
        iteration bit for bit, and a second run forks afresh."""
        g1 = random_graph(45, 180, uniform_labels(45, 5, seed=31),
                          seed=32)
        g2 = random_graph(40, 160, uniform_labels(40, 5, seed=33),
                          seed=34)
        cfg = FSimConfig(variant=Variant.DP, label_function="indicator",
                         backend="numpy")
        serial = FSimEngine(g1, g2, cfg).run()
        for _ in range(2):
            assert_identical(serial, on_pool(
                lambda: FSimEngine(g1, g2, cfg).run(workers=2)
            ))


# ----------------------------------------------------------------------
# batched and streaming layers share the runtime
# ----------------------------------------------------------------------
class TestSharedRuntimeLayers:
    def test_topk_parity_both_backends(self, medium_random_graph, forked):
        g = medium_random_graph
        queries = g.nodes()[:4]
        for backend in ("python", "numpy"):
            cfg = FSimConfig(
                variant=Variant.S, label_function="indicator",
                backend=backend,
            )
            search = TopKSearch(g, g, cfg)
            serial = search.search_many(queries, 3)
            parallel = on_pool(
                lambda: search.search_many(queries, 3, workers=2)
            )
            for a, b in zip(serial, parallel):
                assert a.partners == b.partners
                assert a.iterations == b.iterations
                assert a.certified == b.certified

    def test_query_sharding_parity(self, medium_random_graph, forked):
        data = medium_random_graph
        queries = [
            random_graph(8, 14, uniform_labels(8, 3, seed=s), seed=s)
            for s in range(4)
        ]
        for backend in ("python", "numpy"):
            serial = fsim_matrix_many(
                queries, data, "s", label_function="indicator",
                backend=backend,
            )
            parallel = on_pool(lambda: fsim_matrix_many(
                queries, data, "s", label_function="indicator",
                backend=backend, workers=2,
            ))
            for a, b in zip(serial, parallel):
                assert_identical(a, b)

    def test_streaming_session_on_executor(self, forked):
        from repro.core.plan import clear_plan_caches, lower_graph
        from repro.streaming import IncrementalFSim

        labels = uniform_labels(60, 4, seed=1)
        base = random_graph(60, 150, labels, seed=2)
        evolving = base.copy()
        cfg = FSimConfig(
            variant=Variant.B, label_function="indicator", theta=1.0,
            backend="numpy",
        )
        clear_plan_caches()
        session = IncrementalFSim(evolving, base, cfg, workers=2)
        on_pool(session.compute)
        nodes = evolving.nodes()
        session.log1.add_edge_if_absent(nodes[0], nodes[1])
        warm = on_pool(session.compute)
        assert session.stats["compiled_patches"] == 1
        clear_plan_caches()
        lower_graph(base)
        cold = fsim_matrix(evolving, base, config=cfg)
        assert warm.scores == cold.scores
        assert warm.iterations == cold.iterations
        assert warm.deltas == cold.deltas


# ----------------------------------------------------------------------
# resource behavior: lazy pools, thresholds
# ----------------------------------------------------------------------
class TestPoolLifetime:
    @needs_fork
    def test_no_pool_spawn_for_tiny_workloads(self, small_random_graph,
                                              monkeypatch):
        """A run whose sweeps all stay below the parallel threshold must
        never fork a pool (the legacy runner forked one up front)."""
        monkeypatch.setattr(ForkExecutor, "pools_created", 0)
        g = small_random_graph
        cfg = FSimConfig(
            variant=Variant.S, label_function="indicator", backend="numpy",
        )
        serial = FSimEngine(g, g, cfg).run()
        assert_identical(serial, FSimEngine(g, g, cfg).run(workers=4))
        assert ForkExecutor.pools_created == 0

    @needs_fork
    def test_no_pool_spawn_for_tiny_dict_workloads(self, monkeypatch):
        """The dict-engine pair path has the same lazy-pool guarantee:
        a workload below the pair threshold never forks a pool."""
        monkeypatch.setattr(ForkExecutor, "pools_created", 0)
        # 7x7 = 49 candidate pairs, below MIN_PARALLEL_PAIRS (64).
        g = random_graph(7, 12, uniform_labels(7, 2, seed=3), seed=4)
        cfg = FSimConfig(
            variant=Variant.S, label_function="indicator", backend="python",
        )
        serial = FSimEngine(g, g, cfg).run()
        assert_identical(serial, FSimEngine(g, g, cfg).run(workers=4))
        assert ForkExecutor.pools_created == 0

    def test_serial_resolution(self):
        cfg = FSimConfig()
        assert isinstance(resolve_executor(cfg), SerialExecutor)
        assert isinstance(resolve_executor(cfg, workers=1), SerialExecutor)
        if fork_available():
            resolved = resolve_executor(cfg, workers=3)
            assert isinstance(resolved, ForkExecutor)
            assert resolved.workers == 3
            resolved = resolve_executor(cfg.with_options(workers=2))
            assert isinstance(resolved, ForkExecutor)


# ----------------------------------------------------------------------
# platform degradation
# ----------------------------------------------------------------------
class TestForkFallback:
    def test_fork_unavailable_runs_serially_with_warning(
        self, medium_random_graph, forked, monkeypatch
    ):
        """Where fork is missing, ``workers > 1`` warns and runs the
        serial path -- bitwise the serial result, no pool."""
        monkeypatch.setattr(executor_module, "fork_available", lambda: False)
        g = medium_random_graph
        for backend in ("python", "numpy"):
            cfg = FSimConfig(
                variant=Variant.S, label_function="indicator",
                backend=backend,
            )
            serial = FSimEngine(g, g, cfg).run()
            with pytest.warns(RuntimeWarning, match="running serially"):
                parallel = FSimEngine(g, g, cfg).run(workers=2)
            assert_identical(serial, parallel)
        assert ForkExecutor.pools_created == 0

    def test_unpicklable_config_runs_on_fork_pool(self, medium_random_graph,
                                                  forked):
        """A config holding a lambda reaches the workers through fork
        (nothing is pickled on the way in), so it runs in parallel."""
        g = medium_random_graph
        cfg = FSimConfig(
            variant=Variant.S,
            label_function=lambda a, b: 1.0 if a == b else 0.0,
            backend="python",
        )
        serial = FSimEngine(g, g, cfg).run()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            parallel = on_pool(lambda: FSimEngine(g, g, cfg).run(workers=2))
        assert_identical(serial, parallel)


# ----------------------------------------------------------------------
# configuration plumbing
# ----------------------------------------------------------------------
class TestConfigPlumbing:
    def test_workers_validated(self):
        with pytest.raises(ConfigError):
            FSimConfig(workers=0)
        with pytest.raises(TypeError):
            FSimConfig(executor="fork")  # retired knob

    def test_config_workers_drive_run(self, small_random_graph, forked):
        g = small_random_graph
        cfg = FSimConfig(
            variant=Variant.S, label_function="indicator", workers=2,
        )
        result = on_pool(lambda: FSimEngine(g, g, cfg).run())
        serial = FSimEngine(
            g, g, cfg.with_options(workers=1)
        ).run()
        assert_identical(serial, result)

    def test_run_rejects_bad_workers(self, small_random_graph):
        g = small_random_graph
        with pytest.raises(ConfigError):
            FSimEngine(g, g, FSimConfig()).run(workers=0)

    def test_retired_executor_field_unpickles(self):
        """A config pickled before ``executor`` was retired restores as
        a plain config (the field is dropped, the rest kept)."""
        legacy = object.__new__(FSimConfig)
        legacy.__dict__.update(
            FSimConfig(theta=0.5, workers=2).__dict__,
            executor="shared_memory",
        )
        restored = pickle.loads(pickle.dumps(legacy))
        assert "executor" not in restored.__dict__
        assert restored == FSimConfig(theta=0.5, workers=2)


# ----------------------------------------------------------------------
# concurrent sessions on one executor
# ----------------------------------------------------------------------
class TestConcurrentSessions:
    def test_threads_sharing_one_executor_stay_bitwise_correct(self, forked):
        """Two threads running sessions on the same ForkExecutor must
        not clobber each other's sweep state (token-keyed fork
        staging, one pool per session)."""
        import threading

        graphs = [
            random_graph(20 + 4 * i, 50 + 8 * i,
                         uniform_labels(20 + 4 * i, 3, seed=i), seed=i + 50)
            for i in range(2)
        ]
        cfg = FSimConfig(
            variant=Variant.S, label_function="indicator", backend="numpy",
        )
        serials = [FSimEngine(g, g, cfg).run() for g in graphs]
        ex = ForkExecutor(2)
        failures = []

        def worker(index):
            try:
                for _ in range(3):
                    engine = FSimEngine(graphs[index], graphs[index], cfg)
                    result = run_vectorized(engine, ex)
                    if result.scores != serials[index].scores:
                        failures.append(index)
            except Exception as error:  # pragma: no cover - surfaced below
                failures.append(error)

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not failures
        assert ForkExecutor.pools_created >= 1


# ----------------------------------------------------------------------
# compiled-arena footprint
# ----------------------------------------------------------------------
class TestArenaFootprint:
    def test_compile_sets_arena_bytes_gauge(self):
        from repro.core.compile import compile_fsim
        from repro.obs import metrics

        prior = metrics.enabled()
        metrics.configure(enabled=True)
        metrics.REGISTRY.reset()
        try:
            g1 = random_graph(45, 180, uniform_labels(45, 5, seed=73),
                              seed=74)
            g2 = random_graph(40, 160, uniform_labels(40, 5, seed=75),
                              seed=76)
            compiled = compile_fsim(g1, g2, FSimConfig(
                variant=Variant.DP, label_function="indicator",
                backend="numpy",
            ))
            sizes = compiled.arena_nbytes()
            assert set(sizes) == {"ram"}
            gauge = metrics.REGISTRY.get("repro_arena_bytes", kind="ram")
            assert gauge is not None and gauge.value == float(sizes["ram"])
            assert gauge.value > 0
        finally:
            metrics.REGISTRY.reset()
            metrics.configure(enabled=prior)
