"""Tests for FSimConfig validation and presets."""

import math
import os
import pickle
import subprocess
import sys
from dataclasses import fields

import pytest

from repro.core.config import (
    EXECUTION_FIELDS,
    SCORE_FIELDS,
    FSimConfig,
    case_study_default,
    paper_default,
    score_key,
)
from repro.exceptions import ConfigError
from repro.labels.similarity import indicator
from repro.simulation import Variant


class TestValidation:
    def test_defaults_are_paper_defaults(self):
        cfg = FSimConfig()
        assert cfg.w_out == 0.4
        assert cfg.w_in == 0.4
        assert cfg.w_label == pytest.approx(0.2)
        assert cfg.variant is Variant.S

    def test_variant_coercion(self):
        assert FSimConfig(variant="bj").variant is Variant.BJ

    @pytest.mark.parametrize("w_out,w_in", [(1.0, 0.0), (-0.1, 0.4), (0.5, 0.5)])
    def test_weight_bounds(self, w_out, w_in):
        with pytest.raises(ConfigError):
            FSimConfig(w_out=w_out, w_in=w_in)

    def test_zero_total_weight_rejected(self):
        with pytest.raises(ConfigError):
            FSimConfig(w_out=0.0, w_in=0.0)

    @pytest.mark.parametrize("theta", [-0.1, 1.1])
    def test_theta_bounds(self, theta):
        with pytest.raises(ConfigError):
            FSimConfig(theta=theta)

    def test_alpha_beta_bounds(self):
        with pytest.raises(ConfigError):
            FSimConfig(alpha=1.5)
        with pytest.raises(ConfigError):
            FSimConfig(beta=-0.2)

    def test_epsilon_positive(self):
        with pytest.raises(ConfigError):
            FSimConfig(epsilon=0.0)

    def test_matching_mode_checked(self):
        with pytest.raises(ConfigError):
            FSimConfig(matching_mode="sloppy")

    def test_normalizer_checked(self):
        with pytest.raises(ConfigError):
            FSimConfig(normalizer="weird")

    def test_max_iterations_positive(self):
        with pytest.raises(ConfigError):
            FSimConfig(max_iterations=0)


class TestIterationBudget:
    def test_corollary1_formula(self):
        cfg = FSimConfig(w_out=0.4, w_in=0.4, epsilon=0.01)
        expected = math.ceil(math.log(0.01) / math.log(0.8))
        assert cfg.iteration_budget() == expected

    def test_explicit_override(self):
        cfg = FSimConfig(max_iterations=3)
        assert cfg.iteration_budget() == 3

    def test_smaller_weights_converge_faster(self):
        slow = FSimConfig(w_out=0.45, w_in=0.45)
        fast = FSimConfig(w_out=0.1, w_in=0.1)
        assert fast.iteration_budget() < slow.iteration_budget()


class TestHelpers:
    def test_with_options(self):
        cfg = FSimConfig().with_options(theta=1.0, variant=Variant.B)
        assert cfg.theta == 1.0
        assert cfg.variant is Variant.B
        # original untouched (frozen dataclass)
        assert FSimConfig().theta == 0.0

    def test_paper_default(self):
        cfg = paper_default(Variant.BJ, theta=1.0)
        assert cfg.variant is Variant.BJ
        assert cfg.theta == 1.0
        assert cfg.label_function == "jaro_winkler"

    def test_case_study_default_uses_indicator(self):
        cfg = case_study_default(Variant.S)
        assert cfg.label_function == "indicator"

    def test_resolved_label_function(self):
        from repro.labels import jaro_winkler_similarity

        assert FSimConfig().resolved_label_function is jaro_winkler_similarity


def _init_half(u, v):
    return 0.5


def _keep_all(u, v):
    return True


#: One changed value per score field.
SCORE_FIELD_CHANGES = {
    "variant": Variant.BJ, "w_out": 0.3, "w_in": 0.3,
    "label_function": "indicator", "theta": 0.5, "use_upper_bound": True,
    "alpha": 0.2, "beta": 0.6, "epsilon": 0.02, "max_iterations": 4,
    "matching_mode": "exact", "init_function": _init_half,
    "pinned_pairs": {(0, 1): 1.0}, "normalizer": "max",
    "candidate_filter": _keep_all,
}


class TestScoreKey:
    def test_fields_split_into_score_and_execution(self):
        names = {item.name for item in fields(FSimConfig)}
        assert set(EXECUTION_FIELDS) == {"backend", "workers"}
        assert set(SCORE_FIELDS) == names - set(EXECUTION_FIELDS)
        assert set(SCORE_FIELD_CHANGES) == set(SCORE_FIELDS)

    @pytest.mark.parametrize("name", sorted(SCORE_FIELD_CHANGES))
    def test_every_score_field_changes_the_key(self, name):
        base = FSimConfig()
        changed = base.with_options(**{name: SCORE_FIELD_CHANGES[name]})
        assert score_key(changed) != score_key(base)

    def test_execution_fields_share_the_key(self):
        base = FSimConfig(theta=0.5)
        for changes in ({"backend": "numpy"}, {"workers": 3},
                        {"backend": "python", "workers": 2}):
            assert score_key(base.with_options(**changes)) == score_key(base)

    def test_pinned_pairs_key_on_content_not_order(self):
        forward = FSimConfig(pinned_pairs={(0, 1): 1.0, (2, 3): 0.5})
        backward = FSimConfig(pinned_pairs={(2, 3): 0.5, (0, 1): 1.0})
        moved = FSimConfig(pinned_pairs={(0, 1): 1.0, (2, 3): 0.25})
        assert score_key(forward) == score_key(backward)
        assert score_key(forward) != score_key(moved)

    def test_key_is_cached_per_object_and_not_pickled(self):
        config = FSimConfig(theta=0.5)
        assert score_key(config) is score_key(config)
        clone = pickle.loads(pickle.dumps(config))
        assert "_score_key" not in vars(clone)
        assert clone == config
        assert score_key(clone) == score_key(config)

    def test_function_keys_hold_across_processes(self):
        """A module-level function keys by name, not address, so a
        snapshot's fingerprint verifies in the next process; a lambda
        (which no snapshot can hold) still gets a key of its own."""
        code = ("from repro.core.config import FSimConfig, score_key\n"
                "from repro.labels.similarity import indicator\n"
                "print(repr(score_key(FSimConfig(label_function=indicator,"
                " candidate_filter=indicator))))")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        other = subprocess.run([sys.executable, "-c", code], env=env,
                               capture_output=True, text=True, check=True)
        config = FSimConfig(label_function=indicator,
                            candidate_filter=indicator)
        assert other.stdout.strip() == repr(score_key(config))
        lam = FSimConfig(candidate_filter=lambda u, v: True)
        assert score_key(lam) != score_key(config)
        assert score_key(lam) != score_key(FSimConfig(
            candidate_filter=lambda u, v: True))
