"""Configuration loading, validation, and seed derivation tests."""

import json
from dataclasses import asdict

import pytest

from amlstream.config import ModelSettings, PipelineConfig
from amlstream.errors import ConfigError
from amlstream.streamproc import RuleConfig


def test_defaults_are_valid():
    config = PipelineConfig()
    config.validate()
    assert config.topic.name == "transactions"
    assert config.topic.partitions == 4
    assert config.stream.alert_threshold == 0.5
    assert config.drift.psi_threshold == 0.2


def test_round_trip_through_dict():
    config = PipelineConfig.from_dict(
        {
            "seed": 99,
            "generator": {"count": 1000, "seasonal_amplitude": 0.25},
            "topic": {"partitions": 2},
            "stream": {"cadence": 50},
            "drift": {"window": 500},
        }
    )
    again = PipelineConfig.from_dict(asdict(config))
    assert again == config
    assert again.seed == 99
    assert again.topic.partitions == 2
    assert again.stream.cadence == 50
    assert again.drift.window == 500


def test_unknown_top_level_key_is_named():
    with pytest.raises(ConfigError, match="config.kafka"):
        PipelineConfig.from_dict({"kafka": {}})


def test_unknown_nested_keys_are_named():
    with pytest.raises(ConfigError, match="topic.replication"):
        PipelineConfig.from_dict({"topic": {"replication": 3}})
    with pytest.raises(ConfigError, match="generator.frad_rate"):
        PipelineConfig.from_dict({"generator": {"frad_rate": 0.1}})
    with pytest.raises(ConfigError, match="models.decision_tree.depth"):
        PipelineConfig.from_dict({"models": {"decision_tree": {"depth": 3}}})
    with pytest.raises(ConfigError, match="models.logistic_regression.learning_rate"):
        ModelSettings(logistic_regression={"learning_rate": 0.1}).validate()


def test_map_values_of_their_default_type_pass():
    config = PipelineConfig.from_dict(
        {
            "generator": {"count": 5, "base_amount": 100, "currency_weights": {"GBP": 1}},
            "models": {
                "logistic_regression": {"l2": 1, "tolerance": 1e-6},
                "random_forest": {"features_per_split": None, "n_trees": 5, "bootstrap": False},
                "decision_tree": {"max_depth": 3},
            },
        }
    )
    assert config.models.overrides_for("random_forest")["features_per_split"] is None
    assert ModelSettings(random_forest={"features_per_split": 4}).validate() is None


def test_validation_catches_bad_values():
    with pytest.raises(ConfigError):
        PipelineConfig.from_dict({"topic": {"partitions": 0}})
    with pytest.raises(ConfigError):
        PipelineConfig.from_dict({"stream": {"alert_threshold": 1.5}})
    with pytest.raises(ConfigError):
        PipelineConfig.from_dict({"drift": {"window": 1}})
    with pytest.raises(ConfigError):
        PipelineConfig.from_dict({"rules": {"velocity_max_count": 0}})


@pytest.mark.parametrize(
    "kind, key, value",
    [
        ("decision_tree", "min_leaf", 0),
        ("decision_tree", "max_depth", -1),
        ("random_forest", "min_leaf", 0),
        ("random_forest", "features_per_split", 0),
        ("random_forest", "features_per_split", -2),
        ("random_forest", "n_trees", 0),
        ("logistic_regression", "max_iters", -1),
        ("logistic_regression", "tolerance", -1e-6),
        ("logistic_regression", "l2", -0.5),
        ("logistic_regression", "l2", float("nan")),
    ],
)
def test_out_of_range_hyperparameter_is_named(kind, key, value):
    with pytest.raises(ConfigError, match=f"models.{kind}.{key} must be >="):
        PipelineConfig.from_dict({"models": {kind: {key: value}}})


def test_least_hyperparameter_values_pass():
    ModelSettings(
        logistic_regression={"max_iters": 0, "tolerance": 0, "l2": 0},
        decision_tree={"max_depth": 0, "min_leaf": 1},
        random_forest={"n_trees": 1, "features_per_split": 1, "min_leaf": 1, "max_depth": 0},
    ).validate()


def test_seed_derivation():
    config = PipelineConfig(seed=100)
    assert config.split_seed == 101
    assert config.oversample_seed == 102
    assert config.forest_seed == 103
    assert config.retrain_seed(1) == 1100
    assert config.retrain_seed(3) == 3100


def test_generator_config_merges_overrides():
    config = PipelineConfig.from_dict({"seed": 5, "generator": {"count": 777, "base_amount": 99.0}})
    gen = config.generator_config()
    assert gen.seed == 5
    assert gen.count == 777
    assert gen.base_amount == 99.0
    assert config.generator_config(count=10).count == 10


def test_generator_config_requires_count():
    with pytest.raises(ConfigError, match="count"):
        PipelineConfig(seed=5).generator_config()


def test_rule_config_conversion():
    config = PipelineConfig.from_dict(
        {"rules": {"high_risk_types": ["ACH"], "enable_velocity": False}}
    )
    rules = config.rules.rule_config()
    assert rules.high_risk_types == frozenset({"ACH"})
    assert not rules.enable_velocity
    assert rules.enable_high_risk


def test_rules_section_is_the_stream_rule_config():
    config = PipelineConfig.from_dict({"rules": {"high_risk_types": ["ACH", "Cheque"]}})
    assert PipelineConfig().rules == RuleConfig()
    assert config.rules == RuleConfig(high_risk_types=frozenset({"ACH", "Cheque"}))
    assert PipelineConfig.from_dict(asdict(config)) == config
    for bad in ([[1]], [1, 2], 5, "ACH", {"ACH": 1}):
        with pytest.raises(ConfigError, match="rules.high_risk_types"):
            PipelineConfig.from_dict({"rules": {"high_risk_types": bad}})


def test_from_file(tmp_path):
    path = tmp_path / "pipeline.json"
    path.write_text(json.dumps({"seed": 11, "generator": {"count": 10}}))
    config = PipelineConfig.from_file(str(path))
    assert config.seed == 11

    bad = tmp_path / "broken.json"
    bad.write_text("{nope")
    with pytest.raises(ConfigError):
        PipelineConfig.from_file(str(bad))

    lst = tmp_path / "list.json"
    lst.write_text("[1, 2]")
    with pytest.raises(ConfigError):
        PipelineConfig.from_file(str(lst))

    with pytest.raises(OSError):
        PipelineConfig.from_file(str(tmp_path / "missing.json"))


def test_model_overrides_surface():
    config = PipelineConfig.from_dict(
        {"models": {"random_forest": {"n_trees": 10}, "logistic_regression": {"max_iters": 50}}}
    )
    assert config.models.overrides_for("random_forest") == {"n_trees": 10}
    assert config.models.overrides_for("logistic_regression") == {"max_iters": 50}
    assert config.models.overrides_for("decision_tree") == {}
