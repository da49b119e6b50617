"""Pipeline configuration: one JSON document drives every subcommand.

The document's keys are the fields of PipelineConfig and of its section
dataclasses (TopicSettings, streamproc.RuleConfig, StreamSettings,
ModelSettings, lifecycle.DriftThresholds); one reader walks those fields,
so a key is declared nowhere else, and the section a component takes is
the one the reader built. A field whose default is a frozenset, such as
``rules.high_risk_types``, is read from a JSON list of strings. Unknown
keys are rejected, recursively, with the offending path named, and so is
a value whose type differs from its default's, inside the free-form
``generator`` and ``models.<kind>`` maps too. A config file that parses
but contains a typo must fail loudly, not silently run with defaults.
Every key is one that some command reads, and no command overwrites a
configured value; tests/test_config.py pins the list of keys.

All randomness in one pipeline run derives from the single top-level
seed: the generator uses it directly, the dataset split adds
SPLIT_SEED_OFFSET (1), class rebalancing OVERSAMPLE_SEED_OFFSET (2) and
forest training FOREST_SEED_OFFSET (3). Retraining for registry version
v starts from seed + RETRAIN_SEED_STRIDE * v (1000 * v) and adds the
same offsets to that. Runs with the same config and the same BLAS thread
count (OPENBLAS_NUM_THREADS and the like) are therefore bit-for-bit
reproducible; a different thread count can change floating-point sums in
the logistic fit, and with them its weights and the alerts it raises
(tree sums add whole counts, so trees do not depend on it). The
benchmark pins one thread.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields, is_dataclass

from .errors import ConfigError
from .lifecycle import DriftThresholds
from .models import MODEL_KINDS, check_hyperparameters
from .streamproc import RuleConfig
from .txgen import GeneratorConfig

SPLIT_SEED_OFFSET = 1
OVERSAMPLE_SEED_OFFSET = 2
FOREST_SEED_OFFSET = 3
RETRAIN_SEED_STRIDE = 1000

# the top-level seed is the generator's seed, so the section has no seed key
_GENERATOR_KEYS = frozenset(f.name for f in fields(GeneratorConfig)) - {"seed"}
# every generator field at its default; count has none, so it is an int here
_GENERATOR_DEFAULTS = vars(GeneratorConfig(seed=0, count=1))


def _read(cls, raw, path: str = ""):
    """Build the dataclass ``cls`` from the JSON object ``raw``: each key
    must name a field, a field whose default is a section dataclass is read
    the same way, one whose default is a frozenset is read from a list of
    strings, and a map value is copied. ``path`` names the section in
    messages; the top level is ``config``."""
    where = path or "config"
    if not isinstance(raw, dict):
        raise ConfigError(f"config section {where!r} must be an object")
    unknown = sorted(set(raw) - {f.name for f in fields(cls)})
    if unknown:
        raise ConfigError(f"unknown config key {where}.{unknown[0]}")
    defaults = cls()
    kwargs = {}
    for key, value in raw.items():
        default, name = getattr(defaults, key), f"{path}.{key}" if path else key
        if is_dataclass(default):
            value = _read(type(default), value, name)
        elif isinstance(default, frozenset):
            # asdict() of a config hands the frozenset itself back
            if not isinstance(value, (list, frozenset)) or not all(
                isinstance(item, str) for item in value
            ):
                raise ConfigError(f"config key {name} must be a list of strings")
            value = frozenset(value)
        elif isinstance(value, dict):
            value = dict(value)
        kwargs[key] = value
    return cls(**kwargs)


def _type_ok(value, default) -> bool:
    """An int passes where a float is expected; a bool passes only where a
    bool is expected."""
    expected = type(default)
    if isinstance(value, bool) != (expected is bool):
        return False
    return isinstance(value, (int, float) if expected is float else expected)


def _check_types(prefix: str, obj) -> None:
    """Each field of the dataclass ``obj``, and of its section dataclasses,
    must hold a value of its default's type."""
    defaults = type(obj)()
    for f in fields(obj):
        value, default = getattr(obj, f.name), getattr(defaults, f.name)
        if not _type_ok(value, default):
            raise ConfigError(
                f"config key {prefix}{f.name} must be {type(default).__name__}, "
                f"not {type(value).__name__}"
            )
        if is_dataclass(default):
            _check_types(f"{prefix}{f.name}.", value)


def _check_map_types(prefix: str, values: dict, defaults: dict) -> None:
    """Each value of the free-form map ``values`` must have the type of its
    entry in ``defaults``, by ``_type_ok``'s rule. A None default takes an
    int or null; a map default takes a map of numbers."""
    for key, value in values.items():
        default = defaults[key]
        if isinstance(default, dict) and isinstance(value, dict):
            _check_map_types(f"{prefix}{key}.", value, dict.fromkeys(value, 0.0))
            continue
        if default is None:
            ok, expected = value is None or _type_ok(value, 0), "int or null"
        else:
            ok, expected = _type_ok(value, default), type(default).__name__
        if not ok:
            raise ConfigError(
                f"config key {prefix}{key} must be {expected}, not {type(value).__name__}"
            )


@dataclass
class TopicSettings:
    name: str = "transactions"
    partitions: int = 4

    def validate(self) -> None:
        if not self.name:
            raise ConfigError("topic.name must be non-empty")
        if self.partitions < 1:
            raise ConfigError("topic.partitions must be at least 1")


@dataclass
class StreamSettings:
    cadence: int = 1000  # ticks between drains in paced feeds
    batch_max: int = 1000
    alert_threshold: float = 0.5

    def validate(self) -> None:
        if self.cadence < 1:
            raise ConfigError("stream.cadence must be at least 1")
        if self.batch_max < 1:
            raise ConfigError("stream.batch_max must be at least 1")
        if not 0.0 <= self.alert_threshold <= 1.0:
            raise ConfigError("stream.alert_threshold must lie in [0, 1]")


@dataclass
class ModelSettings:
    """Per-kind hyperparameter overrides, validated against the defaults'
    keys and types and the least values the models accept."""

    logistic_regression: dict = field(default_factory=dict)
    decision_tree: dict = field(default_factory=dict)
    random_forest: dict = field(default_factory=dict)

    def validate(self) -> None:
        for kind, defaults in MODEL_KINDS.items():
            overrides = getattr(self, kind)
            unknown = set(overrides) - set(defaults)
            if unknown:
                raise ConfigError(
                    f"unknown hyperparameter models.{kind}.{sorted(unknown)[0]}"
                )
            _check_map_types(f"models.{kind}.", overrides, defaults)
            check_hyperparameters(overrides, f"models.{kind}.")

    def overrides_for(self, kind: str) -> dict:
        return dict(getattr(self, kind))


@dataclass
class PipelineConfig:
    data_dir: str = "./data"
    report_dir: str = "./reports"
    seed: int = 7
    generator: dict = field(default_factory=dict)
    topic: TopicSettings = field(default_factory=TopicSettings)
    rules: RuleConfig = field(default_factory=RuleConfig)
    stream: StreamSettings = field(default_factory=StreamSettings)
    models: ModelSettings = field(default_factory=ModelSettings)
    drift: DriftThresholds = field(default_factory=DriftThresholds)

    def validate(self) -> None:
        _check_types("", self)
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        if not self.data_dir:
            raise ConfigError("data_dir must be non-empty")
        if not self.report_dir:
            raise ConfigError("report_dir must be non-empty")
        unknown = set(self.generator) - _GENERATOR_KEYS
        if unknown:
            raise ConfigError(f"unknown config key generator.{sorted(unknown)[0]}")
        _check_map_types("generator.", self.generator, _GENERATOR_DEFAULTS)
        self.topic.validate()
        self.stream.validate()
        self.drift.validate()
        self.models.validate()
        self.rules.validate()

    # -- seeds ---------------------------------------------------------------

    @property
    def split_seed(self) -> int:
        return self.seed + SPLIT_SEED_OFFSET

    @property
    def oversample_seed(self) -> int:
        return self.seed + OVERSAMPLE_SEED_OFFSET

    @property
    def forest_seed(self) -> int:
        return self.seed + FOREST_SEED_OFFSET

    def retrain_seed(self, version: int) -> int:
        return self.seed + RETRAIN_SEED_STRIDE * version

    # -- section builders ----------------------------------------------------

    def generator_config(
        self, count: int | None = None, seed: int | None = None, **overrides
    ) -> GeneratorConfig:
        """The generator section as a GeneratorConfig; ``seed`` and any
        GeneratorConfig field passed here replace the configured value."""
        merged = {**self.generator, **overrides}
        if count is not None:
            merged["count"] = count
        if "count" not in merged:
            raise ConfigError("generator.count is required (or pass --count)")
        cfg = GeneratorConfig(seed=self.seed if seed is None else seed, **merged)
        cfg.validate()
        return cfg

    # -- serialization ---------------------------------------------------------

    @classmethod
    def from_dict(cls, raw: dict) -> "PipelineConfig":
        config = _read(cls, raw)
        config.validate()
        return config

    @classmethod
    def from_file(cls, path: str) -> "PipelineConfig":
        with open(path, "r", encoding="utf-8") as handle:
            try:
                raw = json.load(handle)
            except (ValueError, RecursionError) as exc:  # not UTF-8 or not JSON
                raise ConfigError(f"{path}: not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError(f"{path}: config root must be a JSON object")
        return cls.from_dict(raw)
