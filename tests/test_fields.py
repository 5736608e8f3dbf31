"""Field checks of the configuration dataclasses against their annotations."""

from dataclasses import dataclass

import pytest

from avmoe.errors import ConfigError
from avmoe.fields import check_fields
from avmoe.model import ModelConfig
from avmoe.moe import MoEConfig
from avmoe.train import TrainConfig


@dataclass
class Sample:
    count: int = 1
    rate: float = 0.5
    flag: bool = False
    name: str = "a"
    width: int | None = None
    words: list[str] | None = None
    table: dict[str, list[float]] | None = None


@pytest.mark.parametrize(
    "changes",
    [
        {"count": True},  # a bool is not an int
        {"count": 1.0},
        {"rate": "0.5"},
        {"rate": float("nan")},
        {"rate": float("inf")},
        {"flag": 0},
        {"name": None},
        {"width": 2.5},
        {"words": ["a", 1]},
        {"table": {"a": [1.0, "x"]}},
        {"table": {1: [1.0]}},
    ],
)
def test_wrong_types_are_config_errors(changes):
    with pytest.raises(ConfigError, match=f"Sample.{next(iter(changes))} must be"):
        check_fields(Sample(**changes))


def test_right_types_pass():
    check_fields(Sample())
    check_fields(Sample(count=-3, rate=2, width=4, words=[], table={"a": [1, 2.5]}))


def test_bounds_are_inclusive():
    bounds = {"count": (1, 3), "rate": (0, None)}
    check_fields(Sample(count=1, rate=0.0), bounds)
    check_fields(Sample(count=3, rate=1e9), bounds)
    for changes in ({"count": 0}, {"count": 4}, {"rate": -1e-12}):
        with pytest.raises(ConfigError, match="must lie in"):
            check_fields(Sample(**changes), bounds)


@pytest.mark.parametrize(
    "config",
    [
        ModelConfig(vocab_size=8, heads=0),
        ModelConfig(vocab_size=8, hidden=True),
        ModelConfig(vocab_size=8, stack_factor=1.5),
        MoEConfig(top_k="2"),
        TrainConfig(lr="x"),
        TrainConfig(lr=0.0),
        TrainConfig(warmup_steps=-1),
        TrainConfig(seed=-1),
    ],
)
def test_configs_refuse_bad_values(config):
    with pytest.raises(ConfigError):
        config.validate()
