"""Run configuration: the JSON-loadable knobs of a training/benchmark run."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

from ..corpus import DATASET_NAMES
from ..models import ARCHITECTURES, ModelConfig

# model_config_for sets these ModelConfig fields itself
_OVERRIDABLE = {f.name for f in fields(ModelConfig)} - {"arch", "vocab_size", "seed"}

__all__ = ["RunConfig", "load_config"]


@dataclass
class RunConfig:
    """Everything a run needs beyond the datasets themselves.

    ``model_overrides`` maps an architecture tag to ModelConfig field
    overrides (e.g. {"transformer": {"n_blocks": 1}}).
    """

    seed: int = 42
    epochs: int = 50
    patience: int = 10
    min_delta: float = 1e-6
    batch_size: int = 8
    train_fraction: float = 0.8
    learning_rate: float = 1e-3
    # per-architecture step sizes; circuit-parameter gradients are small at
    # desk dims, so the measurement-attention model trains faster at 3e-3
    learning_rate_overrides: dict = field(default_factory=lambda: {"qasa": 3e-3})
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    decode: str = "greedy"
    temperature: float = 1.0
    out_dir: str = "out"
    datasets: tuple = DATASET_NAMES
    models: tuple = ARCHITECTURES
    model_overrides: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be at least 1")
        if self.patience < 1:
            raise ValueError("patience must be at least 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError("train_fraction must lie in (0, 1)")
        if self.decode not in ("greedy", "sample"):
            raise ValueError(f"decode must be 'greedy' or 'sample', got {self.decode!r}")
        if self.temperature <= 0:
            raise ValueError("temperature must be positive")
        if not self.learning_rate > 0:
            raise ValueError("learning rates must be positive")
        for name in ("beta1", "beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ValueError(f"{name} must lie in [0, 1)")
        if not self.adam_eps > 0:
            raise ValueError("adam_eps must be positive")
        self.datasets = tuple(self.datasets)
        self.models = tuple(self.models)
        unknown = set(self.datasets) - set(DATASET_NAMES)
        if unknown:
            raise ValueError(f"unknown datasets {sorted(unknown)}; available: {DATASET_NAMES}")
        unknown = set(self.models) - set(ARCHITECTURES)
        if unknown:
            raise ValueError(f"unknown models {sorted(unknown)}; available: {ARCHITECTURES}")
        for arch, overrides in self.model_overrides.items():
            if arch not in ARCHITECTURES:
                raise ValueError(f"model_overrides for unknown architecture {arch!r}")
            unknown = set(overrides) - _OVERRIDABLE
            if unknown:
                raise ValueError(f"model_overrides for {arch!r} name unknown or fixed fields {sorted(unknown)}; "
                                 f"allowed: {sorted(_OVERRIDABLE)}")
        for arch, lr in self.learning_rate_overrides.items():
            if arch not in ARCHITECTURES:
                raise ValueError(f"learning_rate_overrides for unknown architecture {arch!r}")
            if lr <= 0:
                raise ValueError("learning rates must be positive")

    def lr_for(self, arch: str) -> float:
        return self.learning_rate_overrides.get(arch, self.learning_rate)

    def as_dict(self) -> dict:
        return asdict(self)


def load_config(path) -> RunConfig:
    raw = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(raw, dict):
        raise ValueError("config file must hold a JSON object")
    known = {f.name for f in fields(RunConfig)}
    unknown = set(raw) - known
    if unknown:
        raise ValueError(f"unknown config keys {sorted(unknown)}; known keys: {sorted(known)}")
    return RunConfig(**raw)
