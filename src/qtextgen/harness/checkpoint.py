"""Versioned JSON checkpoints: architecture, config, parameters and epoch.

JSON keeps the format inspectable and byte-order-free; Python's float repr
round-trips exactly, so save/load restores bit-identical parameters.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path

import numpy as np

from ..models import BaseModel, ModelConfig, build_model
from .files import write_text_atomic

FORMAT_VERSION = 1

__all__ = ["FORMAT_VERSION", "save_checkpoint", "load_checkpoint", "restore_model"]


def save_checkpoint(path, model: BaseModel, epoch: int = 0) -> Path:
    payload = {
        "format_version": FORMAT_VERSION,
        "arch": model.arch,
        "config": asdict(model.config),
        "params": {
            name: {"shape": list(t.shape), "data": t.data.reshape(-1).tolist()}
            for name, t in model.params.items()
        },
        "epoch": epoch,
    }
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    return write_text_atomic(path, json.dumps(payload, sort_keys=True) + "\n")


def load_checkpoint(path) -> dict:
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    version = payload.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported checkpoint format version {version!r}")
    return payload


def restore_model(payload: dict) -> BaseModel:
    model = build_model(ModelConfig(**payload["config"]))
    arrays = {
        name: np.array(entry["data"], dtype=np.float64).reshape(entry["shape"])
        for name, entry in payload["params"].items()
    }
    model.load_state_arrays(arrays)
    return model
