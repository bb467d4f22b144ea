"""The five benchmarked architectures as token-ids -> next-token-logits models."""

from .common import (
    EOS_ID,
    BaseModel,
    DecodeCache,
    Pack,
    causal_attention,
    generate,
    quantum_positional_encoding,
    sinusoidal_table,
)
from .config import ARCHITECTURES, DISPLAY_NAMES, ModelConfig, default_config
from .mlp import MlpModel
from .qasa import QasaModel
from .qksan import QksanModel
from .qrwkv import QrwkvLayer, QrwkvModel
from .transformer import TransformerModel

_CLASSES = {
    "transformer": TransformerModel,
    "mlp": MlpModel,
    "qksan": QksanModel,
    "qasa": QasaModel,
    "qrwkv": QrwkvModel,
}

# paper-style row orders: overall table vs per-dataset tables
OVERALL_ORDER = ("transformer", "mlp", "qksan", "qasa", "qrwkv")
PER_DATASET_ORDER = ("transformer", "qksan", "qrwkv", "qasa", "mlp")


def build_model(config: ModelConfig) -> BaseModel:
    return _CLASSES[config.arch](config)


__all__ = [
    "ARCHITECTURES",
    "DISPLAY_NAMES",
    "EOS_ID",
    "OVERALL_ORDER",
    "PER_DATASET_ORDER",
    "BaseModel",
    "DecodeCache",
    "MlpModel",
    "ModelConfig",
    "Pack",
    "QasaModel",
    "QksanModel",
    "QrwkvLayer",
    "QrwkvModel",
    "TransformerModel",
    "build_model",
    "causal_attention",
    "default_config",
    "generate",
    "quantum_positional_encoding",
    "sinusoidal_table",
]
