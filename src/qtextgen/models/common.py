"""Components shared by every architecture: embeddings, positional tables,
multi-head causal attention, the output head, and autoregressive decoding."""

from __future__ import annotations

import math
from functools import cache

import numpy as np

from ..numerics import (
    Rng,
    Tensor,
    cos,
    derive_seed,
    init_bias,
    init_weight,
    masked_softmax_rows,
    matmul,
    sin,
    transpose,
)
from ..numerics.tensor import embedding_lookup, interleave_columns
from .config import DISPLAY_NAMES, ModelConfig

EOS_ID = 2  # corpus convention: PAD=0, BOS=1, EOS=2, UNK=3

__all__ = [
    "EOS_ID",
    "BaseModel",
    "causal_attention",
    "quantum_positional_encoding",
    "sinusoidal_table",
    "generate",
]


def sinusoidal_table(n_positions: int, d: int) -> np.ndarray:
    """Classic fixed sin/cos positional table (even=sin, odd=cos)."""
    pos = np.arange(n_positions)[:, None]
    i = np.arange(d // 2)[None, :]
    angles = pos / (10000.0 ** (2.0 * i / d))
    table = np.empty((n_positions, d))
    table[:, 0::2] = np.sin(angles)
    table[:, 1::2] = np.cos(angles)
    return table


def quantum_positional_encoding(n_positions: int, d: int, omega: Tensor, phases: Tensor) -> Tensor:
    """Sinusoidal table modulated by a trainable frequency and per-column phases.

    Even columns: sin(p / 10000^(2i/d)) * cos(omega*p + phase_even);
    odd columns:  cos(p / 10000^(2i/d)) * sin(omega*p + phase_odd).
    """
    if d % 2 != 0:
        raise ValueError("positional encoding needs an even feature dimension")
    pos = np.arange(n_positions)[:, None].astype(np.float64)
    i = np.arange(d // 2)[None, :]
    angles = pos / (10000.0 ** (2.0 * i / d))
    sin_base = Tensor(np.sin(angles))
    cos_base = Tensor(np.cos(angles))
    pvec = Tensor(pos)
    arg_even = omega * pvec + phases[0::2]
    arg_odd = omega * pvec + phases[1::2]
    even = sin_base * cos(arg_even)
    odd = cos_base * sin(arg_odd)
    return interleave_columns(even, odd)


@cache
def _head_mask(m: int, n_heads: int) -> np.ndarray:
    """Additive (m*h, m*h) score mask: 0 where both rows belong to one head, -inf between heads."""
    head = np.arange(m * n_heads) % n_heads
    mask = np.where(head[:, None] == head[None, :], 0.0, -np.inf)
    mask.setflags(write=False)
    return mask


def causal_attention(q: Tensor, k: Tensor, v: Tensor, n_heads: int, scale: float) -> Tensor:
    """Causally masked softmax(q k^T * scale) v for every head at once.

    q, k and v have m rows of h column blocks, block a for head a.  Reshaped
    to m*h rows, row t*h + a is head a at position t: one score matrix holds
    every head, the head mask drops the scores between heads, and the causal
    mask of the rows is then each head's own causal mask.
    """
    m = q.shape[0]
    qr, kr, vr = (t.reshape(m * n_heads, t.shape[1] // n_heads) for t in (q, k, v))
    scores = matmul(qr, transpose(kr)) * scale + Tensor(_head_mask(m, n_heads), copy=False)
    return matmul(masked_softmax_rows(scores, causal=True), vr).reshape(m, v.shape[1])


class BaseModel:
    """Parameter registry plus the embedding / head plumbing every model uses."""

    arch = ""

    def __init__(self, config: ModelConfig):
        self.config = config
        self.params: dict[str, Tensor] = {}
        self.rng = Rng(derive_seed(config.seed, "init", self.arch))

    @property
    def display_name(self) -> str:
        return DISPLAY_NAMES[self.arch]

    def _param(self, name: str, array) -> Tensor:
        if name in self.params:
            raise ValueError(f"duplicate parameter name {name!r}")
        t = Tensor(array)
        self.params[name] = t
        return t

    def parameters(self) -> dict[str, Tensor]:
        return dict(self.params)

    # -- shared components --------------------------------------------------
    def _build_embedding(self):
        cfg = self.config
        self.embedding = self._param("embedding", init_weight(self.rng, cfg.d_model, (cfg.vocab_size, cfg.d_model)))

    def _build_trainable_positional(self):
        cfg = self.config
        self.pos_omega = self._param("pos.omega", np.zeros((1,)))
        # odd phases start at pi/2 so the table begins as the plain sinusoid
        phases = np.zeros(cfg.d_model)
        phases[1::2] = math.pi / 2.0
        self.pos_phases = self._param("pos.phases", phases)

    def positional(self, length: int) -> Tensor:
        return quantum_positional_encoding(length, self.config.d_model, self.pos_omega, self.pos_phases)

    def _build_head(self, in_dim: int | None = None):
        cfg = self.config
        d = in_dim or cfg.d_model
        self.head_w = self._param("head.w", init_weight(self.rng, d, (d, cfg.vocab_size)))
        self.head_b = self._param("head.b", init_bias(cfg.vocab_size))

    def lm_head(self, h: Tensor) -> Tensor:
        return matmul(h, self.head_w) + self.head_b

    def embed(self, token_ids) -> Tensor:
        return embedding_lookup(self.embedding, token_ids)

    # -- interface -----------------------------------------------------------
    def logits(self, token_ids) -> Tensor:
        raise NotImplementedError

    def check_length(self, n: int):
        if n > self.config.max_seq_len:
            raise ValueError(f"sequence of length {n} exceeds max_seq_len={self.config.max_seq_len}")

    # -- checkpoint support ---------------------------------------------------
    def state_arrays(self) -> dict[str, np.ndarray]:
        return {name: t.data.copy() for name, t in self.params.items()}

    def load_state_arrays(self, arrays: dict):
        """Copy in one array per parameter; names and shapes must match exactly."""
        missing = set(self.params) - set(arrays)
        if missing:
            raise ValueError(f"checkpoint missing parameters: {sorted(missing)}")
        unknown = set(arrays) - set(self.params)
        if unknown:
            raise ValueError(f"checkpoint has unknown parameters: {sorted(unknown)}")
        for name, t in self.params.items():
            arr = np.asarray(arrays[name], dtype=np.float64)
            if arr.shape != t.shape:
                raise ValueError(f"checkpoint parameter {name!r} has shape {arr.shape}, model expects {t.shape}")
            t.data[...] = arr


def generate(model, prompt_ids, max_new: int, mode: str = "greedy", temperature: float = 1.0,
             rng: Rng | None = None, eos_id: int = EOS_ID) -> list[int]:
    """Autoregressive decoding: greedy argmax or temperature sampling.

    Returns prompt plus generated ids; stops silently at EOS, ``max_new`` new
    tokens, or the model's maximum context length.
    """
    if not prompt_ids:
        raise ValueError("prompt must be non-empty")
    if len(prompt_ids) > model.config.max_seq_len:
        raise ValueError(f"prompt of length {len(prompt_ids)} exceeds max_seq_len={model.config.max_seq_len}")
    if mode not in ("greedy", "sample"):
        raise ValueError(f"unknown decode mode {mode!r}")
    if mode == "sample":
        if temperature <= 0:
            raise ValueError("sampling temperature must be positive")
        if rng is None:
            raise ValueError("sampling requires a seeded Rng")
    ids = list(prompt_ids)
    for _ in range(max_new):
        if len(ids) >= model.config.max_seq_len:
            break
        row = model.logits(ids).data[-1]
        if mode == "greedy":
            nxt = int(np.argmax(row))
        else:
            z = row / temperature
            z = z - z.max()
            p = np.exp(z)
            nxt = rng.choice_weighted(p / p.sum())
        if nxt == eos_id:
            break
        ids.append(nxt)
    return ids
