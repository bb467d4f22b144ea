"""Components shared by every architecture: embeddings, positional tables,
multi-head causal attention, the output head, and autoregressive decoding.

Every ``logits(token_ids, lengths)`` call runs one *pack*: the flat
concatenation of one or more sequences, ``lengths`` giving each segment's
size.  A :class:`Pack` holds what the models need to keep the segments apart
(packing without cross-contamination, Krell et al., arXiv:2107.02027):
positions that restart in each segment, the segments' first rows, and one
block-diagonal causal keep-mask shared by every attention layer.  A plain
``logits(token_ids)`` call is the one-segment case.
"""

from __future__ import annotations

import math
from functools import cached_property

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
    "Pack",
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


def quantum_positional_encoding(positions, d: int, omega: Tensor, phases: Tensor) -> Tensor:
    """Sinusoidal rows at ``positions`` modulated by a trainable frequency and per-column phases.

    Row t, at position p = positions[t]:
    even columns: sin(p / 10000^(2i/d)) * cos(omega*p + phase_even);
    odd columns:  cos(p / 10000^(2i/d)) * sin(omega*p + phase_odd).
    """
    if d % 2 != 0:
        raise ValueError("positional encoding needs an even feature dimension")
    pos = np.asarray(positions, dtype=np.float64)[:, None]
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


class Pack:
    """Row layout of one ``logits`` call: one segment of consecutive rows per sequence.

    Built from the segment ``lengths``; each field is computed on first use,
    since a model reads only the fields it needs.
    """

    def __init__(self, lengths):
        self.lengths = np.asarray(lengths, dtype=np.intp)

    @cached_property
    def first_rows(self) -> np.ndarray:
        """Per row, the index of its segment's first row."""
        return np.repeat(np.cumsum(self.lengths) - self.lengths, self.lengths)

    @cached_property
    def positions(self) -> np.ndarray:
        """Per row, its position within its segment: 0 at each segment's first row."""
        return np.arange(self.first_rows.size) - self.first_rows

    @cached_property
    def starts(self) -> np.ndarray:
        """True at each segment's first row."""
        return self.positions == 0

    @cached_property
    def keep(self) -> np.ndarray:
        """Block-diagonal causal keep-mask: row i attends to row j when both lie in one segment and j <= i."""
        first = self.first_rows
        return np.tri(first.size, dtype=bool) & (first[:, None] == first[None, :])


def split_heads(x: Tensor, n_heads: int) -> Tensor:
    """(m, h*w) rows whose column block a belongs to head a -> the (h, m, w) stack of head rows."""
    return transpose(x.reshape(x.shape[0], n_heads, -1), (1, 0, 2))


def causal_attention(q: Tensor, k: Tensor, v: Tensor, n_heads: int, scale: float, bias: Tensor | None = None,
                     causal=True) -> Tensor:
    """Causally masked softmax(q k^T * scale + bias) v for every head at once.

    q, k and v are each (m, h*w) rows, column block a for head a, or an
    (h, m, w) stack of head rows.  The heads are the batch axis of one
    (h, m, m) score stack; ``bias`` is an optional additive term of that
    shape.  ``causal`` is True for one sequence or a pack's keep-mask
    (:class:`Pack`); it masks the scores with the bias added.  The result has
    the layout of v.
    """
    qh, kh, vh = (t if t.ndim == 3 else split_heads(t, n_heads) for t in (q, k, v))
    scores = matmul(qh, transpose(kh, (0, 2, 1))) * scale
    if bias is not None:
        scores = scores + bias
    out = matmul(masked_softmax_rows(scores, causal), vh)
    return out if v.ndim == 3 else transpose(out, (1, 0, 2)).reshape(v.shape)


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

    def positional(self, positions) -> Tensor:
        return quantum_positional_encoding(positions, self.config.d_model, self.pos_omega, self.pos_phases)

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
    def logits(self, token_ids, lengths=None) -> Tensor:
        """Next-token logits for every row of a pack; ``lengths`` as for :meth:`pack`."""
        raise NotImplementedError

    def pack(self, token_ids, lengths=None) -> Pack:
        """The layout of a ``logits`` call on ``token_ids`` split into segments of ``lengths``.

        ``lengths`` of None is one segment holding every id.  Raises
        ValueError unless the lengths sum to ``len(token_ids)``, each is at
        least 1, and none exceeds ``max_seq_len``.
        """
        n = len(token_ids)
        lengths = [n] if lengths is None else [int(size) for size in lengths]
        if sum(lengths) != n:
            raise ValueError(f"segment lengths sum to {sum(lengths)}, but {n} token ids were given")
        if min(lengths, default=0) < 1:
            raise ValueError("every segment needs at least one token id")
        if max(lengths) > self.config.max_seq_len:
            raise ValueError(f"sequence of length {max(lengths)} exceeds max_seq_len={self.config.max_seq_len}")
        return Pack(lengths)

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
