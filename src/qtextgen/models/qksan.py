"""QKSAN: attention whose scores blend a dot product with a kernel similarity.

Per head, queries/keys/values are affine projections of the block input.  A
feature map phi(z) = gaussian(z) * cos(z Omega^T + b) lifts Q and K rows into
a kernel space; log(relu(gamma) + eps) of their Gram matrix gamma is the score
bias of the shared causal attention, so the weights are proportional to
exp(dot-score) * kernel-similarity.  Values are modulated by a sigmoid/cosine
gate before mixing; all heads run at once as the leading axis of (h, m, .)
stacks.  The block adds a gated residual enhancement and a ReLU*cosine
feed-forward, each followed by LayerNorm.

A pack of sequences is one block of rows: positions restart in each
sequence, and the pack's block-diagonal keep-mask masks the scores with the
kernel bias added, so no row weighs another sequence's kernel entries.  One
sequence is the one-segment pack.
"""

from __future__ import annotations

import math

import numpy as np

from ..numerics import (
    Tensor,
    concat,
    cos,
    init_bias,
    init_weight,
    layer_norm,
    log,
    matmul,
    relu,
    sigmoid,
    transpose,
)
from ..numerics.tensor import exp as t_exp
from .common import BaseModel, causal_attention, split_heads

SCORE_EPS = 1e-6  # floor inside log(kernel + eps)


def feature_map(z: Tensor, p: dict) -> Tensor:
    """Row-wise gaussian envelope times a cosine bank for each head of an (h, m, dh) stack; ``p``: head_stacks."""
    diff = z - p["mu"]
    sq = (diff * diff).sum(axis=2, keepdims=True)
    envelope = t_exp(-(sq / (2.0 * t_exp(2.0 * p["log_sigma"]))))
    phases = cos(matmul(z, transpose(p["omega"], (0, 2, 1))) + p["b_phase"])
    return envelope * phases


class QksanHead:
    """Projections plus feature-map and value-gate parameters for one head (the block runs all heads at once)."""

    def __init__(self, model: BaseModel, block: int, index: int):
        cfg = model.config
        d, dh, dq = cfg.d_model, cfg.head_dim, cfg.quantum_features
        self.dh, self.dq = dh, dq
        p = f"block{block}.head{index}."
        rng = model.rng
        add = model._param
        self.w_q = add(p + "w_q", init_weight(rng, d, (d, dh)))
        self.b_q = add(p + "b_q", init_bias(dh))
        self.w_k = add(p + "w_k", init_weight(rng, d, (d, dh)))
        self.b_k = add(p + "b_k", init_bias(dh))
        self.w_v = add(p + "w_v", init_weight(rng, d, (d, dh)))
        self.b_v = add(p + "b_v", init_bias(dh))
        self.mu = add(p + "feat.mu", init_bias(dh))
        self.log_sigma = add(p + "feat.log_sigma", np.zeros(()))
        self.omega = add(p + "feat.omega", rng.normal((dq, dh)) / math.sqrt(dh))
        self.b_phase = add(p + "feat.b_phase", rng.uniform(0.0, 2.0 * math.pi, (dq,)))
        self.u_v = add(p + "gate.u_v", init_weight(rng, dq, (dq, dh)))
        self.c_v = add(p + "gate.c_v", init_bias(dh))
        self.w_omega = add(p + "gate.w_omega", init_weight(rng, dh, (dh, dh)))
        self.b_omega = add(p + "gate.b_omega", init_bias(dh))


class QksanBlock:
    def __init__(self, model: BaseModel, index: int):
        cfg = model.config
        d, ff = cfg.d_model, cfg.d_ff
        p = f"block{index}."
        rng = model.rng
        add = model._param
        self.heads = [QksanHead(model, index, a) for a in range(cfg.n_heads)]
        self.w_o = add(p + "w_o", init_weight(rng, d, (d, d)))
        self.b_o = add(p + "b_o", init_bias(d))
        self.w_gate_y = add(p + "res.w_y", init_weight(rng, d, (d, d)))
        self.b_gate_y = add(p + "res.b_y", init_bias(d))
        self.w_gate_s = add(p + "res.w_s", init_weight(rng, d, (d, d)))
        self.b_gate_s = add(p + "res.b_s", init_bias(d))
        self.w_gate_c = add(p + "res.w_c", init_weight(rng, d, (d, d)))
        self.b_gate_c = add(p + "res.b_c", init_bias(d))
        self.ln1_g = add(p + "ln1.gain", init_bias(d) + 1.0)
        self.ln1_b = add(p + "ln1.shift", init_bias(d))
        self.w_1 = add(p + "ffn.w_1", init_weight(rng, d, (d, ff)))
        self.b_1 = add(p + "ffn.b_1", init_bias(ff))
        self.w_c = add(p + "ffn.w_cos", init_weight(rng, d, (d, ff)))
        self.b_c = add(p + "ffn.b_cos", init_bias(ff))
        self.w_2 = add(p + "ffn.w_2", init_weight(rng, ff, (ff, d)))
        self.b_2 = add(p + "ffn.b_2", init_bias(d))
        self.ln2_g = add(p + "ln2.gain", init_bias(d) + 1.0)
        self.ln2_b = add(p + "ln2.shift", init_bias(d))

    def head_stacks(self) -> dict[str, Tensor]:
        """Head a's feature-map and gate parameters as entry a of (h, ., .) stacks; vectors become rows."""
        names = ("mu", "log_sigma", "omega", "b_phase", "u_v", "c_v", "w_omega", "b_omega")
        stacks = {}
        for name in names:
            shape = getattr(self.heads[0], name).shape
            joined = concat([getattr(head, name) for head in self.heads])
            stacks[name] = joined.reshape((len(self.heads),) + (1,) * (2 - len(shape)) + shape)
        return stacks

    def attention(self, x: Tensor, causal=True) -> Tensor:
        """Every head's kernel attention over the rows of x, as an (h, m, head_dim) stack.

        ``causal`` is True for one sequence or the keep-mask of a pack.
        """
        h, p = len(self.heads), self.head_stacks()
        q, k, v = (split_heads(matmul(x, concat([getattr(head, "w_" + r) for head in self.heads], axis=1))
                               + concat([getattr(head, "b_" + r) for head in self.heads]), h) for r in "qkv")
        gamma = matmul(feature_map(q, p), transpose(feature_map(k, p), (0, 2, 1)))
        # the cosine bank can make individual kernel entries negative even
        # though each head's Gram matrix is PSD; clamp before the log
        bias = log(relu(gamma) + SCORE_EPS)
        gate = (sigmoid(matmul(feature_map(v, p), p["u_v"]) + p["c_v"])
                * cos(matmul(v, transpose(p["w_omega"], (0, 2, 1))) + p["b_omega"]))
        return causal_attention(q, k, v * gate, h, 1.0 / math.sqrt(q.shape[2]), bias, causal)

    def multi_head(self, x: Tensor, causal=True) -> Tensor:
        mixed = transpose(self.attention(x, causal), (1, 0, 2)).reshape(x.shape[0], -1)
        return matmul(mixed, self.w_o) + self.b_o

    def forward(self, x: Tensor, causal=True) -> Tensor:
        y = self.multi_head(x, causal)
        gate = sigmoid(matmul(x, self.w_gate_s) + self.b_gate_s) * cos(matmul(x, self.w_gate_c) + self.b_gate_c)
        enhanced = relu(matmul(y, self.w_gate_y) + self.b_gate_y) * gate
        z1 = layer_norm(x + enhanced, self.ln1_g, self.ln1_b)
        hidden = relu(matmul(z1, self.w_1) + self.b_1) * cos(matmul(z1, self.w_c) + self.b_c)
        ffn = matmul(hidden, self.w_2) + self.b_2
        return layer_norm(z1 + ffn, self.ln2_g, self.ln2_b)


class QksanModel(BaseModel):
    arch = "qksan"

    def __init__(self, config):
        super().__init__(config)
        self._build_embedding()
        self._build_trainable_positional()
        self.blocks = [QksanBlock(self, i) for i in range(config.n_blocks)]
        self._build_head()

    def logits(self, token_ids, lengths=None):
        pack = self.pack(token_ids, lengths)
        x = self.embed(token_ids) + self.positional(pack.positions)
        for block in self.blocks:
            x = block.forward(x, pack.keep)
        return self.lm_head(x)
