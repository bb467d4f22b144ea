"""QKSAN: attention whose scores blend a dot product with a kernel similarity.

Per head, queries/keys/values are affine projections of the block input.  A
feature map phi(z) = gaussian(z) * cos(z Omega^T + b) lifts Q and K rows into
a kernel space; log(relu(gamma) + eps) of their Gram matrix gamma is the score
bias of the shared causal attention, so the weights are proportional to
exp(dot-score) * kernel-similarity.  Values are modulated by a sigmoid/cosine
gate before mixing; all heads run at once as the leading axis of (h, m, .)
stacks.  The block adds a gated residual enhancement and a ReLU*cosine
feed-forward, each followed by LayerNorm.

Each per-head parameter family is stored once, in the layout the forward pass
reads, and named ``block<i>.heads.<name>``: the q/k/v weights as (d, h*dh)
column blocks (the transformer's layout) with (h*dh,) biases, and the
feature-map and gate parameters as (h, ., .) stacks whose entry a is head
a's.  Initial values are drawn head by head, so they do not depend on the
storage layout.

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


def feature_map(z: Tensor, block: QksanBlock) -> Tensor:
    """Row-wise gaussian envelope times a cosine bank for each head of an (h, m, dh) stack."""
    diff = z - block.mu
    sq = (diff * diff).sum(axis=2, keepdims=True)
    envelope = t_exp(-(sq / (2.0 * t_exp(2.0 * block.log_sigma))))
    phases = cos(matmul(z, transpose(block.omega, (0, 2, 1))) + block.b_phase)
    return envelope * phases


def _draw_head(rng, d: int, dh: int, dq: int) -> dict[str, np.ndarray]:
    """One head's initial arrays, drawn in this order; the block joins them over heads.

    Vectors that the (h, m, .) stacks broadcast over rows are drawn as (1, n).
    """
    return {
        "w_q": init_weight(rng, d, (d, dh)), "b_q": init_bias(dh),
        "w_k": init_weight(rng, d, (d, dh)), "b_k": init_bias(dh),
        "w_v": init_weight(rng, d, (d, dh)), "b_v": init_bias(dh),
        "feat.mu": init_bias((1, dh)),
        "feat.log_sigma": np.zeros((1, 1)),
        "feat.omega": rng.normal((dq, dh)) / math.sqrt(dh),
        "feat.b_phase": rng.uniform(0.0, 2.0 * math.pi, (1, dq)),
        "gate.u_v": init_weight(rng, dq, (dq, dh)),
        "gate.c_v": init_bias((1, dh)),
        "gate.w_omega": init_weight(rng, dh, (dh, dh)),
        "gate.b_omega": init_bias((1, dh)),
    }


class QksanBlock:
    def __init__(self, model: BaseModel, index: int):
        cfg = model.config
        d, ff = cfg.d_model, cfg.d_ff
        p = f"block{index}."
        rng = model.rng
        add = model._param
        heads = [_draw_head(rng, d, cfg.head_dim, cfg.quantum_features) for _ in range(cfg.n_heads)]

        def columns(name):  # head a owns columns a*dh:(a+1)*dh
            return add(p + "heads." + name, np.concatenate([head[name] for head in heads], axis=-1))

        def stack(name):  # entry a is head a's
            return add(p + "heads." + name, np.stack([head[name] for head in heads]))

        self.w_q, self.b_q, self.w_k, self.b_k, self.w_v, self.b_v = map(
            columns, ("w_q", "b_q", "w_k", "b_k", "w_v", "b_v"))
        self.mu, self.log_sigma, self.omega, self.b_phase = map(
            stack, ("feat.mu", "feat.log_sigma", "feat.omega", "feat.b_phase"))
        self.u_v, self.c_v, self.w_omega, self.b_omega = map(
            stack, ("gate.u_v", "gate.c_v", "gate.w_omega", "gate.b_omega"))
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

    def attention(self, x: Tensor, keep) -> Tensor:
        """Every head's kernel attention over the rows of x, as an (h, m, head_dim) stack.

        ``keep`` is the causal keep-mask of the call's pack (``Pack.keep``).
        """
        h = self.mu.shape[0]
        q, k, v = (split_heads(matmul(x, w) + b, h)
                   for w, b in ((self.w_q, self.b_q), (self.w_k, self.b_k), (self.w_v, self.b_v)))
        gamma = matmul(feature_map(q, self), transpose(feature_map(k, self), (0, 2, 1)))
        # the cosine bank can make individual kernel entries negative even
        # though each head's Gram matrix is PSD; clamp before the log
        bias = log(relu(gamma) + SCORE_EPS)
        gate = (sigmoid(matmul(feature_map(v, self), self.u_v) + self.c_v)
                * cos(matmul(v, transpose(self.w_omega, (0, 2, 1))) + self.b_omega))
        return causal_attention(q, k, v * gate, h, 1.0 / math.sqrt(q.shape[2]), bias, keep)

    def multi_head(self, x: Tensor, keep) -> Tensor:
        mixed = transpose(self.attention(x, keep), (1, 0, 2)).reshape(x.shape[0], -1)
        return matmul(mixed, self.w_o) + self.b_o

    def forward(self, x: Tensor, keep) -> Tensor:
        y = self.multi_head(x, keep)
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
