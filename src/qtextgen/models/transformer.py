"""Decoder-only transformer baseline: pre-LN blocks, ReLU feed-forward,
fixed sinusoidal positions, causal scaled dot-product attention.

A pack of sequences runs as one block of rows: each row reads the table row
of its position within its own sequence, and the pack's block-diagonal
keep-mask confines every attention row to its own sequence's prefix.  One
sequence is the one-segment pack.
"""

from __future__ import annotations

import math

from ..numerics import Tensor, init_bias, init_weight, layer_norm, matmul, relu
from .common import BaseModel, causal_attention, sinusoidal_table


class TransformerModel(BaseModel):
    arch = "transformer"

    def __init__(self, config):
        super().__init__(config)
        d, ff = config.d_model, config.d_ff
        self._build_embedding()
        self._pos_table = sinusoidal_table(config.max_seq_len, d)
        self.blocks = []
        for i in range(config.n_blocks):
            p = f"block{i}."
            self.blocks.append({
                "ln1_g": self._param(p + "ln1.gain", init_bias(d) + 1.0),
                "ln1_b": self._param(p + "ln1.shift", init_bias(d)),
                "w_q": self._param(p + "attn.w_q", init_weight(self.rng, d, (d, d))),
                "b_q": self._param(p + "attn.b_q", init_bias(d)),
                "w_k": self._param(p + "attn.w_k", init_weight(self.rng, d, (d, d))),
                "b_k": self._param(p + "attn.b_k", init_bias(d)),
                "w_v": self._param(p + "attn.w_v", init_weight(self.rng, d, (d, d))),
                "b_v": self._param(p + "attn.b_v", init_bias(d)),
                "w_o": self._param(p + "attn.w_o", init_weight(self.rng, d, (d, d))),
                "b_o": self._param(p + "attn.b_o", init_bias(d)),
                "ln2_g": self._param(p + "ln2.gain", init_bias(d) + 1.0),
                "ln2_b": self._param(p + "ln2.shift", init_bias(d)),
                "w_1": self._param(p + "ffn.w_1", init_weight(self.rng, d, (d, ff))),
                "b_1": self._param(p + "ffn.b_1", init_bias(ff)),
                "w_2": self._param(p + "ffn.w_2", init_weight(self.rng, ff, (ff, d))),
                "b_2": self._param(p + "ffn.b_2", init_bias(d)),
            })
        self.final_g = self._param("final_ln.gain", init_bias(d) + 1.0)
        self.final_b = self._param("final_ln.shift", init_bias(d))
        self._build_head()

    def logits(self, token_ids, lengths=None) -> Tensor:
        pack = self.pack(token_ids, lengths)
        h, scale = self.config.n_heads, 1.0 / math.sqrt(self.config.head_dim)
        x = self.embed(token_ids) + Tensor(self._pos_table[pack.positions])
        for blk in self.blocks:
            a = layer_norm(x, blk["ln1_g"], blk["ln1_b"])
            q = matmul(a, blk["w_q"]) + blk["b_q"]
            k = matmul(a, blk["w_k"]) + blk["b_k"]
            v = matmul(a, blk["w_v"]) + blk["b_v"]
            x = x + (matmul(causal_attention(q, k, v, h, scale, causal=pack.keep), blk["w_o"]) + blk["b_o"])
            b = layer_norm(x, blk["ln2_g"], blk["ln2_b"])
            x = x + (matmul(relu(matmul(b, blk["w_1"]) + blk["b_1"]), blk["w_2"]) + blk["b_2"])
        return self.lm_head(layer_norm(x, self.final_g, self.final_b))
