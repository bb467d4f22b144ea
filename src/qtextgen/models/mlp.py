"""Fixed-window MLP baseline: concatenate the last few token embeddings,
one GELU hidden layer, direct projection to logits.  Causal by construction.

In a pack of sequences each window stops at the start of its own sequence:
slots before it read zeros, exactly as for that sequence alone (the
one-segment pack).
"""

from __future__ import annotations

import numpy as np

from ..numerics import Tensor, gelu, init_bias, init_weight, matmul
from .common import BaseModel


class MlpModel(BaseModel):
    arch = "mlp"

    def __init__(self, config):
        super().__init__(config)
        d, ff, w = config.d_model, config.d_ff, config.mlp_window
        self._build_embedding()
        self.w_1 = self._param("w_1", init_weight(self.rng, w * d, (w * d, ff)))
        self.b_1 = self._param("b_1", init_bias(ff))
        self.w_2 = self._param("w_2", init_weight(self.rng, ff, (ff, config.vocab_size)))
        self.b_2 = self._param("b_2", init_bias(config.vocab_size))

    def logits(self, token_ids, lengths=None) -> Tensor:
        pack = self.pack(token_ids, lengths)
        m = len(token_ids)
        w, d = self.config.mlp_window, self.config.d_model
        # slot j of row t reads row t - (w - 1) + j; slots before the first
        # row of t's segment read that first row's id, then are zeroed
        window, first = np.arange(m)[:, None] + np.arange(1 - w, 1)[None, :], pack.first_rows[:, None]
        ids = np.asarray(token_ids, dtype=np.intp)[np.maximum(window, first)].reshape(-1)
        keep = Tensor((window >= first).reshape(-1, 1))
        stacked = (self.embed(ids) * keep).reshape(m, w * d)
        hidden = gelu(matmul(stacked, self.w_1) + self.b_1)
        return matmul(hidden, self.w_2) + self.b_2
