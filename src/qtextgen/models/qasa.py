"""QASA: per-token query/key/value vectors read out of variational circuits.

Each token embedding (plus its positional term) is split into head-width
chunks; every head owns three independent parameter vectors over the same
layered RY/CNOT topology.  Each chunk is amplitude-encoded, the circuit run,
and the per-qubit Z expectations become that head's Q/K/V rows.  The chunks of
all heads and positions form one block of rows, each row with its own head's
angles, so one simulator call per role runs every circuit of the sequence.
Each role's angles are stored as one (h, P) head stack (``heads.theta_q``,
``heads.theta_k``, ``heads.theta_v``), row a being head a's; a call repeats
the stack once per position, so row t*h + a reads head a's angles.
The shared causal scaled dot-product attention over those measurement vectors
feeds a two-layer feed-forward decoder, then the shared output head.

A pack of sequences is one block of rows: positions restart in each
sequence, and the pack's block-diagonal keep-mask confines attention to each
sequence's own prefix.  One sequence is the one-segment pack.
"""

from __future__ import annotations

import math

import numpy as np

from ..numerics import broadcast_rows, gelu, init_bias, init_circuit_params, init_weight, matmul
from ..qsim import build_qasa_circuit, vqc_forward
from .common import BaseModel, causal_attention


class QasaModel(BaseModel):
    arch = "qasa"

    def __init__(self, config):
        super().__init__(config)
        d, ff, h = config.d_model, config.d_ff, config.n_heads
        nq = config.qasa_qubits
        self.spec = build_qasa_circuit(nq, config.circuit_layers)
        self._build_embedding()
        self._build_trainable_positional()
        # head a's q, k and v angles are drawn in turn; row a of each role's (h, P) stack is head a's
        draws = [[init_circuit_params(self.rng, self.spec.n_params) for _ in "qkv"] for _ in range(h)]
        self.theta_q, self.theta_k, self.theta_v = (
            self._param(f"heads.theta_{role}", np.stack(arrays)) for role, arrays in zip("qkv", zip(*draws)))
        self.dec_w1 = self._param("decoder.w_1", init_weight(self.rng, h * nq, (h * nq, ff)))
        self.dec_b1 = self._param("decoder.b_1", init_bias(ff))
        self.dec_w2 = self._param("decoder.w_2", init_weight(self.rng, ff, (ff, d)))
        self.dec_b2 = self._param("decoder.b_2", init_bias(d))
        self._build_head()

    def logits(self, token_ids, lengths=None):
        pack = self.pack(token_ids, lengths)
        m = len(token_ids)
        h, nq = self.config.n_heads, self.config.qasa_qubits
        # row t*h + a is head a's chunk of position t, run with head a's angles
        chunks = (self.embed(token_ids) + self.positional(pack.positions)).reshape(m * h, self.config.head_dim)
        q, k, v = (vqc_forward(self.spec, broadcast_rows(theta, m).reshape(m * h, self.spec.n_params), chunks)
                   .reshape(m, h * nq) for theta in (self.theta_q, self.theta_k, self.theta_v))
        mixed = causal_attention(q, k, v, h, 1.0 / math.sqrt(nq), causal=pack.keep)
        decoded = matmul(gelu(matmul(mixed, self.dec_w1) + self.dec_b1), self.dec_w2) + self.dec_b2
        return self.lm_head(decoded)
