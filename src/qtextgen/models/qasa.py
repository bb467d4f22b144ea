"""QASA: per-token query/key/value vectors read out of variational circuits.

Each token embedding (plus its positional term) is split into head-width
chunks; every head owns three independent parameter vectors over the same
layered RY/CNOT topology.  Each chunk is amplitude-encoded, the circuit run,
and the per-qubit Z expectations become that head's Q/K/V rows.  The chunks of
all heads and positions form one block of rows, each row with its own head's
angles, so one simulator call per role runs every circuit of the sequence.
The shared causal scaled dot-product attention over those measurement vectors
feeds a two-layer feed-forward decoder, then the shared output head.

A pack of sequences is one block of rows: positions restart in each
sequence, and the pack's block-diagonal keep-mask confines attention to each
sequence's own prefix.  One sequence is the one-segment pack.
"""

from __future__ import annotations

import math

from ..numerics import broadcast_rows, concat, gelu, init_bias, init_circuit_params, init_weight, matmul
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
        self.circuit_params = []
        for a in range(h):
            self.circuit_params.append({
                role: self._param(f"head{a}.theta_{role}", init_circuit_params(self.rng, self.spec.n_params))
                for role in ("q", "k", "v")
            })
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
        angles = {role: broadcast_rows(concat([head[role] for head in self.circuit_params]), m)
                  .reshape(m * h, self.spec.n_params) for role in ("q", "k", "v")}
        q, k, v = (vqc_forward(self.spec, angles[role], chunks).reshape(m, h * nq) for role in ("q", "k", "v"))
        mixed = causal_attention(q, k, v, h, 1.0 / math.sqrt(nq), causal=pack.keep)
        decoded = matmul(gelu(matmul(mixed, self.dec_w1) + self.dec_b1), self.dec_w2) + self.dec_b2
        return self.lm_head(decoded)
