"""QASA: per-token query/key/value vectors read out of variational circuits.

Each token embedding (plus its positional term) is split into head-width
chunks; every head owns three independent parameter vectors over the same
layered RY/CNOT topology.  Each token's chunk is amplitude-encoded, the
circuit run, and the per-qubit Z expectations become that head's Q/K/V rows;
one simulator call per head and role runs the circuit for every token.  Causal
scaled dot-product attention over those measurement vectors feeds a two-layer
feed-forward decoder, then the shared output head.
"""

from __future__ import annotations

from ..numerics import concat, gelu, init_bias, init_circuit_params, init_weight, matmul
from ..qsim import build_qasa_circuit, vqc_forward
from .common import BaseModel, classical_attention


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

    def head_qkv(self, chunk, head: int):
        """Circuit readouts of one head's (m, head_dim) chunk: three (m, n_qubits) matrices."""
        theta = self.circuit_params[head]
        return tuple(vqc_forward(self.spec, theta[role], chunk) for role in ("q", "k", "v"))

    def logits(self, token_ids):
        m = len(token_ids)
        self.check_length(m)
        dh, h = self.config.head_dim, self.config.n_heads
        x = self.embed(token_ids) + self.positional(m)
        head_outs = []
        for a in range(h):
            q, k, v = self.head_qkv(x[:, a * dh:(a + 1) * dh], a)
            head_outs.append(classical_attention(q, k, v))
        mixed = concat(head_outs, axis=1)
        decoded = matmul(gelu(matmul(mixed, self.dec_w1) + self.dec_b1), self.dec_w2) + self.dec_b2
        return self.lm_head(decoded)
