"""QRWKV: receptance-gated time mixing plus VQC-enhanced channel mixing.

Each layer runs three branches over all positions of the sequence at once:

* time mixing - key/value projections of x_t accumulate into a per-channel
  exponentially decayed memory m_t = lambda * m_(t-1) + v_t; a sigmoid
  receptance gate over [x_t; m_(t-1)] controls how much of u_t * m_t is
  exposed;
* channel mixing - x_t drives a fixed-layout circuit (first RX column takes
  input-derived angles, the rest are trainable); its Z readout is projected
  back to model width and combined with a small classical feed-forward of
  x_t, gated through GELU, and mixed with the previous position's activation;
* measurement attention - query/key/value vectors projected from the same
  circuit readout attend causally over the prefix: the shared
  ``causal_attention`` with one head and no scaling (plain inner products).

Residuals and the two LayerNorms follow:
h_t = LN(x_t + y_time), y_t = LN(h_t + c_t + y_attn).

This is RWKV's parallel mode: the circuit runs for every position in one
simulator call, the memory (the only recurrence) is one ``decay_scan``, and
rows t-1 come from a row shift with a zero first row.

A pack of sequences is one block of rows.  Positions restart in each
sequence; the memory scan and the row shift restart at each sequence's first
row, and the pack's block-diagonal keep-mask confines the measurement
attention to each sequence's own prefix.  One sequence is the one-segment
pack.
"""

from __future__ import annotations

import math

import numpy as np

from ..numerics import (
    Tensor,
    broadcast_rows,
    concat,
    decay_scan,
    gelu,
    init_bias,
    init_circuit_params,
    init_weight,
    layer_norm,
    matmul,
    sigmoid,
)
from ..numerics.tensor import exp as t_exp
from ..numerics.tensor import neg as t_neg
from ..qsim import build_qrwkv_circuit, vqc_forward
from .common import BaseModel, Pack, causal_attention


def previous_rows(x: Tensor, starts) -> Tensor:
    """Row t of the result is row t-1 of x; the rows flagged in ``starts`` are zero.

    A zero row is the state before a sequence; ``starts`` flags the first row
    of every segment of a pack (``Pack.starts``).
    """
    return x[np.maximum(np.arange(x.shape[0]) - 1, 0)] * Tensor(~starts[:, None])


class QrwkvLayer:
    """One layer, run over all positions at once; parameters are registered on the owning model."""

    def __init__(self, model: BaseModel, index: int):
        cfg = model.config
        d, ff, nq = cfg.d_model, cfg.d_ff, cfg.qrwkv_qubits
        self.spec = build_qrwkv_circuit(nq)
        self.n_trainable_angles = self.spec.n_params - nq
        amp_dim = 2 ** nq
        p = f"layer{index}."
        rng = model.rng
        add = model._param
        # time mixing
        self.w_key = add(p + "time.w_key", init_weight(rng, d, (d, d)))
        self.w_value = add(p + "time.w_value", init_weight(rng, d, (d, d)))
        self.w_recept = add(p + "time.w_recept", init_weight(rng, 2 * d, (2 * d, d)))
        self.b_recept = add(p + "time.b_recept", init_bias(d))
        # decay constants tau stay positive through a log parameterization
        self.log_tau = add(p + "time.log_tau", np.full(d, math.log(2.0)))
        self.ln1_g = add(p + "ln1.gain", init_bias(d) + 1.0)
        self.ln1_b = add(p + "ln1.shift", init_bias(d))
        # circuit feeds: amplitude input and first-column angles, both learned maps of x_t
        self.w_enc = add(p + "vqc.w_enc", init_weight(rng, d, (d, amp_dim)))
        self.w_ang = add(p + "vqc.w_ang", init_weight(rng, d, (d, nq)))
        self.theta = add(p + "vqc.theta", init_circuit_params(rng, self.n_trainable_angles))
        # readout projections back to model width
        self.w_emb = add(p + "vqc.w_emb", init_weight(rng, nq, (nq, d)))
        self.w_q = add(p + "vqc.w_q", init_weight(rng, nq, (nq, d)))
        self.w_k = add(p + "vqc.w_k", init_weight(rng, nq, (nq, d)))
        self.w_v = add(p + "vqc.w_v", init_weight(rng, nq, (nq, d)))
        # channel mixing
        self.w_mix1 = add(p + "mix.w_1", init_weight(rng, d, (d, d)))
        self.w_mix2 = add(p + "mix.w_2", init_weight(rng, d, (d, d)))
        self.b_mix1 = add(p + "mix.b_1", init_bias(d))
        self.w_mix3 = add(p + "mix.w_3", init_weight(rng, d, (d, d)))
        self.b_mix2 = add(p + "mix.b_2", init_bias(d))
        self.w_ffa = add(p + "mix.w_ff_in", init_weight(rng, d, (d, ff)))
        self.b_ffa = add(p + "mix.b_ff_in", init_bias(ff))
        self.w_ffb = add(p + "mix.w_ff_out", init_weight(rng, ff, (ff, d)))
        self.b_ffb = add(p + "mix.b_ff_out", init_bias(d))
        self.ln2_g = add(p + "ln2.gain", init_bias(d) + 1.0)
        self.ln2_b = add(p + "ln2.shift", init_bias(d))

    def decay(self) -> Tensor:
        # lambda = exp(-dt/tau) with dt = 1 and tau = exp(log_tau)
        return t_exp(t_neg(t_exp(t_neg(self.log_tau))))

    def time_mix(self, x: Tensor, starts):
        """Receptance-gated decayed memory for every row of x; returns (y_time, memory m).

        The memory restarts at the rows flagged in ``starts``.
        """
        u = matmul(x, self.w_key)
        mem = decay_scan(matmul(x, self.w_value), self.decay(), starts)
        r = sigmoid(matmul(concat([x, previous_rows(mem, starts)], axis=1), self.w_recept) + self.b_recept)
        return r * (u * mem), mem

    def circuit_readout(self, x: Tensor) -> Tensor:
        """Run the per-layer circuit on every row of x; returns an (m, n_qubits) readout.

        Each row gets its own first-column angles, followed by the shared
        trainable angles.
        """
        angles = matmul(x, self.w_ang)
        amp_in = matmul(x, self.w_enc)
        full_params = concat([angles, broadcast_rows(self.theta, x.shape[0])], axis=1)
        return vqc_forward(self.spec, full_params, amp_in)

    def channel_mix(self, x: Tensor, qemb: Tensor, starts):
        """Channel mixing of every row of x with its projected circuit readout ``qemb``; returns (c, h).

        Row t mixes with row t-1, and with zeros at the rows flagged in ``starts``.
        """
        mlp = matmul(gelu(matmul(x, self.w_ffa) + self.b_ffa), self.w_ffb) + self.b_ffb
        z = matmul(qemb, self.w_mix1) + matmul(mlp, self.w_mix2) + self.b_mix1
        h = gelu(z)
        c = matmul(h * previous_rows(h, starts), self.w_mix3) + self.b_mix2
        return c, h

    def forward(self, x: Tensor, pack: Pack) -> Tensor:
        """The layer over the rows of x, laid out as ``pack``."""
        readout = self.circuit_readout(x)
        y_time, _ = self.time_mix(x, pack.starts)
        c, _ = self.channel_mix(x, matmul(readout, self.w_emb), pack.starts)
        y_attn = causal_attention(matmul(readout, self.w_q), matmul(readout, self.w_k),
                                  matmul(readout, self.w_v), 1, 1.0, causal=pack.keep)
        h = layer_norm(x + y_time, self.ln1_g, self.ln1_b)
        return layer_norm(h + c + y_attn, self.ln2_g, self.ln2_b)


class QrwkvModel(BaseModel):
    arch = "qrwkv"

    def __init__(self, config):
        super().__init__(config)
        self._build_embedding()
        self._build_trainable_positional()
        self.layers = [QrwkvLayer(self, i) for i in range(config.n_blocks)]
        self._build_head()

    def logits(self, token_ids, lengths=None):
        pack = self.pack(token_ids, lengths)
        x = self.embed(token_ids) + self.positional(pack.positions)
        for layer in self.layers:
            x = layer.forward(x, pack)
        return self.lm_head(x)
