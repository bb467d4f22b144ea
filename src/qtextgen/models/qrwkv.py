"""QRWKV: receptance-gated time mixing plus VQC-enhanced channel mixing.

Per layer and time step the model runs three branches:

* time mixing - key/value projections of x_t accumulate into a per-channel
  exponentially decayed memory m_t; a sigmoid receptance gate over
  [x_t; m_(t-1)] controls how much of u_t * m_t is exposed;
* channel mixing - x_t drives a fixed-layout circuit (first RX column takes
  input-derived angles, the rest are trainable); its Z readout is projected
  back to model width and combined with a small classical feed-forward of
  x_t, gated through GELU, and mixed with the previous step's activation;
* measurement attention - query/key/value vectors projected from the same
  circuit readout attend causally over the prefix (plain inner products, no
  scaling).

Residuals and the two LayerNorms follow:
h_t = LN(x_t + y_time), y_t = LN(h_t + c_t + y_attn).

The circuit reads x_t alone, so each layer runs it for every position in one
simulator call, and projects the readout for all positions at once, before
its time loop.
"""

from __future__ import annotations

import math

import numpy as np

from ..numerics import (
    Tensor,
    broadcast_rows,
    concat,
    gelu,
    init_bias,
    init_circuit_params,
    init_weight,
    layer_norm,
    masked_softmax_rows,
    matmul,
    sigmoid,
    transpose,
)
from ..numerics.tensor import exp as t_exp
from ..numerics.tensor import neg as t_neg
from ..qsim import build_qrwkv_circuit, vqc_forward
from .common import BaseModel


def measurement_attention(q: Tensor, k: Tensor, v: Tensor) -> Tensor:
    """Causal prefix softmax over raw inner products of readout-derived rows."""
    weights = masked_softmax_rows(matmul(q, transpose(k)), causal=True)
    return matmul(weights, v)


class QrwkvLayer:
    """One recurrent layer; parameters are registered on the owning model."""

    def __init__(self, model: BaseModel, index: int):
        cfg = model.config
        d, ff, nq = cfg.d_model, cfg.d_ff, cfg.qrwkv_qubits
        self.d = d
        self.nq = nq
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

    def time_mix(self, x: Tensor, m_prev: Tensor, lam: Tensor | None = None):
        """One step of decayed accumulation behind the receptance gate.

        Returns (exposed output y_time, updated memory m_t).
        """
        if lam is None:
            lam = self.decay()
        u = matmul(x, self.w_key)
        v = matmul(x, self.w_value)
        m_t = lam * m_prev + v
        r = sigmoid(matmul(concat([x, m_prev], axis=1), self.w_recept) + self.b_recept)
        return r * (u * m_t), m_t

    def circuit_readout(self, x: Tensor) -> Tensor:
        """Run the per-layer circuit on every row of x; returns an (m, n_qubits) readout.

        Each row gets its own first-column angles, followed by the shared
        trainable angles.
        """
        angles = matmul(x, self.w_ang)
        amp_in = matmul(x, self.w_enc)
        full_params = concat([angles, broadcast_rows(self.theta, x.shape[0])], axis=1)
        return vqc_forward(self.spec, full_params, amp_in)

    def channel_mix(self, x: Tensor, h_prev: Tensor, qemb: Tensor | None = None):
        """VQC-enhanced channel mixing; returns (c_t, h_t).

        z_t combines the projected circuit readout ``qemb`` (computed from
        x_t when not given) with a classical GELU feed-forward of x_t; c_t
        mixes h_t with the previous activation.
        """
        if qemb is None:
            qemb = matmul(self.circuit_readout(x), self.w_emb)
        mlp = matmul(gelu(matmul(x, self.w_ffa) + self.b_ffa), self.w_ffb) + self.b_ffb
        z = matmul(qemb, self.w_mix1) + matmul(mlp, self.w_mix2) + self.b_mix1
        h_t = gelu(z)
        c_t = matmul(h_t * h_prev, self.w_mix3) + self.b_mix2
        return c_t, h_t

    def forward(self, x: Tensor) -> Tensor:
        m = x.shape[0]
        d = self.d
        lam = self.decay()
        m_state = Tensor(np.zeros((1, d)))
        h_state = Tensor(np.zeros((1, d)))
        readout = self.circuit_readout(x)
        qemb = matmul(readout, self.w_emb)
        h_rows, c_rows = [], []
        for t in range(m):
            x_t = x[t:t + 1, :]
            y_time, m_state = self.time_mix(x_t, m_state, lam)
            h_rows.append(layer_norm(x_t + y_time, self.ln1_g, self.ln1_b))
            c_t, h_state = self.channel_mix(x_t, h_state, qemb[t:t + 1, :])
            c_rows.append(c_t)
        h_all = concat(h_rows, axis=0)
        c_all = concat(c_rows, axis=0)
        y_attn = measurement_attention(matmul(readout, self.w_q), matmul(readout, self.w_k),
                                       matmul(readout, self.w_v))
        return layer_norm(h_all + c_all + y_attn, self.ln2_g, self.ln2_b)


class QrwkvModel(BaseModel):
    arch = "qrwkv"

    def __init__(self, config):
        super().__init__(config)
        self._build_embedding()
        self._build_trainable_positional()
        self.layers = [QrwkvLayer(self, i) for i in range(config.n_blocks)]
        self._build_head()

    def logits(self, token_ids):
        m = len(token_ids)
        self.check_length(m)
        x = self.embed(token_ids) + self.positional(m)
        for layer in self.layers:
            x = layer.forward(x)
        return self.lm_head(x)
