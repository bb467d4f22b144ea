"""QRWKV layer pieces: time mixing, channel mixing, measurement attention."""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from qtextgen.models import DecodeCache, Pack, build_model, causal_attention, default_config
from qtextgen.numerics import Tensor, matmul
from oracles import model_grad_check, qrwkv_layer_reference


def _model(seed=0, **kw):
    defaults = dict(vocab_size=11, max_seq_len=8, d_model=8, n_heads=2, d_ff=16, n_blocks=1, qrwkv_qubits=4)
    defaults.update(kw)
    return build_model(default_config("qrwkv", seed=seed, **defaults))


def measurement_attention(q, k, v):
    """One head over raw inner products, as each QRWKV layer calls it."""
    return causal_attention(q, k, v, 1, 1.0)


class TestTimeMixing:
    def test_large_tau_accumulates_values(self):
        model = _model(seed=1)
        layer = model.layers[0]
        layer.log_tau.data[...] = 20.0  # tau huge, decay ~ 1
        d = model.config.d_model
        x = np.random.default_rng(0).normal(size=(3, d))
        _, m = layer.time_mix(Tensor(x), Pack([3]).starts)
        total = (x @ layer.w_value.data).sum(axis=0)
        np.testing.assert_allclose(m.data[-1], total, atol=1e-6)

    def test_zero_receptance_weights_gate_half(self):
        model = _model(seed=2)
        layer = model.layers[0]
        layer.w_recept.data[...] = 0.0
        layer.b_recept.data[...] = 0.0
        d = model.config.d_model
        x = Tensor(np.random.default_rng(1).normal(size=(3, d)))
        y, m = layer.time_mix(x, Pack([3]).starts)
        u = x.data @ layer.w_key.data
        np.testing.assert_allclose(y.data, 0.5 * u * m.data, atol=1e-12)

    def test_three_step_recurrence_matches_unroll(self):
        model = _model(seed=3)
        layer = model.layers[0]
        d = model.config.d_model
        rng = np.random.default_rng(2)
        xs = [rng.normal(size=(1, d)) for _ in range(3)]
        lam = np.exp(-np.exp(-layer.log_tau.data))
        # hand-unrolled recurrence
        m_ref = np.zeros((1, d))
        ys_ref = []
        for x in xs:
            u = x @ layer.w_key.data
            v = x @ layer.w_value.data
            m_prev = m_ref.copy()
            m_ref = lam * m_ref + v
            r = 1.0 / (1.0 + np.exp(-(np.concatenate([x, m_prev], axis=1) @ layer.w_recept.data + layer.b_recept.data)))
            ys_ref.append(r * u * m_ref)
        y, _ = layer.time_mix(Tensor(np.concatenate(xs, axis=0)), Pack([3]).starts)
        for t, y_ref in enumerate(ys_ref):
            np.testing.assert_allclose(y.data[t:t + 1], y_ref, atol=1e-12)

    def test_decay_lies_in_unit_interval(self):
        model = _model(seed=4)
        lam = model.layers[0].decay().data
        assert np.all(lam > 0.0) and np.all(lam < 1.0)


def _qemb(layer, x: Tensor) -> Tensor:
    return matmul(layer.circuit_readout(x), layer.w_emb)


class TestChannelMixing:
    def test_zero_previous_activation_yields_bias(self):
        # the first row has no previous activation (h_(-1) = 0)
        model = _model(seed=5)
        layer = model.layers[0]
        d = model.config.d_model
        x = Tensor(np.random.default_rng(3).normal(size=(1, d)))
        c, _ = layer.channel_mix(x, _qemb(layer, x), Pack([1]).starts)
        np.testing.assert_allclose(c.data, layer.b_mix2.data[None, :], atol=1e-12)

    def test_zero_mix_weights_constant_activation(self):
        model = _model(seed=6)
        layer = model.layers[0]
        layer.w_mix1.data[...] = 0.0
        layer.w_mix2.data[...] = 0.0
        layer.b_mix1.data[...] = 0.7
        d = model.config.d_model
        x = Tensor(np.random.default_rng(4).normal(size=(3, d)))
        _, h = layer.channel_mix(x, _qemb(layer, x), Pack([3]).starts)
        acts = h.data
        np.testing.assert_allclose(acts[0], acts[1], atol=1e-15)
        np.testing.assert_allclose(acts[1], acts[2], atol=1e-15)


class TestMeasurementAttention:
    def test_single_step_returns_first_value(self):
        q = Tensor(np.random.default_rng(5).normal(size=(1, 4)))
        k = Tensor(np.random.default_rng(6).normal(size=(1, 4)))
        v = Tensor([[1.0, 2.0, 3.0, 4.0]])
        np.testing.assert_allclose(measurement_attention(q, k, v).data, v.data, atol=1e-15)

    def test_identical_keys_give_uniform_prefix(self):
        q = Tensor(np.random.default_rng(7).normal(size=(3, 4)))
        k = Tensor(np.tile(np.array([[0.4, -0.3, 0.2, 0.1]]), (3, 1)))
        v = Tensor(np.eye(3, 4))
        out = measurement_attention(q, k, v).data
        np.testing.assert_allclose(out[2], [1 / 3, 1 / 3, 1 / 3, 0.0], atol=1e-12)

    def test_matches_hand_softmax_of_inner_products(self):
        rng = np.random.default_rng(8)
        q, k, v = rng.normal(size=(3, 4)), rng.normal(size=(3, 4)), rng.normal(size=(3, 4))
        out = measurement_attention(Tensor(q), Tensor(k), Tensor(v)).data
        for t in range(3):
            scores = np.array([q[t] @ k[j] for j in range(t + 1)])
            w = np.exp(scores - scores.max())
            w /= w.sum()
            np.testing.assert_allclose(out[t], w @ v[: t + 1], atol=1e-12)


class TestFullLayer:
    def test_zero_input_zero_params_is_finite_and_deterministic(self):
        model = _model(seed=7)
        layer = model.layers[0]
        for p in model.parameters().values():
            p.data[...] = 0.0
        x = Tensor(np.zeros((3, model.config.d_model)))
        a = layer.forward(x, Pack([3]), DecodeCache()).data
        b = layer.forward(x, Pack([3]), DecodeCache()).data
        assert np.isfinite(a).all()
        np.testing.assert_array_equal(a, b)

    def test_causality_first_row_fixed_under_later_permutation(self):
        model = _model(seed=8)
        a = model.logits([3, 4, 5, 6]).data
        b = model.logits([3, 6, 5, 4]).data
        np.testing.assert_array_equal(a[0], b[0])

    def test_full_gradient_check_on_three_tokens(self):
        model = _model(seed=9)
        assert model_grad_check(model, [1, 4, 6], [4, 6, 2], sample_per_param=4) < 1e-4


class TestParallelMatchesRecurrent:
    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 12))
    def test_layer_equals_recurrent_oracle(self, seed, length):
        model = _model(seed=seed % 1000)
        layer = model.layers[0]
        x = np.random.default_rng(seed).normal(size=(length, model.config.d_model))
        np.testing.assert_allclose(layer.forward(Tensor(x), Pack([length]), DecodeCache()).data,
                                   qrwkv_layer_reference(layer, x), rtol=0, atol=1e-12)

    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 12), st.data())
    def test_changing_a_row_leaves_earlier_rows_bit_identical(self, seed, length, data):
        model = _model(seed=seed % 1000)
        layer = model.layers[0]
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(length, model.config.d_model))
        t = data.draw(st.integers(0, length - 1))
        changed = x.copy()
        changed[t] = rng.normal(size=model.config.d_model)
        a = layer.forward(Tensor(x), Pack([length]), DecodeCache()).data
        b = layer.forward(Tensor(changed), Pack([length]), DecodeCache()).data
        np.testing.assert_array_equal(a[:t], b[:t])
        assert not np.array_equal(a[t], b[t])
