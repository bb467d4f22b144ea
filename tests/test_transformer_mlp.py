"""Classical baselines: causality, degenerate cases, gradient checks."""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from qtextgen.models import build_model, default_config
from qtextgen.numerics import Rng
from oracles import mlp_logits_reference, model_grad_check


def _tiny(arch, seed=0, **kw):
    defaults = dict(vocab_size=11, max_seq_len=8, d_model=8, n_heads=2, d_ff=16, n_blocks=1, quantum_features=8)
    defaults.update(kw)
    return build_model(default_config(arch, seed=seed, **defaults))


class TestTransformer:
    def test_single_token_single_head_finite(self):
        model = _tiny("transformer", n_heads=1)
        out = model.logits([4]).data
        assert out.shape == (1, 11)
        assert np.isfinite(out).all()

    def test_causality_under_suffix_perturbation(self):
        model = _tiny("transformer", seed=5)
        rng = Rng(3)
        for _ in range(20):
            ids = [1 + rng.randrange(10) for _ in range(6)]
            changed = list(ids)
            changed[4] = 1 + rng.randrange(10)
            changed[5] = 1 + rng.randrange(10)
            a = model.logits(ids).data
            b = model.logits(changed).data
            np.testing.assert_array_equal(a[:4], b[:4])

    def test_gradients_match_finite_differences(self):
        model = _tiny("transformer", seed=7)
        assert model_grad_check(model, [1, 4, 6], [4, 6, 2], sample_per_param=4) < 1e-4

    def test_depth_changes_output(self):
        one = _tiny("transformer", seed=2, n_blocks=1)
        two = _tiny("transformer", seed=2, n_blocks=2)
        a = one.logits([1, 2, 3]).data
        b = two.logits([1, 2, 3]).data
        assert not np.allclose(a, b)


class TestMlp:
    def test_zero_weights_output_bias_everywhere(self):
        model = _tiny("mlp")
        for name, p in model.parameters().items():
            p.data[...] = 0.0
        model.b_2.data[...] = np.arange(11.0)
        out = model.logits([1, 2, 3]).data
        for row in out:
            np.testing.assert_array_equal(row, np.arange(11.0))

    def test_window_causality_is_exact(self):
        model = _tiny("mlp", seed=9)
        ids = [1, 2, 3, 4, 5, 6]
        changed = list(ids)
        changed[5] = 9
        a = model.logits(ids).data
        b = model.logits(changed).data
        np.testing.assert_array_equal(a[:5], b[:5])

    def test_window_limits_context(self):
        # with window 3, logits at position t ignore tokens before t-2
        model = _tiny("mlp", seed=9)
        a = model.logits([1, 2, 3, 4, 5]).data
        b = model.logits([9, 2, 3, 4, 5]).data
        np.testing.assert_array_equal(a[3:], b[3:])

    def test_gradients_match_finite_differences(self):
        model = _tiny("mlp", seed=11)
        assert model_grad_check(model, [1, 4, 6], [4, 6, 2], sample_per_param=6) < 1e-4

    @given(st.integers(0, 1000), st.integers(1, 5), st.lists(st.integers(0, 10), min_size=1, max_size=8))
    def test_logits_equal_window_concat_reference(self, seed, window, ids):
        model = _tiny("mlp", seed=seed, mlp_window=window)
        np.testing.assert_array_equal(model.logits(ids).data, mlp_logits_reference(model, ids))


def test_all_architectures_finite_with_params_in_unit_box():
    rng = Rng(21)
    for arch in ("transformer", "mlp", "qksan", "qasa", "qrwkv"):
        model = _tiny(arch, seed=13)
        for p in model.parameters().values():
            p.data[...] = rng.uniform(-1.0, 1.0, p.shape)
        out = model.logits([1, 5, 9, 2, 7, 4]).data
        assert np.isfinite(out).all(), arch
