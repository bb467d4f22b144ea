"""QASA model: circuit-readout attention, decoder wiring, gradients."""

import numpy as np

from qtextgen.models import build_model, default_config
from qtextgen.numerics import Rng
from oracles import model_grad_check


def _model(seed=0, **kw):
    defaults = dict(vocab_size=11, max_seq_len=8, d_model=8, n_heads=2, d_ff=16, n_blocks=1, circuit_layers=2)
    defaults.update(kw)
    return build_model(default_config("qasa", seed=seed, **defaults))


def test_qubit_count_follows_head_width():
    assert _model().config.qasa_qubits == 2           # head width 4
    wide = _model(d_model=32, n_heads=4)              # head width 8
    assert wide.config.qasa_qubits == 3


def test_circuit_parameter_shapes():
    model = _model()
    spec = model.spec
    assert spec.n_params == model.config.qasa_qubits * model.config.circuit_layers
    for head in model.circuit_params:
        for role in ("q", "k", "v"):
            assert head[role].shape == (spec.n_params,)


def test_three_independent_circuits_per_head():
    model = _model(seed=3)
    head = model.circuit_params[0]
    assert not np.array_equal(head["q"].data, head["k"].data)
    assert not np.array_equal(head["k"].data, head["v"].data)


def test_single_token_has_no_cross_attention():
    # the first position's logits never depend on later tokens
    model = _model(seed=4)
    a = model.logits([5]).data
    b = model.logits([5, 7, 9]).data
    np.testing.assert_allclose(a[0], b[0], atol=1e-12)


def test_zero_circuit_params_forward_is_finite():
    model = _model(seed=5)
    for head in model.circuit_params:
        for role in ("q", "k", "v"):
            head[role].data[...] = 0.0
    out = model.logits([1, 4, 6]).data
    assert np.isfinite(out).all()


def test_measurement_rows_lie_in_unit_interval():
    model = _model(seed=6)
    x = model.embed([1, 4, 6]) + model.positional(3)
    q, k, v = model.head_qkv(x[:, 0:4], 0)
    for mat in (q, k, v):
        assert np.all(mat.data >= -1.0 - 1e-12)
        assert np.all(mat.data <= 1.0 + 1e-12)


def test_causality_under_suffix_perturbation():
    model = _model(seed=7)
    rng = Rng(1)
    for _ in range(10):
        ids = [1 + rng.randrange(10) for _ in range(5)]
        changed = list(ids)
        changed[-1] = 1 + rng.randrange(10)
        np.testing.assert_array_equal(model.logits(ids).data[:4], model.logits(changed).data[:4])


def test_full_gradient_check_on_two_tokens():
    model = _model(seed=8)
    assert model_grad_check(model, [1, 4], [4, 2], sample_per_param=6) < 1e-4
