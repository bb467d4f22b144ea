"""Forward behavior of the tensor ops: fixed cases and basic properties."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qtextgen.numerics import (
    Adam,
    ComputationRecord,
    Tensor,
    cos,
    cross_entropy,
    gelu,
    layer_norm,
    log,
    masked_softmax_rows,
    matmul,
    relu,
    sigmoid,
    transpose,
)


class TestMatmul:
    def test_identity(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        out = matmul(Tensor(np.eye(2)), a)
        np.testing.assert_array_equal(out.data, a.data)

    def test_projector(self):
        p = Tensor([[1.0, 0.0], [0.0, 0.0]])
        v = Tensor([[5.0], [7.0]])
        np.testing.assert_array_equal(matmul(p, v).data, [[5.0], [0.0]])

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ValueError, match=r"\(2, 3\).*\(2, 2\)"):
            matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 2))))

    def test_requires_2d(self):
        with pytest.raises(ValueError):
            matmul(Tensor(np.zeros(3)), Tensor(np.zeros((3, 2))))


class TestMaskedSoftmax:
    def test_symmetric_row(self):
        out = masked_softmax_rows(Tensor([[0.0, 0.0]]), causal=False)
        np.testing.assert_allclose(out.data, [[0.5, 0.5]], atol=1e-15)

    def test_causal_first_row_is_delta(self):
        out = masked_softmax_rows(Tensor([[3.0, -2.0], [0.1, 0.4]]), causal=True)
        assert out.data[0, 0] == 1.0
        assert out.data[0, 1] == 0.0

    def test_hand_evaluated_row(self):
        out = masked_softmax_rows(Tensor([[math.log(2.0), 0.0]]), causal=False)
        np.testing.assert_allclose(out.data, [[2.0 / 3.0, 1.0 / 3.0]], rtol=1e-15)

    def test_rows_sum_to_one_tightly(self):
        rng = np.random.default_rng(0)
        out = masked_softmax_rows(Tensor(rng.normal(size=(6, 6)) * 30.0), causal=True)
        np.testing.assert_allclose(out.data.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(out.data[np.triu_indices(6, k=1)] == 0.0)

    def test_fully_masked_row_rejected(self):
        with pytest.raises(ValueError):
            masked_softmax_rows(Tensor([[-np.inf, -np.inf]]), causal=False)

    @pytest.mark.parametrize("causal", [True, False])
    def test_nan_row_is_named(self, causal):
        scores = [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [np.nan, 0.0, 0.0]]
        with pytest.raises(FloatingPointError, match="row 2"):
            masked_softmax_rows(Tensor(scores), causal=causal)

    def test_positive_infinity_in_stack_is_named(self):
        scores = np.zeros((2, 3, 3))
        scores[1, 1, 0] = np.inf
        with pytest.raises(FloatingPointError, match="row 1 of matrix 1"):
            masked_softmax_rows(Tensor(scores), causal=True)

    def test_stack_matches_each_matrix(self):
        s = np.random.default_rng(5).normal(size=(3, 4, 4))
        out = masked_softmax_rows(Tensor(s), causal=True).data
        for a in range(3):
            np.testing.assert_array_equal(out[a], masked_softmax_rows(Tensor(s[a]), causal=True).data)

    @given(st.lists(st.floats(-50, 50), min_size=2, max_size=6))
    def test_single_row_property(self, values):
        out = masked_softmax_rows(Tensor([values]), causal=False)
        assert abs(out.data.sum() - 1.0) < 1e-12
        assert np.all(out.data >= 0.0)


class TestLayerNorm:
    def test_constant_row_collapses_to_shift(self):
        x = Tensor([[4.0, 4.0, 4.0, 4.0]])
        out = layer_norm(x, Tensor(np.ones(4)), Tensor(np.zeros(4)))
        np.testing.assert_allclose(out.data, 0.0, atol=1e-12)

    def test_already_normalized_row(self):
        out = layer_norm(Tensor([[1.0, -1.0]]), Tensor(np.ones(2)), Tensor(np.zeros(2)))
        np.testing.assert_allclose(out.data, [[1.0, -1.0]], atol=1e-5)

    def test_row_statistics(self):
        rng = np.random.default_rng(1)
        out = layer_norm(Tensor(rng.normal(size=(4, 8))), Tensor(np.ones(8)), Tensor(np.zeros(8))).data
        assert np.max(np.abs(out.mean(axis=1))) < 1e-10
        np.testing.assert_allclose(out.var(axis=1), 1.0, atol=1e-4)

    def test_needs_two_features(self):
        with pytest.raises(ValueError):
            layer_norm(Tensor([[1.0]]), Tensor(np.ones(1)), Tensor(np.zeros(1)))


class TestActivations:
    def test_sigmoid_zero(self):
        assert sigmoid(Tensor([0.0])).data[0] == 0.5

    def test_cosine_zero(self):
        assert cos(Tensor([0.0])).data[0] == 1.0

    def test_relu_negative_value_and_gradient(self):
        x = Tensor([-3.0])
        with ComputationRecord() as rec:
            out = relu(x).sum()
            rec.backward(out)
        assert out.item() == 0.0
        assert x.grad[0] == 0.0

    def test_logarithm_domain(self):
        with pytest.raises(ValueError):
            log(Tensor([0.0]))

    def test_gelu_matches_tanh_formula(self):
        x = np.linspace(-3, 3, 11)
        want = 0.5 * x * (1 + np.tanh(math.sqrt(2 / math.pi) * (x + 0.044715 * x ** 3)))
        np.testing.assert_allclose(gelu(Tensor(x)).data, want, rtol=1e-15)


class TestCrossEntropy:
    def test_uniform_logits_equal_log_vocab(self):
        loss = cross_entropy(Tensor(np.zeros((3, 45))), [0, 7, 44])
        assert abs(loss.item() - math.log(45.0)) < 1e-12

    def test_saturated_one_hot(self):
        logits = np.zeros((2, 5))
        logits[0, 3] = 1e6
        logits[1, 1] = 1e6
        assert cross_entropy(Tensor(logits), [3, 1]).item() < 1e-9

    def test_matches_brute_force_softmax(self):
        rng = np.random.default_rng(2)
        logits = rng.normal(size=(3, 5))
        targets = [4, 0, 2]
        brute = 0.0
        for row, t in zip(logits, targets):
            p = np.exp(row) / np.exp(row).sum()
            brute -= math.log(p[t])
        brute /= 3
        assert abs(cross_entropy(Tensor(logits), targets).item() - brute) < 1e-10

    def test_out_of_range_target(self):
        with pytest.raises(IndexError):
            cross_entropy(Tensor(np.zeros((2, 4))), [0, 4])


class TestAdam:
    def test_zero_gradient_leaves_params(self):
        p = Tensor([1.0, -2.0])
        p.grad = np.zeros(2)
        opt = Adam([("p", p)])
        opt.step()
        np.testing.assert_array_equal(p.data, [1.0, -2.0])

    def test_first_step_magnitude_is_lr(self):
        p = Tensor([0.0])
        p.grad = np.ones(1)
        opt = Adam([("p", p)], lr=0.05)
        opt.step()
        assert abs(p.data[0] + 0.05) < 1e-9  # bias-corrected first step ~ lr

    def test_minimizes_quadratic(self):
        theta = Tensor([0.0])
        opt = Adam([("theta", theta)], lr=0.1)
        for _ in range(100):
            theta.grad = 2.0 * (theta.data - 3.0)
            opt.step()
            opt.zero_grad()
        assert abs(theta.data[0] - 3.0) < 0.1

    def test_missing_grad_rejected(self):
        p = Tensor([1.0])
        opt = Adam([("p", p)])
        with pytest.raises(ValueError, match="no gradient"):
            opt.step()

    def test_state_roundtrip(self):
        p = Tensor([1.0, 2.0])
        opt = Adam([("p", p)])
        p.grad = np.array([0.5, -0.5])
        opt.step()
        state = opt.state_dict()
        q = Tensor([1.0, 2.0])
        opt2 = Adam([("p", q)])
        opt2.load_state_dict(state)
        assert opt2.t == 1
        np.testing.assert_array_equal(opt2._m["p"], opt._m["p"])


class TestViews:
    def test_reshape_and_transpose_share_memory(self):
        x = Tensor(np.arange(6.0).reshape(2, 3))
        assert np.shares_memory(x.reshape(3, 2).data, x.data)
        assert np.shares_memory(transpose(x.reshape(1, 2, 3), (1, 0, 2)).data, x.data)

    def test_parameter_view_gradient_matches_copy_and_survives_adam_step(self):
        rng = np.random.default_rng(3)
        w, y = rng.normal(size=(2, 3)), rng.normal(size=(2, 4))
        grads = []
        for source in (lambda p: p, lambda p: p[:, :]):  # the parameter itself, or a copying gather of it
            p = Tensor(w)
            with ComputationRecord() as rec:
                view = source(p).reshape(3, 2)
                h = matmul(view, Tensor(y))
                rec.backward((h * h).sum())
            grad = p.grad.copy()
            Adam([("p", p)], lr=0.1).step()
            assert not np.array_equal(p.data, w)
            np.testing.assert_array_equal(p.grad, grad)
            grads.append(grad)
        np.testing.assert_array_equal(grads[0], grads[1])
        np.testing.assert_allclose(grads[0], (2.0 * (w.reshape(3, 2) @ y) @ y.T).reshape(2, 3), rtol=1e-14)


class TestBackwardBasics:
    def test_sum_gives_ones(self):
        x = Tensor(np.arange(6.0).reshape(2, 3))
        with ComputationRecord() as rec:
            rec.backward(x.sum())
        np.testing.assert_array_equal(x.grad, np.ones((2, 3)))

    def test_quadratic(self):
        x = Tensor([1.0, 2.0])
        with ComputationRecord() as rec:
            rec.backward((x * x).sum())
        np.testing.assert_array_equal(x.grad, [2.0, 4.0])

    def test_non_scalar_loss_rejected(self):
        x = Tensor([1.0, 2.0])
        with ComputationRecord() as rec:
            y = x * 2.0
            with pytest.raises(ValueError):
                rec.backward(y)

    def test_repeated_backward_accumulates(self):
        x = Tensor([1.0, 2.0])
        with ComputationRecord() as rec:
            loss = (x * x).sum()
            rec.backward(loss)
            rec.backward(loss)
        np.testing.assert_array_equal(x.grad, [4.0, 8.0])

    def test_unreachable_tensor_untouched(self):
        x, other = Tensor([1.0]), Tensor([5.0])
        with ComputationRecord() as rec:
            _ = other * 3.0
            rec.backward((x * x).sum())
        assert other.grad is None

    def test_no_recording_outside_context(self):
        x = Tensor([1.0])
        y = x * 2.0
        assert y.node_id is None

    def test_nesting_rejected(self):
        with ComputationRecord():
            with pytest.raises(RuntimeError):
                ComputationRecord().__enter__()


def test_determinism_identical_streams_of_ops():
    def run():
        rngs = np.random.default_rng(0)
        x = Tensor(rngs.normal(size=(4, 4)))
        with ComputationRecord() as rec:
            loss = cross_entropy(masked_softmax_rows(x @ Tensor(np.eye(4)), causal=True), [0, 1, 2, 3])
            rec.backward(loss)
        return loss.item(), x.grad.copy()

    l1, g1 = run()
    l2, g2 = run()
    assert l1 == l2
    np.testing.assert_array_equal(g1, g2)
