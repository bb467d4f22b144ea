"""Gradient correctness of every primitive against central finite differences."""

import numpy as np
import pytest

from qtextgen.numerics import (
    ComputationRecord,
    Tensor,
    broadcast_rows,
    concat,
    cos,
    cross_entropy,
    decay_scan,
    embedding_lookup,
    exp,
    gelu,
    interleave_columns,
    layer_norm,
    log,
    masked_softmax_rows,
    matmul,
    relu,
    sigmoid,
    sin,
    transpose,
)
from qtextgen.models import causal_attention
from oracles import finite_diff_grad, op_grad_check, rel_err

TOL = 1e-6
_rng = np.random.default_rng(1234)


def _rand(*shape):
    return _rng.uniform(-1.0, 1.0, shape)


@pytest.mark.parametrize("fn,arrays", [
    (lambda a, b: a + b, [_rand(3, 4), _rand(3, 4)]),
    (lambda a, b: a + b, [_rand(3, 4), _rand(4)]),          # bias broadcast
    (lambda a, b: a - b, [_rand(2, 3), _rand(2, 3)]),
    (lambda a, b: a * b, [_rand(3, 4), _rand(3, 1)]),       # column broadcast
    (lambda a, b: a / b, [_rand(2, 2), _rand(2, 2) + 2.0]),
    (lambda a: -a, [_rand(5)]),
    (lambda a: a ** 3.0, [_rand(4) + 2.0]),
    (lambda a: a.sum(), [_rand(3, 3)]),
    (lambda a: a.sum(axis=1, keepdims=True), [_rand(3, 4)]),
    (lambda a: a.mean(axis=0), [_rand(4, 2)]),
    (lambda a, b: matmul(a, b), [_rand(3, 4), _rand(4, 2)]),
    (lambda a: transpose(a), [_rand(2, 5)]),
    (lambda a: a.reshape(6), [_rand(2, 3)]),
    (lambda a: a[1:3, ::2], [_rand(4, 6)]),
    (lambda a, b: concat([a, b], axis=1), [_rand(2, 3), _rand(2, 2)]),
    (lambda a, b: concat([a, b], axis=0), [_rand(2, 3), _rand(1, 3)]),
    (lambda a: broadcast_rows(a, 3), [_rand(4)]),
    (lambda a, b: interleave_columns(a, b), [_rand(3, 2), _rand(3, 2)]),
    (lambda a: relu(a), [_rand(3, 3) + 0.2]),
    (lambda a: gelu(a), [_rand(6)]),
    (lambda a: sigmoid(a), [_rand(6)]),
    (lambda a: cos(a), [_rand(6)]),
    (lambda a: sin(a), [_rand(6)]),
    (lambda a: exp(a), [_rand(5)]),
    (lambda a: log(a), [_rand(4) + 1.5]),
    (lambda a: masked_softmax_rows(a, causal=True), [_rand(4, 4) * 3.0]),
    (lambda a: masked_softmax_rows(a, causal=False), [_rand(3, 5)]),
    (lambda x, g, s: layer_norm(x, g, s), [_rand(4, 6), _rand(6) + 1.5, _rand(6)]),
    (lambda v, lam: decay_scan(v, lam), [_rand(5, 3), 0.01 + 0.005 * _rand(3)]),    # lambda near 0
    (lambda v, lam: decay_scan(v, lam), [_rand(5, 3), 0.99 + 0.005 * _rand(3)]),    # lambda near 1
    (lambda v, lam: decay_scan(v, lam), [_rand(1, 4), 0.5 + 0.3 * _rand(4)]),       # T = 1
    (lambda q, k, v: causal_attention(q, k, v, 3, 0.7), [_rand(4, 6), _rand(4, 6), _rand(4, 9)]),  # 3 heads
    (lambda a, b: matmul(a, b), [_rand(2, 3, 4), _rand(2, 4, 2)]),                                 # batched
    (lambda a: transpose(a, (1, 0, 2)), [_rand(2, 3, 4)]),
    (lambda a: masked_softmax_rows(a, causal=True), [_rand(2, 4, 4) * 3.0]),
    (lambda a: masked_softmax_rows(a, causal=False), [_rand(2, 3, 5)]),
    (lambda q, k, v, b: causal_attention(q, k, v, 2, 0.7, b),
     [_rand(4, 6), _rand(4, 6), _rand(4, 4), _rand(2, 4, 4)]),                                    # biased
    (lambda v, lam: decay_scan(v, lam, np.array([True, False, True, False, False])),
     [_rand(5, 3), 0.5 + 0.3 * _rand(3)]),                                                         # two segments
    (lambda v, lam: decay_scan(v, lam, np.array([True, False, False, True])),
     [_rand(4, 2), 0.99 + 0.005 * _rand(2)]),                                                      # last row restarts
    (lambda v, lam: decay_scan(v, lam, np.ones(4, dtype=bool)), [_rand(4, 3), 0.5 + 0.3 * _rand(3)]),  # every row
    (lambda a: broadcast_rows(a, 3), [_rand(2, 4)]),                                             # a 2-D stack
    (lambda v, lam: decay_scan(v, lam, np.array([False, False, True, False]), np.array([0.4, -1.1, 0.7])),
     [_rand(4, 3), 0.5 + 0.3 * _rand(3)]),                                                         # carried row
    (lambda q, k, v: causal_attention(q, k, v, 2, 0.7, causal=np.tri(2, 5, 3, dtype=bool)),
     [_rand(2, 6), _rand(5, 6), _rand(5, 4)]),                                                    # 3 cached rows
])
def test_primitive_gradients(fn, arrays):
    assert op_grad_check(fn, arrays) < TOL


def test_matmul_gradient_matches_fd_tightly():
    # the canonical 3x4 @ 4x2 case at a tighter tolerance
    a, b = _rand(3, 4), _rand(4, 2)
    assert op_grad_check(lambda x, y: matmul(x, y), [a, b]) < 1e-6


def test_embedding_lookup_scatter_adds_duplicates():
    table = Tensor(_rand(5, 3))
    ids = [1, 3, 1]
    with ComputationRecord() as rec:
        rec.backward(embedding_lookup(table, ids).sum())
    expected = np.zeros((5, 3))
    expected[1] = 2.0
    expected[3] = 1.0
    np.testing.assert_array_equal(table.grad, expected)


def test_take_scatter_adds_repeated_indices():
    a = Tensor(np.ones((4, 2)))
    with ComputationRecord() as rec:
        rec.backward(a[np.array([0, 0, 2])].sum())
    expected = np.zeros((4, 2))
    expected[0] = 2.0
    expected[2] = 1.0
    np.testing.assert_array_equal(a.grad, expected)


def test_decay_scan_matches_step_recurrence():
    rng = np.random.default_rng(7)
    v, lam = rng.normal(size=(6, 3)), rng.uniform(0.1, 0.9, 3)
    acc, rows = np.zeros(3), []
    for v_t in v:
        acc = lam * acc + v_t
        rows.append(acc)
    np.testing.assert_array_equal(decay_scan(Tensor(v), Tensor(lam)).data, np.array(rows))


def test_decay_scan_restarts_match_separate_scans():
    rng = np.random.default_rng(8)
    v, lam = rng.normal(size=(7, 3)), rng.uniform(0.1, 0.9, 3)
    starts = np.array([True, False, False, True, True, False, False])
    joined = decay_scan(Tensor(v), Tensor(lam), starts).data
    for rows in (slice(0, 3), slice(3, 4), slice(4, 7)):
        np.testing.assert_array_equal(joined[rows], decay_scan(Tensor(v[rows]), Tensor(lam)).data)


def test_decay_scan_carry_continues_the_scan():
    rng = np.random.default_rng(9)
    v, lam = rng.normal(size=(7, 3)), rng.uniform(0.1, 0.9, 3)
    whole = decay_scan(Tensor(v), Tensor(lam)).data
    rest = decay_scan(Tensor(v[4:]), Tensor(lam), np.zeros(3, dtype=bool), whole[3]).data
    np.testing.assert_array_equal(rest, whole[4:])


def test_cross_entropy_gradient():
    logits = _rand(4, 7) * 2.0
    targets = [2, 0, 6, 3]
    t = Tensor(logits)
    with ComputationRecord() as rec:
        rec.backward(cross_entropy(t, targets))

    def value():
        return cross_entropy(Tensor(logits, copy=False), targets).item()

    fd = finite_diff_grad(value, logits)
    worst = max(rel_err(a, b) for a, b in zip(t.grad.reshape(-1), fd.reshape(-1)))
    assert worst < TOL


def test_composite_attention_like_graph():
    def attention(q, k, v):
        scores = matmul(q, transpose(k)) * (1.0 / 2.0)
        return matmul(masked_softmax_rows(scores, causal=True), v)

    assert op_grad_check(attention, [_rand(4, 4), _rand(4, 4), _rand(4, 3)]) < TOL


def test_composite_gated_ffn_graph():
    def ffn(x, w1, b1, w2):
        return matmul(relu(matmul(x, w1) + b1) * cos(matmul(x, w1)), w2)

    assert op_grad_check(ffn, [_rand(3, 4), _rand(4, 6) + 0.3, _rand(6), _rand(6, 2)]) < TOL


def test_scalar_pooling_graph():
    # the token pooling used in training: rows of every sequence, one cross_entropy
    def pooled(l1, l2):
        return cross_entropy(concat([l1, l2]), [1, 2, 0, 1, 2])

    assert op_grad_check(pooled, [_rand(2, 4), _rand(3, 4)]) < TOL
