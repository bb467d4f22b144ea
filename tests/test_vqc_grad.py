"""The gradient triangle: taped adjoint == parameter shift == finite differences."""

import math

import numpy as np
import pytest

from qtextgen.numerics import ComputationRecord, Tensor
from qtextgen.qsim import (
    CircuitSpec,
    GateOp,
    build_qasa_circuit,
    build_qrwkv_circuit,
    param_shift_grad,
    vqc_forward,
)
from oracles import random_circuit


def expectations(spec, params, x):
    """Untaped Z readout of one input row."""
    return vqc_forward(spec, Tensor(params), Tensor(x)).data


def analytic_param_grad(spec, params, x, output_index):
    """d<Z_k>/d(theta) through the taped adjoint backward."""
    pt, xt = Tensor(params), Tensor(x)
    with ComputationRecord() as rec:
        out = vqc_forward(spec, pt, xt)
        rec.backward(out[output_index])
    return pt.grad.copy(), xt.grad.copy()


class TestParameterShiftClosedForms:
    def test_single_ry_gives_minus_sine(self):
        spec = CircuitSpec(1, (GateOp("ry", 0, param_slot=0),))
        x = np.array([1.0])
        grad = param_shift_grad(spec, np.array([math.pi / 3.0]), x, 0)
        assert abs(grad[0] + math.sqrt(3.0) / 2.0) < 1e-12

    def test_zero_angle_zero_gradient(self):
        spec = CircuitSpec(1, (GateOp("ry", 0, param_slot=0),))
        grad = param_shift_grad(spec, np.zeros(1), np.array([1.0]), 0)
        assert abs(grad[0]) < 1e-12

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        spec, n_params = random_circuit(rng, 3)
        params = rng.uniform(0, 2 * math.pi, n_params)
        x = rng.uniform(-1, 1, 8)
        for k in range(3):
            shift = param_shift_grad(spec, params, x, k)
            h = 1e-6
            for j in range(n_params):
                pp, pm = params.copy(), params.copy()
                pp[j] += h
                pm[j] -= h
                fd = (expectations(spec, pp, x)[k] - expectations(spec, pm, x)[k]) / (2 * h)
                assert abs(shift[j] - fd) < 1e-8

    def test_rejects_shared_slot(self):
        spec = CircuitSpec(2, (GateOp("ry", 0, param_slot=0), GateOp("ry", 1, param_slot=0)))
        with pytest.raises(ValueError, match="exactly one"):
            param_shift_grad(spec, np.zeros(1), np.array([1.0]), 0)


class TestGradientTriangle:
    def test_adjoint_equals_parameter_shift(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            n = int(rng.integers(2, 5))
            spec, n_params = random_circuit(rng, n)
            if n_params == 0:
                continue
            params = rng.uniform(0, 2 * math.pi, n_params)
            x = rng.uniform(-1, 1, 2 ** n)
            k = int(rng.integers(n))
            analytic, _ = analytic_param_grad(spec, params, x, k)
            shift = param_shift_grad(spec, params, x, k)
            np.testing.assert_allclose(analytic, shift, atol=1e-8)

    def test_input_gradient_vs_finite_differences(self):
        rng = np.random.default_rng(2)
        spec = build_qrwkv_circuit(4)
        params = rng.uniform(0, 2 * math.pi, spec.n_params)
        x = rng.uniform(-1, 1, 16)
        k = 2
        _, gx = analytic_param_grad(spec, params, x, k)
        h = 1e-6
        for i in range(16):
            xp, xm = x.copy(), x.copy()
            xp[i] += h
            xm[i] -= h
            fd = (expectations(spec, params, xp)[k] - expectations(spec, params, xm)[k]) / (2 * h)
            assert abs(gx[i] - fd) / max(1e-8, abs(fd), abs(gx[i])) < 1e-5

    def test_layered_ansatz_triangle(self):
        rng = np.random.default_rng(3)
        spec = build_qasa_circuit(3, 2)
        params = rng.uniform(0, 2 * math.pi, spec.n_params)
        x = rng.uniform(-1, 1, 8)
        for k in range(3):
            analytic, _ = analytic_param_grad(spec, params, x, k)
            shift = param_shift_grad(spec, params, x, k)
            np.testing.assert_allclose(analytic, shift, atol=1e-8)


class TestZeroInputConvention:
    def test_zero_vector_forward_is_ground_state_readout(self):
        spec = build_qasa_circuit(2, 1)
        z = expectations(spec, np.zeros(spec.n_params), np.zeros(4))
        np.testing.assert_allclose(z, [1.0, 1.0], atol=1e-12)

    def test_zero_vector_is_a_flat_point(self):
        spec = build_qasa_circuit(2, 1)
        params = np.array([0.3, 1.2])
        _, gx = analytic_param_grad(spec, params, np.zeros(4), 0)
        np.testing.assert_array_equal(gx, np.zeros(4))


def test_identity_circuit_readout_formula():
    # rotations-only spec at zero angles: expectations are signed sums of
    # squared normalized inputs (entanglers would permute the basis)
    spec = CircuitSpec(3, tuple(GateOp("ry", q, param_slot=q) for q in range(3)))
    rng = np.random.default_rng(4)
    x = rng.uniform(-1, 1, 8)
    z = expectations(spec, np.zeros(spec.n_params), x)
    p = (x / np.linalg.norm(x)) ** 2
    for qubit in range(3):
        signs = np.array([1.0 if (b >> (2 - qubit)) & 1 == 0 else -1.0 for b in range(8)])
        assert abs(z[qubit] - float(signs @ p)) < 1e-12
