"""Statevector simulator: encoding, gates, the batched kernel, readout."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qtextgen.numerics import ComputationRecord, Tensor
from qtextgen.qsim import (
    CircuitSpec,
    GateOp,
    amplitude_encode,
    build_qasa_circuit,
    build_qrwkv_circuit,
    param_shift_grad,
    run_circuit,
    vqc_forward,
)
from oracles import dense_unitary, random_circuit


def readout(spec, params, x):
    """Z readout of ``x`` (one row or a block) through the differentiable forward pass."""
    return vqc_forward(spec, Tensor(np.asarray(params, dtype=np.float64)), Tensor(x)).data


def final_states(spec, params, amps):
    """Output amplitudes of a (B, 2^n) block."""
    return run_circuit(spec, params, amps)[-1]


def ground(n):
    return amplitude_encode(np.ones(1), n)[None]


class TestAmplitudeEncode:
    def test_normalizes(self):
        np.testing.assert_allclose(amplitude_encode(np.array([3.0, 4.0]), 1), [0.6, 0.8])

    def test_zero_vector_maps_to_ground_state(self):
        np.testing.assert_array_equal(amplitude_encode(np.zeros(2), 1), [1.0, 0.0])

    def test_uniform_four(self):
        np.testing.assert_allclose(amplitude_encode(np.ones(4), 2), [0.5] * 4)

    def test_pads_with_zeros(self):
        np.testing.assert_array_equal(amplitude_encode(np.array([1.0]), 2), [1.0, 0.0, 0.0, 0.0])

    def test_capacity_error(self):
        with pytest.raises(ValueError, match="encode"):
            amplitude_encode(np.ones(5), 2)


class TestGates:
    def test_ry_pi_flips_ground_state(self):
        z = readout(CircuitSpec(1, (GateOp("ry", 0, param_slot=0),)), [math.pi], np.ones(1))
        assert abs(z[0] + 1.0) < 1e-12

    def test_cnot_on_control_set(self):
        # |10> -> |11>
        amps = np.zeros((1, 4))
        amps[0, 2] = 1.0
        out = final_states(CircuitSpec(2, (GateOp("cnot", 1, control=0),)), np.zeros(0), amps)
        np.testing.assert_array_equal(np.abs(out[0]) ** 2, [0, 0, 0, 1])

    def test_rz_leaves_z_eigenstate(self):
        for theta in (0.1, 1.0, 2.5):
            z = readout(CircuitSpec(1, (GateOp("rz", 0, param_slot=0),)), [theta], np.ones(1))
            assert abs(z[0] - 1.0) < 1e-12

    def test_norm_preserved(self):
        gates = []
        for slot in range(3):
            gates += [GateOp("rx", 0, param_slot=slot), GateOp("cnot", 1, control=0)]
        out = final_states(CircuitSpec(2, tuple(gates)), np.array([0.3, 1.1, 2.2]), ground(2))
        assert abs(np.sum(np.abs(out) ** 2) - 1.0) < 1e-12


class TestExpectZ:
    def test_ground_state_all_plus_one(self):
        np.testing.assert_array_equal(readout(CircuitSpec(3, ()), np.zeros(0), np.ones(1)), [1.0, 1.0, 1.0])

    def test_uniform_superposition_zero(self):
        np.testing.assert_allclose(readout(CircuitSpec(2, ()), np.zeros(0), np.ones(4)), [0.0, 0.0], atol=1e-12)

    def test_bell_state(self):
        # (|00> + |11>) / sqrt(2) is the amplitude encoding of (1, 0, 0, 1)
        z = readout(CircuitSpec(2, ()), np.zeros(0), np.array([1.0, 0.0, 0.0, 1.0]))
        np.testing.assert_allclose(z, [0.0, 0.0], atol=1e-12)


class TestRunCircuit:
    def test_zero_params_fix_ground_state(self):
        spec = build_qasa_circuit(3, 2)
        out = final_states(spec, np.zeros(spec.n_params), ground(3))
        np.testing.assert_allclose(np.abs(out[0]) ** 2, [1.0] + [0.0] * 7, atol=1e-15)

    def test_single_ry_half_pi_equator(self):
        spec = CircuitSpec(1, (GateOp("ry", 0, param_slot=0),))
        assert abs(readout(spec, np.array([math.pi / 2.0]), np.ones(1))[0]) < 1e-12

    def test_param_underflow(self):
        spec = build_qasa_circuit(2, 1)
        with pytest.raises(ValueError, match="parameters"):
            run_circuit(spec, np.zeros(1), ground(2))

    def test_matches_dense_unitary_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            n = int(rng.integers(2, 5))
            spec, n_params = random_circuit(rng, n)
            params = rng.uniform(0, 2 * math.pi, n_params)
            x = rng.uniform(-1, 1, 2 ** n)
            state = final_states(spec, params, amplitude_encode(x, n)[None])[0]
            expected = dense_unitary(spec, params) @ amplitude_encode(x, n)
            np.testing.assert_allclose(state, expected, atol=1e-10)

    @given(st.integers(0, 2 ** 32 - 1))
    def test_norm_drift_below_1e12(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 5))
        spec, n_params = random_circuit(rng, n, n_gates=20)
        params = rng.uniform(0, 2 * math.pi, n_params)
        out = final_states(spec, params, ground(n))
        assert abs(np.sum(np.abs(out) ** 2) - 1.0) < 1e-12


class TestCircuitBuilders:
    def test_layered_ry_counts(self):
        spec = build_qasa_circuit(3, 2)
        kinds = [g.kind for g in spec.gates]
        assert kinds.count("ry") == 6
        assert kinds.count("cnot") == 4
        assert spec.n_params == 6

    def test_ring_rx_counts(self):
        spec = build_qrwkv_circuit(4)
        kinds = [g.kind for g in spec.gates]
        assert kinds.count("rx") == 12
        assert kinds.count("cnot") == 8
        assert spec.n_params == 12

    def test_ring_wraps_around(self):
        spec = build_qrwkv_circuit(4)
        pairs = {(g.control, g.target) for g in spec.gates if g.kind == "cnot"}
        assert (3, 0) in pairs

    def test_builders_pass_spec_validation(self):
        # constructing CircuitSpec re-runs all invariants
        for spec in (build_qasa_circuit(2, 1), build_qasa_circuit(4, 3), build_qrwkv_circuit(3)):
            CircuitSpec(spec.n_qubits, spec.gates)

    def test_too_few_qubits(self):
        with pytest.raises(ValueError):
            build_qasa_circuit(1, 1)


class TestCircuitSpecValidation:
    def test_rejects_gap_in_slots(self):
        with pytest.raises(ValueError, match="contiguous"):
            CircuitSpec(2, (GateOp("ry", 0, param_slot=0), GateOp("ry", 1, param_slot=2)))

    def test_rejects_out_of_range_qubit(self):
        with pytest.raises(ValueError):
            CircuitSpec(2, (GateOp("ry", 2, param_slot=0),))

    def test_rejects_self_cnot(self):
        with pytest.raises(ValueError):
            GateOp("cnot", 1, control=1)
        with pytest.raises(ValueError):
            CircuitSpec(2, (GateOp("cnot", 0, control=0),))

    def test_rejects_unparameterized_rotation(self):
        with pytest.raises(ValueError):
            GateOp("ry", 0)

    def test_qubit_cap(self):
        with pytest.raises(ValueError):
            CircuitSpec(9, ())


def test_identity_circuit_measures_encoding():
    # rotation-only circuit at zero angles: readout reflects squared inputs
    # (an entangling chain would permute basis states even at zero angles)
    spec = CircuitSpec(2, (GateOp("ry", 0, param_slot=0), GateOp("ry", 1, param_slot=1)))
    x = np.array([1.0, 2.0, 2.0, 0.0])
    z = readout(spec, np.zeros(spec.n_params), x)
    probs = (x / np.linalg.norm(x)) ** 2
    want_q0 = probs[0] + probs[1] - probs[2] - probs[3]
    want_q1 = probs[0] - probs[1] + probs[2] - probs[3]
    np.testing.assert_allclose(z, [want_q0, want_q1], atol=1e-12)


def test_expectations_always_in_unit_interval():
    rng = np.random.default_rng(17)
    for _ in range(20):
        n = int(rng.integers(2, 5))
        spec, n_params = random_circuit(rng, n)
        z = readout(spec, rng.uniform(0, 2 * math.pi, n_params), rng.uniform(-1, 1, 2 ** n))
        assert np.all(z >= -1.0 - 1e-12) and np.all(z <= 1.0 + 1e-12)


class TestInputValidation:
    def test_rejects_non_flat_rows(self):
        spec = build_qasa_circuit(2, 1)
        with pytest.raises(ValueError, match="flat row"):
            readout(spec, np.zeros(spec.n_params), np.ones((2, 2, 2)))

    def test_rejects_oversized_row(self):
        spec = build_qasa_circuit(2, 1)
        with pytest.raises(ValueError, match="encode"):
            readout(spec, np.zeros(spec.n_params), np.ones((3, 5)))

    def test_rejects_too_few_parameters(self):
        spec = build_qasa_circuit(2, 1)
        with pytest.raises(ValueError, match="parameters"):
            readout(spec, np.zeros((3, spec.n_params - 1)), np.ones((3, 4)))

    def test_rejects_parameter_row_count_mismatch(self):
        spec = build_qasa_circuit(2, 1)
        with pytest.raises(ValueError, match="parameter rows"):
            readout(spec, np.zeros((2, spec.n_params)), np.ones((3, 4)))
        with pytest.raises(ValueError, match="parameter rows"):
            readout(spec, np.zeros((2, spec.n_params)), np.ones(4))

    def test_flat_row_gives_flat_readout(self):
        spec = build_qrwkv_circuit(3)
        params = np.linspace(0.1, 2.0, spec.n_params)
        x = np.linspace(-1.0, 1.0, 8)
        flat = readout(spec, params, x)
        assert flat.shape == (3,)
        np.testing.assert_array_equal(flat, readout(spec, params, x[None])[0])

    def test_real_circuit_stays_real(self):
        spec = build_qasa_circuit(3, 2)
        states = run_circuit(spec, np.linspace(0.1, 2.0, spec.n_params), amplitude_encode(np.ones((2, 8)), 3))
        assert all(s.dtype == np.float64 for s in states)
        states = run_circuit(build_qrwkv_circuit(3), np.ones(9), amplitude_encode(np.ones((2, 8)), 3))
        assert states[-1].dtype == np.complex128


def _weighted_grads(spec, params, x, weights):
    """Gradients of sum(weights * readout) through the taped adjoint."""
    pt, xt = Tensor(params), Tensor(x)
    with ComputationRecord() as rec:
        rec.backward((vqc_forward(spec, pt, xt) * Tensor(weights)).sum())
    grad_p = pt.grad if pt.grad is not None else np.zeros_like(params)
    return grad_p, xt.grad


def _batch_case(seed, b, per_row):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 5))
    spec, n_params = random_circuit(rng, n)
    params = rng.uniform(0, 2 * math.pi, (b, n_params) if per_row else n_params)
    x = rng.uniform(-1, 1, (b, int(rng.integers(1, 2 ** n + 1))))
    return rng, spec, params, x



class TestBatchedKernel:
    """A block of B rows against B one-row runs, on random RX/RY/RZ/CNOT circuits."""

    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 8), st.booleans())
    def test_block_equals_one_row_calls(self, seed, b, per_row):
        _, spec, params, x = _batch_case(seed, b, per_row)
        block = readout(spec, params, x)
        assert block.shape == (b, spec.n_qubits)
        for i in range(b):
            one = readout(spec, params[i] if per_row else params, x[i])
            np.testing.assert_allclose(block[i], one, rtol=0, atol=1e-14)

    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 8), st.booleans())
    def test_adjoint_matches_rows_and_parameter_shift(self, seed, b, per_row):
        rng, spec, params, x = _batch_case(seed, b, per_row)
        weights = rng.uniform(-1, 1, (b, spec.n_qubits))
        grad_p, grad_x = _weighted_grads(spec, params, x, weights)
        summed = np.zeros(spec.n_params)
        for i in range(b):
            p_i = params[i] if per_row else params
            row_p, row_x = _weighted_grads(spec, p_i, x[i], weights[i])
            shift = sum(w * param_shift_grad(spec, p_i, x[i], k) for k, w in enumerate(weights[i]))
            np.testing.assert_allclose(row_p, shift, rtol=0, atol=1e-8)
            np.testing.assert_allclose(grad_x[i], row_x, rtol=0, atol=1e-8)
            if per_row:
                np.testing.assert_allclose(grad_p[i], row_p, rtol=0, atol=1e-8)
            summed += row_p
        if not per_row:
            np.testing.assert_allclose(grad_p, summed, rtol=0, atol=1e-8)

    @given(st.integers(0, 2 ** 32 - 1), st.integers(2, 8), st.booleans())
    def test_changing_one_row_leaves_the_others_bit_identical(self, seed, b, per_row):
        rng, spec, params, x = _batch_case(seed, b, per_row)
        j = int(rng.integers(b))
        changed = x.copy()
        changed[j] = rng.uniform(-1, 1, x.shape[1])
        before, after = readout(spec, params, x), readout(spec, params, changed)
        np.testing.assert_array_equal(np.delete(before, j, axis=0), np.delete(after, j, axis=0))

    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 8), st.booleans())
    def test_zero_row_in_a_block_has_zero_input_gradient(self, seed, b, per_row):
        rng, spec, params, x = _batch_case(seed, b, per_row)
        j = int(rng.integers(b))
        x[j] = 0.0
        _, grad_x = _weighted_grads(spec, params, x, rng.uniform(-1, 1, (b, spec.n_qubits)))
        np.testing.assert_array_equal(grad_x[j], np.zeros(x.shape[1]))
        z = readout(spec, params, x)
        np.testing.assert_allclose(z[j], readout(spec, params[j] if per_row else params, np.ones(1)), atol=1e-14)
