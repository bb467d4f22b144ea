"""Independent reference implementations used as test oracles.

Everything here is deliberately written the dumb way (python loops, dense
matrices, central differences) and never calls the code paths it checks.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np

from qtextgen.numerics import (
    ComputationRecord,
    Rng,
    Tensor,
    concat,
    cos,
    cross_entropy,
    derive_seed,
    exp,
    log,
    masked_softmax_rows,
    matmul,
    relu,
    sigmoid,
    transpose,
)

# ---------------------------------------------------------------------------
# gradient checking
# ---------------------------------------------------------------------------

FD_STEP = 1e-5


def rel_err(a: float, b: float) -> float:
    """Relative error with a unit floor so near-zero gradients compare absolutely."""
    return abs(a - b) / max(1.0, abs(a), abs(b))


def finite_diff_grad(f, x: np.ndarray, h: float = FD_STEP) -> np.ndarray:
    g = np.zeros_like(x, dtype=np.float64)
    flat_x = x.reshape(-1)
    flat_g = g.reshape(-1)
    for i in range(flat_x.size):
        old = flat_x[i]
        flat_x[i] = old + h
        fp = f()
        flat_x[i] = old - h
        fm = f()
        flat_x[i] = old
        flat_g[i] = (fp - fm) / (2.0 * h)
    return g


def op_grad_check(fn, arrays, h: float = FD_STEP, seed: int = 0) -> float:
    """Max relative error between taped and finite-difference gradients.

    ``fn`` maps Tensors to one Tensor; the scalar under test is a fixed
    random weighting of the output so every output entry matters.
    """
    rng = np.random.default_rng(seed)
    tensors = [Tensor(a) for a in arrays]
    probe = fn(*tensors)
    w = rng.uniform(-1.0, 1.0, probe.shape)

    tensors = [Tensor(a) for a in arrays]
    with ComputationRecord() as rec:
        loss = (fn(*tensors) * Tensor(w)).sum()
        rec.backward(loss)

    def value():
        return float((fn(*tensors).data * w).sum())

    worst = 0.0
    for t in tensors:
        fd = finite_diff_grad(value, t.data, h)
        analytic = t.grad if t.grad is not None else np.zeros_like(t.data)
        for a, b in zip(analytic.reshape(-1), fd.reshape(-1)):
            worst = max(worst, rel_err(a, b))
    return worst


def model_loss_value(model, ids, targets) -> float:
    return cross_entropy(model.logits(ids), targets).item()


def model_grad_check(model, ids, targets, h: float = FD_STEP, sample_per_param: int | None = None,
                     seed: int = 0) -> float:
    """Analytic loss gradients of every parameter vs central finite differences."""
    with ComputationRecord() as rec:
        loss = cross_entropy(model.logits(ids), targets)
        rec.backward(loss)
    grads = {name: (t.grad.copy() if t.grad is not None else np.zeros_like(t.data))
             for name, t in model.parameters().items()}
    for t in model.parameters().values():
        t.grad = None
    rng = np.random.default_rng(seed)
    worst = 0.0
    for name, t in model.parameters().items():
        flat = t.data.reshape(-1)
        gflat = grads[name].reshape(-1)
        if sample_per_param is None or flat.size <= sample_per_param:
            indices = range(flat.size)
        else:
            indices = rng.choice(flat.size, size=sample_per_param, replace=False)
        for i in indices:
            old = flat[i]
            flat[i] = old + h
            fp = model_loss_value(model, ids, targets)
            flat[i] = old - h
            fm = model_loss_value(model, ids, targets)
            flat[i] = old
            worst = max(worst, rel_err(gflat[i], (fp - fm) / (2.0 * h)))
    return worst


# ---------------------------------------------------------------------------
# dense-matrix circuit oracle
# ---------------------------------------------------------------------------

_I2 = np.eye(2, dtype=np.complex128)
_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
_P0 = np.array([[1, 0], [0, 0]], dtype=np.complex128)
_P1 = np.array([[0, 0], [0, 1]], dtype=np.complex128)


def _rot(axis: str, theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    if axis == "x":
        return np.array([[c, -1j * s], [-1j * s, c]])
    if axis == "y":
        return np.array([[c, -s], [s, c]])
    return np.array([[np.exp(-1j * theta / 2.0), 0], [0, np.exp(1j * theta / 2.0)]])


def _chain(n: int, placed: dict) -> np.ndarray:
    m = np.eye(1, dtype=np.complex128)
    for q in range(n):
        m = np.kron(m, placed.get(q, _I2))
    return m


def gate_matrix(gate, theta, n: int) -> np.ndarray:
    """Full 2^n unitary of one gate (qubit 0 = most significant bit)."""
    if gate.kind == "cnot":
        return _chain(n, {gate.control: _P0}) + _chain(n, {gate.control: _P1, gate.target: _X})
    return _chain(n, {gate.target: _rot(gate.kind[1], theta)})


def dense_unitary(spec, params: np.ndarray) -> np.ndarray:
    u = np.eye(2 ** spec.n_qubits, dtype=np.complex128)
    for gate in spec.gates:
        theta = params[gate.param_slot] if gate.param_slot is not None else None
        u = gate_matrix(gate, theta, spec.n_qubits) @ u
    return u


def random_circuit(rng: np.random.Generator, n_qubits: int, n_gates: int = 12):
    """Arbitrary rotation/CNOT circuit with contiguous parameter slots."""
    from qtextgen.qsim import CircuitSpec, GateOp

    gates, slot = [], 0
    for _ in range(n_gates):
        kind = rng.choice(["rx", "ry", "rz", "cnot"])
        if kind == "cnot" and n_qubits >= 2:
            control = int(rng.integers(n_qubits))
            target = (control + 1 + int(rng.integers(n_qubits - 1))) % n_qubits
            gates.append(GateOp("cnot", target, control=control))
        else:
            if kind == "cnot":
                kind = "ry"
            gates.append(GateOp(str(kind), int(rng.integers(n_qubits)), param_slot=slot))
            slot += 1
    return CircuitSpec(n_qubits, tuple(gates)), slot


# ---------------------------------------------------------------------------
# per-head parameters of the models that store them as head stacks
# ---------------------------------------------------------------------------

def head_view(owner, a: int, tape: bool = False) -> SimpleNamespace:
    """Head a's parameters of a QKSAN block or a QASA model, each in its one-head shape.

    Both store every per-head family as one stacked parameter.  Each attribute
    of the result is head a's part of the stack of that name: by default an
    object whose ``.data`` is a numpy view, so writes through it change the
    model; with ``tape=True`` a recorded slice, so gradients taken through it
    reach the stacked parameter.  A QKSAN view also carries ``dh`` and ``dq``.
    """
    if hasattr(owner, "theta_q"):  # QASA: (h, P) angle stacks
        index, sizes = {f"theta_{r}": (a,) for r in "qkv"}, {}
    else:  # QKSAN: (d, h*dh) projections, (h*dh,) biases, (h, ., .) stacks
        dq, dh = owner.omega.shape[1:]
        cols = (Ellipsis, slice(a * dh, (a + 1) * dh))
        index = {f"{kind}_{r}": cols for r in "qkv" for kind in "wb"}
        index.update({name: (a, 0) for name in ("mu", "b_phase", "c_v", "b_omega")})
        index.update({name: (a,) for name in ("omega", "u_v", "w_omega")})
        index["log_sigma"] = (a, 0, 0, Ellipsis)  # a 0-d view
        sizes = {"dh": dh, "dq": dq}
    parts = {name: getattr(owner, name)[i] if tape else SimpleNamespace(data=getattr(owner, name).data[i])
             for name, i in index.items()}
    return SimpleNamespace(**parts, **sizes)


def initial_head_draws(config) -> list[dict[str, list[np.ndarray]]]:
    """Every per-head initial array of a QKSAN or QASA model, redrawn one head at a time.

    Replays the stream ``Rng(derive_seed(seed, "init", arch))`` in the
    documented order: the embedding, then per QKSAN block each head's w_q,
    w_k, w_v, omega ~ N(0, 1)/sqrt(dh), b_phase ~ U(0, 2 pi), u_v and w_omega
    followed by the block's own weights; for QASA each head's q, k and v
    angles ~ U(0, 2 pi).  Dense weights are U(+-1/sqrt(fan_in)); biases, mu
    and log_sigma start at zero.  Returns one {family name: [head 0's array,
    head 1's, ...]} per QKSAN block (one for the QASA model), with the names
    of :func:`head_view`.
    """
    rng = Rng(derive_seed(config.seed, "init", config.arch))
    d, h, dh, dq, ff = config.d_model, config.n_heads, config.head_dim, config.quantum_features, config.d_ff

    def dense(fan_in, shape):
        return rng.uniform(-1.0 / math.sqrt(fan_in), 1.0 / math.sqrt(fan_in), shape)

    dense(d, (config.vocab_size, d))  # embedding
    if config.arch == "qasa":
        n_angles = config.qasa_qubits * config.circuit_layers
        angles = [[rng.uniform(0.0, 2.0 * math.pi, (n_angles,)) for _ in "qkv"] for _ in range(h)]
        return [{f"theta_{r}": [head[i] for head in angles] for i, r in enumerate("qkv")}]
    blocks = []
    for _ in range(config.n_blocks):
        heads = []
        for _ in range(h):
            head = {f"w_{r}": dense(d, (d, dh)) for r in "qkv"}
            head["omega"] = rng.normal((dq, dh)) / math.sqrt(dh)
            head["b_phase"] = rng.uniform(0.0, 2.0 * math.pi, (dq,))
            head["u_v"] = dense(dq, (dq, dh))
            head["w_omega"] = dense(dh, (dh, dh))
            head.update({f"b_{r}": np.zeros(dh) for r in "qkv"})
            head.update(mu=np.zeros(dh), c_v=np.zeros(dh), b_omega=np.zeros(dh), log_sigma=np.zeros(()))
            heads.append(head)
        blocks.append({name: [head[name] for head in heads] for name in heads[0]})
        # the block's own weights: w_o, three residual gates, then the feed-forward's w_1, w_cos and w_2
        for fan_in, shape in [(d, (d, d))] * 4 + [(d, (d, ff))] * 2 + [(ff, (ff, d))]:
            dense(fan_in, shape)
    return blocks


# ---------------------------------------------------------------------------
# attention oracles
# ---------------------------------------------------------------------------

def per_head_attention_reference(q: Tensor, k: Tensor, v: Tensor, n_heads: int, scale: float,
                                 bias: Tensor | None = None) -> Tensor:
    """Multi-head causal attention one head at a time, on the tape.

    Slices each head's column block out of the (m, h*w) inputs, attends over
    its (m, m) causal scores plus its slice of the optional (h, m, m) bias,
    and concatenates the head outputs.
    """
    w = q.shape[1] // n_heads
    heads = []
    for a in range(n_heads):
        cols = slice(a * w, (a + 1) * w)
        scores = matmul(q[:, cols], transpose(k[:, cols])) * scale
        if bias is not None:
            scores = scores + bias[a]
        heads.append(matmul(masked_softmax_rows(scores, causal=True), v[:, cols]))
    return concat(heads, axis=1)


def qksan_multi_head_reference(block, x: Tensor, eps: float = 1e-6) -> Tensor:
    """QKSAN's multi-head attention one head at a time, on the tape, with 2-D ops only.

    Each head reads its slices of the block's stacks (:func:`head_view` on
    the tape), projects x, lifts its q/k/v rows through its own feature map,
    adds log(relu(gamma) + eps) of the kernel Gram matrix to its scaled dot
    scores, and mixes its gated values; the head outputs are concatenated and
    projected through the block's output weights.
    """
    def feature_map(head, z):
        diff = z - head.mu
        sq = (diff * diff).sum(axis=1, keepdims=True)
        envelope = exp(-(sq / (2.0 * exp(2.0 * head.log_sigma))))
        return envelope * cos(matmul(z, transpose(head.omega)) + head.b_phase)

    def attention(head):
        q = matmul(x, head.w_q) + head.b_q
        k = matmul(x, head.w_k) + head.b_k
        v = matmul(x, head.w_v) + head.b_v
        s = matmul(q, transpose(k)) * (1.0 / math.sqrt(q.shape[1]))
        gamma = matmul(feature_map(head, q), transpose(feature_map(head, k)))
        weights = masked_softmax_rows(s + log(relu(gamma) + eps), causal=True)
        gate = (sigmoid(matmul(feature_map(head, v), head.u_v) + head.c_v)
                * cos(matmul(v, transpose(head.w_omega)) + head.b_omega))
        return matmul(weights, v * gate)

    heads = [head_view(block, a, tape=True) for a in range(block.mu.shape[0])]
    return matmul(concat([attention(head) for head in heads], axis=1), block.w_o) + block.b_o


# ---------------------------------------------------------------------------
# scalar-loop attention oracle
# ---------------------------------------------------------------------------

def qksan_head_reference(x: np.ndarray, head, causal: bool = True, eps: float = 1e-6) -> np.ndarray:
    """Per-entry reimplementation of the kernel-attention head with loops."""
    def affine(w, b):
        return x @ w + b[None, :]

    q = affine(head.w_q.data, head.b_q.data)
    k = affine(head.w_k.data, head.b_k.data)
    v = affine(head.w_v.data, head.b_v.data)
    n, dh = q.shape
    dq = head.omega.data.shape[0]
    sigma = math.exp(float(head.log_sigma.data))

    def phi(z):
        out = np.zeros((z.shape[0], dq))
        for i in range(z.shape[0]):
            envelope = math.exp(-sum((z[i, j] - head.mu.data[j]) ** 2 for j in range(dh)) / (2.0 * sigma ** 2))
            for f in range(dq):
                phase = sum(z[i, j] * head.omega.data[f, j] for j in range(dh)) + head.b_phase.data[f]
                out[i, f] = envelope * math.cos(phase)
        return out

    phi_q, phi_k, phi_v = phi(q), phi(k), phi(v)
    scores = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            s = sum(q[i, t] * k[j, t] for t in range(dh)) / math.sqrt(dh)
            gamma = sum(phi_q[i, f] * phi_k[j, f] for f in range(dq))
            scores[i, j] = s + math.log(max(gamma, 0.0) + eps)
    weights = np.zeros((n, n))
    for i in range(n):
        limit = i + 1 if causal else n
        row = scores[i, :limit]
        e = np.exp(row - row.max())
        weights[i, :limit] = e / e.sum()
    gated = np.zeros((n, dh))
    for i in range(n):
        for j in range(dh):
            gate_sig = 1.0 / (1.0 + math.exp(-(sum(phi_v[i, f] * head.u_v.data[f, j] for f in range(dq))
                                               + head.c_v.data[j])))
            gate_cos = math.cos(sum(v[i, t] * head.w_omega.data[j, t] for t in range(dh)) + head.b_omega.data[j])
            gated[i, j] = v[i, j] * gate_sig * gate_cos
    return weights @ gated


# ---------------------------------------------------------------------------
# recurrent QRWKV and window-MLP oracles
# ---------------------------------------------------------------------------

def _gelu(z: np.ndarray) -> np.ndarray:
    # the same expression as numerics.gelu, so references can match bit for bit
    return 0.5 * z * (1.0 + np.tanh(math.sqrt(2.0 / math.pi) * (z + 0.044715 * z ** 3)))


def _layer_norm_row(z: np.ndarray, gain: np.ndarray, shift: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    zc = z - z.mean()
    return zc / math.sqrt((zc * zc).mean() + eps) * gain + shift


def qrwkv_layer_reference(layer, x: np.ndarray) -> np.ndarray:
    """One QRWKV layer in its recurrent form: a plain-numpy loop over positions.

    Each step carries the decayed memory m and the channel-mix activation h
    to the next.  A position's circuit runs as a dense unitary on its own
    amplitude-encoded row; measurement attention reads the readouts of the
    prefix.
    """
    def p(name):
        return getattr(layer, name).data

    n_q = layer.spec.n_qubits
    signs = np.array([[1.0 - 2.0 * ((b >> (n_q - 1 - q)) & 1) for b in range(2 ** n_q)] for q in range(n_q)])
    lam = np.exp(-np.exp(-p("log_tau")))
    mem = np.zeros(x.shape[1])
    h = np.zeros(x.shape[1])
    readouts, out = [], []
    for x_t in x:
        amps = x_t @ p("w_enc")
        norm = np.linalg.norm(amps)
        psi = amps / norm if norm >= 1e-12 else np.eye(amps.size)[0]
        psi = dense_unitary(layer.spec, np.concatenate([x_t @ p("w_ang"), p("theta")])) @ psi
        readouts.append(signs @ np.abs(psi) ** 2)
        # time mixing
        m_prev, mem = mem, lam * mem + x_t @ p("w_value")
        r = 1.0 / (1.0 + np.exp(-(np.concatenate([x_t, m_prev]) @ p("w_recept") + p("b_recept"))))
        h_time = _layer_norm_row(x_t + r * (x_t @ p("w_key") * mem), p("ln1_g"), p("ln1_b"))
        # channel mixing
        ff = _gelu(x_t @ p("w_ffa") + p("b_ffa")) @ p("w_ffb") + p("b_ffb")
        h_prev, h = h, _gelu(readouts[-1] @ p("w_emb") @ p("w_mix1") + ff @ p("w_mix2") + p("b_mix1"))
        c = (h * h_prev) @ p("w_mix3") + p("b_mix2")
        # measurement attention over the prefix
        ro = np.array(readouts)
        scores = (ro @ p("w_k")) @ (readouts[-1] @ p("w_q"))
        w = np.exp(scores - scores.max())
        attn = (w / w.sum()) @ (ro @ p("w_v"))
        out.append(_layer_norm_row(h_time + c + attn, p("ln2_g"), p("ln2_b")))
    return np.array(out)


def mlp_logits_reference(model, token_ids) -> np.ndarray:
    """MLP logits with each position's window concatenated one slot at a time."""
    w, d = model.config.mlp_window, model.config.d_model
    emb = model.embedding.data[np.asarray(token_ids)]
    rows = []
    for t in range(len(token_ids)):
        rows.append(np.concatenate([emb[j] if j >= 0 else np.zeros(d) for j in range(t - w + 1, t + 1)]))
    hidden = _gelu(np.array(rows) @ model.w_1.data + model.b_1.data)
    return hidden @ model.w_2.data + model.b_2.data
