"""Shared model components: attention, positional encodings, head, decoding."""

import math
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtextgen.models import (
    ARCHITECTURES,
    EOS_ID,
    DecodeCache,
    build_model,
    causal_attention,
    default_config,
    generate,
    quantum_positional_encoding,
    sinusoidal_table,
)
from qtextgen.numerics import ComputationRecord, Rng, Tensor, concat, cross_entropy, matmul
from oracles import generate_reference, head_view, initial_head_draws, per_head_attention_reference


def classical_attention(q, k, v):
    """Single-head attention scaled by 1/sqrt(width), as each transformer head computes it."""
    return causal_attention(q, k, v, 1, 1.0 / math.sqrt(k.shape[1]))


class TestClassicalAttention:
    def test_single_token_returns_value_row(self):
        q = Tensor([[0.3, -0.2]])
        k = Tensor([[1.0, 2.0]])
        v = Tensor([[5.0, 6.0]])
        np.testing.assert_allclose(classical_attention(q, k, v).data, [[5.0, 6.0]], atol=1e-15)

    def test_zero_keys_give_uniform_prefix_weights(self):
        rng = np.random.default_rng(0)
        q = Tensor(rng.normal(size=(3, 2)))
        k = Tensor(np.zeros((3, 2)))
        v = Tensor(np.eye(3))
        out = classical_attention(q, k, v).data
        np.testing.assert_allclose(out[2], [1 / 3, 1 / 3, 1 / 3], atol=1e-15)
        np.testing.assert_allclose(out[1], [0.5, 0.5, 0.0], atol=1e-15)

    def test_matches_hand_rolled_softmax(self):
        rng = np.random.default_rng(1)
        q, k, v = rng.normal(size=(3, 4)), rng.normal(size=(3, 4)), rng.normal(size=(3, 4))
        out = classical_attention(Tensor(q), Tensor(k), Tensor(v)).data
        scores = q @ k.T / math.sqrt(4)
        expected = np.zeros((3, 4))
        for i in range(3):
            row = scores[i, : i + 1]
            w = np.exp(row - row.max())
            w = w / w.sum()
            expected[i] = w @ v[: i + 1]
        np.testing.assert_allclose(out, expected, atol=1e-12)


class TestCausalAttention:
    @given(n_heads=st.integers(1, 4), width=st.integers(1, 5), m=st.integers(1, 12), seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_per_head_oracle(self, n_heads, width, m, seed):
        rng = np.random.default_rng(seed)
        arrays = [rng.normal(size=(m, n_heads * width)) for _ in range(3)]
        bias = rng.normal(size=(n_heads, m, m))
        probe = rng.normal(size=(m, n_heads * width))
        scale = 1.0 / math.sqrt(width)
        results = []
        for attend in (causal_attention, per_head_attention_reference):
            tensors = [Tensor(a) for a in arrays + [bias]]
            with ComputationRecord() as rec:
                out = attend(*tensors[:3], n_heads, scale, tensors[3])
                rec.backward((out * Tensor(probe)).sum())
            results.append((out.data, [t.grad for t in tensors]))
        (out, grads), (expected, expected_grads) = results
        np.testing.assert_allclose(out, expected, rtol=0, atol=1e-13)
        largest = max(np.abs(g).max() for g in expected_grads)
        for g, e in zip(grads, expected_grads):
            np.testing.assert_allclose(g, e, rtol=0, atol=1e-12 * largest)

    def test_heads_do_not_see_each_other(self):
        rng = np.random.default_rng(11)
        m, n_heads, width = 6, 3, 4
        arrays = [rng.normal(size=(m, n_heads * width)) for _ in range(3)]
        base = causal_attention(*(Tensor(a) for a in arrays), n_heads, 0.5).data
        cols = slice(width, 2 * width)  # head 1
        for role in range(3):
            changed = [a.copy() for a in arrays]
            changed[role][:, cols] = rng.normal(size=(m, width))
            out = causal_attention(*(Tensor(a) for a in changed), n_heads, 0.5).data
            assert not np.array_equal(out[:, cols], base[:, cols])
            others = np.ones(n_heads * width, dtype=bool)
            others[cols] = False
            np.testing.assert_array_equal(out[:, others], base[:, others])


class TestQuantumPositional:
    def test_even_entries_vanish_at_position_zero(self):
        omega, phases = Tensor(np.zeros(1)), Tensor(np.zeros(8))
        table = quantum_positional_encoding(np.arange(4), 8, omega, phases).data
        np.testing.assert_array_equal(table[0, 0::2], np.zeros(4))

    def test_odd_entries_at_position_zero_are_phase_sines(self):
        rng = np.random.default_rng(2)
        phases = rng.normal(size=8)
        table = quantum_positional_encoding(np.arange(4), 8, Tensor(np.zeros(1)), Tensor(phases)).data
        np.testing.assert_allclose(table[0, 1::2], np.sin(phases[1::2]), atol=1e-15)

    def test_spot_value(self):
        table = quantum_positional_encoding(np.arange(2), 2, Tensor(np.zeros(1)), Tensor(np.zeros(2))).data
        assert abs(table[1, 0] - math.sin(1.0)) < 1e-12  # sin(1) * cos(0)

    def test_reduces_to_classic_table_at_init_phases(self):
        d = 8
        phases = np.zeros(d)
        phases[1::2] = math.pi / 2.0
        table = quantum_positional_encoding(np.arange(6), d, Tensor(np.zeros(1)), Tensor(phases)).data
        np.testing.assert_allclose(table, sinusoidal_table(6, d), atol=1e-12)


class TestLmHead:
    def test_zero_weights_broadcast_bias(self):
        cfg = default_config("transformer", vocab_size=9, max_seq_len=8, seed=0, d_model=4, n_heads=2, d_ff=8, n_blocks=1)
        model = build_model(cfg)
        model.head_w.data[...] = 0.0
        model.head_b.data[...] = np.arange(9.0)
        h = Tensor(np.random.default_rng(0).normal(size=(3, 4)))
        out = model.lm_head(h).data
        for row in out:
            np.testing.assert_array_equal(row, np.arange(9.0))

    def test_softmax_of_head_rows_normalizes(self):
        cfg = default_config("transformer", vocab_size=7, max_seq_len=8, seed=0, d_model=4, n_heads=2, d_ff=8, n_blocks=1)
        model = build_model(cfg)
        logits = model.logits([1, 4, 5]).data
        p = np.exp(logits - logits.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)

    def test_head_is_plain_affine_map(self):
        cfg = default_config("qksan", vocab_size=6, max_seq_len=8, seed=1, d_model=4, n_heads=2, d_ff=8,
                             n_blocks=1, quantum_features=4)
        model = build_model(cfg)
        h = np.random.default_rng(1).normal(size=(2, 4))
        np.testing.assert_allclose(model.lm_head(Tensor(h)).data,
                                   h @ model.head_w.data + model.head_b.data, atol=1e-12)


class _ForcedModel:
    """Tiny stub whose next-token logits always favor one id."""

    def __init__(self, vocab_size, favorite):
        self.vocab_size = vocab_size
        self.favorite = favorite
        self.config = default_config("mlp", vocab_size=vocab_size, max_seq_len=10)

    def logits(self, ids, cache=None):
        row = np.zeros((len(ids), self.vocab_size))
        row[:, self.favorite] = 5.0
        return Tensor(row)


class TestGenerate:
    def test_eos_bias_returns_prompt_only(self):
        model = _ForcedModel(6, favorite=2)  # 2 is the EOS id
        assert generate(model, [1, 4], max_new=8) == [1, 4]

    def test_greedy_is_deterministic(self):
        model = _ForcedModel(6, favorite=4)
        a = generate(model, [1], max_new=3)
        b = generate(model, [1], max_new=3)
        assert a == b == [1, 4, 4, 4]

    def test_sampling_needs_rng_and_positive_temperature(self):
        model = _ForcedModel(6, favorite=4)
        with pytest.raises(ValueError):
            generate(model, [1], max_new=2, mode="sample")
        with pytest.raises(ValueError):
            generate(model, [1], max_new=2, mode="sample", temperature=0.0, rng=Rng(0))

    def test_sampling_is_seed_deterministic(self):
        model = _ForcedModel(8, favorite=5)
        a = generate(model, [1], max_new=5, mode="sample", temperature=1.5, rng=Rng(9))
        b = generate(model, [1], max_new=5, mode="sample", temperature=1.5, rng=Rng(9))
        assert a == b

    def test_prompt_too_long_rejected(self):
        model = _ForcedModel(6, favorite=4)
        with pytest.raises(ValueError, match="exceeds"):
            generate(model, list(range(11)), max_new=1)

    def test_empty_prompt_rejected(self):
        with pytest.raises(ValueError):
            generate(_ForcedModel(6, 4), [], max_new=1)

    def test_respects_model_context_cap(self):
        model = _ForcedModel(6, favorite=4)
        out = generate(model, [1] * 9, max_new=50)
        assert len(out) == 10


def test_embedding_plus_positional_shapes():
    cfg = default_config("qasa", vocab_size=9, max_seq_len=6, seed=0, d_model=8, n_heads=2, d_ff=8, n_blocks=1)
    model = build_model(cfg)
    x = model.embed([1, 2, 3]) + model.positional(np.arange(3))
    assert x.shape == (3, 8)


def test_matmul_head_equivalence_oracle():
    # lm head equals an explicit matmul recomputation
    cfg = default_config("transformer", vocab_size=5, max_seq_len=6, seed=3, d_model=4, n_heads=2, d_ff=8, n_blocks=1)
    model = build_model(cfg)
    h = Tensor(np.random.default_rng(2).normal(size=(2, 4)))
    np.testing.assert_allclose(
        model.lm_head(h).data,
        matmul(h, model.head_w).data + model.head_b.data,
        atol=1e-14,
    )


_PACK_VOCAB, _PACK_MAX_LEN = 11, 9


@lru_cache(maxsize=None)
def _pack_model(arch):
    return build_model(default_config(arch, vocab_size=_PACK_VOCAB, max_seq_len=_PACK_MAX_LEN, seed=5))


def _pack_grads(model, loss):
    for t in model.params.values():
        t.zero_grad()
    with ComputationRecord() as rec:
        rec.backward(loss())
    grads = {name: t.grad for name, t in model.params.items() if t.grad is not None}
    for t in model.params.values():
        t.zero_grad()
    return grads


_sequences = st.lists(st.lists(st.integers(0, _PACK_VOCAB - 1), min_size=1, max_size=_PACK_MAX_LEN),
                      min_size=1, max_size=8)


class TestPacking:
    @given(arch=st.sampled_from(ARCHITECTURES), seqs=_sequences, seed=st.integers(0, 2 ** 32 - 1))
    def test_packed_rows_match_each_sequence_alone(self, arch, seqs, seed):
        model = _pack_model(arch)
        flat, lengths = [t for seq in seqs for t in seq], [len(seq) for seq in seqs]
        targets = np.random.default_rng(seed).integers(0, _PACK_VOCAB, len(flat))
        packed = model.logits(flat, lengths).data
        alone = np.concatenate([model.logits(seq).data for seq in seqs])
        np.testing.assert_allclose(packed, alone, rtol=0, atol=1e-12)
        got = _pack_grads(model, lambda: cross_entropy(model.logits(flat, lengths), targets))
        want = _pack_grads(model, lambda: cross_entropy(concat([model.logits(seq) for seq in seqs]), targets))
        assert got.keys() == want.keys()
        largest = max(float(np.abs(g).max()) for g in want.values())
        for name in want:
            np.testing.assert_allclose(got[name], want[name], rtol=0, atol=1e-12 * largest, err_msg=name)

    @given(arch=st.sampled_from(ARCHITECTURES), seqs=_sequences, data=st.data())
    def test_changing_one_sequence_leaves_the_others_bit_identical(self, arch, seqs, data):
        model = _pack_model(arch)
        which = data.draw(st.integers(0, len(seqs) - 1))
        replacement = data.draw(st.lists(st.integers(0, _PACK_VOCAB - 1),
                                         min_size=len(seqs[which]), max_size=len(seqs[which])))
        changed = [replacement if i == which else seq for i, seq in enumerate(seqs)]
        lengths = [len(seq) for seq in seqs]
        ends = np.cumsum(lengths)
        others = np.ones(ends[-1], dtype=bool)
        others[ends[which] - lengths[which]:ends[which]] = False
        a = model.logits([t for seq in seqs for t in seq], lengths).data
        b = model.logits([t for seq in changed for t in seq], lengths).data
        np.testing.assert_array_equal(a[others], b[others])

    @pytest.mark.parametrize("arch", ARCHITECTURES)
    def test_bad_lengths_rejected(self, arch):
        model = _pack_model(arch)
        with pytest.raises(ValueError, match="sum to 4, but 5"):
            model.logits([1, 2, 3, 4, 5], [2, 2])
        with pytest.raises(ValueError, match="at least one"):
            model.logits([1, 2, 3], [3, 0])
        with pytest.raises(ValueError, match="exceeds max_seq_len"):
            model.logits(list(range(1, _PACK_MAX_LEN + 3)), [1, _PACK_MAX_LEN + 1])


_CACHE_VOCAB, _CACHE_MAX_LEN = 13, 12
_WIDE = dict(d_model=64, d_ff=128, circuit_layers=4, qrwkv_qubits=6)


@lru_cache(maxsize=None)
def _cache_model(arch, wide):
    return build_model(default_config(arch, vocab_size=_CACHE_VOCAB, max_seq_len=_CACHE_MAX_LEN, seed=8,
                                      **(_WIDE if wide else {})))


class TestDecodeCache:
    @pytest.mark.parametrize("wide", [False, True], ids=["default", "widened"])
    @pytest.mark.parametrize("arch", ARCHITECTURES)
    @settings(max_examples=8)
    @given(ids=st.lists(st.integers(0, _CACHE_VOCAB - 1), min_size=2, max_size=_CACHE_MAX_LEN), data=st.data())
    def test_prefill_then_short_calls_match_one_full_call(self, arch, wide, ids, data):
        # one-token calls as in generate, or calls of up to 3 ids
        model = _cache_model(arch, wide)
        prefill, step = data.draw(st.integers(1, len(ids) - 1)), data.draw(st.sampled_from([1, 3]))
        cache = DecodeCache()
        rows = [model.logits(ids[:prefill], cache=cache).data]
        rows += [model.logits(ids[i:i + step], cache=cache).data for i in range(prefill, len(ids), step)]
        full = model.logits(ids).data
        assert cache.length == len(ids)
        np.testing.assert_allclose(np.concatenate(rows), full, rtol=0, atol=1e-12 * np.abs(full).max())

    @pytest.mark.parametrize("arch", ARCHITECTURES)
    def test_empty_cache_call_is_bit_identical(self, arch):
        model = _cache_model(arch, False)
        for ids in ([4], [1, 5, 2, 9], list(range(_CACHE_MAX_LEN))):
            assert model.logits(ids, cache=DecodeCache()).data.tobytes() == model.logits(ids).data.tobytes()

    @pytest.mark.parametrize("wide", [False, True], ids=["default", "widened"])
    @pytest.mark.parametrize("arch", ARCHITECTURES)
    def test_generate_matches_the_rerun_reference(self, arch, wide):
        model = _cache_model(arch, wide)
        for seed, prompt in enumerate(([1], [1, 7], [3, 9, 4, 11], [2, 5, 6, 8, 10, 12, 1])):
            for eos_id in (EOS_ID, -1):  # -1: no id ends decoding, so it runs to max_seq_len
                assert (generate(model, prompt, max_new=20, eos_id=eos_id)
                        == generate_reference(model, prompt, max_new=20, eos_id=eos_id))
                for temperature in (0.7, 1.5):
                    kwargs = dict(max_new=20, mode="sample", temperature=temperature, eos_id=eos_id)
                    assert (generate(model, prompt, rng=Rng(seed), **kwargs)
                            == generate_reference(model, prompt, rng=Rng(seed), **kwargs))

    @pytest.mark.parametrize("arch", ARCHITECTURES)
    def test_cache_of_a_prefix_does_not_change_with_later_tokens(self, arch):
        # criterion 7 for cached calls
        model, rng = _cache_model(arch, False), Rng(99)
        for _ in range(20):
            length = 3 + rng.randrange(_CACHE_MAX_LEN - 2)
            cut = 1 + rng.randrange(length - 1)
            ids = [rng.randrange(_CACHE_VOCAB) for _ in range(length)]
            for seq in (ids, ids[:cut] + [rng.randrange(_CACHE_VOCAB) for _ in range(length - cut)]):
                cache = DecodeCache()
                model.logits(seq[:cut], cache=cache)
                at_cut = dict(cache.state)
                copies = {name: a.copy() for name, a in at_cut.items()}
                for t in seq[cut:]:
                    model.logits([t], cache=cache)
                for name, held in at_cut.items():
                    assert held.tobytes() == copies[name].tobytes(), name  # nothing wrote into a held array
                    if held.ndim > 1 and cache.state[name].shape != held.shape:  # rows kept for every position
                        assert cache.state[name][..., :cut, :].tobytes() == held.tobytes(), name

    @pytest.mark.parametrize("arch", ARCHITECTURES)
    def test_bad_cached_calls_rejected(self, arch):
        model = _cache_model(arch, False)
        cache = DecodeCache()
        model.logits(list(range(1, _CACHE_MAX_LEN)), cache=cache)
        with pytest.raises(ValueError, match=f"length {_CACHE_MAX_LEN + 1} exceeds max_seq_len"):
            model.logits([1, 2], cache=cache)
        with pytest.raises(ValueError, match="one sequence, but 2 segments"):
            model.logits([1, 2, 3], [1, 2], cache=DecodeCache())
        with ComputationRecord():
            with pytest.raises(ValueError, match="ComputationRecord"):
                model.logits([1], cache=cache)
        assert cache.length == _CACHE_MAX_LEN - 1  # a rejected call leaves the cache as it was
        model.logits([1], cache=cache)


class TestHeadStacks:
    @pytest.mark.parametrize("arch", ["qksan", "qasa"])
    @pytest.mark.parametrize("n_heads", [1, 2, 4])
    def test_initial_stacks_equal_per_head_draws(self, arch, n_heads):
        # the stacks hold exactly what drawing one head at a time gives, bit for bit
        for seed in (0, 1, 42):
            config = default_config(arch, vocab_size=11, max_seq_len=8, seed=seed, d_model=8, n_heads=n_heads,
                                    d_ff=16, n_blocks=2, quantum_features=6)
            model = build_model(config)
            owners = model.blocks if arch == "qksan" else [model]
            draws = initial_head_draws(config)
            assert len(draws) == len(owners)
            for owner, families in zip(owners, draws):
                assert set(families) == set(vars(head_view(owner, 0))) - {"dh", "dq"}
                for name, arrays in families.items():
                    assert len(arrays) == n_heads
                    for a, want in enumerate(arrays):
                        got = getattr(head_view(owner, a), name).data
                        assert got.shape == want.shape and got.tobytes() == want.tobytes(), (seed, name, a)
