"""Metric fixtures and properties: BLEU, Distinct-n, repetition, fluency, perplexity."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qtextgen.metrics import (
    aggregate_report,
    bleu_n,
    distinct_n,
    fluency_stats,
    perplexity,
    repetition_rate,
    score_sample,
)
from qtextgen.numerics import Tensor

words = st.sampled_from(["a", "b", "c", "the", "cat"])


class TestBleu:
    def test_identity_is_one(self):
        ref = "actions speak louder than words".split()
        assert bleu_n(ref, ref, 1) == 1.0
        assert bleu_n(ref, ref, 4) == 1.0

    def test_clipped_unigram_fixture(self):
        cand = "birds sings on the table".split()
        ref = "birds fly in the sky".split()
        assert bleu_n(cand, ref, 1) == 0.4  # matches: birds, the -> 2/5

    def test_disjoint_tokens_zero(self):
        assert bleu_n(["x", "y"], ["p", "q"], 1) == 0.0

    def test_empty_candidate_zero(self):
        assert bleu_n([], ["a"], 1) == 0.0

    def test_short_candidate_zero_for_high_order(self):
        assert bleu_n(["a"], ["a", "b", "c"], 2) == 0.0

    def test_clipping_limits_repeats(self):
        # candidate repeats 'the' three times; reference has it once
        assert bleu_n(["the", "the", "the"], ["the", "cat"], 1) == pytest.approx(1 / 3)

    def test_geometric_mean_of_two_orders(self):
        cand = ["a", "b", "c"]
        ref = ["a", "b", "d"]
        p1, p2 = 2 / 3, 1 / 2
        assert bleu_n(cand, ref, 2) == pytest.approx(math.exp((math.log(p1) + math.log(p2)) / 2))

    @given(st.lists(words, min_size=1, max_size=10))
    def test_identity_property(self, tokens):
        assert bleu_n(tokens, tokens, 1) == 1.0

    @given(st.lists(words, min_size=0, max_size=8), st.lists(words, min_size=0, max_size=8))
    def test_range_property(self, cand, ref):
        for n in (1, 2):
            assert 0.0 <= bleu_n(cand, ref, n) <= 1.0


class TestDistinct:
    def test_all_unique(self):
        assert distinct_n(["a", "b", "c"], 1) == 1.0

    def test_repeated_unigram(self):
        assert distinct_n(["the", "the", "cat"], 1) == pytest.approx(2 / 3)

    def test_bigram_fixture(self):
        assert distinct_n(["a", "b", "a", "b"], 2) == pytest.approx(2 / 3)

    def test_empty_defined_as_one(self):
        assert distinct_n([], 1) == 1.0
        assert distinct_n(["a"], 2) == 1.0

    @given(st.lists(st.sampled_from(["x", "y", "z", "w"]), min_size=1, max_size=6, unique=True))
    def test_doubling_halves_unique_ratio(self, tokens):
        assert distinct_n(tokens + tokens, 1) == pytest.approx(distinct_n(tokens, 1) / 2)

    @given(st.lists(words, min_size=0, max_size=10))
    def test_range_property(self, tokens):
        assert 0.0 <= distinct_n(tokens, 1) <= 1.0


class TestRepetition:
    def test_one_adjacent_pair(self):
        assert repetition_rate(["a", "a", "b"]) == 0.5

    def test_all_distinct(self):
        assert repetition_rate(["a", "b", "c"]) == 0.0

    def test_all_same(self):
        assert repetition_rate(["x", "x", "x", "x"]) == 1.0

    def test_short_inputs(self):
        assert repetition_rate([]) == 0.0
        assert repetition_rate(["a"]) == 0.0

    @given(st.lists(words, min_size=2, max_size=12))
    def test_invariant_under_relabeling(self, tokens):
        mapping = {"a": "q", "b": "r", "c": "s", "the": "t", "cat": "u"}
        assert repetition_rate(tokens) == repetition_rate([mapping[t] for t in tokens])


class TestFluency:
    def test_equal_lengths(self):
        stats = fluency_stats([["w"] * 5, ["w"] * 5, ["w"] * 5])
        assert stats.avg_sentence_length == 5.0
        assert stats.length_variation == 0.0

    def test_four_and_six(self):
        stats = fluency_stats([["w"] * 4, ["w"] * 6])
        assert stats.avg_sentence_length == 5.0
        assert stats.length_variation == pytest.approx(0.2)

    def test_single_sentence(self):
        stats = fluency_stats([["w"] * 7])
        assert stats.avg_sentence_length == 7.0
        assert stats.length_variation == 0.0

    def test_terminal_punctuation_splits(self):
        stats = fluency_stats([["a", "b", ".", "c", "d", "e", "."]])
        assert stats.avg_sentence_length == 2.5

    def test_degenerate_all_punctuation(self):
        stats = fluency_stats([[".", "."]])
        # punctuation-only input yields no words: flagged, variation zero
        assert stats.degenerate or stats.avg_sentence_length > 0


class _UniformModel:
    def __init__(self, vocab_size):
        self.vocab_size = vocab_size

    def logits(self, ids, lengths=None):
        return Tensor(np.zeros((len(ids), self.vocab_size)))


class _PresetModel:
    """Assigns a fixed probability to every target via two-way logits."""

    def __init__(self, p, vocab_size=2):
        self.logit = math.log(p / (1 - p))
        self.vocab_size = vocab_size

    def logits(self, ids, lengths=None):
        row = np.array([self.logit, 0.0])
        return Tensor(np.tile(row, (len(ids), 1)))


class TestPerplexity:
    def test_uniform_model_equals_vocab_size(self):
        model = _UniformModel(45)
        assert perplexity(model, [(1, 5, 9, 2)]) == pytest.approx(45.0, abs=1e-9)

    def test_perfect_model_floor(self):
        model = _PresetModel(1 - 1e-15)
        seq = (0, 0, 0)
        assert perplexity(model, [seq]) == pytest.approx(1.0, abs=1e-6)

    def test_hand_mixed_probabilities(self):
        # one step at p=0.5 then one at p=0.25 pooled: exp(mean nll) = sqrt(8)
        class TwoStep:
            def logits(self, ids, lengths=None):
                rows = []
                for t in range(len(ids)):
                    p = 0.5 if t == 0 else 0.25
                    rows.append([math.log(p), math.log(1 - p)])
                return Tensor(np.array(rows))

        assert perplexity(TwoStep(), [(0, 0, 0)]) == pytest.approx(math.sqrt(8.0), rel=1e-12)

    def test_pooling_across_sequences(self):
        model = _UniformModel(10)
        assert perplexity(model, [(1, 2), (3, 4, 5)]) == pytest.approx(10.0, abs=1e-9)


class TestAggregation:
    def test_single_sample_passthrough(self):
        scored = [score_sample(["a"], ["a", "b"], ["a", "b"])]
        report = aggregate_report("M", "D", 2.0, scored)
        assert report.bleu[0] == 1.0
        assert report.perplexity == 2.0
        assert report.samples[0].output == "a b"

    def test_bleu_average_of_zero_and_one(self):
        scored = [
            score_sample(["a"], ["a", "b"], ["a", "b"]),
            score_sample(["x"], ["a", "b"], ["q", "r"]),
        ]
        report = aggregate_report("M", "D", 1.5, scored)
        assert report.bleu[0] == 0.5

    def test_report_fields_cover_table_columns(self):
        scored = [score_sample(["a"], ["a", "b"], ["a", "b"])]
        d = aggregate_report("M", "D", 2.0, scored).as_dict()
        for key in ("model", "dataset", "perplexity", "bleu", "distinct", "repetition_rate"):
            assert key in d

    def test_rates_bounded(self):
        scored = [score_sample(["a"], ["a", "b", "c"], ["a", "a", "a"])]
        report = aggregate_report("M", "D", 3.0, scored)
        assert 0.0 <= report.bleu[0] <= 1.0
        assert 0.0 <= report.distinct[0] <= 1.0
        assert 0.0 <= report.repetition_rate <= 1.0
        assert report.perplexity >= 1.0

    def test_degenerate_outputs_flagged(self):
        scored = [score_sample(["a"], ["a", "b"], [])]
        report = aggregate_report("M", "D", 2.0, scored)
        assert report.samples[0].degenerate
        assert report.avg_sentence_length == 0.0
