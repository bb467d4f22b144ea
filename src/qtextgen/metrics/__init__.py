"""Evaluation suite: perplexity, BLEU-n, Distinct-n, repetition, fluency."""

from .report import GenerationSample, MetricsReport, SampleScores, aggregate_report, mean_nll, perplexity, score_sample
from .text_metrics import FluencyStats, bleu_n, distinct_n, fluency_stats, repetition_rate

__all__ = [
    "FluencyStats",
    "GenerationSample",
    "MetricsReport",
    "SampleScores",
    "aggregate_report",
    "bleu_n",
    "distinct_n",
    "fluency_stats",
    "mean_nll",
    "perplexity",
    "repetition_rate",
    "score_sample",
]
