"""Per-(model, dataset) metric bundles: perplexity, sample scoring, aggregation."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

from ..numerics import concat, cross_entropy
from .text_metrics import FluencyStats, bleu_n, distinct_n, fluency_stats, repetition_rate

__all__ = ["GenerationSample", "SampleScores", "MetricsReport", "mean_nll", "perplexity", "score_sample",
           "aggregate_report"]


@dataclass(frozen=True)
class GenerationSample:
    prompt: str
    reference: str
    output: str
    degenerate: bool = False


@dataclass(frozen=True)
class SampleScores:
    """Metrics of one generated output against its reference."""

    sample: GenerationSample
    bleu: tuple[float, float, float, float]
    distinct: tuple[float, float]
    repetition: float


@dataclass
class MetricsReport:
    model: str
    dataset: str
    perplexity: float
    bleu: tuple[float, float, float, float]
    distinct: tuple[float, float]
    repetition_rate: float
    avg_sentence_length: float
    length_variation: float
    samples: list[GenerationSample] = field(default_factory=list)

    def as_dict(self) -> dict:
        return asdict(self)


def mean_nll(model, sequences):
    """Token-pooled mean NLL under teacher forcing: (scalar tensor, target count).

    ``model.logits`` runs once per sequence on all but its last id, unpadded;
    one ``cross_entropy`` call scores the rows of every sequence, so each
    target counts once.  Sequences shorter than two ids score nothing.
    """
    rows, targets = [], []
    for seq in sequences:
        seq = list(seq)
        if len(seq) < 2:
            continue
        rows.append(model.logits(seq[:-1]))
        targets.extend(seq[1:])
    if not targets:
        raise ValueError("mean_nll needs at least one scored token")
    return cross_entropy(concat(rows), targets), len(targets)


def perplexity(model, sequences) -> float:
    """exp of :func:`mean_nll`."""
    return math.exp(mean_nll(model, sequences)[0].item())


def score_sample(prompt_tokens, reference_tokens, output_tokens) -> SampleScores:
    sample = GenerationSample(
        prompt=" ".join(prompt_tokens),
        reference=" ".join(reference_tokens),
        output=" ".join(output_tokens),
        degenerate=len(output_tokens) == 0,
    )
    return SampleScores(
        sample=sample,
        bleu=tuple(bleu_n(output_tokens, reference_tokens, n) for n in (1, 2, 3, 4)),
        distinct=(distinct_n(output_tokens, 1), distinct_n(output_tokens, 2)),
        repetition=repetition_rate(output_tokens),
    )


def aggregate_report(model_name: str, dataset_name: str, ppl: float, scored: list[SampleScores]) -> MetricsReport:
    """Average the per-prompt scores; perplexity arrives already pooled."""
    if not scored:
        raise ValueError("aggregate_report needs at least one scored sample")
    k = len(scored)
    bleu = tuple(sum(s.bleu[i] for s in scored) / k for i in range(4))
    distinct = tuple(sum(s.distinct[i] for s in scored) / k for i in range(2))
    repetition = sum(s.repetition for s in scored) / k
    non_empty = [s.sample.output.split() for s in scored if s.sample.output]
    fluency = fluency_stats(non_empty) if non_empty else FluencyStats(0.0, 0.0, degenerate=True)
    return MetricsReport(
        model=model_name,
        dataset=dataset_name,
        perplexity=ppl,
        bleu=bleu,
        distinct=distinct,
        repetition_rate=repetition,
        avg_sentence_length=fluency.avg_sentence_length,
        length_variation=fluency.length_variation,
        samples=[s.sample for s in scored],
    )
