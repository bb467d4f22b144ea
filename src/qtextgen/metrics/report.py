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


# Positions per pack.  Attention scores are dense (h, N, N) stacks per pack, so
# their cost and memory grow with the square of N: a whole corpus in one call
# is slower and larger than one call per sequence.  80 positions keep nearly
# all of the speed-up of larger packs for a few percent more peak memory than
# one call per sequence.
PACK_POSITIONS = 80


def _packs(inputs):
    """Split id lists, in order, into consecutive packs of at most ``PACK_POSITIONS`` ids.

    Packs fill greedily; a list longer than the budget forms a pack on its own.
    """
    pack, size = [], 0
    for ids in inputs:
        if pack and size + len(ids) > PACK_POSITIONS:
            yield pack
            pack, size = [], 0
        pack.append(ids)
        size += len(ids)
    if pack:
        yield pack


def mean_nll(model, sequences):
    """Token-pooled mean NLL under teacher forcing: (scalar tensor, target count).

    Each sequence contributes all but its last id as input, unpadded.  The
    inputs are packed (:func:`_packs`): one ``model.logits(ids, lengths)``
    call per pack runs the flat concatenation of its inputs as segments that
    never see one another, so every row's logits equal those of its sequence
    run alone (to rounding).  One ``cross_entropy`` call scores the rows of
    every pack, so each target counts once.  A single sequence is a pack of
    one segment.  Sequences shorter than two ids score nothing.
    """
    inputs, targets = [], []
    for seq in sequences:
        seq = list(seq)
        if len(seq) < 2:
            continue
        inputs.append(seq[:-1])
        targets.extend(seq[1:])
    if not targets:
        raise ValueError("mean_nll needs at least one scored token")
    rows = [model.logits([t for ids in pack for t in ids], [len(ids) for ids in pack]) for pack in _packs(inputs)]
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
