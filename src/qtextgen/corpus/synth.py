"""Synthesis of the five micro-corpora from template grammars.

Each dataset is defined by disjoint word pools, sentence templates per
length (slots reference pools via "$name"; plain strings are literal pool
words), and a handful of fixed reference sentences that must appear
verbatim.  Construction is exact by design: sample count, total word count
(hence average length), maximum length, and distinct-word count (hence
vocabulary size) all hit their targets, not just land within tolerance.

The generator works longest-sentence-first, greedily choosing the template
that can cover the most still-unused pool words, then repairs any stragglers
by swapping them into same-category slots whose occupant occurs elsewhere.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from ..numerics.rng import Rng, derive_seed
from .text import Vocabulary, tokenize

__all__ = [
    "SynthesisError",
    "Dataset",
    "Subset",
    "DATASET_NAMES",
    "REFERENCE_SENTENCES",
    "synthesize_datasets",
    "train_val_split",
    "save_dataset",
    "load_dataset",
]


class SynthesisError(ValueError):
    """A generated corpus violated one of its target statistics."""


@dataclass(frozen=True)
class Dataset:
    name: str
    texts: tuple[str, ...]
    vocab: Vocabulary
    sequences: tuple[tuple[int, ...], ...]
    manifest: dict

    @property
    def max_words(self) -> int:
        return self.manifest["max_length_words"]


@dataclass(frozen=True)
class Subset:
    """A train or validation slice sharing the parent dataset's vocabulary."""

    name: str
    texts: tuple[str, ...]
    sequences: tuple[tuple[int, ...], ...]
    vocab: Vocabulary


@dataclass(frozen=True)
class _CorpusSpec:
    name: str
    description: str
    n_samples: int
    total_words: int
    max_words: int
    pools: dict
    templates: dict
    fixed: tuple[str, ...]

    @property
    def all_words(self) -> frozenset:
        return frozenset(w for pool in self.pools.values() for w in pool)


def _seg(*items):
    return tuple(items)


def _haiku_templates():
    """17-word templates assembled from 5-7-5 word segments."""
    seg5 = [
        _seg("$himg", "$himg", "$hverb", "$hprep", "$himg"),
        _seg("$hadj", "$himg", "$hverb", "$hadv", "$hrest"),
        _seg("the", "$hadj", "$himg", "$hverb", "$hadv"),
        _seg("$himg", "$hverb", "$hprep", "the", "$himg"),
        _seg("a", "$hadj", "$himg", "$hverb", "$hadv"),
    ]
    seg7 = [
        _seg("$hadj", "$himg", "$hverb", "$hadv", "$hprep", "the", "$himg"),
        _seg("the", "$himg", "of", "the", "$hadj", "$himg", "$hverb"),
        _seg("$himg", "and", "$himg", "$hverb", "$hprep", "$hadj", "$himg"),
        _seg("where", "the", "$hadj", "$himg", "$hverb", "the", "$himg"),
        _seg("while", "$hadj", "$himg", "$hverb", "$hprep", "the", "$himg"),
    ]
    combos = []
    for a in seg5:
        for b in seg7:
            for c in seg5:
                combos.append(a + b + c)
    return {17: combos}


_SPECS = (
    _CorpusSpec(
        name="simple_sentences",
        description="Basic sentence structures",
        n_samples=50,
        total_words=260,
        max_words=7,
        pools={
            "noun": ("birds", "children", "dogs", "cats", "fish", "farmers", "teachers", "students", "horses", "bees"),
            "verb": ("fly", "run", "sleep", "play", "swim", "sing", "walk", "read", "jump", "dance"),
            "place": ("sky", "park", "river", "garden", "school", "field", "forest", "meadow"),
            "adverb": ("quietly", "slowly", "happily", "together", "gracefully"),
            "prep": ("in", "on", "near", "across", "over"),
            "art": ("the", "a"),
            "conj": ("and",),
        },
        templates={
            4: [
                _seg("$noun", "$verb", "$prep", "$place"),
                _seg("$art", "$noun", "$verb", "$adverb"),
            ],
            5: [
                _seg("$noun", "$verb", "$prep", "$art", "$place"),
                _seg("$art", "$noun", "$verb", "$prep", "$place"),
            ],
            6: [
                _seg("$noun", "$verb", "$adverb", "$prep", "$art", "$place"),
                _seg("$art", "$noun", "$verb", "$prep", "$art", "$place"),
            ],
            7: [
                _seg("$art", "$noun", "$verb", "$adverb", "$prep", "$art", "$place"),
                _seg("$noun", "and", "$noun", "$verb", "$prep", "$art", "$place"),
            ],
        },
        fixed=("birds fly in the sky",),
    ),
    _CorpusSpec(
        name="short_stories",
        description="Narrative text segments",
        n_samples=25,
        total_words=320,
        max_words=18,
        pools={
            "snoun": ("sailor", "storm", "harbor", "village", "mountain", "forest", "child", "grandmother",
                      "traveler", "lantern", "bridge", "winter", "morning", "garden", "letter", "journey"),
            "sverb": ("watched", "remembered", "discovered", "followed", "whispered", "carried", "returned",
                      "waited", "wandered", "smiled"),
            "sadj": ("old", "quiet", "distant", "golden", "ancient", "small", "bright", "lonely", "warm", "silent"),
            "sprep": ("through", "toward", "beyond", "under", "across", "along"),
            "sdet": ("the", "a", "his", "her", "every", "one"),
            "sconj": ("and", "while", "until", "when"),
            "stime": ("evening", "night", "day", "dawn"),
            "smisc": ("slowly", "home", "again", "finally", "there", "still", "stories", "dreams", "songs",
                      "years", "rain", "wind", "light", "stars", "fire", "tales", "echoes", "memories"),
        },
        templates={
            10: [
                _seg("$sdet", "$sadj", "$snoun", "$sverb", "$sdet", "$snoun", "$sconj", "$sverb", "$sdet", "$snoun"),
                _seg("$sdet", "$snoun", "$sverb", "$sprep", "$sdet", "$snoun", "$sconj", "$sverb", "$smisc", "$smisc"),
            ],
            11: [
                _seg("$sdet", "$snoun", "$sverb", "$sprep", "$sdet", "$sadj", "$snoun", "$sconj", "$sverb", "$smisc", "$smisc"),
                _seg("one", "$stime", "$sdet", "$snoun", "$sverb", "$sdet", "$sadj", "$snoun", "$sconj", "$sverb", "$smisc"),
            ],
            12: [
                _seg("one", "$stime", "$sdet", "$sadj", "$snoun", "$sverb", "$sprep", "$sdet", "$snoun", "$sconj", "$sverb", "$smisc"),
                _seg("$sdet", "$sadj", "$snoun", "$sverb", "$sprep", "$sdet", "$sadj", "$snoun", "$sconj", "$sverb", "$sdet", "$snoun"),
            ],
            13: [
                _seg("$sdet", "$snoun", "$sverb", "$sdet", "$sadj", "$snoun", "$sprep", "$sdet", "$snoun", "$sconj", "$sverb", "$sdet", "$smisc"),
                _seg("when", "$sdet", "$snoun", "$sverb", "$sdet", "$snoun", "$sdet", "$sadj", "$snoun", "$sverb", "$smisc", "$smisc", "$smisc"),
            ],
            14: [
                _seg("one", "$stime", "$sdet", "$snoun", "$sverb", "$sdet", "$sadj", "$snoun", "$sconj", "$sverb", "$sprep", "$sdet", "$sadj", "$snoun"),
            ],
            15: [
                _seg("$sdet", "$sadj", "$snoun", "$sverb", "$sprep", "$sdet", "$snoun", "$sconj", "$sdet", "$snoun", "$sverb", "$sdet", "$sadj", "$snoun", "$smisc"),
            ],
            16: [
                _seg("one", "$stime", "$sdet", "$sadj", "$snoun", "$sverb", "$sdet", "$snoun", "$sprep", "$sdet", "$snoun", "$sconj", "$sverb", "$sdet", "$sadj", "$snoun"),
            ],
            17: [
                _seg("when", "$sdet", "$snoun", "$sverb", "$sdet", "$sadj", "$snoun", "$sdet", "$snoun", "$sverb", "$sprep", "$sdet", "$snoun", "$sconj", "$sverb", "$smisc", "$smisc"),
            ],
            18: [
                _seg("one", "$stime", "$sdet", "$sadj", "$snoun", "$sverb", "$sprep", "$sdet", "$sadj", "$snoun", "$sconj", "$sdet", "$snoun", "$sverb", "$sdet", "$sadj", "$snoun", "$smisc"),
            ],
        },
        fixed=(),
    ),
    _CorpusSpec(
        name="quantum_phrases",
        description="Domain-specific terminology",
        n_samples=30,
        total_words=252,
        max_words=12,
        pools={
            "qterm": ("superposition", "entanglement", "decoherence", "interference", "teleportation",
                      "tunneling", "annealing", "measurement"),
            "qnoun": ("states", "qubits", "gates", "circuits", "amplitudes", "systems", "particles",
                      "photons", "registers", "operators", "spins", "phases"),
            "qverb": ("allows", "enables", "preserves", "encodes", "transforms", "collapses", "evolves",
                      "controls", "stores", "couples"),
            "qadj": ("multiple", "coherent", "fragile", "parallel", "robust", "unitary", "discrete",
                     "hidden", "stable", "entangled"),
            "qnoun2": ("information", "computing", "hardware", "noise", "logic", "theory"),
            "qconn": ("in", "of", "with", "between", "through", "across", "and"),
            "qlit": ("quantum", "the", "a", "error", "correction"),
        },
        templates={
            5: [
                _seg("quantum", "$qterm", "$qverb", "$qadj", "$qnoun"),
            ],
            6: [
                _seg("the", "quantum", "$qterm", "$qverb", "$qadj", "$qnoun"),
            ],
            7: [
                _seg("quantum", "$qterm", "$qconn", "$qadj", "$qnoun", "$qverb", "$qnoun"),
                _seg("a", "$qadj", "$qterm", "$qverb", "$qadj", "quantum", "$qnoun"),
            ],
            8: [
                _seg("the", "$qterm", "of", "$qadj", "$qnoun", "$qverb", "quantum", "$qnoun"),
                _seg("quantum", "$qnoun2", "$qverb", "the", "$qterm", "of", "$qadj", "$qnoun"),
            ],
            9: [
                _seg("the", "$qadj", "$qterm", "$qconn", "quantum", "$qnoun", "$qverb", "$qadj", "$qnoun"),
                _seg("a", "$qadj", "$qterm", "$qverb", "$qadj", "quantum", "$qnoun", "$qconn", "$qnoun2"),
            ],
            10: [
                _seg("quantum", "error", "correction", "$qconn", "$qadj", "$qnoun", "$qverb", "the", "$qadj", "$qnoun"),
            ],
            11: [
                _seg("the", "$qterm", "of", "quantum", "$qnoun", "$qverb", "$qadj", "$qnoun2", "$qconn", "$qadj", "$qnoun"),
            ],
            12: [
                _seg("quantum", "error", "correction", "$qconn", "$qadj", "$qnoun", "$qverb", "the", "$qterm", "of", "$qadj", "$qnoun2"),
            ],
        },
        fixed=("quantum superposition allows multiple states",),
    ),
    _CorpusSpec(
        name="haiku",
        description="Structured poetry format",
        n_samples=20,
        total_words=340,
        max_words=17,
        pools={
            "himg": ("cherry", "blossoms", "pond", "frog", "moon", "snow", "river", "mountain", "autumn",
                     "spring", "summer", "winter", "leaves", "petals", "mist", "fog", "rain", "wind",
                     "stone", "moss", "bamboo", "crane", "sparrow", "dragonfly", "firefly", "lotus",
                     "maple", "pine", "shadow", "stars", "dawn", "dusk", "twilight", "ice", "clouds"),
            "hverb": ("fall", "drifts", "whispers", "settles", "rises", "fades", "glows", "trembles",
                      "floats", "lingers", "melts", "ripples", "sleeps", "wakes", "sings"),
            "hadj": ("ancient", "silent", "gentle", "pale", "cold", "soft", "empty", "fleeting", "hidden",
                     "lonely", "still", "bright"),
            "hprep": ("on", "in", "over", "under", "through", "beyond", "into", "across", "above", "beneath"),
            "hart": ("the", "a", "of", "and"),
            "hadv": ("softly", "slowly", "quietly"),
            "hrest": ("while", "where", "deep", "old", "far", "near"),
        },
        templates=_haiku_templates(),
        fixed=("cherry blossoms fall on the ancient pond silent mist drifts slowly over cold stone a pale moon",),
    ),
    _CorpusSpec(
        name="proverbs",
        description="Wisdom and cultural texts",
        n_samples=15,
        total_words=102,
        max_words=9,
        pools={
            "pnoun": ("actions", "words", "patience", "wisdom", "kindness", "honesty", "courage", "silence",
                      "fortune", "knowledge", "practice", "time", "truth", "hope", "effort", "honor", "virtue"),
            "pverb": ("speak", "brings", "teaches", "conquers", "heals", "guides"),
            "padj": ("louder", "stronger", "wiser", "brighter", "deeper", "sweeter"),
            "pfix": ("than", "the", "a", "is", "makes", "perfect", "every", "no", "without", "all", "good",
                     "things", "come", "to", "those", "who", "wait", "heart", "of"),
        },
        templates={
            5: [
                _seg("$pnoun", "makes", "a", "perfect", "$pnoun"),
                _seg("$pnoun", "$pverb", "$padj", "than", "$pnoun"),
                _seg("$pnoun", "is", "a", "$padj", "$pnoun"),
            ],
            6: [
                _seg("$pnoun", "without", "$pnoun", "is", "no", "$pnoun"),
                _seg("every", "$pnoun", "$pverb", "a", "$padj", "$pnoun"),
            ],
            7: [
                _seg("the", "$pnoun", "of", "the", "heart", "$pverb", "$pnoun"),
                _seg("no", "$pnoun", "is", "$padj", "than", "a", "$pnoun"),
            ],
            8: [
                _seg("all", "good", "things", "come", "to", "those", "who", "wait"),
                _seg("every", "$pnoun", "without", "$pnoun", "is", "a", "$padj", "$pnoun"),
            ],
            9: [
                _seg("the", "$pnoun", "of", "the", "heart", "$pverb", "$padj", "than", "$pnoun"),
                _seg("every", "$pnoun", "of", "the", "heart", "makes", "a", "$padj", "$pnoun"),
            ],
        },
        fixed=("actions speak louder than words", "all good things come to those who wait"),
    ),
)

DATASET_NAMES = tuple(s.name for s in _SPECS)

# sentences that must appear verbatim, keyed by dataset
REFERENCE_SENTENCES = {
    "simple_sentences": "birds fly in the sky",
    "quantum_phrases": "quantum superposition allows multiple states",
    "haiku": "cherry blossoms fall",
    "proverbs": "actions speak louder than words",
}


def _check_spec(spec: _CorpusSpec):
    pools = list(spec.pools.values())
    union = [w for p in pools for w in p]
    if len(union) != len(set(union)):
        raise AssertionError(f"{spec.name}: pools overlap")
    words = spec.all_words
    for length, templates in spec.templates.items():
        for tpl in templates:
            if len(tpl) != length:
                raise AssertionError(f"{spec.name}: template {tpl} under length {length}")
            for item in tpl:
                if item.startswith("$"):
                    if item[1:] not in spec.pools:
                        raise AssertionError(f"{spec.name}: unknown pool {item}")
                elif item not in words:
                    raise AssertionError(f"{spec.name}: literal {item!r} not in any pool")
    for text in spec.fixed:
        for tok in tokenize(text):
            if tok not in words:
                raise AssertionError(f"{spec.name}: fixed word {tok!r} not in any pool")


for _spec in _SPECS:
    _check_spec(_spec)


def _compose_lengths(spec: _CorpusSpec) -> list[int]:
    """Sentence lengths for the generated samples: exact total, max present,
    and at least one sentence per template length for coverage variety."""
    fixed_lengths = [len(tokenize(t)) for t in spec.fixed]
    count = spec.n_samples - len(fixed_lengths)
    total = spec.total_words - sum(fixed_lengths)
    available = sorted(spec.templates)
    need = list(available)
    if spec.max_words not in need and spec.max_words not in fixed_lengths:
        raise SynthesisError(f"{spec.name}: no template of maximum length {spec.max_words}")
    rest_count = count - len(need)
    rest_total = total - sum(need)
    if rest_count < 0 or rest_total < 0:
        raise SynthesisError(f"{spec.name}: sample budget too small for template variety")
    if rest_count:
        base = rest_total // rest_count
        bumped = rest_total - base * rest_count
        if base not in spec.templates or (bumped and base + 1 not in spec.templates):
            raise SynthesisError(f"{spec.name}: average length {base} has no template")
        need += [base + 1] * bumped + [base] * (rest_count - bumped)
    elif rest_total:
        raise SynthesisError(f"{spec.name}: total word budget infeasible")
    return sorted(need, reverse=True)


def _template_score(tpl, covered: set, unused_by_cat: dict) -> int:
    score = 0
    working = {cat: len(words) for cat, words in unused_by_cat.items()}
    for item in tpl:
        if item.startswith("$"):
            cat = item[1:]
            if working.get(cat, 0) > 0:
                working[cat] -= 1
                score += 1
        elif item not in covered:
            score += 1
    return score


def _generate_samples(spec: _CorpusSpec, rng: Rng):
    covered = {tok for text in spec.fixed for tok in tokenize(text)}
    unused_by_cat = {
        cat: rng.shuffle([w for w in pool if w not in covered])
        for cat, pool in spec.pools.items()
    }
    samples = [tokenize(t) for t in spec.fixed]
    slot_records = []  # (sample_index, position, category) for generated slots
    rotation: dict[int, int] = {}
    for length in _compose_lengths(spec):
        candidates = spec.templates[length]
        scores = [_template_score(t, covered, unused_by_cat) for t in candidates]
        best = max(scores)
        offset = rotation.get(length, 0)
        pick = next(i for i in range(len(candidates)) if scores[(i + offset) % len(candidates)] == best)
        tpl = candidates[(pick + offset) % len(candidates)]
        rotation[length] = offset + 1
        words, idx = [], len(samples)
        for pos, item in enumerate(tpl):
            if item.startswith("$"):
                cat = item[1:]
                queue = unused_by_cat[cat]
                word = queue.pop() if queue else spec.pools[cat][rng.randrange(len(spec.pools[cat]))]
                slot_records.append((idx, pos, cat))
            else:
                word = item
            words.append(word)
            covered.add(word)
        samples.append(words)
    _repair_coverage(spec, samples, slot_records, covered)
    return samples


def _repair_coverage(spec: _CorpusSpec, samples, slot_records, covered):
    missing = sorted(spec.all_words - covered)
    if not missing:
        return
    counts: dict[str, int] = {}
    for words in samples:
        for w in words:
            counts[w] = counts.get(w, 0) + 1
    cat_of = {w: cat for cat, pool in spec.pools.items() for w in pool}
    for word in missing:
        cat = cat_of[word]
        for idx, pos, slot_cat in slot_records:
            occupant = samples[idx][pos]
            if slot_cat == cat and counts.get(occupant, 0) >= 2:
                samples[idx][pos] = word
                counts[occupant] -= 1
                counts[word] = counts.get(word, 0) + 1
                break
        else:
            raise SynthesisError(f"{spec.name}: vocabulary target unreachable, {word!r} has no free slot")


def _validate(spec: _CorpusSpec, samples):
    if len(samples) != spec.n_samples:
        raise SynthesisError(f"{spec.name}: sample count {len(samples)} != {spec.n_samples}")
    total = sum(len(s) for s in samples)
    if total != spec.total_words:
        raise SynthesisError(f"{spec.name}: total words {total} != {spec.total_words}")
    longest = max(len(s) for s in samples)
    if longest != spec.max_words:
        raise SynthesisError(f"{spec.name}: max length {longest} != {spec.max_words}")
    distinct = {w for s in samples for w in s}
    if distinct != set(spec.all_words):
        raise SynthesisError(f"{spec.name}: vocabulary size {len(distinct)} != {len(spec.all_words)}")
    ref = REFERENCE_SENTENCES.get(spec.name)
    if ref is not None:
        ref_tokens = tokenize(ref)
        found = any(
            s[i:i + len(ref_tokens)] == ref_tokens
            for s in samples
            for i in range(len(s) - len(ref_tokens) + 1)
        )
        if not found:
            raise SynthesisError(f"{spec.name}: reference sentence {ref!r} missing")


def _build_dataset(spec: _CorpusSpec, seed: int) -> Dataset:
    last_error = None
    for attempt in range(5):
        rng = Rng(derive_seed(seed, "corpus", spec.name, attempt))
        try:
            samples = _generate_samples(spec, rng)
            _validate(spec, samples)
            break
        except SynthesisError as err:  # retry with a fresh stream
            last_error = err
    else:
        raise last_error
    order = rng.shuffle(list(range(len(samples))))
    texts = tuple(" ".join(samples[i]) for i in order)
    vocab = Vocabulary.from_texts(texts)
    sequences = tuple(tuple(vocab.sequence(t)) for t in texts)
    manifest = {
        "name": spec.name,
        "samples": spec.n_samples,
        "avg_length_words": spec.total_words / spec.n_samples,
        "vocab_size": len(vocab),
        "max_length_words": spec.max_words,
        "description": spec.description,
    }
    return Dataset(spec.name, texts, vocab, sequences, manifest)


def synthesize_datasets(seed: int) -> dict[str, Dataset]:
    """All five corpora, deterministically from one seed."""
    return {spec.name: _build_dataset(spec, seed) for spec in _SPECS}


def train_val_split(dataset: Dataset | Subset, fraction: float = 0.8, seed: int = 0):
    """Deterministic shuffled split into (train, validation), both non-empty."""
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"split fraction must lie in (0, 1), got {fraction}")
    n = len(dataset.texts)
    if n < 2:
        raise ValueError(f"cannot split a dataset of {n} samples")
    rng = Rng(derive_seed(seed, "split", dataset.name))
    order = rng.shuffle(list(range(n)))
    n_train = min(max(int(round(n * fraction)), 1), n - 1)
    train_idx, val_idx = order[:n_train], order[n_train:]

    def slice_of(indices):
        return Subset(
            name=dataset.name,
            texts=tuple(dataset.texts[i] for i in indices),
            sequences=tuple(dataset.sequences[i] for i in indices),
            vocab=dataset.vocab,
        )

    return slice_of(train_idx), slice_of(val_idx)


def save_dataset(dataset: Dataset, out_dir) -> tuple[Path, Path]:
    """Write <name>.txt (one sample per line) and <name>.manifest.json, each atomically."""
    from ..harness.files import write_text_atomic  # imported here: the harness imports this package

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    text_path = write_text_atomic(out / f"{dataset.name}.txt", "\n".join(dataset.texts) + "\n")
    manifest_path = write_text_atomic(out / f"{dataset.name}.manifest.json",
                                      json.dumps(dataset.manifest, indent=2, sort_keys=True) + "\n")
    return text_path, manifest_path


def load_dataset(dir_path, name: str) -> Dataset:
    """Rebuild a dataset from its files, verifying the stored manifest."""
    base = Path(dir_path)
    texts = tuple(line for line in (base / f"{name}.txt").read_text(encoding="utf-8").splitlines() if line)
    manifest = json.loads((base / f"{name}.manifest.json").read_text(encoding="utf-8"))
    vocab = Vocabulary.from_texts(texts)
    recomputed = {
        "samples": len(texts),
        "avg_length_words": sum(len(tokenize(t)) for t in texts) / len(texts),
        "vocab_size": len(vocab),
        "max_length_words": max(len(tokenize(t)) for t in texts),
    }
    for key, value in recomputed.items():
        if manifest.get(key) != value:
            raise ValueError(f"{name}: manifest field {key}={manifest.get(key)!r} does not match content {value!r}")
    sequences = tuple(tuple(vocab.sequence(t)) for t in texts)
    return Dataset(name, texts, vocab, sequences, manifest)
