"""Veracity-preserving text generation via Latent Dirichlet Allocation.

Section 3.2 of the paper describes the reference design this module
implements: a text generator that (1) learns a word dictionary from a real
text data set, (2) trains the parameters of an LDA model [Blei et al. 2003]
on that data set, and (3) generates synthetic text from the trained model.

The LDA trainer is a from-scratch collapsed Gibbs sampler; the fitted
model samples words through one Walker alias table per topic.
Two baseline generators are provided for veracity ablations:

* :class:`UnigramTextGenerator` — learns only the marginal word frequency
  (no topic structure), and
* :class:`RandomTextGenerator` — purely synthetic, HiBench-style uniform
  random words, independent of any real data ("un-considered" veracity in
  Table 1 of the paper).
"""

from __future__ import annotations

import re
from bisect import bisect_left
from collections import Counter
from collections.abc import Iterable, Sequence

import numpy as np

from repro.core.errors import GenerationError
from repro.datagen.alias import AliasSampler
from repro.datagen.base import (
    DataGenerator,
    DataSet,
    DataType,
    PurelySyntheticMixin,
)

_TOKEN_PATTERN = re.compile(r"[a-z0-9']+")


def tokenize(document: str) -> list[str]:
    """Lower-case alphanumeric tokenization used throughout the framework."""
    return _TOKEN_PATTERN.findall(document.lower())


class Vocabulary:
    """A bidirectional word ↔ integer-id mapping learned from a corpus."""

    def __init__(self, words: Iterable[str] = ()) -> None:
        self._word_to_id: dict[str, int] = {}
        self._words: list[str] = []
        for word in words:
            self.add(word)

    def add(self, word: str) -> int:
        if word not in self._word_to_id:
            self._word_to_id[word] = len(self._words)
            self._words.append(word)
        return self._word_to_id[word]

    def id_of(self, word: str) -> int:
        return self._word_to_id[word]

    def word_of(self, word_id: int) -> str:
        return self._words[word_id]

    def __contains__(self, word: str) -> bool:
        return word in self._word_to_id

    def __len__(self) -> int:
        return len(self._words)

    @property
    def words(self) -> list[str]:
        return list(self._words)


def draw_topic(
    word_row: Sequence[int],
    doc_row: Sequence[int],
    topic_totals: Sequence[int],
    alpha: float,
    beta: float,
    vocab_beta: float,
    uniform: float,
) -> int:
    """One collapsed-Gibbs topic draw, by inverse CDF over K weights.

    The rows hold one token's word-topic, document-topic and topic-total
    counts with that token removed; topic ``k`` has weight
    ``(word_row[k] + beta) * (doc_row[k] + alpha) / (topic_totals[k] +
    vocab_beta)``.  ``uniform`` in [0, 1) picks the first topic whose
    running weight reaches ``uniform`` times the total.
    """
    running = 0.0
    cumulative = []
    for word_count, doc_count, total in zip(word_row, doc_row, topic_totals):
        running += (word_count + beta) * (doc_count + alpha) / (total + vocab_beta)
        cumulative.append(running)
    return bisect_left(cumulative, uniform * running)


class LdaModel:
    """Latent Dirichlet Allocation fitted with collapsed Gibbs sampling.

    Exposes the fitted topic-word matrix ``phi`` (topics × vocabulary) and
    the document-topic prior ``alpha``; both are what the generator needs
    to sample new documents.
    """

    def __init__(
        self,
        num_topics: int = 4,
        alpha: float = 0.1,
        beta: float = 0.01,
        iterations: int = 60,
        seed: int = 0,
    ) -> None:
        if num_topics <= 0:
            raise ValueError(f"num_topics must be positive, got {num_topics}")
        self.num_topics = num_topics
        self.alpha = alpha
        self.beta = beta
        self.iterations = iterations
        self.seed = seed
        self.vocabulary: Vocabulary | None = None
        self.phi: np.ndarray | None = None  # topics x vocab
        self.mean_document_length: float = 0.0
        #: One Walker alias table per topic over ``phi``, built by ``fit``.
        self._word_sampler: AliasSampler | None = None

    @property
    def is_fitted(self) -> bool:
        return self.phi is not None

    def fit(self, documents: Sequence[Sequence[str]]) -> "LdaModel":
        """Fit the model on tokenized documents via collapsed Gibbs sampling.

        Each sweep visits every token in corpus order and resamples its
        topic from the exact collapsed conditional
        ``(n_wk + beta) / (n_k + V beta) * (n_dk + alpha)`` (see
        :func:`draw_topic`).  The counts live in plain lists, word-major
        so one token touches one row, and each sweep draws its uniforms
        in one block.
        """
        if not documents:
            raise GenerationError("cannot fit an LDA model on an empty corpus")
        vocabulary = Vocabulary()
        doc_tokens = [[vocabulary.add(word) for word in doc] for doc in documents]
        vocab_size = len(vocabulary)
        if vocab_size == 0:
            raise GenerationError("corpus contains no tokens")
        rng = np.random.default_rng(self.seed)
        num_topics = self.num_topics
        alpha = self.alpha
        beta = self.beta
        vocab_beta = beta * vocab_size
        num_tokens = sum(len(tokens) for tokens in doc_tokens)

        word_topic = [[0] * num_topics for _ in range(vocab_size)]
        doc_topic = [[0] * num_topics for _ in doc_tokens]
        topic_totals = [0] * num_topics
        initial = iter(rng.integers(num_topics, size=num_tokens).tolist())
        assignments = [
            [next(initial) for _ in tokens] for tokens in doc_tokens
        ]
        for tokens, topics, doc_row in zip(doc_tokens, assignments, doc_topic):
            for word_id, topic in zip(tokens, topics):
                word_topic[word_id][topic] += 1
                doc_row[topic] += 1
                topic_totals[topic] += 1

        for _ in range(self.iterations):
            uniforms = iter(rng.random(num_tokens).tolist())
            for tokens, topics, doc_row in zip(doc_tokens, assignments, doc_topic):
                for position, word_id in enumerate(tokens):
                    word_row = word_topic[word_id]
                    topic = topics[position]
                    word_row[topic] -= 1
                    doc_row[topic] -= 1
                    topic_totals[topic] -= 1

                    topic = draw_topic(
                        word_row, doc_row, topic_totals,
                        alpha, beta, vocab_beta, next(uniforms),
                    )
                    topics[position] = topic
                    word_row[topic] += 1
                    doc_row[topic] += 1
                    topic_totals[topic] += 1

        phi = np.array(word_topic, dtype=np.float64).T + beta
        phi /= phi.sum(axis=1, keepdims=True)
        self.phi = phi
        self.vocabulary = vocabulary
        self._word_sampler = AliasSampler(phi)
        self.mean_document_length = num_tokens / len(doc_tokens)
        return self

    def topic_distribution(self) -> np.ndarray:
        """The corpus-level word distribution implied by the fitted model."""
        if self.phi is None:
            raise GenerationError("LDA model is not fitted")
        return self.phi.mean(axis=0)

    def sample_document(self, rng: np.random.Generator, length: int | None = None) -> list[str]:
        """Sample one synthetic document from the fitted model."""
        if self.phi is None or self.vocabulary is None:
            raise GenerationError("LDA model is not fitted")
        if length is None:
            length = max(1, int(rng.poisson(self.mean_document_length)))
        theta = rng.dirichlet(np.full(self.num_topics, max(self.alpha, 1e-6)))
        topics = rng.choice(self.num_topics, size=length, p=theta)
        word_ids = self._word_sampler.sample(rng, length, rows=topics)
        return [self.vocabulary.word_of(word_id) for word_id in word_ids.tolist()]

    def infer_document_mixture(
        self, tokens: Sequence[str], iterations: int = 30
    ) -> np.ndarray:
        """Infer a document's topic mixture under the fitted model.

        A fixed-point iteration on the topic responsibilities (a cheap
        variational E-step); unknown words are ignored.  Used by the
        topic-structure veracity metric.
        """
        if self.phi is None or self.vocabulary is None:
            raise GenerationError("LDA model is not fitted")
        word_ids = [
            self.vocabulary.id_of(word) for word in tokens
            if word in self.vocabulary
        ]
        theta = np.full(self.num_topics, 1.0 / self.num_topics)
        if not word_ids:
            return theta
        word_probabilities = self.phi[:, word_ids]  # topics x words
        for _ in range(iterations):
            responsibilities = word_probabilities * theta[:, None]
            totals = responsibilities.sum(axis=0, keepdims=True)
            totals[totals == 0] = 1.0
            responsibilities /= totals
            theta = responsibilities.sum(axis=1) + self.alpha
            theta /= theta.sum()
        return theta

    def top_words(self, topic: int, count: int = 10) -> list[str]:
        """The highest-probability words of one topic, for inspection."""
        if self.phi is None or self.vocabulary is None:
            raise GenerationError("LDA model is not fitted")
        order = np.argsort(self.phi[topic])[::-1][:count]
        return [self.vocabulary.word_of(int(word_id)) for word_id in order]


class LdaTextGenerator(DataGenerator):
    """The paper's reference veracity-preserving text generator.

    ``fit`` learns a dictionary and LDA parameters from real text;
    ``generate`` samples synthetic documents from the trained model.
    """

    data_type = DataType.TEXT
    veracity_aware = True
    #: 2: the inverse-CDF Gibbs kernel and alias-table word sampling
    #: changed the random stream, and with it every generated document.
    version = 2

    def __init__(
        self,
        num_topics: int = 4,
        alpha: float = 0.1,
        beta: float = 0.01,
        iterations: int = 60,
        seed: int = 0,
    ) -> None:
        super().__init__(seed=seed)
        self.model = LdaModel(
            num_topics=num_topics, alpha=alpha, beta=beta,
            iterations=iterations, seed=seed,
        )

    def fit(self, real_data: DataSet) -> "LdaTextGenerator":
        documents = [tokenize(doc) for doc in real_data.records]
        documents = [doc for doc in documents if doc]
        self.model.fit(documents)
        self._fitted = True
        return self

    def iter_partition(
        self, volume: int, partition: int, num_partitions: int
    ):
        # Streamed: one sampled document at a time, same RNG consumption
        # order as the materialized list — bit-identical at every chunk
        # size.
        self._require_fitted()
        count = self.partition_volume(volume, partition, num_partitions)
        rng = self.rng_for_partition(partition, num_partitions)
        for _ in range(count):
            yield " ".join(self.model.sample_document(rng))


class UnigramTextGenerator(DataGenerator):
    """Baseline: learns only the marginal word frequencies (no topics)."""

    data_type = DataType.TEXT
    veracity_aware = True

    def __init__(self, seed: int = 0, document_length: int | None = None) -> None:
        super().__init__(seed=seed)
        self.document_length = document_length
        self._words: list[str] = []
        self._probabilities: np.ndarray | None = None
        self._mean_length = 0.0

    def fit(self, real_data: DataSet) -> "UnigramTextGenerator":
        counts: Counter[str] = Counter()
        lengths: list[int] = []
        for document in real_data.records:
            tokens = tokenize(document)
            counts.update(tokens)
            lengths.append(len(tokens))
        if not counts:
            raise GenerationError("corpus contains no tokens")
        self._words = sorted(counts)
        frequencies = np.array([counts[word] for word in self._words], dtype=np.float64)
        self._probabilities = frequencies / frequencies.sum()
        self._mean_length = float(np.mean(lengths))
        self._fitted = True
        return self

    def iter_partition(
        self, volume: int, partition: int, num_partitions: int
    ):
        self._require_fitted()
        count = self.partition_volume(volume, partition, num_partitions)
        rng = self.rng_for_partition(partition, num_partitions)
        for _ in range(count):
            length = self.document_length or max(1, int(rng.poisson(self._mean_length)))
            indexes = rng.choice(len(self._words), size=length, p=self._probabilities)
            yield " ".join(self._words[int(i)] for i in indexes)


class RandomTextGenerator(PurelySyntheticMixin, DataGenerator):
    """Purely synthetic text: uniform random words from a fixed word list.

    Mirrors the HiBench/Hadoop ``randomtextwriter`` approach the paper
    classifies as "un-considered" veracity (Table 1).
    """

    data_type = DataType.TEXT

    #: Default word list when none is supplied (a small English sample).
    DEFAULT_WORDS = [
        "apple", "river", "stone", "cloud", "light", "forest", "window",
        "bridge", "silver", "garden", "mountain", "ocean", "paper", "candle",
        "mirror", "shadow", "thunder", "velvet", "whisper", "yellow",
    ]

    def __init__(
        self, words: Sequence[str] | None = None,
        document_length: int = 50, seed: int = 0,
    ) -> None:
        super().__init__(seed=seed)
        self.words = list(words) if words is not None else list(self.DEFAULT_WORDS)
        if not self.words:
            raise GenerationError("word list must not be empty")
        if document_length <= 0:
            raise GenerationError(
                f"document_length must be positive, got {document_length}"
            )
        self.document_length = document_length

    def iter_partition(
        self, volume: int, partition: int, num_partitions: int
    ):
        count = self.partition_volume(volume, partition, num_partitions)
        rng = self.rng_for_partition(partition, num_partitions)
        for _ in range(count):
            indexes = rng.integers(len(self.words), size=self.document_length)
            yield " ".join(self.words[int(i)] for i in indexes)


def word_distribution(documents: Iterable[str]) -> dict[str, float]:
    """The empirical word distribution of a set of documents.

    Used by the veracity metrics (Section 5.1) to compare real and
    synthetic corpora.
    """
    counts: Counter[str] = Counter()
    for document in documents:
        counts.update(tokenize(document))
    total = sum(counts.values())
    if total == 0:
        return {}
    return {word: count / total for word, count in counts.items()}
