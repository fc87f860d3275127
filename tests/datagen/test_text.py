"""Tests for LDA-based and baseline text generation."""

from __future__ import annotations

import numpy as np
import pytest

import repro  # noqa: F401 — fills the registries
from repro.core import registry
from repro.core.errors import GenerationError
from repro.core.prescription import load_seed
from repro.datagen.base import DataGenerator, DataType, as_dataset
from repro.datagen.text import (
    LdaModel,
    LdaTextGenerator,
    RandomTextGenerator,
    UnigramTextGenerator,
    Vocabulary,
    draw_topic,
    tokenize,
    word_distribution,
)
from repro.datagen.veracity import (
    text_veracity,
    topic_structure_veracity,
    total_variation,
)


class TestTokenize:
    def test_lowercases(self):
        assert tokenize("Hello World") == ["hello", "world"]

    def test_strips_punctuation(self):
        assert tokenize("a, b. c!") == ["a", "b", "c"]

    def test_keeps_digits_and_apostrophes(self):
        assert tokenize("it's 42") == ["it's", "42"]

    def test_empty_string(self):
        assert tokenize("") == []


class TestVocabulary:
    def test_roundtrip(self):
        vocabulary = Vocabulary(["a", "b"])
        assert vocabulary.word_of(vocabulary.id_of("b")) == "b"

    def test_add_is_idempotent(self):
        vocabulary = Vocabulary()
        first = vocabulary.add("x")
        second = vocabulary.add("x")
        assert first == second
        assert len(vocabulary) == 1

    def test_contains(self):
        vocabulary = Vocabulary(["w"])
        assert "w" in vocabulary
        assert "z" not in vocabulary


class TestDrawTopic:
    #: One token's counts with the token removed: word-topic, document-
    #: topic and topic totals over K = 4 topics and V = 138 words.
    WORD_ROW = [3, 40, 0, 7]
    DOC_ROW = [10, 2, 0, 60]
    TOPIC_TOTALS = [5000, 4000, 4500, 5700]
    ALPHA, BETA, VOCAB_SIZE = 0.1, 0.01, 138

    def conditional(self) -> np.ndarray:
        weights = (
            (np.array(self.WORD_ROW) + self.BETA)
            * (np.array(self.DOC_ROW) + self.ALPHA)
            / (np.array(self.TOPIC_TOTALS) + self.BETA * self.VOCAB_SIZE)
        )
        return weights / weights.sum()

    def draw(self, uniform: float) -> int:
        return draw_topic(
            self.WORD_ROW, self.DOC_ROW, self.TOPIC_TOTALS,
            self.ALPHA, self.BETA, self.BETA * self.VOCAB_SIZE, uniform,
        )

    def test_draws_follow_the_collapsed_conditional(self):
        uniforms = np.random.default_rng(5).random(200_000).tolist()
        draws = [self.draw(uniform) for uniform in uniforms]
        frequencies = np.bincount(draws, minlength=4) / len(draws)
        assert total_variation(frequencies, self.conditional()) < 0.01

    def test_uniform_endpoints_stay_in_range(self):
        assert self.draw(0.0) == 0
        assert self.draw(np.nextafter(1.0, 0.0)) == 3


class TestLdaModel:
    def test_fit_on_empty_corpus_rejected(self):
        with pytest.raises(GenerationError):
            LdaModel().fit([])

    def test_fit_learns_topic_word_matrix(self, text_corpus):
        documents = [tokenize(doc) for doc in text_corpus.records[:40]]
        model = LdaModel(num_topics=4, iterations=5, seed=1).fit(documents)
        assert model.phi is not None
        assert model.phi.shape[0] == 4
        # Each topic's word distribution sums to one.
        for row in model.phi:
            assert abs(row.sum() - 1.0) < 1e-9

    def test_sample_document_uses_learned_vocabulary(self, fitted_lda):
        import numpy as np

        model = fitted_lda.model
        words = model.sample_document(np.random.default_rng(0), length=20)
        assert len(words) == 20
        assert all(word in model.vocabulary for word in words)

    def test_topics_separate_topical_words(self, fitted_lda):
        """Each embedded topic's vocabulary should dominate some topic."""
        from repro.datagen.corpus import TOPIC_VOCABULARIES

        model = fitted_lda.model
        dominated = set()
        for topic in range(model.num_topics):
            top = set(model.top_words(topic, 8))
            for name, vocabulary in TOPIC_VOCABULARIES.items():
                if len(top & set(vocabulary)) >= 4:
                    dominated.add(name)
        assert len(dominated) >= 2  # at least half the topics recovered

    def test_invalid_topic_count_rejected(self):
        with pytest.raises(ValueError):
            LdaModel(num_topics=0)


class TestLdaTextGenerator:
    def test_generates_requested_volume(self, fitted_lda):
        assert fitted_lda.generate(12).num_records == 12

    def test_output_is_text_dataset(self, fitted_lda):
        assert fitted_lda.generate(3).data_type is DataType.TEXT

    def test_synthetic_words_come_from_real_vocabulary(self, fitted_lda, text_corpus):
        real_vocabulary = set()
        for document in text_corpus.records:
            real_vocabulary.update(tokenize(document))
        synthetic = fitted_lda.generate(10)
        for document in synthetic.records:
            assert set(tokenize(document)) <= real_vocabulary

    def test_deterministic(self, text_corpus):
        runs = []
        for _ in range(2):
            generator = LdaTextGenerator(iterations=3, seed=4).fit(text_corpus)
            runs.append(generator.generate(5).records)
        assert runs[0] == runs[1]

    def test_version_forks_the_data_series(self):
        assert DataGenerator.version == 1
        assert RandomTextGenerator.version == 1
        assert LdaTextGenerator.version == 2


class TestLdaVeracityRegression:
    """The registry ``lda-text`` generator as prescriptions run it."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_generated_corpus_stays_faithful(self, seed):
        corpus = load_seed("text-corpus")
        generator = registry.generators.create("lda-text")
        generator.seed = seed
        generator.model.seed = seed
        generator.fit(corpus)
        synthetic = generator.generate(1000).records
        assert text_veracity(corpus.records, synthetic).score <= 0.01
        topics = topic_structure_veracity(
            corpus.records, synthetic, generator.model
        )
        assert topics.score <= 0.2


class TestUnigramTextGenerator:
    def test_learns_word_frequencies(self, text_corpus):
        generator = UnigramTextGenerator(seed=2).fit(text_corpus)
        synthetic = generator.generate(30)
        real = word_distribution(text_corpus.records)
        fake = word_distribution(synthetic.records)
        # The most common real words should appear in synthetic output.
        top_real = sorted(real, key=real.get, reverse=True)[:5]
        assert sum(1 for word in top_real if word in fake) >= 4

    def test_empty_corpus_rejected(self):
        empty = as_dataset([""], DataType.TEXT)
        with pytest.raises(GenerationError):
            UnigramTextGenerator().fit(empty)

    def test_fixed_document_length(self, text_corpus):
        generator = UnigramTextGenerator(seed=1, document_length=7)
        generator.fit(text_corpus)
        for document in generator.generate(5).records:
            assert len(document.split()) == 7


class TestRandomTextGenerator:
    def test_uses_only_supplied_words(self):
        generator = RandomTextGenerator(words=["aa", "bb"], seed=1)
        for document in generator.generate(5).records:
            assert set(document.split()) <= {"aa", "bb"}

    def test_document_length_respected(self):
        generator = RandomTextGenerator(document_length=13, seed=1)
        assert all(
            len(doc.split()) == 13 for doc in generator.generate(4).records
        )

    def test_empty_word_list_rejected(self):
        with pytest.raises(GenerationError):
            RandomTextGenerator(words=[])

    def test_non_positive_length_rejected(self):
        with pytest.raises(GenerationError):
            RandomTextGenerator(document_length=0)


class TestWordDistribution:
    def test_sums_to_one(self, text_corpus):
        distribution = word_distribution(text_corpus.records)
        assert abs(sum(distribution.values()) - 1.0) < 1e-9

    def test_empty_input(self):
        assert word_distribution([]) == {}

    def test_counts_are_proportional(self):
        distribution = word_distribution(["a a b"])
        assert distribution["a"] == pytest.approx(2 / 3)
