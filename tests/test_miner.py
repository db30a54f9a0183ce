import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from symrel.corpus import Article
from symrel.errors import MalformedRow, UndefinedISF, UnknownConcept, VocabularyMismatch
from symrel.miner import (
    EMBEDDING,
    FULLTEXT,
    KWD,
    CooccurrenceIndex,
    Regime,
    RelationScore,
    count_fulltext_cooccurrence,
    count_keyword_cooccurrence,
    import_external_scores,
    index_scores,
    inverse_symptom_frequency,
    load_index,
    merge_indexes,
    mine_corpus,
    rank_symptoms,
    relation_score,
    save_index,
    save_scores,
)
from symrel.tagger import ConceptMatcher, SectionTags
from symrel.vocab import Vocabulary

from helpers import concept, random_articles, random_vocabulary
from oracles import brute_force_counts, brute_force_score, brute_force_tag


def _tags_for(matcher, articles):
    return [matcher.tag_article(article) for article in articles]


@pytest.fixture
def keyword_index(small_vocabulary, miner_articles):
    matcher = ConceptMatcher(small_vocabulary)
    return count_keyword_cooccurrence(_tags_for(matcher, miner_articles), small_vocabulary)


class TestKeywordCounting:
    def test_three_article_fixture(self, keyword_index):
        # A1 keywords {D1,S1}, A2 keywords {D1,S1,S2}, A3 keywords {D2,S1}
        assert keyword_index.pair_counts == {
            ("D1", "S1"): 2,
            ("D1", "S2"): 1,
            ("D2", "S1"): 1,
        }
        assert keyword_index.symptom_spread == {"S1": 2, "S2": 1}
        assert keyword_index.total_diseases == 2
        assert keyword_index.regime is Regime.KEYWORD

    def test_no_keywords_anywhere(self, small_vocabulary):
        tags = [SectionTags("A1", {"D1"}, set(), {"S1"})]
        index = count_keyword_cooccurrence(tags, small_vocabulary)
        assert index.pair_counts == {}
        assert index.symptom_spread == {}

    def test_disease_without_symptom_contributes_nothing(self, small_vocabulary):
        tags = [SectionTags("A1", set(), {"D1"}, set())]
        index = count_keyword_cooccurrence(tags, small_vocabulary)
        assert index.pair_counts == {}

    def test_unknown_tag_id_rejected(self, small_vocabulary):
        tags = [SectionTags("A1", set(), {"D1", "GHOST"}, set())]
        with pytest.raises(VocabularyMismatch):
            count_keyword_cooccurrence(tags, small_vocabulary)


class TestFulltextCounting:
    def test_title_only_disease_counts(self, small_vocabulary):
        tags = [SectionTags("A1", {"D1"}, set(), {"S1"})]
        index = count_fulltext_cooccurrence(tags, small_vocabulary)
        assert index.pair_counts == {("D1", "S1"): 1}

    def test_body_only_disease_does_not_count(self, small_vocabulary):
        tags = [SectionTags("A1", set(), set(), {"D1", "S1"})]
        index = count_fulltext_cooccurrence(tags, small_vocabulary)
        assert index.pair_counts == {}

    def test_symptom_must_be_in_body(self, small_vocabulary):
        tags = [SectionTags("A1", set(), {"D1", "S1"}, set())]
        index = count_fulltext_cooccurrence(tags, small_vocabulary)
        assert index.pair_counts == {}

    def test_keyword_disease_with_body_symptom_counts(self, small_vocabulary):
        tags = [SectionTags("A1", set(), {"D1"}, {"S1", "S2"})]
        index = count_fulltext_cooccurrence(tags, small_vocabulary)
        assert index.pair_counts == {("D1", "S1"): 1, ("D1", "S2"): 1}
        assert index.regime is Regime.FULLTEXT


class TestIsfAndScores:
    def test_isf_direct_formula(self):
        index = CooccurrenceIndex(
            regime=Regime.KEYWORD,
            pair_counts={("D1", "S1"): 3},
            symptom_spread={"S1": 5},
            total_diseases=20,
            disease_ids=frozenset({f"D{i}" for i in range(20)}),
            symptom_ids=frozenset({"S1"}),
        )
        assert inverse_symptom_frequency(index, "S1") == 4.0

    def test_isf_floor_when_symptom_meets_every_disease(self):
        diseases = {f"D{i}" for i in range(20)}
        index = CooccurrenceIndex(
            regime=Regime.KEYWORD,
            pair_counts={(d, "S1"): 1 for d in diseases},
            symptom_spread={"S1": 20},
            total_diseases=20,
            disease_ids=frozenset(diseases),
            symptom_ids=frozenset({"S1"}),
        )
        assert inverse_symptom_frequency(index, "S1") == 1.0

    def test_isf_large_vocabulary_rare_symptom(self):
        index = CooccurrenceIndex(
            regime=Regime.KEYWORD,
            pair_counts={("D1", "S1"): 1},
            symptom_spread={"S1": 1},
            total_diseases=4787,
            disease_ids=frozenset({"D1"}),
            symptom_ids=frozenset({"S1"}),
        )
        assert inverse_symptom_frequency(index, "S1") == 4787.0

    def test_isf_undefined_for_unseen_symptom(self, keyword_index):
        with pytest.raises(UndefinedISF):
            inverse_symptom_frequency(keyword_index, "S3")

    def test_isf_unknown_concept(self, keyword_index):
        with pytest.raises(UnknownConcept):
            inverse_symptom_frequency(keyword_index, "D1")

    def test_relation_score_formula(self):
        index = CooccurrenceIndex(
            regime=Regime.KEYWORD,
            pair_counts={("D1", "S1"): 2},
            symptom_spread={"S1": 2},
            total_diseases=20,
            disease_ids=frozenset({f"D{i}" for i in range(20)}),
            symptom_ids=frozenset({"S1"}),
        )
        assert relation_score(index, "D1", "S1") == 20.0

    def test_zero_cooccurrence_scores_zero(self, keyword_index):
        assert relation_score(keyword_index, "D2", "S2") == 0.0
        assert relation_score(keyword_index, "D1", "S3") == 0.0

    def test_fixture_chained_scores(self, keyword_index):
        # two diseases total; S1 spreads over 2 diseases, S2 over 1
        assert relation_score(keyword_index, "D1", "S1") == 2.0
        assert relation_score(keyword_index, "D1", "S2") == 2.0
        assert relation_score(keyword_index, "D2", "S1") == 1.0

    def test_isf_strictly_increases_as_spread_decreases(self):
        rng = random.Random(7)
        for _ in range(50):
            total = rng.randint(5, 100)
            pair_count = rng.randint(1, 9)
            scores = []
            for spread in range(total, 0, -1):
                index = CooccurrenceIndex(
                    regime=Regime.KEYWORD,
                    pair_counts={("D0", "S0"): pair_count},
                    symptom_spread={"S0": spread},
                    total_diseases=total,
                    disease_ids=frozenset({f"D{i}" for i in range(total)}),
                    symptom_ids=frozenset({"S0"}),
                )
                scores.append(relation_score(index, "D0", "S0"))
            assert all(a < b for a, b in zip(scores, scores[1:]))

    def test_index_scores_covers_observed_pairs(self, keyword_index):
        scores = index_scores(keyword_index)
        assert {(s.disease_id, s.symptom_id) for s in scores} == set(keyword_index.pair_counts)
        assert all(s.method == KWD for s in scores)


class TestRankSymptoms:
    def test_sort_and_zero_exclusion(self):
        scores = [
            RelationScore("D1", "S1", 20.0, KWD),
            RelationScore("D1", "S2", 2.0, KWD),
            RelationScore("D1", "S3", 0.0, KWD),
        ]
        assert rank_symptoms(scores, k=4) == [("S1", 20.0), ("S2", 2.0)]

    def test_tie_broken_by_symptom_id(self):
        scores = [
            RelationScore("D1", "S_b", 5.0, KWD),
            RelationScore("D1", "S_a", 5.0, KWD),
        ]
        assert rank_symptoms(scores, k=2) == [("S_a", 5.0), ("S_b", 5.0)]

    def test_cutoff_truncates(self):
        scores = [RelationScore("D1", f"S{i}", float(i + 1), KWD) for i in range(6)]
        ranked = rank_symptoms(scores, k=3)
        assert [s for s, _ in ranked] == ["S5", "S4", "S3"]

    def test_positive_scaling_preserves_order(self):
        rng = random.Random(99)
        scores = [
            RelationScore("D1", f"S{i}", rng.uniform(0.1, 50.0), KWD) for i in range(12)
        ]
        baseline = [s for s, _ in rank_symptoms(scores, k=12)]
        for factor in (0.001, 3.0, 1e6):
            scaled = [
                RelationScore(s.disease_id, s.symptom_id, s.score * factor, s.method)
                for s in scores
            ]
            assert [s for s, _ in rank_symptoms(scaled, k=12)] == baseline

    def test_mixed_diseases_rejected(self):
        scores = [
            RelationScore("D1", "S1", 1.0, KWD),
            RelationScore("D2", "S2", 1.0, KWD),
        ]
        with pytest.raises(ValueError):
            rank_symptoms(scores, k=2)

    def test_mixed_methods_rejected(self):
        scores = [
            RelationScore("D1", "S1", 1.0, KWD),
            RelationScore("D1", "S2", 1.0, FULLTEXT),
        ]
        with pytest.raises(ValueError):
            rank_symptoms(scores, k=2)

    def test_zero_kept_when_not_dropping(self):
        scores = [RelationScore("D1", "S1", 0.0, EMBEDDING)]
        assert rank_symptoms(scores, k=1, drop_zero=False) == [("S1", 0.0)]


class TestMergeIndexes:
    def test_merge_equals_sequential(self, small_vocabulary, miner_articles):
        matcher = ConceptMatcher(small_vocabulary)
        tags = _tags_for(matcher, miner_articles)
        sequential = count_keyword_cooccurrence(tags, small_vocabulary)
        parts = [
            count_keyword_cooccurrence(tags[:1], small_vocabulary),
            count_keyword_cooccurrence(tags[1:2], small_vocabulary),
            count_keyword_cooccurrence(tags[2:], small_vocabulary),
        ]
        merged = merge_indexes(parts)
        assert merged == sequential

    def test_merge_recomputes_spread(self, small_vocabulary):
        left = count_keyword_cooccurrence(
            [SectionTags("A1", set(), {"D1", "S1"}, set())], small_vocabulary
        )
        right = count_keyword_cooccurrence(
            [SectionTags("A2", set(), {"D2", "S1"}, set())], small_vocabulary
        )
        merged = merge_indexes([left, right])
        assert merged.symptom_spread == {"S1": 2}
        assert merged.pair_counts == {("D1", "S1"): 1, ("D2", "S1"): 1}

    def test_mixed_regimes_rejected(self, small_vocabulary):
        tags = [SectionTags("A1", set(), {"D1", "S1"}, set())]
        keyword = count_keyword_cooccurrence(tags, small_vocabulary)
        fulltext = count_fulltext_cooccurrence(tags, small_vocabulary)
        with pytest.raises(VocabularyMismatch):
            merge_indexes([keyword, fulltext])


class TestRandomizedOracle:
    def test_counts_match_nested_loop_oracle(self, small_vocabulary):
        rng = random.Random(424242)
        disease_ids = set(small_vocabulary.disease_ids)
        symptom_ids = set(small_vocabulary.symptom_ids)
        all_ids = sorted(disease_ids | symptom_ids)
        for _ in range(40):
            sections = {}
            for i in range(rng.randint(0, 25)):
                sections[f"A{i}"] = (
                    {c for c in all_ids if rng.random() < 0.3},
                    {c for c in all_ids if rng.random() < 0.3},
                    {c for c in all_ids if rng.random() < 0.3},
                )
            tags = [
                SectionTags(aid, title, keywords, body)
                for aid, (title, keywords, body) in sections.items()
            ]
            for regime, counter in (
                ("keyword", count_keyword_cooccurrence),
                ("fulltext", count_fulltext_cooccurrence),
            ):
                expected_counts, expected_spread = brute_force_counts(
                    sections, disease_ids, symptom_ids, regime
                )
                index = counter(tags, small_vocabulary)
                assert index.pair_counts == expected_counts
                assert index.symptom_spread == expected_spread
                for disease_id in disease_ids:
                    for symptom_id in symptom_ids:
                        assert relation_score(
                            index, disease_id, symptom_id
                        ) == pytest.approx(
                            brute_force_score(
                                expected_counts,
                                expected_spread,
                                len(disease_ids),
                                disease_id,
                                symptom_id,
                            ),
                            abs=0,
                        )


class TestImportExternalScores:
    def test_basic_import(self, tmp_path, small_vocabulary):
        path = tmp_path / "scores.tsv"
        path.write_text(
            "# external scores\nD1\tS1\t3.75\nD2\tS2\t1.5\n", encoding="utf-8"
        )
        imported = import_external_scores(path, small_vocabulary)
        assert imported.skipped == 0
        assert {(s.disease_id, s.symptom_id, s.score) for s in imported.scores} == {
            ("D1", "S1", 3.75),
            ("D2", "S2", 1.5),
        }
        assert all(s.method == "kwdlarge" for s in imported.scores)

    def test_unresolvable_rows_skipped_and_counted(self, tmp_path, small_vocabulary):
        path = tmp_path / "scores.tsv"
        path.write_text(
            "D1\tS1\t1.0\nD_GHOST\tS1\t2.0\nD1\tS_GHOST\t3.0\n", encoding="utf-8"
        )
        imported = import_external_scores(path, small_vocabulary)
        assert imported.skipped == 2
        assert len(imported.scores) == 1

    def test_swapped_roles_skipped(self, tmp_path, small_vocabulary):
        path = tmp_path / "scores.tsv"
        path.write_text("S1\tD1\t1.0\n", encoding="utf-8")
        imported = import_external_scores(path, small_vocabulary)
        assert imported.skipped == 1
        assert imported.scores == []

    def test_empty_file_gives_empty_scores(self, tmp_path, small_vocabulary):
        path = tmp_path / "scores.tsv"
        path.write_text("", encoding="utf-8")
        imported = import_external_scores(path, small_vocabulary)
        assert imported.scores == []

    def test_non_finite_score_rejected(self, tmp_path, small_vocabulary):
        path = tmp_path / "scores.tsv"
        path.write_text("D1\tS1\tnan\n", encoding="utf-8")
        with pytest.raises(MalformedRow):
            import_external_scores(path, small_vocabulary)

    def test_duplicate_pair_rejected(self, tmp_path, small_vocabulary):
        path = tmp_path / "scores.tsv"
        path.write_text("D1\tS1\t1.0\nD1\tS1\t2.0\n", encoding="utf-8")
        with pytest.raises(MalformedRow):
            import_external_scores(path, small_vocabulary)


class TestIndexPersistence:
    def test_round_trip(self, tmp_path, small_vocabulary, keyword_index):
        path = tmp_path / "index.tsv"
        save_index(keyword_index, path)
        reloaded = load_index(path, small_vocabulary)
        assert reloaded == keyword_index

    def test_vocabulary_size_checked(self, tmp_path, keyword_index):
        path = tmp_path / "index.tsv"
        save_index(keyword_index, path)
        bigger = Vocabulary(
            [
                concept("D1", "disease", "influenza"),
                concept("D2", "disease", "migraine"),
                concept("D3", "disease", "asthma"),
                concept("S1", "symptom", "fever"),
                concept("S2", "symptom", "headache"),
            ]
        )
        with pytest.raises(VocabularyMismatch):
            load_index(path, bigger)

    def test_save_scores_is_sorted_and_repr_exact(self, tmp_path, keyword_index):
        path = tmp_path / "scores.tsv"
        save_scores(index_scores(keyword_index), path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines == ["D1\tS1\t2.0", "D1\tS2\t2.0", "D2\tS1\t1.0"]


class TestMineCorpus:
    def test_single_worker_matches_fixture(self, small_vocabulary, miner_articles, keyword_index):
        index = mine_corpus(miner_articles, small_vocabulary, Regime.KEYWORD)
        assert index == keyword_index

    def test_worker_counts_agree(self, small_vocabulary, miner_articles):
        expected = mine_corpus(miner_articles, small_vocabulary, Regime.FULLTEXT, workers=1)
        for workers in (2, 8):
            parallel = mine_corpus(
                miner_articles, small_vocabulary, Regime.FULLTEXT,
                workers=workers, chunk_size=1,
            )
            assert parallel == expected

    def test_empty_corpus(self, small_vocabulary):
        index = mine_corpus([], small_vocabulary, Regime.KEYWORD)
        assert index.pair_counts == {}
        assert index.total_diseases == 2

    @pytest.mark.parametrize("workers", [1, 2])
    def test_vocabulary_checked_for_every_worker_count(self, workers):
        disease_only = Vocabulary([concept("D1", "disease", "influenza")])
        with pytest.raises(VocabularyMismatch):
            mine_corpus([], disease_only, Regime.KEYWORD, workers=workers)


class TestSectionsTaggedPerRegime:
    """mine_corpus scans only the sections its regime counts."""

    @pytest.fixture
    def scans(self, monkeypatch):
        scanned: list[str] = []
        tag_text = ConceptMatcher.tag_text

        def counted(matcher, text):
            scanned.append(text)
            return tag_text(matcher, text)

        monkeypatch.setattr(ConceptMatcher, "tag_text", counted)
        return scanned

    @pytest.fixture
    def corpus(self):
        vocabulary = random_vocabulary(random.Random(8), n_diseases=2, n_symptoms=12)
        return vocabulary, random_articles(random.Random(8), vocabulary, 60)

    def _sections(self, vocabulary, articles):
        index = vocabulary.synonym_index
        return {
            article.article_id: (
                brute_force_tag(article.title, index),
                {index[keyword.split("/")[0]] for keyword in article.keywords},
                brute_force_tag(article.body, index),
            )
            for article in articles
        }

    @pytest.mark.parametrize("regime", list(Regime))
    def test_scans_and_counts(self, scans, corpus, regime):
        vocabulary, articles = corpus
        sections = self._sections(vocabulary, articles)
        diseases = vocabulary.disease_ids
        relevant = {
            article_id for article_id, (title, keywords, _) in sections.items()
            if (title | keywords) & diseases
        }
        assert 0 < len(relevant) < len(articles)  # the corpus has both kinds
        mined = mine_corpus(articles, vocabulary, regime)
        if regime is Regime.KEYWORD:
            assert scans == []
        else:
            # one title scan per article, then the body of a relevant one
            expected = []
            for article in articles:
                expected.append(article.title)
                if article.article_id in relevant:
                    expected.append(article.body)
            assert scans == expected
        expected_counts, expected_spread = brute_force_counts(
            sections, set(diseases), set(vocabulary.symptom_ids), regime.value
        )
        assert mined.pair_counts == expected_counts
        assert mined.symptom_spread == expected_spread


_VOCABULARY = random_vocabulary(random.Random(5), n_diseases=3, n_symptoms=4)
_SURFACES = sorted(_VOCABULARY.synonym_index)
_TEXT = st.lists(st.sampled_from(_SURFACES + ["the", "patient", "notes"]), max_size=6).map(
    " ".join
)
_KEYWORD = st.tuples(st.sampled_from(_SURFACES), st.sampled_from(["", "/diagnosis"])).map(
    "".join
)
_CORPUS = st.lists(st.tuples(_TEXT, st.lists(_KEYWORD, max_size=4), _TEXT), max_size=10)


class TestMineCorpusProperty:
    # every example with workers=2 starts a process pool, so the examples
    # are few and hypothesis' per-example deadline is off
    @settings(deadline=None, max_examples=20)
    @given(
        corpus=_CORPUS,
        workers=st.sampled_from([1, 2]),
        chunk_size=st.integers(1, 4),
        regime=st.sampled_from(list(Regime)),
    )
    def test_matches_oracle(self, corpus, workers, chunk_size, regime):
        articles = [
            Article(f"A{i}", title, keywords, body)
            for i, (title, keywords, body) in enumerate(corpus)
        ]
        index = _VOCABULARY.synonym_index
        sections = {
            article.article_id: (
                brute_force_tag(article.title, index),
                {index[keyword.split("/")[0]] for keyword in article.keywords},
                brute_force_tag(article.body, index),
            )
            for article in articles
        }
        expected_counts, expected_spread = brute_force_counts(
            sections, set(_VOCABULARY.disease_ids), set(_VOCABULARY.symptom_ids), regime.value
        )
        mined = mine_corpus(
            articles, _VOCABULARY, regime, workers=workers, chunk_size=chunk_size
        )
        assert mined.pair_counts == expected_counts
        assert mined.symptom_spread == expected_spread
