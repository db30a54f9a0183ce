import json
import random

import pytest
from hypothesis import given, strategies as st

from symrel.corpus import Article
from symrel.errors import MalformedRecord
from symrel.tagger import ConceptMatcher, SectionTags, read_tags, write_tags
from symrel.vocab import Vocabulary

from helpers import concept, random_articles, random_vocabulary
from oracles import brute_force_tag


@pytest.fixture
def matcher(small_vocabulary):
    return ConceptMatcher(small_vocabulary)


class TestTagText:
    def test_finds_single_word_synonym(self, matcher):
        assert matcher.tag_text("the flu season") == {"D1"}

    def test_finds_multi_word_synonym(self, matcher):
        assert matcher.tag_text("crippling head ache today") == {"S2"}

    def test_empty_text(self, matcher):
        assert matcher.tag_text("") == set()

    def test_no_vocabulary_terms(self, matcher):
        assert matcher.tag_text("completely unrelated prose") == set()

    def test_set_semantics(self, matcher):
        assert matcher.tag_text("fever fever fever") == {"S1"}

    def test_word_boundaries_block_substrings(self):
        vocabulary = Vocabulary([concept("S1", "symptom", "pain")])
        tagger = ConceptMatcher(vocabulary)
        assert tagger.tag_text("the painter painted") == set()
        assert tagger.tag_text("sharp pain here") == {"S1"}

    def test_hyphen_is_a_boundary(self):
        vocabulary = Vocabulary([concept("S1", "symptom", "pain")])
        tagger = ConceptMatcher(vocabulary)
        # hyphens survive normalization, and a hyphen is not alphanumeric,
        # so the flanked word still matches
        assert tagger.tag_text("post-pain management") == {"S1"}

    def test_longest_match_consumes_span(self):
        vocabulary = Vocabulary(
            [
                concept("S_AP", "symptom", "abdominal pain"),
                concept("S_N", "symptom", "nausea"),
                concept("S_P", "symptom", "pain"),
            ]
        )
        tagger = ConceptMatcher(vocabulary)
        found = tagger.tag_text("patient reported abdominal pain and nausea")
        assert found == {"S_AP", "S_N"}

    def test_suppressed_concept_matches_when_standalone(self):
        vocabulary = Vocabulary(
            [
                concept("S_AP", "symptom", "abdominal pain"),
                concept("S_P", "symptom", "pain"),
            ]
        )
        tagger = ConceptMatcher(vocabulary)
        found = tagger.tag_text("abdominal pain then more pain")
        assert found == {"S_AP", "S_P"}

    def test_normalization_applied_before_matching(self, matcher):
        assert matcher.tag_text("HIGH, FEVER!") == {"S1"}

    def test_leftmost_longest_overlap_chain(self):
        # "a b" starts first, consumes through "b"; "b c" overlaps the
        # consumed span and is dropped; "c" then matches standalone.
        vocabulary = Vocabulary(
            [
                concept("C1", "symptom", "a b"),
                concept("C2", "symptom", "b c"),
                concept("C3", "symptom", "c"),
            ]
        )
        tagger = ConceptMatcher(vocabulary)
        assert tagger.tag_text("a b c") == {"C1", "C3"}

    def test_adding_synonym_keeps_receiving_concept(self):
        # Growing one concept's synonym list can only add that concept to
        # outputs, never remove it.
        base = [
            concept("C1", "symptom", "alpha"),
            concept("C2", "symptom", "beta"),
        ]
        grown = [
            concept("C1", "symptom", "alpha", "alpha beta"),
            concept("C2", "symptom", "beta"),
        ]
        text = "alpha beta gamma"
        before = ConceptMatcher(Vocabulary(base)).tag_text(text)
        after = ConceptMatcher(Vocabulary(grown)).tag_text(text)
        assert "C1" in before
        assert "C1" in after

    def test_adding_synonym_can_shadow_other_concepts(self):
        # Documented consequence of leftmost-longest consumption: a new,
        # longer synonym may swallow a neighbour's previously matching span.
        base = [
            concept("C1", "symptom", "alpha"),
            concept("C2", "symptom", "beta"),
        ]
        grown = [
            concept("C1", "symptom", "alpha", "alpha beta"),
            concept("C2", "symptom", "beta"),
        ]
        text = "alpha beta"
        assert ConceptMatcher(Vocabulary(base)).tag_text(text) == {"C1", "C2"}
        assert ConceptMatcher(Vocabulary(grown)).tag_text(text) == {"C1"}


class TestOracleEquivalence:
    def test_handmade_vocabulary_against_oracle(self, small_vocabulary):
        tagger = ConceptMatcher(small_vocabulary)
        texts = [
            "influenza with high fever and cough",
            "head ache, headache, HEADACHE",
            "migraine disorder vs migraine",
            "pyrexia pyrexic pyrexia-like",
            "grippe grippe grippe flu",
            "",
        ]
        for text in texts:
            expected = brute_force_tag(text, small_vocabulary.synonym_index)
            assert tagger.tag_text(text) == expected, text

    def test_randomized_texts_match_oracle(self):
        rng = random.Random(20240521)
        for round_number in range(150):
            vocabulary = random_vocabulary(
                rng, n_diseases=rng.randint(1, 8), n_symptoms=rng.randint(1, 8)
            )
            tagger = ConceptMatcher(vocabulary)
            surface_forms = sorted(
                synonym
                for item in vocabulary.concepts.values()
                for synonym in item.synonyms
            )
            pieces = []
            for _ in range(rng.randint(0, 40)):
                roll = rng.random()
                if roll < 0.45:
                    pieces.append(rng.choice(surface_forms))
                elif roll < 0.75:
                    pieces.append(rng.choice(["lorem", "ipsum", "dolor", "sit"]))
                else:
                    # adversarial: fragments and joined forms
                    base = rng.choice(surface_forms)
                    pieces.append(base + rng.choice(["s", "-x", "x", ""]))
            text = " ".join(pieces)
            expected = brute_force_tag(text, vocabulary.synonym_index)
            actual = tagger.tag_text(text)
            assert actual == expected, f"round {round_number}: {text!r}"


# nested and overlapping synonyms, so leftmost-longest resolution matters
_SYNONYMS = [
    "pain", "chest", "chest pain", "abdominal pain", "fever", "high fever",
    "head", "ache", "head ache", "x-linked", "linked", "a", "a b", "b",
]
_FILLER = ["the", "painter", "pains", "and", "Chest", "FEVER", "--", "a-b", "é"]


@st.composite
def _vocabulary_and_text(draw):
    synonyms = draw(st.lists(st.sampled_from(_SYNONYMS), min_size=1, max_size=8, unique=True))
    vocabulary = Vocabulary(
        [
            concept(f"C{i}", "disease" if i % 2 else "symptom", synonym)
            for i, synonym in enumerate(synonyms)
        ]
    )
    pieces = draw(st.lists(st.sampled_from(_SYNONYMS + _FILLER), max_size=20))
    separators = draw(
        st.lists(
            st.sampled_from([" ", ", ", "-", "/", "", "  "]),
            min_size=len(pieces), max_size=len(pieces),
        )
    )
    return vocabulary, "".join(p + sep for p, sep in zip(pieces, separators))


class TestTagTextProperty:
    @given(_vocabulary_and_text())
    def test_tag_text_matches_oracle(self, vocabulary_and_text):
        vocabulary, text = vocabulary_and_text
        expected = brute_force_tag(text, vocabulary.synonym_index)
        assert ConceptMatcher(vocabulary).tag_text(text) == expected


class TestTagArticle:
    def test_sections_tagged_independently(self, matcher):
        article = Article(
            article_id="A1",
            title="Influenza outbreaks",
            keywords=["Fever/etiology", "unknown keyword"],
            body="patients complained of headache",
        )
        tags = matcher.tag_article(article)
        assert tags.article_id == "A1"
        assert tags.title_concepts == {"D1"}
        assert tags.keyword_concepts == {"S1"}
        assert tags.body_concepts == {"S2"}

    def test_keyword_matching_is_exact_not_substring(self, matcher):
        article = Article(
            article_id="A1",
            title="",
            keywords=["severe influenza cases"],  # not exactly a synonym
            body="",
        )
        assert matcher.tag_article(article).keyword_concepts == set()

    def test_qualifier_stripping(self, matcher):
        article = Article(
            article_id="A1",
            title="",
            keywords=["Migraine/diagnosis/trends"],
            body="",
        )
        assert matcher.tag_article(article).keyword_concepts == {"D2"}

    def test_empty_keyword_list(self, matcher):
        article = Article(article_id="A1", title="", keywords=[], body="")
        assert matcher.tag_article(article).keyword_concepts == set()

    def test_is_tag_keywords_plus_title_and_body_scans(self, monkeypatch):
        vocabulary = random_vocabulary(random.Random(3), n_diseases=3, n_symptoms=6)
        matcher = ConceptMatcher(vocabulary)
        scanned: list[str] = []
        tag_text = ConceptMatcher.tag_text

        def counted(self, text):
            scanned.append(text)
            return tag_text(self, text)

        monkeypatch.setattr(ConceptMatcher, "tag_text", counted)
        for article in random_articles(random.Random(3), vocabulary, 30):
            expected = SectionTags(
                article.article_id,
                tag_text(matcher, article.title),
                matcher.tag_keywords(article.keywords),
                tag_text(matcher, article.body),
            )
            scanned.clear()
            assert matcher.tag_article(article) == expected
            assert scanned == [article.title, article.body]


class TestTagsRoundTrip:
    def test_write_then_read(self, tmp_path):
        tags = [
            SectionTags("A2", {"D1"}, {"S1", "D1"}, set()),
            SectionTags("A1", set(), set(), {"S2"}),
        ]
        path = tmp_path / "tags.jsonl"
        assert write_tags(tags, path) == 2
        reloaded = list(read_tags(path))
        assert reloaded == tags
        # ids inside each record are serialized sorted
        first_line = path.read_text(encoding="utf-8").splitlines()[0]
        assert first_line.index('"D1"') < first_line.index('"S1"')

    @pytest.mark.parametrize(
        "record",
        [
            {"id": 7, "title": [], "keywords": [], "body": []},
            {"id": "", "title": [], "keywords": [], "body": []},
            {"id": "A1", "title": "D1", "keywords": [], "body": []},
            {"id": "A1", "title": [], "keywords": {"a": 1}, "body": []},
            {"id": "A1", "title": [], "keywords": [], "body": "S1"},
            {"id": "A1", "title": [1], "keywords": [], "body": []},
        ],
    )
    def test_wrong_types_rejected_with_line(self, tmp_path, record):
        path = tmp_path / "tags.jsonl"
        good = {"id": "A0", "title": [], "keywords": ["D1"], "body": ["S1"]}
        path.write_text(json.dumps(good) + "\n" + json.dumps(record) + "\n", encoding="utf-8")
        with pytest.raises(MalformedRecord) as excinfo:
            list(read_tags(path))
        assert excinfo.value.line == 2
        assert f"{path}:2:" in str(excinfo.value)
