"""Tests for the query-text featurizer (paper Section 7.3)."""

import string

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ml.text import QueryFeaturizer, _tokenize, basic_text_counts


def reference_counts(text):
    """The four count features, one character at a time."""
    punctuation = set(string.punctuation)
    return [
        float(sum(1 for ch in text if ord(ch) < 128)),
        float(sum(1 for ch in text if ch in punctuation)),
        float(text.count(".")),
        float(sum(1 for ch in text if ch.isspace())),
    ]


def reference_tokenize(text):
    """Lowercase, then split on every character ``str.isalnum`` rejects."""
    tokens, current = [], []
    for ch in text.lower():
        if ch.isalnum():
            current.append(ch)
        elif current:
            tokens.append("".join(current))
            current = []
    if current:
        tokens.append("".join(current))
    return tokens


#: Printable text up to U+2FFF, plus control and separator whitespace
#: (U+001C-U+001F, U+0085, U+2028), a character whose lowercase form is
#: longer (U+0130 lowers to "i" and a combining dot), numerals that are not
#: decimal digits, and the underscore (a regex word character, not alnum).
query_text = st.text(
    alphabet=st.one_of(
        st.characters(min_codepoint=0x20, max_codepoint=0x2FFF),
        st.sampled_from(
            "\x1c\x1d\x1e\x1f\x85\u2028\u2029\t\n\x0b\x0c\r\xa0\u3000"
            "\u0130\u1e9e\u2160\u00b2\u0660_-.!?'"
        ),
    ),
    max_size=40,
)


@given(text=query_text)
@settings(max_examples=400, deadline=None)
def test_text_features_match_character_loops(text):
    assert basic_text_counts(text) == reference_counts(text)
    assert _tokenize(text) == reference_tokenize(text)


class TestBasicTextCounts:
    def test_counts_of_simple_query(self):
        counts = basic_text_counts("www.google.com")
        ascii_chars, punctuation, dots, whitespaces = counts
        assert ascii_chars == len("www.google.com")
        assert dots == 2
        assert punctuation == 2  # the two dots are punctuation
        assert whitespaces == 0

    def test_whitespace_and_punctuation(self):
        counts = basic_text_counts("cheap flights, new york!")
        assert counts[3] == 3  # whitespaces
        assert counts[1] == 2  # comma and exclamation mark

    def test_empty_string(self):
        assert basic_text_counts("") == [0.0, 0.0, 0.0, 0.0]

    def test_non_ascii_characters_not_counted_as_ascii(self):
        counts = basic_text_counts("café")
        assert counts[0] == 3


class TestQueryFeaturizer:
    def test_vocabulary_keeps_most_common_words(self):
        featurizer = QueryFeaturizer(vocabulary_size=2)
        featurizer.fit(["google maps", "google mail", "weather"])
        assert "google" in featurizer.vocabulary_
        assert len(featurizer.vocabulary_) == 2

    def test_num_features_is_vocabulary_plus_counts(self):
        featurizer = QueryFeaturizer(vocabulary_size=10)
        featurizer.fit(["a b c", "a b", "a"])
        assert featurizer.num_features == min(10, 3) + 4

    def test_transform_marks_present_words(self):
        featurizer = QueryFeaturizer(vocabulary_size=5)
        featurizer.fit(["google maps", "google", "yahoo mail"])
        vector = featurizer.transform_one("google mail inbox")
        names = featurizer.feature_names()
        assert vector[names.index("google")] == 1.0
        assert vector[names.index("mail")] == 1.0
        assert vector[names.index("maps")] == 0.0

    def test_binary_vs_count_mode(self):
        queries = ["spam spam spam", "ham"]
        binary = QueryFeaturizer(vocabulary_size=5, binary=True).fit(queries)
        counting = QueryFeaturizer(vocabulary_size=5, binary=False).fit(queries)
        names = binary.feature_names()
        assert binary.transform_one("spam spam")[names.index("spam")] == 1.0
        assert counting.transform_one("spam spam")[names.index("spam")] == 2.0

    def test_transform_batch_shape(self):
        featurizer = QueryFeaturizer(vocabulary_size=3)
        matrix = featurizer.fit_transform(["a b", "c d", "a d"])
        assert matrix.shape == (3, featurizer.num_features)

    def test_count_features_appended_at_end(self):
        featurizer = QueryFeaturizer(vocabulary_size=2).fit(["x y"])
        vector = featurizer.transform_one("www.site.com page")
        np.testing.assert_allclose(
            vector[-4:], basic_text_counts("www.site.com page")
        )

    def test_unfitted_featurizer_raises(self):
        featurizer = QueryFeaturizer()
        with pytest.raises(RuntimeError):
            featurizer.transform_one("query")
        with pytest.raises(RuntimeError):
            _ = featurizer.num_features

    def test_tokenization_ignores_punctuation_and_case(self):
        featurizer = QueryFeaturizer(vocabulary_size=5).fit(["Google.COM!!"])
        assert "google" in featurizer.vocabulary_
        assert "com" in featurizer.vocabulary_

    def test_negative_vocabulary_rejected(self):
        with pytest.raises(ValueError):
            QueryFeaturizer(vocabulary_size=-1)
