"""Synthetic grammar: shape, determinism, and coverage guarantees."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conssent.rng import TOY, stream
from conssent.toydata import (
    DET_PLUR,
    DET_SING,
    MINOR_PERCENT,
    PREPS,
    TOPICS,
    make_toy_corpus,
    sample_sentence,
)


def test_sentences_end_with_period_and_start_with_determiner():
    for s in make_toy_corpus(300, seed=0):
        assert s[-1] == "."
        assert s[0] in DET_SING + DET_PLUR


def test_sentence_lengths_come_from_templates():
    lengths = {len(s) for s in make_toy_corpus(500, seed=1)}
    assert lengths <= {4, 6, 7}
    assert lengths == {4, 6, 7}   # all three template shapes appear by 500


def test_prefix_property():
    assert make_toy_corpus(50, seed=9) == make_toy_corpus(100, seed=9)[:50]


def test_determinism_and_seed_sensitivity():
    assert make_toy_corpus(80, seed=3) == make_toy_corpus(80, seed=3)
    assert make_toy_corpus(80, seed=3) != make_toy_corpus(80, seed=4)


def test_sampled_vocabulary_stays_inside_grammar():
    surface = {"."} | set(DET_SING) | set(DET_PLUR) | set(PREPS)
    for topic in TOPICS.values():
        for n in topic["nouns"]:
            surface |= {n, n + "s"}
        for v in topic["iverbs"] + topic["tverbs"]:
            surface |= {v, v[:-1]}
    seen = set()
    for s in make_toy_corpus(2400, seed=0):
        seen |= set(s)
    assert seen <= surface
    # the acceptance-scale corpus realizes most of the grammar
    assert len(seen) > 150


def test_single_topic_per_sentence():
    """Content words in one sentence never mix topics."""
    word_topic = {}
    for name, topic in TOPICS.items():
        for n in topic["nouns"]:
            word_topic[n] = word_topic[n + "s"] = name
        for v in topic["iverbs"] + topic["tverbs"]:
            word_topic[v] = word_topic[v[:-1]] = name
    for s in make_toy_corpus(400, seed=7):
        topics = {word_topic[w] for w in s if w in word_topic}
        assert len(topics) == 1, s


def test_minor_topics_are_rare():
    minor_names = list(TOPICS)[4:]
    minor_words = set()
    for name in minor_names:
        t = TOPICS[name]
        for n in t["nouns"]:
            minor_words |= {n, n + "s"}
        for v in t["iverbs"] + t["tverbs"]:
            minor_words |= {v, v[:-1]}
    corpus = make_toy_corpus(4000, seed=5)
    n_minor = sum(1 for s in corpus if minor_words & set(s))
    frac = n_minor / len(corpus)
    # MINOR_PERCENT of sentences draw from the 8 minor topics; allow 3 sigma
    expect = MINOR_PERCENT / 100
    sigma = (expect * (1 - expect) / len(corpus)) ** 0.5
    assert abs(frac - expect) <= 3 * sigma + 1e-9


def test_number_agreement():
    """Plural determiners go with plural nouns and verbs, singular with singular."""
    sing_nouns, plur_nouns = set(), set()
    for topic in TOPICS.values():
        for n in topic["nouns"]:
            sing_nouns.add(n)
            plur_nouns.add(n + "s")
    for s in make_toy_corpus(400, seed=2):
        det = s[0]
        noun = s[1]
        if det in DET_SING:
            assert noun in sing_nouns, s
        else:
            assert noun in plur_nouns, s


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1), st.integers(min_value=0, max_value=10_000))
def test_sample_sentence_property(seed, item):
    s = sample_sentence(stream(seed, TOY, item=item))
    assert len(s) in (4, 6, 7)
    assert s[-1] == "."
    assert s[0] in DET_SING + DET_PLUR


def test_topic_mass_concentrates_on_majors():
    corpus = make_toy_corpus(3000, seed=8)
    major_words = set()
    for name in list(TOPICS)[:4]:
        t = TOPICS[name]
        for n in t["nouns"]:
            major_words |= {n, n + "s"}
        for v in t["iverbs"] + t["tverbs"]:
            major_words |= {v, v[:-1]}
    counts = Counter(w for s in corpus for w in s if w not in (".",))
    content = [w for w in counts if w in major_words]
    major_mass = sum(counts[w] for w in content)
    total_content = sum(c for w, c in counts.items()
                        if w not in {".", *DET_SING, *DET_PLUR, *PREPS})
    assert major_mass / total_content > 0.9
