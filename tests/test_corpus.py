"""Tokenization, vocabulary ids, and deterministic splits."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conssent.corpus import (
    PAD_ID,
    PAD_TOKEN,
    UNK_ID,
    UNK_TOKEN,
    build_vocab,
    load_corpus_file,
    prepare_corpus,
    save_vocab_file,
    split_corpus,
    tokenize,
)
from conssent.errors import ConsSentError, DataError, UsageError

CORPUS = [
    ["the", "cat", "sat"],
    ["the", "dog", "sat"],
    ["the", "cat", "ran"],
]


def test_tokenize_lowercases_and_splits():
    assert tokenize("The  Cat\tSAT .") == ["the", "cat", "sat", "."]


def test_tokenize_empty_raises():
    with pytest.raises(DataError, match="no tokens in"):
        tokenize("   \t  ")


def test_specials_occupy_first_two_ids():
    vocab = build_vocab(CORPUS)
    assert vocab.id_to_token[UNK_ID] == UNK_TOKEN
    assert vocab.id_to_token[PAD_ID] == PAD_TOKEN
    assert vocab.token_to_id[UNK_TOKEN] == UNK_ID
    assert vocab.token_to_id[PAD_TOKEN] == PAD_ID


def test_ids_ordered_by_frequency_then_token():
    vocab = build_vocab(CORPUS)
    # the: 3, cat: 2, sat: 2, dog: 1, ran: 1
    assert vocab.id_to_token[2:] == ("the", "cat", "sat", "dog", "ran")
    assert vocab.size == 7


def test_min_freq_filters():
    vocab = build_vocab(CORPUS, min_freq=2)
    assert vocab.id_to_token[2:] == ("the", "cat", "sat")


def test_empty_corpus_raises():
    with pytest.raises(DataError, match="cannot build a vocabulary from an empty corpus"):
        build_vocab([])


def test_oov_encodes_to_unk():
    vocab = build_vocab(CORPUS)
    assert vocab.encode(["the", "zebra"]) == [vocab.token_to_id["the"], UNK_ID]


def test_decode_encode_identity_on_all_ids():
    vocab = build_vocab(CORPUS)
    ids = list(range(vocab.size))
    assert vocab.encode([vocab.id_to_token[i] for i in ids]) == ids


@given(
    st.lists(
        st.lists(st.text(alphabet="abcdef", min_size=1, max_size=4), min_size=1, max_size=6),
        min_size=1,
        max_size=10,
    )
)
def test_encode_decode_identity_on_known_tokens(sentences):
    vocab = build_vocab(sentences)
    for sent in sentences:
        assert [vocab.id_to_token[i] for i in vocab.encode(sent)] == sent


def test_split_disjoint_ordered_and_complete():
    corpus = [[i] for i in range(100)]
    train, valid = split_corpus(corpus, 0.2, seed=3)
    assert len(valid) == 20 and len(train) == 80
    flat_train = [s[0] for s in train]
    flat_valid = [s[0] for s in valid]
    assert flat_train == sorted(flat_train)  # original order preserved
    assert flat_valid == sorted(flat_valid)
    assert sorted(flat_train + flat_valid) == list(range(100))


def test_split_deterministic_and_seed_sensitive():
    corpus = [[i] for i in range(60)]
    a = split_corpus(corpus, 0.25, seed=1)
    b = split_corpus(corpus, 0.25, seed=1)
    c = split_corpus(corpus, 0.25, seed=2)
    assert a == b
    assert a != c


def test_split_too_small():
    with pytest.raises(DataError, match="1 sentences at valid_fraction=0.1 leaves an empty split"):
        split_corpus([[1]], 0.1, seed=0)
    with pytest.raises(DataError, match="2 sentences at valid_fraction=0.95 leaves an empty split"):
        split_corpus([[1], [2]], 0.95, seed=0)


def test_split_bad_fraction():
    with pytest.raises(UsageError, match=r"valid_fraction must be in \(0, 1\), got 0\.0"):
        split_corpus([[1], [2]], 0.0, seed=0)
    with pytest.raises(UsageError, match=r"valid_fraction must be in \(0, 1\), got 1\.0"):
        split_corpus([[1], [2]], 1.0, seed=0)


def test_prepare_corpus_encodes_and_splits():
    sentences = [["a", "b"], ["b", "c"], ["c", "a"], ["a", "c"]]
    sc = prepare_corpus(sentences, valid_fraction=0.25, seed=0)
    assert len(sc.train) == 3 and len(sc.valid) == 1
    assert len(sc.train + sc.valid) == 4
    for ids in sc.train + sc.valid:
        assert all(i >= 2 for i in ids)  # everything in-vocab here


def test_vocab_file_round_trip(tmp_path):
    vocab = build_vocab(CORPUS)
    path = tmp_path / "vocab.txt"
    save_vocab_file(vocab, path)
    # one token per line, line i holding id i + 2 (after the UNK and PAD specials)
    lines = path.read_text(encoding="utf-8").split("\n")
    assert lines == [*vocab.id_to_token[2:], ""]
    assert [vocab.token_to_id[tok] for tok in lines[:-1]] == list(vocab.content_ids())


def test_vocab_hash_changes_with_content():
    a = build_vocab(CORPUS)
    b = build_vocab(CORPUS + [["owl"]])
    assert a.sha256() != b.sha256()


# UTF-8 text, undecodable bytes, and control and whitespace characters
_TEXT_BYTES = st.one_of(
    st.binary(max_size=64),
    st.text(alphabet="ab \t\n\r\x0b\x0c\x85\u2028\u00e9", max_size=32).map(str.encode),
)


@settings(max_examples=100, deadline=None)
@given(_TEXT_BYTES)
def test_load_corpus_file_raises_only_package_errors(tmp_path_factory, blob):
    path = tmp_path_factory.mktemp("corpus") / "c.txt"
    path.write_bytes(blob)
    try:
        load_corpus_file(path)
    except ConsSentError:
        pass
