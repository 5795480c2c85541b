"""Tokenization, vocabulary construction, and dataset splits.

Corpus files are UTF-8 text with one sentence per line. Vocabulary files
hold one token per line, where the 0-based line number equals id - 2
(ids 0 and 1 are reserved for the UNK and PAD specials).
"""

import hashlib
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from .errors import DataError, UsageError
from .rng import SPLIT, stream

UNK_ID = 0
PAD_ID = 1
UNK_TOKEN = "<unk>"
PAD_TOKEN = "<pad>"


def tokenize(text: str) -> list[str]:
    """Whitespace-split and lowercase; raises DataError if nothing remains."""
    tokens = text.lower().split()
    if not tokens:
        raise DataError(f"no tokens in {text!r}")
    return tokens


@dataclass(frozen=True)
class Vocabulary:
    """Token <-> dense-id mapping with UNK(0) and PAD(1) specials."""

    token_to_id: dict[str, int]
    id_to_token: tuple[str, ...]

    @property
    def size(self) -> int:
        return len(self.id_to_token)

    def encode(self, tokens: list[str]) -> list[int]:
        """Map tokens to ids; out-of-vocabulary tokens become UNK."""
        t2i = self.token_to_id
        return [t2i.get(tok, UNK_ID) for tok in tokens]

    def content_ids(self) -> range:
        """All ids except the UNK/PAD specials."""
        return range(2, self.size)

    def sha256(self) -> str:
        """Hash of the non-special token list; identifies the vocabulary."""
        blob = "\n".join(self.id_to_token[2:]).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()


def build_vocab(corpus: list[list[str]], min_freq: int = 1) -> Vocabulary:
    """Assign dense ids to tokens with frequency >= min_freq.

    Id order is frequency-descending with lexicographic tie-break, so the
    mapping is deterministic for a given corpus.
    """
    if not corpus:
        raise DataError("cannot build a vocabulary from an empty corpus")
    if min_freq < 1:
        raise UsageError(f"min_freq must be >= 1, got {min_freq}")
    counts = Counter()
    for sent in corpus:
        counts.update(sent)
    kept = sorted(
        (tok for tok, c in counts.items() if c >= min_freq),
        key=lambda tok: (-counts[tok], tok),
    )
    id_to_token = (UNK_TOKEN, PAD_TOKEN, *kept)
    token_to_id = {tok: i for i, tok in enumerate(id_to_token)}
    return Vocabulary(token_to_id, id_to_token)


def split_corpus(
    corpus: list, valid_fraction: float, seed: int
) -> tuple[list, list]:
    """Deterministic disjoint train/valid split preserving corpus order."""
    if not 0.0 < valid_fraction < 1.0:
        raise UsageError(f"valid_fraction must be in (0, 1), got {valid_fraction}")
    n = len(corpus)
    n_valid = int(round(n * valid_fraction))
    if n_valid == 0 or n_valid == n:
        raise DataError(
            f"{n} sentences at valid_fraction={valid_fraction} leaves an empty split"
        )
    idx = list(range(n))
    stream(seed, SPLIT).shuffle(idx)
    valid_set = set(idx[:n_valid])
    train = [s for i, s in enumerate(corpus) if i not in valid_set]
    valid = [s for i, s in enumerate(corpus) if i in valid_set]
    return train, valid


@dataclass
class SplitCorpus:
    """A tokenized, id-encoded corpus ready for training."""

    vocab: Vocabulary
    train: list[list[int]]
    valid: list[list[int]]

    def valid_sha256(self) -> str:
        """Hash of the valid split's id sequences; identifies the split."""
        blob = "\n".join(" ".join(map(str, s)) for s in self.valid).encode("ascii")
        return hashlib.sha256(blob).hexdigest()


def prepare_corpus(
    sentences: list[list[str]],
    min_freq: int = 1,
    valid_fraction: float = 0.1,
    seed: int = 0,
) -> SplitCorpus:
    """Build the vocabulary and train/valid split in one step."""
    vocab = build_vocab(sentences, min_freq=min_freq)
    ids = [vocab.encode(s) for s in sentences]
    train, valid = split_corpus(ids, valid_fraction, seed)
    return SplitCorpus(vocab=vocab, train=train, valid=valid)


def read_utf8(path: str | Path) -> str:
    """The text of a UTF-8 file, read with universal newlines; bytes that
    do not decode are a DataError."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc})") from exc


def load_corpus_file(path: str | Path) -> list[list[str]]:
    """Read one sentence per line, skipping blank lines."""
    sentences = []
    for line in read_utf8(path).split("\n"):
        line = line.strip()
        if line:
            sentences.append(tokenize(line))
    if not sentences:
        raise DataError(f"no sentences in {path}")
    return sentences


def save_vocab_file(vocab: Vocabulary, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for tok in vocab.id_to_token[2:]:
            fh.write(tok + "\n")

