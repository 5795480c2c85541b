"""Synthetic sentence generator for desk-scale experiments.

The grammar is tuned so that single-token consistency violations are
detectable by a small encoder within a few hundred SGD updates:

* a closed, high-frequency function-word skeleton (determiners,
  prepositions, the final period) occupies roughly half of every
  sentence, so perturbations that touch it are cheap to spot;
* determiner, noun, and verb agree in number, and one sentence never
  mixes numbers, so edits that cross the singular/plural line break an
  adjacent pair;
* twelve disjoint topic lexicons, of which four "major" topics carry 97%
  of the corpus and eight "minor" topics share the rest. The minor-topic
  words sit in the vocabulary with only a handful of natural occurrences,
  which mimics the Zipf tail of a real corpus: a uniformly drawn
  replacement token is usually a barely-trained tail word whose embedding
  still looks like initialization noise, itself a usable signal;
* templates are short (4-7 tokens) and have no optional slots, so
  deleting any single token leaves a sequence the grammar cannot emit.

Sentences are single-topic and end with ".". Labels in downstream tasks
record provenance, not grammaticality: a few perturbations (e.g. swapping
a noun for a same-topic, same-number one) yield sentences the grammar
could produce, so no task is exactly solvable.
"""

from __future__ import annotations

from .rng import TOY, RngStream, stream

TOPICS = {
    "animal": dict(nouns=("cat", "dog", "fox", "pig"),
                   iverbs=("sleeps", "barks"), tverbs=("sees", "chases")),
    "food": dict(nouns=("plum", "bean", "loaf", "yam"),
                 iverbs=("ripens", "spoils"), tverbs=("flavors", "fills")),
    "tool": dict(nouns=("drill", "rasp", "clamp", "saw"),
                 iverbs=("spins", "rusts"), tverbs=("cuts", "grips")),
    "water": dict(nouns=("boat", "reef", "wave", "dock"),
                  iverbs=("drifts", "splashes"), tverbs=("rocks", "soaks")),
    "music": dict(nouns=("flute", "drum", "chord", "viola"),
                  iverbs=("echoes", "hums"), tverbs=("drowns", "mutes")),
    "sky": dict(nouns=("cloud", "comet", "moon", "star"),
                iverbs=("glows", "fades"), tverbs=("dims", "outshines")),
    "body": dict(nouns=("hand", "knee", "rib", "chin"),
                 iverbs=("aches", "heals"), tverbs=("bends", "rubs")),
    "cloth": dict(nouns=("coat", "sock", "scarf", "glove"),
                  iverbs=("frays", "sags"), tverbs=("warms", "wraps")),
    "road": dict(nouns=("cart", "lane", "gate", "bridge"),
                 iverbs=("creaks", "turns"), tverbs=("blocks", "crosses")),
    "fire": dict(nouns=("flame", "ember", "torch", "stove"),
                 iverbs=("burns", "crackles"), tverbs=("melts", "scorches")),
    "ice": dict(nouns=("frost", "sleet", "floe", "berg"),
                iverbs=("thaws", "cracks"), tverbs=("chills", "crusts")),
    "garden": dict(nouns=("rose", "fern", "vine", "seed"),
                   iverbs=("blooms", "wilts"), tverbs=("shades", "crowds")),
}

N_MAJOR = 4  # first four topics carry almost all of the corpus
MINOR_PERCENT = 3  # the remaining eight share this percentage

DET_SING = ("a", "the")
DET_PLUR = ("two", "some")
PREPS = ("near", "under")

# Slot legend: Ds/Dp determiner (singular/plural); Ns/Np noun; Is/Ip
# intransitive verb; Ts/Tp transitive verb; E preposition. A trailing
# digit marks a second, independently drawn phrase of the same number.
TEMPLATES = (
    ("Ds", "Ns", "Is", "."),
    ("Dp", "Np", "Ip", "."),
    ("Ds", "Ns", "Ts", "Ds2", "Ns2", "."),
    ("Dp", "Np", "Tp", "Dp2", "Np2", "."),
    ("Ds", "Ns", "Is", "E", "Ds2", "Ns2", "."),
    ("Dp", "Np", "Ip", "E", "Dp2", "Np2", "."),
)

_TOPIC_NAMES = tuple(TOPICS)


def _plural(noun: str) -> str:
    return noun + "s"


def _plural_verb(verb: str) -> str:
    # singular form carries the -s; the plural form drops it
    return verb[:-1]


def sample_sentence(rng: RngStream) -> list[str]:
    """One sentence: a random single-topic template filled from its lexicon."""
    if rng.randint(100) < 100 - MINOR_PERCENT:
        topic = TOPICS[_TOPIC_NAMES[rng.randint(N_MAJOR)]]
    else:
        topic = TOPICS[_TOPIC_NAMES[N_MAJOR + rng.randint(len(_TOPIC_NAMES) - N_MAJOR)]]
    template = TEMPLATES[rng.randint(len(TEMPLATES))]
    out = []
    for slot in template:
        if slot == ".":
            out.append(".")
        elif slot.startswith("Ds"):
            out.append(DET_SING[rng.randint(2)])
        elif slot.startswith("Dp"):
            out.append(DET_PLUR[rng.randint(2)])
        elif slot.startswith("Ns"):
            out.append(topic["nouns"][rng.randint(4)])
        elif slot.startswith("Np"):
            out.append(_plural(topic["nouns"][rng.randint(4)]))
        elif slot == "Is":
            out.append(topic["iverbs"][rng.randint(2)])
        elif slot == "Ip":
            out.append(_plural_verb(topic["iverbs"][rng.randint(2)]))
        elif slot == "Ts":
            out.append(topic["tverbs"][rng.randint(2)])
        elif slot == "Tp":
            out.append(_plural_verb(topic["tverbs"][rng.randint(2)]))
        elif slot == "E":
            out.append(PREPS[rng.randint(2)])
        else:  # pragma: no cover - template typo guard
            raise ValueError(f"unknown slot {slot!r}")
    return out


def make_toy_corpus(n: int, seed: int) -> list[list[str]]:
    """n sentences, each from its own (seed, TOY, i) stream.

    Independent per-sentence streams mean a prefix of a larger corpus
    equals a smaller corpus with the same seed.
    """
    return [sample_sentence(stream(seed, TOY, item=i)) for i in range(n)]
