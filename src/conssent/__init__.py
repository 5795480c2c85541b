"""Sentence encoders trained to tell real token sequences from perturbed ones.

The package is organized bottom-up:

- ``rng``      deterministic keyed random streams (PCG32)
- ``autodiff`` minimal reverse-mode tape over numpy arrays
- ``corpus``   tokenization, vocabulary, train/valid splits
- ``perturb``  consistency-breaking sentence transformations and datasets
- ``toydata``  a small synthetic grammar for desk-scale experiments
- ``encoder``  BiLSTM with max pooling plus classifier heads
- ``train``    losses, SGD with clipping/schedule, single- and multitask loops
- ``probes``   frozen-encoder probing tasks and classifiers
- ``ensemble`` probability-level model averaging
- ``cli``      command-line entry points (``conssent ...``)
"""

from .corpus import Vocabulary, build_vocab, load_corpus_file, prepare_corpus, tokenize
from .encoder import (
    EncoderParams,
    encode_sentences,
    init_params,
    load_checkpoint,
    save_checkpoint,
)
from .ensemble import (
    EnsembleSpec,
    ensemble_accuracy,
    ensemble_predict,
    make_ensemble_spec,
    normalize_weights,
)
from .errors import ConsSentError, DataError, NumericError, UsageError
from .perturb import gen_pair_batches, gen_single_examples, partition, perturb
from .probes import (
    ProbeConfig,
    ProbeTask,
    encode_probe,
    eval_logreg,
    eval_mlp_probe,
    gen_probe_bigramshift,
    gen_probe_sentlen,
    gen_probe_wordcontent,
)
from .toydata import make_toy_corpus
from .train import (
    TrainConfig,
    TrainState,
    run_gradcheck,
    train_multitask,
    train_single_task,
)

__version__ = "0.1.0"

__all__ = [
    "ConsSentError",
    "DataError",
    "EncoderParams",
    "EnsembleSpec",
    "NumericError",
    "ProbeConfig",
    "ProbeTask",
    "TrainConfig",
    "TrainState",
    "UsageError",
    "Vocabulary",
    "build_vocab",
    "encode_probe",
    "encode_sentences",
    "ensemble_accuracy",
    "ensemble_predict",
    "eval_logreg",
    "eval_mlp_probe",
    "gen_pair_batches",
    "gen_probe_bigramshift",
    "gen_probe_sentlen",
    "gen_probe_wordcontent",
    "gen_single_examples",
    "init_params",
    "load_checkpoint",
    "load_corpus_file",
    "make_ensemble_spec",
    "make_toy_corpus",
    "normalize_weights",
    "partition",
    "perturb",
    "prepare_corpus",
    "run_gradcheck",
    "save_checkpoint",
    "tokenize",
    "train_multitask",
    "train_single_task",
]
