"""Command-line entry points.

Subcommands: gen | train | probe | sweep | ensemble | gradcheck. Each
command reads only its own config keys (``COMMANDS``): they are its flags,
the keys it takes from a JSON ``--config`` file (which may hold any known
key; unknown keys are rejected) and the config its ``<out>.meta.json``
sidecar records with its SHA-256, so any output can be traced back to the
exact settings that produced it. Every key resolves flag > config file >
built-in default. ``--models``, ``--tolerance`` and ``--k-range`` are flags
only.

Exit codes: 0 success; a package error exits with its class's
``exit_code`` after its ``label`` (see ``errors``), and a path that cannot
be opened or an allocation that fails exits 1.
Human-readable progress goes to stderr; machine output goes to files and
stdout only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import MISSING, fields
from pathlib import Path

import numpy as np

from . import ensemble as ens
from . import probes as pr
from .corpus import load_corpus_file, prepare_corpus, read_utf8, save_vocab_file
from .encoder import head_probs, init_params, load_checkpoint, save_checkpoint
from .errors import ConsSentError, DataError, NumericError, UsageError
from .perturb import (
    PAIR_TASKS,
    SINGLE_TASKS,
    gen_single_examples,
    write_pair_dataset,
    write_single_dataset,
)
from .rng import VALID
from .toydata import make_toy_corpus
from .train import (
    K_RANGES,
    TASKS,
    TrainConfig,
    _epoch_batches,
    run_gradcheck,
    train_multitask,
    train_single_task,
    write_metrics_jsonl,
)

# Every config key with its default: TrainConfig's fields, then the run's
# inputs. `None` means "no value": the command supplies its own (out paths)
# or reads none (corpus, metrics). Probes always run at ProbeConfig's fixed
# protocol.
CONFIG_DEFAULTS = {
    **{f.name: f.default for f in fields(TrainConfig) if f.default is not MISSING},
    "task": "R",                    # D | P | I | R | C | N | MT
    "corpus": None,                 # path to one-sentence-per-line text; None -> toy
    "toy_n": 2000,                  # toy corpus size when corpus is None
    "valid_fraction": 0.1,
    "min_freq": 1,
    "probes": list(pr.PROBE_NAMES),
    "probe_classifier": "logreg",   # logreg | mlp | both
    "baseline": False,              # also evaluate an untrained encoder
    "out": None,                    # main output path; default depends on command
    "metrics": None,                # metrics JSONL path (train)
}


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad flags; the contract here is exit 1."""

    def error(self, message):
        raise UsageError(message)


def _progress(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# Config resolution
# ---------------------------------------------------------------------------


def _type_ok(value, default) -> bool:
    """Whether a config value has its default's JSON type: an int passes for
    a float, a list's items are checked against the default's first item, and
    a key whose default is None (a path) takes a string or null."""
    if default is None:
        return value is None or type(value) is str
    if isinstance(default, list):
        return isinstance(value, list) and all(_type_ok(v, default[0]) for v in value)
    if isinstance(default, float):
        return type(value) in (int, float)
    return type(value) is type(default)


def load_run_config(path: str | None) -> dict:
    config = dict(CONFIG_DEFAULTS)
    if path is None:
        return config
    try:
        loaded = json.loads(read_utf8(path))
    except FileNotFoundError as exc:
        raise UsageError(f"config file not found: {path}") from exc
    except (ValueError, RecursionError) as exc:  # bad JSON, too deep or too long a number
        raise DataError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(loaded, dict):
        raise DataError(f"{path}: config must be a JSON object")
    unknown = sorted(set(loaded) - set(CONFIG_DEFAULTS))
    if unknown:
        raise UsageError(f"{path}: unknown config keys {unknown}")
    for key, value in loaded.items():
        default = CONFIG_DEFAULTS[key]
        if not _type_ok(value, default):
            raise UsageError(f"{path}: {key}={value!r} does not match the type of its default {default!r}")
        if isinstance(default, float):  # stored as its flag stores it, so config_sha256 agrees
            try:
                value = float(value)
            except OverflowError:
                raise UsageError(f"{path}: {key} is too large for a float") from None
        config[key] = value
    return config


def config_sha256(config: dict) -> str:
    return hashlib.sha256(
        json.dumps(config, sort_keys=True).encode("utf-8")
    ).hexdigest()


def write_meta(out_path: str | Path, config: dict, **extra) -> None:
    """Sidecar recording the exact resolved config and its hash.

    Deliberately contains no timestamps or host details so that repeated
    runs with the same config are byte-identical.
    """
    payload = {"config": config, "config_sha256": config_sha256(config), **extra}
    Path(str(out_path) + ".meta.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def _load_sentences(config: dict) -> list:
    if config["corpus"] is not None:
        return load_corpus_file(config["corpus"])
    if not 1 <= config["toy_n"] <= 2**32:  # sentence i + 2**32 would repeat sentence i
        raise UsageError(f"toy_n must be in 1..2**32, got {config['toy_n']}")
    return make_toy_corpus(config["toy_n"], seed=config["seed"])


def _prepare(config: dict, sentences: list | None = None):
    if sentences is None:
        sentences = _load_sentences(config)
    return prepare_corpus(
        sentences,
        min_freq=config["min_freq"],
        valid_fraction=config["valid_fraction"],
        seed=config["seed"],
    )


def _train_config(config: dict, **changes) -> TrainConfig:
    """The resolved config's TrainConfig, with ``changes`` applied; the
    fields a command does not read keep TrainConfig's defaults."""
    return TrainConfig(**{f.name: config[f.name] for f in fields(TrainConfig)
                          if f.name in config} | changes)


def _load_encoder(path, vocab):
    """A checkpoint's parameters and header, admitted only if they embed
    ``vocab``: the sizes must agree and the header must carry ``vocab``'s
    hash, since two vocabularies of one size can map the same ids to
    different tokens."""
    params, meta = load_checkpoint(path)
    if params.vocab_size != vocab.size:
        raise DataError(
            f"{path}: checkpoint vocab size {params.vocab_size} != corpus vocab "
            f"{vocab.size}; use the corpus the model was trained on"
        )
    if meta.get("vocab_sha256") != vocab.sha256():
        raise DataError(
            f"{path}: checkpoint vocab_sha256 {meta.get('vocab_sha256')} != corpus vocab "
            f"{vocab.sha256()}; use the corpus the model was trained on"
        )
    return params, meta


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_gen(config: dict) -> int:
    out = config["out"] or "dataset.tsv"
    tc = _train_config(config)
    if tc.task == "MT":
        raise UsageError("gen writes one task's dataset; pick one of D P I R C N")
    data = _prepare(config)
    batches = _epoch_batches(data.train, tc.task, tc, 0, data.vocab)
    if not batches:
        raise DataError(f"epoch 0: no training batches for {[tc.task]}")
    writer = write_pair_dataset if tc.task in PAIR_TASKS else write_single_dataset
    writer(out, batches)
    written = sum(len(b) for b in batches)
    skipped = len(data.train) - written
    vocab_path = str(out) + ".vocab"
    save_vocab_file(data.vocab, vocab_path)
    write_meta(out, config, written=written, skipped=skipped, vocab=vocab_path)
    _progress(
        f"gen {tc.task}({tc.k}): wrote {written} records to {out} "
        f"({skipped} train sentences skipped)"
    )
    return 0


def cmd_train(config: dict) -> int:
    out = config["out"] or "model.ckpt"
    metrics_path = config["metrics"] or str(out) + ".metrics.jsonl"
    tc = _train_config(config)
    data = _prepare(config)
    _progress(f"train {tc.task}(k={tc.k}) on {len(data.train)} sentences "
              f"(vocab {data.vocab.size})")
    # probe and ensemble check the vocabulary, ensemble also the valid split
    provenance = {"vocab_sha256": data.vocab.sha256(), "valid_sha256": data.valid_sha256()}
    if tc.task == "MT":
        g1, g2 = train_multitask(tc, data, progress=_progress)
        paths = {"group1": str(out) + ".g1", "group2": str(out) + ".g2"}
        for name, group in (("group1", g1), ("group2", g2)):
            save_checkpoint(paths[name], group.params, {"task": f"MT/{name}", **provenance})
        history = g1.history + g2.history
        summary = {
            "task": "MT", "k": tc.k,
            "member_accs": {**g1.member_accs, **g2.member_accs},
            "checkpoints": paths,
        }
    else:
        state = train_single_task(tc, data, progress=_progress)
        save_checkpoint(out, state.params, {"task": tc.task, "k": tc.k, **provenance,
                                            "best_valid": state.best_valid})
        history = state.history
        summary = {
            "task": tc.task, "k": tc.k,
            "best_valid": state.best_valid,
            "best_epoch": state.best_epoch,
            "checkpoint": str(out),
        }
    write_metrics_jsonl(metrics_path, history)
    write_meta(out, config, **summary)
    final_losses = [h["train_loss"] for h in history if h["epoch"] == history[-1]["epoch"]]
    summary["final_loss"] = sum(final_losses) / len(final_losses)
    summary["skipped_steps"] = sum(h["skipped_steps"] for h in history)
    print(json.dumps(summary, sort_keys=True))
    return 0


def cmd_probe(config: dict, checkpoint: str) -> int:
    if config["out"] is None:
        raise UsageError("probe needs --out for the results file stem")
    sentences = _load_sentences(config)
    data = _prepare(config, sentences)
    params, _meta = _load_encoder(checkpoint, data.vocab)
    seed = config["seed"]
    tasks = pr.build_probe_tasks(config["probes"], sentences, seed)
    pc = pr.ProbeConfig(seed=seed)
    clf = config["probe_classifier"]
    classifiers = ("logreg", "mlp") if clf == "both" else (clf,)
    results = pr.probe_encoder(tasks, params, data.vocab, classifiers, pc)
    for key, res in results.items():
        _progress(f"probe {key}: test acc {res.test_accuracy:.4f}")
    out = config["out"]
    pr.write_results_json(str(out) + ".json", results)
    pr.write_results_tsv(str(out) + ".tsv", results)
    table = pr.results_to_table(results)
    if config["baseline"]:
        # the untrained twin: same vocabulary and widths, default init gain
        twin = init_params(data.vocab.size, params.embed_dim, params.hidden_size, seed=seed)
        table["untrained"] = pr.results_to_table(
            pr.probe_encoder(tasks, twin, data.vocab, classifiers, pc))
    write_meta(out, config, results={k: r.test_accuracy for k, r in results.items()},
               checkpoint=str(checkpoint))
    print(json.dumps(table, sort_keys=True))
    return 0


def cmd_sweep(config: dict, k_range: str | None) -> int:
    if k_range is None:  # the task's own range; TrainConfig vets the task first
        ks = K_RANGES[_train_config(config).task]
    else:
        try:
            lo, hi = k_range.split("..")
            ks = range(int(lo), int(hi) + 1)  # lazy: the first k out of range stops it
        except ValueError as exc:
            raise UsageError(f"--k-range must look like 2..6, got {k_range!r}") from exc
    if not ks:
        raise UsageError(f"empty k range {k_range!r}")
    configs = [_train_config(config, k=k) for k in ks]
    data = _prepare(config)
    rows = []
    print("task\tk\tbest_valid\tbest_epoch")
    for tc in configs:
        _progress(f"sweep {tc.task}(k={tc.k})")
        if tc.task == "MT":
            # one row per trained encoder, as `train` saves them
            runs = dict(zip(("MT/group1", "MT/group2"), train_multitask(tc, data, progress=_progress)))
        else:
            runs = {tc.task: train_single_task(tc, data, progress=_progress)}
        for name, st in runs.items():
            rows.append({"task": name, "k": tc.k, "best_valid": st.best_valid, "best_epoch": st.best_epoch})
            print(f"{name}\t{tc.k}\t{st.best_valid:.4f}\t{st.best_epoch}", flush=True)
    if config["out"]:
        Path(config["out"]).write_text(
            json.dumps(rows, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        write_meta(config["out"], config)
    return 0


def cmd_ensemble(config: dict, manifest: str) -> int:
    tc = _train_config(config)
    if tc.task not in SINGLE_TASKS:
        raise UsageError(
            "ensemble evaluation averages classifier-head probabilities, "
            "so it applies to the binary tasks D P I R"
        )
    checkpoints, task_weights = ens.read_manifest(manifest)
    if tc.task not in task_weights:
        raise DataError(f"manifest has no validation scores for task {tc.task!r}")
    data = _prepare(config)
    examples, _ = gen_single_examples(
        data.valid, tc.task, tc.k, TrainConfig.gate_p, data.vocab, tc.seed, purpose=VALID
    )
    if not examples:
        raise DataError(f"validation split yields no {tc.task}(k={tc.k}) data")
    labels = np.array([ex.label for ex in examples])
    valid_sha256 = data.valid_sha256()
    member_probs, member_accs = [], []
    for path in checkpoints:
        params, meta = _load_encoder(path, data.vocab)
        # a member trained on another split would be scored on sentences it trained on
        if meta.get("valid_sha256") != valid_sha256:
            raise DataError(
                f"{path}: checkpoint valid_sha256 {meta.get('valid_sha256')} != this run's "
                f"valid split {valid_sha256}; train every member with this corpus, "
                "--seed and --valid-fraction"
            )
        probs = head_probs([ex.tokens for ex in examples], params, tc.task)
        member_probs.append(probs)
        member_accs.append(ens.ensemble_accuracy([probs], (1.0,), labels))
    weights = task_weights[tc.task]
    acc = ens.ensemble_accuracy(member_probs, weights, labels)
    report = {
        "task": tc.task, "k": tc.k,
        "members": member_accs,
        "weights": list(weights),
        "ensemble": acc,
        "n_examples": len(examples),
    }
    for i, a in enumerate(member_accs):
        _progress(f"member {i}: acc {a:.4f} (weight {weights[i]:.4f})")
    _progress(f"ensemble: acc {acc:.4f}")
    if config["out"]:
        Path(config["out"]).write_text(
            json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        write_meta(config["out"], config, manifest=str(manifest))
    print(json.dumps(report, sort_keys=True))
    return 0


def cmd_gradcheck(config: dict, models: int, tolerance: float) -> int:
    if models < 1:
        raise UsageError(f"--models must be >= 1, got {models}")
    if not 0 < tolerance < float("inf"):
        raise UsageError(f"--tolerance must be finite and positive, got {tolerance}")
    report = run_gradcheck(n_models=models, seed=config["seed"], progress=_progress)
    print(json.dumps({"max_rel_err": report["worst"], "models": models,
                      "tolerance": tolerance}, sort_keys=True))
    if not report["worst"] < tolerance:
        raise NumericError(
            f"gradient check failed: max rel err {report['worst']:.3e} "
            f">= {tolerance:.1e}"
        )
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


# The config keys each command reads: only these are its flags, its keys
# from a --config file and its .meta.json config. The corpus keys are read
# by every command that prepares a corpus (valid_fraction included: _prepare
# splits it). Each entry: function, help, keys, and the arguments that are
# not config keys (positionals and flag-only options).
_CORPUS_KEYS = ("seed", "corpus", "toy_n", "valid_fraction", "min_freq", "out")
_TRAIN_KEYS = tuple(f.name for f in fields(TrainConfig) if f.name != "seed")  # seed: a corpus key
COMMANDS = {
    "gen": (cmd_gen, "write epoch 0's training batches (train split, training order)",
            (*_CORPUS_KEYS, "task", "k", "batch_size"), {}),
    "train": (cmd_train, "train an encoder, save checkpoint + metrics",
              (*_CORPUS_KEYS, *_TRAIN_KEYS, "metrics"), {}),
    "probe": (cmd_probe, "probe a trained checkpoint",
              (*_CORPUS_KEYS, "probes", "probe_classifier", "baseline"),
              {"checkpoint": {"help": "trained model checkpoint"}}),
    "sweep": (cmd_sweep, "train across a k range, print a table",
              (*_CORPUS_KEYS, *(key for key in _TRAIN_KEYS if key != "k")),
              {"--k-range": {"help": "inclusive range, e.g. 2..6 (default: the task's k range)"}}),
    "ensemble": (cmd_ensemble, "evaluate a checkpoint ensemble",
                 (*_CORPUS_KEYS, "task", "k"),
                 {"manifest": {"help": "ensemble manifest JSON"}}),
    "gradcheck": (cmd_gradcheck, "finite-difference gradient audit", ("seed",),
                  {"--models": {"type": int, "default": 20, "help": "number of random small models"},
                   "--tolerance": {"type": float, "default": 1e-4}}),
}

# What a flag needs beyond the type of its key's default.
_FLAG_OPTIONS = {
    "task": {"choices": TASKS},
    "seed": {"help": "master seed"},
    "corpus": {"help": "text corpus, one sentence per line"},
    "toy_n": {"help": "toy corpus size when --corpus is absent"},
    "out": {"help": "output path (for probe: the stem of the .json and .tsv results)"},
    "metrics": {"help": "metrics JSONL path"},
    "probes": {"nargs": "+", "choices": pr.PROBE_NAMES},
    "probe_classifier": {"choices": ("logreg", "mlp", "both")},
    "baseline": {"action": "store_const", "const": True,
                 "help": "also report an untrained encoder of the same shape"},
}


def build_parser() -> _Parser:
    parser = _Parser(prog="conssent",
                     description="Sentence encoders trained to tell consistent "
                                 "token sequences from perturbed ones.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_cmd, help_text, keys, arguments) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        p.add_argument("--config", help="JSON config file; the command takes its own "
                                        "keys from it (unknown keys rejected)")
        for key in keys:
            default = CONFIG_DEFAULTS[key]
            options = {} if default is None or isinstance(default, (bool, list)) else {"type": type(default)}
            p.add_argument("--" + key.replace("_", "-"), dest=key, **options | _FLAG_OPTIONS.get(key, {}))
        for arg, options in arguments.items():
            p.add_argument(arg, **options)
    return parser


def main(argv=None) -> int:
    try:
        args = vars(build_parser().parse_args(argv))
        command, _help, keys, _arguments = COMMANDS[args.pop("command")]
        loaded = load_run_config(args["config"])  # flags beat the config file
        config = {key: loaded[key] if args[key] is None else args[key] for key in keys}
        if not 0 <= config["seed"] < 2**64:  # the RNG keeps a seed's low 64 bits
            raise UsageError(f"seed must be in 0..2**64-1, got {config['seed']}")
        return command(config, **{k: v for k, v in args.items() if k not in (*keys, "config")})
    except FileNotFoundError as exc:
        print(f"error: no such file: {exc.filename}", file=sys.stderr)
        return 1
    except OSError as exc:  # a directory, an unwritable path, ...
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1
    except ConsSentError as exc:
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
