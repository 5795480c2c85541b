"""CLI: exit codes, precedence rules, artifact discipline, determinism."""

import argparse
import hashlib
import json
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conssent.cli import COMMANDS, CONFIG_DEFAULTS, build_parser, config_sha256, load_run_config, main
from conssent.corpus import load_corpus_file, prepare_corpus
from conssent.encoder import encode_sentences, init_params, load_checkpoint, save_checkpoint
from conssent.errors import ConsSentError, DataError, NumericError, UsageError, WorkerPoolError
from conssent.perturb import SINGLE_TASKS, NoCandidates
from conssent.toydata import make_toy_corpus
from conssent.train import NonFiniteGradient, TrainConfig, _epoch_batches, train_multitask

TINY = ["--hidden-size", "4", "--embed-dim", "8", "--head-dim", "8",
        "--batch-size", "16", "--max-epochs", "1", "--valid-draws", "1"]


# `gen --task R --k 2 --seed 7 --toy-n 60`: recorded when `gen` began to
# write epoch 0's training batches (train split, training order) in place
# of its own draw over train and valid sentences, which the old pin held.
GEN_R2_SHA256 = "01b6209829794eaf07b5ea4b4094807cb9daa5ac95921ce0db705163ba829043"
# The ensemble report of members R(1) and R(2) trained with the seed the
# ensemble runs at (members of other seeds are refused since checkpoints
# carry `valid_sha256`); the code before that check wrote the same bytes.
ENSEMBLE_R1_SHA256 = "81284f9f971e20e4bc6bca5988c9baccf7620644b0d1b3640e0af37df4cf8cd9"

# sha256 of each checkpoint a tiny `train` run writes, keyed by (task, k).
# Recorded when checkpoint headers gained `valid_sha256` (after
# `vocab_sha256`); the float32 payload after each header is byte-identical
# to the one the batch loss, pair batch, parameter layout and probe grid
# search consolidation kept.
TRAIN_D1_SHA256 = "df12b9019b79d6af3473fb895712c3fa0060f1c91fb52a726fdb5517477b2d59"
TRAIN_SHA256 = {
    ("P", 2): ["f80a1c1858eff170c1a60c20ccef7ee57ae4c014afa2f8840b3aec01ceb643a3"],
    ("I", 2): ["a7677ea37776a09da60f1c89bdaa499e4df16324a95748fe76ad0570ed74f6a4"],
    ("R", 1): ["14779bd133a6c247732849a8d165809919624957d3ed38a9a1c6addba4183c71"],
    ("C", 2): ["a1ae892ba3c3eefa22edc68eb011863a0e99b6b572117edf1a7a05dfbc22c1a7"],
    ("N", 3): ["ab1aa06fe6b541585943adedf439313aff140c289226f7bad232da4dfc58f044"],
    ("MT", 2): ["6e3ea3e1bba20dda128f164b32a9c01420205678f76f60864ca4b112f073b266",
                "726ff52d0269b3fb6a78e0ea055f6bb1483088d31e53ddc3af61f832192e025f"],
}
# `probe --probe-classifier both --baseline` on SentLen and BigramShift; the
# encodings are computed in float32 (one unselected SentLen/mlp grid cell's
# validation accuracy differs from a float64 readout)
PROBE_BOTH_JSON_SHA256 = "21dc2ace45892ce048e94cd365a561f0ba88e55ea642835c2a54f713f5f0852d"
PROBE_BOTH_TSV_SHA256 = "8312413f5704e58c5b0fbe87d67077bb98b82f245784be1cfd34374b69013c5d"
PROBE_BOTH_TABLE = {
    "BigramShift": {"logreg": 0.6666666666666666, "mlp": 0.5},
    "SentLen": {"logreg": 0.6111111111111112, "mlp": 0.3888888888888889},
    # the untrained twin is read out with every requested classifier; the
    # logreg values predate that, and the mlp values equal what
    # `--probe-classifier mlp --baseline` printed when only one was used
    "untrained": {"BigramShift": {"logreg": 0.4444444444444444, "mlp": 0.5},
                  "SentLen": {"logreg": 0.4444444444444444, "mlp": 0.3888888888888889}},
}


def run(*argv):
    return main([str(a) for a in argv])


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture()
def corpus_file(tmp_path):
    path = tmp_path / "toy.txt"
    with open(path, "w") as fh:
        for s in make_toy_corpus(120, seed=4):
            fh.write(" ".join(s) + "\n")
    return path


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------


def test_gen_is_byte_identical_across_runs(tmp_path):
    a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
    assert run("gen", "--task", "R", "--k", "2", "--seed", "7",
               "--toy-n", "60", "--out", a) == 0
    assert run("gen", "--task", "R", "--k", "2", "--seed", "7",
               "--toy-n", "60", "--out", b) == 0
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "a.tsv.vocab").read_bytes() == (tmp_path / "b.tsv.vocab").read_bytes()
    assert sha256(a) == GEN_R2_SHA256


def test_gen_pair_task_dataset(tmp_path):
    out = tmp_path / "pairs.tsv"
    assert run("gen", "--task", "C", "--k", "3", "--seed", "1",
               "--toy-n", "60", "--out", out) == 0
    lines = out.read_text().strip().split("\n")
    # each anchor line is followed by k candidate lines
    assert lines[0].split("\t")[3] == "anchor"
    assert all(len(line.split("\t")) == 5 for line in lines)
    assert len(lines) % 4 == 0


def _ids(field):
    return tuple(int(t) for t in field.split())


@pytest.mark.parametrize("task,k", [("D", 1), ("C", 3)])
def test_gen_writes_epoch_0s_training_batches(tmp_path, task, k):
    """The file holds the batches epoch 0 of `train` steps through, in
    its order, drawn from the train split alone."""
    out = tmp_path / "ds.tsv"
    assert run("gen", "--task", task, "--k", k, "--seed", "0", "--toy-n", "300", "--out", out) == 0
    data = prepare_corpus(make_toy_corpus(300, seed=0), seed=0)
    batches = _epoch_batches(data.train, task, TrainConfig(task=task, k=k), 0, data.vocab)
    rows = [line.split("\t") for line in out.read_text().splitlines()]
    if task in SINGLE_TASKS:
        got = [(int(label), kind, int(kk), int(src), _ids(toks)) for label, kind, kk, src, toks in rows]
        want = [(ex.label, ex.kind, ex.k, ex.source_index, ex.tokens) for b in batches for ex in b]
        kept = [(src, toks) for label, _, _, src, toks in got if label == 1]
        assert all(data.train[src] == list(toks) for src, toks in kept)  # indexes the train split
        untouched = [toks for _, toks in kept]
    else:
        got = []
        for a in range(0, len(rows), k + 1):  # an anchor row, then its k candidate rows
            (label, kind, kk, part, left), *cands = rows[a : a + k + 1]
            assert (label, kind, kk, part) == ("1", task, str(k), "anchor")
            assert all(c[1:4] == [task, str(k), "cand"] for c in cands)
            got.append((_ids(left), [_ids(c[4]) for c in cands], [c[0] for c in cands].index("1")))
        want = [(tuple(b.lefts[i]), [tuple(b.rights[j]) for j in b.cand_idx[i]], b.targets[i])
                for b in batches for i in range(len(b))]
        untouched = [left + cands[t] for left, cands, t in got]  # C splits contiguously
    assert got == want
    train = {tuple(s) for s in data.train}
    valid_only = {tuple(s) for s in data.valid} - train
    assert valid_only and not valid_only & set(untouched)
    assert set(untouched) <= train
    meta = json.loads((tmp_path / "ds.tsv.meta.json").read_text())
    assert (meta["written"], meta["skipped"]) == (len(want), len(data.train) - len(want))


def test_gen_refuses_a_corpus_epoch_0_cannot_train_on(tmp_path, capsys):
    # two-token sentences cannot have 3 tokens permuted; `train` refuses them too
    corpus = tmp_path / "short.txt"
    corpus.write_text("".join(" ".join(s[:2]) + "\n" for s in make_toy_corpus(60, seed=4)))
    assert run("gen", "--task", "P", "--k", "3", "--corpus", corpus,
               "--out", tmp_path / "p3.tsv") == 2
    assert capsys.readouterr().err == "data error: epoch 0: no training batches for ['P']\n"
    assert not list(tmp_path.glob("p3.tsv*"))


def test_gen_meta_records_config_hash(tmp_path):
    out = tmp_path / "ds.tsv"
    run("gen", "--task", "D", "--k", "1", "--seed", "5", "--toy-n", "60", "--out", out)
    meta = json.loads((tmp_path / "ds.tsv.meta.json").read_text())
    assert meta["config_sha256"] == config_sha256(meta["config"])
    assert meta["config"]["task"] == "D"
    assert meta["written"] > 0


def test_gen_rejects_mt_and_bad_k(tmp_path, capsys):
    assert run("gen", "--task", "MT", "--out", tmp_path / "x") == 1
    assert run("gen", "--task", "R", "--k", "99", "--toy-n", "50",
               "--out", tmp_path / "y") == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--max-epochs", "--valid-draws"])
def test_train_refuses_more_epochs_or_draws_than_a_task_has_streams(tmp_path, capsys, flag):
    assert run("train", "--task", "MT", flag, "257", "--toy-n", "50",
               "--out", tmp_path / "m.ckpt") == 1
    assert capsys.readouterr().err.startswith(f"error: {flag[2:].replace('-', '_')} must be <= 256")
    assert not (tmp_path / "m.ckpt.g1").exists()


@pytest.mark.parametrize("flag", [("--min-freq", "0"), ("--valid-fraction", "1.5"),
                                  ("--toy-n", "-5")])
def test_bad_corpus_setting_is_usage_error(tmp_path, capsys, flag):
    assert run("gen", "--task", "D", "--k", "1", "--toy-n", "50", *flag,
               "--out", tmp_path / "x") == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("argv", [("--threads", "2"), ("--deterministic",), ("--lr0", "0.5"),
                                  ("--gate-p", "0.3")])
def test_removed_knobs_are_unknown_flags(tmp_path, argv):
    assert run("train", "--task", "D", "--k", "1", "--toy-n", "50", *argv,
               "--out", tmp_path / "m.ckpt") == 1


# ---------------------------------------------------------------------------
# Config file handling and precedence
# ---------------------------------------------------------------------------


def test_unknown_config_key_rejected(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"task": "D", "nonsense_key": 1}))
    assert run("gen", "--config", cfg, "--out", tmp_path / "x") == 1


@pytest.mark.parametrize("entry", [
    {"hidden_size": "big"},
    {"hidden_size": 32.0},
    {"max_epochs": True},
    {"allow_custom_k": 1},
    {"lr0": "0.1"},
    {"gate_p": 0.5},
    {"l2_grid": 0.1},
    {"mlp_hidden": [50, "wide"]},
    {"probes": "SentLen"},
    {"threads": 1},
    {"corpus": 7},
    {"out": 5},
    {"metrics": 3},
    {"clip_norm": 5.0},
    {"epoch_decay": 0.99},
    {"probe_epochs": 40},
    {"seed": 1.9},
    {"seed": True},
])
def test_mistyped_or_removed_config_value_is_usage_error(tmp_path, capsys, entry):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(entry))
    assert run("train", "--config", cfg, "--out", tmp_path / "m.ckpt") == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_config_accepts_int_for_float_list_for_tuple_any_for_none(tmp_path):
    cfg = tmp_path / "cfg.json"
    entries = {"init_gain": 1, "probes": ["SentLen"], "corpus": None, "out": "x"}
    cfg.write_text(json.dumps(entries))
    assert load_run_config(str(cfg)) == {**CONFIG_DEFAULTS, **entries}


def test_invalid_config_json_is_data_error(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{broken")
    assert run("gen", "--config", cfg, "--out", tmp_path / "x") == 2


@settings(max_examples=100, deadline=None)
@given(st.one_of(
    st.binary(max_size=64),
    st.dictionaries(st.sampled_from(sorted(CONFIG_DEFAULTS) + ["bogus"]),
                    st.recursive(st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
                                 lambda inner: st.lists(inner, max_size=3), max_leaves=6),
                    max_size=4).map(lambda d: json.dumps(d).encode()),
))
def test_load_run_config_raises_only_package_errors(tmp_path_factory, blob):
    cfg = tmp_path_factory.mktemp("cfg") / "cfg.json"
    cfg.write_bytes(blob)
    try:
        load_run_config(str(cfg))
    except ConsSentError:
        pass


def test_flags_override_config_file(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"task": "D", "k": 1, "toy_n": 60}))
    out = tmp_path / "ds.tsv"
    assert run("gen", "--config", cfg, "--k", "2", "--out", out) == 0
    meta = json.loads((tmp_path / "ds.tsv.meta.json").read_text())
    assert meta["config"]["k"] == 2          # flag wins
    assert meta["config"]["task"] == "D"     # config survives where no flag


def test_gen_hash_ignores_keys_gen_does_not_read(tmp_path):
    hashes, out = [], tmp_path / "ds.tsv"   # one out path: it is part of the config
    for init_gain in (4.0, 6.0):
        cfg = tmp_path / f"cfg{init_gain}.json"
        cfg.write_text(json.dumps({"task": "R", "k": 2, "seed": 7, "toy_n": 60, "init_gain": init_gain}))
        assert run("gen", "--config", cfg, "--out", out) == 0
        assert sha256(out) == GEN_R2_SHA256
        hashes.append(json.loads((tmp_path / "ds.tsv.meta.json").read_text())["config_sha256"])
    assert hashes[0] == hashes[1]


def test_seed_precedence(tmp_path, monkeypatch):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 11, "toy_n": 60, "task": "D", "k": 1}))
    counter = iter(range(100))

    def gen_seed(*extra):
        out = tmp_path / f"s{next(counter)}.tsv"
        assert run("gen", "--out", out, *extra) == 0
        meta = json.loads((tmp_path / (out.name + ".meta.json")).read_text())
        return meta["config"]["seed"]

    monkeypatch.delenv("CONSSENT_SEED", raising=False)
    assert gen_seed("--task", "D", "--k", "1", "--toy-n", "60") == 0   # default
    monkeypatch.setenv("CONSSENT_SEED", "33")
    assert gen_seed("--task", "D", "--k", "1", "--toy-n", "60") == 0   # no env fallback
    assert gen_seed("--config", cfg) == 11                             # config beats default
    assert gen_seed("--config", cfg, "--seed", "44") == 44             # flag beats all


def test_config_string_seed_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": "3"}))
    assert run("gen", "--config", cfg, "--task", "D", "--k", "1", "--toy-n", "50",
               "--out", tmp_path / "x") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "seed='3'" in err


def test_unknown_flag_exits_one():
    assert run("gen", "--frobnicate") == 1


@pytest.mark.parametrize("exc, code, line", [
    (UsageError("bad flag"), 1, "error: bad flag"),
    (DataError("bad corpus"), 2, "data error: bad corpus"),
    (NumericError("nan"), 3, "numeric error: nan"),
    (WorkerPoolError("worker died"), 4, "worker error: worker died"),
    (ConsSentError("other"), 1, "error: other"),
    (NonFiniteGradient("inf grad"), 3, "numeric error: inf grad"),
    (NoCandidates("no token"), 2, "data error: no token"),
], ids=lambda v: type(v).__name__ if isinstance(v, Exception) else None)
def test_every_error_class_exits_through_main(monkeypatch, capsys, exc, code, line):
    def fail(config):
        raise exc
    monkeypatch.setitem(COMMANDS, "gen", (fail, *COMMANDS["gen"][1:]))
    assert run("gen") == code
    assert capsys.readouterr().err == line + "\n"


@pytest.mark.parametrize("argv", [
    ("gen", "--init-gain", "0.5", "--toy-n", "50", "--out", "{tmp}/x.tsv"),
    ("gradcheck", "--models", "1", "--out", "{tmp}/g.json"),
    ("sweep", "--k", "3", "--k-range", "1..1", "--toy-n", "50", *TINY),
    ("ensemble", "{manifest}", "--task", "R", "--corpus", "{corpus}", "--hidden-size", "4"),
])
def test_command_rejects_keys_it_does_not_read(tmp_path, r1_manifest, capsys, argv):
    manifest, corpus = r1_manifest
    argv = [a.format(tmp=tmp_path, manifest=manifest, corpus=corpus) for a in argv]
    assert run(*argv) == 1
    assert capsys.readouterr().err.startswith("error: unrecognized arguments: ")


def test_flags_are_the_commands_keys():
    flag_only = {"gen": [], "train": [], "probe": [], "sweep": ["--k-range"],
                 "ensemble": [], "gradcheck": ["--models", "--tolerance"]}
    subparsers = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    for name, parser in subparsers.choices.items():
        keys = COMMANDS[name][2]
        flags = [f for a in parser._actions if not isinstance(a, argparse._HelpAction)
                 for f in a.option_strings]
        assert sorted(flags) == sorted(["--config", *flag_only[name],
                                        *("--" + key.replace("_", "-") for key in keys)]), name
    assert sum(len(COMMANDS[name][2]) for name in COMMANDS) == 57


def test_readme_table_matches_command_keys():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    rows = dict(re.findall(r"^\| `(\w+)` \| ((?:`\w+` ?)+) \|$", readme, re.MULTILINE))
    assert {name: rows[name].split() for name in rows} == {
        name: [f"`{key}`" for key in keys] for name, (_cmd, _help, keys, _args) in COMMANDS.items()}


def test_defaults_documented():
    # every key must carry an inline comment in the source defaults block
    assert set(CONFIG_DEFAULTS) >= {"task", "k", "seed", "corpus", "out"}


def test_defaults_match_the_documented_literal():
    # the table the CLI documented before its defaults were derived from
    # TrainConfig, less the keys for the paper's fixed optimizer and probe
    # protocol, which are constants now
    assert load_run_config(None) == {
        "task": "R", "k": 2,
        "hidden_size": 32, "embed_dim": 64, "head_dim": 64, "init_gain": 4.0,
        "batch_size": 64, "max_epochs": 20, "valid_draws": 10,
        "corpus": None, "toy_n": 2000, "valid_fraction": 0.1, "min_freq": 1,
        "probes": ["SentLen", "WordContent", "BigramShift"],
        "probe_classifier": "logreg", "baseline": False,
        "seed": 0, "out": None, "metrics": None,
    }


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


def test_train_writes_checkpoint_metrics_meta(tmp_path, capsys):
    out = tmp_path / "m.ckpt"
    assert run("train", "--task", "R", "--k", "1", "--seed", "3",
               "--toy-n", "80", *TINY, "--out", out) == 0
    summary = json.loads(capsys.readouterr().out.strip().split("\n")[-1])
    assert summary["task"] == "R" and summary["checkpoint"] == str(out)
    assert out.exists()
    metrics = [json.loads(l) for l in (tmp_path / "m.ckpt.metrics.jsonl").read_text().splitlines()]
    assert all({"epoch", "task", "train_loss", "valid_acc", "lr", "skipped_steps"} <= set(m)
               for m in metrics)
    assert summary["skipped_steps"] == 0
    meta = json.loads((tmp_path / "m.ckpt.meta.json").read_text())
    assert meta["best_valid"] == summary["best_valid"]


def test_train_deterministic_bit_identical(tmp_path, capsys):
    args = ("train", "--task", "D", "--k", "1", "--seed", "5", "--toy-n", "80",
            *TINY)
    assert run(*args, "--out", tmp_path / "a.ckpt") == 0
    first = json.loads(capsys.readouterr().out.strip().split("\n")[-1])
    assert run(*args, "--out", tmp_path / "b.ckpt") == 0
    second = json.loads(capsys.readouterr().out.strip().split("\n")[-1])
    assert first["final_loss"] == second["final_loss"]
    assert first["best_valid"] == second["best_valid"]
    assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()
    assert sha256(tmp_path / "a.ckpt") == TRAIN_D1_SHA256
    for (task, k), digests in TRAIN_SHA256.items():
        out = tmp_path / f"{task}.ckpt"
        assert run("train", "--task", task, "--k", k, "--seed", "5", "--toy-n", "80",
                   *TINY, "--out", out) == 0
        suffixes = [".g1", ".g2"] if task == "MT" else [""]
        assert [sha256(tmp_path / f"{task}.ckpt{sfx}") for sfx in suffixes] == digests, task


def test_train_multitask_writes_two_checkpoints(tmp_path, capsys):
    out = tmp_path / "mt.ckpt"
    assert run("train", "--task", "MT", "--k", "2", "--seed", "0",
               "--toy-n", "80", *TINY, "--out", out) == 0
    summary = json.loads(capsys.readouterr().out.strip().split("\n")[-1])
    assert set(summary["member_accs"]) == {"D", "P", "I", "R", "N", "C"}
    assert "output_dim" not in summary   # no command reads the two encoders side by side
    data = prepare_corpus(make_toy_corpus(80, seed=0), seed=0)
    for group in ("g1", "g2"):
        params, meta = load_checkpoint(tmp_path / f"mt.ckpt.{group}")
        assert (meta["vocab_sha256"], meta["valid_sha256"]) == (data.vocab.sha256(), data.valid_sha256())
        assert encode_sentences(data.valid[:2], params).shape == (2, 2 * 4)   # H=4


# ---------------------------------------------------------------------------
# probe
# ---------------------------------------------------------------------------


@pytest.fixture()
def trained_ckpt(tmp_path, corpus_file):
    out = tmp_path / "probe_model.ckpt"
    assert run("train", "--task", "R", "--k", "1", "--seed", "3",
               "--corpus", corpus_file, *TINY, "--out", out) == 0
    return out


def test_probe_writes_results(tmp_path, corpus_file, trained_ckpt, capsys):
    out = tmp_path / "results"
    assert run("probe", trained_ckpt, "--corpus", corpus_file, "--seed", "3",
               "--out", out, "--probes", "SentLen", "BigramShift") == 0
    table = json.loads(capsys.readouterr().out.strip().split("\n")[-1])
    assert set(table) == {"SentLen", "BigramShift"}
    results = json.loads((tmp_path / "results.json").read_text())
    assert set(results) == {"SentLen/logreg", "BigramShift/logreg"}
    tsv = (tmp_path / "results.tsv").read_text()
    assert tsv.startswith("task\t")

    both = tmp_path / "both"
    assert run("probe", trained_ckpt, "--corpus", corpus_file, "--seed", "3",
               "--out", both, "--probes", "SentLen", "BigramShift",
               "--probe-classifier", "both", "--baseline") == 0
    assert json.loads(capsys.readouterr().out.strip().split("\n")[-1]) == PROBE_BOTH_TABLE
    assert sha256(tmp_path / "both.json") == PROBE_BOTH_JSON_SHA256
    assert sha256(tmp_path / "both.tsv") == PROBE_BOTH_TSV_SHA256


def test_probe_runs_on_a_corpus_with_a_two_token_line(tmp_path, capsys):
    # BigramShift, one of the default probes, drops what it cannot swap
    corpus = tmp_path / "short.txt"
    corpus.write_text("".join(" ".join(s) + "\n" for s in make_toy_corpus(400, seed=4)) + "hello there\n")
    ckpt = tmp_path / "m.ckpt"
    assert run("train", "--task", "R", "--k", "1", "--seed", "3", "--corpus", corpus, *TINY, "--out", ckpt) == 0
    assert run("probe", ckpt, "--corpus", corpus, "--seed", "3", "--out", tmp_path / "r") == 0
    assert "BigramShift" in json.loads(capsys.readouterr().out.strip().split("\n")[-1])


def test_one_config_file_serves_train_and_probe(tmp_path, corpus_file, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "task": "R", "k": 1, "seed": 3, "corpus": str(corpus_file), "hidden_size": 4,
        "embed_dim": 8, "head_dim": 8, "batch_size": 16, "max_epochs": 1, "valid_draws": 1,
        "probes": ["SentLen"], "probe_classifier": "logreg"}))
    ckpt = tmp_path / "m.ckpt"
    assert run("train", "--config", cfg, "--out", ckpt) == 0
    assert run("probe", ckpt, "--config", cfg, "--out", tmp_path / "r") == 0
    assert set(json.loads(capsys.readouterr().out.strip().split("\n")[-1])) == {"SentLen"}
    meta = json.loads((tmp_path / "r.meta.json").read_text())
    assert meta["config"] == {
        "seed": 3, "corpus": str(corpus_file), "toy_n": 2000, "valid_fraction": 0.1,
        "min_freq": 1, "out": str(tmp_path / "r"),
        "probes": ["SentLen"], "probe_classifier": "logreg", "baseline": False,
    }


def test_probe_vocab_mismatch_is_data_error(tmp_path, trained_ckpt):
    assert run("probe", trained_ckpt, "--toy-n", "300", "--seed", "9",
               "--out", tmp_path / "r") == 2


def test_probe_and_ensemble_reject_another_vocabulary_of_the_same_size(tmp_path, capsys):
    """The seed-1 and seed-2 toy corpora both have 154 vocabulary entries,
    but 142 ids map to different tokens; only the vocabulary hash in the
    checkpoint header tells them apart."""
    ckpt = tmp_path / "m.ckpt"
    assert run("train", "--task", "R", "--k", "1", "--seed", "1", "--toy-n", "2000",
               *TINY, "--out", ckpt) == 0
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"checkpoints": [str(ckpt)] * 2, "valid_scores": {"R": [0.5, 0.5]}}))
    capsys.readouterr()
    other = ("--toy-n", "2000", "--seed", "2")
    assert run("probe", ckpt, *other, "--probes", "SentLen", "--out", tmp_path / "r") == 2
    assert run("ensemble", manifest, "--task", "R", "--k", "1", *other) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and all(line.startswith("data error: ") and "vocab_sha256" in line
                                 for line in err)


def test_probe_rejects_a_checkpoint_without_a_vocabulary_hash(tmp_path, corpus_file, capsys):
    vocab = prepare_corpus(load_corpus_file(corpus_file)).vocab
    ckpt = tmp_path / "bare.ckpt"
    save_checkpoint(ckpt, init_params(vocab.size, 8, 4, seed=0))
    assert run("probe", ckpt, "--corpus", corpus_file, "--out", tmp_path / "r") == 2
    assert "vocab_sha256 None" in capsys.readouterr().err


@pytest.mark.parametrize("lines, message", [
    # one length: SentLen has no second class
    ([" ".join(f"w{(i + j) % 20}" for j in range(5)) for i in range(40)],
     "SentLen needs sentences of at least 2 lengths; the corpus has only lengths [5]"),
    # 10 token types: WordContent cannot skip 8 and take 6
    ([" ".join(f"w{(i + j) % 10}" for j in range(3 + i % 5)) for i in range(40)],
     "corpus has only 10 token types, WordContent needs 14"),
], ids=["one-length", "ten-types"])
def test_probe_on_a_corpus_without_a_default_probe_task_is_data_error(tmp_path, capsys, lines, message):
    corpus = tmp_path / "c.txt"
    corpus.write_text("\n".join(lines) + "\n")
    vocab = prepare_corpus(load_corpus_file(corpus)).vocab
    ckpt = tmp_path / "m.ckpt"
    save_checkpoint(ckpt, init_params(vocab.size, 8, 4, seed=0), {"vocab_sha256": vocab.sha256()})
    assert run("probe", ckpt, "--corpus", corpus, "--out", tmp_path / "r") == 2
    assert capsys.readouterr().err.splitlines()[-1] == f"data error: {message}"


def test_probe_missing_checkpoint_exits_one(tmp_path):
    assert run("probe", tmp_path / "nope.ckpt", "--toy-n", "60",
               "--out", tmp_path / "r") == 1


def test_probe_requires_out(tmp_path, corpus_file, trained_ckpt):
    assert run("probe", trained_ckpt, "--corpus", corpus_file) == 1


def test_probe_refuses_an_empty_probe_list(tmp_path, corpus_file, trained_ckpt, capsys):
    # `--probes` needs one name; a config file could give none
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"probes": []}))
    assert run("probe", trained_ckpt, "--config", cfg, "--corpus", corpus_file,
               "--out", tmp_path / "r") == 1
    assert "no probes given" in capsys.readouterr().err
    assert not list(tmp_path.glob("r.*"))


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def test_sweep_prints_one_row_per_k(tmp_path, capsys):
    out = tmp_path / "sweep.json"
    assert run("sweep", "--task", "D", "--k-range", "1..3", "--seed", "2",
               "--toy-n", "80", *TINY, "--out", out) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "task\tk\tbest_valid\tbest_epoch"
    rows = [l.split("\t") for l in lines[1:]]
    assert [r[1] for r in rows] == ["1", "2", "3"]
    saved = json.loads(out.read_text())
    assert [r["k"] for r in saved] == [1, 2, 3]


def test_sweep_prints_one_row_per_mt_group(tmp_path, capsys):
    out = tmp_path / "sweep.json"
    assert run("sweep", "--task", "MT", "--k-range", "2..2", "--seed", "2",
               "--toy-n", "80", *TINY, "--max-epochs", "4", "--out", out) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    data = prepare_corpus(make_toy_corpus(80, seed=2), min_freq=1, valid_fraction=0.1, seed=2)
    groups = train_multitask(TrainConfig(task="MT", k=2, hidden_size=4, embed_dim=8, head_dim=8,
                                         batch_size=16, max_epochs=4, valid_draws=1, seed=2), data)
    want = [{"task": f"MT/{name}", "k": 2, "best_valid": g.best_valid, "best_epoch": g.best_epoch}
            for name, g in zip(("group1", "group2"), groups)]
    assert json.loads(out.read_text()) == want
    assert lines[1:] == [f"{r['task']}\t2\t{r['best_valid']:.4f}\t{r['best_epoch']}" for r in want]


def test_sweep_defaults_to_the_tasks_k_range(tmp_path, capsys):
    out = tmp_path / "sweep.json"
    assert run("sweep", "--toy-n", "60", "--seed", "2", *TINY, "--out", out) == 0
    assert [r["k"] for r in json.loads(out.read_text())] == [1, 2, 3, 4, 5]   # R's range
    meta = json.loads((tmp_path / "sweep.json.meta.json").read_text())
    assert meta["config"]["task"] == "R" and "k" not in meta["config"]


def test_sweep_bad_range_exits_one(tmp_path, capsys):
    assert run("sweep", "--task", "D", "--k-range", "abc", "--toy-n", "60") == 1
    assert run("sweep", "--task", "D", "--k-range", "5..2", "--toy-n", "60") == 1
    # a bound past sys.maxsize: the range is walked, never sized, up to the first bad k
    capsys.readouterr()
    assert run("sweep", "--toy-n", "60", "--k-range", "1..10000000000000000000") == 1
    assert "task R needs k in 1..5, got 6" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# ensemble
# ---------------------------------------------------------------------------


def test_ensemble_cli_round_trip(tmp_path, corpus_file, capsys):
    scores = []
    for k in (1, 2):
        out = tmp_path / f"m{k}.ckpt"
        assert run("train", "--task", "R", "--k", k, "--seed", "9",
                   "--corpus", corpus_file, *TINY, "--out", out) == 0
        scores.append(json.loads(capsys.readouterr().out.strip().split("\n")[-1])["best_valid"])
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"checkpoints": [str(tmp_path / "m1.ckpt"), str(tmp_path / "m2.ckpt")],
                                    "valid_scores": {"R": scores}}))
    out = tmp_path / "report.json"
    assert run("ensemble", manifest, "--task", "R", "--k", "1",
               "--corpus", corpus_file, "--seed", "9", "--out", out) == 0
    report = json.loads(capsys.readouterr().out.strip().split("\n")[-1])
    assert len(report["members"]) == 2
    assert report["ensemble"] >= 0.0
    assert sum(report["weights"]) == pytest.approx(1.0)
    assert sha256(out) == ENSEMBLE_R1_SHA256


def test_ensemble_rejects_a_member_trained_on_another_split(tmp_path, corpus_file, capsys):
    """One corpus file gives every seed the same vocabulary, but the seed
    also draws the train/valid split: a --seed 1 member trained on part of
    the --seed 0 valid split, and only the valid-split hash shows it."""
    seed0, seed1 = (prepare_corpus(load_corpus_file(corpus_file), seed=s) for s in (0, 1))
    assert seed0.vocab == seed1.vocab and any(s in seed1.train for s in seed0.valid)
    ckpt, bare = tmp_path / "m.ckpt", tmp_path / "bare.ckpt"
    assert run("train", "--task", "R", "--k", "1", "--seed", "1", "--corpus", corpus_file,
               *TINY, "--out", ckpt) == 0
    manifest = tmp_path / "manifest.json"

    def ensemble(member, seed):
        manifest.write_text(json.dumps({"checkpoints": [str(member)] * 2,
                                        "valid_scores": {"R": [0.5, 0.5]}}))
        capsys.readouterr()
        code = run("ensemble", manifest, "--task", "R", "--k", "1", "--corpus", corpus_file,
                   "--seed", seed)
        return code, capsys.readouterr()

    code, captured = ensemble(ckpt, "0")
    assert code == 2 and not captured.out
    assert captured.err.startswith("data error: ")
    assert f"valid_sha256 {seed1.valid_sha256()} != this run's valid split {seed0.valid_sha256()}" in captured.err
    # a header without the hash is refused the same way; the member's own split passes
    save_checkpoint(bare, load_checkpoint(ckpt)[0], {"task": "R", "k": 1,
                                                     "vocab_sha256": seed1.vocab.sha256()})
    code, captured = ensemble(bare, "1")
    assert code == 2 and "valid_sha256 None" in captured.err
    assert ensemble(ckpt, "1")[0] == 0


def test_ensemble_rejects_ranking_tasks(tmp_path):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"checkpoints": ["a", "b"], "valid_scores": {"C": [0.5, 0.5]}}))
    assert run("ensemble", manifest, "--task", "C", "--k", "2", "--toy-n", "60") == 1


def test_ensemble_refuses_a_task_its_valid_split_cannot_supply(tmp_path, monkeypatch, capsys):
    """Four-token sentences cannot have 5 tokens permuted: bad data,
    reported before any member is encoded."""
    corpus = tmp_path / "four.txt"
    corpus.write_text("".join(" ".join(s[:4]) + "\n" for s in make_toy_corpus(120, seed=4)))
    ckpt = tmp_path / "p2.ckpt"
    assert run("train", "--task", "P", "--k", "2", "--seed", "1", "--corpus", corpus,
               *TINY, "--out", ckpt) == 0
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"checkpoints": [str(ckpt)] * 2,
                                    "valid_scores": {"P": [0.5, 0.5]}}))

    def never(*_args):
        raise AssertionError("ensemble encoded a member")
    monkeypatch.setattr("conssent.cli.head_probs", never)
    capsys.readouterr()
    assert run("ensemble", manifest, "--task", "P", "--k", "5", "--corpus", corpus,
               "--seed", "1") == 2
    captured = capsys.readouterr()
    assert captured.err == "data error: validation split yields no P(k=5) data\n"
    assert not captured.out


@pytest.fixture(scope="module")
def r1_manifest(tmp_path_factory):
    """A valid R(1) manifest and the corpus its one (twice-listed) member
    was trained on."""
    root = tmp_path_factory.mktemp("ens")
    corpus = root / "toy.txt"
    corpus.write_text("".join(" ".join(s) + "\n" for s in make_toy_corpus(120, seed=4)))
    ckpt = root / "m.ckpt"
    assert run("train", "--task", "R", "--k", "1", "--seed", "1", "--corpus", corpus,
               *TINY, "--out", ckpt) == 0
    manifest = root / "manifest.json"
    manifest.write_text(json.dumps({"checkpoints": [str(ckpt)] * 2,
                                    "valid_scores": {"R": [0.5, 0.5]}}))
    return manifest, corpus


@pytest.mark.parametrize("flag", [("--k", "99"), ("--k", "-1"), ("--k", "0"), ("--k", "7"),
                                  ("--valid-fraction", "1.5")])
def test_ensemble_rejects_settings_train_rejects(r1_manifest, capsys, flag):
    manifest, corpus = r1_manifest
    assert run("ensemble", manifest, "--task", "R", "--corpus", corpus, *flag) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and not captured.out


def test_ensemble_bad_manifest_is_data_error(tmp_path):
    manifest = tmp_path / "broken.json"
    for text in [
        "{oops",
        "[1, 2]",
        '{"checkpoints": ["a", "b"], "valid_scores": [0.5, 0.5]}',
        '{"checkpoints": ["a", "b"], "valid_scores": {"R": ["high", 0.5]}}',
        '{"checkpoints": ["a", "b"], "valid_scores": {"R": 0.5}}',
        '{"checkpoints": ["a", "b"], "valid_scores": {"R": [1%s, 0.5]}}' % ("0" * 400),
    ]:
        manifest.write_text(text)
        assert run("ensemble", manifest, "--task", "R", "--toy-n", "60") == 2, text


# ---------------------------------------------------------------------------
# IO boundary: undecodable text is a data error (2), an unusable path a
# usage error (1); neither is a traceback
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("argv", [
    ("train", "--corpus", "{bad}", *TINY),
    ("train", "--config", "{bad}", *TINY),
    ("ensemble", "{bad}", "--task", "R"),
])
def test_undecodable_input_is_data_error(tmp_path, capsys, argv):
    bad = tmp_path / "latin1.txt"
    bad.write_bytes("the caf\xe9 sat .\n".encode("latin-1"))
    argv = [str(a).format(bad=bad) for a in argv]
    assert run(*argv, "--toy-n", "60", "--out", tmp_path / "o") == 2
    assert capsys.readouterr().err.startswith("data error: ")


@pytest.mark.parametrize("argv", [
    ("train", "--corpus", "{dir}", "--out", "{dir}/m.ckpt"),
    ("gen", "--task", "D", "--k", "1", "--toy-n", "60", "--out", "{dir}"),
])
def test_directory_path_is_usage_error(tmp_path, capsys, argv):
    assert run(*[a.format(dir=tmp_path) for a in argv]) == 1
    assert capsys.readouterr().err.startswith("error: ")


# ---------------------------------------------------------------------------
# gradcheck
# ---------------------------------------------------------------------------


def test_gradcheck_passes_and_reports(capsys):
    assert run("gradcheck", "--models", "2", "--seed", "0") == 0
    out = json.loads(capsys.readouterr().out.strip().split("\n")[-1])
    assert out["max_rel_err"] < 1e-4


@pytest.mark.parametrize("argv", [("--models", "0"), ("--models", "-3", "--tolerance", "-1"),
                                  ("--tolerance", "nan"), ("--tolerance", "inf"),
                                  ("--tolerance", "0")])
def test_gradcheck_rejects_bad_counts_before_building_a_model(monkeypatch, capsys, argv):
    def never(**_kwargs):
        raise AssertionError("gradcheck built models")
    monkeypatch.setattr("conssent.cli.run_gradcheck", never)
    assert run("gradcheck", *argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and not captured.out


def test_gradcheck_impossible_tolerance_exits_three(capsys):
    assert run("gradcheck", "--models", "2", "--seed", "0",
               "--tolerance", "1e-18") == 3
