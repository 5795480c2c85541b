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
from conssent.encoder import init_params, load_checkpoint, save_checkpoint
from conssent.errors import ConsSentError
from conssent.toydata import make_toy_corpus
from conssent.train import TrainConfig, train_multitask

TINY = ["--hidden-size", "4", "--embed-dim", "8", "--head-dim", "8",
        "--batch-size", "16", "--max-epochs", "1", "--valid-draws", "1"]


# sha256 of artifacts written by the commit before the settings, loss and
# head-probability code was consolidated; that change kept these bytes.
GEN_R2_SHA256 = "8b8595786b386604e676a25a04e15c75d0b4c8cb0b0f537df37a390acc2d7133"
ENSEMBLE_R1_SHA256 = "d2498548a123653a85fdb355f270bc7c41eab0061e5ae425bfd6a0a8ca6370ba"

# sha256 of each checkpoint a tiny `train` run writes, keyed by (task, k).
# Recorded when checkpoint headers gained `vocab_sha256`; the float32
# payload after each header is byte-identical to the one the batch loss,
# pair batch, parameter layout and probe grid search consolidation kept.
TRAIN_D1_SHA256 = "e82ed6135d2aaf94d8bff3c393b137e4ba47f8cec743af18e0982c4016e1ae03"
TRAIN_SHA256 = {
    ("P", 2): ["9122286b607b686dd380b255aa90d56e08ef7ef8b7eed5c9e89be051b3410e11"],
    ("I", 2): ["7661b41e4c65ec5d906a1be76502290ec9fdb352e0da6a567896c032677ccfeb"],
    ("R", 1): ["79549c0804afb846dfa3728f6a9b2e9229a1d7403d14c84840beae5ecea9d8ed"],
    ("C", 2): ["68b2a51b95aebca77c722051edf8a1edff8135af71d02ed5006926530299f354"],
    ("N", 3): ["41933fefd60f33d5d521d448ea035267be591f0f4d508b505ed9b1532fbfabf3"],
    ("MT", 2): ["b563016ca6e64d11b5d7b13a60105f4bde63f1713ac65a2692a6aec230f0cf19",
                "7721e525ae9bc049370a7ee4309dc4b7db0c1bd0b5f188d2440a7c59cc34a964"],
}
# `probe --probe-classifier both --baseline` on SentLen and BigramShift
PROBE_BOTH_JSON_SHA256 = "1e092a5401924f657d38e489d940adc9dad61c14889cab6020a4ea952f5aef0c"
PROBE_BOTH_TSV_SHA256 = "f030477b0413c361d11be612f49e637a1b2ad8f32f06d385d5ee55fffda952d0"
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
    assert lines[0].split("\t")[4] == "anchor"
    assert len(lines) % 4 == 0


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


@pytest.mark.parametrize("flag", [("--min-freq", "0"), ("--valid-fraction", "1.5"),
                                  ("--toy-n", "-5")])
def test_bad_corpus_setting_is_usage_error(tmp_path, capsys, flag):
    assert run("gen", "--task", "D", "--k", "1", "--toy-n", "50", *flag,
               "--out", tmp_path / "x") == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("argv", [("--threads", "2"), ("--deterministic",)])
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
])
def test_mistyped_or_removed_config_value_is_usage_error(tmp_path, capsys, entry):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(entry))
    assert run("train", "--config", cfg, "--out", tmp_path / "m.ckpt") == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_config_accepts_int_for_float_list_for_tuple_any_for_none(tmp_path):
    cfg = tmp_path / "cfg.json"
    entries = {"lr0": 1, "probes": ["SentLen"], "corpus": None, "out": "x", "seed": "3"}
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
    for lr0 in (0.1, 0.5):
        cfg = tmp_path / f"cfg{lr0}.json"
        cfg.write_text(json.dumps({"task": "R", "k": 2, "seed": 7, "toy_n": 60, "lr0": lr0}))
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
    assert gen_seed("--task", "D", "--k", "1", "--toy-n", "60") == 0   # fallback
    monkeypatch.setenv("CONSSENT_SEED", "33")
    assert gen_seed("--task", "D", "--k", "1", "--toy-n", "60") == 33  # env
    assert gen_seed("--config", cfg) == 11                             # config beats env
    assert gen_seed("--config", cfg, "--seed", "44") == 44             # flag beats all


def test_bad_env_seed_is_usage_error(tmp_path, monkeypatch):
    monkeypatch.setenv("CONSSENT_SEED", "not-a-number")
    assert run("gen", "--task", "D", "--k", "1", "--toy-n", "50",
               "--out", tmp_path / "x") == 1


def test_unknown_flag_exits_one():
    assert run("gen", "--frobnicate") == 1


@pytest.mark.parametrize("argv", [
    ("gen", "--lr0", "0.5", "--toy-n", "50", "--out", "{tmp}/x.tsv"),
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
    assert sum(len(COMMANDS[name][2]) for name in COMMANDS) == 63


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
        "task": "R", "k": 2, "gate_p": 0.5,
        "hidden_size": 32, "embed_dim": 64, "head_dim": 64, "init_gain": 4.0,
        "batch_size": 64, "lr0": 0.1, "max_epochs": 20, "valid_draws": 10,
        "corpus": None, "toy_n": 2000, "valid_fraction": 0.1, "min_freq": 1,
        "probes": ["SentLen", "WordContent", "BigramShift"],
        "probe_classifier": "logreg", "baseline": False,
        "seed": None, "out": None, "metrics": None,
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
    assert summary["output_dim"] == 4 * 4   # 2H1 + 2H2 with H=4
    vocab = prepare_corpus(make_toy_corpus(80, seed=0), seed=0).vocab
    for group in ("g1", "g2"):
        assert load_checkpoint(tmp_path / f"mt.ckpt.{group}")[1]["vocab_sha256"] == vocab.sha256()


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


def test_probe_missing_checkpoint_exits_one(tmp_path):
    assert run("probe", tmp_path / "nope.ckpt", "--toy-n", "60",
               "--out", tmp_path / "r") == 1


def test_probe_requires_out(tmp_path, corpus_file, trained_ckpt):
    assert run("probe", trained_ckpt, "--corpus", corpus_file) == 1


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
    state = train_multitask(TrainConfig(task="MT", k=2, hidden_size=4, embed_dim=8, head_dim=8,
                                        batch_size=16, max_epochs=4, valid_draws=1, seed=2), data)
    want = [{"task": f"MT/{name}", "k": 2, "best_valid": g.best_valid, "best_epoch": g.best_epoch}
            for name, g in (("group1", state.group1), ("group2", state.group2))]
    assert json.loads(out.read_text()) == want
    assert lines[1:] == [f"{r['task']}\t2\t{r['best_valid']:.4f}\t{r['best_epoch']}" for r in want]


def test_sweep_defaults_to_the_tasks_k_range(tmp_path, capsys):
    out = tmp_path / "sweep.json"
    assert run("sweep", "--toy-n", "60", "--seed", "2", *TINY, "--out", out) == 0
    assert [r["k"] for r in json.loads(out.read_text())] == [1, 2, 3, 4, 5]   # R's range
    meta = json.loads((tmp_path / "sweep.json.meta.json").read_text())
    assert meta["config"]["task"] == "R" and "k" not in meta["config"]


def test_sweep_bad_range_exits_one(tmp_path):
    assert run("sweep", "--task", "D", "--k-range", "abc", "--toy-n", "60") == 1
    assert run("sweep", "--task", "D", "--k-range", "5..2", "--toy-n", "60") == 1


# ---------------------------------------------------------------------------
# ensemble
# ---------------------------------------------------------------------------


def test_ensemble_cli_round_trip(tmp_path, corpus_file, capsys):
    scores = []
    for seed in (1, 2):
        out = tmp_path / f"m{seed}.ckpt"
        assert run("train", "--task", "R", "--k", "1", "--seed", seed,
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


def test_ensemble_rejects_ranking_tasks(tmp_path):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"checkpoints": ["a", "b"], "valid_scores": {"C": [0.5, 0.5]}}))
    assert run("ensemble", manifest, "--task", "C", "--k", "2", "--toy-n", "60") == 1


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
                                  ("--gate-p", "2.0")])
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
