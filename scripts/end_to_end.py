#!/usr/bin/env python3
"""Desk-scale walkthrough: train encoders, probe them, ensemble them.

Runs in about 40 s (``--fast``: about 3 s) on a 2-vCPU host with one BLAS
thread, and prints a small report:

1. trains ConsSent-R(1) and ConsSent-P(2) encoders on the toy grammar,
2. probes the P(2) encoder (and an untrained twin) on BigramShift,
3. averages three R(1) seeds into an ensemble and compares members.

Usage: python3 scripts/end_to_end.py [--fast]
"""

import argparse
import sys
import time

import numpy as np

from conssent import ensemble as ens
from conssent import probes as pr
from conssent.corpus import prepare_corpus
from conssent.encoder import head_probs, init_params
from conssent.perturb import gen_single_examples
from conssent.rng import VALID
from conssent.toydata import make_toy_corpus
from conssent.train import TrainConfig, train_single_task


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--fast", action="store_true",
                    help="smaller corpus and fewer epochs (about 3 s instead of 40 s)")
    args = ap.parse_args()

    n, epochs, hidden = (600, 6, 16) if args.fast else (2400, 20, 32)
    corpus = make_toy_corpus(n, seed=0)
    data = prepare_corpus(corpus, valid_fraction=0.05, seed=0, min_freq=1)
    log(f"corpus: {n} sentences, vocab {data.vocab.size}")

    # 1. two single-task encoders
    t0 = time.time()
    cfg_r = TrainConfig(task="R", k=1, hidden_size=hidden, embed_dim=32,
                        batch_size=64, head_dim=512, init_gain=6.0,
                        valid_draws=10, max_epochs=epochs, seed=9)
    state_r = train_single_task(cfg_r, data, progress=log)
    log(f"R(1): best valid {state_r.best_valid:.3f} in {time.time()-t0:.0f}s")

    t0 = time.time()
    cfg_p = TrainConfig(task="P", k=2, hidden_size=hidden, embed_dim=32,
                        batch_size=64, head_dim=512, init_gain=6.0,
                        valid_draws=10, max_epochs=epochs, seed=0)
    state_p = train_single_task(cfg_p, data, progress=log)
    log(f"P(2): best valid {state_p.best_valid:.3f} in {time.time()-t0:.0f}s")

    # 2. BigramShift probe, trained vs untrained
    t0 = time.time()
    tasks = pr.build_probe_tasks(["BigramShift"], corpus, seed=0)
    twin = init_params(data.vocab.size, 32, hidden, seed=0)
    trained, untrained = (
        pr.probe_encoder(tasks, params, data.vocab, ("logreg",), pr.ProbeConfig())["BigramShift/logreg"]
        for params in (state_p.params, twin))
    log(f"probe done in {time.time()-t0:.0f}s")
    print(f"BigramShift  trained P(2): {trained.test_accuracy:.3f}   "
          f"untrained: {untrained.test_accuracy:.3f}   "
          f"gap: {trained.test_accuracy - untrained.test_accuracy:+.3f}")

    # 3. three-seed R(1) ensemble
    members = [state_r]
    for seed in (1, 2):
        cfg = TrainConfig(task="R", k=1, hidden_size=hidden, embed_dim=32,
                          batch_size=64, head_dim=512, init_gain=6.0,
                          valid_draws=10, max_epochs=epochs, seed=seed)
        members.append(train_single_task(cfg, data))
    examples, _ = gen_single_examples(data.valid, "R", 1, TrainConfig.gate_p, data.vocab,
                                      123, purpose=VALID)
    labels = np.array([ex.label for ex in examples])
    probs = [head_probs([ex.tokens for ex in examples], m.params, "R") for m in members]
    accs = [ens.ensemble_accuracy([p], (1.0,), labels) for p in probs]
    weights = ens.normalize_weights([m.best_valid for m in members])
    acc = ens.ensemble_accuracy(probs, weights, labels)
    print(f"R(1) members: {' '.join(f'{a:.3f}' for a in accs)}   "
          f"ensemble: {acc:.3f}")


if __name__ == "__main__":
    main()
