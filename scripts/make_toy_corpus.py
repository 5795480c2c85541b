#!/usr/bin/env python3
"""Write the synthetic toy corpus to a text file, one sentence per line.

Training ensembles from the command line needs members that share a
vocabulary, so the corpus must live in a file rather than be regenerated
from each member's seed. The seed also draws the train/valid split, so
every member and the ensemble run take one ``--seed``, and the members
differ in ``k`` (or widths) instead; each score in the manifest is the
``best_valid`` its member's ``train`` printed:

    python3 scripts/make_toy_corpus.py --n 2400 --seed 0 --out toy.txt
    conssent train --corpus toy.txt --task R --k 1 --seed 9 --out m1.ckpt
    conssent train --corpus toy.txt --task R --k 2 --seed 9 --out m2.ckpt
    echo '{"checkpoints": ["m1.ckpt", "m2.ckpt"], "valid_scores": {"R": [0.95, 0.9]}}' > members.json
    conssent ensemble members.json --corpus toy.txt --task R --k 1 --seed 9
"""

import argparse

from conssent.cli import CONFIG_DEFAULTS
from conssent.toydata import make_toy_corpus


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--n", type=int, default=CONFIG_DEFAULTS["toy_n"], help="number of sentences")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default="toy.txt")
    args = ap.parse_args()
    with open(args.out, "w", encoding="utf-8") as fh:
        for sentence in make_toy_corpus(args.n, seed=args.seed):
            fh.write(" ".join(sentence) + "\n")
    print(f"wrote {args.n} sentences to {args.out}")


if __name__ == "__main__":
    main()
