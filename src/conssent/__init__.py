"""Sentence encoders trained to tell real token sequences from perturbed ones.

The package root exports nothing; import each name from its module:

- ``errors``   exception hierarchy mapped to exit codes
- ``rng``      deterministic keyed random streams (PCG32)
- ``autodiff`` minimal reverse-mode tape over numpy arrays
- ``corpus``   tokenization, vocabulary, train/valid splits
- ``perturb``  consistency-breaking sentence transformations and datasets
- ``toydata``  a small synthetic grammar for desk-scale experiments
- ``encoder``  BiLSTM with max pooling plus classifier heads
- ``train``    losses, SGD with clipping/schedule, single- and multitask loops
- ``parallel`` an ordered map over spawned worker processes
- ``probes``   frozen-encoder probing tasks and classifiers
- ``ensemble`` probability-level model averaging
- ``cli``      command-line entry points (``conssent ...``)
"""
