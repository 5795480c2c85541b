"""Probability-level ensembling of independently trained encoders.

Members are checkpoints of the same architecture family trained with
different seeds (or tasks). Each member contributes a probability vector
per input; the ensemble prediction is the argmax of the weighted average.
Weights are derived from per-task validation scores by normalization, so
a member that validated better speaks louder, and weights can differ per
downstream task.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import read_utf8
from .errors import DataError, UsageError


class AllZero(UsageError):
    """Every validation score is zero; weights would be undefined."""


class ArityMismatch(DataError):
    """Members disagree on the number of classes."""


def normalize_weights(scores) -> tuple:
    """Proportional weights w_i = s_i / sum(s); scores must be >= 0."""
    scores = [float(s) for s in scores]
    if not scores:
        raise UsageError("no scores given")
    if any(s < 0 for s in scores):
        raise UsageError(f"negative validation score in {scores}")
    total = sum(scores)
    if total == 0.0:
        raise AllZero("all validation scores are zero")
    return tuple(s / total for s in scores)


@dataclass(frozen=True)
class EnsembleSpec:
    """Checkpoint paths plus per-task validation scores, one per member."""

    checkpoints: tuple            # paths, length >= 2
    valid_scores: dict            # task name -> tuple of scores, one per member

    def __post_init__(self):
        if len(self.checkpoints) < 2:
            raise UsageError("an ensemble needs at least 2 members")
        for task, scores in self.valid_scores.items():
            if len(scores) != len(self.checkpoints):
                raise UsageError(
                    f"task {task!r} has {len(scores)} scores for "
                    f"{len(self.checkpoints)} members"
                )
            normalize_weights(scores)

    @property
    def weights(self) -> dict:
        """Task name -> normalized weights derived from the scores."""
        return {t: normalize_weights(sc) for t, sc in self.valid_scores.items()}


def make_ensemble_spec(checkpoints, valid_scores: dict) -> EnsembleSpec:
    return EnsembleSpec(
        checkpoints=tuple(str(p) for p in checkpoints),
        valid_scores={t: tuple(float(s) for s in sc) for t, sc in valid_scores.items()},
    )


def ensemble_probs(member_probs, weights) -> np.ndarray:
    """Weighted average of per-member probability vectors (or batches)."""
    if len(member_probs) != len(weights):
        raise UsageError(f"{len(member_probs)} prob vectors, {len(weights)} weights")
    arrays = [np.asarray(p, dtype=np.float64) for p in member_probs]
    arities = {a.shape[-1] for a in arrays}
    if len(arities) != 1:
        raise ArityMismatch(f"members emit different class counts: {sorted(arities)}")
    shapes = {a.shape for a in arrays}
    if len(shapes) != 1:
        raise ArityMismatch(f"members emit different batch shapes: {sorted(shapes)}")
    out = np.zeros_like(arrays[0])
    for w, p in zip(weights, arrays):
        out += w * p
    return out


def ensemble_predict(member_probs, weights):
    """Argmax of the weighted average; ties resolve to the lowest class."""
    avg = ensemble_probs(member_probs, weights)
    pred = np.argmax(avg, axis=-1)   # np.argmax takes the first maximum
    return int(pred) if avg.ndim == 1 else pred


def ensemble_accuracy(member_prob_batches, weights, labels) -> float:
    preds = ensemble_predict(member_prob_batches, weights)
    return float(np.mean(np.asarray(preds) == np.asarray(labels)))


# ---------------------------------------------------------------------------
# Manifest serialization
# ---------------------------------------------------------------------------


def read_manifest(path: str | Path) -> EnsembleSpec:
    try:
        payload = json.loads(read_utf8(path))
    except (ValueError, RecursionError) as exc:  # bad JSON, too deep or too long a number
        raise DataError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(payload, dict):
        raise DataError(f"{path}: manifest is not a JSON object")
    missing = {"checkpoints", "valid_scores"} - payload.keys()
    if missing:
        raise DataError(f"{path}: manifest lacks {sorted(missing)}")
    stored = {} if payload.get("weights") is None else payload["weights"]
    if not isinstance(payload["valid_scores"], dict) or not isinstance(stored, dict):
        raise DataError(f"{path}: valid_scores and weights must map tasks to lists")
    try:
        spec = make_ensemble_spec(payload["checkpoints"], payload["valid_scores"])
        derived = spec.weights
        for task, w in stored.items():
            want = derived.get(task, ())
            if len(w) != len(want) or np.max(np.abs(np.array(w) - np.array(want))) > 1e-9:
                raise DataError(
                    f"{path}: stored weights for {task!r} disagree with scores"
                )
    except (TypeError, ValueError, OverflowError) as exc:
        raise DataError(f"{path}: malformed manifest: {exc}") from exc
    return spec
