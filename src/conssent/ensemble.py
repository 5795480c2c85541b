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
import math
from pathlib import Path

import numpy as np

from .corpus import read_utf8
from .errors import DataError, UsageError


def normalize_weights(scores) -> tuple:
    """Proportional weights w_i = s_i / sum(s); scores must be >= 0."""
    scores = [float(s) for s in scores]
    if not scores:
        raise UsageError("no scores given")
    if any(s < 0 for s in scores):
        raise UsageError(f"negative validation score in {scores}")
    total = sum(scores)
    if total == 0.0:
        raise UsageError("all validation scores are zero")
    return tuple(s / total for s in scores)


def ensemble_accuracy(member_probs, weights, labels) -> float:
    """Accuracy of the argmax of the members' weighted average probabilities,
    one (N, classes) batch per member; ties resolve to the lowest class."""
    if len(member_probs) != len(weights):
        raise UsageError(f"{len(member_probs)} prob batches, {len(weights)} weights")
    arrays = [np.asarray(p, dtype=np.float64) for p in member_probs]
    shapes = {a.shape for a in arrays}
    if len(shapes) != 1:
        raise DataError(f"members emit different probability shapes: {sorted(shapes)}")
    avg = np.zeros_like(arrays[0])
    for w, p in zip(weights, arrays):
        avg += w * p
    # np.argmax takes the first maximum
    return float(np.mean(np.argmax(avg, axis=-1) == np.asarray(labels)))


# ---------------------------------------------------------------------------
# Manifest serialization
# ---------------------------------------------------------------------------


def _is_number(x) -> bool:
    """A JSON number: not a boolean, NaN or an infinity."""
    return isinstance(x, int) and not isinstance(x, bool) or isinstance(x, float) and math.isfinite(x)


def read_manifest(path: str | Path) -> tuple[tuple, dict]:
    """(checkpoint paths, task -> normalized weights) from a manifest file."""
    try:
        payload = json.loads(read_utf8(path))
    except (ValueError, RecursionError) as exc:  # bad JSON, too deep or too long a number
        raise DataError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(payload, dict):
        raise DataError(f"{path}: manifest is not a JSON object")
    missing = {"checkpoints", "valid_scores"} - payload.keys()
    if missing:
        raise DataError(f"{path}: manifest lacks {sorted(missing)}")
    checkpoints, scores = payload["checkpoints"], payload["valid_scores"]
    stored = {} if payload.get("weights") is None else payload["weights"]
    if not isinstance(checkpoints, list) or not all(isinstance(p, str) for p in checkpoints):
        raise DataError(f"{path}: checkpoints must be a list of path strings")
    if not isinstance(scores, dict) or not isinstance(stored, dict):
        raise DataError(f"{path}: valid_scores and weights must map tasks to lists")
    if not all(isinstance(sc, list) and all(map(_is_number, sc)) for sc in scores.values()):
        raise DataError(f"{path}: each task's valid_scores must be a list of numbers")
    try:
        scores = {task: [float(s) for s in sc] for task, sc in scores.items()}
        if len(checkpoints) < 2:
            raise UsageError("an ensemble needs at least 2 members")
        for task, sc in scores.items():
            if len(sc) != len(checkpoints):
                raise UsageError(f"task {task!r} has {len(sc)} scores for {len(checkpoints)} members")
        weights = {task: normalize_weights(sc) for task, sc in scores.items()}
        for task, w in stored.items():
            want = weights.get(task, ())
            if len(w) != len(want) or np.max(np.abs(np.array(w) - np.array(want))) > 1e-9:
                raise DataError(f"{path}: stored weights for {task!r} disagree with scores")
    except (TypeError, ValueError, OverflowError) as exc:
        raise DataError(f"{path}: malformed manifest: {exc}") from exc
    return tuple(checkpoints), weights
