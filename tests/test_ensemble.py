"""Ensembling: weight normalization, weighted-vote accuracy, manifests."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conssent import ensemble as E
from conssent.errors import ConsSentError, DataError, UsageError


# ---------------------------------------------------------------------------
# normalize_weights
# ---------------------------------------------------------------------------


def test_normalize_frozen_example():
    w = E.normalize_weights((0.8, 0.6))
    assert w == pytest.approx((0.8 / 1.4, 0.6 / 1.4), abs=1e-15)
    assert w[0] == pytest.approx(0.5714285714285715)
    assert w[1] == pytest.approx(0.42857142857142855)


def test_normalize_degenerate_keeps_single_winner():
    assert E.normalize_weights((1.0, 0.0)) == (1.0, 0.0)


def test_normalize_sums_to_one():
    w = E.normalize_weights((0.3, 0.3, 0.4))
    assert sum(w) == pytest.approx(1.0, abs=1e-15)
    assert w == pytest.approx((0.3, 0.3, 0.4))


def test_normalize_rejects_bad_input():
    with pytest.raises(UsageError, match="all validation scores are zero"):
        E.normalize_weights((0.0, 0.0))
    with pytest.raises(UsageError):
        E.normalize_weights((-0.1, 0.5))
    with pytest.raises(UsageError):
        E.normalize_weights(())


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=8)
       .filter(lambda s: sum(s) > 1e-9))
def test_normalize_property(scores):
    w = E.normalize_weights(scores)
    assert all(x >= 0 for x in w)
    assert sum(w) == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# ensemble_accuracy: passing the expected predictions as labels, accuracy
# is 1.0 exactly when every prediction equals its label
# ---------------------------------------------------------------------------


def test_degenerate_weights_reproduce_single_member():
    rng = np.random.default_rng(0)
    probs = [rng.dirichlet(np.ones(4), size=20) for _ in range(3)]
    assert E.ensemble_accuracy(probs, (1.0, 0.0, 0.0), np.argmax(probs[0], axis=1)) == 1.0


def test_agreement_wins():
    a = np.array([[0.1, 0.9]])
    b = np.array([[0.2, 0.8]])
    assert E.ensemble_accuracy([a, b], (0.5, 0.5), [1]) == 1.0


def test_tie_breaks_to_lowest_class():
    a = np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5]])
    assert E.ensemble_accuracy([a, a], (0.5, 0.5), [0, 1]) == 1.0


def test_member_permutation_invariance():
    rng = np.random.default_rng(2)
    probs = [rng.dirichlet(np.ones(3), size=25) for _ in range(3)]
    scores = (0.9, 0.6, 0.75)
    avg = sum(w * p for w, p in zip(E.normalize_weights(scores), probs))
    perm = [2, 0, 1]
    acc = E.ensemble_accuracy([probs[i] for i in perm],
                              E.normalize_weights([scores[i] for i in perm]),
                              np.argmax(avg, axis=1))
    assert acc == 1.0


def test_arity_mismatch_raises():
    # a shape mismatch is bad data (exit 2), whether in classes or in rows
    for other in (np.array([[0.3, 0.3, 0.4]]), np.array([[0.5, 0.5], [0.5, 0.5]])):
        with pytest.raises(DataError):
            E.ensemble_accuracy([np.array([[0.5, 0.5]]), other], (0.5, 0.5), [0])


def test_weight_count_mismatch_raises():
    with pytest.raises(UsageError):
        E.ensemble_accuracy([np.array([[0.5, 0.5]])], (0.5, 0.5), [0])


def test_ensemble_accuracy():
    # two confident-but-sometimes-wrong members; ensemble accuracy is the
    # fraction where the weighted vote lands on the true label
    labels = np.array([0, 1, 0, 1])
    m1 = np.array([[0.9, 0.1], [0.2, 0.8], [0.4, 0.6], [0.1, 0.9]])
    m2 = np.array([[0.8, 0.2], [0.3, 0.7], [0.9, 0.1], [0.6, 0.4]])
    acc = E.ensemble_accuracy([m1, m2], (0.5, 0.5), labels)
    avg = 0.5 * m1 + 0.5 * m2
    assert acc == float(np.mean(np.argmax(avg, axis=1) == labels))


# ---------------------------------------------------------------------------
# Manifests
# ---------------------------------------------------------------------------


def _manifest(tmp_path, checkpoints, valid_scores, **extra):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"checkpoints": checkpoints, "valid_scores": valid_scores, **extra}))
    return path


def test_spec_requires_two_members(tmp_path):
    with pytest.raises(UsageError):
        E.read_manifest(_manifest(tmp_path, ["only.ckpt"], {"t": [1.0]}))


def test_spec_score_arity_checked(tmp_path):
    with pytest.raises(UsageError):
        E.read_manifest(_manifest(tmp_path, ["a.ckpt", "b.ckpt"], {"t": [1.0, 0.5, 0.2]}))


def test_spec_weights_derived_per_task(tmp_path):
    _, weights = E.read_manifest(_manifest(tmp_path, ["a.ckpt", "b.ckpt"],
                                           {"task1": [0.8, 0.6], "task2": [0.5, 0.5]}))
    assert weights["task1"] == pytest.approx((0.8 / 1.4, 0.6 / 1.4))
    assert weights["task2"] == (0.5, 0.5)


def test_spec_validates_scores_at_construction(tmp_path):
    with pytest.raises(UsageError, match="all validation scores are zero"):
        E.read_manifest(_manifest(tmp_path, ["a", "b"], {"t": [0.0, 0.0]}))
    with pytest.raises(UsageError):
        E.read_manifest(_manifest(tmp_path, ["a", "b"], {"t": [-1.0, 2.0]}))


def test_manifest_round_trip(tmp_path):
    checkpoints, scores = ["m1.ckpt", "m2.ckpt", "m3.ckpt"], {"probe": [0.9, 0.85, 0.8]}
    want = {"probe": E.normalize_weights(scores["probe"])}
    back = E.read_manifest(_manifest(tmp_path, checkpoints, scores,
                                     weights={t: list(w) for t, w in want.items()}))
    assert back == (tuple(checkpoints), want)


def test_manifest_rejects_garbage(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(DataError):
        E.read_manifest(path)
    path.write_text("{\"checkpoints\": [\"a\", \"b\"]}")
    with pytest.raises(DataError):
        E.read_manifest(path)
    # checkpoints are a list of strings, and scores lists of finite numbers
    for checkpoints, scores in [("ab", [1, 2]), (["a", 1], [1, 2]), (["a", "b"], "12"),
                                (["a", "b"], [True, 1]), (["a", "b"], ["1", 2]),
                                (["a", "b"], {"1": 0, "2": 0}), (["a", "b"], [float("nan"), 1]),
                                (["a", "b"], [float("inf"), 1])]:
        with pytest.raises(DataError):
            E.read_manifest(_manifest(tmp_path, checkpoints, {"R": scores}))


def test_manifest_rejects_inconsistent_weights(tmp_path):
    for weights in (
        {"t": [0.9, 0.1]},          # disagrees with the scores
        {"t": [0.5, 0.25, 0.25]},   # one weight too many
        {"u": [0.5, 0.5]},          # a task without scores
    ):
        payload = {
            "checkpoints": ["a", "b"],
            "valid_scores": {"t": [0.8, 0.6]},
            "weights": weights,
        }
        path = tmp_path / "tampered.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(DataError):
            E.read_manifest(path)


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-(10**400), 10**400) | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=2), inner, max_size=3),
    max_leaves=8,
)


@settings(max_examples=150, deadline=None)
@given(st.one_of(
    st.binary(max_size=64),
    st.fixed_dictionaries({"checkpoints": _JSON, "valid_scores": _JSON},
                          optional={"weights": _JSON}).map(lambda d: json.dumps(d).encode()),
    st.fixed_dictionaries({"checkpoints": st.just(["a", "b"]),
                           "valid_scores": st.dictionaries(st.just("t"), _JSON)},
                          optional={"weights": st.dictionaries(st.just("t"), _JSON)})
    .map(lambda d: json.dumps(d).encode()),
))
def test_read_manifest_raises_only_package_errors(tmp_path_factory, blob):
    path = tmp_path_factory.mktemp("manifest") / "m.json"
    path.write_bytes(blob)
    try:
        E.read_manifest(path)
    except ConsSentError:
        pass
