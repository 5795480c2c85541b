"""The float64 MLP probe fit, kept as a reference oracle for ``probes.fit_mlp``.

This is how ``fit_mlp`` was written before it trained in float32: every
array is float64 and each SGD step forms ``lr * grad`` as a new array. It
draws from ``rng`` in the same order as ``fit_mlp`` (init, then per epoch a
minibatch order and, with dropout, one uniform array per step), so from the
same generator state the two fits see the same minibatches and keep the same
hidden units.
"""

import numpy as np

from conssent.autodiff import softmax_rows, stable_sigmoid


def fit_mlp_float64(x, y, num_classes, hidden, dropout, rng, epochs, lr, batch_size):
    """Minibatch SGD on CE; dropout sits between sigmoid and classifier."""
    n, d = x.shape
    w1 = rng.uniform(-1 / np.sqrt(d), 1 / np.sqrt(d), size=(d, hidden))
    b1 = np.zeros(hidden)
    w2 = rng.uniform(-1 / np.sqrt(hidden), 1 / np.sqrt(hidden), size=(hidden, num_classes))
    b2 = np.zeros(num_classes)
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            idx = order[start : start + batch_size]
            xb, yb = x[idx], y[idx]
            h = stable_sigmoid(xb @ w1 + b1)
            if dropout > 0.0:
                mask = (rng.random(h.shape) >= dropout) / (1.0 - dropout)
                hd = h * mask
            else:
                mask = None
                hd = h
            probs = softmax_rows(hd @ w2 + b2)
            delta = probs
            delta[np.arange(len(idx)), yb] -= 1.0
            delta /= len(idx)
            g_w2 = hd.T @ delta
            g_b2 = delta.sum(axis=0)
            g_h = delta @ w2.T
            if mask is not None:
                g_h = g_h * mask
            g_z1 = g_h * h * (1.0 - h)
            g_w1 = xb.T @ g_z1
            g_b1 = g_z1.sum(axis=0)
            w2 -= lr * g_w2
            b2 -= lr * g_b2
            w1 -= lr * g_w1
            b1 -= lr * g_b1
    return w1, b1, w2, b2


def mlp_logits_float64(model, x):
    w1, b1, w2, b2 = model
    return stable_sigmoid(x @ w1 + b1) @ w2 + b2
