"""Minimal linear classifier: least squares on +/-1 targets with a bias term."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import _rows

# Ridge applied to the normal equations; absorbs near-collinear features.
_RIDGE = 1e-10


@dataclass(frozen=True)
class LinearClassifier:
    """Weight vector of length M+1; the last entry is the bias."""

    weights: np.ndarray


def _signs(labels: np.ndarray) -> np.ndarray:
    t = np.asarray(labels, dtype=float).ravel()
    bad = np.flatnonzero(~np.isin(t, (-1.0, 1.0)))
    if bad.size:
        raise ValueError(f"labels must be +1 or -1, label {bad[0]} is {t[bad[0]]}")
    return t


def fit_linear(features: np.ndarray, labels: np.ndarray) -> LinearClassifier:
    """Least-squares fit of [features, 1] . w ~ labels over finite rows and +/-1 labels."""
    t = _signs(labels)
    x = _rows(features, "feature")
    if x.shape[0] != t.shape[0]:
        raise ValueError(f"{x.shape[0]} rows vs {t.shape[0]} labels")
    if np.unique(t).size < 2:
        raise ValueError("both classes must be present")
    a = np.hstack([x, np.ones((x.shape[0], 1))])
    gram = a.T @ a + _RIDGE * np.eye(a.shape[1])
    w = np.linalg.solve(gram, a.T @ t)
    return LinearClassifier(weights=w)


def predict_many(clf: LinearClassifier, x: np.ndarray) -> np.ndarray:
    """Labels for the finite rows of a feature matrix; a score of exactly zero maps to +1."""
    x = _rows(x, "feature", clf.weights.shape[0] - 1)
    scores = x @ clf.weights[:-1] + clf.weights[-1]
    return np.where(scores >= 0.0, 1, -1)


def error_rate(clf: LinearClassifier, features: np.ndarray, labels: np.ndarray) -> float:
    """Fraction of rows whose predicted label differs from the given +/-1 one."""
    t = _signs(labels)
    pred = predict_many(clf, features)
    if t.shape[0] != pred.shape[0]:
        raise ValueError(f"{pred.shape[0]} rows vs {t.shape[0]} labels")
    return float(np.mean(pred != t))
