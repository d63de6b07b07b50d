import numpy as np
import pytest

from kpca_lab.classify import (
    LinearClassifier,
    error_rate,
    fit_linear,
    predict,
    predict_many,
)


def separable_blobs(rng, n_per=20, gap=4.0):
    a = rng.standard_normal((n_per, 2)) * 0.5 + [gap / 2.0, 0.0]
    b = rng.standard_normal((n_per, 2)) * 0.5 + [-gap / 2.0, 0.0]
    x = np.vstack([a, b])
    labels = np.concatenate([np.ones(n_per), -np.ones(n_per)])
    return x, labels


def test_symmetric_one_dimensional_case():
    x = np.array([[-1.0], [1.0]])
    labels = np.array([1, -1])
    clf = fit_linear(x, labels)
    assert clf.weights[0] < 0.0
    # bias ~ 0: the decision boundary sits at the origin
    assert abs(clf.weights[1]) <= 1e-8
    assert predict(clf, np.array([-0.5])) == 1
    assert predict(clf, np.array([0.5])) == -1


def test_separable_blobs_zero_training_error():
    rng = np.random.default_rng(40)
    x, labels = separable_blobs(rng)
    clf = fit_linear(x, labels)
    assert error_rate(clf, x, labels) == 0.0


def test_duplicated_columns_still_finite():
    rng = np.random.default_rng(41)
    x, labels = separable_blobs(rng, n_per=10)
    x_dup = np.hstack([x, x])
    clf = fit_linear(x_dup, labels)
    assert np.isfinite(clf.weights).all()
    assert error_rate(clf, x_dup, labels) == 0.0


def test_predict_sign_and_tie_rule():
    clf = LinearClassifier(weights=np.array([1.0, 0.0]))
    assert predict(clf, np.array([2.0])) == 1
    assert predict(clf, np.array([-2.0])) == -1
    assert predict(clf, np.array([0.0])) == 1  # exact zero -> +1


def test_batch_predict_matches_single():
    rng = np.random.default_rng(42)
    x, labels = separable_blobs(rng, n_per=8)
    clf = fit_linear(x, labels)
    batch = predict_many(clf, x)
    assert batch.tolist() == [predict(clf, row) for row in x]


def test_error_rate_perfect_and_inverted():
    rng = np.random.default_rng(43)
    x, labels = separable_blobs(rng, n_per=12)
    clf = fit_linear(x, labels)
    assert error_rate(clf, x, labels) == 0.0
    inverted = LinearClassifier(weights=-clf.weights)
    # No point sits exactly on the boundary, so flipping the classifier
    # flips every prediction.
    assert error_rate(inverted, x, labels) == 1.0


def test_error_rate_permutation_invariant():
    rng = np.random.default_rng(44)
    x, labels = separable_blobs(rng, n_per=9, gap=1.0)
    clf = fit_linear(x, labels)
    base = error_rate(clf, x, labels)
    perm = rng.permutation(x.shape[0])
    assert error_rate(clf, x[perm], labels[perm]) == base


def test_fit_invariant_to_dataset_duplication():
    rng = np.random.default_rng(45)
    x, labels = separable_blobs(rng, n_per=7, gap=1.5)
    w1 = fit_linear(x, labels).weights
    w2 = fit_linear(np.vstack([x, x]), np.concatenate([labels, labels])).weights
    assert np.abs(w1 - w2).max() <= 1e-8


def test_single_class_rejected():
    x = np.array([[0.0], [1.0]])
    with pytest.raises(ValueError):
        fit_linear(x, np.array([1, 1]))


def test_non_binary_labels_rejected():
    x = np.array([[0.0], [1.0]])
    with pytest.raises(ValueError):
        fit_linear(x, np.array([0, 1]))


def test_non_binary_labels_are_named():
    x = np.array([[0.0], [1.0], [2.0]])
    with pytest.raises(ValueError, match=r"^labels must be \+1 or -1, label 2 is 1\.5$"):
        fit_linear(x, np.array([1.0, -1.0, 1.5]))
    clf = fit_linear(x, np.array([1, -1, 1]))
    # 0/1 labels are scored against +/-1 predictions as errors, not compared.
    with pytest.raises(ValueError, match=r"^labels must be \+1 or -1, label 1 is 0\.0$"):
        error_rate(clf, x, np.array([1, 0, 1]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_feature_rows_are_named(bad):
    # solve() used to return NaN weights, and every prediction became -1.
    x = np.array([[0.0, 1.0], [1.0, 0.0], [2.0, bad], [3.0, 1.0]])
    labels = np.array([1, -1, 1, -1])
    with pytest.raises(ValueError, match="^feature row 2 has non-finite entries$"):
        fit_linear(x, labels)
    clf = fit_linear(x[[0, 1, 3]], labels[[0, 1, 3]])
    with pytest.raises(ValueError, match="^feature row 2 has non-finite entries$"):
        predict_many(clf, x)
    with pytest.raises(ValueError, match="^feature row 2 has non-finite entries$"):
        error_rate(clf, x, labels)


def test_predict_dimension_mismatch():
    clf = LinearClassifier(weights=np.array([1.0, -1.0, 0.0]))
    with pytest.raises(ValueError):
        predict(clf, np.array([1.0]))
