"""Synthetic data generation and CSV ingestion."""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from ..attacks.trace import format_float, write_csv
from ..bayes.data import Dataset


def gen_synthetic(n, beta, sigma2, rng, mode="independent", mixing=None):
    """Gaussian linear data: covariates standard normal (optionally mixed), then
    ``y = X beta + noise`` with noise variance ``sigma2``.

    ``mode='correlated'`` draws ``Z`` standard normal and sets ``X = Z A`` for
    the mixing matrix ``A``, so the covariate covariance is ``A^T A``.
    """
    beta = np.asarray(beta, dtype=float)
    p = beta.size
    Z = rng.standard_normal((int(n), p))
    if mode == "independent":
        X = Z
    elif mode == "correlated":
        A = np.asarray(mixing, dtype=float)
        if A.shape != (p, p):
            raise ValueError("mixing matrix must be (p, p)")
        X = Z @ A
    else:
        raise ValueError("mode must be 'independent' or 'correlated'")
    y = X @ beta + np.sqrt(sigma2) * rng.standard_normal(int(n))
    return Dataset(X=X, y=y)


def write_dataset_csv(dataset: Dataset, path):
    """Write a dataset as CSV with the header ``x_0..x_{p-1}, y``."""
    write_csv(path, ["x_%d" % j for j in range(dataset.p)] + ["y"],
              ([format_float(v) for v in dataset.X[i]] + [format_float(dataset.y[i])]
               for i in range(dataset.n)))


@dataclass(frozen=True)
class LoadedData:
    """Train/test split from a CSV, with any standardisation stats used."""

    train: Dataset
    test: Dataset
    covariates: tuple
    response: str
    center: np.ndarray = None
    scale: np.ndarray = None


def load_dataset(path, response, split=0.7, standardize=False, rng=None) -> LoadedData:
    """Read a numeric CSV with a header row and split it into train/test.

    Parameters
    ----------
    path : str
    response : str
        Name of the response column; the remaining columns are covariates.
    split : float
        Fraction of rows assigned to the training split after a deterministic
        shuffle (pass ``rng`` for reproducibility; no shuffle without one).
    standardize : bool
        z-score the covariate columns using training-split statistics, applied
        to both splits.  The response is left in original units.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError("CSV file %s is empty" % path) from None
        rows = list(reader)
    header = [h.strip() for h in header]
    if response not in header:
        raise ValueError("response column %r not found; columns are %s" % (response, header))
    if len(set(header)) != len(header):
        raise ValueError("duplicate column names in header")
    if not rows:
        raise ValueError("CSV file %s has a header but no data rows" % path)
    y_col = header.index(response)
    x_cols = [j for j in range(len(header)) if j != y_col]
    if not x_cols:
        raise ValueError("CSV must have at least one covariate column")

    data = np.empty((len(rows), len(header)))
    for i, row in enumerate(rows):
        if len(row) != len(header):
            raise ValueError("row %d has %d cells, expected %d" % (i + 2, len(row), len(header)))
        for j, cell in enumerate(row):
            try:
                data[i, j] = float(cell)
            except ValueError:
                raise ValueError(
                    "non-numeric cell %r at row %d, column %r" % (cell, i + 2, header[j])
                ) from None

    order = np.arange(len(rows))
    if rng is not None:
        order = rng.permutation(len(rows))
    n_train = int(round(split * len(rows)))
    n_train = min(max(n_train, 1), len(rows) - 1) if len(rows) > 1 else 1
    tr, te = order[:n_train], order[n_train:]

    X, y = data[:, x_cols], data[:, y_col]
    X_tr, X_te = X[tr].copy(), X[te].copy()
    center = scale = None
    if standardize:
        center = X_tr.mean(axis=0)
        scale = X_tr.std(axis=0, ddof=0)
        if np.any(scale == 0):
            bad = [header[x_cols[j]] for j in np.nonzero(scale == 0)[0]]
            raise ValueError("constant covariate column(s) cannot be standardized: %s" % bad)
        X_tr = (X_tr - center) / scale
        X_te = (X_te - center) / scale

    covs = tuple(header[j] for j in x_cols)
    return LoadedData(
        train=Dataset(X=X_tr, y=y[tr], column_names=covs),
        test=Dataset(X=X_te, y=y[te], column_names=covs),
        covariates=covs,
        response=response,
        center=center,
        scale=scale,
    )
