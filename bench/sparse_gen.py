"""Seeded synthetic sparse two-domain data: bag-of-words counts.

Both domains draw documents of Poisson length from a Zipf-like word
distribution over one vocabulary.  The target domain reweights that
distribution word by word (a log-normal factor per word), which is the
domain shift.  One fixed linear rule, drawn once per seed and shared by
both domains, labels every document: positive when its counts score
above zero under per-word weights centred on the source distribution.
Inputs come from numpy's own generator, apart from the package; only
the file writer is the package's ``save_sparse``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from momentalign.datasets import Sample, one_hot, save_sparse
from momentalign.numerics import SparseRowMatrix

SHIFT_SIGMA = 1.0  # log-space standard deviation of the target's per-word factor


@dataclass
class Domain:
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    labels: np.ndarray  # class ids 0/1
    vocab: int

    def dense(self) -> np.ndarray:
        """Row-major dense copy, built here rather than by the package."""
        out = np.zeros((len(self.indptr) - 1, self.vocab))
        rows = np.repeat(np.arange(len(self.indptr) - 1), np.diff(self.indptr))
        out[rows, self.indices] = self.data
        return out

    def one_hot(self) -> np.ndarray:
        return np.eye(2)[self.labels]

    def save(self, path) -> None:
        matrix = SparseRowMatrix(len(self.indptr) - 1, self.vocab, self.indptr,
                                 self.indices, self.data)
        save_sparse(Sample(matrix, one_hot(self.labels, 2), 2), path)


def _documents(rng, n: int, probs: np.ndarray, mean_len: float, weights: np.ndarray) -> Domain:
    vocab = len(probs)
    lengths = rng.poisson(mean_len, n)
    words = rng.choice(vocab, size=int(lengths.sum()), p=probs)
    docs = np.repeat(np.arange(n), lengths)
    keys, counts = np.unique(docs * vocab + words, return_counts=True)
    rows, cols = np.divmod(keys, vocab)
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n))])
    data = counts.astype(np.float64)
    scores = np.bincount(rows, weights=data * weights[cols], minlength=n)
    return Domain(indptr, cols, data, (scores > 0).astype(np.int64), vocab)


def two_domains(seed: int, rows: int, vocab: int, mean_len: float) -> tuple[Domain, Domain]:
    """(source, target), each with ``rows`` documents over ``vocab`` words."""
    rng = np.random.default_rng(seed)
    source_p = 1.0 / (rng.permutation(vocab) + 10.0)
    source_p /= source_p.sum()
    target_p = source_p * np.exp(rng.normal(0.0, SHIFT_SIGMA, vocab))
    target_p /= target_p.sum()
    weights = rng.normal(0.0, 1.0, vocab)
    weights -= source_p @ weights
    return (_documents(rng, rows, source_p, mean_len, weights),
            _documents(rng, rows, target_p, mean_len, weights))
