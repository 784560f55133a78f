"""Dense/sparse building blocks and deterministic randomness.

Everything downstream (moments, distances, the trainer) works on plain
float64 numpy arrays: a vector is a 1-D array, a dense matrix is a 2-D
array holding one example per row.  Sparse inputs use the small CSR-style
container below.  Randomness comes exclusively from :class:`SeededRng`, a
counter-based SplitMix64 generator, so that identical seeds give bitwise
identical streams on every platform.
"""

from __future__ import annotations

import numpy as np

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_INV53 = float(2.0 ** -53)


def stream_words(seeds, counters) -> np.ndarray:
    """Word number ``counters`` (1-based) of the SplitMix64 streams seeded by
    ``seeds``, broadcast together: mix64(seed + counter * gamma), all
    arithmetic wrapping modulo 2^64.  This one function defines every
    stream :class:`SeededRng` produces."""
    with np.errstate(over="ignore"):
        z = np.asarray(seeds, dtype=np.uint64) + _GAMMA * np.asarray(counters, dtype=np.uint64)
        z ^= z >> np.uint64(30)
        z *= _MIX1
        z ^= z >> np.uint64(27)
        z *= _MIX2
        z ^= z >> np.uint64(31)
    return z


def word_uniforms(words) -> np.ndarray:
    """Doubles in [0, 1) from the top 53 bits of each word."""
    return (words >> np.uint64(11)).astype(np.float64) * _INV53


class SeededRng:
    """Counter-based SplitMix64 stream.

    The i-th raw 64-bit word of the stream is mix64(seed + (i+1)*gamma)
    with gamma = 0x9E3779B97F4A7C15 and mix64 the SplitMix64 finalizer
    (see :func:`stream_words`).  Because words are indexed rather than
    iterated, any block can be produced vectorized and the stream is
    identical across platforms.
    """

    def __init__(self, seed: int):
        self.seed = int(seed) & 0xFFFFFFFFFFFFFFFF
        self._count = 0

    def _raw(self, n: int) -> np.ndarray:
        idx = np.arange(self._count + 1, self._count + n + 1, dtype=np.uint64)
        self._count += n
        return stream_words(self.seed, idx)

    def uniforms(self, n: int) -> np.ndarray:
        """n doubles in [0, 1), using the top 53 bits of each word."""
        return word_uniforms(self._raw(n))

    def uniform_matrix(self, rows: int, cols: int) -> np.ndarray:
        return self.uniforms(rows * cols).reshape(rows, cols)

    def normals(self, n: int) -> np.ndarray:
        """Standard normal draws via Box-Muller on consecutive pairs."""
        half = (n + 1) // 2
        u1 = (self._raw(half) >> np.uint64(11)).astype(np.float64)
        u1 = (u1 + 1.0) * _INV53  # in (0, 1], keeps log finite
        u2 = self.uniforms(half)
        r = np.sqrt(-2.0 * np.log(u1))
        theta = 2.0 * np.pi * u2
        out = np.empty(2 * half)
        out[0::2] = r * np.cos(theta)
        out[1::2] = r * np.sin(theta)
        return out[:n]

    def normal_matrix(self, rows: int, cols: int) -> np.ndarray:
        return self.normals(rows * cols).reshape(rows, cols)

    def permutation(self, n: int) -> np.ndarray:
        """Deterministic permutation of range(n) by sorting one uniform
        per index (stable sort, so the result is reproducible even in the
        astronomically unlikely event of a tie)."""
        return np.argsort(self.uniforms(n), kind="stable")

    def split(self, salt: int) -> "SeededRng":
        """Derive an independent child stream. Children with different
        salts never share words with each other or with the parent."""
        return SeededRng(int(self.split_seeds(salt)))

    def split_seeds(self, salts) -> np.ndarray:
        """The seed of split(salt) for each of an array of salts."""
        return stream_words(self.seed ^ int(_MIX2), np.asarray(salts, dtype=np.uint64) + np.uint64(1))


class SparseRowMatrix:
    """CSR-style row-sparse matrix: per row, strictly increasing column
    indices with float64 values. Only the handful of products the trainer
    needs are implemented."""

    def __init__(self, rows: int, cols: int, indptr, indices, data):
        self.rows = int(rows)
        self.cols = int(cols)
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int64)
        self.data = np.asarray(data, dtype=np.float64)
        if self.indptr.shape != (self.rows + 1,):
            raise ValueError("indptr length must be rows+1")
        if self.indptr[0] != 0 or self.indptr[-1] != len(self.indices):
            raise ValueError("indptr endpoints inconsistent with indices")
        if len(self.indices) != len(self.data):
            raise ValueError("indices and data lengths differ")
        lengths = np.diff(self.indptr)
        if np.any(lengths < 0):
            raise ValueError(f"row {np.argmax(lengths < 0)}: indptr decreases")
        # the row of each stored entry, kept for the products below
        self.row_ids = np.repeat(np.arange(self.rows), lengths)
        bad = (self.indices < 0) | (self.indices >= self.cols)
        bad[1:] |= (np.diff(self.indices) <= 0) & (self.row_ids[1:] == self.row_ids[:-1])
        if np.any(bad):
            r = self.row_ids[np.argmax(bad)]
            raise ValueError(f"row {r}: indices must be strictly increasing and < cols")

    @classmethod
    def from_rows(cls, rows_of_pairs, cols: int) -> "SparseRowMatrix":
        """Build from an iterable of [(index, value), ...] per row."""
        indptr = [0]
        indices: list[int] = []
        data: list[float] = []
        for pairs in rows_of_pairs:
            for i, v in pairs:
                indices.append(int(i))
                data.append(float(v))
            indptr.append(len(indices))
        return cls(len(indptr) - 1, cols, indptr, indices, data)

    @property
    def shape(self):
        return (self.rows, self.cols)

    def toarray(self) -> np.ndarray:
        out = np.zeros((self.rows, self.cols))
        out[self.row_ids, self.indices] = self.data
        return out

    def dot_dense(self, D: np.ndarray) -> np.ndarray:
        """self @ D for dense D of shape (cols, k)."""
        D = np.asarray(D, dtype=np.float64)
        if D.ndim != 2 or D.shape[0] != self.cols:
            raise ValueError("dimension mismatch in sparse dot")
        out = np.empty((self.rows, D.shape[1]))
        _run_sums(self.row_ids, None, self.data, self.indices, D, out)
        return out

    def t_dot_dense(self, D: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """self.T @ D for dense D of shape (rows, k), written into out, a
        (cols, k) array, and returned; by default out is the transpose of
        a new C-contiguous (k, cols) array."""
        D = np.asarray(D, dtype=np.float64)
        if D.ndim != 2 or D.shape[0] != self.rows:
            raise ValueError("dimension mismatch in sparse t_dot")
        if out is None:
            out = np.empty((D.shape[1], self.cols)).T
        elif out.shape != (self.cols, D.shape[1]):
            raise ValueError("out has the wrong shape for sparse t_dot")
        order = _stable_order(self.indices, self.cols)
        _run_sums(self.indices[order], order, self.data, self.row_ids, D, out)
        return out

    def take_rows(self, idx) -> "SparseRowMatrix":
        idx = np.asarray(idx, dtype=np.int64)
        if np.any((idx < 0) | (idx >= self.rows)):
            raise ValueError(f"row index out of range [0, {self.rows})")
        starts, lengths = self.indptr[idx], np.diff(self.indptr)[idx]
        indptr = np.concatenate(([0], np.cumsum(lengths)))
        pos = np.repeat(starts - indptr[:-1], lengths) + np.arange(indptr[-1])
        return SparseRowMatrix(len(idx), self.cols, indptr, self.indices[pos], self.data[pos])


def _stable_order(ids: np.ndarray, size: int) -> np.ndarray:
    """np.argsort(ids, kind="stable") for ids in [0, size): the sort runs on
    the narrowest unsigned dtype that holds size - 1, which NumPy
    radix-sorts at 16 bits or fewer.  Equal ids keep their order."""
    return np.argsort(ids.astype(np.min_scalar_type(max(size - 1, 0))), kind="stable")


_BLOCK_TERMS = 1 << 15  # product terms per block of output rows: 256 KiB


def _run_sums(run, order, data, gather, D: np.ndarray, out: np.ndarray) -> None:
    """out[i] = sum of data[e] * D[gather[e]] over the entries e of run i.
    The entries are taken in the given order (None: storage order), and
    run[j], the run of the j-th of them, does not decrease.  Runs are
    summed in blocks of consecutive output rows holding at most
    _BLOCK_TERMS product terms, or one row when a single run holds more,
    so no temporary grows with the stored values times the width of D."""
    k, size = D.shape[1], out.shape[0]
    bounds = np.zeros(size + 1, dtype=np.int64)
    np.cumsum(np.bincount(run, minlength=size), out=bounds[1:])
    per_block = max(1, _BLOCK_TERMS // max(k, 1))  # entries
    r0 = 0
    while r0 < size:
        fits = int(np.searchsorted(bounds, bounds[r0] + per_block, side="right")) - 1
        r1 = max(r0 + 1, fits)
        e0, e1 = bounds[r0], bounds[r1]
        e = slice(e0, e1) if order is None else order[e0:e1]
        out[r0:r1] = _scatter_sum(run[e0:e1] - r0, r1 - r0, data[e, None] * D[gather[e]])
        r0 = r1


def _scatter_sum(target, size: int, terms: np.ndarray) -> np.ndarray:
    """out[i] = sum of terms[j] over target[j] == i, bit for bit what np.add.at
    into zeros gives: bincount too adds each element's terms to 0.0 in j order."""
    k = terms.shape[1]
    flat = ((target * k)[:, None] + np.arange(k)).ravel()
    return np.bincount(flat, weights=terms.ravel(), minlength=size * k).reshape(size, k)


def n_rows(features) -> int:
    """Row count of a dense array or SparseRowMatrix."""
    return features.rows if isinstance(features, SparseRowMatrix) else np.shape(features)[0]


def n_cols(features) -> int:
    """Column count of a dense 2-D array or SparseRowMatrix."""
    return features.cols if isinstance(features, SparseRowMatrix) else np.shape(features)[1]


def as_sample(features) -> np.ndarray:
    """A sample as a dense float64 matrix with one example per row: a
    SparseRowMatrix is densified and a 1-D array becomes one column."""
    if isinstance(features, SparseRowMatrix):
        features = features.toarray()
    X = np.asarray(features, dtype=np.float64)
    if X.ndim == 1:
        X = X[:, None]
    if X.ndim != 2:
        raise ValueError(f"a sample must be a 1-D or 2-D array, got {X.ndim}-D")
    if X.shape[0] == 0:
        raise ValueError("empty sample")
    return X


def as_sample_pair(src, tgt) -> tuple[np.ndarray, np.ndarray]:
    """as_sample of both samples, which must have the same width."""
    X, Y = as_sample(src), as_sample(tgt)
    if X.shape[1] != Y.shape[1]:
        raise ValueError(f"dimension mismatch between samples: {X.shape[1]} vs {Y.shape[1]}")
    return X, Y


def check_finite(**samples) -> None:
    """ValueError naming the first sample, given by keyword, that holds a
    non-finite value: a dense array, or a SparseRowMatrix's stored data.
    None is skipped."""
    for name, values in samples.items():
        if isinstance(values, SparseRowMatrix):
            values = values.data
        if values is not None and not np.all(np.isfinite(values)):
            raise ValueError(f"{name} must be finite, got a non-finite value")


_NUMBER = (int, float, np.integer, np.floating)
_SHAPES = ("a number", "a list of numbers", "a list of lists of numbers")


def _is_json(value, kind, depth=0) -> bool:
    """value is a kind, a bool being none, or (depth > 0) a list of such values
    nested depth deep."""
    if depth:
        return isinstance(value, (list, tuple)) and all(_is_json(v, kind, depth - 1) for v in value)
    return isinstance(value, kind) and not isinstance(value, bool)


def check_json_types(doc: dict, ints=(), reals=(), nullable=(), arrays=None) -> None:
    """ValueError unless doc[name] is an integer for each name in ints and a
    number for each in reals, a bool being neither; a nullable one may be None.
    arrays maps a name to the depths it may have: 0 a number, 1 a list of
    numbers, 2 a list of lists of numbers."""
    for names, kind, what in ((ints, (int, np.integer), "an integer"), (reals, _NUMBER, "a number")):
        for name in names:
            if not _is_json(doc[name], kind) and not (doc[name] is None and name in nullable):
                raise ValueError(f"{name} must be {what}, got {doc[name]!r}")
    for name, depths in (arrays or {}).items():
        if not any(_is_json(doc[name], _NUMBER, d) for d in depths):
            what = " or ".join(_SHAPES[d] for d in depths)
            raise ValueError(f"{name} must be {what}, got {doc[name]!r}")


def take_rows(features, idx):
    """Row subset of a dense array or SparseRowMatrix, in the given order."""
    if isinstance(features, SparseRowMatrix):
        return features.take_rows(idx)
    return np.asarray(features, dtype=np.float64)[np.asarray(idx, dtype=np.int64)]
