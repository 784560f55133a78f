"""Dense/sparse building blocks and deterministic randomness.

Everything downstream (moments, distances, the trainer) works on plain
float64 numpy arrays: a vector is a 1-D array, a dense matrix is a 2-D
array holding one example per row.  Sparse inputs use the small CSR
container below, whose two products run through one kernel that adds
each sum divided by n into its output.  Randomness comes exclusively
from :class:`SeededRng`, a counter-based SplitMix64 generator, so that
identical seeds give bitwise identical streams on every platform.
check_count is the one check that an order, count or size is an integer
>= 1 (or a stated least); entries call it, and the loops they feed trust it.
"""

from __future__ import annotations

import reprlib
from dataclasses import fields

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
    """CSR row-sparse matrix: per row, strictly increasing column indices
    with float64 values.  It stores indptr, indices and data and nothing
    per entry besides; the row of each entry is derived from indptr where
    it is read.  Only the handful of products the trainer needs are
    implemented."""

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
        row_ids = self._row_ids()
        bad = (self.indices < 0) | (self.indices >= self.cols)
        bad[1:] |= (np.diff(self.indices) <= 0) & (row_ids[1:] == row_ids[:-1])
        if np.any(bad):
            r = row_ids[np.argmax(bad)]
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

    def _row_ids(self) -> np.ndarray:
        """The row of each stored entry, derived from indptr where it is read."""
        return np.repeat(np.arange(self.rows), np.diff(self.indptr))

    def toarray(self) -> np.ndarray:
        out = np.zeros((self.rows, self.cols))
        out[self._row_ids(), self.indices] = self.data
        return out

    def dot_dense(self, D: np.ndarray) -> np.ndarray:
        """self @ D for dense D of shape (cols, k): each row's sum divided by
        1.0 and added into zeros, which is the sum bit for bit (x / 1.0 is
        x, and 0.0 + x is x unless x is -0.0, which no sum from +0.0 is)."""
        D = np.asarray(D, dtype=np.float64)
        if D.ndim != 2 or D.shape[0] != self.cols:
            raise ValueError("dimension mismatch in sparse dot")
        out = np.zeros((self.rows, D.shape[1]))
        _run_sums(self.indptr, None, self.data, self.indices, D, out, 1.0)
        return out

    def t_dot_dense(self, D: np.ndarray, out: np.ndarray, n: float) -> np.ndarray:
        """out + (self.T @ D) / n, bit for bit, written into out, a (cols, k)
        array, and returned; D is dense of shape (rows, k).  The product is
        divided and added one block of rows at a time, so no (cols, k)
        temporary is made."""
        D = np.asarray(D, dtype=np.float64)
        if D.ndim != 2 or D.shape[0] != self.rows:
            raise ValueError("dimension mismatch in sparse t_dot")
        if out.shape != (self.cols, D.shape[1]):
            raise ValueError("out has the wrong shape for sparse t_dot")
        bounds = np.zeros(self.cols + 1, dtype=np.int64)
        np.cumsum(np.bincount(self.indices, minlength=self.cols), out=bounds[1:])
        order = _stable_order(self.indices, self.cols)
        _run_sums(bounds, order, self.data, self._row_ids(), D, out, n)
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


_BLOCK_TERMS = 1 << 15  # product terms per step of a chunk of runs: 256 KiB


def _run_sums(bounds, order, data, gather, D: np.ndarray, out: np.ndarray,
              divisor: float) -> None:
    """out[i] += (sum of data[e] * D[gather[e]] over the entries e of run
    i) / divisor.  Run i holds the entries at positions bounds[i]:bounds[i + 1]
    of the given order (None: storage order).

    Jagged diagonals: the runs with entries are taken longest first, in
    chunks of at most _BLOCK_TERMS // k runs, and step j adds the j-th
    term of every run of the chunk longer than j into a prefix of the
    chunk's zeroed sums.  Each sum is thus 0.0 + t0 + t1 + ... in the
    entries' order, bit for bit what np.add.at into zeros gives (starting
    at +0.0, a sum of -0.0 terms is +0.0 in both), and no temporary
    outgrows one step of a chunk."""
    D = np.ascontiguousarray(D)  # its rows are gathered: each in one line
    k = D.shape[1]
    lengths = np.diff(bounds)
    longest = int(lengths.max(initial=0))
    by_length = _stable_order(longest - lengths, longest + 1)[:np.count_nonzero(lengths)]
    # x + 0.0 in the runs without entries, what adding a sum of no terms
    # gives, and x + -0.0 = x in the rest: one pass in out's own order
    out += np.where(lengths, -0.0, 0.0)[:, None]
    per_chunk = max(1, _BLOCK_TERMS // max(k, 1))
    sums_buffer = np.empty((min(per_chunk, len(by_length)), k))
    terms_buffer = np.empty_like(sums_buffer)
    for c0 in range(0, len(by_length), per_chunk):
        runs = by_length[c0:c0 + per_chunk]
        first, size = bounds[runs], lengths[runs]
        live = np.searchsorted(-size, -np.arange(size[0]), side="left")
        sums = sums_buffer[:len(runs)]
        sums.fill(0.0)
        for j, n in enumerate(live.tolist()):
            e = first[:n] + j
            if order is not None:
                e = order[e]
            # "clip" spares the copy that "raise" makes; the indices were
            # checked when the matrix was built
            terms = D.take(gather[e], axis=0, out=terms_buffer[:n], mode="clip")
            np.multiply(data[e, None], terms, out=terms)
            sums[:n] += terms
        sums /= divisor
        out[runs] += sums


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


def check_labels(Y, rows: int, classes: int | None = None, what: str = "labels") -> np.ndarray:
    """Y as float64 labels of one row per feature row and one column per
    class, classes of them when given; else ValueError naming them what."""
    Y = np.asarray(Y, dtype=np.float64)
    if Y.shape[:1] != (rows,):
        raise ValueError(f"{what} do not align with features")
    if Y.ndim != 2 or classes is not None and Y.shape[1] != classes:
        n = "" if classes is None else f"{classes} "
        raise ValueError(f"{what} must have {n}columns, one per class")
    return Y


_KINDS = {int: (int, np.integer), float: (int, float, np.integer, np.floating)}
_FLOAT_LIMIT = 2**1024 - 2**970  # the least int whose float() overflows
_SHAPES = ("a number", "a list of numbers", "a list of lists of numbers")


def _is_json(value, kind, depth=0) -> bool:
    """value is of kind int or float, a bool being neither and an int beyond
    the float range no float; or (depth > 0) a list of those, depth deep."""
    if depth:
        return isinstance(value, (list, tuple)) and all(_is_json(v, kind, depth - 1) for v in value)
    if isinstance(value, bool) or not isinstance(value, _KINDS[kind]):
        return False
    return kind is int or not isinstance(value, int) or -_FLOAT_LIMIT < value < _FLOAT_LIMIT


def check_json_types(doc: dict, ints=(), reals=(), nullable=(), arrays=None) -> None:
    """ValueError unless doc[name] is an integer for each name in ints and a
    number for each in reals, as _is_json judges them; a nullable one may be
    None.  arrays maps a name to the depths it may have: 0 a number, 1 a
    list of numbers, 2 a list of lists of numbers."""
    for names, kind, what in ((ints, int, "an integer"), (reals, float, "a number")):
        for name in names:
            if not _is_json(doc[name], kind) and not (doc[name] is None and name in nullable):
                raise ValueError(f"{name} must be {what}, got {reprlib.repr(doc[name])}")
    for name, depths in (arrays or {}).items():
        if not any(_is_json(doc[name], float, d) for d in depths):
            what = " or ".join(_SHAPES[d] for d in depths)
            raise ValueError(f"{name} must be {what}, got {reprlib.repr(doc[name])}")


def check_count(value, name: str, least: int = 1) -> None:
    """ValueError unless value, the setting name, is an integer >= least, a
    bool being none."""
    check_json_types({name: value}, ints=(name,))
    if value < least:
        raise ValueError(f"{name} must be >= {least}")


def json_object(doc, keys, where: str) -> dict:
    """doc, if it is a JSON object with no key outside keys; else
    ValueError naming the block where."""
    if not isinstance(doc, dict):
        raise ValueError(f"{where} must be a JSON object, got {reprlib.repr(doc)}")
    unknown = set(doc) - set(keys)
    if unknown:
        raise ValueError(f"unknown {where} keys: {sorted(unknown, key=str)}")
    return doc


_JSON_KEYS = {"lam": "lambda"}  # the one field whose key is not its name


def settings_from_dict(cls, doc, where: str):
    """The settings dataclass cls built from doc, the JSON object of block where."""
    names = {_JSON_KEYS.get(f.name, f.name): f.name for f in fields(cls)}
    return cls(**{names[key]: value for key, value in json_object(doc, names, where).items()})


def _as_json(value):
    return [_as_json(v) for v in value] if isinstance(value, tuple) else value


def settings_to_dict(settings) -> dict:
    """The JSON object of a settings dataclass: its fields in order, tuples as lists."""
    return {_JSON_KEYS.get(f.name, f.name): _as_json(getattr(settings, f.name))
            for f in fields(settings)}


def take_rows(features, idx):
    """Row subset of a dense array or SparseRowMatrix, in the given order."""
    if isinstance(features, SparseRowMatrix):
        return features.take_rows(idx)
    return np.asarray(features, dtype=np.float64)[np.asarray(idx, dtype=np.int64)]
