"""Gradient arithmetic, the combined objective, the flat-vector layout
check, a bag-of-words matrix, the per-token sparse loader, the per-value
writers and a memory probe, which only the tests use."""

import math
import re
import tracemalloc

import numpy as np

from momentalign.datasets import Sample, one_hot
from momentalign.distances import CmdConfig, cmd_estimate
from momentalign.network import NetworkParams, cross_entropy_loss, forward
from momentalign.numerics import SeededRng, SparseRowMatrix


def add_scaled(g: NetworkParams, other: NetworkParams, scale: float) -> NetworkParams:
    """g += scale * other, array by array."""
    g.W += scale * other.W
    g.b += scale * other.b
    g.V += scale * other.V
    g.c += scale * other.c
    return g


def all_finite(g: NetworkParams) -> bool:
    return all(np.all(np.isfinite(a)) for a in (g.W, g.b, g.V, g.c))


def objective(p: NetworkParams, Xs, Ys, Xt, cfg):
    """(total, loss, cmd) of the combined objective under a TrainConfig."""
    trace_s = forward(p, Xs)
    loss = cross_entropy_loss(trace_s, Ys)
    cmd = cmd_estimate(trace_s.hidden, forward(p, Xt).hidden, CmdConfig(k=cfg.k)).value
    total = loss if cfg.lam == 0.0 else loss + cfg.lam * cmd
    return total, loss, cmd


def traced_peak(fn, *args, **kwargs):
    """(fn(*args, **kwargs), the peak in bytes of the memory tracemalloc
    traced while fn ran)."""
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def lie_back_to_back(vector, arrays) -> bool:
    """Whether arrays are C-contiguous views of vector that fill it in turn."""
    start = 0
    for a in arrays:
        if a.base is not vector or not a.flags.c_contiguous:
            return False
        if a.ctypes.data != vector.ctypes.data + vector.itemsize * start:
            return False
        start += a.size
    return start == vector.size


def bag_of_words(rows=1000, cols=5000, per_row=56, seed=0) -> SparseRowMatrix:
    """rows x cols with up to per_row distinct columns a row, drawn uniformly,
    and values in [0.5, 1.5): the shape of the paper's sentiment inputs."""
    rng = SeededRng(seed)
    picks = np.sort((rng.uniform_matrix(rows, per_row) * cols).astype(np.int64), axis=1)
    keep = np.ones(picks.shape, dtype=bool)
    keep[:, 1:] = picks[:, 1:] != picks[:, :-1]
    indptr = np.concatenate(([0], np.cumsum(keep.sum(axis=1))))
    return SparseRowMatrix(rows, cols, indptr, picks[keep], rng.uniforms(int(indptr[-1])) + 0.5)


def load_sparse_per_token(path) -> Sample:
    """The sparse loader token by token, with int() and float() on each: the
    reference the array loader is held to.  Its grammar is wider: float()
    and int() also take underscores, Unicode digits and a signed index."""
    with open(path, "r", newline="") as fh:
        lines = fh.read().splitlines()
    declared_dim = None
    start = 0
    if lines and lines[0].startswith("#dim"):
        header = re.fullmatch(r"#dim[ \t]+([0-9]+)[ \t]*", lines[0])
        if header is None:
            raise ValueError("line 1: malformed #dim line")
        declared_dim = int(header[1])
        if not 1 <= declared_dim <= 2**53:
            raise ValueError("line 1: dimension must lie between 1 and 2**53")
        start = 1
    limit = declared_dim or 2**53

    rows, classes, linenos = [], [], []
    max_index = -1
    for lineno, line in enumerate(lines[start:], start=start + 1):
        if line.strip() == "":
            continue
        toks = line.split()
        try:
            classes.append(int(toks[0]))
        except ValueError:
            raise ValueError(f"line {lineno}: label {toks[0]!r} is not an integer") from None
        linenos.append(lineno)
        pairs = []
        prev = -1
        for tok in toks[1:]:
            if ":" not in tok:
                raise ValueError(f"line {lineno}: malformed token {tok!r}")
            idx_s, val_s = tok.split(":", 1)
            try:
                idx = int(idx_s)
                val = float(val_s)
            except ValueError:
                raise ValueError(f"line {lineno}: malformed token {tok!r}") from None
            if not math.isfinite(val):
                raise ValueError(f"line {lineno}: non-finite value in token {tok!r}")
            if idx <= prev:
                raise ValueError(f"line {lineno}: indices not strictly increasing")
            if idx >= limit:
                which = "declared" if declared_dim is not None else "the largest"
                raise ValueError(f"line {lineno}: index {idx} exceeds {which} dimension")
            prev = idx
            pairs.append((idx, val))
        max_index = max(max_index, prev)
        rows.append(pairs)
    if not rows:
        raise ValueError("file contains no data rows")
    dim = declared_dim if declared_dim is not None else max_index + 1
    if dim < 1:
        raise ValueError("cannot infer dimension from an all-empty file")
    classes = np.array(classes)
    if classes.min() < 0:
        row = int(np.argmax(classes < 0))
        raise ValueError(f"line {linenos[row]}: negative class id {classes[row]}")
    n_classes = int(classes.max()) + 1
    return Sample(SparseRowMatrix.from_rows(rows, dim), one_hot(classes, n_classes), n_classes)


def save_dense_csv_per_value(sample: Sample, path) -> None:
    """The dense CSV writer value by value, with repr(float(v)) on each: the
    reference the writer's bytes are held to."""
    cols = [f"f{i + 1}" for i in range(sample.dim)]
    out = []
    if sample.labels is not None:
        out.append(",".join(["label"] + cols))
        ints = sample.label_ints
        for i in range(sample.n_rows):
            out.append(",".join([str(int(ints[i]))] + [repr(float(v)) for v in sample.features[i]]))
    else:
        out.append(",".join(cols))
        for i in range(sample.n_rows):
            out.append(",".join(repr(float(v)) for v in sample.features[i]))
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(out) + "\n")


def save_sparse_per_value(sample: Sample, path) -> None:
    """The sparse writer token by token, with int() and repr(float()) on
    each: the reference the writer's bytes are held to."""
    S = sample.features
    ints = sample.label_ints
    out = [f"#dim {S.cols}"]
    for r in range(S.rows):
        lo, hi = S.indptr[r], S.indptr[r + 1]
        toks = [str(int(ints[r]))]
        toks += [f"{int(i)}:{repr(float(v))}" for i, v in zip(S.indices[lo:hi], S.data[lo:hi])]
        out.append(" ".join(toks))
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(out) + "\n")
