"""Gradient arithmetic, the combined objective, the flat-vector layout
check and a bag-of-words matrix, which only the tests use."""

import numpy as np

from momentalign.distances import CmdConfig, cmd_estimate
from momentalign.network import Gradients, NetworkParams, cross_entropy_loss, forward
from momentalign.numerics import SeededRng, SparseRowMatrix


zeros_like = Gradients.zeros_like


def add_scaled(g: Gradients, other: Gradients, scale: float) -> Gradients:
    """g += scale * other, array by array."""
    g.dW += scale * other.dW
    g.db += scale * other.db
    g.dV += scale * other.dV
    g.dc += scale * other.dc
    return g


def all_finite(g: Gradients) -> bool:
    return all(np.all(np.isfinite(a)) for a in (g.dW, g.db, g.dV, g.dc))


def objective(p: NetworkParams, Xs, Ys, Xt, cfg):
    """(total, loss, cmd) of the combined objective under a TrainConfig."""
    trace_s = forward(p, Xs)
    loss = cross_entropy_loss(trace_s, Ys)
    cmd = cmd_estimate(trace_s.hidden, forward(p, Xt).hidden, CmdConfig(k=cfg.k)).value
    total = loss if cfg.lam == 0.0 else loss + cfg.lam * cmd
    return total, loss, cmd


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
