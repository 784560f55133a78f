"""Gradient update schemes: plain SGD, Adagrad, and Adadelta.

All three apply theta <- theta - alpha * eta * g with a per-coordinate
weighting eta.  Adagrad accumulates squared gradients,

    G += g^2,        eta = 1 / sqrt(G + eps),

and Adadelta maintains decaying averages of squared gradients and squared
updates,

    G <- rho G + (1-rho) g^2
    eta = sqrt(E + eps) / sqrt(G + eps)
    E <- rho E + (1-rho) (eta g)^2

with alpha fixed at 1.  Note the E update uses a PLUS on the second term;
an accumulator of squares must stay nonnegative, so a minus there (seen
in some write-ups) would drive E negative and the square root complex.

Each optimizer acts on the flat vectors NetworkParams.flat and
Gradients.flat, and each step takes its pieces from one scaffold,
_chunks: it checks the gradient, allocates at the first step the
accumulators and two scratch vectors of _CHUNK doubles, and hands the
vectors over one chunk at a time.  A step runs the formulas above on
each chunk, every temporary written into the scratch, so each element
sees the same operations in the same order as a whole-vector step.  The
accumulators are the rows of buffers: G, then E; NetworkParams.views
lays W, b, V and c over each.  An optimizer's settings are its
dataclass fields, which make_optimizer reads.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .network import Gradients, NetworkParams

_CHUNK = 1 << 13  # doubles per chunk of a step: 64 KiB a scratch vector


class _State:
    """An optimizer's accumulators, count rows of the parameters' size, and
    its two scratch vectors, both allocated at its first step."""

    buffers: np.ndarray | None = None
    scratch: np.ndarray | None = None


def _chunks(opt: _State, p: NetworkParams, g: Gradients, count: int):
    """The pieces of a step of opt, which keeps count accumulators: per
    chunk of at most _CHUNK elements, the chunk of p.flat, of g.flat and
    of each accumulator, then the two scratch vectors cut to its length.
    Vectors that fit one chunk are handed over whole.  Before anything
    changes: ValueError on a gradient of the wrong shape, FloatingPointError
    naming the first non-finite one, and ValueError on parameters of
    another size than the state's.  Sgd's (0, size) buffers keep the size."""
    if (p.W.shape, p.b.shape, p.V.shape, p.c.shape) != (g.dW.shape, g.db.shape, g.dV.shape, g.dc.shape):
        raise ValueError("gradient shape does not match parameters")
    if not np.isfinite(g.flat).all():
        name = next(n for n in "WbVc" if not np.isfinite(getattr(g, "d" + n)).all())
        raise FloatingPointError(f"non-finite gradient d{name}")
    size = p.flat.size
    if opt.buffers is None:
        opt.buffers = np.zeros((count, size))
        opt.scratch = np.empty((2, min(size, _CHUNK)))
    elif opt.buffers.shape[1] != size:
        raise ValueError("the optimizer's state belongs to parameters of another size")
    vectors = (p.flat, g.flat, *opt.buffers)
    if size <= _CHUNK:
        return ((*vectors, *opt.scratch),)
    return ((*(v[start:start + _CHUNK] for v in vectors), *opt.scratch[:, :min(_CHUNK, size - start)])
            for start in range(0, size, _CHUNK))


@dataclass
class Sgd(_State):
    alpha: float = 0.1

    def step(self, p: NetworkParams, g: Gradients) -> None:
        for theta, grad, u, _ in _chunks(self, p, g, 0):
            theta -= np.multiply(self.alpha, grad, out=u)


@dataclass
class Adagrad(_State):
    alpha: float = 0.01
    eps: float = 1e-8

    def step(self, p: NetworkParams, g: Gradients) -> None:
        for theta, grad, G, u, v in _chunks(self, p, g, 1):
            G += np.multiply(grad, grad, out=u)
            np.multiply(self.alpha, grad, out=u)
            np.sqrt(np.add(G, self.eps, out=v), out=v)
            theta -= np.divide(u, v, out=u)


@dataclass
class Adadelta(_State):
    rho: float = 0.95
    eps: float = 1e-6

    def __post_init__(self):
        if not 0.0 <= self.rho < 1.0:
            raise ValueError("rho must lie in [0, 1)")
        if self.eps <= 0:
            raise ValueError("eps must be positive")

    def step(self, p: NetworkParams, g: Gradients) -> None:
        rest = 1.0 - self.rho
        for theta, grad, G, E, u, v in _chunks(self, p, g, 2):
            G *= self.rho
            G += np.multiply(np.multiply(rest, grad, out=u), grad, out=u)
            np.sqrt(np.add(E, self.eps, out=u), out=u)
            np.sqrt(np.add(G, self.eps, out=v), out=v)
            update = np.multiply(np.divide(u, v, out=u), grad, out=u)
            theta -= update
            E *= self.rho
            E += np.multiply(np.multiply(rest, update, out=v), update, out=v)


# kind -> class; a class's fields are the settings it takes, with their defaults
OPTIMIZERS = {"sgd": Sgd, "adagrad": Adagrad, "adadelta": Adadelta}


def make_optimizer(kind: str, **settings):
    """A fresh optimizer of the given kind.  A setting given as None keeps
    the kind's default; one the kind does not take is ignored."""
    if kind not in OPTIMIZERS:
        raise ValueError(f"unknown optimizer {kind!r}")
    cls = OPTIMIZERS[kind]
    takes = {f.name for f in fields(cls)}
    return cls(**{k: v for k, v in settings.items() if k in takes and v is not None})
