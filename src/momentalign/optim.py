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
Gradients.flat.  At its first step it allocates its accumulators and two
scratch vectors of _CHUNK doubles; a step runs the formulas above one
chunk of the vectors at a time, every temporary written into the
scratch, so each element sees the same operations in the same order as
a whole-vector step.  G and E are name -> view dicts over the
accumulators.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .network import Gradients, NetworkParams


def _check(p: NetworkParams, g: Gradients):
    """Before a step changes anything: ValueError on a gradient of the wrong
    shape, FloatingPointError naming the first non-finite one."""
    if any(getattr(p, n).shape != getattr(g, "d" + n).shape for n in "WbVc"):
        raise ValueError("gradient shape does not match parameters")
    if not np.isfinite(g.flat).all():
        name = next(n for n in "WbVc" if not np.isfinite(getattr(g, "d" + n)).all())
        raise FloatingPointError(f"non-finite gradient d{name}")


_CHUNK = 1 << 13  # doubles per chunk of a step: 64 KiB a scratch vector


def _buffers(opt, p: NetworkParams, count: int) -> np.ndarray:
    """opt's count accumulators of p.flat's size, zeros at the first step,
    when its scratch is allocated too.  Sgd has none, and its (0, size)
    array keeps the size that a later step must match."""
    if opt.buffers is None:
        opt.buffers = np.zeros((count, p.flat.size))
        opt.scratch = np.empty((2, min(p.flat.size, _CHUNK)))
    elif opt.buffers.shape[1] != p.flat.size:
        raise ValueError("the optimizer's state belongs to parameters of another size")
    return opt.buffers


def _chunks(opt, *vectors):
    """Per chunk of at most _CHUNK elements: the chunk of each vector, then
    opt's two scratch vectors cut to its length.  Vectors that fit one
    chunk are handed over whole, with scratch of their own length."""
    size = vectors[0].size
    if size <= _CHUNK:
        return ((*vectors, *opt.scratch),)
    return ((*(v[start:start + _CHUNK] for v in vectors), *opt.scratch[:, :min(_CHUNK, size - start)])
            for start in range(0, size, _CHUNK))


@dataclass
class Sgd:
    alpha: float = 0.1
    buffers: np.ndarray = field(default=None, init=False, repr=False, compare=False)
    scratch: np.ndarray = field(default=None, init=False, repr=False, compare=False)

    def step(self, p: NetworkParams, g: Gradients) -> None:
        _check(p, g)
        _buffers(self, p, 0)
        for theta, grad, u, _ in _chunks(self, p.flat, g.flat):
            theta -= np.multiply(self.alpha, grad, out=u)


@dataclass
class Adagrad:
    alpha: float = 0.01
    eps: float = 1e-8
    G: dict = field(default=None, repr=False)  # name -> view of the accumulator
    buffers: np.ndarray = field(default=None, init=False, repr=False, compare=False)
    scratch: np.ndarray = field(default=None, init=False, repr=False, compare=False)

    def step(self, p: NetworkParams, g: Gradients) -> None:
        _check(p, g)
        (acc,) = _buffers(self, p, 1)
        if self.G is None:
            self.G = dict(zip("WbVc", p.views(acc)))
        for theta, grad, G, u, v in _chunks(self, p.flat, g.flat, acc):
            G += np.multiply(grad, grad, out=u)
            np.multiply(self.alpha, grad, out=u)
            np.sqrt(np.add(G, self.eps, out=v), out=v)
            theta -= np.divide(u, v, out=u)


@dataclass
class Adadelta:
    rho: float = 0.95
    eps: float = 1e-6
    G: dict = field(default=None, repr=False)  # name -> view of the accumulator
    E: dict = field(default=None, repr=False)
    buffers: np.ndarray = field(default=None, init=False, repr=False, compare=False)
    scratch: np.ndarray = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 0.0 <= self.rho < 1.0:
            raise ValueError("rho must lie in [0, 1)")
        if self.eps <= 0:
            raise ValueError("eps must be positive")

    def step(self, p: NetworkParams, g: Gradients) -> None:
        _check(p, g)
        acc, eacc = _buffers(self, p, 2)
        if self.G is None:
            self.G, self.E = dict(zip("WbVc", p.views(acc))), dict(zip("WbVc", p.views(eacc)))
        rest = 1.0 - self.rho
        for theta, grad, G, E, u, v in _chunks(self, p.flat, g.flat, acc, eacc):
            G *= self.rho
            G += np.multiply(np.multiply(rest, grad, out=u), grad, out=u)
            np.sqrt(np.add(E, self.eps, out=u), out=u)
            np.sqrt(np.add(G, self.eps, out=v), out=v)
            update = np.multiply(np.divide(u, v, out=u), grad, out=u)
            theta -= update
            E *= self.rho
            E += np.multiply(np.multiply(rest, update, out=v), update, out=v)


# kind -> (class, the settings it takes); each class holds its defaults
OPTIMIZERS = {
    "sgd": (Sgd, ("alpha",)),
    "adagrad": (Adagrad, ("alpha", "eps")),
    "adadelta": (Adadelta, ("rho", "eps")),
}


def make_optimizer(kind: str, **settings):
    """A fresh optimizer of the given kind.  A setting given as None keeps
    the kind's default; one the kind does not take is ignored."""
    if kind not in OPTIMIZERS:
        raise ValueError(f"unknown optimizer {kind!r}")
    cls, takes = OPTIMIZERS[kind]
    return cls(**{k: v for k, v in settings.items() if k in takes and v is not None})
