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
Gradients.flat.  At its first step it allocates its accumulators and the
scratch that every temporary of a step is written into, in the operation
order of the formulas above; G and E are name -> view dicts over the
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


def _buffers(opt, p: NetworkParams, count: int) -> np.ndarray:
    """opt's count vectors of p.flat's size, zeros at the first step: its
    accumulators, then scratch for the temporaries of a step."""
    if opt.buffers is None:
        opt.buffers = np.zeros((count, p.flat.size))
    elif opt.buffers.shape[1] != p.flat.size:
        raise ValueError("the optimizer's state belongs to parameters of another size")
    return opt.buffers


@dataclass
class Sgd:
    alpha: float = 0.1
    buffers: np.ndarray = field(default=None, init=False, repr=False, compare=False)

    def step(self, p: NetworkParams, g: Gradients) -> None:
        _check(p, g)
        (u,) = _buffers(self, p, 1)
        p.flat -= np.multiply(self.alpha, g.flat, out=u)


@dataclass
class Adagrad:
    alpha: float = 0.01
    eps: float = 1e-8
    G: dict = field(default=None, repr=False)  # name -> view of the accumulator
    buffers: np.ndarray = field(default=None, init=False, repr=False, compare=False)

    def step(self, p: NetworkParams, g: Gradients) -> None:
        _check(p, g)
        acc, u, v = _buffers(self, p, 3)
        if self.G is None:
            self.G = dict(zip("WbVc", p.views(acc)))
        grad = g.flat
        acc += np.multiply(grad, grad, out=u)
        np.multiply(self.alpha, grad, out=u)
        np.sqrt(np.add(acc, self.eps, out=v), out=v)
        p.flat -= np.divide(u, v, out=u)


@dataclass
class Adadelta:
    rho: float = 0.95
    eps: float = 1e-6
    G: dict = field(default=None, repr=False)  # name -> view of the accumulator
    E: dict = field(default=None, repr=False)
    buffers: np.ndarray = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 0.0 <= self.rho < 1.0:
            raise ValueError("rho must lie in [0, 1)")
        if self.eps <= 0:
            raise ValueError("eps must be positive")

    def step(self, p: NetworkParams, g: Gradients) -> None:
        _check(p, g)
        acc, eacc, u, v = _buffers(self, p, 4)
        if self.G is None:
            self.G, self.E = dict(zip("WbVc", p.views(acc))), dict(zip("WbVc", p.views(eacc)))
        rest, grad = 1.0 - self.rho, g.flat
        acc *= self.rho
        acc += np.multiply(np.multiply(rest, grad, out=u), grad, out=u)
        np.sqrt(np.add(eacc, self.eps, out=u), out=u)
        np.sqrt(np.add(acc, self.eps, out=v), out=v)
        update = np.multiply(np.divide(u, v, out=u), grad, out=u)
        p.flat -= update
        eacc *= self.rho
        eacc += np.multiply(np.multiply(rest, update, out=v), update, out=v)


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
