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
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .network import Gradients, NetworkParams


def _zeros_like_params(p: NetworkParams):
    return {name: np.zeros_like(getattr(p, name)) for name in "WbVc"}


def _pairs(p: NetworkParams, g: Gradients):
    """(name, parameter, its gradient) for W, b, V and c."""
    return tuple((name, getattr(p, name), getattr(g, "d" + name)) for name in "WbVc")


def _check(p: NetworkParams, g: Gradients):
    """Before a step changes anything: ValueError on a gradient of the wrong
    shape, FloatingPointError naming the first non-finite one."""
    for name, arr, grad in _pairs(p, g):
        if arr.shape != grad.shape:
            raise ValueError("gradient shape does not match parameters")
        if not np.all(np.isfinite(grad)):
            raise FloatingPointError(f"non-finite gradient d{name}")


@dataclass
class Sgd:
    alpha: float = 0.1

    def step(self, p: NetworkParams, g: Gradients) -> None:
        _check(p, g)
        for _, arr, grad in _pairs(p, g):
            arr -= self.alpha * grad


@dataclass
class Adagrad:
    alpha: float = 0.01
    eps: float = 1e-8
    G: dict = field(default=None, repr=False)

    def step(self, p: NetworkParams, g: Gradients) -> None:
        _check(p, g)
        if self.G is None:
            self.G = _zeros_like_params(p)
        for name, arr, grad in _pairs(p, g):
            acc = self.G[name]
            acc += grad * grad
            arr -= self.alpha * grad / np.sqrt(acc + self.eps)


@dataclass
class Adadelta:
    rho: float = 0.95
    eps: float = 1e-6
    G: dict = field(default=None, repr=False)
    E: dict = field(default=None, repr=False)
    # two buffers per parameter array for the temporaries of a step
    scratch: dict = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 0.0 <= self.rho < 1.0:
            raise ValueError("rho must lie in [0, 1)")
        if self.eps <= 0:
            raise ValueError("eps must be positive")

    def step(self, p: NetworkParams, g: Gradients) -> None:
        _check(p, g)
        if self.G is None:
            self.G = _zeros_like_params(p)
            self.E = _zeros_like_params(p)
            self.scratch = {name: (np.empty_like(a), np.empty_like(a)) for name, a in self.G.items()}
        rest = 1.0 - self.rho
        for name, arr, grad in _pairs(p, g):
            acc, eacc = self.G[name], self.E[name]
            u, v = self.scratch[name]
            # the module docstring's updates in their operation order, each
            # temporary written into u or v
            acc *= self.rho
            acc += np.multiply(np.multiply(rest, grad, out=u), grad, out=u)
            np.sqrt(np.add(eacc, self.eps, out=u), out=u)
            np.sqrt(np.add(acc, self.eps, out=v), out=v)
            update = np.multiply(np.divide(u, v, out=u), grad, out=u)
            arr -= update
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
