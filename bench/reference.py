"""Reference computations that the benchmark checks momentalign against.

Everything here is written from the definitions and imports nothing
from the package: the two-layer network (sigmoid hidden layer, softmax
output), cross-entropy, accuracy, empirical central moments and the
central moment discrepancy, exact moments of the appendix fixture
distributions in rational arithmetic, and the closed-form central
moments of normal distributions with the sampling variance of their
estimators.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

# The package clamps probabilities at this value before taking the log.
LOG_CLAMP = 1e-12


def forward(params: dict, X: np.ndarray):
    """(hidden, outputs) of h0 = sigm(W x + b), h = softmax(V h0 + c)."""
    W, b, V, c = (np.asarray(params[key], dtype=np.float64) for key in "WbVc")
    with np.errstate(over="ignore"):
        hidden = 1.0 / (1.0 + np.exp(-(X @ W.T + b)))
    logits = hidden @ V.T + c
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    return hidden, e / e.sum(axis=1, keepdims=True)


def cross_entropy(outputs: np.ndarray, Y: np.ndarray) -> float:
    """Mean over rows of -log p(correct label)."""
    picked = (np.asarray(Y, dtype=np.float64) * outputs).sum(axis=1)
    return float(-np.log(np.maximum(picked, LOG_CLAMP)).mean())


def accuracy(outputs: np.ndarray, Y: np.ndarray) -> float:
    return float((outputs.argmax(axis=1) == np.asarray(Y).argmax(axis=1)).mean())


def _degree_monomials(m: int, j: int, full: bool):
    """Column-index multisets of the degree-j monomials: pure powers
    only, or every monomial when full."""
    if full:
        return list(itertools.combinations_with_replacement(range(m), j))
    return [(i,) * j for i in range(m)]


def central_moments(X: np.ndarray, k: int, full: bool = False) -> list:
    """[c_1, ..., c_k]: c_1 the mean, c_j the mean of the degree-j
    monomials of the centered sample, each power a product of columns."""
    X = np.asarray(X, dtype=np.float64)
    mean = X.sum(axis=0) / X.shape[0]
    D = X - mean
    out = [mean]
    for j in range(2, k + 1):
        cols = []
        for mono in _degree_monomials(X.shape[1], j, full):
            prod = D[:, mono[0]].copy()
            for i in mono[1:]:
                prod *= D[:, i]
            cols.append(prod.sum() / X.shape[0])
        out.append(np.array(cols))
    return out


def cmd(X: np.ndarray, Y: np.ndarray, k: int = 5, full: bool = False):
    """(value, terms) of sum_j ||c_j(X) - c_j(Y)||_2 with unit weights."""
    cx, cy = central_moments(X, k, full), central_moments(Y, k, full)
    terms = [math.sqrt(float(((a - b) ** 2).sum())) for a, b in zip(cx, cy)]
    return math.fsum(terms), terms


def rel_close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


# ---------------------------------------------------------------------------
# Normal distributions: closed-form central moments and estimator spread
# ---------------------------------------------------------------------------


def normal_central_moment(sigma: float, r: int) -> float:
    """E[(x - mu)^r] for x ~ Normal(mu, sigma): sigma^r (r-1)!! for even r."""
    if r % 2:
        return 0.0
    return sigma ** r * math.prod(range(r - 1, 0, -2))


def monomial_central_moment(sigmas, mono) -> float:
    """Central moment of a monomial of independent normal features."""
    powers = [mono.count(i) for i in range(len(sigmas))]
    return math.prod(normal_central_moment(s, r) for s, r in zip(sigmas, powers))


def monomial_estimator_variance(sigmas, mono) -> float:
    """n times the asymptotic variance of the sample central moment of a
    monomial of independent normal features, the sample mean standing in
    for the true one (variance of its influence function)."""
    r = [mono.count(i) for i in range(len(sigmas))]
    mu = normal_central_moment

    def prod_except(i, shift):
        return math.prod(
            mu(s, ri + (shift if l == i else 0)) for l, (s, ri) in enumerate(zip(sigmas, r))
        )

    var = math.prod(mu(s, 2 * ri) for s, ri in zip(sigmas, r)) - math.prod(
        mu(s, ri) for s, ri in zip(sigmas, r)
    ) ** 2
    for i, s in enumerate(sigmas):
        if r[i] == 0:
            continue
        a = r[i] * prod_except(i, -1)
        var += -2.0 * a * prod_except(i, +1) + a * a * s * s
    return var


def normal_cmd_terms(mus_x, sigmas_x, mus_y, sigmas_y, k: int, full: bool = False):
    """Closed-form CMD terms between two products of independent normals.

    Returns one (term, var_x, var_y) per order: var_x / n_x + var_y / n_y
    is the expected squared norm of the sampling error of the empirical
    moment-difference vector, which bounds the error of its norm."""
    m = len(mus_x)
    out = [(
        math.sqrt(sum((a - b) ** 2 for a, b in zip(mus_x, mus_y))),
        sum(s * s for s in sigmas_x),
        sum(s * s for s in sigmas_y),
    )]
    for j in range(2, k + 1):
        monos = _degree_monomials(m, j, full)
        gap = [monomial_central_moment(sigmas_x, mo) - monomial_central_moment(sigmas_y, mo)
               for mo in monos]
        out.append((
            math.sqrt(sum(g * g for g in gap)),
            sum(monomial_estimator_variance(sigmas_x, mo) for mo in monos),
            sum(monomial_estimator_variance(sigmas_y, mo) for mo in monos),
        ))
    return out


# ---------------------------------------------------------------------------
# Exact rational moments of the appendix fixture distributions
# ---------------------------------------------------------------------------


def beta_raw_moment(alpha: Fraction, beta: Fraction, n: int) -> Fraction:
    """E[Y^n] for Y ~ Beta(alpha, beta): prod_{r<n} (alpha+r)/(alpha+beta+r)."""
    alpha, beta, out = Fraction(alpha), Fraction(beta), Fraction(1)
    for r in range(n):
        out *= (alpha + r) / (alpha + beta + r)
    return out


def affine_beta_raw_moment(alpha, beta, scale, shift, n: int) -> Fraction:
    """E[(scale*Y + shift)^n] by the binomial expansion."""
    return sum(
        math.comb(n, i) * scale ** i * shift ** (n - i) * beta_raw_moment(alpha, beta, i)
        for i in range(n + 1)
    )


def normal_raw_moment(mu: Fraction, sigma: Fraction, n: int) -> Fraction:
    """E[(mu + sigma Z)^n], Z standard normal: E[Z^i] = (i-1)!! for even i."""
    return sum(
        math.comb(n, i) * mu ** (n - i) * sigma ** i * math.prod(range(i - 1, 0, -2))
        for i in range(0, n + 1, 2)
    )


def poly_mmd_sq(raw_x, raw_y, degree: int) -> Fraction:
    """Squared MMD under the kernel (1 + x y)^degree, from raw moments
    given as functions of the order.  Expanding the kernel,
    E k(x, x') = sum_i C(d, i) E[x^i]^2, so the three kernel means
    collapse to sum_i C(d, i) (E[x^i] - E[y^i])^2."""
    return sum(
        math.comb(degree, i) * (raw_x(i) - raw_y(i)) ** 2 for i in range(1, degree + 1)
    )
