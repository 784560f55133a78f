"""Distribution distances: CMD, raw-moment IPMs, polynomial and Gaussian
MMD, and covariance (CORAL) distance.

The central moment discrepancy between two samples is

    cmd(X, X') = sum_{j=1..k} a_j * ||c_j(X) - c_j(X')||_2

with c_1 the mean and c_j the order-j central moment vector.  The default
configuration (k=5, all weights 1, marginal monomials) is the one the
trainer uses on sigmoid activations.  The analytic variant evaluates the
same dual form on exact 1-D moments and backs the closed-form inequality
checks, alongside the raw-moment IPM |E[x^k] - E[x'^k]| and the
polynomial-kernel MMD whose raw-moment expansion makes those metrics
sensitive to mean shifts.  Every sample metric takes two dense or
SparseRowMatrix samples of equal width.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .moments import (
    MARGINAL,
    analytic_central_moment,
    analytic_mean,
    analytic_raw_moment,
    central_moments,
    monomial_matrix,
)
from .numerics import as_sample_pair

_NORM_EPS = 1e-12


@dataclass
class CmdConfig:
    k: int = 5
    weights: list = field(default_factory=list)  # empty = all ones
    mode: str = MARGINAL

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.weights and len(self.weights) != self.k:
            raise ValueError("need one weight per order 1..k")
        if any(w < 0 for w in self.weights):
            raise ValueError("weights must be nonnegative")

    def weight(self, j: int) -> float:
        return float(self.weights[j - 1]) if self.weights else 1.0


@dataclass
class DistanceReport:
    metric: str
    value: float
    terms: list = field(default_factory=list)  # per-order contributions (CMD)

    def to_dict(self) -> dict:
        return {"metric": self.metric, "value": self.value, "terms": list(self.terms)}


def cmd_estimate(src, tgt, cfg: CmdConfig | None = None) -> DistanceReport:
    """Empirical CMD between two samples of equal dimension."""
    cfg = cfg or CmdConfig()
    Xs, Xt = as_sample_pair(src, tgt)
    cs = central_moments(Xs, cfg.k, cfg.mode)
    ct = central_moments(Xt, cfg.k, cfg.mode)
    terms = []
    for j in range(1, cfg.k + 1):
        terms.append(cfg.weight(j) * float(np.linalg.norm(cs[j] - ct[j])))
    return DistanceReport("cmd", math.fsum(terms), terms)


def cmd_cotangents(As: np.ndarray, At: np.ndarray, cfg: CmdConfig):
    """(g_s, g_t): the gradient of the marginal cmd(As, At) with respect to
    each activation row, times that side's row count.

    With D = A - c_1 and u_j the unit vector along c_j(S) - c_j(T), the
    order-j term a_j ||c_j(S) - c_j(T)|| contributes coef_j * (D^{j-1} -
    mean D^{j-1}) with coef_j = j a_j u_j, and the opposite sign on the
    target side.  So each side is the polynomial sum_j coef_j D^{j-1},
    evaluated by Horner's rule, minus a constant built from the same
    central moments the distance reports: mean D^{j-1} is c_{j-1} for
    j >= 3 and mean(D) for j = 2.  A term whose moment gap has norm below
    1e-12 gets the zero subgradient at the norm's minimum.
    """
    if cfg.mode != MARGINAL:
        raise ValueError("cmd gradients are defined for marginal monomials only")
    cs, ct = central_moments(As, cfg.k), central_moments(At, cfg.k)
    coefs = []
    for j in range(1, cfg.k + 1):
        delta = cs[j] - ct[j]
        nrm = float(np.linalg.norm(delta))
        coefs.append(cfg.weight(j) * j * delta / nrm if nrm >= _NORM_EPS else np.zeros_like(delta))

    def side(A, c, coefs):
        D = A - c[1]
        acc, const = np.zeros_like(D), coefs[0]
        for j in range(cfg.k, 1, -1):
            acc += coefs[j - 1]
            acc *= D
            const = const - coefs[j - 1] * (D.mean(axis=0) if j == 2 else c[j - 1])
        acc += const
        return acc

    return side(As, cs, coefs), side(At, ct, [-u for u in coefs])


def cmd_analytic(d1, d2, cfg: CmdConfig | None = None) -> DistanceReport:
    """CMD dual form on exact moments of two 1-D analytic distributions."""
    cfg = cfg or CmdConfig()
    terms = [cfg.weight(1) * abs(analytic_mean(d1) - analytic_mean(d2))]
    for j in range(2, cfg.k + 1):
        terms.append(
            cfg.weight(j)
            * abs(analytic_central_moment(d1, j) - analytic_central_moment(d2, j))
        )
    return DistanceReport("cmd", math.fsum(terms), terms)


def raw_moment_ipm(d1, d2, k: int) -> float:
    """|E[x^k] - E[x'^k]| for 1-D analytic distributions: the IPM over the
    unit ball of order-k monomials, which carries the mean through powers."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return abs(analytic_raw_moment(d1, k) - analytic_raw_moment(d2, k))


def raw_moment_ipm_estimate(src, tgt, k: int) -> float:
    """Euclidean norm of the gap between the two samples' mean vectors of
    coordinatewise k-th powers: the sample side of raw_moment_ipm."""
    if k < 1:
        raise ValueError("k must be >= 1")
    Xs, Xt = as_sample_pair(src, tgt)
    gap = monomial_matrix(Xs, k).mean(axis=0) - monomial_matrix(Xt, k).mean(axis=0)
    return float(np.linalg.norm(gap))


def mmd_polynomial_analytic(d1, d2, degree: int) -> float:
    """Squared MMD with kernel (1 + x y)^degree on exact raw moments.

    Expanding the kernel gives sum_{i=1..degree} C(degree, i) *
    (E[x^i] - E[y^i])^2; the constant term cancels.
    """
    if degree < 1:
        raise ValueError("degree must be >= 1")
    total = 0.0
    for i in range(1, degree + 1):
        gap = analytic_raw_moment(d1, i) - analytic_raw_moment(d2, i)
        total += math.comb(degree, i) * gap * gap
    return total


def mmd_polynomial_estimate(src, tgt, degree: int) -> float:
    """Biased V-statistic estimate of squared MMD with the kernel
    (1 + x.y)^degree, clamped at 0 from below: the sample side of
    mmd_polynomial_analytic."""
    if degree < 1:
        raise ValueError("degree must be >= 1")
    Xs, Xt = as_sample_pair(src, tgt)

    def mean_kernel(A, B):
        return float(((1.0 + A @ B.T) ** degree).mean())

    value = mean_kernel(Xs, Xs) + mean_kernel(Xt, Xt) - 2.0 * mean_kernel(Xs, Xt)
    return max(0.0, value)


def mmd_gaussian_estimate(src, tgt, bandwidth: float) -> float:
    """Biased V-statistic estimate of squared MMD with the Gaussian kernel
    exp(-||x-y||^2 / (2 bandwidth^2)), clamped at 0 from below."""
    if bandwidth <= 0:
        raise ValueError("bandwidth must be positive")
    Xs, Xt = as_sample_pair(src, tgt)

    def mean_kernel(A, B):
        sq = (
            (A * A).sum(axis=1)[:, None]
            + (B * B).sum(axis=1)[None, :]
            - 2.0 * A @ B.T
        )
        np.maximum(sq, 0.0, out=sq)
        return float(np.exp(-sq / (2.0 * bandwidth * bandwidth)).mean())

    value = mean_kernel(Xs, Xs) + mean_kernel(Xt, Xt) - 2.0 * mean_kernel(Xs, Xt)
    return max(value, 0.0)


def coral_distance(src, tgt) -> float:
    """Frobenius norm of the difference of sample covariance matrices
    (divisor |X|, matching the moment-estimator convention used by
    cmd_estimate)."""
    Xs, Xt = as_sample_pair(src, tgt)

    def cov(X):
        centered = X - X.mean(axis=0)
        return centered.T @ centered / X.shape[0]

    return float(np.linalg.norm(cov(Xs) - cov(Xt), ord="fro"))
