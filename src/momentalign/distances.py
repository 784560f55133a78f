"""Distribution distances: CMD, raw-moment IPMs, polynomial and Gaussian
MMD, and covariance (CORAL) distance.

The central moment discrepancy between two samples is

    cmd(X, X') = sum_{j=1..k} ||c_j(X) - c_j(X')||_2

with c_1 the mean and c_j the order-j central moment vector.  Every order
weighs 1, the weight 1/|b-a|^j of the activations' interval [a, b] = [0, 1].
The default configuration (k=5, marginal monomials) is the one the trainer
uses on sigmoid activations.  The analytic variant evaluates the
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
    CentralMomentVector,
    _check_monomials,
    _stacked_central_moments,
    analytic_central_moment,
    analytic_mean,
    analytic_raw_moment,
    monomial_matrix,
)
from .numerics import as_sample_pair, check_count

_NORM_EPS = 1e-12


@dataclass(frozen=True)  # checked once, when built
class CmdConfig:
    k: int = 5
    mode: str = MARGINAL

    def __post_init__(self):
        _check_monomials(self.k, self.mode)


@dataclass
class DistanceReport:
    metric: str
    value: float
    terms: list = field(default_factory=list)  # per-order contributions (CMD)
    # the moment pass of a one-pair CMD estimate, which cmd_cotangents reuses
    moments: MomentGap | None = field(default=None, repr=False, compare=False)

    def to_dict(self) -> dict:
        return {"metric": self.metric, "value": self.value, "terms": list(self.terms)}


@dataclass
class MomentGap:
    """One moment pass over two stacks of g dense samples, S of shape
    (g, ns, m) and T of shape (g, nt, m): c_1..c_k of every sample, each
    order of shape (g, n_monomials), and the per-order gap norms
    ||c_j(S[i]) - c_j(T[i])||, shape (g, k).  A norm is sqrt(vecdot(d, d)),
    bit for bit np.linalg.norm of the gap d.  The CMD's terms and its
    cotangents are both read off this pass."""

    source: CentralMomentVector
    target: CentralMomentVector
    norms: np.ndarray

    @classmethod
    def of(cls, S: np.ndarray, T: np.ndarray, cfg: CmdConfig) -> "MomentGap":
        cs = CentralMomentVector(cfg.k, cfg.mode, _stacked_central_moments(S, cfg.k, cfg.mode))
        ct = CentralMomentVector(cfg.k, cfg.mode, _stacked_central_moments(T, cfg.k, cfg.mode))
        if cfg.mode == MARGINAL:  # every order has width m: one (k, g, m) gap
            d = np.subtract(cs.orders, ct.orders)
            return cls(cs, ct, np.sqrt(np.vecdot(d, d)).T)
        norms = np.empty((S.shape[0], cfg.k))
        for j in range(1, cfg.k + 1):
            d = cs[j] - ct[j]
            norms[:, j - 1] = np.sqrt(np.vecdot(d, d))
        return cls(cs, ct, norms)

    def reports(self, cfg: CmdConfig) -> list:
        """The cmd DistanceReport of every pair; the report of a single
        pair keeps this pass."""
        keep = self if len(self.norms) == 1 else None
        return [DistanceReport("cmd", math.fsum(t), t, keep) for t in self.norms.tolist()]


def cmd_estimate(src, tgt, cfg: CmdConfig | None = None) -> DistanceReport:
    """Empirical CMD between two samples of equal dimension: the one-pair
    case of MomentGap."""
    cfg = cfg or CmdConfig()
    Xs, Xt = as_sample_pair(src, tgt)
    return MomentGap.of(Xs[None], Xt[None], cfg).reports(cfg)[0]


def cmd_cotangents(As: np.ndarray, At: np.ndarray, cfg: CmdConfig,
                   moments: MomentGap | None = None):
    """(g_s, g_t): the gradient of the marginal cmd(As, At) with respect to
    each activation row, times that side's row count.  moments, the
    MomentGap of As and At themselves (a cmd_estimate report keeps it),
    spares the moment pass.

    With D = A - c_1 and u_j the unit vector along c_j(S) - c_j(T), the
    order-j term ||c_j(S) - c_j(T)|| contributes coef_j * (D^{j-1} -
    mean D^{j-1}) with coef_j = j u_j, and the opposite sign on the
    target side.  So each side is the polynomial sum_j coef_j D^{j-1},
    evaluated by Horner's rule, minus a constant built from the same
    central moments the distance reports: mean D^{j-1} is c_{j-1} for
    j >= 3 and mean(D) for j = 2.  A term whose moment gap has norm below
    1e-12 gets the zero subgradient at the norm's minimum.
    """
    if cfg.mode != MARGINAL:
        raise ValueError("cmd gradients are defined for marginal monomials only")
    if moments is None:
        Xs, Xt = as_sample_pair(As, At)
        moments = MomentGap.of(Xs[None], Xt[None], cfg)
    cs, ct = moments.source.orders, moments.target.orders  # c_j = cs[j - 1], shape (1, m)
    coefs = []
    for j, s, t, nrm in zip(range(1, cfg.k + 1), cs, ct, moments.norms[0].tolist()):
        coefs.append(j * (s - t) / nrm if nrm >= _NORM_EPS else np.zeros_like(s))

    def side(A, c, coefs):
        D = A - c[0]
        acc, const = np.zeros_like(D), coefs[0]
        for j in range(cfg.k, 1, -1):
            acc += coefs[j - 1]
            acc *= D
            const = const - coefs[j - 1] * (D.mean(axis=0) if j == 2 else c[j - 2])
        acc += const
        return acc

    return side(As, cs, coefs), side(At, ct, [-u for u in coefs])


def cmd_analytic(d1, d2, cfg: CmdConfig | None = None) -> DistanceReport:
    """CMD dual form on exact moments of two 1-D analytic distributions."""
    cfg = cfg or CmdConfig()
    terms = [float(abs(analytic_mean(d1) - analytic_mean(d2)))]  # a Normal's mean may be an int
    for j in range(2, cfg.k + 1):
        terms.append(abs(analytic_central_moment(d1, j) - analytic_central_moment(d2, j)))
    return DistanceReport("cmd", math.fsum(terms), terms)


def raw_moment_ipm(d1, d2, k: int) -> float:
    """|E[x^k] - E[x'^k]| for 1-D analytic distributions: the IPM over the
    unit ball of order-k monomials, which carries the mean through powers."""
    check_count(k, "k")
    return abs(analytic_raw_moment(d1, k) - analytic_raw_moment(d2, k))


def raw_moment_ipm_estimate(src, tgt, k: int) -> float:
    """Euclidean norm of the gap between the two samples' mean vectors of
    coordinatewise k-th powers: the sample side of raw_moment_ipm."""
    check_count(k, "k")
    Xs, Xt = as_sample_pair(src, tgt)
    gap = monomial_matrix(Xs, k).mean(axis=0) - monomial_matrix(Xt, k).mean(axis=0)
    return float(np.linalg.norm(gap))


def mmd_polynomial_analytic(d1, d2, degree: int) -> float:
    """Squared MMD with kernel (1 + x y)^degree on exact raw moments.

    Expanding the kernel gives sum_{i=1..degree} C(degree, i) *
    (E[x^i] - E[y^i])^2; the constant term cancels.
    """
    check_count(degree, "degree")
    total = 0.0
    for i in range(1, degree + 1):
        gap = analytic_raw_moment(d1, i) - analytic_raw_moment(d2, i)
        total += math.comb(degree, i) * gap * gap
    return total


def _mmd_v_statistic(src, tgt, kernel) -> float:
    """Biased V-statistic estimate of squared MMD, clamped at 0 from below
    (a NaN stays NaN); kernel(A, B) is the kernel's matrix over the row
    pairs of A and B."""
    Xs, Xt = as_sample_pair(src, tgt)

    def mean_kernel(A, B):
        return float(kernel(A, B).mean())

    value = mean_kernel(Xs, Xs) + mean_kernel(Xt, Xt) - 2.0 * mean_kernel(Xs, Xt)
    return max(value, 0.0)


def mmd_polynomial_estimate(src, tgt, degree: int) -> float:
    """The MMD V-statistic with the kernel (1 + x.y)^degree: the sample side
    of mmd_polynomial_analytic."""
    check_count(degree, "degree")
    return _mmd_v_statistic(src, tgt, lambda A, B: (1.0 + A @ B.T) ** degree)


def mmd_gaussian_estimate(src, tgt, bandwidth: float) -> float:
    """The MMD V-statistic with the Gaussian kernel
    exp(-||x-y||^2 / (2 bandwidth^2))."""
    if not (math.isfinite(bandwidth) and bandwidth > 0):
        raise ValueError(f"bandwidth must be positive and finite, got {bandwidth}")

    def kernel(A, B):
        sq = (
            (A * A).sum(axis=1)[:, None]
            + (B * B).sum(axis=1)[None, :]
            - 2.0 * A @ B.T
        )
        np.maximum(sq, 0.0, out=sq)
        return np.exp(-sq / (2.0 * bandwidth * bandwidth))

    return _mmd_v_statistic(src, tgt, kernel)


def coral_distance(src, tgt) -> float:
    """Frobenius norm of the difference of sample covariance matrices
    (divisor |X|, matching the moment-estimator convention used by
    cmd_estimate)."""
    Xs, Xt = as_sample_pair(src, tgt)

    def cov(X):
        centered = X - X.mean(axis=0)
        return centered.T @ centered / X.shape[0]

    return float(np.linalg.norm(cov(Xs) - cov(Xt), ord="fro"))
