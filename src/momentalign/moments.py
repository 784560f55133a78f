"""Monomial features, empirical central moments, and exact moment oracles.

Two monomial layouts are supported.  Full mode enumerates every degree-k
monomial x_1^{r_1}...x_m^{r_m} in lexicographically descending exponent
order, e.g. for m=2, k=3: (x1^3, x1^2 x2, x1 x2^2, x2^3).  Marginal mode
keeps only the pure powers (x_1^k, ..., x_m^k), which is what the trainer
and the empirical distance use.

The analytic side provides exact raw and central moments for two 1-D
distribution kinds: Normal(mu, sigma) and AffineBeta(alpha, beta, scale,
shift), the latter being scale*Y + shift for Y ~ Beta(alpha, beta).  These
are the oracles behind the closed-form distance checks.  Sampling from
AffineBeta goes through the regularized incomplete beta function (Lentz
continued fraction) inverted by bisection, so no external statistics
dependency is needed and draws are reproducible from a SeededRng.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .numerics import as_sample, check_count

FULL = "full"
MARGINAL = "marginal"


def _check_monomials(k, mode: str):
    """ValueError unless k is a monomial order and mode a monomial layout."""
    check_count(k, "k")
    if mode not in (FULL, MARGINAL):
        raise ValueError(f"unknown monomial mode {mode!r}")


@lru_cache(maxsize=None, typed=True)  # typed: True, unlike 1, is checked and rejected
def monomial_exponents(m: int, k: int) -> tuple[tuple[int, ...], ...]:
    """All exponent tuples (r_1..r_m) with r_i >= 0 summing to k, in
    lexicographically descending order."""
    check_count(m, "m")
    check_count(k, "k")

    def rec(remaining: int, slots: int):
        if slots == 1:
            yield (remaining,)
            return
        for first in range(remaining, -1, -1):
            for rest in rec(remaining - first, slots - 1):
                yield (first,) + rest

    return tuple(rec(k, m))


@lru_cache(maxsize=None)
def _degree_step(m: int, j: int) -> tuple[np.ndarray, np.ndarray]:
    """Per degree-j monomial: the column of its degree-(j-1) parent and the
    variable (its last nonzero exponent) that raises the parent to it."""
    lower = {e: col for col, e in enumerate(monomial_exponents(m, j - 1))}
    parent, var = [], []
    for e in monomial_exponents(m, j):
        i = max(v for v in range(m) if e[v])
        parent.append(lower[e[:i] + (e[i] - 1,) + e[i + 1:]])
        var.append(i)
    parent, var = np.array(parent), np.array(var)
    parent.flags.writeable = var.flags.writeable = False  # shared by the cache
    return parent, var


def _running_monomials(X: np.ndarray, k: int, mode: str, axis: int = -1):
    """Yield the degree-j monomial matrices of X for j = 2..k as running
    products (x^3 = x*x*x, never a generic pow), the monomials along axis
    (-1 for rows of shape (..., n, m), -2 for the transposed (..., m, n)).
    Marginal mode reuses one array in place, so a consumer must read each
    matrix before the next."""
    M = X
    for j in range(2, k + 1):
        if mode == MARGINAL:
            M = X * X if j == 2 else np.multiply(M, X, out=M)
        else:
            parent, var = _degree_step(X.shape[axis], j)
            M = np.take(M, parent, axis=axis) * np.take(X, var, axis=axis)
        yield M


def monomial_matrix(X: np.ndarray, k: int, mode: str = MARGINAL) -> np.ndarray:
    """Rowwise monomial vectors for a whole sample, shape (n, n_monomials)."""
    _check_monomials(k, mode)
    X = np.asarray(X, dtype=np.float64)
    M = X.copy()
    for M in _running_monomials(X, k, mode):
        pass
    return M


@dataclass
class CentralMomentVector:
    """c[1] is the mean vector; c[j] for j >= 2 is the mean monomial
    vector of the centered sample. Access 1-based via vec[j]."""

    k: int
    mode: str
    orders: list  # orders[j-1] = c_j

    def __getitem__(self, j: int) -> np.ndarray:
        if not 1 <= j <= self.k:
            raise IndexError(f"order {j} outside 1..{self.k}")
        return self.orders[j - 1]


_BLOCK = 1 << 15  # doubles per block of one sample: 256 KiB, well inside L2
_MIN_ROWS = 8  # a very wide sample still takes this many rows per block


def _stacked_central_moments(S: np.ndarray, k: int, mode: str) -> list:
    """c_1..c_k of every sample in a stack S of shape (g, n, m) at once;
    orders[j-1] has shape (g, n_monomials).

    Two passes over row blocks of at most _BLOCK values per sample of the
    widest monomial matrix, order k's (m columns in marginal mode,
    comb(m + k - 1, k) in full mode), but _MIN_ROWS rows at least, read
    along the block's longer side through one scratch buffer.  A narrow
    block (m < rows) is transposed, so each feature's rows are contiguous
    and summed pairwise; a wide one keeps its rows, summed one after
    another.  Pass 1 sums the blocks to c_1, each copied into the buffer
    unless it already has the buffer's layout (a wide block of a
    row-major stack).  Pass 2 writes each centred block into the buffer
    (a sample of one block copied there in pass 1 is centred where it
    lies) and sums its running products per order.  Block sums are
    added in row order and c_j = sum / n.  The order of every sum
    depends only on (n, m, k, mode), not on the memory layout of S, so
    each sample's moments are bit for bit those of the sample on its own.
    S itself is never written."""
    g, n, m = S.shape
    widest = m if mode == MARGINAL else math.comb(m + k - 1, k)  # monomials of order k
    rows = min(n, max(_MIN_ROWS, _BLOCK // max(widest, 1)))
    narrow = m < rows
    axis = -1 if narrow else -2  # the rows of the scratch buffer
    buf = np.empty((g, m, rows) if narrow else (g, rows, m))

    def blocks():
        for r0 in range(0, n, rows):
            view = S[:, r0:r0 + rows]
            r = view.shape[1]
            yield (view.transpose(0, 2, 1), buf[..., :r]) if narrow else (view, buf[:, :r])

    def add(total, block_sum):
        return block_sum if total is None else np.add(total, block_sum, out=total)

    total = None
    for view, scratch in blocks():
        if view.strides[1:] != scratch.strides[1:]:  # narrow, or not row-major
            np.copyto(scratch, view)
            view = scratch
        total = add(total, np.add.reduce(view, axis=axis))
    c1 = total / n
    centre = c1[:, :, None] if narrow else c1[:, None]
    kept = rows == n and view is scratch  # the one block, still in the buffer
    totals = [None] * (k - 1)
    for view, scratch in blocks():
        D = np.subtract(scratch if kept else view, centre, out=scratch)
        for j, M in enumerate(_running_monomials(D, k, mode, -2 if narrow else -1)):
            totals[j] = add(totals[j], np.add.reduce(M, axis=axis))
    return [c1] + [t / n for t in totals]


def central_moments(features, k: int, mode: str = MARGINAL) -> CentralMomentVector:
    """Empirical central moment vector c_1..c_k of a sample.

    c_1 is the sample mean; c_j = mean over rows of nu^(j)(x - c_1), each
    sum taken blockwise in the order _stacked_central_moments documents.
    This is the one-sample case of that stacked kernel, which the
    prop-bound verifier runs on whole groups of equally shaped samples.
    k and mode are checked here; the kernel trusts them, as it trusts CmdConfig.
    """
    _check_monomials(k, mode)
    X = as_sample(features)
    return CentralMomentVector(k, mode, [c[0] for c in _stacked_central_moments(X[None], k, mode)])


# ---------------------------------------------------------------------------
# Analytic 1-D distributions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Normal:
    mu: float
    sigma: float

    def __post_init__(self):
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")


@dataclass(frozen=True)
class AffineBeta:
    """scale * Y + shift with Y ~ Beta(alpha, beta)."""

    alpha: float
    beta: float
    scale: float = 1.0
    shift: float = 0.0

    def __post_init__(self):
        if self.alpha <= 0 or self.beta <= 0:
            raise ValueError("beta shape parameters must be positive")


def _beta_raw_moment(alpha: float, beta: float, n: int) -> float:
    # E[Y^n] = prod_{r=0}^{n-1} (alpha+r)/(alpha+beta+r)
    out = 1.0
    for r in range(n):
        out *= (alpha + r) / (alpha + beta + r)
    return out


def _double_factorial(n: int) -> float:
    out = 1.0
    while n > 1:
        out *= n
        n -= 2
    return out


def analytic_mean(d) -> float:
    if isinstance(d, Normal):
        return d.mu
    if isinstance(d, AffineBeta):
        return d.scale * (d.alpha / (d.alpha + d.beta)) + d.shift
    raise TypeError(f"unsupported distribution {type(d).__name__}")


def analytic_raw_moment(d, n: int) -> float:
    """Exact E[X^n] for a supported 1-D distribution."""
    check_count(n, "moment order", 0)
    if n == 0:
        return 1.0
    if isinstance(d, Normal):
        # binomial expansion of (mu + sigma Z)^n over standard normal moments
        total = 0.0
        for i in range(0, n + 1, 2):
            total += (
                math.comb(n, i)
                * d.mu ** (n - i)
                * d.sigma ** i
                * _double_factorial(i - 1)
            )
        return total
    if isinstance(d, AffineBeta):
        total = 0.0
        for i in range(n + 1):
            total += (
                math.comb(n, i)
                * d.scale ** i
                * d.shift ** (n - i)
                * _beta_raw_moment(d.alpha, d.beta, i)
            )
        return total
    raise TypeError(f"unsupported distribution {type(d).__name__}")


def analytic_central_moment(d, n: int) -> float:
    """Exact E[(X - E[X])^n].

    Shift parameters never enter: central moments are computed in the
    shifted-free frame, so two AffineBeta distributions differing only in
    shift report bitwise equal values.
    """
    check_count(n, "central moment order", 2)
    if isinstance(d, Normal):
        if n % 2 == 1:
            return 0.0
        return d.sigma ** n * _double_factorial(n - 1)
    if isinstance(d, AffineBeta):
        mean = d.alpha / (d.alpha + d.beta)
        total = 0.0
        for i in range(n + 1):
            total += (
                math.comb(n, i)
                * _beta_raw_moment(d.alpha, d.beta, i)
                * (-mean) ** (n - i)
            )
        return d.scale ** n * total
    raise TypeError(f"unsupported distribution {type(d).__name__}")


# ---------------------------------------------------------------------------
# Regularized incomplete beta and AffineBeta sampling
# ---------------------------------------------------------------------------


def _log_beta(a: float, b: float) -> float:
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


def _betacf(a: float, b: float, x: np.ndarray) -> np.ndarray:
    """Continued fraction for the incomplete beta (modified Lentz),
    vectorized over x. Converges in a few dozen iterations for the
    parameter ranges used here; 200 iterations is generous."""
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = np.ones_like(x)
    d = 1.0 - qab * x / qap
    d = np.where(np.abs(d) < tiny, tiny, d)
    d = 1.0 / d
    h = d.copy()
    for m in range(1, 201):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        d = np.where(np.abs(d) < tiny, tiny, d)
        c = 1.0 + aa / c
        c = np.where(np.abs(c) < tiny, tiny, c)
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        d = np.where(np.abs(d) < tiny, tiny, d)
        c = 1.0 + aa / c
        c = np.where(np.abs(c) < tiny, tiny, c)
        d = 1.0 / d
        delta = d * c
        h *= delta
        if np.all(np.abs(delta - 1.0) < 1e-15):
            break
    return h


def betainc(a: float, b: float, x) -> np.ndarray:
    """Regularized incomplete beta function I_x(a, b), vectorized."""
    if a <= 0 or b <= 0:
        raise ValueError("shape parameters must be positive")
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    if np.any((x < 0) | (x > 1)):
        raise ValueError("x must lie in [0, 1]")
    ln_b = _log_beta(a, b)
    with np.errstate(divide="ignore", invalid="ignore"):
        front = np.exp(a * np.log(x) + b * np.log1p(-x) - ln_b)
    front = np.where((x == 0.0) | (x == 1.0), 0.0, front)
    # continued fraction converges fast for x below the pivot; use the
    # symmetry I_x(a,b) = 1 - I_{1-x}(b,a) above it
    pivot = (a + 1.0) / (a + b + 2.0)
    lo = np.where(x < pivot, x, 0.5 * pivot)  # placeholder args stay in range
    hi = np.where(x < pivot, 0.5 * pivot, x)
    direct = front * _betacf(a, b, lo) / a
    flipped = 1.0 - front * _betacf(b, a, 1.0 - hi) / b
    out = np.where(x < pivot, direct, flipped)
    out = np.where(x == 0.0, 0.0, out)
    out = np.where(x == 1.0, 1.0, out)
    return np.clip(out, 0.0, 1.0)


def beta_ppf(u, alpha: float, beta: float, iterations: int = 80) -> np.ndarray:
    """Inverse CDF of Beta(alpha, beta) by bisection on betainc.

    80 halvings pin the root to ~1e-24 absolute, far below the sampling
    noise any consumer of these draws can see.
    """
    u = np.atleast_1d(np.asarray(u, dtype=np.float64))
    if np.any((u < 0) | (u > 1)):
        raise ValueError("u must lie in [0, 1]")
    lo = np.zeros_like(u)
    hi = np.ones_like(u)
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        below = betainc(alpha, beta, mid) < u
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


def sample_analytic(d, n: int, rng) -> np.ndarray:
    """Draw n points from a supported distribution using a SeededRng."""
    if isinstance(d, Normal):
        return d.mu + d.sigma * rng.normals(n)
    if isinstance(d, AffineBeta):
        return d.scale * beta_ppf(rng.uniforms(n), d.alpha, d.beta) + d.shift
    raise TypeError(f"unsupported distribution {type(d).__name__}")
