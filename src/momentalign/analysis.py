"""Statistical checks around the distance: two-sample KS tests, per-node
alignment reports, moment-bound verification, characteristic-function
bound verification, dual-form agreement, and the (k, lambda) sensitivity
sweep.

Bound checks share one shape: a BoundCheck holds the measured left side,
the guaranteed right side, and their slack.  A check passes when slack
is nonnegative up to the stated tolerance, so a red result is always a
genuine violation of the inequality, never a formatting artifact.
"""

from __future__ import annotations

import math
import reprlib
from dataclasses import asdict, dataclass, replace

import numpy as np

from .distances import CmdConfig, MomentGap, cmd_estimate
from .moments import FULL, central_moments, monomial_matrix
from .network import NetworkParams, forward
from .numerics import SeededRng, _is_json, as_sample_pair, check_count
from .trainer import TrainConfig, train

__all__ = [
    "KsResult",
    "BoundCheck",
    "SweepCell",
    "ks_two_sample",
    "alignment_report",
    "prop1_bound",
    "prop1_check",
    "thm3_check",
    "dual_equivalence_check",
    "sweep_grid",
    "sensitivity_sweep",
    "write_sweep_csv",
]

_KS_LEVEL = 1e-2  # the significance level of every KS test: 1%


@dataclass
class KsResult:
    statistic: float
    pvalue: float
    significant: bool

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class BoundCheck:
    """lhs <= rhs claim: slack = rhs - lhs, passed once slack >= -tol."""

    name: str
    lhs: float
    rhs: float
    slack: float
    passed: bool

    @classmethod
    def of(cls, name: str, lhs: float, rhs: float, tol: float) -> "BoundCheck":
        lhs, rhs = float(lhs), float(rhs)
        slack = rhs - lhs
        return cls(name=name, lhs=lhs, rhs=rhs, slack=slack, passed=bool(slack >= -tol))

    def to_dict(self) -> dict:
        return asdict(self)


def _kolmogorov_sf(lam: float) -> float:
    # 2 * sum_{j>=1} (-1)^(j-1) exp(-2 j^2 lam^2), truncated once terms
    # drop below 1e-10.
    if lam <= 0.0:
        return 1.0
    total = 0.0
    for j in range(1, 101):
        term = math.exp(-2.0 * j * j * lam * lam)
        if term < 1e-10:
            break
        total += term if j % 2 == 1 else -term
    return min(1.0, max(0.0, 2.0 * total))


def ks_two_sample(a, b) -> KsResult:
    """Two-sample Kolmogorov-Smirnov test on scalar samples, at _KS_LEVEL.

    The statistic is the sup distance between the two empirical CDFs.
    The p-value uses the asymptotic Kolmogorov distribution with the
    usual small-sample correction factor sqrt(ne) + 0.12 + 0.11/sqrt(ne)
    where ne = n_a n_b / (n_a + n_b).
    """
    a = np.sort(np.asarray(a, dtype=np.float64).ravel())
    b = np.sort(np.asarray(b, dtype=np.float64).ravel())
    if a.size == 0 or b.size == 0:
        raise ValueError("empty sample")
    grid = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, grid, side="right") / a.size
    cdf_b = np.searchsorted(b, grid, side="right") / b.size
    stat = float(np.max(np.abs(cdf_a - cdf_b)))
    ne = a.size * b.size / (a.size + b.size)
    lam = (math.sqrt(ne) + 0.12 + 0.11 / math.sqrt(ne)) * stat
    pvalue = _kolmogorov_sf(lam)
    return KsResult(statistic=stat, pvalue=pvalue, significant=pvalue < _KS_LEVEL)


@dataclass
class AlignmentReport:
    nodes: list
    significant: int


def alignment_report(p: NetworkParams, Xs, Xt) -> AlignmentReport:
    """KS test per hidden node between source and target activations.

    The significant count is the number of hidden nodes whose activation
    distributions differ at level _KS_LEVEL; a domain-aligned representation
    drives it down.
    """
    hs = forward(p, Xs).hidden
    ht = forward(p, Xt).hidden
    nodes = [ks_two_sample(hs[:, i], ht[:, i]) for i in range(hs.shape[1])]
    return AlignmentReport(nodes=nodes, significant=sum(r.significant for r in nodes))


def prop1_bound(j: int) -> float:
    """Scale-free ceiling on one order-j marginal central moment distance
    for distributions supported on a common interval.
    """
    check_count(j, "order")
    return 2.0 * ((1.0 / (j + 1)) * (j / (j + 1)) ** j + 2.0 ** -(1 + j))


def prop1_check(src, tgt, j: int, a: float, b: float) -> BoundCheck:
    """Checks ||c_j(src) - c_j(tgt)||_2 / |b-a|^j against its ceiling for
    samples supported on [a, b]^m, up to a tolerance of 1e-12."""
    check_count(j, "j")
    if b <= a:
        raise ValueError("need a < b")
    src, tgt = as_sample_pair(src, tgt)
    for X in (src, tgt):
        if X.min() < a - 1e-12 or X.max() > b + 1e-12:
            raise ValueError(f"sample leaves the support interval [{a}, {b}]")
    m = src.shape[1]
    cs = central_moments(src, j)[j]
    ct = central_moments(tgt, j)[j]
    lhs = float(np.linalg.norm(cs - ct)) / (b - a) ** j
    rhs = math.sqrt(m) * prop1_bound(j)
    return BoundCheck.of(f"moment-bound j={j}", lhs, rhs, 1e-12)


def _ecf(X: np.ndarray, T: np.ndarray) -> np.ndarray:
    # empirical characteristic function at each row of T
    return np.exp(1j * (T @ X.T)).mean(axis=1)


def _l1_grid(m: int) -> np.ndarray:
    if m == 1:
        return np.linspace(-1.0, 1.0, 201)[:, None]
    axis = np.linspace(-1.0, 1.0, 101)
    t1, t2 = np.meshgrid(axis, axis)
    T = np.column_stack([t1.ravel(), t2.ravel()])
    return T[np.abs(T).sum(axis=1) <= 1.0 + 1e-12]


def thm3_check(src, tgt, k: int = 5) -> BoundCheck:
    """Checks the characteristic-function distance over ||t||_1 <= 1
    against sqrt(m) * e * cmd_k (full monomials, unit weights) plus the
    Taylor tail term, for recentered samples on [-1/2, 1/2]^m; tolerance 1e-9.

    Only odd k and m in {1, 2} are supported; the grid has 201 points in
    one dimension and an L1-clipped 101 x 101 lattice in two.
    """
    src, tgt = as_sample_pair(src, tgt)
    m = src.shape[1]
    if m not in (1, 2):
        raise ValueError("characteristic-function check covers 1 or 2 features")
    if k % 2 == 0:
        raise ValueError("k must be odd")
    src = src - src.mean(axis=0)
    tgt = tgt - tgt.mean(axis=0)
    for X in (src, tgt):
        if np.abs(X).max() > 0.5 + 1e-9:
            raise ValueError("recentered sample leaves [-1/2, 1/2]")

    T = _l1_grid(m)
    lhs = float(np.abs(_ecf(src, T) - _ecf(tgt, T)).max())

    cmd = cmd_estimate(src, tgt, CmdConfig(k=k, mode=FULL)).value
    ms = monomial_matrix(src, k + 1, FULL).mean(axis=0)
    mt = monomial_matrix(tgt, k + 1, FULL).mean(axis=0)
    tail = float((np.abs(ms) + np.abs(mt)).max())
    rhs = math.sqrt(m) * math.e * cmd + tail / math.factorial(k + 1)
    return BoundCheck.of(f"char-fct bound k={k}", lhs, rhs, 1e-9)


_DIRECTIONS = 1000  # random unit directions per order of the dual form


def dual_equivalence_check(src, tgt, cfg: CmdConfig | None = None, seed: int = 0) -> BoundCheck:
    """Compares the closed-form distance against its variational form,
    sum_j sup_{||w||<=1} <w, c_j(src) - c_j(tgt)>.

    For one feature the supremum is attained at w = +-1, so both sides
    agree to rounding; in higher dimension the sup is sampled over
    _DIRECTIONS random unit directions and can only fall short, so
    slack >= 0.
    """
    cfg = cfg or CmdConfig()
    src, tgt = as_sample_pair(src, tgt)
    gap = MomentGap.of(src[None], tgt[None], cfg)  # one moment pass for both sides
    rng = SeededRng(seed)
    lhs = 0.0
    for j in range(1, cfg.k + 1):
        delta = gap.source[j][0] - gap.target[j][0]
        if delta.size == 1:
            best = abs(float(delta[0]))
        else:
            W = rng.normal_matrix(_DIRECTIONS, delta.size)
            norms = np.linalg.norm(W, axis=1)
            norms[norms == 0.0] = 1.0
            best = float((W @ delta / norms).max())
        lhs += max(best, 0.0)
    rhs = gap.reports(cfg)[0].value
    tol = 1e-12 if src.shape[1] == 1 else 1e-10
    return BoundCheck.of("dual-form agreement", lhs, rhs, tol)


@dataclass
class SweepCell:
    k: int
    lam: float
    accuracy: float
    ratio: float


def sweep_grid(ks, lambdas) -> tuple[list, list]:
    """The (k, lambda) axes of a sweep as ints and floats, after checking
    that they are non-empty lists of integers >= 1 and of numbers >= 0, as
    numerics._is_json judges them, and each k against the counts' ceiling;
    else ValueError naming the axis."""
    for name, values, kind, least, what in (("ks", ks, int, 1, "integers >= 1"),
                                            ("lambdas", lambdas, float, 0, "numbers >= 0")):
        if not (isinstance(values, (list, tuple)) and values
                and all(_is_json(v, kind) and v >= least for v in values)):
            raise ValueError(f"{name} must be a non-empty list of {what}, got {reprlib.repr(values)}")
    for k in ks:
        check_count(k, "ks")
    return [int(k) for k in ks], [float(l) for l in lambdas]


def sensitivity_sweep(Xs, Ys, Xt, Yt, ks, lambdas, cfg: TrainConfig | None = None) -> list:
    """Trains one joint run per (k, lambda) cell and reports target
    accuracy, plus each k's lambda-averaged accuracy as a ratio against
    the configured default k.

    Diverged cells are recorded with accuracy nan rather than dropped;
    averages skip them.  The baseline k (cfg.k) must be in the grid.
    """
    cfg = cfg or TrainConfig()
    ks, lambdas = sweep_grid(ks, lambdas)
    if cfg.k not in ks:
        raise ValueError(f"baseline k={cfg.k} missing from the sweep grid")

    # every cell's config is checked (lambda = inf fails) before any trains
    runs = {(k, lam): replace(cfg, k=k, lam=lam) for k in ks for lam in lambdas}
    acc = {}
    for cell, run in runs.items():
        result = train(Xs, Ys, Xt, run, Yt=Yt)
        acc[cell] = float("nan") if result.diverged else result.records[-1].target_acc

    def k_mean(k):
        vals = [acc[(k, lam)] for lam in lambdas]
        vals = [v for v in vals if not math.isnan(v)]
        return math.fsum(vals) / len(vals) if vals else float("nan")

    base = k_mean(cfg.k)
    cells = []
    for k in ks:
        ratio = k_mean(k) / base if base else float("nan")
        for lam in lambdas:
            cells.append(SweepCell(k=k, lam=lam, accuracy=acc[(k, lam)], ratio=ratio))
    return cells


def write_sweep_csv(cells, path) -> None:
    lines = ["k,lambda,accuracy,ratio"]
    for c in cells:
        lines.append(f"{c.k},{repr(float(c.lam))},{repr(float(c.accuracy))},{repr(float(c.ratio))}")
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
