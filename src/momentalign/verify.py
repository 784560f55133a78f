"""Verifier suites behind the CLI's check subcommand.

Each suite returns a list of BoundCheck rows; a suite is green when
every row passes.  The fixed-constant suite (appendix-a) evaluates the
reference inequality chains for the beta/normal example triple exactly
as stated; two of its stated constants are slightly tighter than what
the arithmetic yields (see README), and those rows are expected to stay
red rather than being loosened here.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from .analysis import BoundCheck, dual_equivalence_check, prop1_bound, thm3_check
from .distances import (
    CmdConfig,
    cmd_analytic,
    mmd_polynomial_analytic,
    raw_moment_ipm,
)
from .moments import FULL, MARGINAL, AffineBeta, Normal, _stacked_central_moments
from .network import finite_difference_check, init_params
from .numerics import SeededRng, check_count, stream_words, word_uniforms

__all__ = [
    "SOURCE",
    "LEFT",
    "RIGHT",
    "check_appendix_a",
    "check_gradients",
    "check_prop_bound",
    "check_char_fct",
    "check_dual_form",
    "CHECKS",
]

# The worked 1-D example triple: a bimodal source on [0.1, 0.9], a normal
# target matching mean and variance (left), and the source shifted by
# 0.02 (right).  Every metric oracle is analytic, so the suite is exact.
SOURCE = AffineBeta(0.4, 0.4, 0.8, 0.1)
LEFT = Normal(0.5, 0.27)
RIGHT = AffineBeta(0.4, 0.4, 0.8, 0.12)


def check_appendix_a() -> list:
    cfg = CmdConfig(k=4)
    p = {k: (raw_moment_ipm(SOURCE, LEFT, k), raw_moment_ipm(SOURCE, RIGHT, k)) for k in (1, 2, 4)}
    m2 = (mmd_polynomial_analytic(SOURCE, LEFT, 2), mmd_polynomial_analytic(SOURCE, RIGHT, 2))
    m4 = (mmd_polynomial_analytic(SOURCE, LEFT, 4), mmd_polynomial_analytic(SOURCE, RIGHT, 4))
    c4 = (cmd_analytic(SOURCE, LEFT, cfg).value, cmd_analytic(SOURCE, RIGHT, cfg).value)

    of = BoundCheck.of
    return [
        of("d_P1(S,L) = 0", p[1][0], 0.0, 1e-12),
        of("0.02 <= d_P1(S,R)", 0.02, p[1][1], 1e-12),
        of("d_P2(S,L) < 0.016", p[2][0], 0.016, 0.0),
        of("0.02 < d_P2(S,R)", 0.02, p[2][1], 0.0),
        of("d_P4(S,L) < 0.02", p[4][0], 0.02, 0.0),
        of("0.021 < d_P4(S,R)", 0.021, p[4][1], 0.0),
        of("mmd_k2(S,L) < 0.00025", m2[0], 0.00025, 0.0),
        of("0.0012 < mmd_k2(S,R)", 0.0012, m2[1], 0.0),
        of("mmd_k4(S,L) < 0.004", m4[0], 0.004, 0.0),
        of("0.006 < mmd_k4(S,R)", 0.006, m4[1], 0.0),
        of("0.0207 < cmd_4(S,L)", 0.0207, c4[0], 0.0),
        of("cmd_4(S,R) <= 0.02", c4[1], 0.02, 1e-9),
        of("ordering d_P1: left closer", p[1][0], p[1][1], 0.0),
        of("ordering d_P2: left closer", p[2][0], p[2][1], 0.0),
        of("ordering d_P4: left closer", p[4][0], p[4][1], 0.0),
        of("ordering mmd_k2: left closer", m2[0], m2[1], 0.0),
        of("ordering mmd_k4: left closer", m4[0], m4[1], 0.0),
        of("ordering cmd_4: right closer", c4[1], c4[0], 0.0),
    ]


def check_gradients(seed: int = 0, cases: int = 20) -> list:
    """The training step's gradient (network.step_gradients) against the
    O(h^4) central differences of the loss and of the CMD, through
    finite_difference_check, on small random networks: one loss row and
    one cmd row per case, each passing below 1e-5 relative error in every
    coordinate."""
    check_count(cases, "cases")
    out = []
    ks = (1, 3, 5)
    for i in range(cases):
        rng = SeededRng(seed).split(i + 1)
        m = 2 + i % 3
        hidden = 3 + i % 3
        classes = 2 + i % 2
        n = 5 + i % 6
        p = init_params(m, hidden, classes, rng.split(1))
        X = rng.normal_matrix(n, m)
        labels = np.eye(classes)[np.arange(n) % classes]
        Xt = rng.normal_matrix(n + 2, m) * 0.8 + 0.3
        k = ks[i % 3]

        loss_err, cmd_err = finite_difference_check(p, X=X, Y=labels, Xt=Xt, cfg=CmdConfig(k=k))
        out.append(BoundCheck.of(f"loss gradient case {i}", loss_err, 1e-5, 0.0))
        out.append(BoundCheck.of(f"cmd gradient case {i} (k={k})", cmd_err, 1e-5, 0.0))
    return out


# the case classes i % 4 whose X or Y sample check_prop_bound reshapes
_CLUMP_X = {1: lambda X: X ** 2, 3: np.round}  # clump toward 0; two-point mass on {0, 1}
_CLUMP_Y = {2: np.sqrt}  # clump toward 1


def _grouped_moments(seeds, rows, first_word, m, classes, clump):
    """Yield (sel, c) per row count: c holds c_1..c_7 of the samples sel,
    sample i drawn as rows[i] x m uniforms from word first_word[i] on of
    stream seeds[i], and reshaped by clump[r] when classes[i] == r.  The
    samples of one row count go through the stacked moment kernel together."""
    for n in np.flatnonzero(np.bincount(rows)):  # np.unique would import numpy.ma
        sel = np.flatnonzero(rows == n)
        words = stream_words(seeds[sel, None], first_word[sel, None] + np.arange(n * m))
        S = word_uniforms(words).reshape(len(sel), n, m)
        for r, f in clump.items():
            hit = classes[sel] == r
            S[hit] = f(S[hit])
        yield sel, _stacked_central_moments(S, 7, MARGINAL)


def _block_norms(child, n1, n2, idx, m) -> np.ndarray:
    """||c_j(X) - c_j(Y)||_2 for j = 1..7, shape (7, len(idx)), of the
    prop-bound cases idx, all of width m."""
    seeds, classes = child[idx], idx % 4
    d = np.empty((7, len(idx), m))  # c_j(X) - c_j(Y)
    for sel, c in _grouped_moments(seeds, n1[idx], np.full(len(idx), 3), m, classes, _CLUMP_X):
        d[:, sel] = c
    for sel, c in _grouped_moments(seeds, n2[idx], 3 + n1[idx] * m, m, classes, _CLUMP_Y):
        d[:, sel] -= c
    return np.sqrt(np.vecdot(d, d))  # bit for bit np.linalg.norm of each row


def _block_worst(child, n1, n2, idx, m, bounds) -> list:
    """Per order j = 1..7, the worst (slack, case, lhs, rhs) among the
    prop-bound cases idx, all of width m; the first case on a tie."""
    lhs = _block_norms(child, n1, n2, idx, m)
    rhs = math.sqrt(m) * bounds
    slack = rhs[:, None] - lhs
    return [(slack[j, w], idx[w], lhs[j, w], rhs[j]) for j, w in enumerate(np.argmin(slack, axis=1))]


def _worst_cases(seed: int, cases: int) -> list:
    """Per order j = 1..7, the (slack, case, lhs, rhs) of the prop-bound
    case with the least slack, the first such case on a tie."""
    case = np.arange(cases)
    child = SeededRng(seed).split_seeds(case + 1)
    n1, n2 = 2 + (word_uniforms(stream_words(child[:, None], [1, 2])) * 29).astype(np.int64).T
    bounds = np.array([prop1_bound(j) for j in range(1, 8)])
    blocks = [_block_worst(child, n1, n2, np.flatnonzero(case % 3 == m - 1), m, bounds)
              for m in range(1, min(cases, 3) + 1)]
    return list(map(min, zip(*blocks)))


def check_prop_bound(seed: int = 0, cases: int = 10000) -> list:
    """Order-j moment distance ceilings over random pairs on [0,1]^m,
    j = 1..7; reports the worst slack per order.

    Case i draws from SeededRng(seed).split(i + 1): its first two uniforms
    give the row counts n1, n2 in 2..30, the next n1 * m the rows of X and
    the n2 * m after them the rows of Y, with m = 1 + i % 3; i % 4 picks
    how the pair is clumped.  All cases run in one batched pass, one block
    per m: the draws are indexed straight into each case's stream, and the
    samples of one row count share a stacked moment call.  Among equal
    worst slacks the lowest case index wins.
    """
    check_count(cases, "cases")
    return [
        BoundCheck.of(f"moment-bound j={j} worst of {cases} pairs", lhs, rhs, 1e-12)
        for j, (_, _, lhs, rhs) in zip(range(1, 8), _worst_cases(seed, cases))
    ]


def _boxed_pair(r: SeededRng, n1: int, n2: int):
    # zero-mean scalar samples kept strictly inside [-1/2, 1/2]
    def one(rr, n, squish):
        x = rr.uniforms(n) - 0.5
        if squish:
            x = 4.0 * x ** 3
        x = x - x.mean()
        top = np.abs(x).max()
        if top > 0.5:
            x = x * (0.5 / top)
        return x

    return one(r.split(1), n1, False), one(r.split(2), n2, True)


def check_char_fct(seed: int = 0, cases: int = 50) -> list:
    """Characteristic-function bound on random zero-mean scalar pairs,
    k cycling through 1, 3, 5."""
    check_count(cases, "cases")
    out = []
    ks = (1, 3, 5)
    for i in range(cases):
        r = SeededRng(seed).split(i + 1)
        n1 = 3 + int(r.uniforms(1)[0] * 57)
        n2 = 3 + int(r.uniforms(1)[0] * 57)
        a, b = _boxed_pair(r.split(3), n1, n2)
        k = ks[i % 3]
        check = thm3_check(a, b, k=k, tol=1e-9)
        out.append(replace(check, name=f"char-fct case {i} (k={k}, n={n1}/{n2})"))
    return out


def check_dual_form(seed: int = 0, cases: int = 20) -> list:
    """Closed form vs sampled variational form: exact for one feature,
    one-sided above it."""
    check_count(cases, "cases")
    out = []
    for i in range(cases):
        r = SeededRng(seed).split(i + 1)
        if i % 2 == 0:
            a = r.normal_matrix(40 + i, 1)
            b = r.normal_matrix(50 + i, 1) * 1.3 + 0.2
            check = dual_equivalence_check(a, b, CmdConfig(k=5), seed=seed + i)
            out.append(
                BoundCheck.of(f"dual form case {i} (m=1 exact)", abs(check.slack), 1e-12, 0.0)
            )
        else:
            m = (2, 3, 5)[i % 3]
            mode = FULL if i % 4 == 1 else MARGINAL
            a = r.normal_matrix(60, m)
            b = r.normal_matrix(60, m) + 0.15
            check = dual_equivalence_check(a, b, CmdConfig(k=4, mode=mode), seed=seed + i)
            out.append(replace(check, name=f"dual form case {i} (m={m}, {mode}, one-sided)"))
    return out


CHECKS = {
    "appendix-a": check_appendix_a,
    "gradients": check_gradients,
    "prop-bound": check_prop_bound,
    "char-fct": check_char_fct,
    "dual-form": check_dual_form,
}
