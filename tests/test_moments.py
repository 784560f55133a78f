import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from momentalign import moments
from momentalign.distances import cmd_analytic, mmd_polynomial_analytic, raw_moment_ipm
from momentalign.moments import (
    FULL,
    MARGINAL,
    AffineBeta,
    Normal,
    _stacked_central_moments,
    analytic_central_moment,
    analytic_mean,
    analytic_raw_moment,
    central_moments,
    monomial_exponents,
    monomial_matrix,
    sample_analytic,
)
from momentalign.numerics import SeededRng, SparseRowMatrix

from helpers import traced_peak


def test_exponents_m2_k3():
    assert monomial_exponents(2, 3) == ((3, 0), (2, 1), (1, 2), (0, 3))


def test_exponents_count():
    # number of degree-k monomials in m variables
    for m in (1, 2, 3, 4):
        for k in (1, 2, 5):
            got = len(monomial_exponents(m, k))
            assert got == math.comb(m + k - 1, k)


def test_monomial_vector_modes():
    # the degree-3 monomial vector at one point: monomial_matrix of one row
    x = np.array([[2.0, 3.0]])
    assert np.array_equal(monomial_matrix(x, 3, MARGINAL), [[8.0, 27.0]])
    assert np.array_equal(monomial_matrix(x, 3, FULL), [[8.0, 12.0, 18.0, 27.0]])
    with pytest.raises(ValueError):
        monomial_matrix(x, 0)
    with pytest.raises(ValueError):
        monomial_matrix(x, 2, mode="diagonal")


def test_monomial_matrix_rowwise():
    X = SeededRng(5).normal_matrix(6, 3) * 1.7 - 0.3
    for k in range(1, 6):
        for mode, width in ((MARGINAL, 3), (FULL, math.comb(k + 2, k))):
            M = monomial_matrix(X, k, mode)
            assert M.shape == (6, width)
            for i in range(6):
                assert np.array_equal(M[i], monomial_matrix(X[i:i + 1], k, mode)[0]), (k, mode, i)


def test_central_moments_basic():
    X = np.array([[0.0], [1.0]])
    c = central_moments(X, 3)
    assert np.allclose(c[1], [0.5])
    assert np.allclose(c[2], [0.25])   # variance of {0,1} with 1/n
    assert np.allclose(c[3], [0.0])    # symmetric around the mean
    with pytest.raises(IndexError):
        c[4]
    with pytest.raises(IndexError):
        c[0]


def test_central_moments_1d_input_promoted():
    c = central_moments(np.array([1.0, 2.0, 3.0]), 2)
    assert c[1].shape == (1,)
    assert np.allclose(c[2], np.var([1.0, 2.0, 3.0]))


def test_central_moments_sparse_input():
    S = SparseRowMatrix.from_rows([[(0, 1.0)], [(1, 2.0)]], cols=2)
    c_sparse = central_moments(S, 3)
    c_dense = central_moments(S.toarray(), 3)
    for j in (1, 2, 3):
        assert np.array_equal(c_sparse[j], c_dense[j])


def test_central_moments_errors():
    with pytest.raises(ValueError):
        central_moments(np.empty((0, 2)), 2)
    with pytest.raises(ValueError):
        central_moments(np.ones((3, 2)), 0)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32), st.floats(-3, 3, allow_nan=False))
def test_central_moments_shift_covariance(seed, shift):
    # c_1 shifts with the data, higher orders are shift invariant
    X = SeededRng(seed).normal_matrix(40, 2)
    a = central_moments(X, 4)
    b = central_moments(X + shift, 4)
    assert np.allclose(b[1], a[1] + shift)
    for j in (2, 3, 4):
        assert np.allclose(a[j], b[j], atol=1e-9)


def _blocked_mean(M, m, k, mode):
    """The mean over the rows of M, the monomials of an n x m sample, in the
    kernel's documented order for moments up to order k: blocks of
    min(n, max(_MIN_ROWS, _BLOCK // w)) rows, w the widest monomial count
    (m in marginal mode, comb(m + k - 1, k) in full mode); a narrow block
    (m < rows) summed pairwise along each column of its transpose, a wide
    one row after row; block sums added in row order."""
    n = len(M)
    w = m if mode == MARGINAL else math.comb(m + k - 1, k)
    rows = min(n, max(moments._MIN_ROWS, moments._BLOCK // w))
    total = None
    for r0 in range(0, n, rows):
        B = M[r0:r0 + rows]
        s = np.ascontiguousarray(B.T).sum(axis=1) if m < rows else B.sum(axis=0)
        total = s if total is None else total + s
    return total / n


def _sequential_moments(X, k, mode):
    """c_1..c_k as the unblocked kernel computed them: one mean over all rows
    of the sample per order, each a sequential column sum for m > 1."""
    c1 = X.mean(axis=0)
    return [c1] + [monomial_matrix(X - c1, j, mode).mean(axis=0) for j in range(2, k + 1)]


@settings(max_examples=80, deadline=None)
@given(
    st.integers(0, 2**32),
    st.integers(1, 50),
    st.integers(1, 3),
    st.integers(1, 7),
    st.sampled_from([MARGINAL, FULL]),
)
def test_central_moments_match_power_reference(seed, n, m, k, mode):
    X = SeededRng(seed).normal_matrix(n, m) * 2.5 - 0.7
    c = central_moments(X, k, mode)
    D = X - c[1]
    running = D
    for j in range(2, k + 1):
        exps = monomial_exponents(m, j) if mode == FULL else [
            tuple(j if v == i else 0 for v in range(m)) for i in range(m)
        ]
        terms = np.power(D[:, None, :], np.array(exps, dtype=np.float64)).prod(axis=2)
        bound = 1e-12 * np.abs(terms).mean(axis=0)
        assert np.all(np.abs(c[j] - terms.mean(axis=0)) <= bound), (j, mode)
        # the pure powers are the running products D*D*...*D in either
        # mode; their means are the c_j whose gaps set cmd_cotangents'
        # Horner coefficients and constant
        running = running * D
        pure = [exps.index(tuple(j if v == i else 0 for v in range(m))) for i in range(m)]
        M = monomial_matrix(D, j, mode)
        assert np.array_equal(M[:, pure], running), (j, mode)
        assert np.array_equal(c[j], _blocked_mean(M, m, k, mode)), (j, mode)


@settings(max_examples=80, deadline=None)
@given(
    st.integers(0, 2**32),
    st.integers(1, 5),
    st.integers(1, 40),
    st.integers(1, 7),
    st.integers(1, 7),
    st.sampled_from([MARGINAL, FULL]),
)
def test_stacked_central_moments_equal_per_sample(seed, g, n, m, k, mode):
    # bit for bit, so the batched prop-bound verifier checks the same
    # numbers as central_moments on each sample
    S = SeededRng(seed).normal_matrix(g * n, m).reshape(g, n, m) * 1.7 + 0.4
    stacked = _stacked_central_moments(S, k, mode)
    assert len(stacked) == k
    for i in range(g):
        one = central_moments(S[i], k, mode)
        for j in range(1, k + 1):
            assert stacked[j - 1].shape == (g, one[j].size)
            assert np.array_equal(stacked[j - 1][i], one[j]), (i, j)


# Blocks of 4..64 elements split a sample of up to 120 rows into many blocks:
# narrow ones (transposed, m < rows) for small m, and for m >= _MIN_ROWS wide
# ones, which keep their rows.
_small_blocks = st.integers(4, 64)


@settings(max_examples=80, deadline=None)
@given(
    st.integers(0, 2**32),
    st.integers(1, 120),
    st.integers(1, 12),
    st.integers(1, 5),
    st.sampled_from([MARGINAL, FULL]),
    _small_blocks,
)
def test_blocked_kernel_order_across_blocks(seed, n, m, k, mode, block):
    X = SeededRng(seed).normal_matrix(n, m) * 1.9 - 0.6
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(moments, "_BLOCK", block)
        c = central_moments(X, k, mode)
        assert np.array_equal(c[1], _blocked_mean(X, m, k, mode))
        # the layout of the caller's array does not change the order
        f = central_moments(np.asfortranarray(X), k, mode)
        assert all(np.array_equal(f[j], c[j]) for j in range(1, k + 1))
        for j in range(2, k + 1):
            assert np.array_equal(c[j], _blocked_mean(monomial_matrix(X - c[1], j, mode), m, k, mode)), j
    # the unblocked kernel's sequential sums differ only in rounding
    ref = _sequential_moments(X, k, mode)
    assert np.all(np.abs(c[1] - ref[0]) <= 1e-12 * np.abs(X).mean(axis=0))
    for j in range(2, k + 1):
        scale = np.abs(monomial_matrix(X - ref[0], j, mode)).mean(axis=0)
        assert np.all(np.abs(c[j] - ref[j - 1]) <= 1e-12 * scale), j


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**32),
    st.integers(1, 4),
    st.integers(1, 60),
    st.integers(1, 12),
    st.integers(1, 5),
    st.sampled_from([MARGINAL, FULL]),
    _small_blocks,
)
def test_stacked_central_moments_equal_per_sample_across_blocks(seed, g, n, m, k, mode, block):
    S = SeededRng(seed).normal_matrix(g * n, m).reshape(g, n, m) * 1.7 + 0.4
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(moments, "_BLOCK", block)
        stacked = _stacked_central_moments(S, k, mode)
        for i in range(g):
            one = central_moments(S[i], k, mode)
            for j in range(1, k + 1):
                assert np.array_equal(stacked[j - 1][i], one[j]), (i, j)


@pytest.mark.parametrize("shape", [(37,), (37, 1), (37, 3), (20, 24)],
                         ids=["1-d", "m=1", "narrow", "wide"])
@pytest.mark.parametrize("block", [8, moments._BLOCK], ids=["many-blocks", "one-block"])
def test_central_moments_leave_the_input_unchanged(shape, block, monkeypatch):
    # as_sample hands the kernel the caller's own array (a 1-D sample as a
    # column view of it), and for m = 1 the transposed block is contiguous
    X = SeededRng(4).uniforms(math.prod(shape)).reshape(shape) + 2.0
    before = X.copy()
    monkeypatch.setattr(moments, "_BLOCK", block)
    for mode in (MARGINAL, FULL):
        central_moments(X, 4, mode)
        assert np.array_equal(X, before), mode
        _stacked_central_moments(X.reshape(1, shape[0], -1), 4, mode)
        assert np.array_equal(X, before), mode


def test_central_moments_of_a_zero_width_sample_are_empty():
    c = central_moments(np.empty((3, 0)), 3)
    assert [c[j].shape for j in (1, 2, 3)] == [(0,), (0,), (0,)]


def test_central_moments_memory_is_one_block():
    # the unblocked kernel peaked at 15.3 MiB here: two n x m temporaries
    X = SeededRng(3).normal_matrix(100_000, 10)
    peak = traced_peak(central_moments, X, 5)[1]
    assert peak < 2 * 2**20, f"{peak / 2**20:.2f} MiB"


def test_full_mode_central_moments_memory_is_one_block():
    # blocks sized by the width m held 21 order-5 monomials per row of a
    # 2e4 x 3 sample: 5.0 MiB; sized by the widest order's monomial count,
    # each running product stays one block
    X = SeededRng(3).normal_matrix(20_000, 3)
    peak = traced_peak(central_moments, X, 5, FULL)[1]
    assert peak < 2 * 2**20, f"{peak / 2**20:.2f} MiB"


# ---------------------------------------------------------------------------
# analytic oracles
# ---------------------------------------------------------------------------


def test_distribution_validation():
    with pytest.raises(ValueError):
        Normal(0.0, 0.0)
    with pytest.raises(ValueError):
        AffineBeta(0.0, 1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        AffineBeta(1.0, -2.0)


def test_normal_moments_closed_form():
    d = Normal(0.5, 0.27)
    assert analytic_mean(d) == 0.5
    assert analytic_central_moment(d, 2) == pytest.approx(0.27**2, rel=1e-14)
    assert analytic_central_moment(d, 3) == 0.0
    assert analytic_central_moment(d, 4) == pytest.approx(3 * 0.27**4, rel=1e-14)
    assert analytic_central_moment(d, 5) == 0.0
    # raw second moment: sigma^2 + mu^2
    assert analytic_raw_moment(d, 2) == pytest.approx(0.27**2 + 0.25, rel=1e-14)


def test_beta_moments_match_exact_rationals():
    from fractions import Fraction

    d = AffineBeta(0.4, 0.4, 0.8, 0.1)
    base = scipy.stats.beta(0.4, 0.4)
    assert analytic_mean(d) == pytest.approx(0.8 * base.mean() + 0.1, rel=1e-13)
    # E[Y^n] = prod_{r<n} (alpha+r)/(alpha+beta+r), alpha = beta = 2/5
    a, s = Fraction(2, 5), Fraction(4, 5)
    for n in (2, 3, 4, 5):
        want = Fraction(1)
        for r in range(n):
            want *= (a + r) / (s + r)
        raw = analytic_raw_moment(AffineBeta(0.4, 0.4, 1.0, 0.0), n)
        assert raw == pytest.approx(float(want), rel=1e-13), n
    # central moments against scipy's standardized stats
    var = analytic_central_moment(d, 2)
    assert var == pytest.approx(base.var() * 0.64, rel=1e-12)
    skew = analytic_central_moment(d, 3) / var**1.5
    assert skew == pytest.approx(base.stats(moments="s"), abs=1e-12)
    kurt = analytic_central_moment(d, 4) / var**2 - 3.0
    assert kurt == pytest.approx(base.stats(moments="k"), abs=1e-10)


def test_affine_shift_invariance_is_exact():
    a = AffineBeta(0.4, 0.4, 0.8, 0.1)
    b = AffineBeta(0.4, 0.4, 0.8, -2.7)
    for n in (2, 3, 4, 5):
        assert analytic_central_moment(a, n) == analytic_central_moment(b, n)


def test_analytic_errors():
    with pytest.raises(ValueError):
        analytic_central_moment(Normal(0, 1), 1)
    with pytest.raises(ValueError):
        analytic_raw_moment(Normal(0, 1), -1)
    assert analytic_raw_moment(Normal(3, 1), 0) == 1.0
    with pytest.raises(TypeError):
        analytic_mean(object())


@pytest.mark.parametrize("a, b", [(0.4, 0.4), (2.0, 5.0), (0.5, 3.0), (7.0, 0.3)])
def test_beta_draws_follow_the_beta_law(a, b):
    # shapes below and above 1: the boosted and the direct gamma draws
    xs = sample_analytic(AffineBeta(a, b), 20_000, SeededRng(2025))
    assert scipy.stats.kstest(xs, scipy.stats.beta(a, b).cdf).pvalue > 0.01


@pytest.mark.parametrize("a, b", [(0.001, 0.001), (0.05, 0.05), (50.0, 50.0), (1e-310, 1e-310)])
def test_beta_draws_stay_finite_inside_the_support(a, b):
    xs = sample_analytic(AffineBeta(a, b, 0.8, 0.1), 100_000, SeededRng(3))
    assert not np.isnan(xs).any()
    assert xs.min() >= 0.1 and xs.max() <= 0.1 + 0.8


@pytest.mark.parametrize("shapes", [(math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0),
                                    (1.0, math.inf)])
def test_beta_shapes_must_be_finite(shapes):
    with pytest.raises(ValueError, match="^beta shape parameters must be positive and finite$"):
        AffineBeta(*shapes)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("kind, name", [(Normal, "mu"), (Normal, "sigma"),
                                        (AffineBeta, "scale"), (AffineBeta, "shift")])
def test_analytic_distributions_refuse_non_finite_parameters(kind, name, value):
    # Normal(0.5, nan) drew NaN, and cmd_analytic of Normal(inf, 1) was inf
    base = {"mu": 0.5, "sigma": 0.27} if kind is Normal else {"alpha": 0.4, "beta": 0.4}
    message = "^sigma must be positive$" if (name, value) == ("sigma", -math.inf) else (
        f"^{name} must be finite, got a non-finite value$")
    with pytest.raises(ValueError, match=message):
        kind(**dict(base, **{name: value}))


def test_analytic_distributions_refuse_an_integer_beyond_the_float_range():
    # np.isfinite met 10**400 as a Python int in an object array: TypeError
    with pytest.raises(ValueError, match="^mu must be finite, got a non-finite value$"):
        Normal(10**400, 1.0)
    with pytest.raises(ValueError, match="^scale must be finite, got a non-finite value$"):
        AffineBeta(0.5, 0.5, scale=10**400)
    assert Normal(10**300, 1.0).mu == 10**300


@pytest.mark.parametrize("call", [
    lambda d: analytic_raw_moment(d, 2),
    lambda d: raw_moment_ipm(d, Normal(0.0, 1.0), 2),
    lambda d: mmd_polynomial_analytic(d, Normal(0.0, 1.0), 2),
], ids=["raw-moment", "raw-ipm", "mmd-poly"])
@pytest.mark.parametrize("mu", [1e300, 10**300], ids=["float", "int"])
def test_a_raw_moment_that_overflows_raises_value_error(call, mu):
    # the float's power raised OverflowError (34, 'Numerical result out of
    # range'), and the int's product 'int too large to convert to float'
    with pytest.raises(ValueError, match="^moment of order 2 overflows a float$"):
        call(Normal(mu, 1.0))


def test_a_central_moment_that_overflows_raises_value_error():
    # d.scale ** n raised OverflowError inside cmd_analytic
    wide = AffineBeta(0.5, 0.5, 1e300, 0.0)
    with pytest.raises(ValueError, match="^moment of order 2 overflows a float$"):
        cmd_analytic(wide, AffineBeta(0.5, 0.5))
    with pytest.raises(ValueError, match="^moment of order 3 overflows a float$"):
        analytic_central_moment(AffineBeta(0.5, 2.0, 1e120, 0.0), 3)


def test_a_sum_that_overflows_raises_value_error():
    # every power is finite but the terms add past the float range: the
    # raw moment read inf
    with pytest.raises(ValueError, match="^moment of order 2 overflows a float$"):
        analytic_raw_moment(AffineBeta(0.5, 0.5, 1e154, 1e154), 2)


def test_a_moment_inside_the_float_range_is_kept():
    value = analytic_raw_moment(Normal(1e150, 1.0), 2)
    assert math.isfinite(value) and value == pytest.approx(1e300, rel=1e-15)


def test_beta_draws_repeat_from_the_seed():
    d = AffineBeta(0.4, 0.4, 0.8, 0.1)
    first = sample_analytic(d, 5_000, SeededRng(17))
    assert first.tobytes() == sample_analytic(d, 5_000, SeededRng(17)).tobytes()


def test_normal_draws_are_the_scaled_normal_stream():
    got = sample_analytic(Normal(0.5, 0.27), 1_001, SeededRng(9))
    assert got.tobytes() == (0.5 + 0.27 * SeededRng(9).normals(1_001)).tobytes()


def test_sample_analytic_hits_moments():
    rng = SeededRng(2024)
    d = AffineBeta(0.4, 0.4, 0.8, 0.1)
    xs = sample_analytic(d, 50_000, rng)
    assert xs.min() >= 0.1 and xs.max() <= 0.9
    assert abs(xs.mean() - analytic_mean(d)) < 5e-3
    assert abs(np.var(xs) - analytic_central_moment(d, 2)) < 5e-3
    zs = sample_analytic(Normal(0.5, 0.27), 200_000, rng)
    assert abs(zs.mean() - 0.5) < 2e-3
    with pytest.raises(TypeError):
        sample_analytic("normal", 10, rng)
