import math

import numpy as np
import pytest
import scipy.special
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from momentalign.moments import (
    FULL,
    MARGINAL,
    AffineBeta,
    Normal,
    _stacked_central_moments,
    analytic_central_moment,
    analytic_mean,
    analytic_raw_moment,
    beta_ppf,
    betainc,
    central_moments,
    monomial_exponents,
    monomial_matrix,
    sample_analytic,
)
from momentalign.numerics import SeededRng, SparseRowMatrix


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
        assert np.array_equal(c[j], M.mean(axis=0)), (j, mode)


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


def test_betainc_matches_scipy():
    x = np.linspace(0.0, 1.0, 41)
    for a, b in [(0.4, 0.4), (2.0, 5.0), (0.5, 3.0), (7.0, 0.3)]:
        assert np.allclose(betainc(a, b, x), scipy.special.betainc(a, b, x),
                           atol=1e-12)


def test_beta_ppf_inverts_cdf():
    u = np.linspace(0.01, 0.99, 25)
    x = beta_ppf(u, 0.4, 0.4)
    assert np.allclose(betainc(0.4, 0.4, x), u, atol=1e-10)
    with pytest.raises(ValueError):
        beta_ppf([1.5], 2.0, 2.0)


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
