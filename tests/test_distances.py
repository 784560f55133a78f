import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentalign.distances import (
    CmdConfig,
    cmd_analytic,
    cmd_cotangents,
    cmd_estimate,
    coral_distance,
    mmd_gaussian_estimate,
    mmd_polynomial_analytic,
    raw_moment_ipm,
)
from momentalign.moments import FULL, AffineBeta, Normal
from momentalign.numerics import SeededRng, SparseRowMatrix

TWO_POINT_SRC = np.array([[0.0], [1.0]])
TWO_POINT_TGT = np.array([[0.25], [0.75]])


def test_cmd_two_point_exact():
    # means match; variances are 1/4 vs 1/16; odd orders vanish by symmetry
    rep = cmd_estimate(TWO_POINT_SRC, TWO_POINT_TGT)
    assert rep.metric == "cmd"
    assert rep.terms == [0.0, 0.1875, 0.0, 0.05859375, 0.0]
    assert rep.value == 0.24609375
    assert rep.to_dict() == {
        "metric": "cmd",
        "value": 0.24609375,
        "terms": [0.0, 0.1875, 0.0, 0.05859375, 0.0],
    }


def test_cmd_identity_and_symmetry():
    X = SeededRng(5).normal_matrix(30, 3)
    Y = SeededRng(6).normal_matrix(25, 3)
    assert cmd_estimate(X, X).value == 0.0
    assert cmd_estimate(X, Y).value == cmd_estimate(Y, X).value


def test_cmd_weights_scale_terms():
    cfg = CmdConfig(k=3, weights=[2.0, 0.0, 1.0])
    base = cmd_estimate(TWO_POINT_SRC, TWO_POINT_TGT, CmdConfig(k=3))
    rep = cmd_estimate(TWO_POINT_SRC, TWO_POINT_TGT, cfg)
    assert rep.terms[0] == 2.0 * base.terms[0]
    assert rep.terms[1] == 0.0
    assert rep.terms[2] == base.terms[2]


def test_cmd_config_validation():
    with pytest.raises(ValueError):
        CmdConfig(k=0)
    with pytest.raises(ValueError):
        CmdConfig(k=3, weights=[1.0, 1.0])
    with pytest.raises(ValueError):
        CmdConfig(k=2, weights=[1.0, -1.0])


def test_cmd_input_validation():
    with pytest.raises(ValueError):
        cmd_estimate(np.ones((3, 2)), np.ones((3, 3)))
    with pytest.raises(ValueError):
        cmd_estimate(np.empty((0, 2)), np.ones((3, 2)))


def test_cmd_sparse_matches_dense():
    S = SparseRowMatrix.from_rows([[(0, 0.2)], [(1, 0.9)], []], cols=2)
    T = SeededRng(1).uniform_matrix(4, 2)
    assert cmd_estimate(S, T).value == cmd_estimate(S.toarray(), T).value


def test_cmd_full_mode_sees_cross_moments():
    # same marginals, different correlation sign
    X = np.array([[0.5, 0.5], [-0.5, -0.5]])
    Y = np.array([[0.5, -0.5], [-0.5, 0.5]])
    assert cmd_estimate(X, Y).value == 0.0
    assert cmd_estimate(X, Y, CmdConfig(mode=FULL)).value > 0.1


@pytest.mark.parametrize("k", range(1, 8))
def test_cmd_cotangents_shaped_like_activations(k):
    # a (hidden,)-shaped result would broadcast silently in backprop_hidden
    rng = SeededRng(40 + k)
    As, At = rng.uniform_matrix(9, 4), rng.uniform_matrix(6, 4) * 0.8 + 0.1
    g_s, g_t = cmd_cotangents(As, At, CmdConfig(k=k))
    assert g_s.shape == As.shape and g_t.shape == At.shape
    assert np.all(np.isfinite(g_s)) and np.all(np.isfinite(g_t))


def test_cmd_cotangents_reject_full_mode():
    with pytest.raises(ValueError):
        cmd_cotangents(np.ones((3, 2)), np.zeros((3, 2)), CmdConfig(mode=FULL))


def test_cmd_analytic_matches_large_sample():
    from momentalign.moments import sample_analytic

    d1 = Normal(0.5, 0.27)
    d2 = Normal(0.58, 0.33)
    ana = cmd_analytic(d1, d2).value
    rng = SeededRng(77)
    xs = sample_analytic(d1, 400_000, rng)
    ys = sample_analytic(d2, 400_000, rng)
    emp = cmd_estimate(xs, ys).value
    assert ana == pytest.approx(emp, abs=2e-3)
    assert ana > 0.08  # the pair is genuinely separated


def test_cmd_analytic_beta_consistency():
    from momentalign.moments import sample_analytic

    d1 = AffineBeta(0.4, 0.4, 0.8, 0.1)
    d2 = Normal(0.5, 0.27)
    ana = cmd_analytic(d1, d2).value
    xs = sample_analytic(d1, 40_000, SeededRng(11))
    ys = sample_analytic(d2, 40_000, SeededRng(12))
    emp = cmd_estimate(xs, ys).value
    assert emp == pytest.approx(ana, abs=8e-3)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32))
def test_cmd_triangle_inequality(seed):
    rng = SeededRng(seed)
    X = rng.normal_matrix(20, 2)
    Y = rng.normal_matrix(15, 2) + 0.3
    Z = rng.uniform_matrix(25, 2)
    dxy = cmd_estimate(X, Y).value
    dyz = cmd_estimate(Y, Z).value
    dxz = cmd_estimate(X, Z).value
    assert dxz <= dxy + dyz + 1e-9


def test_raw_moment_ipm():
    d1 = Normal(0.0, 1.0)
    d2 = Normal(0.5, 1.0)
    assert raw_moment_ipm(d1, d2, 1) == pytest.approx(0.5, rel=1e-14)
    # equal-third-raw-moment pair: E[x^3] = mu^3 + 3 mu sigma^2
    a = Normal(1.0, 1.0)          # 1 + 3 = 4
    b = Normal(0.5, np.sqrt((4 - 0.125) / 1.5))
    assert raw_moment_ipm(a, b, 3) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        raw_moment_ipm(d1, d2, 0)


def test_mmd_polynomial_expansion():
    # degree 2 on distributions with mean gap g1 and raw-2 gap g2:
    # mmd = 2*g1^2 + g2^2 (binomial weights C(2,1), C(2,2))
    d1 = Normal(0.0, 1.0)
    d2 = Normal(0.3, 1.2)
    g1 = 0.3
    g2 = (1.2**2 + 0.09) - 1.0
    want = 2 * g1**2 + g2**2
    assert mmd_polynomial_analytic(d1, d2, 2) == pytest.approx(want, rel=1e-12)
    assert mmd_polynomial_analytic(d1, d1, 4) == 0.0
    with pytest.raises(ValueError):
        mmd_polynomial_analytic(d1, d2, 0)


def test_mmd_gaussian_properties():
    X = SeededRng(9).normal_matrix(40, 2)
    Y = SeededRng(10).normal_matrix(40, 2) + 1.0
    near = mmd_gaussian_estimate(X, X, bandwidth=1.0)
    far = mmd_gaussian_estimate(X, Y, bandwidth=1.0)
    assert near == 0.0
    assert far > 0.0
    with pytest.raises(ValueError):
        mmd_gaussian_estimate(X, Y, bandwidth=0.0)


def test_coral_distance():
    X = SeededRng(3).normal_matrix(500, 2)
    assert coral_distance(X, X) == 0.0
    # scaling one axis changes the covariance
    Y = X.copy()
    Y[:, 0] *= 2.0
    assert coral_distance(X, Y) > 0.5
    # mean shifts are invisible to a covariance metric
    assert coral_distance(X, X + 5.0) == pytest.approx(0.0, abs=1e-12)
