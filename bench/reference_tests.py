"""Tests of the benchmark's reference code.

    python3 -m pytest bench/reference_tests.py

The file name keeps it out of the package's own test collection.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

import reference

# binary fractions, so the float sample is exactly the rational one
SAMPLE_X = [[Fraction(1, 2), Fraction(3)], [Fraction(1, 4), Fraction(-1)],
            [Fraction(2), Fraction(1, 8)], [Fraction(-3, 2), Fraction(5, 4)],
            [Fraction(7, 8), Fraction(-9, 4)]]
SAMPLE_Y = [[Fraction(-1, 4), Fraction(1)], [Fraction(3, 2), Fraction(1, 2)],
            [Fraction(5, 8), Fraction(-3, 2)], [Fraction(0), Fraction(9, 8)]]


def exact_central_moments(rows, k, full):
    n, m = len(rows), len(rows[0])
    mean = [sum(r[i] for r in rows) / n for i in range(m)]
    out = [mean]
    for j in range(2, k + 1):
        monos = reference._degree_monomials(m, j, full)
        out.append([sum(math.prod(r[i] - mean[i] for i in mono) for r in rows) / n
                    for mono in monos])
    return out


def as_float(rows):
    return np.array([[float(v) for v in r] for r in rows])


@pytest.mark.parametrize("full", [False, True])
def test_central_moments_match_rational_arithmetic(full):
    exact = exact_central_moments(SAMPLE_X, 5, full)
    got = reference.central_moments(as_float(SAMPLE_X), 5, full)
    for e, g in zip(exact, got):
        assert len(e) == len(g)
        for ev, gv in zip(e, g):
            assert abs(gv - float(ev)) <= 1e-14 * max(1.0, abs(float(ev)))


@pytest.mark.parametrize("full", [False, True])
def test_cmd_terms_match_rational_arithmetic(full):
    cx = exact_central_moments(SAMPLE_X, 4, full)
    cy = exact_central_moments(SAMPLE_Y, 4, full)
    exact = [math.sqrt(sum((a - b) ** 2 for a, b in zip(u, v))) for u, v in zip(cx, cy)]
    value, terms = reference.cmd(as_float(SAMPLE_X), as_float(SAMPLE_Y), 4, full)
    assert terms == pytest.approx(exact, rel=1e-13)
    assert value == pytest.approx(math.fsum(exact), rel=1e-13)
    assert reference.cmd(as_float(SAMPLE_X), as_float(SAMPLE_X), 4, full)[0] == 0.0


def test_full_mode_counts_every_monomial():
    assert len(reference._degree_monomials(3, 5, True)) == math.comb(7, 2)
    assert reference._degree_monomials(3, 2, False) == [(0, 0), (1, 1), (2, 2)]


def test_network_matches_scalar_definitions():
    params = {"W": [[0.5, -1.0], [2.0, 0.25], [-0.75, 1.5]], "b": [0.1, -0.2, 0.0],
              "V": [[1.0, -0.5, 0.25], [-1.0, 0.75, 0.5]], "c": [0.05, -0.05]}
    X = np.array([[1.0, 2.0], [-0.5, 0.25], [3.0, -1.0]])
    Y = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
    hidden, outputs = reference.forward(params, X)
    losses, hits = [], 0
    for x, y, h_row, o_row in zip(X, Y, hidden, outputs):
        h = [1.0 / (1.0 + math.exp(-(sum(w * xi for w, xi in zip(W, x)) + b)))
             for W, b in zip(params["W"], params["b"])]
        z = [sum(v * hi for v, hi in zip(V, h)) + c for V, c in zip(params["V"], params["c"])]
        p = [math.exp(zi) / sum(math.exp(zj) for zj in z) for zi in z]
        assert h_row == pytest.approx(h, rel=1e-14)
        assert o_row == pytest.approx(p, rel=1e-14)
        label = int(np.argmax(y))
        losses.append(-math.log(p[label]))
        hits += int(np.argmax(p) == label)
    assert reference.cross_entropy(outputs, Y) == pytest.approx(sum(losses) / 3, rel=1e-14)
    assert reference.accuracy(outputs, Y) == hits / 3


def test_rational_raw_moments():
    mu, sigma = Fraction(1, 2), Fraction(27, 100)
    assert reference.normal_raw_moment(mu, sigma, 2) == mu ** 2 + sigma ** 2
    assert reference.normal_raw_moment(mu, sigma, 4) == (
        mu ** 4 + 6 * mu ** 2 * sigma ** 2 + 3 * sigma ** 4)
    for n in range(6):  # Beta(1, 1) is uniform on [0, 1]
        assert reference.beta_raw_moment(Fraction(1), Fraction(1), n) == Fraction(1, n + 1)
    # 2 Y - 1 is uniform on [-1, 1]: odd moments vanish, even ones are 1/(n+1)
    for n in range(6):
        want = Fraction(1, n + 1) if n % 2 == 0 else 0
        assert reference.affine_beta_raw_moment(1, 1, 2, -1, n) == want


def test_poly_mmd_matches_kernel_means_on_point_masses():
    xs = [Fraction(1, 3), Fraction(2), Fraction(-1, 2)]
    ys = [Fraction(3, 4), Fraction(-2, 5)]

    def kernel_mean(a, b, d):
        return sum((1 + u * v) ** d for u in a for v in b) / (len(a) * len(b))

    for d in (1, 2, 4):
        brute = kernel_mean(xs, xs, d) + kernel_mean(ys, ys, d) - 2 * kernel_mean(xs, ys, d)
        raw = lambda pts: (lambda i: sum(p ** i for p in pts) / len(pts))
        assert reference.poly_mmd_sq(raw(xs), raw(ys), d) == brute


def test_appendix_mmd_k2_is_the_known_rational():
    # E_S[x] = E_L[x] = 1/2, so only the second raw moments differ
    half = Fraction(2, 5)
    got = reference.poly_mmd_sq(
        lambda n: reference.affine_beta_raw_moment(half, half, Fraction(4, 5), Fraction(1, 10), n),
        lambda n: reference.normal_raw_moment(Fraction(1, 2), Fraction(27, 100), n),
        2,
    )
    assert got == Fraction(1439, 90000) ** 2


def test_normal_closed_forms():
    assert reference.normal_central_moment(2.0, 4) == 3 * 2.0 ** 4
    assert reference.normal_central_moment(2.0, 6) == 15 * 2.0 ** 6
    assert reference.normal_central_moment(2.0, 5) == 0.0
    # sample variance and third central moment: 2 sigma^4 and 6 sigma^6
    assert reference.monomial_estimator_variance([1.5], (0, 0)) == pytest.approx(2 * 1.5 ** 4)
    assert reference.monomial_estimator_variance([1.5], (0, 0, 0)) == pytest.approx(6 * 1.5 ** 6)


@pytest.mark.parametrize("full", [False, True])
def test_sample_moments_of_normals_meet_closed_form(full):
    rng = np.random.default_rng(2)
    n, mus, sigmas = 200_000, [0.3, -1.0, 0.5], [0.8, 1.2, 1.0]
    X = mus + np.array(sigmas) * rng.standard_normal((n, 3))
    got = reference.central_moments(X, 5, full)
    assert got[0] == pytest.approx(mus, abs=5 * max(sigmas) / math.sqrt(n))
    for j in range(2, 6):
        for g, mono in zip(got[j - 1], reference._degree_monomials(3, j, full)):
            want = reference.monomial_central_moment(sigmas, mono)
            se = math.sqrt(reference.monomial_estimator_variance(sigmas, mono) / n)
            assert abs(g - want) <= 5 * se, (j, mono)
