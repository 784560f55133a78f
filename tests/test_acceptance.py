"""Acceptance checks, one test per criterion.

Each test pins its tolerances inline.  Two closed-form MMD reference
constants are evaluated verbatim by the verifier even though the exact
values for the fixture distributions land a hair past them; criterion 1
pins those constants, recomputes the exact values in rational arithmetic
and asserts that the verifier reports the overshoot as red rather than
loosening the threshold (see README, "known results").
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from momentalign import verify
from momentalign.analysis import BoundCheck, alignment_report, prop1_bound
from momentalign.cli import main
from momentalign.datasets import ArtificialSpec, generate_artificial
from momentalign.distances import cmd_estimate
from momentalign.moments import AffineBeta, Normal
from momentalign.numerics import SeededRng
from momentalign.trainer import TrainConfig, warm_start_train
from momentalign.verify import (
    check_appendix_a,
    check_char_fct,
    check_gradients,
    check_prop_bound,
)


# ---------------------------------------------------------------------------
# 1. closed-form inequality chains
# ---------------------------------------------------------------------------

MMD_LEFT_CONSTANTS = {"mmd_k2(S,L) < 0.00025", "mmd_k4(S,L) < 0.004"}


def test_criterion_1_appendix_inequality_chains():
    t0 = time.perf_counter()
    rows = check_appendix_a()
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    assert len(rows) == 18
    for r in rows:
        if r.name in MMD_LEFT_CONSTANTS:
            continue  # asserted separately below
        assert r.passed, f"{r.name}: lhs={r.lhs!r} rhs={r.rhs!r}"


# The fixture triple's documented parameters, as decimal strings so the
# oracle below reads them as exact rationals: S = 0.8 * Beta(0.4, 0.4) + 0.1
# and L = Normal(0.5, 0.27).
SOURCE_PARAMS = ("0.4", "0.4", "0.8", "0.1")
LEFT_PARAMS = ("0.5", "0.27")


def _exact_raw_moments(n_max: int) -> list:
    """[(E[S^n], E[L^n]) for n = 0..n_max] as Fractions."""
    alpha, beta, scale, shift = map(Fraction, SOURCE_PARAMS)
    mu, sigma = map(Fraction, LEFT_PARAMS)
    beta_raw = [Fraction(1)]  # E[Y^n] = prod_{r<n} (alpha+r)/(alpha+beta+r)
    for r in range(n_max):
        beta_raw.append(beta_raw[-1] * (alpha + r) / (alpha + beta + r))
    out = []
    for n in range(n_max + 1):
        source = sum(
            math.comb(n, i) * scale**i * shift ** (n - i) * beta_raw[i]
            for i in range(n + 1)
        )
        # E[Z^i] = (i-1)!! for even i, 0 for odd i
        left = sum(
            math.comb(n, i) * mu ** (n - i) * sigma**i * math.prod(range(i - 1, 0, -2))
            for i in range(0, n + 1, 2)
        )
        out.append((source, left))
    return out


def _exact_mmd_poly(degree: int) -> Fraction:
    """Squared MMD(S, L) with kernel (1 + x y)^degree."""
    moments = _exact_raw_moments(degree)
    return sum(
        math.comb(degree, i) * (moments[i][0] - moments[i][1]) ** 2
        for i in range(1, degree + 1)
    )


def test_criterion_1_mmd_left_reference_constants(monkeypatch):
    # The two reference constants are evaluated verbatim, with tolerance 0,
    # and the exact values for the fixture triple overshoot both:
    # mmd_k2(S,L) = (1439/90000)^2 ~ 2.5564e-4 > 0.00025 and
    # mmd_k4(S,L) ~ 4.2059e-3 > 0.004.  This test pins the constants, the
    # exact values and the negative slack the verifier must report for them.
    assert verify.SOURCE == AffineBeta(*map(float, SOURCE_PARAMS))
    assert verify.LEFT == Normal(*map(float, LEFT_PARAMS))

    tols = {}
    make_row = BoundCheck.of

    def recording_of(name, lhs, rhs, tol):
        tols[name] = tol
        return make_row(name, lhs, rhs, tol)

    monkeypatch.setattr(BoundCheck, "of", staticmethod(recording_of))
    rows = {r.name: r for r in check_appendix_a()}

    assert _exact_mmd_poly(2) == Fraction(1439, 90000) ** 2
    for name, degree, constant in (
        ("mmd_k2(S,L) < 0.00025", 2, "0.00025"),
        ("mmd_k4(S,L) < 0.004", 4, "0.004"),
    ):
        r = rows[name]
        exact = _exact_mmd_poly(degree)
        assert r.rhs == float(constant), name
        assert tols[name] == 0.0, name
        assert r.lhs == pytest.approx(float(exact), rel=1e-12, abs=0.0), name
        assert exact > Fraction(constant), name
        assert r.passed is False, name
        assert r.slack == r.rhs - r.lhs, name
        assert r.slack < 0.0, name

    # the means agree, so the red mmd_k2 row is the square of the green
    # raw second-moment row
    assert rows["mmd_k2(S,L) < 0.00025"].lhs == rows["d_P2(S,L) < 0.016"].lhs ** 2
    assert rows["d_P2(S,L) < 0.016"].passed


# ---------------------------------------------------------------------------
# 2. analytic gradients vs central finite differences
# ---------------------------------------------------------------------------


def test_criterion_2_gradient_oracle():
    t0 = time.perf_counter()
    rows = check_gradients(seed=0, cases=20)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    assert len(rows) == 40  # loss + cmd atom per case
    worst = max(r.lhs for r in rows)
    assert worst < 1e-5, f"worst relative error {worst!r}"
    assert all(r.passed for r in rows)
    names = " ".join(r.name for r in rows)
    for k in (1, 3, 5):
        assert f"k={k}" in names


# ---------------------------------------------------------------------------
# 3. order-j moment bound on [a, b]
# ---------------------------------------------------------------------------


def test_criterion_3_moment_bound():
    assert prop1_bound(1) == 1.0
    assert prop1_bound(2) == 8.0 / 27.0 + 0.25
    rows = check_prop_bound(seed=0, cases=10000)
    assert len(rows) == 7  # one worst-slack atom per order j = 1..7
    for r in rows:
        assert r.passed, f"{r.name}: lhs={r.lhs!r} rhs={r.rhs!r}"


# ---------------------------------------------------------------------------
# 4. characteristic-function bound
# ---------------------------------------------------------------------------


def test_criterion_4_characteristic_function_bound():
    rows = check_char_fct(seed=0, cases=50)
    assert len(rows) == 50
    for r in rows:
        assert r.passed, f"{r.name}: slack={r.slack!r}"


# ---------------------------------------------------------------------------
# 5. artificial domain-adaptation experiment
# ---------------------------------------------------------------------------


def test_criterion_5_artificial_domain_adaptation():
    t0 = time.perf_counter()
    passing = 0
    details = []
    for seed in range(5):
        src, tgt = generate_artificial(ArtificialSpec(seed=seed))
        res = warm_start_train(
            src.features, src.labels, tgt.features,
            TrainConfig(seed=seed), Yt=tgt.labels,
        )
        ks_shallow = alignment_report(
            res.shallow.params, src.features, tgt.features
        ).significant
        ks_mann = alignment_report(
            res.mann.params, src.features, tgt.features
        ).significant
        gap = (res.mann_target_acc - res.shallow_target_acc) * 100.0
        ok = (
            gap >= 8.0
            and res.mann_target_acc >= 0.95
            and ks_mann < ks_shallow
        )
        passing += ok
        details.append(
            f"seed={seed} gap={gap:+.1f} mann={res.mann_target_acc:.3f} "
            f"ks {ks_shallow}->{ks_mann} {'ok' if ok else 'MISS'}"
        )
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0, f"took {elapsed:.0f} s"
    assert passing >= 4, "; ".join(details)


# ---------------------------------------------------------------------------
# 6. pseudo-metric axioms
# ---------------------------------------------------------------------------


def test_criterion_6_pseudo_metric_axioms():
    rng = SeededRng(2026)
    for trial in range(1000):
        m = 1 + trial % 3
        n = 5 + trial % 30
        X = rng.normal_matrix(n, m)
        Y = rng.normal_matrix(n + 3, m) + 0.5
        Z = rng.uniform_matrix(n + 7, m) * 2.0
        assert cmd_estimate(X, X).value == 0.0
        dxy = cmd_estimate(X, Y).value
        assert dxy == cmd_estimate(Y, X).value  # exact symmetry
        dyz = cmd_estimate(Y, Z).value
        dxz = cmd_estimate(X, Z).value
        assert dxz <= dxy + dyz + 1e-10, trial


# ---------------------------------------------------------------------------
# 7. linear-time scaling in the sample count
# ---------------------------------------------------------------------------


def test_criterion_7_linear_time_scaling():
    m, n = 10, 100_000
    rng = SeededRng(7)
    X1, Y1 = rng.normal_matrix(n, m), rng.normal_matrix(n, m)
    X2, Y2 = rng.normal_matrix(2 * n, m), rng.normal_matrix(2 * n, m)
    cmd_estimate(X1, Y1)  # warm caches before timing

    # the two sizes take turns, so that drift of a shared host reaches
    # both medians alike
    times = {len(X1): [], len(X2): []}
    for _ in range(5):
        for X, Y in ((X1, Y1), (X2, Y2)):
            t0 = time.perf_counter()
            cmd_estimate(X, Y)
            times[len(X)].append(time.perf_counter() - t0)
    base, doubled = (sorted(t)[2] for t in times.values())
    assert doubled <= 2.5 * base, f"{doubled / base:.2f}x at 2x samples"


# ---------------------------------------------------------------------------
# 8. bitwise determinism of training runs
# ---------------------------------------------------------------------------


def test_criterion_8_train_determinism(tmp_path):
    import json

    doc = {
        "artificial": {"total": 100, "seed": 11},
        "train": {"hidden": 6, "epochs": 20, "lambda": 1.0, "seed": 11},
    }
    outputs = []
    for run in ("one", "two"):
        cfg = tmp_path / f"{run}.json"
        cfg.write_text(json.dumps(dict(doc, out=str(tmp_path / run))))
        assert main(["train", "--config", str(cfg)]) == 0
        outputs.append((tmp_path / run / "metrics.csv").read_bytes())
    assert outputs[0] == outputs[1]


# ---------------------------------------------------------------------------
# 9. external sparse review tasks (data not shipped)
# ---------------------------------------------------------------------------


def test_criterion_9_sparse_review_tasks():
    pytest.skip(
        "needs the externally licensed product-review dataset; "
        "12-direction comparison runs only where those files are provided"
    )
