import numpy as np
import pytest
import scipy.stats

from momentalign import analysis
from momentalign.analysis import (
    AlignmentReport,
    BoundCheck,
    KsResult,
    alignment_report,
    dual_equivalence_check,
    ks_two_sample,
    prop1_bound,
    prop1_check,
    sensitivity_sweep,
    thm3_check,
    write_sweep_csv,
)
from momentalign.datasets import ArtificialSpec, generate_artificial, one_hot
from momentalign.distances import CmdConfig
from momentalign.network import init_params
from momentalign.numerics import SeededRng
from momentalign.trainer import TrainConfig


def test_ks_statistic_matches_reference():
    rng = SeededRng(0)
    a = rng.normals(80)
    b = rng.normals(120) + 0.5
    ours = ks_two_sample(a, b)
    ref = scipy.stats.ks_2samp(a, b)
    assert ours.statistic == pytest.approx(ref.statistic, abs=1e-15)
    assert 0.0 <= ours.pvalue <= 1.0
    # a full-sigma shift at these sizes is decisively significant
    big = ks_two_sample(a, b + 0.5)
    assert big.significant and big.pvalue < 1e-2


def test_ks_identical_samples():
    a = SeededRng(1).normals(50)
    res = ks_two_sample(a, a.copy())
    assert res.statistic == 0.0
    assert res.pvalue == 1.0
    assert not res.significant


def test_ks_same_distribution_not_significant():
    rng = SeededRng(2)
    res = ks_two_sample(rng.normals(200), rng.normals(200))
    assert not res.significant
    assert res.pvalue > 0.05


def test_ks_pvalue_close_to_reference_asymptotic():
    rng = SeededRng(3)
    a, b = rng.normals(150), rng.normals(150) + 0.25
    ours = ks_two_sample(a, b)
    ref = scipy.stats.ks_2samp(a, b, method="asymp")
    # small-sample correction makes ours slightly different, same regime
    assert ours.pvalue == pytest.approx(ref.pvalue, rel=0.5, abs=1e-4)


def test_ks_result_to_dict():
    d = KsResult(0.25, 0.003, True).to_dict()
    assert d == {"statistic": 0.25, "pvalue": 0.003, "significant": True}


def test_bound_check_of():
    ok = BoundCheck.of("x", 1.0, 2.0, tol=0.0)
    assert ok.passed and ok.slack == 1.0
    edge = BoundCheck.of("x", 2.0 + 5e-10, 2.0, tol=1e-9)
    assert edge.passed  # within tolerance
    bad = BoundCheck.of("x", 2.1, 2.0, tol=1e-9)
    assert not bad.passed and bad.slack < 0


def test_alignment_report_identical_inputs():
    p = init_params(2, 6, 3, SeededRng(4))
    X = SeededRng(5).normal_matrix(40, 2)
    rep = alignment_report(p, X, X.copy())
    assert isinstance(rep, AlignmentReport)
    assert len(rep.nodes) == 6
    assert rep.significant == 0
    assert all(not node.significant for node in rep.nodes)


def test_alignment_report_counts_misaligned_nodes():
    p = init_params(2, 6, 3, SeededRng(4))
    Xs = SeededRng(6).normal_matrix(150, 2)
    Xt = Xs + 3.0  # strong covariate shift
    rep = alignment_report(p, Xs, Xt)
    assert rep.significant >= 4
    assert rep.significant == sum(n.significant for n in rep.nodes)


def test_prop1_bound_exact_values():
    assert prop1_bound(1) == 1.0
    assert prop1_bound(2) == 8.0 / 27.0 + 0.25
    with pytest.raises(ValueError):
        prop1_bound(0)


def test_prop1_check_on_unit_interval():
    rng = SeededRng(7)
    src = rng.uniforms(120)
    tgt = rng.uniforms(80) ** 2
    for j in (1, 2, 5):
        chk = prop1_check(src, tgt, j, 0.0, 1.0)
        assert chk.passed, (j, chk)
        assert chk.lhs >= 0 and chk.rhs > 0


def test_prop1_check_support_violation():
    with pytest.raises(ValueError):
        prop1_check(np.array([0.5, 1.5]), np.array([0.2, 0.3]), 2, 0.0, 1.0)
    with pytest.raises(ValueError):
        prop1_check(np.ones(3), np.ones(3), 2, 1.0, 1.0)  # empty interval


def test_thm3_check_holds_on_boxed_samples():
    # symmetric construction keeps the recentered support inside the box
    rng = SeededRng(8)
    for k in (1, 3, 5):
        u = rng.uniforms(30) * 0.4
        v = rng.uniforms(25) * 0.45
        src = np.concatenate([u, -u])
        tgt = np.concatenate([v, -v])
        chk = thm3_check(src, tgt, k=k)
        assert chk.passed, (k, chk)


def test_thm3_check_recents_and_rejects_wide_support():
    # mean-shifted but tight data is fine: the check recenters first
    rng = SeededRng(9)
    src = (rng.uniforms(40) - 0.5) * 0.5 + 10.0
    tgt = (rng.uniforms(40) - 0.5) * 0.5 + 10.0
    assert thm3_check(src, tgt, k=3).passed
    with pytest.raises(ValueError):
        thm3_check(rng.uniforms(40) * 3.0, rng.uniforms(40) * 3.0, k=3)


def test_thm3_check_even_k_rejected():
    rng = SeededRng(10)
    a = (rng.uniforms(30) - 0.5) * 0.9
    with pytest.raises(ValueError):
        thm3_check(a, a, k=2)


def test_dual_equivalence_scalar_exact():
    rng = SeededRng(11)
    chk = dual_equivalence_check(rng.uniforms(50), rng.uniforms(40) + 0.1)
    assert chk.passed
    assert abs(chk.slack) <= 1e-12


def test_dual_equivalence_multivariate_sampled():
    rng = SeededRng(12)
    src = rng.normal_matrix(40, 3) * 0.2
    tgt = rng.normal_matrix(35, 3) * 0.2 + 0.1
    chk = dual_equivalence_check(src, tgt, seed=3)
    assert chk.passed
    assert chk.lhs <= chk.rhs + 1e-10


def sweep_problem():
    src, tgt = generate_artificial(ArtificialSpec(total=45, seed=3))
    return (src.features, one_hot(src.label_ints, 3),
            tgt.features, one_hot(tgt.label_ints, 3))


def test_sensitivity_sweep_shape_and_baseline():
    Xs, Ys, Xt, Yt = sweep_problem()
    cfg = TrainConfig(hidden=3, epochs=4, k=2, seed=5)
    cells = sensitivity_sweep(Xs, Ys, Xt, Yt, ks=[1, 2], lambdas=[0.5, 1.0],
                              cfg=cfg)
    assert len(cells) == 4
    base_rows = [c for c in cells if c.k == 2]
    assert all(c.ratio == pytest.approx(1.0) for c in base_rows)
    for c in cells:
        assert 0.0 <= c.accuracy <= 1.0


def test_sensitivity_sweep_baseline_must_be_in_grid():
    Xs, Ys, Xt, Yt = sweep_problem()
    with pytest.raises(ValueError):
        sensitivity_sweep(Xs, Ys, Xt, Yt, ks=[1, 2], lambdas=[1.0],
                          cfg=TrainConfig(hidden=3, epochs=2, k=5))
    with pytest.raises(ValueError):
        sensitivity_sweep(Xs, Ys, Xt, Yt, ks=[], lambdas=[1.0],
                          cfg=TrainConfig(hidden=3, epochs=2))


@pytest.mark.parametrize("ks, lambdas, message", [
    ([2.7], [1.0], "ks must be a non-empty list of integers >= 1, got [2.7]"),
    ([2, True], [1.0], "ks must be a non-empty list of integers >= 1, got [2, True]"),
    ([-1], [1.0], "ks must be a non-empty list of integers >= 1, got [-1]"),
    (["2"], [1.0], "ks must be a non-empty list of integers >= 1, got ['2']"),
    ([2], [1.0, -0.5], "lambdas must be a non-empty list of numbers >= 0, got [1.0, -0.5]"),
    ([2], [False], "lambdas must be a non-empty list of numbers >= 0, got [False]"),
    ([2], ["1"], "lambdas must be a non-empty list of numbers >= 0, got ['1']"),
    ([2], [float("nan")], "lambdas must be a non-empty list of numbers >= 0, got [nan]"),
    ([2], [1.0, float("inf")], "lambda must be finite, got inf"),
    ([2], [10**400], "lambdas must be a non-empty list of numbers >= 0,"
                     " got [100000000000000000...0000000000000000000]"),
    ([2, 2**31], [1.0], "ks must be <= 2147483647"),
], ids=["k-float", "k-bool", "k-negative", "k-string", "lambda-negative", "lambda-bool",
        "lambda-string", "lambda-nan", "lambda-inf", "lambda-401-digits", "k-above-the-ceiling"])
def test_sensitivity_sweep_rejects_bad_grid_entries(ks, lambdas, message, monkeypatch):
    # the grid is checked before any cell trains: ks=[2.7] used to run as k = 2
    def no_training(*args, **kwargs):
        raise AssertionError("a cell trained before the grid was checked")

    monkeypatch.setattr(analysis, "train", no_training)
    Xs, Ys, Xt, Yt = sweep_problem()
    with pytest.raises(ValueError) as info:
        sensitivity_sweep(Xs, Ys, Xt, Yt, ks=ks, lambdas=lambdas,
                          cfg=TrainConfig(hidden=3, epochs=2, k=2))
    assert str(info.value) == message


def test_sensitivity_sweep_grid_accepts_numpy_scalars():
    Xs, Ys, Xt, Yt = sweep_problem()
    cells = sensitivity_sweep(Xs, Ys, Xt, Yt, ks=(np.int64(1),), lambdas=(np.float64(0.5), 1),
                              cfg=TrainConfig(hidden=3, epochs=2, k=1, seed=2))
    assert [(c.k, c.lam) for c in cells] == [(1, 0.5), (1, 1.0)]
    assert type(cells[0].k) is int and type(cells[1].lam) is float


def test_sweep_grid_refuses_an_integer_beyond_the_float_range():
    # float() of it raised OverflowError
    message = r"^lambdas must be a non-empty list of numbers >= 0, got \[1000"
    with pytest.raises(ValueError, match=message):
        analysis.sweep_grid([5], [10**400])
    assert analysis.sweep_grid([5], [2**1023]) == ([5], [2.0**1023])


def test_sweep_grid_holds_each_axis_to_its_least_value():
    # k = 0 is no order, lambda = 0 is plain training
    with pytest.raises(ValueError, match=r"^ks must be a non-empty list of integers >= 1, got \[0\]$"):
        analysis.sweep_grid([0], [1.0])
    assert analysis.sweep_grid([1], [0]) == ([1], [0.0])


def test_sensitivity_sweep_records_divergence_as_nan():
    Xs, Ys, Xt, Yt = sweep_problem()
    cfg = TrainConfig(hidden=3, epochs=2, k=1, optimizer="sgd",
                      alpha=float("inf"), seed=1)
    cells = sensitivity_sweep(Xs, Ys, Xt, Yt, ks=[1], lambdas=[0.0], cfg=cfg)
    assert len(cells) == 1
    assert np.isnan(cells[0].accuracy)
    assert np.isnan(cells[0].ratio)


def test_write_sweep_csv(tmp_path):
    Xs, Ys, Xt, Yt = sweep_problem()
    cfg = TrainConfig(hidden=3, epochs=3, k=1, seed=2)
    cells = sensitivity_sweep(Xs, Ys, Xt, Yt, ks=[1], lambdas=[1.0], cfg=cfg)
    path = tmp_path / "sweep.csv"
    write_sweep_csv(cells, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "k,lambda,accuracy,ratio"
    assert len(lines) == 2
    k, lam, acc, ratio = lines[1].split(",")
    assert k == "1" and float(lam) == 1.0
    assert float(ratio) == pytest.approx(1.0)
