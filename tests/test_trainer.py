import math
import os
import sys
import weakref
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import momentalign
from momentalign import distances, network, numerics, trainer
from momentalign.datasets import ArtificialSpec, generate_artificial, one_hot
from momentalign.distances import CmdConfig, cmd_estimate
from momentalign.network import (
    cmd_gradients,
    cross_entropy_loss,
    forward,
    init_params,
    loss_gradients,
)
from momentalign.numerics import SeededRng, SparseRowMatrix
from momentalign.optim import Adadelta, Sgd
from momentalign.trainer import (
    TrainConfig,
    evaluate,
    step_gradients,
    train,
    warm_start_train,
    write_metrics_csv,
)

from helpers import add_scaled, bag_of_words, lie_back_to_back, objective, traced_peak


def small_problem(total=60, seed=0):
    spec = ArtificialSpec(total=total, seed=seed)
    src, tgt = generate_artificial(spec)
    Ys = one_hot(src.label_ints, 3)
    Yt = one_hot(tgt.label_ints, 3)
    return src.features, Ys, tgt.features, Yt


def params_equal(a, b):
    return all(
        np.array_equal(x, y)
        for x, y in [(a.W, b.W), (a.b, b.b), (a.V, b.V), (a.c, b.c)]
    )


def test_lambda_zero_matches_plain_backprop_bitwise():
    Xs, Ys, Xt, _ = small_problem()
    cfg = TrainConfig(hidden=4, lam=0.0, optimizer="sgd", alpha=0.5,
                      epochs=10, seed=3)
    res = train(Xs, Ys, Xt, cfg)

    p = init_params(Xs.shape[1], 4, 3, SeededRng(3))
    opt = Sgd(alpha=0.5)
    for _ in range(10):
        opt.step(p, loss_gradients(p, Xs, Ys))
    assert params_equal(res.params, p)
    assert not res.diverged
    assert len(res.records) == 10
    assert [r.epoch for r in res.records] == list(range(1, 11))


@settings(max_examples=6, deadline=None)
@given(st.integers(0, 2**16), st.sampled_from([0.0, 1.0]))
def test_full_batch_train_equals_fresh_forward_loop(seed, lam):
    # The trainer reuses each record's traces as the next step's; a loop
    # that forwards afresh every step must give the same bits.
    Xs, Ys, Xt, Yt = small_problem(seed=seed % 7)
    cfg = TrainConfig(hidden=5, lam=lam, epochs=20, seed=seed)
    calls = []

    def counting_forward(p, X, wt=None):
        calls.append(X is Xs)
        return network.forward(p, X, wt=wt)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(trainer, "forward", counting_forward)
        res = train(Xs, Ys, Xt, cfg, Yt=Yt)
    # one forward per domain per epoch, plus the first step's own
    assert len(calls) == 2 * cfg.epochs + (1 if lam == 0.0 else 2)
    assert sum(calls) == cfg.epochs + 1

    p = init_params(Xs.shape[1], 5, 3, SeededRng(seed))
    opt = Adadelta(rho=cfg.rho, eps=1e-6)
    for _ in range(cfg.epochs):
        trace_s, trace_t = forward(p, Xs), forward(p, Xt)
        opt.step(p, step_gradients(p, Xs, Ys, Xt, lam, CmdConfig(k=cfg.k), trace_s, trace_t))
    assert params_equal(res.params, p)
    last = res.records[-1]
    trace_s, trace_t = forward(p, Xs), forward(p, Xt)
    assert last.loss == cross_entropy_loss(trace_s, Ys)
    assert last.cmd == cmd_estimate(trace_s.hidden, trace_t.hidden, CmdConfig(k=cfg.k)).value
    assert last.target_acc == evaluate(p, Xt, Yt)[0]


@pytest.mark.parametrize("batch_size, per_epoch", [(0, 2), (20, 2 + 2 * 3)])
def test_lambda_step_reuses_the_records_moment_pass(batch_size, per_epoch):
    # full batch: the record's pass of (h0(Xs), h0(Xt)) is the next step's,
    # so only the first step makes its own; a minibatch step (3 an epoch
    # here) always does
    Xs, Ys, Xt, _ = small_problem()
    cfg = TrainConfig(hidden=5, lam=1.0, epochs=6, batch_size=batch_size, seed=2)
    passes = []
    kernel = distances._stacked_central_moments

    def counting_kernel(S, k, mode):
        passes.append(S.shape)
        return kernel(S, k, mode)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(distances, "_stacked_central_moments", counting_kernel)
        res = train(Xs, Ys, Xt, cfg)
    assert len(res.records) == cfg.epochs
    first_step = 2 if batch_size == 0 else 0
    assert len(passes) == per_epoch * cfg.epochs + first_step


@pytest.mark.parametrize("sparse", [False, True])
@pytest.mark.parametrize("lam", [0.0, 1.0])
def test_steps_keep_gradients_and_parameters_views_of_their_vectors(sparse, lam):
    if sparse:
        Xs, Ys, Xt = sparse_pair(seed=5)
        p = init_params(Xs.cols, 4, 2, SeededRng(6))
    else:
        Xs, Ys, Xt, _ = small_problem(seed=5)
        p = init_params(Xs.shape[1], 4, 3, SeededRng(6))
    params = p.flat
    opt = Adadelta()
    for _ in range(3):
        trace_s, trace_t = forward(p, Xs), forward(p, Xt)
        g = step_gradients(p, Xs, Ys, Xt, lam, CmdConfig(k=3), trace_s, trace_t)
        assert lie_back_to_back(g.flat, (g.W, g.b, g.V, g.c))
        opt.step(p, g)
        assert p.flat is params and lie_back_to_back(p.flat, (p.W, p.b, p.V, p.c))


def test_train_deterministic():
    Xs, Ys, Xt, Yt = small_problem()
    cfg = TrainConfig(hidden=5, epochs=6, seed=7)
    a = train(Xs, Ys, Xt, cfg, Yt=Yt)
    b = train(Xs, Ys, Xt, cfg, Yt=Yt)
    assert params_equal(a.params, b.params)
    assert [(r.loss, r.cmd) for r in a.records] == [(r.loss, r.cmd) for r in b.records]


def test_cmd_term_changes_training():
    Xs, Ys, Xt, _ = small_problem()
    plain = train(Xs, Ys, Xt, TrainConfig(hidden=4, lam=0.0, epochs=8, seed=1))
    mann = train(Xs, Ys, Xt, TrainConfig(hidden=4, lam=1.0, epochs=8, seed=1))
    assert not params_equal(plain.params, mann.params)
    # the aligned run should end with a smaller activation distance
    assert mann.records[-1].cmd < plain.records[-1].cmd


def test_snapshot_matches_shorter_run():
    Xs, Ys, Xt, _ = small_problem()
    long = train(Xs, Ys, Xt, TrainConfig(hidden=4, epochs=5, seed=2),
                 snapshot_at=3)
    short = train(Xs, Ys, Xt, TrainConfig(hidden=4, epochs=3, seed=2))
    assert long.snapshot_epoch == 3
    assert params_equal(long.snapshot, short.params)
    # snapshot_at=0 is the untouched initialization
    init_only = train(Xs, Ys, Xt, TrainConfig(hidden=4, epochs=2, seed=2),
                      snapshot_at=0)
    fresh = init_params(Xs.shape[1], 4, 3, SeededRng(2))
    assert params_equal(init_only.snapshot, fresh)


def test_continuation_epoch_numbering():
    Xs, Ys, Xt, _ = small_problem()
    cfg = TrainConfig(hidden=4, epochs=5, seed=2)
    base = train(Xs, Ys, Xt, cfg, snapshot_at=3)
    cont = train(Xs, Ys, Xt, replace(cfg, epochs=2), init=base.snapshot, start_epoch=3)
    assert [r.epoch for r in cont.records] == [4, 5]


def test_minibatch_runs_and_is_deterministic():
    Xs, Ys, Xt, Yt = small_problem()
    cfg = TrainConfig(hidden=4, epochs=4, batch_size=16, seed=5)
    a = train(Xs, Ys, Xt, cfg, Yt=Yt)
    b = train(Xs, Ys, Xt, cfg, Yt=Yt)
    assert params_equal(a.params, b.params)
    assert not a.diverged
    # different from the full-batch path
    full = train(Xs, Ys, Xt, TrainConfig(hidden=4, epochs=4, seed=5))
    assert not params_equal(a.params, full.params)


def test_divergence_reverts_to_last_stable():
    Xs, Ys, Xt, _ = small_problem()
    cfg = TrainConfig(hidden=4, lam=0.0, optimizer="sgd",
                      alpha=float("inf"), epochs=3, seed=4)
    res = train(Xs, Ys, Xt, cfg)
    assert res.diverged
    assert res.records == []
    # reverted to the initialization, which is the last stable point
    fresh = init_params(Xs.shape[1], 4, 3, SeededRng(4))
    assert params_equal(res.params, fresh)


def test_non_finite_gradient_reverts_to_last_stable():
    # the optimizer's own check, which runs before it moves anything, is
    # the one scan of a step's gradients; train takes its error as divergence
    Xs, Ys, Xt, _ = small_problem()
    cfg = TrainConfig(hidden=4, epochs=5, seed=4)
    calls = []

    def nan_on_third_step(*args):
        grads = step_gradients(*args)
        calls.append(None)
        if len(calls) == 3:
            grads.b[1] = np.nan
        return grads

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(trainer, "step_gradients", nan_on_third_step)
        res = train(Xs, Ys, Xt, cfg)
    assert res.diverged and len(calls) == 3 and len(res.records) == 2
    assert params_equal(res.params, train(Xs, Ys, Xt, replace(cfg, epochs=2)).params)


@pytest.mark.parametrize("name", "WbVc")
def test_divergence_keeps_a_non_finite_gradients_name_epoch_and_step(name):
    # minibatches of 16 on 60 rows: four steps an epoch; step 6 is epoch 2's step 1
    Xs, Ys, Xt, _ = small_problem()
    cfg = TrainConfig(hidden=4, epochs=5, batch_size=16, seed=4)
    calls = []

    def nan_on_sixth_step(*args):
        grads = step_gradients(*args)
        calls.append(None)
        if len(calls) == 6:
            getattr(grads, name)[0] = np.nan
        return grads

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(trainer, "step_gradients", nan_on_sixth_step)
        res = train(Xs, Ys, Xt, cfg)
    assert res.diverged and len(res.records) == 1
    assert (res.cause, res.cause_epoch, res.cause_batch) == (f"non-finite gradient d{name}", 2, 1)


def test_divergence_keeps_non_finite_parameters_at_the_first_step():
    # an infinite SGD step leaves non-finite parameters after the first step
    Xs, Ys, Xt, _ = small_problem()
    cfg = TrainConfig(hidden=4, lam=0.0, optimizer="sgd", alpha=float("inf"), epochs=3, seed=4)
    res = train(Xs, Ys, Xt, cfg)
    assert (res.diverged, res.cause, res.cause_epoch, res.cause_batch) == (
        True, "non-finite parameters", 1, 0)


def test_divergence_in_an_epochs_record_has_no_step():
    # the record of epoch start_epoch + 2 reads a NaN loss; the epoch counts
    # from 1 across a continued run, as EpochRecord.epoch does
    Xs, Ys, Xt, _ = small_problem()
    losses = []

    def nan_on_second_record(*args):
        losses.append(cross_entropy_loss(*args))
        return np.nan if len(losses) == 2 else losses[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(trainer, "cross_entropy_loss", nan_on_second_record)
        res = train(Xs, Ys, Xt, TrainConfig(hidden=4, epochs=5, seed=4), start_epoch=7)
    assert [r.epoch for r in res.records] == [8]
    assert (res.diverged, res.cause, res.cause_epoch, res.cause_batch) == (
        True, "non-finite loss or CMD", 9, None)


def test_a_run_that_does_not_diverge_has_no_cause():
    Xs, Ys, Xt, _ = small_problem()
    res = train(Xs, Ys, Xt, TrainConfig(hidden=4, epochs=3, batch_size=16, seed=4))
    assert (res.diverged, res.cause, res.cause_epoch, res.cause_batch) == (False, None, None, None)


def test_train_input_validation():
    Xs, Ys, Xt, _ = small_problem()
    with pytest.raises(ValueError):
        train(Xs, Ys[:-1], Xt, TrainConfig(epochs=1))
    with pytest.raises(ValueError):
        train(Xs[:0], Ys[:0], Xt, TrainConfig(epochs=1))


def test_train_rejects_class_ids_in_place_of_one_hot_labels():
    # used to die in NumPy: axis 1 is out of bounds for array of dimension 1
    Xs, Ys, Xt, _ = small_problem()
    with pytest.raises(ValueError, match="^source labels must have columns, one per class$"):
        train(Xs, Ys.argmax(axis=1), Xt, TrainConfig(hidden=4, epochs=1))


@pytest.mark.parametrize("rows", [1, 5])
def test_train_rejects_target_labels_of_another_row_count(monkeypatch, rows):
    # one row of class 2 used to broadcast against every target output and
    # record a target accuracy of len(Xt); five failed at the first record
    Xs, Ys, Xt, _ = small_problem()
    forwards = []
    monkeypatch.setattr(trainer, "forward", lambda *a, **kw: forwards.append(1))
    with pytest.raises(ValueError, match="^target labels do not align with features$"):
        train(Xs, Ys, Xt, TrainConfig(hidden=4, epochs=2), Yt=one_hot([2] * rows, 3))
    assert forwards == []


@pytest.mark.parametrize("rows", [1, 5])
def test_evaluate_rejects_labels_of_another_row_count(rows):
    Xs, _, _, _ = small_problem()
    p = init_params(Xs.shape[1], 4, 3, SeededRng(0))
    with pytest.raises(ValueError, match="^labels do not align with features$"):
        evaluate(p, Xs, one_hot([2] * rows, 3))


@pytest.mark.parametrize("columns", [2, 4])
def test_train_rejects_target_labels_of_another_column_count(monkeypatch, columns):
    # two columns beside a three-class source used to train and record
    # the target accuracy of class ids the network may not have
    Xs, Ys, Xt, Yt = small_problem()
    forwards = []
    monkeypatch.setattr(trainer, "forward", lambda *a, **kw: forwards.append(1))
    with pytest.raises(ValueError, match="^target labels must have 3 columns, one per class$"):
        train(Xs, Ys, Xt, TrainConfig(hidden=4, epochs=3), Yt=one_hot(Yt.argmax(axis=1) % 2, columns))
    assert forwards == []


@pytest.mark.parametrize("columns", [2, 4])
def test_evaluate_rejects_labels_of_another_column_count(monkeypatch, columns):
    # two columns used to fail in NumPy's broadcast after the forward pass
    Xs, Ys, _, _ = small_problem()
    p = init_params(Xs.shape[1], 4, 3, SeededRng(0))
    forwards = []
    monkeypatch.setattr(trainer, "forward", lambda *a, **kw: forwards.append(1))
    with pytest.raises(ValueError, match="^labels must have 3 columns, one per class"):
        evaluate(p, Xs, one_hot(Ys.argmax(axis=1) % 2, columns))
    assert forwards == []


@pytest.mark.parametrize("name, value", [("Xs", np.nan), ("Ys", np.nan), ("Xt", np.inf),
                                         ("Yt", -np.inf)])
@pytest.mark.parametrize("entry", [train, warm_start_train])
def test_train_rejects_non_finite_inputs(entry, name, value):
    # a NaN in Xs used to give a false divergence with no records, and an
    # inf in Xt at lambda = 0 trained without complaint
    data = dict(zip(("Xs", "Ys", "Xt", "Yt"), (np.array(a, dtype=float) for a in small_problem())))
    data[name][3, 1] = value
    cfg = TrainConfig(hidden=4, lam=0.0 if name == "Xt" else 1.0, epochs=3, seed=1)
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        entry(data["Xs"], data["Ys"], data["Xt"], cfg, Yt=data["Yt"])


def test_train_rejects_non_finite_sparse_data():
    Xs, Ys, Xt, _ = small_problem()
    sparse = SparseRowMatrix.from_rows([[(0, v), (1, 1.0)] for v in Xt[:, 0]], 2)
    sparse.data[5] = np.nan
    with pytest.raises(ValueError, match="^Xt must be finite"):
        train(Xs, Ys, sparse, TrainConfig(hidden=4, epochs=1))


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(hidden=0)
    with pytest.raises(ValueError):
        TrainConfig(lam=-0.5)
    with pytest.raises(ValueError):
        TrainConfig(warm_start_fraction=1.5)
    with pytest.raises(ValueError):
        TrainConfig.from_dict({"lambda": 1.0, "momentum": 0.9})
    cfg = TrainConfig.from_dict({"lambda": 2.0, "hidden": 7})
    assert cfg.lam == 2.0 and cfg.hidden == 7
    assert TrainConfig.from_dict(cfg.to_dict()) == cfg


def test_objective_and_evaluate():
    Xs, Ys, Xt, Yt = small_problem()
    p = init_params(2, 4, 3, SeededRng(0))
    total, loss, cmd = objective(p, Xs, Ys, Xt, TrainConfig(lam=0.0))
    assert total == loss and cmd >= 0.0
    total2, loss2, cmd2 = objective(p, Xs, Ys, Xt, TrainConfig(lam=2.0))
    assert total2 == pytest.approx(loss2 + 2.0 * cmd2, rel=1e-12)
    acc, dis = evaluate(p, Xs, Ys)
    assert 0.0 <= acc <= 1.0 and 0.0 <= dis <= 1.0
    with pytest.raises(ValueError):
        evaluate(p, Xs[:0], Ys[:0])


def test_warm_start_protocol():
    Xs, Ys, Xt, Yt = small_problem()
    cfg = TrainConfig(hidden=4, epochs=9, warm_start_fraction=2.0 / 3.0, seed=6)
    res = warm_start_train(Xs, Ys, Xt, cfg, Yt=Yt)
    assert res.snapshot_epoch == 6
    assert len(res.shallow.records) == 9
    assert [r.epoch for r in res.mann.records] == [7, 8, 9]
    for acc in (res.shallow_source_acc, res.mann_source_acc,
                res.shallow_target_acc, res.mann_target_acc):
        assert 0.0 <= acc <= 1.0
    # the continuation starts from the snapshot, not the shallow end state
    assert not params_equal(res.mann.params, res.shallow.params)


@pytest.mark.parametrize("lam", [0.0, 1.0])
@pytest.mark.parametrize("with_target_labels", [True, False])
def test_warm_start_accuracies_come_from_the_last_records(lam, with_target_labels):
    # each phase's last record took its accuracies from forwards of its final
    # parameters; only a phase with no records (the lambda = 0
    # continuation) is evaluated
    Xs, Ys, Xt, Yt = small_problem()
    Yt = Yt if with_target_labels else None
    cfg = TrainConfig(hidden=4, lam=lam, epochs=9, seed=6)
    evaluated = []

    def counting_evaluate(p, X, Y):
        evaluated.append(X is Xs)
        return evaluate(p, X, Y)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(trainer, "evaluate", counting_evaluate)
        res = warm_start_train(Xs, Ys, Xt, cfg, Yt=Yt)
    assert evaluated == ([] if lam else [True] + ([False] if Yt is not None else []))
    for phase, src_acc, tgt_acc in ((res.shallow, res.shallow_source_acc, res.shallow_target_acc),
                                    (res.mann, res.mann_source_acc, res.mann_target_acc)):
        assert src_acc == evaluate(phase.params, Xs, Ys)[0]
        assert tgt_acc == (evaluate(phase.params, Xt, Yt)[0] if Yt is not None else None)


def test_warm_start_lambda_zero_keeps_snapshot():
    Xs, Ys, Xt, _ = small_problem()
    cfg = TrainConfig(hidden=4, lam=0.0, epochs=6, seed=8)
    res = warm_start_train(Xs, Ys, Xt, cfg)
    assert params_equal(res.mann.params, res.shallow.snapshot)
    assert res.mann.records == []
    assert res.shallow_target_acc is None and res.mann_target_acc is None


def test_warm_start_after_a_shallow_divergence_starts_no_aligned_run():
    # the shallow run diverges at its first epoch, before the snapshot
    # epoch 2: its last stable parameters, the initialization, stand in
    Xs, Ys, Xt, _ = small_problem()
    cfg = TrainConfig(hidden=4, lam=1.0, optimizer="sgd", alpha=float("inf"), epochs=3, seed=4)
    res = warm_start_train(Xs, Ys, Xt, cfg)
    assert res.shallow.diverged and res.shallow.snapshot is None
    assert not res.mann.diverged and res.mann.records == []
    assert params_equal(res.mann.params, init_params(Xs.shape[1], 4, 3, SeededRng(4)))


@pytest.mark.parametrize("epochs, fraction", [(1, 2.0 / 3.0), (9, 1.0)])
def test_warm_start_without_an_aligned_epoch_is_rejected_before_training(epochs, fraction):
    Xs, Ys, Xt, _ = small_problem()
    cfg = TrainConfig(hidden=4, epochs=epochs, warm_start_fraction=fraction, seed=8)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(trainer, "train", lambda *a, **kw: pytest.fail("a run started"))
        with pytest.raises(ValueError, match=f"^warm_start_fraction {fraction!r} of {epochs} "
                                             f"epochs leaves the aligned run no epoch$"):
            warm_start_train(Xs, Ys, Xt, cfg)


def test_write_metrics_csv(tmp_path):
    Xs, Ys, Xt, Yt = small_problem()
    res = train(Xs, Ys, Xt, TrainConfig(hidden=4, epochs=3, seed=1), Yt=Yt)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_metrics_csv(res.records, p1)
    write_metrics_csv(res.records, p2)
    assert p1.read_bytes() == p2.read_bytes()
    lines = p1.read_text().splitlines()
    assert lines[0] == "epoch,loss,cmd,source_acc,target_acc"
    assert len(lines) == 4
    assert lines[1].startswith("1,")
    # no target labels: nan column
    res2 = train(Xs, Ys, Xt, TrainConfig(hidden=4, epochs=1, seed=1))
    write_metrics_csv(res2.records, p1)
    assert p1.read_text().splitlines()[1].endswith(",nan")


def sparse_pair(seed=0, rows=40, cols=30):
    """Two seeded count matrices, a fifth and three tenths of the entries
    set and every ninth row empty, with two-class labels for the source."""
    rng = SeededRng(seed)
    domains = []
    for density in (0.2, 0.3):
        u = rng.uniform_matrix(rows, cols)
        counts = np.where(u < density, np.floor(u / density * 6.0) + 1.0, 0.0)
        counts[::9] = 0.0
        domains.append(SparseRowMatrix.from_rows(
            [[(i, v) for i, v in enumerate(row) if v] for row in counts], cols))
    first_half = domains[0].toarray()[:, : cols // 2].sum(axis=1)
    labels = (first_half > np.median(first_half)).astype(int)
    return domains[0], one_hot(labels, 2), domains[1]


def test_sparse_minibatch_train_bitwise_equals_add_at_products():
    # The sparse products' scatter kernel must give add.at's bits, so that
    # a whole minibatch run through it is unchanged.
    Xs, Ys, Xt = sparse_pair()
    cfg = TrainConfig(hidden=6, lam=1.0, epochs=2, batch_size=8, seed=4)
    calls = []

    def add_at_dot(S, D):
        calls.append("dot")
        out = np.zeros((S.rows, D.shape[1]))
        np.add.at(out, np.repeat(np.arange(S.rows), np.diff(S.indptr)),
                  S.data[:, None] * D[S.indices])
        return out

    def add_at_t_dot(S, D, out, n):
        calls.append("t_dot")
        product = np.zeros((S.cols, D.shape[1]))
        np.add.at(product, S.indices,
                  S.data[:, None] * D[np.repeat(np.arange(S.rows), np.diff(S.indptr))])
        out += product / n
        return out

    res = train(Xs, Ys, Xt, cfg)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(SparseRowMatrix, "dot_dense", add_at_dot)
        mp.setattr(SparseRowMatrix, "t_dot_dense", add_at_t_dot)
        ref = train(Xs, Ys, Xt, cfg)
    assert set(calls) == {"dot", "t_dot"}
    assert not res.diverged and len(res.records) == 2
    assert res.params.to_json() == ref.params.to_json()
    assert repr(res.records) == repr(ref.records)  # repr tells -0.0 from 0.0


def gradients_close(got, want, rel=1e-12):
    scale = max(np.abs(a).max() for a in (want.W, want.b, want.V, want.c))
    return all(np.all(np.abs(g - w) <= rel * scale) for g, w in (
        (got.W, want.W), (got.b, want.b), (got.V, want.V), (got.c, want.c)))


@pytest.mark.parametrize("sparse", [False, True])
@pytest.mark.parametrize("lam", [0.0, 0.3, 2.0])
def test_step_gradients_is_loss_plus_lambda_cmd(sparse, lam):
    if sparse:
        Xs, Ys, Xt = sparse_pair(seed=2, rows=12)
        p = init_params(Xs.cols, 5, 2, SeededRng(3))
        Xt = Xt.take_rows(np.arange(9))  # unequal sample sizes
    else:
        Xs, Ys, Xt, _ = small_problem(total=45, seed=2)
        p = init_params(Xs.shape[1], 5, 3, SeededRng(3))
        Xt = Xt[:11]
    cmd_cfg = CmdConfig(k=4)
    trace_s, trace_t = forward(p, Xs), forward(p, Xt)
    got = step_gradients(p, Xs, Ys, Xt, lam, cmd_cfg, trace_s, trace_t)
    want = loss_gradients(p, Xs, Ys, trace_s)
    if lam == 0.0:
        assert all(np.array_equal(g.view(np.int64), w.view(np.int64)) for g, w in (
            (got.W, want.W), (got.b, want.b), (got.V, want.V), (got.c, want.c)))
    else:
        add_scaled(want, cmd_gradients(p, Xs, Xt, cmd_cfg, trace_s, trace_t), lam)
        assert gradients_close(got, want)


@pytest.mark.parametrize("lam, per_step", [(0.0, 1), (1.0, 2)])
def test_sparse_minibatch_step_makes_one_input_product_per_domain(lam, per_step):
    Xs, Ys, Xt = sparse_pair()
    cfg = TrainConfig(hidden=6, lam=lam, epochs=2, batch_size=8, seed=4)
    calls = []
    t_dot = SparseRowMatrix.t_dot_dense

    def counting_t_dot(S, D, out, n):
        calls.append(S.rows)
        return t_dot(S, D, out, n)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(SparseRowMatrix, "t_dot_dense", counting_t_dot)
        res = train(Xs, Ys, Xt, cfg)
    steps = cfg.epochs * 40 // cfg.batch_size
    assert not res.diverged
    assert calls == [cfg.batch_size] * (per_step * steps)


@pytest.mark.parametrize("sparse", [False, True])
@pytest.mark.parametrize("lam", [0.0, 1.0])
def test_a_run_allocates_one_gradient_and_one_rollback_copy(sparse, lam):
    # every step refills the run's one gradient and every epoch refreshes
    # its one rollback copy in place
    if sparse:
        Xs, Ys, Xt = sparse_pair(seed=3)
    else:
        Xs, Ys, Xt, _ = small_problem(seed=3)
    cfg = TrainConfig(hidden=4, lam=lam, epochs=4, batch_size=8, seed=1)
    made = []
    zeros_like, copy = network.NetworkParams.zeros_like, network.NetworkParams.copy
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(network.NetworkParams, "zeros_like", lambda p: made.append("gradient") or zeros_like(p))
        mp.setattr(network.NetworkParams, "copy", lambda p: made.append("copy") or copy(p))
        res = train(Xs, Ys, Xt, cfg)
    assert not res.diverged and len(res.records) == cfg.epochs
    assert sorted(made) == ["copy", "gradient"]


def paper_shape_epoch(batch_size):
    """(result, tracemalloc peak) of one lambda = 1 epoch at the paper's
    sentiment shape: 1000 x 5000 bag-of-words domains, 50 hidden units."""
    Xs, Xt = bag_of_words(seed=1), bag_of_words(seed=2)
    Ys = one_hot(np.arange(Xs.rows) % 2, 2)
    cfg = TrainConfig(hidden=50, lam=1.0, epochs=1, batch_size=batch_size, seed=3)
    return traced_peak(train, Xs, Ys, Xt, cfg)


@pytest.mark.parametrize("batch_size", [0, 64], ids=["full-batch", "minibatch"])
def test_sparse_epoch_memory_is_bounded_by_the_model(batch_size):
    # the sparse products' nnz x hidden temporaries and the optimizer's
    # per-step arrays peaked at 53.6 MiB (full batch) and 55.5 MiB (B =
    # 64); W is 1.9 MiB.  Nine parameter-sized arrays alive in a step read
    # 16.1 and 21.0 MiB
    res, peak = paper_shape_epoch(batch_size)
    assert not res.diverged
    assert peak <= 16 * 2**20, f"{peak / 2**20:.1f} MiB"


@pytest.mark.parametrize("batch_size", [0, 64], ids=["full-batch", "minibatch"])
def test_sparse_epoch_memory_is_five_arrays_and_one_forward(batch_size):
    # the five parameter-sized arrays a step needs (parameters, rollback
    # copy, Adadelta's G and E, one gradient) are 9.6 MiB; with one
    # forward's working set the epoch reads 11.9 and 11.2 MiB.  A C-ordered
    # copy of W.T made by each sparse forward read 13.8 and 15.7 MiB, 2.2
    # MiB of the latter being every minibatch of the epoch built up front
    res, peak = paper_shape_epoch(batch_size)
    assert not res.diverged
    assert peak <= 12.5 * 2**20, f"{peak / 2**20:.1f} MiB"


def tracking_take_rows(Xs):
    """A take_rows double and, per domain ("source" is Xs, "target" any
    other), what it saw: a weak reference to each batch it gave out, and
    the most of them alive at once."""
    taken = {"source": [], "target": []}
    most_alive = {"source": 0, "target": 0}

    def take_rows(X, idx):
        batch = numerics.take_rows(X, idx)
        taken["source" if X is Xs else "target"].append(weakref.ref(batch))
        for side, refs in taken.items():
            most_alive[side] = max(most_alive[side], sum(r() is not None for r in refs))
        return batch

    return taken, most_alive, take_rows


@pytest.mark.parametrize("sparse", [False, True])
def test_a_minibatch_epoch_holds_one_batch_per_domain_at_a_time(sparse):
    if sparse:
        Xs, Ys, Xt = sparse_pair(seed=3)
    else:
        Xs, Ys, Xt, _ = small_problem(seed=3)
    cfg = TrainConfig(hidden=4, lam=1.0, epochs=2, batch_size=8, seed=1)
    taken, most_alive, take_rows = tracking_take_rows(Xs)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(trainer, "take_rows", take_rows)
        res = train(Xs, Ys, Xt, cfg)
    steps = cfg.epochs * math.ceil(max(numerics.n_rows(Xs), numerics.n_rows(Xt)) / cfg.batch_size)
    assert not res.diverged
    assert [len(taken["source"]), len(taken["target"])] == [steps, steps]
    assert most_alive == {"source": 1, "target": 1}


def test_a_lambda_0_minibatch_run_takes_no_target_rows():
    Xs, Ys, Xt = sparse_pair(seed=3)
    cfg = TrainConfig(hidden=4, lam=0.0, epochs=2, batch_size=8, seed=1)
    taken, _, take_rows = tracking_take_rows(Xs)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(trainer, "take_rows", take_rows)
        res = train(Xs, Ys, Xt, cfg)
    assert not res.diverged
    assert taken["source"] and not taken["target"]


@pytest.mark.parametrize("lam, most", [(0.0, 68), (1.0, 72)])
def test_an_epoch_makes_no_more_package_calls_than_measured(lam, most):
    # calls into src/momentalign per full-batch epoch on the default
    # problem: the difference between a 20- and a 10-epoch run, over 10.
    # The count is exact on any host, so it gates per-epoch overhead where
    # wall time cannot; it read 80 and 107 before the optimizer's one step
    # scaffold, and 74 and 101 while the CMD read a weight per order and
    # its cotangents went through the 1-based moment accessor.  A failure
    # lists the calls per (file, function).
    src, tgt = generate_artificial(ArtificialSpec())
    package = os.path.dirname(momentalign.__file__) + os.sep

    def calls(epochs):
        count = Counter()

        def profile(frame, event, arg):
            code = frame.f_code
            if event == "call" and code.co_filename.startswith(package):
                count[os.path.basename(code.co_filename), code.co_name] += 1

        sys.setprofile(profile)
        try:
            train(src.features, src.labels, tgt.features, TrainConfig(epochs=epochs, lam=lam),
                  Yt=tgt.labels)
        finally:
            sys.setprofile(None)
        return count

    long, short = calls(20), calls(10)
    per_epoch = {key: (long[key] - short[key]) / 10 for key in sorted(long | short)
                 if long[key] != short[key]}
    assert (long.total() - short.total()) / 10 <= most, per_epoch
