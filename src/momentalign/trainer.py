"""Joint training of the two-layer network on source cross-entropy plus
lambda times the CMD between source and target hidden activations.

The loop follows the stochastic update scheme: forward both domains,
take the analytic gradients of loss + lambda*cmd (network.step_gradients,
which the gradient oracle checks), and apply the chosen optimizer.
Stopping is a fixed epoch budget, cfg.epochs.  A non-finite gradient,
parameter, loss or CMD raises FloatingPointError, and train leaves
through one handler that flags the run as diverged, keeps the message
with the epoch and step it rose in, and restores the parameters of its
last recorded epoch, or its start.  Runs are deterministic functions
of the config: initialization and every per-epoch shuffle come from
streams derived from the config seed, and with lambda = 0 the CMD
gradient path is skipped entirely, so a lambda = 0 run is bitwise equal
to a plain cross-entropy trainer.

The warm-start protocol trains the shallow (lambda = 0) network for the
full budget, snapshots its weights at a fraction of the epochs, and
continues training from that snapshot with the CMD term switched on for
the remaining epochs.  Target labels, when available, are used only for
evaluation.

TrainConfig, the "train" block of a run config, is read and written by
the settings codec of numerics: its keys are its field names, in field
order, but "lambda" for lam.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .distances import CmdConfig, cmd_estimate
from .network import (
    Gradients,
    NetworkParams,
    cross_entropy_loss,
    forward,
    init_params,
    step_gradients,
)
from .numerics import SeededRng, SparseRowMatrix, check_count, check_finite, check_json_types, check_labels
from .numerics import n_cols, n_rows, settings_from_dict, settings_to_dict, take_rows
from .optim import OPTIMIZERS, check_settings, make_optimizer

__all__ = [
    "TrainConfig",
    "EpochRecord",
    "TrainResult",
    "WarmStartResult",
    "step_gradients",
    "train",
    "warm_start_train",
    "evaluate",
    "write_metrics_csv",
]


@dataclass
class TrainConfig:
    """Settings of one training run, checked against the run-config schema's bounds
    (counts by numerics.check_count, alpha, rho, eps by optim.check_settings)."""

    hidden: int = 15
    k: int = 5
    lam: float = 1.0
    optimizer: str = "adadelta"  # a kind of optim.OPTIMIZERS
    alpha: float | None = None   # learning rate for sgd/adagrad
    rho: float = 0.95            # adadelta decay
    eps: float | None = None     # stability constant; per-optimizer default
    epochs: int = 1200
    batch_size: int = 0          # 0 = full batch
    warm_start_fraction: float = 2.0 / 3.0
    seed: int = 0

    def __post_init__(self):
        for name, least in (("hidden", 1), ("k", 1), ("epochs", 1), ("batch_size", 0)):
            check_count(getattr(self, name), name, least)
        check_json_types(self.to_dict(), ints=("seed",),
                         reals=("lambda", "alpha", "rho", "eps", "warm_start_fraction"),
                         nullable=("alpha", "eps"))
        if self.lam < 0:
            raise ValueError("lambda must be >= 0")
        if not math.isfinite(self.lam):  # JSON reads Infinity
            raise ValueError(f"lambda must be finite, got {self.lam!r}")
        if not 0.0 <= self.warm_start_fraction <= 1.0:
            raise ValueError("warm_start_fraction must lie in [0, 1]")
        if not isinstance(self.optimizer, str) or self.optimizer not in OPTIMIZERS:
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        check_settings(self.alpha, self.rho, self.eps)

    @classmethod
    def from_dict(cls, doc: dict) -> "TrainConfig":
        return settings_from_dict(cls, doc, "train")

    def to_dict(self) -> dict:
        return settings_to_dict(self)


@dataclass
class EpochRecord:
    epoch: int
    loss: float
    cmd: float
    source_acc: float
    target_acc: float | None = None


@dataclass
class TrainResult:
    params: NetworkParams
    records: list
    diverged: bool = False
    snapshot: NetworkParams | None = None
    snapshot_epoch: int | None = None
    cause: str | None = None        # a diverged run's FloatingPointError message
    cause_epoch: int | None = None  # the epoch it rose in, counted from 1 as EpochRecord.epoch
    cause_batch: int | None = None  # its step in that epoch, from 0; None: the epoch's record


@dataclass
class WarmStartResult:
    shallow: TrainResult
    mann: TrainResult
    snapshot_epoch: int
    shallow_source_acc: float
    shallow_target_acc: float | None
    mann_source_acc: float
    mann_target_acc: float | None


def _accuracy(outputs: np.ndarray, labels: np.ndarray) -> float:
    """Share of rows whose largest output is at the class index in labels."""
    return float(np.add.reduce(outputs.argmax(axis=1) == labels) / labels.shape[0])


def evaluate(p: NetworkParams, X, Y) -> tuple[float, float]:
    """(accuracy, mean disagreement): argmax match rate and the mean of
    sum_i |h_i - y_i| / 2 per example."""
    if n_rows(X) == 0:
        raise ValueError("empty sample")
    Y = check_labels(Y, n_rows(X), p.classes)
    outputs = forward(p, X).outputs
    accuracy = _accuracy(outputs, Y.argmax(axis=1))
    disagreement = float(np.abs(outputs - Y).sum(axis=1).mean() / 2.0)
    return accuracy, disagreement


def _epoch_perms(seed: int, epoch: int, ns: int, nt: int):
    rng = SeededRng(seed).split(epoch + 1)
    return rng.permutation(ns), rng.permutation(nt)


def _batches(Xs, Ys, Xt, cfg: TrainConfig, epoch: int):
    """The (step, Xs, Ys, Xt) of each step of an epoch, counted from 0: the
    whole domains at full batch, else minibatches of the epoch's
    permutations, each built when its step asks for it, the smaller domain
    wrapping around.  A minibatch has no target rows (None) at lambda = 0,
    where no step reads them."""
    if cfg.batch_size == 0:
        yield 0, Xs, Ys, Xt
        return
    ns, nt = n_rows(Xs), n_rows(Xt)
    perm_s, perm_t = _epoch_perms(cfg.seed, epoch, ns, nt)
    B = cfg.batch_size
    for t in range(math.ceil(max(ns, nt) / B)):
        idx = t * B + np.arange(B)
        idx_s, idx_t = perm_s[idx % ns], perm_t[idx % nt]
        yield t, take_rows(Xs, idx_s), Ys[idx_s], None if cfg.lam == 0.0 else take_rows(Xt, idx_t)


def train(
    Xs,
    Ys,
    Xt,
    cfg: TrainConfig,
    Yt=None,
    init: NetworkParams | None = None,
    start_epoch: int = 0,
    snapshot_at: int | None = None,
) -> TrainResult:
    """Run the training loop for cfg.epochs epochs.

    init/start_epoch let a caller continue from a snapshot while keeping
    the per-epoch shuffle streams aligned with a single longer run.
    snapshot_at=j stores a copy of the parameters as they stood after
    j epochs (0 = the initialization).  Non-finite features or labels,
    labels whose rows do not match their features' or that are not 2-D,
    and target labels whose columns do not match the source labels'
    raise ValueError before the first epoch.
    """
    ns, nt = n_rows(Xs), n_rows(Xt)
    if ns == 0 or nt == 0:
        raise ValueError("empty sample")
    Ys = check_labels(Ys, ns, what="source labels")
    Yt = None if Yt is None else check_labels(Yt, nt, Ys.shape[1], "target labels")
    check_finite(Xs=Xs, Ys=Ys, Xt=Xt, Yt=Yt)
    cmd_cfg = CmdConfig(k=cfg.k)
    labels_s = Ys.argmax(axis=1)
    labels_t = None if Yt is None else Yt.argmax(axis=1)

    if init is not None:
        p = init.copy()
    else:
        p = init_params(n_cols(Xs), cfg.hidden, Ys.shape[1], SeededRng(cfg.seed))
    optimizer = make_optimizer(cfg.optimizer, alpha=cfg.alpha, rho=cfg.rho, eps=cfg.eps)

    records: list[EpochRecord] = []
    snapshot = p.copy() if snapshot_at == start_epoch else None
    last_stable = p.copy()  # refreshed in place after each epoch
    grads = Gradients.zeros_like(p)  # zeroed and refilled by every step
    # A sparse forward gathers rows of W.T.  Each update writes W.T in C
    # order into the gradients' storage, which is dead until the next
    # step_gradients, and every forward until then reads it.
    wt = grads.weights_t(p) if any(isinstance(X, SparseRowMatrix) for X in (Xs, Xt)) else None
    diverged, cause, cause_epoch, batch = False, None, None, None
    # In full-batch mode the traces an epoch's record takes of (Xs, Xt)
    # after its step, and the moment pass of its CMD, are exactly the next
    # step's.
    carried = None

    try:
        for e in range(start_epoch, start_epoch + cfg.epochs):
            for batch, Xbs, Ybs, Xbt in _batches(Xs, Ys, Xt, cfg, e):
                trace_s, trace_t, moments = carried or (forward(p, Xbs, wt=wt), None, None)
                if cfg.lam != 0.0:
                    trace_t = trace_t or forward(p, Xbt, wt=wt)
                step_gradients(p, Xbs, Ybs, Xbt, cfg.lam, cmd_cfg, trace_s, trace_t, moments, grads)
                optimizer.step(p, grads)  # checks the gradients before it moves p
                if not np.isfinite(p.flat).all():
                    raise FloatingPointError("non-finite parameters")
                if wt is not None:
                    wt = grads.weights_t(p)
                del Xbs, Ybs, Xbt  # gone before the next batch is built

            batch = None  # the record's checks follow
            trace_s, trace_t = forward(p, Xs, wt=wt), forward(p, Xt, wt=wt)
            loss = cross_entropy_loss(trace_s, Ys)
            report = cmd_estimate(trace_s.hidden, trace_t.hidden, cmd_cfg)
            if not (math.isfinite(loss) and math.isfinite(report.value)):
                raise FloatingPointError("non-finite loss or CMD")
            records.append(EpochRecord(
                epoch=e + 1,
                loss=loss,
                cmd=report.value,
                source_acc=_accuracy(trace_s.outputs, labels_s),
                target_acc=None if labels_t is None else _accuracy(trace_t.outputs, labels_t),
            ))
            if cfg.batch_size == 0:
                carried = (trace_s, trace_t, report.moments)
            np.copyto(last_stable.flat, p.flat)
            if snapshot_at is not None and e + 1 == snapshot_at:
                snapshot = p.copy()
    except FloatingPointError as exc:
        diverged, p, cause, cause_epoch = True, last_stable, str(exc), e + 1

    return TrainResult(
        params=p,
        records=records,
        diverged=diverged,
        snapshot=snapshot,
        snapshot_epoch=snapshot_at,
        cause=cause,
        cause_epoch=cause_epoch,
        cause_batch=batch,
    )


def _final_accuracies(result: TrainResult, Xs, Ys, Xt, Yt):
    """(source, target) accuracy of result.params.  Its last epoch record
    took them from forward passes of those very parameters; a run with no
    records is evaluated."""
    if result.records:
        return result.records[-1].source_acc, result.records[-1].target_acc
    src_acc = evaluate(result.params, Xs, Ys)[0]
    return src_acc, (evaluate(result.params, Xt, Yt)[0] if Yt is not None else None)


def warm_start_train(Xs, Ys, Xt, cfg: TrainConfig, Yt=None) -> WarmStartResult:
    """Shallow full-budget run plus a CMD continuation from its snapshot;
    train rejects non-finite inputs before the shallow run starts.  With
    lambda != 0, a budget whose snapshot epoch is its last leaves the
    continuation no epoch, and is rejected before either run."""
    snap_epoch = round(cfg.warm_start_fraction * cfg.epochs)
    if cfg.lam != 0.0 and snap_epoch == cfg.epochs:
        raise ValueError(f"warm_start_fraction {cfg.warm_start_fraction!r} of {cfg.epochs} "
                         f"epochs leaves the aligned run no epoch")
    shallow = train(
        Xs, Ys, Xt, replace(cfg, lam=0.0), Yt=Yt, snapshot_at=snap_epoch
    )
    # no snapshot means the shallow run diverged before the snapshot epoch:
    # its last stable parameters stand in, and no aligned run starts
    start = shallow.snapshot or shallow.params
    if cfg.lam != 0.0 and shallow.snapshot is not None:
        # the budget rides in the config, the fourth argument, where
        # bench/tracer.py counts a train call's epochs
        mann = train(Xs, Ys, Xt, replace(cfg, epochs=cfg.epochs - snap_epoch), Yt=Yt, init=start,
                     start_epoch=snap_epoch)
    else:
        mann = TrainResult(params=start.copy(), records=[], diverged=False)

    sh_src, sh_tgt = _final_accuracies(shallow, Xs, Ys, Xt, Yt)
    ma_src, ma_tgt = _final_accuracies(mann, Xs, Ys, Xt, Yt)
    return WarmStartResult(
        shallow=shallow,
        mann=mann,
        snapshot_epoch=snap_epoch,
        shallow_source_acc=sh_src,
        shallow_target_acc=sh_tgt,
        mann_source_acc=ma_src,
        mann_target_acc=ma_tgt,
    )


def write_metrics_csv(records, path) -> None:
    """epoch,loss,cmd,source_acc,target_acc with shortest round-trip float
    formatting; identical runs produce identical bytes."""
    lines = ["epoch,loss,cmd,source_acc,target_acc"]
    for r in records:
        tgt = repr(float(r.target_acc)) if r.target_acc is not None else "nan"
        lines.append(
            f"{r.epoch},{repr(float(r.loss))},{repr(float(r.cmd))},"
            f"{repr(float(r.source_acc))},{tgt}"
        )
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
