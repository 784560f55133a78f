"""Joint training of the two-layer network on source cross-entropy plus
lambda times the CMD between source and target hidden activations.

The loop follows the stochastic update scheme: forward both domains,
take the analytic gradients of loss + lambda*cmd (step_gradients), and
apply the chosen optimizer.  Stopping is a fixed epoch budget.  Runs are
deterministic functions of the config: initialization and every
per-epoch shuffle come from streams derived from the config seed, and
with lambda = 0 the CMD gradient path is skipped entirely, so a
lambda = 0 run is bitwise equal to a plain cross-entropy trainer.

The warm-start protocol trains the shallow (lambda = 0) network for the
full budget, snapshots its weights at a fraction of the epochs, and
continues training from that snapshot with the CMD term switched on for
the remaining epochs.  Target labels, when available, are used only for
evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .distances import CmdConfig, cmd_cotangents, cmd_estimate
from .network import (
    Gradients,
    NetworkParams,
    backprop_hidden,
    cross_entropy_loss,
    forward,
    init_params,
    loss_cotangent,
    loss_gradients,
)
from .numerics import SeededRng, check_json_types, n_cols, n_rows, take_rows
from .optim import OPTIMIZERS, make_optimizer

__all__ = [
    "TrainConfig",
    "EpochRecord",
    "TrainResult",
    "WarmStartResult",
    "objective",
    "step_gradients",
    "train",
    "warm_start_train",
    "evaluate",
    "write_metrics_csv",
]


@dataclass
class TrainConfig:
    """Settings of one training run, validated against the bounds of the
    run-config schema, whose key names from_dict and to_dict use."""

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
        check_json_types(self.to_dict(), ints=("hidden", "k", "epochs", "batch_size", "seed"),
                         reals=("lambda", "alpha", "rho", "eps", "warm_start_fraction"),
                         nullable=("alpha", "eps"))
        if self.hidden < 1:
            raise ValueError("hidden must be >= 1")
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.lam < 0:
            raise ValueError("lambda must be >= 0")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 0:
            raise ValueError("batch_size must be >= 0")
        if not 0.0 <= self.warm_start_fraction <= 1.0:
            raise ValueError("warm_start_fraction must lie in [0, 1]")
        if not isinstance(self.optimizer, str) or self.optimizer not in OPTIMIZERS:
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        if self.alpha is not None and not self.alpha > 0:
            raise ValueError("alpha must be positive")
        if not 0.0 <= self.rho < 1.0:
            raise ValueError("rho must lie in [0, 1)")
        if self.eps is not None and not self.eps > 0:
            raise ValueError("eps must be positive")

    _KEYS = {
        "hidden": "hidden",
        "k": "k",
        "lambda": "lam",
        "optimizer": "optimizer",
        "alpha": "alpha",
        "rho": "rho",
        "eps": "eps",
        "epochs": "epochs",
        "batch_size": "batch_size",
        "warm_start_fraction": "warm_start_fraction",
        "seed": "seed",
    }

    @classmethod
    def from_dict(cls, doc: dict) -> "TrainConfig":
        unknown = set(doc) - set(cls._KEYS)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**{cls._KEYS[k]: v for k, v in doc.items()})

    def to_dict(self) -> dict:
        return {key: getattr(self, attr) for key, attr in self._KEYS.items()}


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


@dataclass
class WarmStartResult:
    shallow: TrainResult
    mann: TrainResult
    snapshot_epoch: int
    shallow_source_acc: float
    shallow_target_acc: float | None
    mann_source_acc: float
    mann_target_acc: float | None


def _accuracy(outputs: np.ndarray, Y: np.ndarray) -> float:
    return float((outputs.argmax(axis=1) == Y.argmax(axis=1)).mean())


def objective(p: NetworkParams, Xs, Ys, Xt, cfg: TrainConfig):
    """(total, loss, cmd) of the combined objective under cfg."""
    trace_s = forward(p, Xs)
    loss = cross_entropy_loss(trace_s, Ys)
    cmd = cmd_estimate(trace_s.hidden, forward(p, Xt).hidden, CmdConfig(k=cfg.k)).value
    total = loss if cfg.lam == 0.0 else loss + cfg.lam * cmd
    return total, loss, cmd


def evaluate(p: NetworkParams, X, Y) -> tuple[float, float]:
    """(accuracy, mean disagreement): argmax match rate and the mean of
    sum_i |h_i - y_i| / 2 per example."""
    Y = np.asarray(Y, dtype=np.float64)
    if Y.shape[0] == 0:
        raise ValueError("empty sample")
    outputs = forward(p, X).outputs
    accuracy = _accuracy(outputs, Y)
    disagreement = float(np.abs(outputs - Y).sum(axis=1).mean() / 2.0)
    return accuracy, disagreement


def step_gradients(p: NetworkParams, Xs, Ys, Xt, lam: float, cmd_cfg: CmdConfig,
                   trace_s, trace_t=None) -> Gradients:
    """Gradients of loss(Xs, Ys) + lam * cmd(h0(Xs), h0(Xt)) from the domains'
    forward traces (trace_t is read only when lam != 0).  The CMD cotangent
    joins the loss's on the source side: one backprop per domain."""
    if lam == 0.0:
        return loss_gradients(p, Xs, Ys, trace_s)
    cotangent, dV, dc = loss_cotangent(p, trace_s, Ys)
    g_s, g_t = cmd_cotangents(trace_s.hidden, trace_t.hidden, cmd_cfg)
    dW, db = backprop_hidden(Xs, trace_s.hidden, cotangent + lam * g_s)
    dW_t, db_t = backprop_hidden(Xt, trace_t.hidden, lam * g_t)
    return Gradients(dW + dW_t, db + db_t, dV, dc)


def _epoch_perms(seed: int, epoch: int, ns: int, nt: int):
    rng = SeededRng(seed).split(epoch + 1)
    return rng.permutation(ns), rng.permutation(nt)


def train(
    Xs,
    Ys,
    Xt,
    cfg: TrainConfig,
    Yt=None,
    init: NetworkParams | None = None,
    start_epoch: int = 0,
    epochs: int | None = None,
    snapshot_at: int | None = None,
) -> TrainResult:
    """Run the training loop for a fixed epoch budget.

    init/start_epoch let a caller continue from a snapshot while keeping
    the per-epoch shuffle streams aligned with a single longer run.
    snapshot_at=j stores a copy of the parameters as they stood after
    j epochs (0 = the initialization).
    """
    Ys = np.asarray(Ys, dtype=np.float64)
    ns, nt = n_rows(Xs), n_rows(Xt)
    if ns == 0 or nt == 0:
        raise ValueError("empty sample")
    if Ys.shape[0] != ns:
        raise ValueError("source labels do not align with features")
    budget = cfg.epochs if epochs is None else epochs
    cmd_cfg = CmdConfig(k=cfg.k)

    if init is not None:
        p = init.copy()
    else:
        p = init_params(n_cols(Xs), cfg.hidden, Ys.shape[1], SeededRng(cfg.seed))
    optimizer = make_optimizer(cfg.optimizer, alpha=cfg.alpha, rho=cfg.rho, eps=cfg.eps)

    records: list[EpochRecord] = []
    snapshot = p.copy() if snapshot_at == start_epoch else None
    last_stable = p.copy()
    diverged = False
    # In full-batch mode the traces an epoch's record takes of (Xs, Xt)
    # after its step are exactly the next step's training traces.
    record_traces = None

    for e in range(start_epoch, start_epoch + budget):
        if cfg.batch_size == 0:
            batches = [(Xs, Ys, Xt)]
        else:
            perm_s, perm_t = _epoch_perms(cfg.seed, e, ns, nt)
            B = cfg.batch_size
            steps = math.ceil(max(ns, nt) / B)
            batches = []
            for t in range(steps):
                idx = t * B + np.arange(B)
                idx_s, idx_t = perm_s[idx % ns], perm_t[idx % nt]
                batches.append((take_rows(Xs, idx_s), Ys[idx_s], take_rows(Xt, idx_t)))

        for Xbs, Ybs, Xbt in batches:
            trace_s, trace_t = record_traces or (forward(p, Xbs), None)
            if cfg.lam != 0.0:
                trace_t = trace_t or forward(p, Xbt)
            grads = step_gradients(p, Xbs, Ybs, Xbt, cfg.lam, cmd_cfg, trace_s, trace_t)
            if not grads.all_finite():
                diverged = True
                break
            optimizer.step(p, grads)
            if not all(np.all(np.isfinite(a)) for a in (p.W, p.b, p.V, p.c)):
                diverged = True
                break
        if diverged:
            p = last_stable
            break

        trace_s, trace_t = forward(p, Xs), forward(p, Xt)
        loss = cross_entropy_loss(trace_s, Ys)
        cmd_val = cmd_estimate(trace_s.hidden, trace_t.hidden, cmd_cfg).value
        if not (math.isfinite(loss) and math.isfinite(cmd_val)):
            diverged = True
            p = last_stable
            break
        record = EpochRecord(
            epoch=e + 1,
            loss=loss,
            cmd=cmd_val,
            source_acc=_accuracy(trace_s.outputs, Ys),
            target_acc=(
                _accuracy(trace_t.outputs, np.asarray(Yt, dtype=np.float64))
                if Yt is not None
                else None
            ),
        )
        records.append(record)
        if cfg.batch_size == 0:
            record_traces = (trace_s, trace_t)
        last_stable = p.copy()
        if snapshot_at is not None and e + 1 == snapshot_at:
            snapshot = p.copy()

    return TrainResult(
        params=p,
        records=records,
        diverged=diverged,
        snapshot=snapshot,
        snapshot_epoch=snapshot_at,
    )


def warm_start_train(Xs, Ys, Xt, cfg: TrainConfig, Yt=None) -> WarmStartResult:
    """Shallow full-budget run plus a CMD continuation from its snapshot."""
    snap_epoch = round(cfg.warm_start_fraction * cfg.epochs)
    shallow = train(
        Xs, Ys, Xt, replace(cfg, lam=0.0), Yt=Yt, snapshot_at=snap_epoch
    )
    remaining = cfg.epochs - snap_epoch
    if shallow.snapshot is None:
        # divergence before the snapshot epoch: fall back to the last
        # stable parameters so the comparison still reports something
        start = shallow.params
    else:
        start = shallow.snapshot
    if remaining > 0 and cfg.lam != 0.0 and not (shallow.diverged and shallow.snapshot is None):
        mann = train(
            Xs,
            Ys,
            Xt,
            cfg,
            Yt=Yt,
            init=start,
            start_epoch=snap_epoch,
            epochs=remaining,
        )
    else:
        mann = TrainResult(params=start.copy(), records=[], diverged=False)

    sh_src, _ = evaluate(shallow.params, Xs, Ys)
    ma_src, _ = evaluate(mann.params, Xs, Ys)
    sh_tgt = evaluate(shallow.params, Xt, Yt)[0] if Yt is not None else None
    ma_tgt = evaluate(mann.params, Xt, Yt)[0] if Yt is not None else None
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
