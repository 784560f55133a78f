"""Two-layer classifier and its analytic gradients.

Architecture: h0(x) = sigm(W x + b) with a hidden layer of n nodes, and
h(x) = softmax(V h0(x) + c) over the classes.  The loss is the mean
negative log probability of the correct label.  Besides the loss
gradients, this module provides the analytic gradient of the empirical
CMD between source and target hidden activations with respect to W and b,
which is what moment-alignment training adds to backpropagation.

Both objectives are differentiated as a per-row cotangent on h0
(loss_cotangent, cmd_cotangents), pushed through the sigmoid by one
backprop_hidden per input matrix; a step on loss + lambda * CMD sums the
source cotangents first, so it makes one input product per domain.

Two deliberate deviations from naive transcription, both confirmed by the
finite-difference oracle in this module:

* In the loss gradients for V, b and W, the chain rule requires the
  hidden activations h0 (as the transposed factor and inside the sigmoid
  derivative h0*(1-h0)) rather than the network outputs.
* Whenever a CMD term's moment difference has Euclidean norm below 1e-12,
  that term's gradient contribution is defined as zero: a valid
  subgradient at the non-differentiable minimum of the norm.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .distances import CmdConfig, cmd_estimate
from .moments import MARGINAL
from .numerics import SparseRowMatrix, n_cols

_NORM_EPS = 1e-12
_LOG_CLAMP = 1e-12


@dataclass
class NetworkParams:
    W: np.ndarray  # hidden x input
    b: np.ndarray  # hidden
    V: np.ndarray  # classes x hidden
    c: np.ndarray  # classes
    seed: int | None = None

    def __post_init__(self):
        self.W = np.asarray(self.W, dtype=np.float64)
        self.b = np.asarray(self.b, dtype=np.float64)
        self.V = np.asarray(self.V, dtype=np.float64)
        self.c = np.asarray(self.c, dtype=np.float64)
        h, m = self.W.shape
        cls, h2 = self.V.shape
        if self.b.shape != (h,) or h2 != h or self.c.shape != (cls,):
            raise ValueError("inconsistent parameter shapes")

    @property
    def hidden(self) -> int:
        return self.W.shape[0]

    @property
    def input_dim(self) -> int:
        return self.W.shape[1]

    @property
    def classes(self) -> int:
        return self.V.shape[0]

    def copy(self) -> "NetworkParams":
        return NetworkParams(self.W.copy(), self.b.copy(), self.V.copy(), self.c.copy(), self.seed)

    def to_json(self) -> str:
        doc = {
            "W": self.W.tolist(),
            "b": self.b.tolist(),
            "V": self.V.tolist(),
            "c": self.c.tolist(),
            "shapes": {
                "hidden": self.hidden,
                "input": self.input_dim,
                "classes": self.classes,
            },
            "seed": self.seed,
        }
        # json emits floats via repr: shortest decimal that round-trips,
        # so loading gives back bitwise identical doubles; without indent
        # CPython encodes in C, about twice as fast on a large W
        return json.dumps(doc)

    @classmethod
    def from_json(cls, text: str) -> "NetworkParams":
        doc = json.loads(text)
        p = cls(
            np.array(doc["W"], dtype=np.float64),
            np.array(doc["b"], dtype=np.float64),
            np.array(doc["V"], dtype=np.float64),
            np.array(doc["c"], dtype=np.float64),
            doc.get("seed"),
        )
        shapes = doc.get("shapes", {})
        if shapes and (
            shapes.get("hidden") != p.hidden
            or shapes.get("input") != p.input_dim
            or shapes.get("classes") != p.classes
        ):
            raise ValueError("declared shapes disagree with array contents")
        return p


@dataclass
class ForwardTrace:
    hidden: np.ndarray   # n_rows x hidden, entries in (0,1)
    outputs: np.ndarray  # n_rows x classes, rows sum to 1


@dataclass
class Gradients:
    dW: np.ndarray
    db: np.ndarray
    dV: np.ndarray
    dc: np.ndarray

    @classmethod
    def zeros_like(cls, p: NetworkParams) -> "Gradients":
        return cls(
            np.zeros_like(p.W), np.zeros_like(p.b),
            np.zeros_like(p.V), np.zeros_like(p.c),
        )

    def add_scaled(self, other: "Gradients", scale: float) -> "Gradients":
        self.dW += scale * other.dW
        self.db += scale * other.db
        self.dV += scale * other.dV
        self.dc += scale * other.dc
        return self

    def all_finite(self) -> bool:
        return all(
            np.all(np.isfinite(a)) for a in (self.dW, self.db, self.dV, self.dc)
        )


def init_params(input_dim: int, hidden: int, classes: int, rng) -> NetworkParams:
    """Glorot-uniform weights in +-sqrt(6/(fan_in+fan_out)), zero biases."""
    lim_w = np.sqrt(6.0 / (input_dim + hidden))
    W = (rng.uniform_matrix(hidden, input_dim) * 2.0 - 1.0) * lim_w
    lim_v = np.sqrt(6.0 / (hidden + classes))
    V = (rng.uniform_matrix(classes, hidden) * 2.0 - 1.0) * lim_v
    return NetworkParams(W, np.zeros(hidden), V, np.zeros(classes), seed=rng.seed)


def sigmoid(z: np.ndarray) -> np.ndarray:
    # 1/(1+e^-z) for z >= 0 and e^z/(1+e^z) below, so exp never overflows
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def softmax_rows(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def forward(p: NetworkParams, X) -> ForwardTrace:
    if n_cols(X) != p.input_dim:
        raise ValueError("input dimension does not match W")
    if isinstance(X, SparseRowMatrix):
        h0 = sigmoid(X.dot_dense(p.W.T) + p.b)
    else:
        h0 = sigmoid(np.asarray(X, dtype=np.float64) @ p.W.T + p.b)
    h1 = softmax_rows(h0 @ p.V.T + p.c)
    return ForwardTrace(h0, h1)


def cross_entropy_loss(trace: ForwardTrace, Y: np.ndarray) -> float:
    Y = np.asarray(Y, dtype=np.float64)
    if Y.shape != trace.outputs.shape:
        raise ValueError("labels do not align with outputs")
    logs = np.log(np.maximum(trace.outputs, _LOG_CLAMP))
    return float(-(Y * logs).sum(axis=1).mean())


def backprop_hidden(X, hidden: np.ndarray, cotangent: np.ndarray):
    """(dW, db) of an objective whose per-row gradient with respect to
    the hidden activations h0 = sigm(X W^T + b) is cotangent / n_rows."""
    n = hidden.shape[0]
    dpre = cotangent * hidden * (1.0 - hidden)  # n x hidden
    if isinstance(X, SparseRowMatrix):
        dW = X.t_dot_dense(dpre).T / n
    else:
        dW = dpre.T @ np.asarray(X, dtype=np.float64) / n
    return dW, dpre.mean(axis=0)


def loss_cotangent(p: NetworkParams, trace: ForwardTrace, Y: np.ndarray):
    """(cotangent on h0, dV, dc) of the mean cross-entropy on trace's rows;
    backprop_hidden turns the cotangent into dW and db."""
    Y = np.asarray(Y, dtype=np.float64)
    if Y.shape != trace.outputs.shape:
        raise ValueError("labels do not align with outputs")
    resid = trace.outputs - Y  # n x classes
    return resid @ p.V, resid.T @ trace.hidden / Y.shape[0], resid.mean(axis=0)


def loss_gradients(p: NetworkParams, X, Y: np.ndarray, trace: ForwardTrace | None = None) -> Gradients:
    """Analytic gradients of the mean cross-entropy on (X, Y)."""
    trace = trace or forward(p, X)
    cotangent, dV, dc = loss_cotangent(p, trace, Y)
    dW, db = backprop_hidden(X, trace.hidden, cotangent)
    return Gradients(dW, db, dV, dc)


def cmd_cotangents(As: np.ndarray, At: np.ndarray, cfg: CmdConfig):
    """(g_s, g_t): the gradient of the marginal cmd(As, At) with respect to
    each hidden activation row, times that side's row count.

    With D the centered activations and u_j the unit vector along
    c_j(S) - c_j(T), the order-j term a_j ||c_j(S) - c_j(T)|| contributes
    a_1 u_1 at j = 1 and a_j j u_j * (D^{j-1} - mean(D^{j-1})) above, with
    the opposite sign on the target side.  D^{j-1} are the running
    products whose means are the c_j that cmd_estimate reports.
    """
    if cfg.mode != MARGINAL:
        raise ValueError("cmd gradients are defined for marginal monomials only")
    mean_s, mean_t = As.mean(axis=0), At.mean(axis=0)
    g_s, g_t = np.zeros_like(As), np.zeros_like(At)
    delta = mean_s - mean_t
    nrm = float(np.linalg.norm(delta))
    if nrm >= _NORM_EPS:
        u = cfg.weight(1) * delta / nrm
        g_s += u
        g_t -= u
    Ds, Dt = As - mean_s, At - mean_t
    pow_s, pow_t = Ds, Dt  # D^(j-1)
    for j in range(2, cfg.k + 1):
        next_s, next_t = pow_s * Ds, pow_t * Dt  # D^j, whose means are c_j
        delta = next_s.mean(axis=0) - next_t.mean(axis=0)
        nrm = float(np.linalg.norm(delta))
        if nrm >= _NORM_EPS:
            u = cfg.weight(j) * j * delta / nrm
            g_s += u * (pow_s - pow_s.mean(axis=0))
            g_t -= u * (pow_t - pow_t.mean(axis=0))
        pow_s, pow_t = next_s, next_t
    return g_s, g_t


def cmd_gradients(
    p: NetworkParams,
    Xs,
    Xt,
    cfg: CmdConfig | None = None,
    trace_s: ForwardTrace | None = None,
    trace_t: ForwardTrace | None = None,
) -> Gradients:
    """Analytic gradient of cmd(h0(Xs), h0(Xt)) w.r.t. W and b.

    Only marginal monomials are supported (the estimator the trainer
    minimizes).  dV and dc are zero: the CMD term reads the hidden layer
    only.  The CMD depends on W and b only through h0, so the gradient is
    cmd_cotangents' per-row cotangent on each domain's activations,
    pushed through the sigmoid by one backprop_hidden per domain.
    """
    cfg = cfg or CmdConfig()
    trace_s = trace_s or forward(p, Xs)
    trace_t = trace_t or forward(p, Xt)
    g_s, g_t = cmd_cotangents(trace_s.hidden, trace_t.hidden, cfg)
    dW, db = backprop_hidden(Xs, trace_s.hidden, g_s)
    dW_t, db_t = backprop_hidden(Xt, trace_t.hidden, g_t)
    return Gradients(dW + dW_t, db + db_t, np.zeros_like(p.V), np.zeros_like(p.c))


def finite_difference_check(
    p: NetworkParams,
    *,
    which: str,
    X=None,
    Y=None,
    Xs=None,
    Xt=None,
    cfg: CmdConfig | None = None,
    step: float = 1e-5,
) -> float:
    """Max relative error between analytic gradients and central finite
    differences, |a - f| / max(1e-8, |a| + |f|) over all parameter
    coordinates. which is 'loss' or 'cmd'."""
    if step <= 0:
        raise ValueError("step must be positive")
    if which == "loss":
        objective = lambda q: cross_entropy_loss(forward(q, X), Y)
        analytic = loss_gradients(p, X, Y)
        grads = {"W": analytic.dW, "b": analytic.db, "V": analytic.dV, "c": analytic.dc}
    elif which == "cmd":
        cfg = cfg or CmdConfig()
        objective = lambda q: cmd_estimate(
            forward(q, Xs).hidden, forward(q, Xt).hidden, cfg
        ).value
        analytic = cmd_gradients(p, Xs, Xt, cfg)
        grads = {"W": analytic.dW, "b": analytic.db}
    else:
        raise ValueError("which must be 'loss' or 'cmd'")

    worst = 0.0
    work = p.copy()
    for name, grad in grads.items():
        flat = getattr(work, name).reshape(-1)
        gflat = grad.reshape(-1)
        for i in range(flat.shape[0]):
            keep = flat[i]
            flat[i] = keep + step
            up = objective(work)
            flat[i] = keep - step
            down = objective(work)
            flat[i] = keep
            fd = (up - down) / (2.0 * step)
            a = gflat[i]
            err = abs(a - fd) / max(1e-8, abs(a) + abs(fd))
            worst = max(worst, err)
    return worst
