"""Two-layer classifier and its analytic gradients.

Architecture: h0(x) = sigm(W x + b) with a hidden layer of n nodes, and
h(x) = softmax(V h0(x) + c) over the classes.  The loss is the mean
negative log probability of the correct label.  Besides the loss
gradients, this module provides the analytic gradient of the empirical
CMD between source and target hidden activations with respect to W and b,
which is what moment-alignment training adds to backpropagation.

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
        # so loading gives back bitwise identical doubles
        return json.dumps(doc, indent=1)

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


def _input_dot(X, M: np.ndarray) -> np.ndarray:
    """X @ M for dense or sparse X."""
    if isinstance(X, SparseRowMatrix):
        return X.dot_dense(M)
    return np.asarray(X, dtype=np.float64) @ M


def _weighted_feature_mean(X, weights: np.ndarray) -> np.ndarray:
    """(weights.T @ X) / n_rows as a (hidden x input) array; weights has
    one row per example."""
    n = weights.shape[0]
    if isinstance(X, SparseRowMatrix):
        return X.t_dot_dense(weights).T / n
    return weights.T @ np.asarray(X, dtype=np.float64) / n


def forward(p: NetworkParams, X) -> ForwardTrace:
    if n_cols(X) != p.input_dim:
        raise ValueError("input dimension does not match W")
    h0 = sigmoid(_input_dot(X, p.W.T) + p.b)
    h1 = softmax_rows(h0 @ p.V.T + p.c)
    return ForwardTrace(h0, h1)


def cross_entropy_loss(trace: ForwardTrace, Y: np.ndarray) -> float:
    Y = np.asarray(Y, dtype=np.float64)
    if Y.shape != trace.outputs.shape:
        raise ValueError("labels do not align with outputs")
    logs = np.log(np.maximum(trace.outputs, _LOG_CLAMP))
    return float(-(Y * logs).sum(axis=1).mean())


def loss_gradients(p: NetworkParams, X, Y: np.ndarray, trace: ForwardTrace | None = None) -> Gradients:
    """Analytic gradients of the mean cross-entropy on (X, Y)."""
    trace = trace or forward(p, X)
    Y = np.asarray(Y, dtype=np.float64)
    if Y.shape != trace.outputs.shape:
        raise ValueError("labels do not align with outputs")
    n = Y.shape[0]
    resid = trace.outputs - Y  # n x classes
    dc = resid.mean(axis=0)
    dV = resid.T @ trace.hidden / n
    dpre = (resid @ p.V) * trace.hidden * (1.0 - trace.hidden)  # n x hidden
    db = dpre.mean(axis=0)
    dW = _weighted_feature_mean(X, dpre) * 1.0  # already divided by n
    return Gradients(dW, db, dV, dc)


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
    only.

    For each order j the term is a_j * ||c_j(S) - c_j(T)||_2 over hidden
    activations.  Writing q = h0*(1-h0) (the sigmoid derivative), D for
    centered activations, and u_j for the unit vector along c_j(S)-c_j(T):

      order 1:  d/db_l += a_1 u_l (E_S[q_l] - E_T[q_l])
      order j:  dc_{j,l}/db_l = j (E[D^{j-1} q]_l - E[D^{j-1}]_l E[q]_l)
      and for W the same expectations with each q weighted by the input
      row: dc_{j,l}/dW_{l,d} = j (E[D^{j-1} q x_d] - E[D^{j-1}] E[q x_d]).
    """
    cfg = cfg or CmdConfig()
    if cfg.mode != MARGINAL:
        raise ValueError("cmd gradients are defined for marginal monomials only")
    trace_s = trace_s or forward(p, Xs)
    trace_t = trace_t or forward(p, Xt)
    As, At = trace_s.hidden, trace_t.hidden
    ns, nt = As.shape[0], At.shape[0]
    qs = As * (1.0 - As)
    qt = At * (1.0 - At)
    mean_s, mean_t = As.mean(axis=0), At.mean(axis=0)
    eq_s, eq_t = qs.mean(axis=0), qt.mean(axis=0)
    eqx_s = _weighted_feature_mean(Xs, qs)  # E[q x^T], hidden x input
    eqx_t = _weighted_feature_mean(Xt, qt)

    db = np.zeros_like(p.b)
    dW = np.zeros_like(p.W)

    delta = mean_s - mean_t
    nrm = float(np.linalg.norm(delta))
    if nrm >= _NORM_EPS:
        u = delta / nrm
        a1 = cfg.weight(1)
        db += a1 * u * (eq_s - eq_t)
        dW += a1 * u[:, None] * (eqx_s - eqx_t)

    Ds, Dt = As - mean_s, At - mean_t
    pow_s = np.ones_like(As)  # D^(j-1), starting at j=2 -> D^1 after update
    pow_t = np.ones_like(At)
    for j in range(2, cfg.k + 1):
        pow_s = pow_s * Ds  # now D^(j-1)
        pow_t = pow_t * Dt
        cj_s = (pow_s * Ds).mean(axis=0)  # c_j
        cj_t = (pow_t * Dt).mean(axis=0)
        delta_j = cj_s - cj_t
        nrm_j = float(np.linalg.norm(delta_j))
        if nrm_j < _NORM_EPS:
            continue
        u = delta_j / nrm_j
        aj = cfg.weight(j)
        gb_s = j * (pow_s * (qs - eq_s)).mean(axis=0)
        gb_t = j * (pow_t * (qt - eq_t)).mean(axis=0)
        db += aj * u * (gb_s - gb_t)
        prev_s = pow_s.mean(axis=0)  # c_{j-1}
        prev_t = pow_t.mean(axis=0)
        gw_s = j * (_weighted_feature_mean(Xs, pow_s * qs) - prev_s[:, None] * eqx_s)
        gw_t = j * (_weighted_feature_mean(Xt, pow_t * qt) - prev_t[:, None] * eqx_t)
        dW += aj * u[:, None] * (gw_s - gw_t)

    return Gradients(dW, db, np.zeros_like(p.V), np.zeros_like(p.c))


def _param_views(p: NetworkParams, which: str):
    if which == "cmd":
        return [("W", p.W), ("b", p.b)]
    return [("W", p.W), ("b", p.b), ("V", p.V), ("c", p.c)]


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
    for name, arr in _param_views(work, which):
        flat = arr.reshape(-1)
        gflat = grads[name].reshape(-1)
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
