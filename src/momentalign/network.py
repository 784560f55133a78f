"""Two-layer classifier and its analytic gradients.

Architecture: h0(x) = sigm(W x + b) with a hidden layer of n nodes, and
h(x) = softmax(V h0(x) + c) over the classes.  The loss is the mean
negative log probability of the correct label.  Every training step
takes step_gradients: the gradient of loss + lambda * CMD, the CMD
between source and target hidden activations being what
moment-alignment training adds to backpropagation.

Both objectives are differentiated as a per-row cotangent on h0
(loss_cotangent here, distances.cmd_cotangents for the CMD), pushed
through the sigmoid by one backprop_hidden per input matrix; a step on
loss + lambda * CMD sums the source cotangents first, so it makes one
input product per domain.  Every producer adds its part into one
Gradients vector, which loss_gradients and step_gradients zero once.
The finite-difference oracle checks step_gradients itself: at lambda = 0
against the loss, and its change with lambda against the CMD.  In the
loss gradients for V, b and W, the chain rule requires the hidden
activations h0 (as the transposed factor and inside the sigmoid
derivative h0*(1-h0)) rather than the network outputs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .distances import CmdConfig, MomentGap, cmd_cotangents
from .numerics import SparseRowMatrix, as_sample, check_finite, check_json_types, json_object, n_cols

_LOG_CLAMP = 1e-12


def _views(flat: np.ndarray, arrays) -> tuple:
    """Views of the vector flat, back to back, shaped like arrays."""
    out, start = [], 0
    for a in arrays:
        out.append(flat[start:start + a.size].reshape(a.shape))
        start += a.size
    return tuple(out)


def _packed(arrays) -> tuple:
    """(flat, views): a new float64 vector holding arrays back to back,
    each row-major, and its views shaped like them."""
    arrays = [np.asarray(a, dtype=np.float64) for a in arrays]
    flat = np.concatenate([a.ravel() for a in arrays])
    return flat, _views(flat, arrays)


def _json_floats(a: np.ndarray) -> str:
    """json.dumps(a.tolist()) for a C-contiguous 1-D float64 array, about
    five times as fast: orjson writes the shortest round-trip digits (Ryu)
    without calling repr, and its digits are repr's for 1e-4 <= |x| < 1e16
    and for zeros.  Outside that range repr writes an exponent, and NaN
    and the infinities are no decimals, so those values go to orjson as
    NaN, which it writes as null, and json.dumps writes each in its place."""
    import orjson  # imported here: only writing params.json needs it

    mag = np.abs(a)
    odd = ~((mag >= 1e-4) & (mag < 1e16)) & (a != 0.0)
    text = orjson.dumps(np.where(odd, np.nan, a), option=orjson.OPT_SERIALIZE_NUMPY)
    parts = text.replace(b",", b", ").decode().split("null")
    out = [parts[0]]
    for value, part in zip(a[odd].tolist(), parts[1:]):
        out += (json.dumps(value), part)
    return "".join(out)


@dataclass
class NetworkParams:
    """The parameters as one float64 vector, flat, that holds W, b, V and c
    back to back, each row-major; the four attributes are views of it.
    The constructor copies its arrays into a new vector, so write into
    the views (p.W[...] = ..., p.W -= ...), never rebind them."""

    W: np.ndarray  # hidden x input
    b: np.ndarray  # hidden
    V: np.ndarray  # classes x hidden
    c: np.ndarray  # classes
    seed: int | None = None
    flat: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.flat, (self.W, self.b, self.V, self.c) = _packed((self.W, self.b, self.V, self.c))
        for name in ("W", "V"):
            if getattr(self, name).ndim != 2:
                raise ValueError(f"{name} must be a 2-D array")
        h, m = self.W.shape
        cls, h2 = self.V.shape
        if self.b.shape != (h,) or h2 != h or self.c.shape != (cls,):
            raise ValueError("inconsistent parameter shapes")

    def views(self, flat: np.ndarray) -> tuple:
        """(W, b, V, c) laid over flat, a vector of self.flat's size, the
        way the parameters lie over self.flat."""
        return _views(flat, (self.W, self.b, self.V, self.c))

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
        q = object.__new__(NetworkParams)  # a copy of flat, with no shapes to check
        q.seed, q.flat = self.seed, self.flat.copy()
        q.W, q.b, q.V, q.c = self.views(q.flat)
        return q

    def json_pieces(self):
        """The JSON document of the parameters in pieces: one per row of W,
        then the rest.  Every float is written as repr writes it, the
        shortest decimal that round-trips, so loading gives back bitwise
        identical doubles.  Joined, the pieces are json.dumps of the whole
        document; the rows of W, most of its text, come from _json_floats."""
        yield '{"W": ['
        for i, row in enumerate(self.W):
            yield (", " if i else "") + _json_floats(row)
        rest = json.dumps({
            "b": self.b.tolist(),
            "V": self.V.tolist(),
            "c": self.c.tolist(),
            "shapes": {
                "hidden": self.hidden,
                "input": self.input_dim,
                "classes": self.classes,
            },
            "seed": self.seed,
        })
        yield "], " + rest[1:]

    def to_json(self) -> str:
        return "".join(self.json_pieces())

    @classmethod
    def from_json(cls, text: str) -> "NetworkParams":
        """The parameters of a params.json document: an object holding the
        arrays W, b, V and c, and optionally shapes and seed."""
        doc = json_object(json.loads(text), ("W", "b", "V", "c", "shapes", "seed"), "params")
        missing = [key for key in ("W", "b", "V", "c") if key not in doc]
        if missing:
            raise ValueError(f"params has no key {missing[0]!r}")
        doc = {"shapes": {}, "seed": None, **doc}
        check_json_types(doc, ints=("seed",), nullable=("seed",),
                         arrays={"W": (2,), "b": (1,), "V": (2,), "c": (1,)})
        for key in ("W", "V"):
            lengths = sorted({len(row) for row in doc[key]})
            if len(lengths) > 1:
                raise ValueError(f"{key} must have rows of one length, got lengths {lengths}")
        shapes = json_object(doc["shapes"], ("hidden", "input", "classes"), "shapes")
        p = cls(*(np.array(doc[key], dtype=np.float64) for key in ("W", "b", "V", "c")), doc["seed"])
        if shapes and (
            shapes.get("hidden") != p.hidden
            or shapes.get("input") != p.input_dim
            or shapes.get("classes") != p.classes
        ):
            raise ValueError("declared shapes disagree with array contents")
        check_finite(W=p.W, b=p.b, V=p.V, c=p.c)  # json reads NaN and Infinity
        return p


@dataclass
class ForwardTrace:
    hidden: np.ndarray   # n_rows x hidden, entries in (0,1)
    outputs: np.ndarray  # n_rows x classes, rows sum to 1


@dataclass
class Gradients:
    """dW, db, dV and dc as views of one float64 vector, flat, laid out like
    NetworkParams.flat.  The constructor copies its arrays into a new
    vector; zeros_like gives one for the producers to add into."""

    dW: np.ndarray
    db: np.ndarray
    dV: np.ndarray
    dc: np.ndarray
    flat: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.flat, (self.dW, self.db, self.dV, self.dc) = _packed((self.dW, self.db, self.dV, self.dc))

    @classmethod
    def zeros_like(cls, p: NetworkParams) -> "Gradients":
        g = object.__new__(cls)  # no arrays to copy
        g.flat = np.zeros_like(p.flat)
        g.dW, g.db, g.dV, g.dc = p.views(g.flat)
        return g

    def weights_t(self, p: NetworkParams) -> np.ndarray:
        """p.W.T in C order, the layout a sparse forward gathers rows from,
        written over this vector's first p.W.size elements and returned.
        Training writes it after each optimizer step, which has read the
        gradients, for the forwards before step_gradients zeroes it."""
        wt = self.flat[:p.W.size].reshape(p.input_dim, p.hidden)
        np.copyto(wt, p.W.T)
        return wt


def init_params(input_dim: int, hidden: int, classes: int, rng) -> NetworkParams:
    """Glorot-uniform weights in +-sqrt(6/(fan_in+fan_out)), zero biases."""
    lim_w = np.sqrt(6.0 / (input_dim + hidden))
    W = (rng.uniform_matrix(hidden, input_dim) * 2.0 - 1.0) * lim_w
    lim_v = np.sqrt(6.0 / (hidden + classes))
    V = (rng.uniform_matrix(classes, hidden) * 2.0 - 1.0) * lim_v
    return NetworkParams(W, np.zeros(hidden), V, np.zeros(classes), seed=rng.seed)


def sigmoid(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """1/(1+e^-z) for z >= 0 and e^z/(1+e^z) below, so exp never overflows,
    written into out (which may be z itself) when given.  With e = e^-|z|
    in [0, 1], the numerator max(e, z >= 0) is 1 for z >= 0 and e below,
    bit for bit; a NaN stays NaN."""
    e = np.abs(z)
    np.exp(np.negative(e, out=e), out=e)
    num = np.maximum(e, z >= 0, out=out)
    e += 1.0
    return np.divide(num, e, out=num)


def softmax_rows(z: np.ndarray) -> np.ndarray:
    # the class-axis max as a running maximum over the class columns: a max
    # is exact in any order, and a reduction over a few classes is slow
    top = z[..., 0].copy()
    for j in range(1, z.shape[-1]):
        np.maximum(top, z[..., j], out=top)
    e = np.subtract(z, top[..., None])
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def _hidden(X, W, b, wt=None) -> np.ndarray:
    """h0 = sigm(X W^T + b).  W and b may carry a leading stack axis of g
    networks, run on one dense X as a (g, n_rows, hidden) array.  A sparse
    X gathers rows of W^T from wt, W^T in C order, when given, and else
    from a C-ordered copy of W^T that its product makes."""
    if isinstance(X, SparseRowMatrix):
        pre = X.dot_dense(W.T if wt is None else wt)
    else:
        pre = np.asarray(X, dtype=np.float64) @ np.swapaxes(W, -1, -2)
    pre += b[..., None, :]
    return sigmoid(pre, out=pre)


def _outputs(h0: np.ndarray, V: np.ndarray, c: np.ndarray) -> np.ndarray:
    """h = softmax(h0 V^T + c), stacked like _hidden."""
    z = h0 @ np.swapaxes(V, -1, -2)
    z += c[..., None, :]
    return softmax_rows(z)


def forward(p: NetworkParams, X, *, wt: np.ndarray | None = None) -> ForwardTrace:
    """The one-network case of _hidden and _outputs; wt, when given, is
    p.W.T in C order (see Gradients.weights_t)."""
    if n_cols(X) != p.input_dim:
        raise ValueError("input dimension does not match W")
    h0 = _hidden(X, p.W, p.b, wt)
    return ForwardTrace(h0, _outputs(h0, p.V, p.c))


def _cross_entropy(outputs: np.ndarray, Y: np.ndarray):
    """Mean cross-entropy over the rows of outputs, per network of a stack."""
    logs = np.log(np.maximum(outputs, _LOG_CLAMP))
    return -np.add.reduce((Y * logs).sum(axis=-1), axis=-1) / outputs.shape[-2]


def cross_entropy_loss(trace: ForwardTrace, Y: np.ndarray) -> float:
    Y = np.asarray(Y, dtype=np.float64)
    if Y.shape != trace.outputs.shape:
        raise ValueError("labels do not align with outputs")
    return float(_cross_entropy(trace.outputs, Y))


def backprop_hidden(X, hidden: np.ndarray, cotangent: np.ndarray, out) -> None:
    """Adds into out, a (dW, db) pair, the (dW, db) of an objective whose
    per-row gradient with respect to the hidden activations
    h0 = sigm(X W^T + b) is cotangent / n_rows: out + (dW, db), bit for
    bit, with no dW-sized temporary for a sparse X."""
    n = hidden.shape[0]
    dW, db = out
    dpre = cotangent * hidden  # n x hidden
    dpre *= 1.0 - hidden
    if isinstance(X, SparseRowMatrix):
        X.t_dot_dense(dpre, dW.T, n)  # adds into dW through its (cols, hidden) transpose
    else:
        prod = np.matmul(dpre.T, np.asarray(X, dtype=np.float64))
        prod /= n
        dW += prod
    db += np.add.reduce(dpre, axis=0) / n


def loss_cotangent(p: NetworkParams, trace: ForwardTrace, Y: np.ndarray, out) -> np.ndarray:
    """The cotangent on h0 of the mean cross-entropy on trace's rows, after
    adding its dV and dc into out, a (dV, dc) pair; backprop_hidden turns
    the cotangent into dW and db."""
    Y = np.asarray(Y, dtype=np.float64)
    if Y.shape != trace.outputs.shape:
        raise ValueError("labels do not align with outputs")
    n = Y.shape[0]
    dV, dc = out
    resid = trace.outputs - Y  # n x classes
    dV += np.matmul(resid.T, trace.hidden) / n
    dc += np.add.reduce(resid, axis=0) / n
    return resid @ p.V


def _zeroed(p: NetworkParams, out: Gradients | None) -> Gradients:
    """out with every element set to 0.0, or new zeros shaped like p: the
    vector a step's producers add their parts into."""
    if out is None:
        return Gradients.zeros_like(p)
    out.flat.fill(0.0)
    return out


def loss_gradients(p: NetworkParams, X, Y: np.ndarray, trace: ForwardTrace | None = None,
                   out: Gradients | None = None) -> Gradients:
    """Analytic gradients of the mean cross-entropy on (X, Y), written into
    out, whose every element they overwrite, when given."""
    trace = trace or forward(p, X)
    g = _zeroed(p, out)
    cotangent = loss_cotangent(p, trace, Y, (g.dV, g.dc))
    backprop_hidden(X, trace.hidden, cotangent, (g.dW, g.db))
    return g


def step_gradients(p: NetworkParams, Xs, Ys, Xt, lam: float, cmd_cfg: CmdConfig,
                   trace_s, trace_t=None, moments=None, out: Gradients | None = None) -> Gradients:
    """Gradients of loss(Xs, Ys) + lam * cmd(h0(Xs), h0(Xt)) from the domains'
    forward traces (trace_t is read only when lam != 0) and, when given,
    the MomentGap of their hidden activations, written into out, whose
    every element they overwrite, when given.  The CMD cotangent joins
    the loss's on the source side: one backprop per domain, each added
    into the zeroed vector."""
    if lam == 0.0:
        return loss_gradients(p, Xs, Ys, trace_s, out)
    g = _zeroed(p, out)
    cotangent = loss_cotangent(p, trace_s, Ys, (g.dV, g.dc))
    g_s, g_t = cmd_cotangents(trace_s.hidden, trace_t.hidden, cmd_cfg, moments)
    g_s *= lam
    g_s += cotangent  # cotangent + lam * g_s, in the cotangents' own arrays
    g_t *= lam
    backprop_hidden(Xs, trace_s.hidden, g_s, (g.dW, g.db))
    backprop_hidden(Xt, trace_t.hidden, g_t, (g.dW, g.db))
    return g


def cmd_gradients(
    p: NetworkParams,
    Xs,
    Xt,
    cfg: CmdConfig | None = None,
    trace_s: ForwardTrace | None = None,
    trace_t: ForwardTrace | None = None,
) -> Gradients:
    """Analytic gradient of cmd(h0(Xs), h0(Xt)) w.r.t. W and b; training
    takes it inside step_gradients and never calls this.

    Only marginal monomials are supported (the estimator the trainer
    minimizes).  dV and dc are zero: the CMD term reads the hidden layer
    only.  The CMD depends on W and b only through h0, so the gradient is
    cmd_cotangents' per-row cotangent on each domain's activations,
    pushed through the sigmoid by one backprop_hidden per domain.
    """
    cfg = cfg or CmdConfig()
    trace_s = trace_s or forward(p, Xs)
    trace_t = trace_t or forward(p, Xt)
    g = Gradients.zeros_like(p)
    g_s, g_t = cmd_cotangents(trace_s.hidden, trace_t.hidden, cfg)
    backprop_hidden(Xs, trace_s.hidden, g_s, (g.dW, g.db))
    backprop_hidden(Xt, trace_t.hidden, g_t, (g.dW, g.db))
    return g


_STENCIL = (1.0, -1.0, 2.0, -2.0)  # the O(h^4) central difference's offsets, in steps
_FD_CHUNK = 1 << 14  # hidden activations per chunk of perturbed networks: 128 KiB, inside L2


def _stencil_values(p: NetworkParams, which: str, step: float, *, X=None, Y=None,
                    Xs=None, Xt=None, cfg: CmdConfig | None = None) -> np.ndarray:
    """f[i, o]: the objective ('loss' on (X, Y) or 'cmd' between Xs and Xt)
    of p with its i-th parameter coordinate moved by step * _STENCIL[o].
    The coordinates run through W, b and, for the loss, V and c, each
    flattened.  The perturbed networks run as stacks of at most _FD_CHUNK
    hidden activations (one network at least); each network's arithmetic
    is the same in any stack, so chunking changes no value."""
    if which == "loss":
        X, Y = as_sample(X), np.asarray(Y, dtype=np.float64)
        names, rows = ("W", "b", "V", "c"), X.shape[0]

        def objective(W, b, V, c):
            return _cross_entropy(_outputs(_hidden(X, W, b), V, c), Y)
    else:
        Xs, Xt, cfg = as_sample(Xs), as_sample(Xt), cfg or CmdConfig()
        names, rows = ("W", "b"), Xs.shape[0] + Xt.shape[0]

        def objective(W, b):
            reports = MomentGap.of(_hidden(Xs, W, b), _hidden(Xt, W, b), cfg).reports(cfg)
            return [r.value for r in reports]

    arrays = [getattr(p, name) for name in names]
    theta = p.flat[:sum(a.size for a in arrays)]  # W and b lead the vector
    cuts = np.cumsum([a.size for a in arrays])[:-1]
    coord = np.repeat(np.arange(theta.size), len(_STENCIL))
    moved = theta[coord] + np.tile(step * np.array(_STENCIL), theta.size)
    per_chunk = max(1, _FD_CHUNK // (rows * p.hidden))
    f = np.empty(coord.size)
    for s0 in range(0, coord.size, per_chunk):
        g = min(per_chunk, coord.size - s0)
        stack = np.tile(theta, (g, 1))
        stack[np.arange(g), coord[s0:s0 + g]] = moved[s0:s0 + g]
        parts = np.split(stack, cuts, axis=1)
        f[s0:s0 + g] = objective(*(part.reshape(g, *a.shape) for part, a in zip(parts, arrays)))
    return f.reshape(theta.size, len(_STENCIL))


_FD_LAMBDA = 0.5  # the oracle's lambda: neither 0 nor 1, so a lost scaling by lambda shows


def _worst(analytic: list, f: np.ndarray, step: float) -> float:
    """Max relative error |a - d| / max(1e-8, |a| + |d|) between the leading
    coordinates a of the analytic gradient vectors and the O(h^4) central
    difference d = (8(f(x+h) - f(x-h)) - (f(x+2h) - f(x-2h))) / 12h of the
    stencil values f, h = step; NaN when any coordinate's is NaN."""
    d = (8.0 * (f[:, 0] - f[:, 1]) - (f[:, 2] - f[:, 3])) / (12.0 * step)
    a = np.array(analytic)[:, :len(d)]  # dW and db lead, the order of f's coordinates
    return float((np.abs(a - d) / np.maximum(1e-8, np.abs(a) + np.abs(d))).max())


def finite_difference_check(p: NetworkParams, *, X, Y, Xt, cfg: CmdConfig | None = None,
                            step: float = 1e-3) -> tuple[float, float]:
    """(loss_err, cmd_err), each the _worst of step_gradients on source
    (X, Y) and target Xt: at lambda = 0 against the loss's central
    difference, and (at _FD_LAMBDA minus at 0) / _FD_LAMBDA against the
    CMD's, the worse of two forms: with the MomentGap train carries (a
    cmd_estimate's) and without one.  Sparse inputs are densified once."""
    if not (math.isfinite(step) and step > 0):
        raise ValueError(f"step must be a finite number > 0, got {step}")
    cfg = cfg or CmdConfig()
    trace_s, trace_t = forward(p, X), forward(p, Xt)
    loss = step_gradients(p, X, Y, Xt, 0.0, cfg, trace_s).flat
    carried = MomentGap.of(trace_s.hidden[None], trace_t.hidden[None], cfg)
    cmd = [(step_gradients(p, X, Y, Xt, _FD_LAMBDA, cfg, trace_s, trace_t, moments).flat - loss)
           / _FD_LAMBDA for moments in (carried, None)]
    return (_worst([loss], _stencil_values(p, "loss", step, X=X, Y=Y), step),
            _worst(cmd, _stencil_values(p, "cmd", step, Xs=X, Xt=Xt, cfg=cfg), step))
