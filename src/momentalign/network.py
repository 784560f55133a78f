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
input product per domain.  A gradient has the parameters' layout, so it
is a NetworkParams too (NetworkParams.zeros_like): every producer adds
its part into its views, and loss_gradients and step_gradients zero it
once.
The finite-difference oracle checks step_gradients itself: at lambda = 0
against the loss, and its change with lambda against the CMD.  In the
loss gradients for V, b and W, the chain rule requires the hidden
activations h0 (as the transposed factor and inside the sigmoid
derivative h0*(1-h0)) rather than the network outputs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .distances import CmdConfig, MomentGap, cmd_cotangents
from .numerics import SparseRowMatrix, as_sample, check_count, check_finite, check_json_types, check_labels
from .numerics import json_object, n_cols

_LOG_CLAMP = 1e-12


def _views(flat: np.ndarray, arrays) -> tuple:
    """Views of flat's last axis, back to back, shaped like arrays; any
    leading axes of flat, a stack of vectors, lead each view too."""
    out, start = [], 0
    for a in arrays:
        out.append(flat[..., start:start + a.size].reshape(flat.shape[:-1] + a.shape))
        start += a.size
    return tuple(out)


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
    the views (p.W[...] = ..., p.W -= ...), never rebind them.  A gradient
    has the same layout: zeros_like gives one for the producers to add
    into."""

    W: np.ndarray  # hidden x input
    b: np.ndarray  # hidden
    V: np.ndarray  # classes x hidden
    c: np.ndarray  # classes
    seed: int | None = None
    flat: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        arrays = [np.asarray(a, dtype=np.float64) for a in (self.W, self.b, self.V, self.c)]
        self.flat = np.concatenate([a.ravel() for a in arrays])
        self.W, self.b, self.V, self.c = _views(self.flat, arrays)
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

    def _over(self, flat: np.ndarray, seed) -> "NetworkParams":
        q = object.__new__(NetworkParams)  # flat is laid out like self.flat: no shapes to check
        q.seed, q.flat = seed, flat
        q.W, q.b, q.V, q.c = self.views(flat)
        return q

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
        return self._over(self.flat.copy(), self.seed)

    def zeros_like(self) -> "NetworkParams":
        """Zeros laid out like these parameters, with seed None."""
        return self._over(np.zeros_like(self.flat), None)

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
        check_json_types(shapes, ints=tuple(shapes))
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


def init_params(input_dim: int, hidden: int, classes: int, rng) -> NetworkParams:
    """Glorot-uniform weights in +-sqrt(6/(fan_in+fan_out)), zero biases."""
    for value, name in ((input_dim, "input_dim"), (hidden, "hidden"), (classes, "classes")):
        check_count(value, name)
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


def weights_t(g: NetworkParams, p: NetworkParams) -> np.ndarray:
    """p.W.T in C order, the layout a sparse forward gathers rows from,
    written over the first p.W.size elements of g.flat, a gradient's, and
    returned.  Training writes it after each optimizer step, which has
    read the gradient, for the forwards before step_gradients zeroes it."""
    wt = g.flat[:p.W.size].reshape(p.input_dim, p.hidden)
    np.copyto(wt, p.W.T)
    return wt


def forward(p: NetworkParams, X, *, wt: np.ndarray | None = None) -> ForwardTrace:
    """The one-network case of _hidden and _outputs; wt, when given, is
    p.W.T in C order (see weights_t)."""
    if n_cols(X) != p.input_dim:
        raise ValueError("input dimension does not match W")
    h0 = _hidden(X, p.W, p.b, wt)
    return ForwardTrace(h0, _outputs(h0, p.V, p.c))


def _cross_entropy(outputs: np.ndarray, Y: np.ndarray):
    """Mean cross-entropy over the rows of outputs, per network of a stack."""
    logs = np.log(np.maximum(outputs, _LOG_CLAMP))
    return -np.add.reduce((Y * logs).sum(axis=-1), axis=-1) / outputs.shape[-2]


def cross_entropy_loss(trace: ForwardTrace, Y: np.ndarray) -> float:
    Y = check_labels(Y, *trace.outputs.shape)
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
    Y = check_labels(Y, *trace.outputs.shape)
    n = Y.shape[0]
    dV, dc = out
    resid = trace.outputs - Y  # n x classes
    dV += np.matmul(resid.T, trace.hidden) / n
    dc += np.add.reduce(resid, axis=0) / n
    return resid @ p.V


def _zeroed(p: NetworkParams, out: NetworkParams | None) -> NetworkParams:
    """out with every element set to 0.0, or new zeros shaped like p: the
    vector a step's producers add their parts into."""
    if out is None:
        return p.zeros_like()
    out.flat.fill(0.0)
    return out


def loss_gradients(p: NetworkParams, X, Y: np.ndarray, trace: ForwardTrace | None = None,
                   out: NetworkParams | None = None) -> NetworkParams:
    """Analytic gradients of the mean cross-entropy on (X, Y), written into
    out, whose every element they overwrite, when given."""
    trace = trace or forward(p, X)
    g = _zeroed(p, out)
    cotangent = loss_cotangent(p, trace, Y, (g.V, g.c))
    backprop_hidden(X, trace.hidden, cotangent, (g.W, g.b))
    return g


def step_gradients(p: NetworkParams, Xs, Ys, Xt, lam: float, cmd_cfg: CmdConfig,
                   trace_s, trace_t=None, moments=None, out: NetworkParams | None = None) -> NetworkParams:
    """The gradient of loss(Xs, Ys) + lam * cmd(h0(Xs), h0(Xt)) from the
    domains' forward traces (trace_t is read only when lam != 0) and, when
    given, the MomentGap of their hidden activations, written into out,
    whose every element it overwrites, when given.  The CMD cotangent joins
    the loss's on the source side: one backprop per domain, each added
    into the zeroed vector."""
    if lam == 0.0:
        return loss_gradients(p, Xs, Ys, trace_s, out)
    g = _zeroed(p, out)
    cotangent = loss_cotangent(p, trace_s, Ys, (g.V, g.c))
    g_s, g_t = cmd_cotangents(trace_s.hidden, trace_t.hidden, cmd_cfg, moments)
    g_s *= lam
    g_s += cotangent  # cotangent + lam * g_s, in the cotangents' own arrays
    g_t *= lam
    backprop_hidden(Xs, trace_s.hidden, g_s, (g.W, g.b))
    backprop_hidden(Xt, trace_t.hidden, g_t, (g.W, g.b))
    return g


def cmd_gradients(
    p: NetworkParams,
    Xs,
    Xt,
    cfg: CmdConfig | None = None,
    trace_s: ForwardTrace | None = None,
    trace_t: ForwardTrace | None = None,
) -> NetworkParams:
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
    g = p.zeros_like()
    g_s, g_t = cmd_cotangents(trace_s.hidden, trace_t.hidden, cfg)
    backprop_hidden(Xs, trace_s.hidden, g_s, (g.W, g.b))
    backprop_hidden(Xt, trace_t.hidden, g_t, (g.W, g.b))
    return g


_STENCIL = (1.0, -1.0, 2.0, -2.0)  # the O(h^4) central difference's offsets, in steps
_FD_STEP = 1e-3  # the oracle's step h
_FD_CHUNK = 1 << 14  # hidden activations per chunk of perturbed networks: 128 KiB, inside L2


def _stencil_values(p: NetworkParams, names: str, rows: int, objective, step: float) -> np.ndarray:
    """f[i, o]: objective, a function of the arrays names of p ("WbVc" or
    "Wb", which lead p.flat) stacked with a leading axis of networks, at p
    with its i-th coordinate of those arrays, each flattened, moved by
    step * _STENCIL[o].  A stack holds one perturbed copy of those leading
    elements per row, and _views lays the arrays over each row as they lie
    over p.flat.  The perturbed networks run as stacks of at most
    _FD_CHUNK hidden activations, rows of them per network (one network
    at least); each network's arithmetic is the same in any stack, so
    chunking changes no value."""
    arrays = [getattr(p, name) for name in names]
    theta = p.flat[:sum(a.size for a in arrays)]
    coord = np.repeat(np.arange(theta.size), len(_STENCIL))
    moved = theta[coord] + np.tile(step * np.array(_STENCIL), theta.size)
    per_chunk = max(1, _FD_CHUNK // (rows * p.hidden))
    f = np.empty(coord.size)
    for s0 in range(0, coord.size, per_chunk):
        g = min(per_chunk, coord.size - s0)
        stack = np.tile(theta, (g, 1))
        stack[np.arange(g), coord[s0:s0 + g]] = moved[s0:s0 + g]
        f[s0:s0 + g] = objective(*_views(stack, arrays))
    return f.reshape(theta.size, len(_STENCIL))


_FD_LAMBDA = 0.5  # the oracle's lambda: neither 0 nor 1, so a lost scaling by lambda shows


def _worst(analytic: list, f: np.ndarray) -> float:
    """Max relative error |a - d| / max(1e-8, |a| + |d|) between the leading
    coordinates a of the analytic gradient vectors and the O(h^4) central
    difference d = (8(f(x+h) - f(x-h)) - (f(x+2h) - f(x-2h))) / 12h of the
    stencil values f, h = _FD_STEP; NaN when any coordinate's is NaN."""
    d = (8.0 * (f[:, 0] - f[:, 1]) - (f[:, 2] - f[:, 3])) / (12.0 * _FD_STEP)
    a = np.array(analytic)[:, :len(d)]  # dW and db lead, the order of f's coordinates
    return float((np.abs(a - d) / np.maximum(1e-8, np.abs(a) + np.abs(d))).max())


def finite_difference_check(p: NetworkParams, *, X, Y, Xt,
                            cfg: CmdConfig | None = None) -> tuple[float, float]:
    """(loss_err, cmd_err), each the _worst of step_gradients on source
    (X, Y) and target Xt: at lambda = 0 against the loss's central
    difference, and (at _FD_LAMBDA minus at 0) / _FD_LAMBDA against the
    CMD's, the worse of two forms: with the MomentGap train carries (a
    cmd_estimate's) and without one.  The objectives the stencils read
    run on inputs densified once."""
    cfg = cfg or CmdConfig()
    trace_s, trace_t = forward(p, X), forward(p, Xt)
    loss = step_gradients(p, X, Y, Xt, 0.0, cfg, trace_s).flat
    carried = MomentGap.of(trace_s.hidden[None], trace_t.hidden[None], cfg)
    cmd = [(step_gradients(p, X, Y, Xt, _FD_LAMBDA, cfg, trace_s, trace_t, moments).flat - loss)
           / _FD_LAMBDA for moments in (carried, None)]
    Xd, Xtd, Y = as_sample(X), as_sample(Xt), np.asarray(Y, dtype=np.float64)

    def loss_at(W, b, V, c):
        return _cross_entropy(_outputs(_hidden(Xd, W, b), V, c), Y)

    def cmd_at(W, b):
        return [r.value for r in MomentGap.of(_hidden(Xd, W, b), _hidden(Xtd, W, b), cfg).reports(cfg)]

    rows = Xd.shape[0]
    return (_worst([loss], _stencil_values(p, "WbVc", rows, loss_at, _FD_STEP)),
            _worst(cmd, _stencil_values(p, "Wb", rows + Xtd.shape[0], cmd_at, _FD_STEP)))
