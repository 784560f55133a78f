import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentalign import network
from momentalign.distances import CmdConfig, cmd_estimate
from momentalign.network import (
    ForwardTrace,
    NetworkParams,
    backprop_hidden,
    cmd_gradients,
    cross_entropy_loss,
    finite_difference_check,
    forward,
    init_params,
    loss_cotangent,
    loss_gradients,
    sigmoid,
    softmax_rows,
    step_gradients,
    weights_t,
)
from momentalign.numerics import SeededRng, SparseRowMatrix

from helpers import add_scaled, all_finite, lie_back_to_back, traced_peak


def tiny_params(seed=0, m=3, h=4, c=2):
    return init_params(m, h, c, SeededRng(seed))


def test_params_shapes_and_properties():
    p = tiny_params(m=3, h=4, c=2)
    assert p.W.shape == (4, 3) and p.b.shape == (4,)
    assert p.V.shape == (2, 4) and p.c.shape == (2,)
    assert p.input_dim == 3 and p.hidden == 4 and p.classes == 2


def test_params_validation():
    with pytest.raises(ValueError):
        NetworkParams(np.zeros((4, 3)), np.zeros(5), np.zeros((2, 4)), np.zeros(2))
    with pytest.raises(ValueError):
        NetworkParams(np.zeros((4, 3)), np.zeros(4), np.zeros((2, 5)), np.zeros(2))


def test_params_copy_is_deep():
    p = tiny_params()
    q = p.copy()
    q.W[0, 0] += 1.0
    assert p.W[0, 0] != q.W[0, 0]


def test_params_and_gradients_copy_their_arrays_into_one_vector():
    arrays = [np.arange(6.0).reshape(2, 3), np.ones(2), np.full((4, 2), -1.5), np.zeros(4)]
    p = NetworkParams(*arrays, seed=3)
    views = (p.W, p.b, p.V, p.c)
    assert lie_back_to_back(p.flat, views)
    assert np.array_equal(p.flat, np.concatenate([a.ravel() for a in arrays]))
    assert not any(np.shares_memory(v, a) for v, a in zip(views, arrays))
    q = p.copy()
    assert lie_back_to_back(q.flat, (q.W, q.b, q.V, q.c)) and not np.shares_memory(q.flat, p.flat)
    assert q.seed == 3
    g = p.zeros_like()
    assert lie_back_to_back(g.flat, (g.W, g.b, g.V, g.c)) and not g.flat.any()
    assert g.seed is None and not np.shares_memory(g.flat, p.flat)


def test_sparse_forward_from_weights_t_held_in_the_gradient():
    # training gathers W.T from the gradient's storage: the same bits as
    # the forward's own copy, and no copy made
    p = tiny_params(seed=6, m=7, h=4, c=3)
    X = SeededRng(7).normal_matrix(5, 7)
    X[X < 0.2] = 0.0
    S = SparseRowMatrix.from_rows([[(i, v) for i, v in enumerate(r) if v] for r in X], 7)
    g = p.zeros_like()
    wt = weights_t(g, p)
    assert wt.flags.c_contiguous and np.shares_memory(wt, g.flat)
    assert wt.tobytes() == p.W.T.tobytes()
    dot_dense, operands = SparseRowMatrix.dot_dense, []

    def recording_dot(S, D):
        operands.append(D)
        return dot_dense(S, D)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(SparseRowMatrix, "dot_dense", recording_dot)
        got = forward(p, S, wt=wt)
    assert operands[0] is wt
    want = forward(p, S)
    assert got.hidden.tobytes() == want.hidden.tobytes()
    assert got.outputs.tobytes() == want.outputs.tobytes()


def params_doc(p):
    return {"W": p.W.tolist(), "b": p.b.tolist(), "V": p.V.tolist(), "c": p.c.tolist(),
            "shapes": {"hidden": p.hidden, "input": p.input_dim, "classes": p.classes},
            "seed": p.seed}


def test_params_json_round_trip():
    p = tiny_params(seed=9)
    q = NetworkParams.from_json(p.to_json())
    for a, b in [(p.W, q.W), (p.b, q.b), (p.V, q.V), (p.c, q.c)]:
        assert np.array_equal(a, b)
    assert q.seed == p.seed

    # a W the size of a sparse run's, with signed zeros, subnormals and
    # full-mantissa values: every double must come back bit for bit
    rng = SeededRng(10)
    W = rng.normal_matrix(50, 5000) * np.exp(rng.normal_matrix(50, 5000) * 20.0)
    W[0, :4] = [-0.0, 0.0, 5e-324, -2.2250738585072014e-308 / 3]
    W[1, :3] = [np.nextafter(1.0, 2.0), 1.0 / 3.0, -np.pi * 1e300]
    big = NetworkParams(W, rng.normal_matrix(1, 50)[0], rng.normal_matrix(2, 50), [0.1, -0.0])
    text = big.to_json()
    want = json.dumps(params_doc(big))
    if text != want:  # reported by hand: pytest's diff of two 5 MB texts takes minutes
        at = next((i for i, (x, y) in enumerate(zip(text, want)) if x != y), len(want))
        pytest.fail(f"to_json differs from json.dumps at {at}: "
                    f"{text[at - 40:at + 40]!r} != {want[at - 40:at + 40]!r}")
    back = NetworkParams.from_json(text)
    for a, b in [(big.W, back.W), (big.b, back.b), (big.V, back.V), (big.c, back.c)]:
        assert a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))
    doc = json.loads(text)
    doc["shapes"]["input"] = 4999
    with pytest.raises(ValueError):
        NetworkParams.from_json(json.dumps(doc))


# the edges of the range where repr writes no exponent, 1e-4 <= |x| < 1e16,
# and the values that are no decimals: the rows of W take another encoder
# than json's inside that range and json's own outside it
EDGE_FLOATS = [
    sign * x
    for x in (1e-4, np.nextafter(1e-4, 0.0), np.nextafter(1e-4, 1.0),
              9999999999999998.0, 1e16, 5e-324, 2.2250738585072014e-308, 0.0, math.inf)
    for sign in (1.0, -1.0)
] + [math.nan]


@settings(max_examples=60, deadline=None)
@given(st.data(), st.integers(0, 4), st.integers(0, 5), st.integers(1, 3),
       st.one_of(st.none(), st.integers(0, 2**64 - 1)))
def test_params_json_pieces_join_to_the_whole_document(data, h, m, c, seed):
    # one piece per row of W, then the rest: the same text as one json.dumps,
    # NaN, infinities and the edges of repr's exponent form included
    values = st.one_of(st.floats(width=64), st.sampled_from(EDGE_FLOATS))
    draw = lambda *shape: np.array(data.draw(st.lists(  # noqa: E731
        values, min_size=math.prod(shape), max_size=math.prod(shape)))).reshape(shape)
    p = NetworkParams(draw(h, m), draw(h), draw(c, h), draw(c), seed)
    pieces = list(p.json_pieces())
    assert len(pieces) == h + 2
    assert "".join(pieces) == p.to_json() == json.dumps(params_doc(p))


def test_params_json_pieces_are_row_sized():
    # the text of a 50 x 5000 W is 5.3 MiB; joined and copied with a newline,
    # as params.json used to be written, it peaked at 18.3 MiB
    p = init_params(5000, 50, 2, SeededRng(11))
    size, peak = traced_peak(lambda: sum(len(piece) for piece in p.json_pieces()))
    assert size > 5 * 2**20 and peak < 2**20, f"{peak / 2**20:.2f} MiB"


def test_params_from_json_rejects_bad_shapes():
    doc = json.loads(tiny_params().to_json())
    doc["b"] = doc["b"][:-1]
    with pytest.raises(ValueError):
        NetworkParams.from_json(json.dumps(doc))


@pytest.mark.parametrize("name", ["W", "V"])
def test_params_from_json_rejects_ragged_rows(name):
    # numpy's "inhomogeneous shape" message named no array
    doc = json.loads(tiny_params().to_json())
    doc[name][-1] = doc[name][-1][:-1]
    with pytest.raises(ValueError, match=f"^{name} must have rows of one length, got lengths "):
        NetworkParams.from_json(json.dumps(doc))


@pytest.mark.parametrize("name", ["W", "b", "V", "c"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_params_from_json_rejects_non_finite_values(name, value):
    # json reads NaN and Infinity; parameters holding them load as an error
    # naming the array, while to_json still writes them
    p = tiny_params()
    getattr(p, name).flat[0] = value
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        NetworkParams.from_json(p.to_json())


def test_init_params_deterministic_and_bounded():
    a = init_params(6, 5, 3, SeededRng(4))
    b = init_params(6, 5, 3, SeededRng(4))
    assert np.array_equal(a.W, b.W) and np.array_equal(a.V, b.V)
    assert np.all(np.abs(a.W) <= np.sqrt(6.0 / 11))
    assert np.all(a.b == 0.0) and np.all(a.c == 0.0)


def test_sigmoid_stable_and_correct():
    z = np.array([-800.0, -1.0, 0.0, 1.0, 800.0])
    s = sigmoid(z)
    assert np.all(np.isfinite(s))
    assert s[2] == 0.5
    assert s[0] == pytest.approx(0.0, abs=1e-300)
    assert s[4] == pytest.approx(1.0)
    assert np.allclose(s[1] + s[3], 1.0)  # symmetry


def _masked_sigmoid(z):
    # the boolean-mask formulation: 1/(1+e^-z) where z >= 0, e^z/(1+e^z) elsewhere
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(allow_nan=False), min_size=1, max_size=45))
def test_sigmoid_bitwise_equals_masked_formula(values):
    edges = [0.0, -0.0, 745.0, -745.0, 1e-300, -1e-300, np.inf, -np.inf]
    z = np.array(values + edges)
    for arr in (z, z[: 3 * (z.size // 3)].reshape(-1, 3)):
        got, want = sigmoid(arr), _masked_sigmoid(arr)
        assert got.shape == arr.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_sigmoid_nan_in_nan_out():
    s = sigmoid(np.array([[np.nan, 1.0], [-2.0, -np.nan]]))
    assert np.isnan(s[0, 0]) and np.isnan(s[1, 1])
    assert np.array_equal(s[[0, 1], [1, 0]], _masked_sigmoid(np.array([1.0, -2.0])))


def test_softmax_rows():
    z = np.array([[1000.0, 1000.0], [0.0, np.log(3.0)]])
    s = softmax_rows(z)
    assert np.allclose(s.sum(axis=1), 1.0)
    assert np.allclose(s[0], [0.5, 0.5])
    assert np.allclose(s[1], [0.25, 0.75])


def _reduction_softmax(z):
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 40), st.integers(1, 7), st.integers(0, 3), st.data())
def test_softmax_running_max_equals_the_reduction(classes, rows, stack, data):
    # a max is exact in any order, so the running column maximum shifts by
    # the very value z.max(axis=-1) gives, in the oracle's stacked (g, n, c)
    # calls too; ties, infinities and huge logits included
    shape = (stack, rows, classes) if stack else (rows, classes)
    values = st.one_of(st.floats(-1e308, 1e308), st.sampled_from([0.0, -0.0, 3.0, np.inf, -np.inf]))
    z = np.array(data.draw(st.lists(values, min_size=math.prod(shape),
                                    max_size=math.prod(shape)))).reshape(shape)
    with np.errstate(invalid="ignore", over="ignore"):
        got, want = softmax_rows(z), _reduction_softmax(z)
    assert got.shape == z.shape
    assert got.tobytes() == want.tobytes()


def small_inputs(sparse, rows=9, m=6, seed=5):
    """A dense (rows, m) matrix with about a third of its entries zero, or
    the SparseRowMatrix of its nonzero entries."""
    X = SeededRng(seed).normal_matrix(rows, m)
    X[X < 0.3] = 0.0
    if sparse:
        X = SparseRowMatrix.from_rows([[(i, v) for i, v in enumerate(r) if v] for r in X], m)
    return X


@pytest.mark.parametrize("sparse", [False, True])
def test_gradient_producers_fill_out_with_the_new_arrays_bits(sparse):
    # loss_cotangent and backprop_hidden add their parts into views of one
    # zeroed vector; the sums are the textbook expressions, bit for bit
    p = tiny_params(seed=4, m=6, h=5, c=3)
    X = small_inputs(sparse)
    Y = np.eye(3)[[0, 1, 2, 0, 1, 2, 0, 1, 2]]
    trace = forward(p, X)
    h, n = trace.hidden, 9
    resid = trace.outputs - Y
    cotangent = resid @ p.V
    dpre = cotangent * h * (1.0 - h)
    if sparse:  # the sparse product sums each column's terms in row order, as add.at does
        product = np.zeros((6, 5))
        np.add.at(product, X.indices, X.data[:, None] * dpre[np.repeat(np.arange(n), np.diff(X.indptr))])
        product = product.T
    else:
        product = dpre.T @ X
    want = NetworkParams(product / n, np.add.reduce(dpre, axis=0) / n,
                         (resid.T @ h) / n, np.add.reduce(resid, axis=0) / n)
    g = p.zeros_like()
    got = loss_cotangent(p, trace, Y, (g.V, g.c))
    backprop_hidden(X, trace.hidden, got, (g.W, g.b))
    assert lie_back_to_back(g.flat, (g.W, g.b, g.V, g.c))
    assert got.tobytes() == cotangent.tobytes()
    assert g.flat.tobytes() == want.flat.tobytes()
    assert loss_gradients(p, X, Y).flat.tobytes() == g.flat.tobytes()


@pytest.mark.parametrize("sparse", [False, True])
@pytest.mark.parametrize("lam", [None, 0.0, 1.0])  # None: loss_gradients
def test_gradients_written_into_out_ignore_what_it_held(sparse, lam):
    # every producer adds into out, so loss_gradients and step_gradients
    # must zero it first: NaN, or the W.T that train leaves there between
    # steps (weights_t), gives the bits of fresh zeros
    p = tiny_params(seed=6, m=6, h=5, c=3)
    Xs, Xt = small_inputs(sparse), small_inputs(sparse, rows=7, seed=8)
    Ys = np.eye(3)[[0, 1, 2, 0, 1, 2, 0, 1, 2]]
    trace_s, trace_t = forward(p, Xs), forward(p, Xt)

    def produce(out):
        if lam is None:
            return loss_gradients(p, Xs, Ys, trace_s, out)
        return step_gradients(p, Xs, Ys, Xt, lam, CmdConfig(), trace_s, trace_t, None, out)

    want = produce(None).flat.tobytes()
    for held in ("zeros", "nan", "weights_t"):
        out = p.zeros_like()
        if held == "nan":
            out.flat.fill(np.nan)
        elif held == "weights_t":
            assert np.any(weights_t(out, p))
        assert produce(out) is out
        assert out.flat.tobytes() == want, held


def test_forward_matches_manual():
    p = tiny_params(m=2, h=3, c=2)
    X = SeededRng(1).normal_matrix(5, 2)
    trace = forward(p, X)
    assert isinstance(trace, ForwardTrace)
    hidden = sigmoid(X @ p.W.T + p.b)
    assert np.allclose(trace.hidden, hidden)
    assert np.allclose(trace.outputs, softmax_rows(hidden @ p.V.T + p.c))


def test_forward_sparse_matches_dense():
    p = tiny_params(m=3, h=4, c=2)
    S = SparseRowMatrix.from_rows([[(0, 1.0)], [(1, 2.0), (2, -0.5)], []], cols=3)
    ts = forward(p, S)
    td = forward(p, S.toarray())
    assert np.allclose(ts.hidden, td.hidden)
    assert np.allclose(ts.outputs, td.outputs)


def test_cross_entropy_known_value():
    # single example, output forced to (0.5, 0.5): loss = log 2
    trace = ForwardTrace(hidden=np.zeros((1, 1)), outputs=np.array([[0.5, 0.5]]))
    Y = np.array([[1.0, 0.0]])
    assert cross_entropy_loss(trace, Y) == pytest.approx(np.log(2.0), rel=1e-12)


def test_cross_entropy_clamps_zero_probability():
    trace = ForwardTrace(hidden=np.zeros((1, 1)), outputs=np.array([[0.0, 1.0]]))
    Y = np.array([[1.0, 0.0]])
    val = cross_entropy_loss(trace, Y)
    assert np.isfinite(val) and val > 20.0


def test_gradients_add_scaled_and_finite():
    p = tiny_params()
    g = p.zeros_like()
    X = SeededRng(2).normal_matrix(4, 3)
    Y = np.eye(2)[SeededRng(3).permutation(4) % 2]
    lg = loss_gradients(p, X, Y)
    add_scaled(g, lg, 2.0)
    assert np.allclose(g.W, 2.0 * lg.W)
    assert all_finite(g)
    g.W[0, 0] = np.nan
    assert not all_finite(g)


def test_loss_gradients_match_finite_differences():
    p = tiny_params(seed=5, m=3, h=4, c=3)
    X = SeededRng(6).normal_matrix(8, 3)
    Y = np.eye(3)[[0, 1, 2, 0, 1, 2, 0, 1]]
    loss_err, _ = finite_difference_check(p, X=X, Y=Y, Xt=X[:6] + 0.4)
    assert loss_err < 1e-6


def test_cmd_gradients_match_finite_differences():
    p = tiny_params(seed=7, m=2, h=3, c=2)
    Xs = SeededRng(8).normal_matrix(6, 2)
    Xt = SeededRng(9).normal_matrix(7, 2) + 0.4
    Y = np.eye(2)[np.arange(6) % 2]
    _, cmd_err = finite_difference_check(p, X=Xs, Y=Y, Xt=Xt, cfg=CmdConfig(k=3))
    assert cmd_err < 1e-6


def test_cmd_gradients_zero_on_identical_activations():
    # same inputs on both sides: distance stays 0 and the norm
    # singularity is handled with a zero subgradient, not a nan
    p = tiny_params(seed=10, m=2, h=3, c=2)
    X = SeededRng(11).normal_matrix(5, 2)
    g = cmd_gradients(p, X, X, CmdConfig())
    assert np.all(g.W == 0.0) and np.all(g.b == 0.0)


def per_order_cmd_gradients(p, Xs, Xt, cfg):
    """The CMD gradient as per-order expectations over dense inputs, with
    q = h0 (1 - h0): the mean's gradients are E[q] and E[q x], and for j >= 2
    dc_j/db = j (E[D^{j-1} q] - E[D^{j-1}] E[q]) and
    dc_j/dW = j (E[D^{j-1} q x] - E[D^{j-1}] E[q x])."""
    sides = []
    for X in (Xs, Xt):
        A = forward(p, X).hidden
        D = A - A.mean(axis=0)
        powers = [np.ones_like(A)]  # D^0..D^k as running products
        for _ in range(cfg.k):
            powers.append(powers[-1] * D)
        sides.append((X, A, A * (1.0 - A), powers))
    dW, db = np.zeros_like(p.W), np.zeros_like(p.b)
    for j in range(1, cfg.k + 1):
        c = [A.mean(axis=0) if j == 1 else P[j].mean(axis=0) for _, A, _, P in sides]
        nrm = np.linalg.norm(c[0] - c[1])
        if nrm < 1e-12:
            continue
        u = (c[0] - c[1]) / nrm
        for sign, (X, _, q, P) in zip((1.0, -1.0), sides):
            gb, gw = q.mean(axis=0), q.T @ X / X.shape[0]
            if j > 1:
                prev = P[j - 1]
                gb = j * ((prev * q).mean(axis=0) - prev.mean(axis=0) * gb)
                gw = j * ((prev * q).T @ X / X.shape[0] - prev.mean(axis=0)[:, None] * gw)
            db += sign * u * gb
            dW += sign * u[:, None] * gw
    return dW, db


def sparse_copy(X):
    return SparseRowMatrix.from_rows([[(i, v) for i, v in enumerate(row) if v] for row in X],
                                     X.shape[1])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**16), st.integers(1, 6), st.integers(2, 9), st.integers(2, 9),
       st.booleans())
def test_cmd_gradients_match_per_order_expectations(seed, k, ns, nt, sparse):
    # cotangent plus one backprop per domain against the per-order formula,
    # with unequal sample sizes
    rng = SeededRng(seed)
    p = init_params(4, 3, 2, rng)
    p.b[:] = rng.normal_matrix(1, 3)[0]
    Xs = rng.normal_matrix(ns, 4) * 1.5
    Xt = rng.normal_matrix(nt, 4) * 0.7 + 0.3
    Xs[rng.uniform_matrix(ns, 4) < 0.3] = 0.0
    Xt[rng.uniform_matrix(nt, 4) < 0.3] = 0.0
    cfg = CmdConfig(k=k)
    want_W, want_b = per_order_cmd_gradients(p, Xs, Xt, cfg)
    args = (sparse_copy(Xs), sparse_copy(Xt)) if sparse else (Xs, Xt)
    got = cmd_gradients(p, *args, cfg)
    scale = max(np.abs(want_W).max(), np.abs(want_b).max())
    assert np.all(np.abs(got.W - want_W) <= 1e-12 * scale)
    assert np.all(np.abs(got.b - want_b) <= 1e-12 * scale)
    assert np.all(got.V == 0.0) and np.all(got.c == 0.0)


@pytest.mark.parametrize("sparse", [False, True])
def test_cmd_gradients_skip_zero_norm_orders(sparse):
    # b = 0 and Xt = -Xs give At = 1 - As: the even central moments agree
    # to rounding, so their terms have zero subgradient, and the odd ones do not
    p = init_params(3, 4, 2, SeededRng(12))
    Xs = SeededRng(13).normal_matrix(7, 3)
    Xt = -Xs
    cfg = CmdConfig(k=6)
    want_W, want_b = per_order_cmd_gradients(p, Xs, Xt, cfg)
    args = (sparse_copy(Xs), sparse_copy(Xt)) if sparse else (Xs, Xt)
    got = cmd_gradients(p, *args, cfg)
    scale = max(np.abs(want_W).max(), np.abs(want_b).max())
    assert scale > 0.0
    assert np.all(np.abs(got.W - want_W) <= 1e-12 * scale)
    assert np.all(np.abs(got.b - want_b) <= 1e-12 * scale)


@pytest.mark.parametrize("which", ["loss", "cmd"])
def test_finite_difference_check_nan_gradient_coordinate_is_nan(monkeypatch, which):
    # one NaN analytic coordinate makes the whole check NaN, which no bound
    # passes; Python's max used to skip it and report the other coordinates.
    # The loss gradient enters both errors, the CMD cotangent only cmd_err.
    p = tiny_params(seed=5, m=3, h=4, c=3)
    X = SeededRng(6).normal_matrix(8, 3)
    Y = np.eye(3)[[0, 1, 2, 0, 1, 2, 0, 1]]
    name = "loss_gradients" if which == "loss" else "cmd_cotangents"
    real = getattr(network, name)

    def poisoned(*args, **kwargs):
        out = real(*args, **kwargs)
        if which == "loss":
            out.b[2] = np.nan
        else:
            out[0][:, 2] = np.nan
        return out

    monkeypatch.setattr(network, name, poisoned)
    loss_err, cmd_err = finite_difference_check(p, X=X, Y=Y, Xt=X[:5] + 0.3)
    assert math.isnan(cmd_err)
    assert math.isnan(loss_err) if which == "loss" else loss_err < 1e-6


def oracle_stencils(p, X, Y, Xt, cfg=None):
    """(names, rows, objective, values) of each _stencil_values call that
    finite_difference_check makes, the loss's first."""
    calls, real = [], network._stencil_values

    def record(p, names, rows, objective, step):
        f = real(p, names, rows, objective, step)
        calls.append((names, rows, objective, f))
        return f

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(network, "_stencil_values", record)
        finite_difference_check(p, X=X, Y=Y, Xt=Xt, cfg=cfg)
    return calls


def test_finite_difference_check_densifies_sparse_input():
    p = tiny_params(seed=7, m=3, h=4, c=2)
    Xs = SeededRng(8).normal_matrix(6, 3)
    Xs[SeededRng(9).uniform_matrix(6, 3) < 0.4] = 0.0
    Xt = np.abs(SeededRng(10).normal_matrix(5, 3))
    Y = np.eye(2)[np.arange(6) % 2]
    errs = finite_difference_check(p, X=sparse_copy(Xs), Y=Y, Xt=sparse_copy(Xt))
    assert max(errs) < 1e-8
    dense = oracle_stencils(p, Xs, Y, Xt)
    sparse = oracle_stencils(p, sparse_copy(Xs), Y, sparse_copy(Xt))
    assert [call[:2] for call in sparse] == [call[:2] for call in dense] == [("WbVc", 6), ("Wb", 11)]
    for (*_, f_sparse), (*_, f_dense) in zip(sparse, dense):
        assert np.array_equal(f_sparse, f_dense)


def _moved(p, names, i, delta):
    """A copy of p with coordinate i of the flattened parameters names moved by delta."""
    q = p.copy()
    for name in names:
        flat = getattr(q, name).reshape(-1)
        if i < flat.size:
            flat[i] += delta
            return q
        i -= flat.size
    raise IndexError(i)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**16), st.integers(1, 3), st.integers(1, 4), st.integers(2, 3),
       st.integers(2, 7), st.integers(2, 7), st.integers(1, 7))
def test_stencil_values_match_scalar_objectives(seed, m, h, c, ns, nt, k):
    # every perturbed network of the stack against the one-network
    # objective, with unequal sample sizes
    rng = SeededRng(seed)
    p = init_params(m, h, c, rng)
    p.b[:] = rng.normal_matrix(1, h)[0]
    p.c[:] = rng.normal_matrix(1, c)[0]
    Xs = rng.normal_matrix(ns, m) * 1.5
    Xt = rng.normal_matrix(nt, m) * 0.7 + 0.3
    Y = np.eye(c)[np.arange(ns) % c]
    cfg = CmdConfig(k=k)
    step = 1e-3  # finite_difference_check's default
    cases = (
        ("WbVc", ns, lambda q: cross_entropy_loss(forward(q, Xs), Y)),
        ("Wb", ns + nt, lambda q: cmd_estimate(forward(q, Xs).hidden, forward(q, Xt).hidden, cfg).value),
    )
    calls = oracle_stencils(p, Xs, Y, Xt, cfg)
    for (names, rows, _, f), (want_names, want_rows, scalar) in zip(calls, cases):
        assert (names, rows) == (want_names, want_rows)
        assert f.shape == (sum(getattr(p, n).size for n in names), 4)
        for i, row in enumerate(f):
            for got, offset in zip(row, (1.0, -1.0, 2.0, -2.0)):
                want = scalar(_moved(p, names, i, offset * step))
                assert abs(got - want) <= 1e-13 * abs(want), (names, i, offset)


@pytest.mark.parametrize("which", ["loss", "cmd"])
def test_stencil_values_independent_of_chunk_cap(monkeypatch, which):
    p = tiny_params(seed=11, m=3, h=5, c=3)
    X, Y = SeededRng(12).normal_matrix(9, 3), np.eye(3)[np.arange(9) % 3]
    Xt, cfg = SeededRng(13).normal_matrix(7, 3) + 0.2, CmdConfig(k=5)
    results = []
    for cap in (1, 100, 1 << 30):
        monkeypatch.setattr(network, "_FD_CHUNK", cap)
        results.append((oracle_stencils(p, X, Y, Xt, cfg)[{"loss": 0, "cmd": 1}[which]][3],
                        finite_difference_check(p, X=X, Y=Y, Xt=Xt, cfg=cfg)))
    for f, err in results[1:]:
        assert np.array_equal(f.view(np.int64), results[0][0].view(np.int64))
        assert err == results[0][1]


def test_finite_difference_check_memory_is_chunked():
    # the warm-start shape (639 rows per domain, 2 -> 15 -> 3): the whole
    # stack of 4 * 93 perturbed networks at once peaks near 136 MiB for the
    # loss and 79 MiB for the CMD; the chunks hold it near 0.5 MiB
    rng = SeededRng(14)
    p = init_params(2, 15, 3, rng)
    Xs, Xt = rng.normal_matrix(639, 2), rng.normal_matrix(639, 2) + 0.5
    Y = np.eye(3)[np.arange(639) % 3]
    peak = traced_peak(finite_difference_check, p, X=Xs, Y=Y, Xt=Xt)[1]
    assert peak < 2**20, peak
