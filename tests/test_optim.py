import dataclasses
import math

import numpy as np
import pytest

from momentalign import optim
from momentalign.network import NetworkParams
from momentalign.numerics import SeededRng
from momentalign.optim import _CHUNK, OPTIMIZERS, Adadelta, Adagrad, Sgd, make_optimizer
from momentalign.trainer import TrainConfig

from helpers import lie_back_to_back, traced_peak


def scalarish_params():
    # 1-in, 1-hidden, 1-class net: four scalar parameters
    return NetworkParams(np.ones((1, 1)), np.zeros(1), np.ones((1, 1)), np.zeros(1))


def unit_grads(p, value=1.0):
    g = p.zeros_like()
    for arr in (g.W, g.b, g.V, g.c):
        arr += value
    return g


def test_sgd_step():
    p = scalarish_params()
    Sgd(alpha=0.5).step(p, unit_grads(p, 2.0))
    assert p.W[0, 0] == 0.0
    assert p.b[0] == -1.0


def test_adagrad_accumulates():
    p = scalarish_params()
    opt = Adagrad(alpha=1.0, eps=1e-300)  # eps must be > 0; it adds nothing to 9 or 25
    opt.step(p, unit_grads(p, 3.0))
    # first step: 3 / sqrt(9) = 1
    assert p.W[0, 0] == pytest.approx(0.0, abs=1e-15)
    opt.step(p, unit_grads(p, 4.0))
    # accumulator now 9 + 16 = 25: step 4/5
    assert p.W[0, 0] == pytest.approx(-0.8, rel=1e-14)


def test_adadelta_first_step_value():
    p = scalarish_params()
    rho, eps, g = 0.9, 1e-6, 2.0
    Adadelta(rho=rho, eps=eps).step(p, unit_grads(p, g))
    acc = (1 - rho) * g * g
    want = np.sqrt(eps) / np.sqrt(acc + eps) * g
    assert p.W[0, 0] == pytest.approx(1.0 - want, rel=1e-13)


def test_adadelta_two_steps_recurrence():
    p = scalarish_params()
    opt = Adadelta(rho=0.5, eps=1e-4)
    G = E = 0.0
    x = 1.0
    for g in (2.0, -1.0):
        opt.step(p, unit_grads(p, g))
        G = 0.5 * G + 0.5 * g * g
        upd = np.sqrt(E + 1e-4) / np.sqrt(G + 1e-4) * g
        x -= upd
        E = 0.5 * E + 0.5 * upd * upd
    assert p.W[0, 0] == pytest.approx(x, rel=1e-13)


def random_run(seed, size=None):
    """Parameters with a 50 x 5000 W, or with a 1 x (size - 7) W and 3
    classes so that the vector holds size values, and 12 steps' gradients
    of scales 1e-2..1e2."""
    rng = SeededRng(seed)
    hidden, inputs = (50, 5000) if size is None else (1, size - 7)
    p = NetworkParams(rng.normal_matrix(hidden, inputs), rng.normals(hidden),
                      rng.normal_matrix(3, hidden), rng.normals(3))
    grads = [NetworkParams(*(rng.normals(a.size).reshape(a.shape) * 10.0 ** (step % 5 - 2)
                             for a in (p.W, p.b, p.V, p.c))) for step in range(12)]
    return p, grads


# a step runs in chunks of optim._CHUNK values: a vector one short of a
# chunk, exactly one, one chunk and one value, and the paper's 50 x 5000 W
SIZES = (_CHUNK - 1, _CHUNK, _CHUNK + 1, None)


def test_adadelta_scratch_buffers_match_the_textbook_formula():
    # the step writes its temporaries into two scratch vectors; the
    # module docstring's expressions, evaluated afresh, give the same bits
    for size in SIZES:
        p, grads = random_run(21, size)
        rho, eps = 0.95, 1e-6
        opt = Adadelta(rho=rho, eps=eps)
        theta = {n: getattr(p, n).copy() for n in "WbVc"}
        G = {n: np.zeros_like(a) for n, a in theta.items()}
        E = {n: np.zeros_like(a) for n, a in theta.items()}
        for step, g in enumerate(grads):
            opt.step(p, g)
            acc, eacc = (dict(zip("WbVc", p.views(b))) for b in opt.buffers)
            for n in "WbVc":
                grad = getattr(g, n)
                G[n] = rho * G[n] + (1.0 - rho) * grad * grad
                update = np.sqrt(E[n] + eps) / np.sqrt(G[n] + eps) * grad
                theta[n] = theta[n] - update
                E[n] = rho * E[n] + (1.0 - rho) * update * update
                for got, want in ((getattr(p, n), theta[n]), (acc[n], G[n]), (eacc[n], E[n])):
                    assert got.tobytes() == want.tobytes(), (size, step, n)


def test_sgd_scratch_buffer_matches_the_textbook_formula():
    for size in SIZES:
        p, grads = random_run(22, size)
        alpha = 0.37
        opt = Sgd(alpha=alpha)
        theta = {n: getattr(p, n).copy() for n in "WbVc"}
        for step, g in enumerate(grads):
            opt.step(p, g)
            for n in "WbVc":
                theta[n] = theta[n] - alpha * getattr(g, n)
                assert getattr(p, n).tobytes() == theta[n].tobytes(), (size, step, n)


def test_adagrad_scratch_buffers_match_the_textbook_formula():
    for size in SIZES:
        p, grads = random_run(23, size)
        alpha, eps = 0.05, 1e-8
        opt = Adagrad(alpha=alpha, eps=eps)
        theta = {n: getattr(p, n).copy() for n in "WbVc"}
        G = {n: np.zeros_like(a) for n, a in theta.items()}
        for step, g in enumerate(grads):
            opt.step(p, g)
            acc = dict(zip("WbVc", p.views(opt.buffers[0])))
            for n in "WbVc":
                grad = getattr(g, n)
                G[n] = G[n] + grad * grad
                theta[n] = theta[n] - alpha * grad / np.sqrt(G[n] + eps)
                for got, want in ((getattr(p, n), theta[n]), (acc[n], G[n])):
                    assert got.tobytes() == want.tobytes(), (size, step, n)


def test_a_vector_of_one_chunk_is_handed_over_whole():
    p, grads = random_run(26, _CHUNK)
    opt = make_optimizer("adagrad")
    opt.step(p, grads[0])
    ((theta, grad, acc, u, v),) = optim._chunks(opt, p, grads[1], 1)
    assert theta is p.flat and grad is grads[1].flat and acc.base is opt.buffers and acc.size == _CHUNK
    assert u.base is opt.scratch and v.base is opt.scratch and u.size == v.size == _CHUNK
    p, grads = random_run(26, _CHUNK + 1)
    opt = make_optimizer("adagrad")
    opt.step(p, grads[0])
    (*_, u, v), (theta, _, _, u1, v1) = optim._chunks(opt, p, grads[1], 1)
    assert u.size == _CHUNK and theta.base is p.flat and u1.size == v1.size == theta.size == 1


@pytest.mark.parametrize("kind", ["sgd", "adagrad", "adadelta"])
def test_step_allocates_no_parameter_sized_array(kind):
    # after the first step's buffers, a step allocates only the finiteness
    # scan's booleans, an eighth of the parameter vector
    p, grads = random_run(24)
    opt = make_optimizer(kind)
    opt.step(p, grads[0])
    peak = traced_peak(lambda: [opt.step(p, g) for g in grads[1:4]])[1]
    assert peak <= p.flat.nbytes // 8 + 4096, peak
    assert lie_back_to_back(p.flat, (p.W, p.b, p.V, p.c))


@pytest.mark.parametrize("kind, accumulators", [("sgd", 0), ("adagrad", 1), ("adadelta", 2)])
def test_first_step_allocates_the_accumulators_and_two_chunks(kind, accumulators):
    # the scratch of a step is two chunks, not two parameter-sized vectors
    p, grads = random_run(25)
    opt = make_optimizer(kind)
    peak = traced_peak(opt.step, p, grads[0])[1]
    assert opt.scratch.shape == (2, _CHUNK)
    assert peak <= (accumulators + 1 / 8) * p.flat.nbytes + opt.scratch.nbytes + 4096, peak


@pytest.mark.parametrize("kind", ["sgd", "adagrad", "adadelta"])
def test_state_of_one_network_rejects_another_size(kind):
    opt = make_optimizer(kind)
    p = scalarish_params()
    opt.step(p, unit_grads(p))
    q = NetworkParams(np.ones((2, 1)), np.zeros(2), np.ones((1, 2)), np.zeros(1))
    with pytest.raises(ValueError, match="another size"):
        opt.step(q, unit_grads(q))


def test_adadelta_validation():
    with pytest.raises(ValueError):
        Adadelta(rho=1.0)
    with pytest.raises(ValueError):
        Adadelta(rho=-0.1)
    with pytest.raises(ValueError):
        Adadelta(eps=0.0)


# settings outside each bound, NaN among them; rho = 0.0 lies inside [0, 1)
OUT_OF_BOUNDS = {"alpha": (0.0, -1.0, float("nan")), "rho": (-1.0, float("nan"), 1.0),
                 "eps": (0.0, -1.0, float("nan"))}


@pytest.mark.parametrize("kind, name, value", [
    (kind, f.name, value) for kind, cls in sorted(OPTIMIZERS.items())
    for f in dataclasses.fields(cls) for value in OUT_OF_BOUNDS[f.name]])
def test_every_optimizer_rejects_a_setting_as_train_config_does(kind, name, value):
    # Sgd(alpha=-1), Adagrad(eps=-1) and Adadelta(eps=nan) were accepted
    with pytest.raises(ValueError) as config_error:
        TrainConfig(optimizer=kind, **{name: value})
    with pytest.raises(ValueError) as optimizer_error:
        make_optimizer(kind, **{name: value})
    assert str(optimizer_error.value) == str(config_error.value)
    assert str(config_error.value).startswith(f"{name} must ")


def test_the_settings_bounds_keep_their_edges():
    assert make_optimizer("sgd", alpha=math.inf).alpha == math.inf  # a divergence, exit 3
    assert make_optimizer("adadelta", rho=0.0).rho == 0.0
    with pytest.raises(ValueError, match=r"^rho must lie in \[0, 1\)$"):
        TrainConfig(optimizer="sgd", rho=1.0)  # checked whatever the optimizer


def test_step_rejects_bad_gradients():
    p = scalarish_params()
    g = unit_grads(p)
    g.W[0, 0] = np.inf
    with pytest.raises(FloatingPointError):
        Sgd().step(p, g)
    g2 = NetworkParams(np.zeros((2, 1)), np.zeros(2), np.zeros((1, 2)), np.zeros(1))
    with pytest.raises(ValueError):
        Sgd().step(p, g2)


@pytest.mark.parametrize("kind", ["sgd", "adagrad", "adadelta"])
@pytest.mark.parametrize("name", ["W", "b", "V", "c"])
def test_step_names_the_non_finite_gradient_and_moves_nothing(kind, name):
    p = scalarish_params()
    before = p.copy()
    g = unit_grads(p)
    getattr(g, name)[0] = np.nan
    with pytest.raises(FloatingPointError, match=f"^non-finite gradient d{name}$"):
        make_optimizer(kind).step(p, g)
    assert all(np.array_equal(getattr(p, n), getattr(before, n)) for n in "WbVc")


def test_make_optimizer():
    assert isinstance(make_optimizer("sgd", alpha=0.2), Sgd)
    assert isinstance(make_optimizer("adagrad"), Adagrad)
    assert isinstance(make_optimizer("adadelta", rho=0.9), Adadelta)
    with pytest.raises(ValueError):
        make_optimizer("adam")


def test_make_optimizer_defaults_and_ignored_settings():
    # None keeps each kind's own default; a setting the kind does not take
    # is ignored
    sgd = make_optimizer("sgd", alpha=None, rho=0.5, eps=1.0)
    assert sgd == Sgd()
    assert make_optimizer("adagrad", alpha=None, rho=0.5, eps=None) == Adagrad()
    assert make_optimizer("adagrad", alpha=0.3, eps=1e-4) == Adagrad(alpha=0.3, eps=1e-4)
    delta = make_optimizer("adadelta", alpha=0.3, rho=0.9, eps=None)
    assert delta == Adadelta(rho=0.9)
    with pytest.raises(ValueError):
        make_optimizer("adadelta", rho=1.0)


def test_optimizer_state_is_per_instance():
    p1, p2 = scalarish_params(), scalarish_params()
    a, b = Adagrad(alpha=1.0, eps=1e-300), Adagrad(alpha=1.0, eps=1e-300)  # exact square roots
    a.step(p1, unit_grads(p1, 3.0))
    a.step(p1, unit_grads(p1, 4.0))
    b.step(p2, unit_grads(p2, 4.0))
    # fresh accumulator: 4/sqrt(16) = 1, not the 0.8 of the warm one
    assert p2.W[0, 0] == pytest.approx(0.0, abs=1e-15)
    assert p1.W[0, 0] != p2.W[0, 0]
