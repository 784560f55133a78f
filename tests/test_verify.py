import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import momentalign.verify as verify
from momentalign.analysis import BoundCheck, prop1_bound
from momentalign.moments import central_moments
from momentalign.numerics import SeededRng
from momentalign.verify import (
    CHECKS,
    check_appendix_a,
    check_char_fct,
    check_dual_form,
    check_gradients,
    check_prop_bound,
)

# the two closed-form constants that land barely on the wrong side with
# these fixture distributions; see README "known results" note
EXPECTED_RED = {"mmd_k2(S,L) < 0.00025", "mmd_k4(S,L) < 0.004"}


def test_appendix_a_structure():
    rows = check_appendix_a()
    assert len(rows) == 18
    assert len({r.name for r in rows}) == 18
    failing = {r.name for r in rows if not r.passed}
    assert failing == EXPECTED_RED


def test_appendix_a_orderings_always_hold():
    rows = {r.name: r for r in check_appendix_a()}
    for name in (
        "ordering d_P1: left closer",
        "ordering d_P2: left closer",
        "ordering d_P4: left closer",
        "ordering mmd_k2: left closer",
        "ordering mmd_k4: left closer",
        "ordering cmd_4: right closer",
    ):
        assert rows[name].passed, name


def test_appendix_a_pinned_values():
    rows = {r.name: r for r in check_appendix_a()}
    assert rows["d_P1(S,L) = 0"].lhs == pytest.approx(0.0, abs=1e-15)
    assert rows["0.02 <= d_P1(S,R)"].rhs == pytest.approx(0.02, abs=1e-12)
    assert rows["cmd_4(S,R) <= 0.02"].lhs == pytest.approx(0.02, abs=1e-9)
    assert rows["d_P2(S,L) < 0.016"].lhs == pytest.approx(0.0159888889, abs=1e-9)
    assert rows["mmd_k2(S,L) < 0.00025"].lhs == pytest.approx(0.0002556446, abs=1e-9)


def test_gradients_suite_passes():
    rows = check_gradients(cases=6)
    assert len(rows) == 12
    assert all(r.passed for r in rows)
    assert all(r.rhs == 1e-5 for r in rows)


def test_gradients_deterministic_in_seed():
    a = check_gradients(seed=4, cases=3)
    b = check_gradients(seed=4, cases=3)
    assert [(r.name, r.lhs) for r in a] == [(r.name, r.lhs) for r in b]


@pytest.mark.parametrize("seed", [163, 280, 405, 417])
def test_gradients_suite_green_where_round_off_was_red(seed):
    # the h = 1e-5 two-point stencil read 1.1e-5 to 3.0e-5 on a tiny
    # gradient coordinate at these seeds; the O(h^4) stencil at h = 1e-3
    # reads below 1e-6
    rows = check_gradients(seed=seed)
    assert all(r.passed for r in rows), [(r.name, r.lhs) for r in rows if not r.passed]
    assert max(r.lhs for r in rows) < 1e-6


_COTANGENT_MUTANTS = {
    # mutant -> (text of distances.cmd_cotangents, its replacement, k of the red rows)
    "dropped c_{j-1} term": (
        "(D.mean(axis=0) if j == 2 else c[j - 1])", "(D.mean(axis=0) if j == 2 else 0.0)",
        {3, 5}),
    "a_3 scaled by 1.05": (
        "cfg.weight(j) * j * delta", "cfg.weight(j) * (1.05 if j == 3 else 1.0) * j * delta",
        {3, 5}),
    "target cotangent sign flipped": (
        "side(At, ct, [-u for u in coefs])", "side(At, ct, coefs)", {1, 3, 5}),
}


@pytest.mark.parametrize("mutant", sorted(_COTANGENT_MUTANTS))
def test_gradients_suite_catches_cotangent_mutants(monkeypatch, mutant):
    import inspect

    from momentalign import distances, network

    text, replacement, red_ks = _COTANGENT_MUTANTS[mutant]
    source = inspect.getsource(distances.cmd_cotangents)
    assert source.count(text) == 1
    namespace = dict(vars(distances))
    exec(source.replace(text, replacement), namespace)
    monkeypatch.setattr(network, "cmd_cotangents", namespace["cmd_cotangents"])
    rows = check_gradients(seed=0)
    red = [r for r in rows if not r.passed]
    want = [r.name for r in rows if r.name.startswith("cmd") and int(r.name[-2]) in red_ks]
    assert [r.name for r in red] == want
    assert min(r.lhs for r in red) > 1e-3


_STEP_MUTANTS = {
    # mutant -> (text of network.step_gradients, its replacement)
    "source cotangent not scaled by lambda": ("    g_s *= lam\n", ""),
    "target cotangent not scaled by lambda": ("    g_t *= lam\n", ""),
    "loss cotangent left out of the source's": ("g_s += cotangent", "pass"),
}


@pytest.mark.parametrize("mutant", sorted(_STEP_MUTANTS))
def test_gradients_suite_catches_step_gradients_mutants(monkeypatch, mutant):
    # the oracle checks the training step's own gradient: every cmd row
    # goes red, and the loss rows, read at lambda = 0, stay green
    import inspect

    from momentalign import network

    text, replacement = _STEP_MUTANTS[mutant]
    source = inspect.getsource(network.step_gradients)
    assert source.count(text) == 1
    namespace = dict(vars(network))
    exec(source.replace(text, replacement), namespace)
    monkeypatch.setattr(network, "step_gradients", namespace["step_gradients"])
    rows = check_gradients(seed=0)
    cmd = [r for r in rows if r.name.startswith("cmd")]
    loss = [r for r in rows if r.name.startswith("loss")]
    assert len(cmd) == len(loss) == 20
    assert min(r.lhs for r in cmd) > 1e-3
    assert all(r.passed for r in loss)


def test_prop_bound_suite_passes():
    rows = check_prop_bound(cases=300)
    assert len(rows) == 7
    assert all(r.passed for r in rows)
    assert [r.name for r in rows] == [f"moment-bound j={j} worst of 300 pairs" for j in range(1, 8)]


def per_case_pairs(seed, cases):
    """The draws of the per-case loop check_prop_bound replaced: per case,
    its width m and its pair X, Y, each drawn from one split stream."""
    rng = SeededRng(seed)
    for i in range(cases):
        r = rng.split(i + 1)
        m = 1 + i % 3
        n1 = 2 + int(r.uniforms(1)[0] * 29)
        n2 = 2 + int(r.uniforms(1)[0] * 29)
        X = r.uniform_matrix(n1, m)
        Y = r.uniform_matrix(n2, m)
        if i % 4 == 1:
            X = X ** 2  # clump toward 0
        elif i % 4 == 2:
            Y = np.sqrt(Y)  # clump toward 1
        elif i % 4 == 3:
            X = np.round(X)  # two-point mass on {0, 1}
        yield m, X, Y


def per_case_norms(X, Y):
    cx = central_moments(X, 7)
    cy = central_moments(Y, 7)
    return [float(np.linalg.norm(cx[j] - cy[j])) for j in range(1, 8)]


def prop_bound_per_case(seed, cases):
    """The per-case loop check_prop_bound replaced, kept as its reference:
    two central_moments calls per case and the first worst slack per order."""
    worst = {j: None for j in range(1, 8)}
    for m, X, Y in per_case_pairs(seed, cases):
        for j, lhs in enumerate(per_case_norms(X, Y), start=1):
            rhs = math.sqrt(m) * prop1_bound(j)
            if worst[j] is None or rhs - lhs < worst[j][1] - worst[j][0]:
                worst[j] = (lhs, rhs)
    return [
        BoundCheck.of(f"moment-bound j={j} worst of {cases} pairs", worst[j][0], worst[j][1], 1e-12)
        for j in range(1, 8)
    ]


@pytest.mark.parametrize("seed", [0, 7])
def test_prop_bound_norms_equal_per_case_norms(seed):
    # every case's seven distances, not just the worst one reported
    pairs = list(per_case_pairs(seed, 600))
    child = SeededRng(seed).split_seeds(np.arange(1, 601))
    n1, n2 = (np.array([len(pair[side]) for pair in pairs]) for side in (1, 2))
    for m in (1, 2, 3):
        idx = np.arange(m - 1, 600, 3)
        lhs = verify._block_norms(child, n1, n2, idx, m)
        assert lhs.T.tolist() == [per_case_norms(*pairs[i][1:]) for i in idx]


# small case counts leave a width without cases or a row count with one sample
@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**64 - 1), st.one_of(st.integers(1, 12), st.integers(13, 600)))
def test_prop_bound_batched_equals_per_case_loop(seed, cases):
    batched = check_prop_bound(seed=seed, cases=cases)
    assert [r.to_dict() for r in batched] == [r.to_dict() for r in prop_bound_per_case(seed, cases)]


@pytest.mark.parametrize("bound", [prop1_bound, lambda j: 0.0], ids=["bound", "zero-bound"])
def test_prop_bound_ties_go_to_the_first_case(monkeypatch, bound):
    # all-zero draws give every pair lhs 0: the pairs of width 1 tie on the
    # least slack, and with a zero bound every pair ties, across widths too
    monkeypatch.setattr(verify, "word_uniforms", lambda words: np.zeros(words.shape))
    monkeypatch.setattr(verify, "prop1_bound", bound)
    worst = verify._worst_cases(0, 30)
    assert [case for _, case, _, _ in worst] == [0] * 7
    assert all(lhs == 0.0 for _, _, lhs, _ in worst)


@pytest.mark.parametrize("suite", ["gradients", "prop-bound", "char-fct", "dual-form"])
@pytest.mark.parametrize("cases", [0, -3])
def test_suites_reject_fewer_than_one_case(suite, cases):
    with pytest.raises(ValueError, match=r"^cases must be >= 1$"):
        CHECKS[suite](cases=cases)


def test_char_fct_suite_passes():
    rows = check_char_fct(cases=12)
    assert all(r.passed for r in rows)
    assert len(rows) == 12


def test_dual_form_suite_passes():
    rows = check_dual_form(cases=8)
    assert all(r.passed for r in rows)
    assert len(rows) == 8


def test_checks_registry_matches_cli_suites():
    assert set(CHECKS) == {
        "appendix-a", "gradients", "prop-bound", "char-fct", "dual-form"
    }
    assert CHECKS["appendix-a"] is check_appendix_a
