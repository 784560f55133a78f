import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from momentalign import numerics
from momentalign.analysis import dual_equivalence_check, prop1_bound, prop1_check
from momentalign.datasets import ArtificialSpec
from momentalign.distances import (
    CmdConfig,
    mmd_polynomial_analytic,
    mmd_polynomial_estimate,
    raw_moment_ipm,
    raw_moment_ipm_estimate,
)
from momentalign.moments import (
    Normal,
    analytic_central_moment,
    analytic_raw_moment,
    central_moments,
    monomial_exponents,
    monomial_matrix,
)
from momentalign.network import init_params
from momentalign.numerics import SeededRng, SparseRowMatrix, stream_words, word_uniforms
from momentalign.optim import OPTIMIZERS
from momentalign.trainer import TrainConfig
from momentalign.verify import check_char_fct, check_dual_form, check_gradients, check_prop_bound

from helpers import bag_of_words, traced_peak


def test_same_seed_same_stream():
    a = SeededRng(42).uniforms(100)
    b = SeededRng(42).uniforms(100)
    assert np.array_equal(a, b)


def test_different_seeds_differ():
    a = SeededRng(1).uniforms(50)
    b = SeededRng(2).uniforms(50)
    assert not np.array_equal(a, b)


def test_uniforms_range_and_mean():
    u = SeededRng(7).uniforms(50_000)
    assert u.min() >= 0.0 and u.max() < 1.0
    assert abs(u.mean() - 0.5) < 0.01


def test_stream_is_counter_based():
    # one call for 10 words equals two calls for 5 + 5
    whole = SeededRng(9).uniforms(10)
    r = SeededRng(9)
    parts = np.concatenate([r.uniforms(5), r.uniforms(5)])
    assert np.array_equal(whole, parts)


def test_normals_moments():
    z = SeededRng(3).normals(100_000)
    assert abs(z.mean()) < 0.02
    assert abs(z.var() - 1.0) < 0.02
    assert np.all(np.isfinite(z))


def test_normals_odd_count():
    assert SeededRng(5).normals(7).shape == (7,)


def test_matrix_shapes():
    assert SeededRng(0).uniform_matrix(3, 4).shape == (3, 4)
    assert SeededRng(0).normal_matrix(5, 2).shape == (5, 2)


def test_permutation_is_permutation():
    perm = SeededRng(11).permutation(40)
    assert sorted(perm.tolist()) == list(range(40))
    assert np.array_equal(perm, SeededRng(11).permutation(40))


def test_split_streams_are_independent():
    parent = SeededRng(123)
    a = parent.split(1).uniforms(20)
    b = parent.split(2).uniforms(20)
    c = SeededRng(123).uniforms(20)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)
    # same salt reproduces the same child
    assert np.array_equal(a, SeededRng(123).split(1).uniforms(20))


def test_stream_words_are_splitmix64():
    # the first outputs of the reference SplitMix64 generator seeded with 0
    words = stream_words(0, np.arange(1, 4))
    assert words.tolist() == [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
    assert np.array_equal(SeededRng(0).uniforms(3), word_uniforms(words))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**64 - 1),
    st.lists(st.integers(0, 2**40), min_size=1, max_size=4),
    st.integers(0, 30),
    st.integers(1, 6),
    st.integers(1, 6),
)
def test_stream_words_index_split_streams(seed, salts, skip, rows, cols):
    # word c of split(salt) is stream_words(split_seeds(salt), c): a block can
    # be drawn for many child streams at once, at any offset
    child = SeededRng(seed).split_seeds(salts)
    assert child.tolist() == [SeededRng(seed).split(s).seed for s in salts]
    counters = skip + 1 + np.arange(rows * cols)
    block = word_uniforms(stream_words(child[:, None], counters))
    for salt, drawn in zip(salts, block):
        r = SeededRng(seed).split(salt)
        r.uniforms(skip)
        assert np.array_equal(drawn.reshape(rows, cols), r.uniform_matrix(rows, cols))
        assert np.array_equal(drawn, SeededRng(seed).split(salt).uniforms(skip + rows * cols)[skip:])


# ---------------------------------------------------------------------------
# SparseRowMatrix
# ---------------------------------------------------------------------------


def small_sparse():
    return SparseRowMatrix.from_rows(
        [[(0, 1.0), (2, -2.0)], [], [(1, 3.5)]], cols=3
    )


def test_sparse_toarray():
    S = small_sparse()
    expected = np.array([[1.0, 0.0, -2.0], [0.0, 0.0, 0.0], [0.0, 3.5, 0.0]])
    assert np.array_equal(S.toarray(), expected)
    assert S.shape == (3, 3)


def t_dot(S, R):
    """S.T @ R as t_dot_dense adds it, divided by 1.0, into zeros: the
    transpose of a new (k, cols) array, the layout of a gradient's dW."""
    return S.t_dot_dense(R, np.zeros((R.shape[1], S.cols)).T, 1.0)


def test_sparse_products_match_dense():
    S = small_sparse()
    D = np.arange(12, dtype=float).reshape(3, 4)
    dense = S.toarray()
    assert np.allclose(S.dot_dense(D), dense @ D)
    R = np.arange(6, dtype=float).reshape(3, 2)
    assert np.allclose(t_dot(S, R), dense.T @ R)


def test_sparse_matrix_stores_no_array_beyond_indptr_indices_and_data():
    # the row of each stored entry is derived from indptr where it is read
    S = bag_of_words(rows=20, cols=50, per_row=5)
    for matrix in (S, S.take_rows([3, 0, 3])):
        arrays = {name for name, value in vars(matrix).items() if isinstance(value, np.ndarray)}
        assert arrays == {"indptr", "indices", "data"}


def test_sparse_take_rows():
    S = small_sparse()
    sub = S.take_rows([2, 0])
    assert np.array_equal(sub.toarray(), S.toarray()[[2, 0]])
    for bad in ([-1], [3], [0, 3]):
        with pytest.raises(ValueError, match="out of range"):
            S.take_rows(bad)


def test_sparse_validation():
    with pytest.raises(ValueError):
        SparseRowMatrix(2, 3, [0, 1], [0], [1.0])  # indptr too short
    with pytest.raises(ValueError):
        SparseRowMatrix.from_rows([[(1, 1.0), (1, 2.0)]], cols=3)  # not increasing
    with pytest.raises(ValueError):
        SparseRowMatrix.from_rows([[(5, 1.0)]], cols=3)  # out of range
    with pytest.raises(ValueError, match="row 1: indptr decreases"):
        SparseRowMatrix(3, 4, [0, 3, 2, 3], [0, 1, 2], [1.0, 2.0, 3.0])
    # the message names the first bad row, whatever the fault
    rows = [[(0, 1.0)], [], [(2, 1.0), (1, 1.0)], [(-1, 1.0)], [(3, 1.0)]]
    with pytest.raises(ValueError, match="^row 2: indices must be strictly increasing"):
        SparseRowMatrix.from_rows(rows, cols=3)
    rows[2] = [(1, 1.0), (2, 1.0)]
    with pytest.raises(ValueError, match="^row 3: "):
        SparseRowMatrix.from_rows(rows, cols=3)
    with pytest.raises(ValueError, match="^row 1: "):
        SparseRowMatrix.from_rows([[(0, 1.0), (2, 1.0)], [(3, 1.0)]], cols=3)
    # a new row may restart at a lower column
    assert SparseRowMatrix.from_rows([[(2, 1.0)], [(0, 1.0)]], cols=3).shape == (2, 3)


@settings(max_examples=30, deadline=None)
@given(st.lists(
    st.lists(st.tuples(st.integers(0, 5), st.floats(-10, 10, allow_nan=False)),
             max_size=4),
    min_size=1, max_size=6,
))
def test_sparse_dot_matches_dense_product(rows):
    cleaned = []
    for pairs in rows:
        seen = sorted({i for i, _ in pairs})
        vals = dict(pairs)
        cleaned.append([(i, vals[i]) for i in seen])
    S = SparseRowMatrix.from_rows(cleaned, cols=6)
    D = np.linspace(-1.0, 1.0, 6 * 3).reshape(6, 3)
    assert np.allclose(S.dot_dense(D), S.toarray() @ D)


# Bitwise references: the np.add.at scatter and the Python-loop gather
# that the vectorized kernels replace.


def add_at_dot(S, D):
    out = np.zeros((S.rows, D.shape[1]))
    np.add.at(out, np.repeat(np.arange(S.rows), np.diff(S.indptr)),
              S.data[:, None] * D[S.indices])
    return out


def add_at_t_dot(S, D):
    out = np.zeros((S.cols, D.shape[1]))
    np.add.at(out, S.indices,
              S.data[:, None] * D[np.repeat(np.arange(S.rows), np.diff(S.indptr))])
    return out


def loop_take_rows(S, idx):
    rows = [list(zip(S.indices[S.indptr[r]:S.indptr[r + 1]], S.data[S.indptr[r]:S.indptr[r + 1]]))
            for r in idx]
    return SparseRowMatrix.from_rows(rows, S.cols)


# signed values from 1e-300 to 1e300, with both zeros drawn often; products
# of the extremes overflow to inf and their sums may be nan
SIGNED = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.sampled_from([1e300, -1e300, 1e-300, -1e-300, 5e-324, -5e-324]),
    st.floats(-1e3, 1e3),
    st.integers(-2**52, 2**52).map(lambda i: i * 2.0**-42),  # full mantissas: order shows
    st.builds(lambda magnitude, sign: sign * magnitude,
              st.floats(1e290, 1e308) | st.floats(1e-308, 1e-290), st.sampled_from([-1.0, 1.0])),
)


@st.composite
def csr_matrices(draw):
    """A SparseRowMatrix of 0-8 rows and 1-8 columns: empty rows (drawn
    often: their sums are the zeros the products add), rows with every
    column set, and the all-empty and 0-row cases."""
    rows, cols = draw(st.integers(0, 8)), draw(st.integers(1, 8))
    pattern = [draw(st.just([False] * cols) | st.lists(st.booleans(), min_size=cols, max_size=cols))
               for _ in range(rows)]
    return SparseRowMatrix.from_rows(
        [[(i, draw(SIGNED)) for i in range(cols) if row[i]] for row in pattern], cols)


def signed_matrix(draw, rows, width):
    return np.array([[draw(SIGNED) for _ in range(width)] for _ in range(rows)]).reshape(rows, width)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_sparse_products_bitwise_equal_add_at(data):
    S = data.draw(csr_matrices())
    width = data.draw(st.integers(1, 8))
    with np.errstate(over="ignore", invalid="ignore"):
        D = signed_matrix(data.draw, S.cols, width)
        assert S.dot_dense(D).tobytes() == add_at_dot(S, D).tobytes()
        R = signed_matrix(data.draw, S.rows, width)
        assert t_dot(S, R).tobytes() == add_at_t_dot(S, R).tobytes()


# 1 term: every output row is a block of its own, and every row or column
# with more than one stored value is longer than a block; a huge cap makes
# the whole matrix one block
@pytest.mark.parametrize("cap", [1, 6, 1 << 62], ids=["one-term", "six-terms", "one-block"])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_blocked_sparse_products_bitwise_equal_add_at(cap, data):
    S = data.draw(csr_matrices())
    width = data.draw(st.integers(1, 8))
    with pytest.MonkeyPatch.context() as mp, np.errstate(over="ignore", invalid="ignore"):
        mp.setattr(numerics, "_BLOCK_TERMS", cap)
        D = signed_matrix(data.draw, S.cols, width)
        assert S.dot_dense(D).tobytes() == add_at_dot(S, D).tobytes()
        R = signed_matrix(data.draw, S.rows, width)
        got = t_dot(S, R)
        assert got.tobytes() == add_at_t_dot(S, R).tobytes()
        assert got.T.flags.c_contiguous  # the (k, cols) array a gradient takes as is


@pytest.mark.parametrize("cap", [1, 6, 1 << 62], ids=["one-term", "six-terms", "one-block"])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_t_dot_dense_adding_into_out_equals_the_sum_of_a_new_product(cap, data):
    # the accumulate form a gradient takes the second domain's product in:
    # each block's sums divided by n and added, against the whole product
    # made first, divided, then added
    S = data.draw(csr_matrices())
    width, n = data.draw(st.integers(1, 8)), data.draw(st.integers(1, 9))
    with pytest.MonkeyPatch.context() as mp, np.errstate(over="ignore", invalid="ignore"):
        mp.setattr(numerics, "_BLOCK_TERMS", cap)
        R = signed_matrix(data.draw, S.rows, width)
        start = signed_matrix(data.draw, width, S.cols).T  # a gradient's transposed dW
        product = add_at_t_dot(S, R)
        product /= n
        want = start + product
        out = start.copy(order="K")
        assert S.t_dot_dense(R, out, n) is out
        assert out.tobytes() == want.tobytes()


def test_t_dot_dense_keeps_minus_zero_plus_an_underflowed_sum():
    # a sum of -5e-324 divided by 2 is -0.0, and -0.0 + -0.0 stays -0.0:
    # a column with entries must not get the + 0.0 of the empty ones
    S = SparseRowMatrix.from_rows([[(0, 1.0)]], cols=2)
    R = np.array([[-5e-324]])
    out = np.full((1, 2), -0.0).T
    S.t_dot_dense(R, out, 2)
    assert out.tobytes() == (np.full((2, 1), -0.0) + add_at_t_dot(S, R) / 2).tobytes()
    assert np.signbit(out[:, 0]).tolist() == [True, False]


def test_t_dot_dense_adds_a_block_of_empty_columns(monkeypatch):
    # column 3 holds more terms than a block and columns 0-2 hold none, so
    # no chunk of runs reaches them: the one np.where(lengths, -0.0, 0.0)
    # pass adds their + 0.0, which still turns -0.0 into 0.0, as adding a
    # whole product does
    monkeypatch.setattr(numerics, "_BLOCK_TERMS", 6)
    S = SparseRowMatrix.from_rows([[(3, 1.0 + r)] for r in range(5)], cols=4)
    R = SeededRng(8).normal_matrix(5, 2)
    out = np.full((2, 4), -0.0).T
    S.t_dot_dense(R, out, 5)
    assert out.tobytes() == (np.full((4, 2), -0.0) + add_at_t_dot(S, R) / 5).tobytes()
    assert not np.signbit(out[:3]).any()


@pytest.mark.parametrize("cap", [1, 1 << 62], ids=["one-term", "one-block"])
def test_blocked_sparse_products_on_long_runs_and_empty_lines(cap, monkeypatch):
    # a full row and a full column each far longer than a block, empty rows
    # and columns, and signed zeros among the values and the operand
    rows = [[(c, 0.1 * c - 1.0) for c in range(40)], [], [(0, -0.0), (7, 2.5)], []]
    rows += [[(0, 1.0 + r), (39, -0.0)] for r in range(30)]
    S = SparseRowMatrix.from_rows(rows, cols=45)  # columns 40..44 stay empty
    D = SeededRng(6).normal_matrix(45, 3)
    D[::4] = -0.0
    R = SeededRng(7).normal_matrix(S.rows, 3)
    R[1::3] = -0.0
    monkeypatch.setattr(numerics, "_BLOCK_TERMS", cap)
    assert S.dot_dense(D).tobytes() == add_at_dot(S, D).tobytes()
    assert t_dot(S, R).tobytes() == add_at_t_dot(S, R).tobytes()


@pytest.mark.parametrize("product", ["dot_dense", "t_dot_dense"])
def test_sparse_product_memory_is_its_output_and_a_few_blocks(product):
    # the products built every term at once, 43-45 MiB at this shape: 1000 x
    # 5000 with about 56k stored values (the paper's sentiment inputs), k = 50
    S = bag_of_words()
    D = SeededRng(5).normal_matrix(S.cols if product == "dot_dense" else S.rows, 50)
    out, peak = traced_peak(S.dot_dense, D) if product == "dot_dense" else traced_peak(t_dot, S, D)
    assert peak - out.nbytes <= 4 * 2**20, f"{peak / 2**20:.2f} MiB, output {out.nbytes / 2**20:.2f}"


def test_sparse_products_keep_signed_zeros_as_add_at():
    # 0.0 + -0.0 is 0.0: a row of -0.0 terms sums to +0.0 in both kernels
    S = SparseRowMatrix.from_rows([[(0, -0.0)], [], [(0, 1.0), (1, -1.0)]], cols=2)
    D = np.array([[1.0, -0.0], [1.0, 0.0]])
    out = S.dot_dense(D)
    assert out.tobytes() == add_at_dot(S, D).tobytes()
    assert not np.signbit(out).any()
    assert t_dot(S, D[[0, 1, 0]]).tobytes() == add_at_t_dot(S, D[[0, 1, 0]]).tobytes()


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_dot_dense_of_an_f_ordered_operand_equals_the_c_ordered_one(data):
    # the forward passes W.T, an F-ordered view; the product gathers rows
    # from a C-ordered copy of it
    S = data.draw(csr_matrices())
    with np.errstate(over="ignore", invalid="ignore"):
        D = signed_matrix(data.draw, S.cols, data.draw(st.integers(1, 8)))
        want = add_at_dot(S, D)
        assert S.dot_dense(np.asfortranarray(D)).tobytes() == want.tobytes()
        assert S.dot_dense(np.ascontiguousarray(D)).tobytes() == want.tobytes()
        assert S.dot_dense(np.ascontiguousarray(D.T).T).tobytes() == want.tobytes()


@pytest.mark.parametrize("cols", [255, 256, 65_535, 65_536, 70_000])
def test_stable_order_equals_the_int64_argsort(cols):
    # the narrow key (uint8, uint16, then uint32) gives the int64 key's
    # stable order, ties included; both ends of the id range occur
    rng = SeededRng(cols)
    ids = (rng.uniforms(20_000) * cols).astype(np.int64)
    ids[:50] = cols - 1
    ids[50:100] = 0
    ids[100:] = ids[100:][np.argsort(rng.uniforms(ids.size - 100))]
    want = np.argsort(ids, kind="stable")
    assert np.array_equal(numerics._stable_order(ids, cols), want)


@pytest.mark.parametrize("cols", [255, 256, 65_536, 70_000])
def test_t_dot_dense_fills_out_with_the_new_arrays_bits(cols):
    rng = SeededRng(3)
    rows = [[(int(c), 1.0 + c % 5) for c in np.unique((rng.uniforms(6) * cols).astype(int))]
            for _ in range(30)]
    S = SparseRowMatrix.from_rows(rows, cols)
    R = rng.normal_matrix(S.rows, 4)
    want = add_at_t_dot(S, R)
    out = np.zeros((4, cols)).T
    assert S.t_dot_dense(R, out, 1.0) is out
    assert out.tobytes() == want.tobytes() == t_dot(S, R).tobytes()
    with pytest.raises(ValueError, match="wrong shape"):
        S.t_dot_dense(R, np.empty((cols, 3)), 1.0)


def test_sparse_products_reject_non_matrix_operands():
    S = small_sparse()
    for D in (np.ones(3), np.ones((3, 2, 1)), np.ones((4, 2))):
        with pytest.raises(ValueError, match="dimension mismatch"):
            S.dot_dense(D)
        with pytest.raises(ValueError, match="dimension mismatch"):
            S.t_dot_dense(D, np.zeros((3, 2)), 1.0)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_take_rows_equals_loop_reference(data):
    S = data.draw(csr_matrices())
    idx = data.draw(st.lists(st.integers(0, S.rows - 1), max_size=12)) if S.rows else []
    got, want = S.take_rows(idx), loop_take_rows(S, idx)
    assert got.shape == want.shape == (len(idx), S.cols)
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    assert got.data.tobytes() == want.data.tobytes()


# ---------------------------------------------------------------------------
# settings codec
# ---------------------------------------------------------------------------

FINITE = st.floats(-1e6, 1e6)
POSITIVE = st.floats(1e-6, 1e6)
TRAIN_CONFIGS = st.builds(
    TrainConfig,
    hidden=st.integers(1, 500), k=st.integers(1, 20), lam=st.floats(0.0, 1e6),
    optimizer=st.sampled_from(sorted(OPTIMIZERS)),
    alpha=st.none() | st.floats(0.0, math.inf, exclude_min=True),
    rho=st.floats(0.0, 1.0, exclude_max=True), eps=st.none() | POSITIVE,
    epochs=st.integers(1, 10**6), batch_size=st.integers(0, 10**4),
    warm_start_fraction=st.floats(0.0, 1.0), seed=st.integers(-2**63, 2**64 - 1),
)


@st.composite
def artificial_specs(draw):
    classes = draw(st.integers(1, 4))
    pair = st.tuples(FINITE, FINITE)
    return ArtificialSpec(
        total=draw(st.integers(classes, 5000)), classes=classes, rotation_deg=draw(FINITE),
        shift=draw(pair), centers=tuple(draw(st.lists(pair, min_size=classes, max_size=classes))),
        spread=draw(POSITIVE | st.tuples(*[POSITIVE] * classes)),
        seed=draw(st.integers(0, 2**64 - 1)), target_seed=draw(st.none() | st.integers(0, 2**64 - 1)),
    )


@settings(max_examples=150, deadline=None)
@given(TRAIN_CONFIGS)
def test_train_config_round_trips_through_its_json_object(cfg):
    assert TrainConfig.from_dict(cfg.to_dict()) == cfg
    assert TrainConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg


@settings(max_examples=150, deadline=None)
@given(artificial_specs())
@example(ArtificialSpec(spread=(0.1, 0.2, 0.3), target_seed=None))
@example(ArtificialSpec(spread=0.5, target_seed=7))
def test_artificial_spec_round_trips_through_its_json_object(spec):
    assert ArtificialSpec.from_dict(spec.to_dict()) == spec
    assert ArtificialSpec.from_dict(json.loads(json.dumps(spec.to_dict()))) == spec


def test_default_settings_write_their_keys_in_field_order():
    # report.json's config block and spec.json hold these, tuples as lists
    assert list(TrainConfig().to_dict().items()) == [
        ("hidden", 15), ("k", 5), ("lambda", 1.0), ("optimizer", "adadelta"), ("alpha", None),
        ("rho", 0.95), ("eps", None), ("epochs", 1200), ("batch_size", 0),
        ("warm_start_fraction", 2.0 / 3.0), ("seed", 0)]
    assert list(ArtificialSpec().to_dict().items()) == [
        ("total", 639), ("classes", 3), ("rotation_deg", -35.0), ("shift", [0.06, -0.12]),
        ("centers", [[0.0, 0.0], [1.168, 0.365], [2.165, 1.613]]), ("spread", 0.275),
        ("seed", 0), ("target_seed", None)]
    assert ArtificialSpec(spread=(0.1, 0.2, 0.3)).to_dict()["spread"] == [0.1, 0.2, 0.3]


@pytest.mark.parametrize("Y, classes, message", [
    (np.eye(3)[:2], None, "^y do not align with features$"),
    (7.0, None, "^y do not align with features$"),
    (np.arange(3), None, "^y must have columns, one per class$"),
    (np.eye(3), 2, "^y must have 2 columns, one per class$"),
    (np.ones((3, 3, 1)), 3, "^y must have 3 columns, one per class$"),
])
def test_check_labels_names_what_it_rejects(Y, classes, message):
    with pytest.raises(ValueError, match=message):
        numerics.check_labels(Y, 3, classes, "y")


def test_check_labels_returns_float64_labels():
    Y = numerics.check_labels([[1, 0], [0, 1], [1, 0]], 3, 2)
    assert Y.dtype == np.float64 and Y.tolist() == [[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]]
    assert numerics.check_labels(Y, 3) is Y

def test_check_finite_reads_python_numbers_and_float64_arrays_without_a_copy():
    numerics.check_finite(a=10**300, b=2, c=[1.5, -3])
    for value in (10**400, -10**400, [1.0, 10**400], float("nan")):
        with pytest.raises(ValueError, match="^x must be finite, got a non-finite value$"):
            numerics.check_finite(x=value)
    values = np.zeros(1 << 17)
    assert traced_peak(numerics.check_finite, x=values)[1] < values.nbytes // 4


FLOAT_MAX_INT = 2**1024 - 2**970 - 1  # the largest int float() takes: the largest double


@pytest.mark.parametrize("sign", [1, -1])
def test_an_integer_beyond_the_float_range_is_no_number_but_still_an_integer(sign):
    # float() of it raised OverflowError wherever a number was read
    inside, beyond = sign * FLOAT_MAX_INT, sign * (FLOAT_MAX_INT + 1)
    assert abs(float(inside)) == np.finfo(np.float64).max
    numerics.check_json_types({"x": inside, "a": [inside], "b": [[0.5, inside]]}, reals=("x",),
                              arrays={"a": (1,), "b": (2,)})
    for value in (beyond, sign * 10**400):
        with pytest.raises(OverflowError):
            float(value)
        with pytest.raises(ValueError, match="^x must be a number, got "):
            numerics.check_json_types({"x": value}, reals=("x",))
        with pytest.raises(ValueError, match=r"^a must be a number or a list of numbers, got \["):
            numerics.check_json_types({"a": [1.0, value]}, arrays={"a": (0, 1)})
        with pytest.raises(ValueError, match=r"^b must be a list of lists of numbers, got \[\["):
            numerics.check_json_types({"b": [[0.5, value]]}, arrays={"b": (2,)})
        numerics.check_json_types({"seed": value}, ints=("seed",))  # a seed may be that long


SQUARE = np.array([[0.25, 0.5], [0.75, 0.0]])
NORMALS = (Normal(0.0, 1.0), Normal(0.5, 1.0))

# every entry that takes an order, count or size, with the setting it names
COUNT_ENTRIES = {
    "check_count": ("n", lambda v: numerics.check_count(v, "n")),
    "central_moments": ("k", lambda v: central_moments(SQUARE, v)),
    "monomial_matrix": ("k", lambda v: monomial_matrix(SQUARE, v)),
    # the cache would return monomial_exponents(2, 1) for True == 1 unchecked
    "monomial_exponents-k": ("k", lambda v: (monomial_exponents(2, 1), monomial_exponents(2, v))),
    "monomial_exponents-m": ("m", lambda v: (monomial_exponents(1, 2), monomial_exponents(v, 2))),
    "train-hidden": ("hidden", lambda v: TrainConfig(hidden=v)),
    "train-k": ("k", lambda v: TrainConfig(k=v)),
    "train-epochs": ("epochs", lambda v: TrainConfig(epochs=v)),
    "artificial-total": ("total", lambda v: ArtificialSpec(total=v)),
    "artificial-classes": ("classes", lambda v: ArtificialSpec(classes=v, centers=((0.0, 0.0),) * int(v))),
    "check_gradients": ("cases", lambda v: check_gradients(cases=v)),
    "check_prop_bound": ("cases", lambda v: check_prop_bound(cases=v)),
    "check_char_fct": ("cases", lambda v: check_char_fct(cases=v)),
    "check_dual_form": ("cases", lambda v: check_dual_form(cases=v)),
    "prop1_bound": ("order", prop1_bound),
    "prop1_check": ("j", lambda v: prop1_check(SQUARE, SQUARE[::-1], v, 0.0, 1.0)),
    "cmd-config": ("k", lambda v: CmdConfig(k=v)),
    "raw_moment_ipm": ("k", lambda v: raw_moment_ipm(*NORMALS, v)),
    "raw_moment_ipm_estimate": ("k", lambda v: raw_moment_ipm_estimate(SQUARE, SQUARE.T, v)),
    "mmd_polynomial_analytic": ("degree", lambda v: mmd_polynomial_analytic(*NORMALS, v)),
    "mmd_polynomial_estimate": ("degree", lambda v: mmd_polynomial_estimate(SQUARE, SQUARE.T, v)),
    "init_params-input": ("input_dim", lambda v: init_params(v, 2, 3, SeededRng(0))),
    "init_params-hidden": ("hidden", lambda v: init_params(2, v, 3, SeededRng(0))),
    "init_params-classes": ("classes", lambda v: init_params(2, 2, v, SeededRng(0))),
}


@pytest.mark.parametrize("value, message", [
    (2.5, "must be an integer, got 2.5"),
    (True, "must be an integer, got True"),
    (0, "must be >= 1"),
], ids=["float", "bool", "zero"])
@pytest.mark.parametrize("entry", COUNT_ENTRIES)
def test_every_count_is_checked_where_it_enters(entry, value, message):
    # the float failed in a moment pass, a NumPy call or a division, or
    # ran (prop1_bound(2.5)); True ran as 1; 0 failed in NumPy, divided by
    # zero (classes), or left total's "need at least one sample per class"
    name, call = COUNT_ENTRIES[entry]
    with pytest.raises(ValueError) as info:
        call(value)
    assert str(info.value) == f"{name} {message}"


@pytest.mark.parametrize("value", [2**31, 10**30], ids=["2**31", "10**30"])
@pytest.mark.parametrize("entry", [entry for entry in COUNT_ENTRIES if entry != "artificial-classes"])
def test_every_count_is_held_to_the_ceiling_where_it_enters(entry, value):
    # k = 10**30 ended in OverflowError, and a size that large in NumPy's
    # "Maximum allowed size exceeded"; the classes entry first builds as
    # many centers, so test_schemas holds classes to the ceiling instead
    name, call = COUNT_ENTRIES[entry]
    with pytest.raises(ValueError) as info:
        call(value)
    assert str(info.value) == f"{name} must be <= 2147483647"


def test_the_count_ceiling_is_the_largest_int32():
    numerics.check_count(2**31 - 1, "n")  # only checked: a count this large is never run
    with pytest.raises(ValueError, match="^n must be <= 2147483647$"):
        numerics.check_count(np.int64(2**31), "n")


@pytest.mark.parametrize("name, least, call", [
    ("batch_size", 0, lambda v: TrainConfig(batch_size=v)),
    ("moment order", 0, lambda v: analytic_raw_moment(NORMALS[0], v)),
    ("central moment order", 2, lambda v: analytic_central_moment(NORMALS[0], v)),
], ids=["train-batch-size", "analytic_raw_moment", "analytic_central_moment"])
def test_counts_with_another_least_value_are_checked_by_the_same_helper(name, least, call):
    # the analytic orders failed in range() on 2.5 and ran True as 1
    for value, message in ((2.5, "must be an integer, got 2.5"), (True, "must be an integer, got True"),
                           (least - 1, f"must be >= {least}")):
        with pytest.raises(ValueError) as info:
            call(value)
        assert str(info.value) == f"{name} {message}"
    call(least)
