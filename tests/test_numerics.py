import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentalign import numerics
from momentalign.numerics import SeededRng, SparseRowMatrix, stream_words, word_uniforms

from helpers import bag_of_words


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


def test_sparse_products_match_dense():
    S = small_sparse()
    D = np.arange(12, dtype=float).reshape(3, 4)
    dense = S.toarray()
    assert np.allclose(S.dot_dense(D), dense @ D)
    R = np.arange(6, dtype=float).reshape(3, 2)
    assert np.allclose(S.t_dot_dense(R), dense.T @ R)


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


# signed values from 1e-300 to 1e300, including both zeros; products of
# the extremes overflow to inf and their sums may be nan
SIGNED = st.one_of(
    st.sampled_from([0.0, -0.0, 1e300, -1e300, 1e-300, -1e-300, 5e-324, -5e-324]),
    st.floats(-1e3, 1e3),
    st.integers(-2**52, 2**52).map(lambda i: i * 2.0**-42),  # full mantissas: order shows
    st.builds(lambda magnitude, sign: sign * magnitude,
              st.floats(1e290, 1e308) | st.floats(1e-308, 1e-290), st.sampled_from([-1.0, 1.0])),
)


@st.composite
def csr_matrices(draw):
    """A SparseRowMatrix of 0-8 rows and 1-8 columns: empty rows, rows
    with every column set, and the all-empty and 0-row cases."""
    rows, cols = draw(st.integers(0, 8)), draw(st.integers(1, 8))
    pattern = [draw(st.lists(st.booleans(), min_size=cols, max_size=cols)) for _ in range(rows)]
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
        assert S.t_dot_dense(R).tobytes() == add_at_t_dot(S, R).tobytes()


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
        got = S.t_dot_dense(R)
        assert got.tobytes() == add_at_t_dot(S, R).tobytes()
        assert got.T.flags.c_contiguous  # the (k, cols) array a gradient takes as is


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
    assert S.t_dot_dense(R).tobytes() == add_at_t_dot(S, R).tobytes()


@pytest.mark.parametrize("product", ["dot_dense", "t_dot_dense"])
def test_sparse_product_memory_is_its_output_and_a_few_blocks(product):
    # the products built every term at once, 43-45 MiB at this shape: 1000 x
    # 5000 with about 56k stored values (the paper's sentiment inputs), k = 50
    S = bag_of_words()
    D = SeededRng(5).normal_matrix(S.cols if product == "dot_dense" else S.rows, 50)
    tracemalloc.start()
    try:
        out = getattr(S, product)(D)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - out.nbytes <= 4 * 2**20, f"{peak / 2**20:.2f} MiB, output {out.nbytes / 2**20:.2f}"


def test_sparse_products_keep_signed_zeros_as_add_at():
    # 0.0 + -0.0 is 0.0: a row of -0.0 terms sums to +0.0 in both kernels
    S = SparseRowMatrix.from_rows([[(0, -0.0)], [], [(0, 1.0), (1, -1.0)]], cols=2)
    D = np.array([[1.0, -0.0], [1.0, 0.0]])
    out = S.dot_dense(D)
    assert out.tobytes() == add_at_dot(S, D).tobytes()
    assert not np.signbit(out).any()
    assert S.t_dot_dense(D[[0, 1, 0]]).tobytes() == add_at_t_dot(S, D[[0, 1, 0]]).tobytes()


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
    out = np.full((4, cols), np.nan).T
    assert S.t_dot_dense(R, out) is out
    assert out.tobytes() == want.tobytes() == S.t_dot_dense(R).tobytes()
    with pytest.raises(ValueError, match="wrong shape"):
        S.t_dot_dense(R, np.empty((cols, 3)))


def test_sparse_products_reject_non_matrix_operands():
    S = small_sparse()
    for D in (np.ones(3), np.ones((3, 2, 1)), np.ones((4, 2))):
        with pytest.raises(ValueError, match="dimension mismatch"):
            S.dot_dense(D)
        with pytest.raises(ValueError, match="dimension mismatch"):
            S.t_dot_dense(D)


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
