import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentalign.numerics import SeededRng, SparseRowMatrix


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


def test_sparse_validation():
    with pytest.raises(ValueError):
        SparseRowMatrix(2, 3, [0, 1], [0], [1.0])  # indptr too short
    with pytest.raises(ValueError):
        SparseRowMatrix.from_rows([[(1, 1.0), (1, 2.0)]], cols=3)  # not increasing
    with pytest.raises(ValueError):
        SparseRowMatrix.from_rows([[(5, 1.0)]], cols=3)  # out of range


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
