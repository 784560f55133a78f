import numpy as np
import pytest

from momentalign.datasets import (
    ArtificialSpec,
    Sample,
    generate_artificial,
    load_dense_csv,
    load_sparse,
    one_hot,
    save_dense_csv,
    save_sparse,
    split,
)
from momentalign.numerics import SparseRowMatrix


def test_sample_basics():
    s = Sample(np.ones((4, 2)), one_hot(np.array([0, 1, 0, 1]), 2))
    assert s.n_rows == 4 and s.dim == 2 and s.n_classes == 2
    assert s.label_ints.tolist() == [0, 1, 0, 1]
    with pytest.raises(ValueError):
        Sample(np.ones((4, 2)), one_hot(np.array([0, 1]), 2))
    with pytest.raises(ValueError):
        Sample(np.ones(3)).label_ints
    # 1-D features are promoted to a column
    assert Sample(np.ones(3)).dim == 1


def test_one_hot():
    Y = one_hot(np.array([2, 0]), 3)
    assert np.array_equal(Y, [[0, 0, 1], [1, 0, 0]])
    with pytest.raises(ValueError):
        one_hot(np.array([3]), 3)
    with pytest.raises(ValueError):
        one_hot(np.array([-1]), 3)


def test_spec_validation():
    with pytest.raises(ValueError):
        ArtificialSpec(total=2)  # fewer samples than classes
    with pytest.raises(ValueError):
        ArtificialSpec(centers=((0, 0), (1, 1)))  # one per class
    with pytest.raises(ValueError):
        ArtificialSpec(spread=0.0)
    with pytest.raises(ValueError):
        ArtificialSpec(spread=(0.1, 0.2))  # needs one per class
    spec = ArtificialSpec(spread=(0.1, 0.2, 0.3))
    assert spec.spread == (0.1, 0.2, 0.3)


@pytest.mark.parametrize("key, value", [
    ("shift", (0.1, float("inf"))),
    ("shift", (-float("inf"), 0.0)),
    ("rotation_deg", float("inf")),
    ("rotation_deg", -float("inf")),
    ("spread", float("inf")),
    ("spread", (0.1, float("inf"), 0.3)),
    ("centers", ((0.0, 0.0), (1.0, 1.0), (-float("inf"), 0.0))),
])
def test_spec_rejects_non_finite_values(key, value):
    # an infinite shift or rotation made non-finite target data, which
    # trained to a false "diverged" or failed with a bare math domain error
    with pytest.raises(ValueError, match=f"^{key} must be finite"):
        ArtificialSpec.from_dict({key: value})


def test_spec_dict_round_trip():
    spec = ArtificialSpec(total=100, rotation_deg=10.0, shift=(1.0, 2.0), seed=4)
    assert ArtificialSpec.from_dict(spec.to_dict()) == spec
    with pytest.raises(ValueError):
        ArtificialSpec.from_dict({"rotation": 5})


def test_generate_artificial_shapes_and_determinism():
    spec = ArtificialSpec(total=64, seed=9)
    src, tgt = generate_artificial(spec)
    assert src.n_rows == tgt.n_rows == 64
    assert src.dim == tgt.dim == 2
    # class counts split 64 over 3 classes within one item
    counts = np.bincount(src.label_ints)
    assert sorted(counts.tolist()) == [21, 21, 22]
    src2, tgt2 = generate_artificial(spec)
    assert np.array_equal(src.features, src2.features)
    assert np.array_equal(tgt.features, tgt2.features)


def test_generate_artificial_source_target_independent():
    src, tgt = generate_artificial(ArtificialSpec(total=50, seed=1))
    assert not np.array_equal(src.features, tgt.features)


def test_identity_transform_with_shared_seed_is_bit_exact():
    spec = ArtificialSpec(total=30, rotation_deg=0.0, shift=(0.0, 0.0),
                          seed=3, target_seed=3)
    src, tgt = generate_artificial(spec)
    assert np.array_equal(src.features, tgt.features)
    assert np.array_equal(src.labels, tgt.labels)


def test_rotation_preserves_pairwise_distances():
    base = ArtificialSpec(total=40, rotation_deg=0.0, shift=(0.0, 0.0), seed=5)
    turned = ArtificialSpec(total=40, rotation_deg=90.0, shift=(0.0, 0.0), seed=5)
    _, t0 = generate_artificial(base)
    _, t1 = generate_artificial(turned)
    d0 = np.linalg.norm(t0.features[:, None] - t0.features[None, :], axis=2)
    d1 = np.linalg.norm(t1.features[:, None] - t1.features[None, :], axis=2)
    assert np.allclose(d0, d1)
    # rotation is about the cloud centroid: the centroid itself stays put
    assert np.allclose(t0.features.mean(axis=0), t1.features.mean(axis=0))


def test_shift_moves_centroid():
    a = ArtificialSpec(total=40, rotation_deg=0.0, shift=(0.0, 0.0), seed=5)
    b = ArtificialSpec(total=40, rotation_deg=0.0, shift=(2.0, -1.0), seed=5)
    _, ta = generate_artificial(a)
    _, tb = generate_artificial(b)
    assert np.allclose(tb.features, ta.features + [2.0, -1.0])


def test_dense_csv_round_trip(tmp_path):
    src, _ = generate_artificial(ArtificialSpec(total=20, seed=2))
    path = tmp_path / "data.csv"
    save_dense_csv(src, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "label,f1,f2"
    back = load_dense_csv(path)
    assert np.array_equal(back.features, src.features)
    assert np.array_equal(back.labels, src.labels)
    # unlabeled round trip
    save_dense_csv(Sample(src.features), path)
    assert load_dense_csv(path).labels is None
    assert path.read_text().splitlines()[0] == "f1,f2"


def test_dense_csv_headerless(tmp_path):
    path = tmp_path / "plain.csv"
    path.write_text("1.5,2.0\n-3.25,4e2\n")
    s = load_dense_csv(path)
    assert s.labels is None
    assert np.array_equal(s.features, [[1.5, 2.0], [-3.25, 400.0]])


def test_dense_csv_errors_carry_line_numbers(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("label,f1\n0,1.0\n1,2.0,3.0\n")
    with pytest.raises(ValueError, match="line 3"):
        load_dense_csv(path)
    path.write_text("label,f1\n0,abc\n")
    with pytest.raises(ValueError, match="line 2"):
        load_dense_csv(path)
    path.write_text("label,f1\nx,1.0\n")
    with pytest.raises(ValueError, match="label"):
        load_dense_csv(path)
    path.write_text("")
    with pytest.raises(ValueError, match="empty"):
        load_dense_csv(path)
    path.write_text("what,ever\n")
    with pytest.raises(ValueError, match="line 1"):
        load_dense_csv(path)
    for cell in ("nan", "-inf", "Infinity"):
        path.write_text(f"label,f1\n0,1.0\n1,{cell}\n")
        with pytest.raises(ValueError, match="line 3: non-finite"):
            load_dense_csv(path)


def test_sparse_round_trip(tmp_path):
    S = SparseRowMatrix.from_rows(
        [[(0, 1.5)], [(2, -2.0), (7, 0.25)], []], cols=9
    )
    sample = Sample(S, one_hot(np.array([0, 1, 1]), 2), 2)
    path = tmp_path / "data.sparse"
    save_sparse(sample, path)
    assert path.read_text().splitlines()[0] == "#dim 9"
    back = load_sparse(path)
    assert isinstance(back.features, SparseRowMatrix)
    assert np.array_equal(back.features.toarray(), S.toarray())
    assert np.array_equal(back.labels, sample.labels)


def test_sparse_loader_infers_dimension(tmp_path):
    path = tmp_path / "nodim.sparse"
    path.write_text("0 1:2.0 4:1.0\n1 0:1.0\n")
    s = load_sparse(path)
    assert s.dim == 5
    assert s.features.toarray()[0, 4] == 1.0


def test_sparse_loader_errors(tmp_path):
    path = tmp_path / "bad.sparse"
    path.write_text("0 3:1.0 2:1.0\n")
    with pytest.raises(ValueError, match="increasing"):
        load_sparse(path)
    path.write_text("#dim 3\n0 5:1.0\n")
    with pytest.raises(ValueError, match="exceeds"):
        load_sparse(path)
    path.write_text("0 oops\n")
    with pytest.raises(ValueError, match="malformed"):
        load_sparse(path)
    path.write_text("0 1:x\n")
    with pytest.raises(ValueError, match="malformed"):
        load_sparse(path)
    for header in ("#dim abc", "#dim", "#dim 3 4"):
        path.write_text(header + "\n0 1:1.0\n")
        with pytest.raises(ValueError, match="^line 1: malformed #dim line$"):
            load_sparse(path)
    path.write_text("0 1:1.0\n1 0:nan\n")
    with pytest.raises(ValueError, match="line 2: non-finite"):
        load_sparse(path)
    with pytest.raises(ValueError):
        save_sparse(Sample(np.ones((2, 2)), one_hot(np.array([0, 1]), 2)),
                    path)


def test_split_stratified():
    src, _ = generate_artificial(ArtificialSpec(total=90, seed=7))
    left, right = split(src, 2.0 / 3.0, seed=1)
    assert left.n_rows == 60 and right.n_rows == 30
    # class balance preserved within one item
    assert np.all(np.bincount(left.label_ints) == 20)
    # no overlap, union is everything (features are distinct points)
    all_rows = np.vstack([left.features, right.features])
    assert np.unique(all_rows, axis=0).shape[0] == 90
    # seeded determinism
    left2, _ = split(src, 2.0 / 3.0, seed=1)
    assert np.array_equal(left.features, left2.features)
    with pytest.raises(ValueError):
        split(src, 0.0, seed=1)


def test_split_unlabeled():
    s = Sample(np.arange(10.0)[:, None])
    left, right = split(s, 0.5, seed=0)
    assert left.n_rows == 5 and right.n_rows == 5
    assert left.labels is None
    with pytest.raises(ValueError):
        split(Sample(np.ones((2, 1))), 0.1, seed=0)  # empty side
