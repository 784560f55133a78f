import pathlib
import re
import sys
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentalign import datasets
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

from helpers import (
    bag_of_words,
    load_sparse_per_token,
    save_dense_csv_per_value,
    save_sparse_per_value,
    traced_peak,
)


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


def test_sample_rejects_labels_beside_another_class_count():
    # three label columns beside n_classes = 5 used to keep n_classes at 5
    with pytest.raises(ValueError, match="^labels must have 5 columns, one per class$"):
        Sample(np.ones((4, 2)), one_hot(np.array([0, 1, 2, 0]), 3), 5)
    with pytest.raises(ValueError, match="^labels do not align with features$"):
        Sample(np.ones((4, 2)), one_hot(np.array([0, 1]), 2))
    assert Sample(np.ones((4, 2)), one_hot(np.array([0, 1, 2, 0]), 3), 3).n_classes == 3


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
    path.write_text(" label\t\n0\n")  # rows of a label and no feature
    with pytest.raises(ValueError, match="^line 1: header names no feature column$"):
        load_dense_csv(path)
    for cell in ("nan", "-inf", "Infinity"):
        path.write_text(f"label,f1\n0,1.0\n1,{cell}\n")
        with pytest.raises(ValueError, match="line 3: non-finite"):
            load_dense_csv(path)
    # a headerless first line is data: it used to be an unrecognized header
    path.write_text("NaN,1\n")
    with pytest.raises(ValueError, match="^line 1: non-finite cell 'NaN'$"):
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


# both zeros, subnormals, the edges of repr's fixed and exponent forms
# (1e16 and 1e-05) and any other finite value
WRITTEN = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3, 1e16, 1e-05,
                     -1e16, -1e-05, 9999999999999998.0, 0.0001]),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True, max_value=1e-300,
              min_value=-1e-300),
)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_writers_write_the_per_value_writers_bytes(tmp_path_factory, data):
    rows, cols = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 6))
    classes = data.draw(st.integers(1, 12))
    labels = one_hot(np.array(data.draw(st.lists(st.integers(0, classes - 1),
                                                  min_size=rows, max_size=rows))), classes)
    pattern = [[c for c in range(cols) if data.draw(st.booleans())] for _ in range(rows)]
    S = SparseRowMatrix.from_rows([[(c, data.draw(WRITTEN)) for c in row] for row in pattern],
                                  cols)
    dense = np.array([[data.draw(WRITTEN) for _ in range(cols)] for _ in range(rows)])
    where = tmp_path_factory.mktemp("writers")
    for write, want, sample in ((save_sparse, save_sparse_per_value, Sample(S, labels)),
                                (save_dense_csv, save_dense_csv_per_value, Sample(dense, labels)),
                                (save_dense_csv, save_dense_csv_per_value, Sample(dense))):
        write(sample, where / "got")
        want(sample, where / "want")
        assert (where / "got").read_bytes() == (where / "want").read_bytes()


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_writers_refuse_what_their_loaders_refuse(tmp_path, value):
    labels = one_hot(np.array([0, 1]), 2)
    S = SparseRowMatrix.from_rows([[(0, 1.0)], [(0, value), (1, 2.0)]], 2)
    dense = np.array([[1.0, 2.0], [value, 1.0]])
    for write, sample in ((save_sparse, Sample(S, labels)), (save_dense_csv, Sample(dense, labels)),
                          (save_dense_csv, Sample(dense))):
        path = tmp_path / "out"
        with pytest.raises(ValueError, match="^features must be finite, got a non-finite value$"):
            write(sample, path)
        assert not path.exists()


def test_sparse_loader_infers_dimension(tmp_path):
    path = tmp_path / "nodim.sparse"
    path.write_text("0 1:2.0 4:1.0\n1 0:1.0\n")
    s = load_sparse(path)
    assert s.dim == 5
    assert s.features.toarray()[0, 4] == 1.0
    path.write_text("0 2147483646:1.5\n")  # the widest a file may be
    assert load_sparse(path).dim == 2147483647


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
    for header in ("#dim abc", "#dim", "#dim 3 4", "#dimension 4", "#dim 1_000", "#dim +3"):
        path.write_text(header + "\n0 1:1.0\n")
        with pytest.raises(ValueError, match="^line 1: malformed #dim line$"):
            load_sparse(path)
    path.write_text("0 1:1.0\n1 0:nan\n")
    with pytest.raises(ValueError, match="line 2: non-finite"):
        load_sparse(path)
    with pytest.raises(ValueError):
        save_sparse(Sample(np.ones((2, 2)), one_hot(np.array([0, 1]), 2)),
                    path)


def test_loaders_name_the_line_of_a_negative_class(tmp_path):
    path = tmp_path / "neg.sparse"
    path.write_text("0 1:1.0\n\n-1 0:1.0\n-2 0:1.0\n")
    with pytest.raises(ValueError, match="^line 3: negative class id -1$"):
        load_sparse(path)
    path = tmp_path / "neg.csv"
    path.write_text("label,f1\n0,1.0\n\n-1,2.0\n-2,2.0\n")
    with pytest.raises(ValueError, match="^line 4: negative class id -1$"):
        load_dense_csv(path)


def same_sample(a, b) -> bool:
    S, T = a.features, b.features
    return (S.shape == T.shape and a.n_classes == b.n_classes
            and all(getattr(S, n).dtype == getattr(T, n).dtype
                    and getattr(S, n).tobytes() == getattr(T, n).tobytes()
                    for n in ("indptr", "indices", "data"))
            and a.labels.tobytes() == b.labels.tobytes())


def outcome(load, path):
    try:
        return load(path)
    except ValueError as exc:
        return str(exc)


# -0.0, subnormals, huge and tiny exponents, and 17-digit mantissas, each
# written in a few of the forms float() reads
VALUES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1.7976931348623157e308]),
    st.integers(-2**52, 2**52).map(lambda i: i * 2.0**-42),
)
FORMS = st.sampled_from([repr, "{:.17g}".format, "{:.17e}".format, "{:.25E}".format,
                         "{:+.3f}".format, "{:.0f}".format, lambda v: repr(v).lstrip("0")])
BLANK = st.sampled_from(["", " ", "\t", " \t "])
SEP = st.sampled_from([" ", "\t", "  ", " \t"])


@st.composite
def sparse_files(draw):
    """The text of a valid sparse file: an optional #dim header, rows of
    strictly increasing indices (some with leading zeros), blank lines,
    and space or tab separators."""
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        if draw(st.booleans()) and draw(st.booleans()):
            rows.append(draw(BLANK))
            continue
        cols = sorted(draw(st.sets(st.integers(0, 40), max_size=8)))
        toks = [draw(st.sampled_from(["0", "1", "2", "+1", "03"]))]
        for c in cols:
            idx = draw(st.sampled_from([str(c), f"{c:03d}"]))
            value = draw(VALUES)
            text = draw(FORMS)(value)
            if value == int(value) and abs(value) < 1e15:
                text = draw(st.sampled_from([text, str(int(value))]))
            toks.append(f"{idx}:{text}")
        seps = [draw(SEP) for _ in toks]
        rows.append(draw(BLANK) + "".join(t + sep for t, sep in zip(toks, seps)).rstrip(" \t")
                    + draw(BLANK))
    header = draw(st.sampled_from([[], ["#dim 41"], ["#dim\t50 "]]))
    return "\n".join(header + rows) + draw(st.sampled_from(["", "\n"]))


@settings(max_examples=300, deadline=None)
@given(sparse_files())
def test_sparse_loader_equals_the_per_token_loader_bitwise(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("files") / "data.sparse"
    path.write_text(text)
    want, got = outcome(load_sparse_per_token, path), outcome(load_sparse, path)
    if isinstance(want, str):
        assert got == want
    else:
        assert same_sample(got, want)


@pytest.mark.parametrize("text, message", [
    ("0 3:1.0 2:1.0\n", "line 1: indices not strictly increasing"),
    ("0 1:1.0 1:2.0\n", "line 1: indices not strictly increasing"),
    ("#dim 3\n0 5:1.0\n", "line 2: index 5 exceeds declared dimension"),
    ("0 2:1.0 9007199254740993:1.0\n", "line 1: index 9007199254740993 exceeds the largest dimension"),
    ("0 oops\n", "line 1: malformed token 'oops'"),
    ("0 1:x\n", "line 1: malformed token '1:x'"),
    ("0 1:\n", "line 1: malformed token '1:'"),
    ("0 :1.0\n", "line 1: malformed token ':1.0'"),
    ("0 1:2:3\n", "line 1: malformed token '1:2:3'"),
    ("0 1:0x1p3\n", "line 1: malformed token '1:0x1p3'"),
    ("x 1:1.0\n", "line 1: label 'x' is not an integer"),
    ("1.5 1:1.0\n", "line 1: label '1.5' is not an integer"),
    ("0 1:1.0\n1 0:nan\n", "line 2: non-finite value in token '0:nan'"),
    ("0 1:-Infinity\n", "line 1: non-finite value in token '1:-Infinity'"),
    ("0 1:1e999\n", "line 1: non-finite value in token '1:1e999'"),
    ("0 1:1\n\n\t\n0 2:x\n", "line 4: malformed token '2:x'"),
    ("0 1:nan\n0 oops\n", "line 1: non-finite value in token '1:nan'"),
    ("0 oops\n0 1:nan\n", "line 1: malformed token 'oops'"),
    ("-1 1:1\n0 x\n", "line 2: malformed token 'x'"),
    ("0 1:1.0\n-1 0:1.0\n", "line 2: negative class id -1"),
    ("#dim abc\n0 1:1\n", "line 1: malformed #dim line"),
    ("#dimension 4\n0 1:1\n", "line 1: malformed #dim line"),
    ("#dim 0\n0 1:1\n", "line 1: dimension must lie between 1 and 2147483647"),
    ("#dim 9007199254740993\n0 1:1\n", "line 1: dimension must lie between 1 and 2147483647"),
    # train loaded it, then exited 2 with "input_dim must be <= 2147483647"
    ("#dim 3000000000\n0 1:1\n", "line 1: dimension must lie between 1 and 2147483647"),
    ("0 2147483647:1.0\n", "line 1: index 2147483647 exceeds the largest dimension"),
    ("#dim 2147483647\n0 2147483647:1.0\n", "line 2: index 2147483647 exceeds declared dimension"),
    ("", "file contains no data rows"),
    ("#dim 4\n \n\n", "file contains no data rows"),
    ("0\n1\n", "cannot infer dimension from an all-empty file"),
])
def test_both_sparse_loaders_raise_the_same_message(tmp_path, text, message):
    path = tmp_path / "bad.sparse"
    path.write_text(text)
    for load in (load_sparse, load_sparse_per_token):
        with pytest.raises(ValueError) as exc:
            load(path)
        assert str(exc.value) == message, load.__name__


@pytest.mark.parametrize("line, message", [
    ("0 +3:1.0", "malformed token '+3:1.0'"),
    ("0 3:1_0.5", "malformed token '3:1_0.5'"),
    ("1_0 3:1.0", "label '1_0' is not an integer"),
    ("０ 3:1.0", "label '０' is not an integer"),
    ("0 3:１", "malformed token '3:１'"),
    ("0 3:1.0\u20034:1.0", "malformed token " + repr("3:1.0\u20034:1.0")),
    ("0 3:1.0\xa04:1.0", "malformed token " + repr("3:1.0\xa04:1.0")),
])
def test_sparse_grammar_is_stricter_than_int_and_float(tmp_path, line, message):
    # digits are ASCII, an index has no sign, a number no underscore, and
    # only spaces and tabs separate tokens; the per-token loader takes each
    path = tmp_path / "strict.sparse"
    path.write_text(f"0 1:1.0\n{line}\n", encoding="utf-8")
    load_sparse_per_token(path)
    with pytest.raises(ValueError, match=f"^line 2: {re.escape(message)}$"):
        load_sparse(path)


@pytest.mark.parametrize("line, message", [
    ("０,1.0", "label '０' is not an integer"),
    ("0,1.0\xa0", "non-numeric cell " + repr("1.0\xa0")),
    ("0,\u20031.0", "non-numeric cell " + repr("\u20031.0")),
    ("0,1.0\x0c2.0", "non-numeric cell " + repr("1.0\x0c2.0")),
    ("0,1.0\x1c2.0", "non-numeric cell " + repr("1.0\x1c2.0")),
])
def test_dense_grammar_is_stricter_than_int_and_float(tmp_path, line, message):
    # a dense cell, stripped of spaces and tabs, reads as the sparse grammar
    # reads a label or a value, and only LF, CR LF and CR end a line;
    # int(), float() and str.splitlines() take each of these
    label, cell = line.split(",")
    int(label), [float(c) for c in cell.splitlines()]
    path = tmp_path / "strict.csv"
    path.write_text(f"label,f0\n0, 1.0\t\n{line}\n", encoding="utf-8")
    with pytest.raises(ValueError, match=f"^line 3: {re.escape(message)}$"):
        load_dense_csv(path)


@pytest.mark.parametrize("fmt", ["dense", "sparse"])
@pytest.mark.parametrize("label, message", [
    ("1" + "0" * 400, "class id 1" + "0" * 400 + " needs one-hot labels of over 2**27 cells"),
    ("123456789012345678901", "class id 123456789012345678901 needs one-hot labels of over 2**27 cells"),
    ("-" + "9" * 400, "negative class id -" + "9" * 400),
])
def test_loaders_quote_a_class_id_as_the_file_holds_it(tmp_path, fmt, label, message):
    # read as a float, the first id was quoted as inf and the second as
    # 123456789012345683968
    path = tmp_path / "ids.data"
    if fmt == "dense":
        path.write_text(f"label,f1\n0,1.0\n\n {label}\t,2.0\n")
        load = load_dense_csv
    else:
        path.write_text(f"0 0:1.0\n\n\t{label}  0:2.0\n")
        load = load_sparse
    lineno = 4 if fmt == "dense" else 3
    with pytest.raises(ValueError, match=f"^line {lineno}: {re.escape(message)}$"):
        load(path)


def test_one_hot_cell_bound_is_inclusive(tmp_path, monkeypatch):
    # three rows of ids up to 3 fill 12 cells
    monkeypatch.setattr(datasets, "_ONE_HOT_CELLS", 12)
    path = tmp_path / "ids.csv"
    path.write_text("label,f1\n0,1.0\n3,2.0\n1,3.0\n")
    assert load_dense_csv(path).n_classes == 4
    path.write_text("label,f1\n0,1.0\n4,2.0\n1,3.0\n")
    with pytest.raises(ValueError, match="^line 3: class id 4 needs"):
        load_dense_csv(path)


def test_loader_patterns_compile_on_first_use():
    # a compiled pattern at import costs every command its memory, and most
    # commands read no file
    assert not [name for name, v in vars(datasets).items() if isinstance(v, re.Pattern)]


def test_sparse_loader_memory_on_a_bag_of_words(tmp_path):
    # 1000 x 5000 with about 56k stored values: a Python tuple, int and
    # float per token read 9.5 MiB
    S = bag_of_words()
    path = tmp_path / "bow.sparse"
    save_sparse(Sample(S, one_hot(np.arange(S.rows) % 3, 3), 3), path)
    back, peak = traced_peak(load_sparse, path)
    assert np.array_equal(back.features.data, S.data)
    assert peak <= 6 * 2**20, f"{peak / 2**20:.2f} MiB"


SPARSE_GEN = pathlib.Path(__file__).resolve().parents[1] / "bench" / "sparse_gen.py"


def test_sparse_loader_reads_back_the_benchmark_domains(tmp_path, monkeypatch):
    # bench/sparse_gen.py, compiled from its text, writes the seed-0
    # domains of the sparse-minibatch workload (1000 documents over 5000
    # words, 60 tokens a document) with save_sparse
    gen = types.ModuleType("bench_sparse_gen")
    monkeypatch.setitem(sys.modules, gen.__name__, gen)  # its dataclass looks itself up
    exec(compile(SPARSE_GEN.read_text(), str(SPARSE_GEN), "exec"), gen.__dict__)
    for i, domain in enumerate(gen.two_domains(0, 1000, 5000, 60)):
        path = tmp_path / f"domain{i}.txt"
        domain.save(path)
        back = load_sparse(path)
        S = back.features
        assert S.shape == (len(domain.indptr) - 1, domain.vocab)
        for name in ("indptr", "indices", "data"):
            want = getattr(domain, name)
            assert getattr(S, name).dtype == want.dtype and getattr(S, name).tobytes() == want.tobytes()
        assert back.labels.tobytes() == domain.one_hot().tobytes() and back.n_classes == 2


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


# (labeled, seed, fraction) -> the row indices of the left and right sides
# of a 13-row sample with class counts 6, 4 and 3; 0.5 of 13 rows rounds
# half to even, to 6. An unlabeled sample is split as one class.
SPLIT_CLASSES = [0, 1, 2, 0, 1, 0, 0, 2, 1, 0, 2, 1, 0]
SPLIT_ROWS = {
    (True, 0, 0.3): ([2, 4, 6, 5], [8, 10, 1, 12, 11, 7, 0, 9, 3]),
    (True, 0, 0.5): ([2, 4, 6, 8, 5, 12], [10, 1, 11, 7, 0, 9, 3]),
    (True, 0, 2 / 3): ([2, 4, 6, 8, 5, 10, 1, 12, 0], [11, 7, 9, 3]),
    (True, 1, 0.3): ([8, 10, 3, 12], [4, 7, 0, 11, 1, 5, 9, 6, 2]),
    (True, 1, 0.5): ([8, 10, 4, 3, 12, 0], [7, 11, 1, 5, 9, 6, 2]),
    (True, 1, 2 / 3): ([8, 10, 4, 3, 12, 7, 0, 11, 5], [1, 9, 6, 2]),
    (True, 7, 0.3): ([1, 10, 5, 0], [8, 7, 9, 4, 6, 3, 2, 12, 11]),
    (True, 7, 0.5): ([1, 10, 8, 5, 0, 9], [7, 4, 6, 3, 2, 12, 11]),
    (True, 7, 2 / 3): ([1, 10, 8, 5, 7, 0, 9, 4, 6], [3, 2, 12, 11]),
    (False, 0, 0.3): ([2, 4, 6, 8], [5, 10, 1, 12, 11, 7, 0, 9, 3]),
    (False, 0, 0.5): ([2, 4, 6, 8, 5, 10], [1, 12, 11, 7, 0, 9, 3]),
    (False, 0, 2 / 3): ([2, 4, 6, 8, 5, 10, 1, 12, 11], [7, 0, 9, 3]),
    (False, 1, 0.3): ([8, 10, 4, 3], [12, 7, 0, 11, 1, 5, 9, 6, 2]),
    (False, 1, 0.5): ([8, 10, 4, 3, 12, 7], [0, 11, 1, 5, 9, 6, 2]),
    (False, 1, 2 / 3): ([8, 10, 4, 3, 12, 7, 0, 11, 1], [5, 9, 6, 2]),
    (False, 7, 0.3): ([1, 10, 8, 5], [7, 0, 9, 4, 6, 3, 2, 12, 11]),
    (False, 7, 0.5): ([1, 10, 8, 5, 7, 0], [9, 4, 6, 3, 2, 12, 11]),
    (False, 7, 2 / 3): ([1, 10, 8, 5, 7, 0, 9, 4, 6], [3, 2, 12, 11]),
}


@pytest.mark.parametrize("labeled, seed, fraction", SPLIT_ROWS)
def test_split_keeps_its_pinned_rows(labeled, seed, fraction):
    # the features are the row indices, so each side's features name its rows
    X = np.arange(13.0)[:, None]
    sample = Sample(X, one_hot(SPLIT_CLASSES, 3), 3) if labeled else Sample(X)
    left, right = split(sample, fraction, seed)
    got = tuple(side.features[:, 0].astype(int).tolist() for side in (left, right))
    assert got == SPLIT_ROWS[labeled, seed, fraction]
    for side in (left, right):
        if labeled:
            assert side.label_ints.tolist() == [SPLIT_CLASSES[i] for i in side.features[:, 0].astype(int)]
        else:
            assert side.labels is None
