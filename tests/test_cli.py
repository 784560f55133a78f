import hashlib
import json
import os
import pathlib

import numpy as np
import pytest

from momentalign import trainer
from momentalign.cli import main
from momentalign.datasets import Sample, one_hot, save_sparse
from momentalign.network import NetworkParams

from helpers import bag_of_words


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_config(tmp_path, doc, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


SMALL_RUN = {
    "artificial": {"total": 60, "seed": 3},
    "train": {"hidden": 4, "epochs": 5, "seed": 3},
}


# ---------------------------------------------------------------------------
# gen-artificial
# ---------------------------------------------------------------------------


def test_gen_artificial_default_row_count(tmp_path, capsys):
    out = tmp_path / "data"
    code, _, _ = run(capsys, "gen-artificial", "--out", str(out))
    assert code == 0
    for name in ("source.csv", "target.csv"):
        lines = (out / name).read_text().splitlines()
        assert len(lines) == 640  # header + 639 rows
    spec = json.loads((out / "spec.json").read_text())
    assert spec["total"] == 639


def test_gen_artificial_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    run(capsys, "gen-artificial", "--out", str(a), "--samples", "50")
    run(capsys, "gen-artificial", "--out", str(b), "--samples", "50")
    assert (a / "source.csv").read_bytes() == (b / "source.csv").read_bytes()
    assert (a / "target.csv").read_bytes() == (b / "target.csv").read_bytes()


def test_gen_artificial_identity_transform_identical_files(tmp_path, capsys):
    out = tmp_path / "ident"
    code, _, _ = run(capsys, "gen-artificial", "--out", str(out),
                     "--samples", "45", "--rotation-deg", "0", "--shift", "0,0")
    assert code == 0
    assert (out / "source.csv").read_bytes() == (out / "target.csv").read_bytes()


def test_gen_artificial_too_few_samples(tmp_path, capsys):
    code, _, err = run(capsys, "gen-artificial", "--out", str(tmp_path / "x"),
                       "--samples", "2")
    assert code == 2
    assert "error:" in err


def test_gen_artificial_bad_shift(tmp_path, capsys):
    code, _, err = run(capsys, "gen-artificial", "--out", str(tmp_path / "x"),
                       "--shift", "1,2,3")
    assert code == 2
    assert "pair" in err


# ---------------------------------------------------------------------------
# distance
# ---------------------------------------------------------------------------


@pytest.fixture()
def two_point_files(tmp_path):
    src = tmp_path / "src.csv"
    tgt = tmp_path / "tgt.csv"
    src.write_text("f1\n0.0\n1.0\n")
    tgt.write_text("f1\n0.25\n0.75\n")
    return str(src), str(tgt)


def test_distance_cmd_two_point_fixture(two_point_files, capsys):
    src, tgt = two_point_files
    code, out, _ = run(capsys, "distance", "--metric", "cmd",
                       "--source", src, "--target", tgt, "--k", "5")
    assert code == 0
    doc = json.loads(out)
    assert doc["metric"] == "cmd"
    assert doc["value"] == 0.24609375
    assert doc["terms"] == [0.0, 0.1875, 0.0, 0.05859375, 0.0]


def test_distance_cmd_self_is_zero(two_point_files, capsys):
    src, _ = two_point_files
    code, out, _ = run(capsys, "distance", "--metric", "cmd",
                       "--source", src, "--target", src)
    assert code == 0
    assert json.loads(out)["value"] == 0.0


def test_distance_missing_parameter_flags(two_point_files, capsys):
    src, tgt = two_point_files
    for metric, missing in [("raw-ipm", "--k"), ("mmd-gauss", "--beta"),
                            ("mmd-poly", "--degree")]:
        code, _, err = run(capsys, "distance", "--metric", metric,
                           "--source", src, "--target", tgt)
        assert code == 2, metric
        assert missing.lstrip("-") in err


def test_distance_other_metrics_run(two_point_files, capsys):
    src, tgt = two_point_files
    for extra in (["--metric", "mmd-gauss", "--beta", "1.0"],
                  ["--metric", "mmd-poly", "--degree", "2"],
                  ["--metric", "coral"],
                  ["--metric", "raw-ipm", "--k", "2"]):
        code, out, _ = run(capsys, "distance", "--source", src,
                           "--target", tgt, *extra)
        assert code == 0
        assert json.loads(out)["value"] >= 0.0


@pytest.mark.parametrize("metric, flag", [
    ("cmd", ["--beta", "1.0"]), ("cmd", ["--degree", "2"]),
    ("mmd-gauss", ["--k", "3"]), ("mmd-gauss", ["--degree", "2"]),
    ("mmd-poly", ["--k", "3"]), ("mmd-poly", ["--beta", "1.0"]),
    ("coral", ["--k", "3"]), ("coral", ["--beta", "1.0"]), ("coral", ["--degree", "2"]),
    ("raw-ipm", ["--beta", "1.0"]), ("raw-ipm", ["--degree", "2"]),
], ids=lambda v: v if isinstance(v, str) else v[0].lstrip("-"))
def test_distance_rejects_flags_its_metric_does_not_read(two_point_files, capsys, metric, flag):
    # distance --metric coral --k 3 printed the coral value as if --k meant something
    src, tgt = two_point_files
    assert run(capsys, "distance", "--metric", metric, "--source", src, "--target", tgt,
               *flag) == (2, "", f"error: {metric} takes no {flag[0]}\n")


def test_label_only_dense_files_exit_2(tmp_path, capsys):
    # a header of "label" alone names no feature column: distance read
    # two such files as 0.0, and train trained a network with no inputs
    for name in ("src.csv", "tgt.csv"):
        (tmp_path / name).write_text("label\n0\n1\n")
    src, tgt = str(tmp_path / "src.csv"), str(tmp_path / "tgt.csv")
    message = "error: line 1: header names no feature column\n"
    assert run(capsys, "distance", "--metric", "cmd", "--source", src, "--target", tgt) == (
        2, "", message)
    doc = {"source": src, "target": tgt, "train": {"epochs": 1}, "out": str(tmp_path / "out")}
    assert run(capsys, "train", "--config", write_config(tmp_path, doc)) == (2, "", message)
    assert not (tmp_path / "out").exists()


def test_distance_missing_file(two_point_files, capsys):
    src, _ = two_point_files
    code, _, err = run(capsys, "distance", "--metric", "cmd",
                       "--source", src, "--target", "/nonexistent.csv")
    assert code == 2
    assert "error:" in err


def test_distance_sparse_format(tmp_path, capsys):
    src = tmp_path / "a.sparse"
    tgt = tmp_path / "b.sparse"
    src.write_text("#dim 2\n0 0:1.0\n0 1:1.0\n")
    tgt.write_text("#dim 2\n0 0:1.0\n0 1:1.0\n")
    code, out, _ = run(capsys, "distance", "--metric", "cmd", "--format",
                       "sparse", "--source", str(src), "--target", str(tgt))
    assert code == 0
    assert json.loads(out)["value"] == 0.0


@pytest.mark.parametrize("header", ["#dimension 2", "#dim 1_000"])
def test_distance_rejects_a_malformed_dim_header(tmp_path, capsys, header):
    src = tmp_path / "a.sparse"
    tgt = tmp_path / "b.sparse"
    src.write_text(f"{header}\n0 0:1.0\n0 1:1.0\n")
    tgt.write_text("#dim 2\n0 0:1.0\n0 1:1.0\n")
    code, out, err = run(capsys, "distance", "--metric", "cmd", "--format",
                         "sparse", "--source", str(src), "--target", str(tgt))
    assert code == 2
    assert out == "" and err == "error: line 1: malformed #dim line\n"


def test_distance_sparse_matches_dense_for_every_metric(tmp_path, capsys):
    rows = {"a": [[1.5, 0.0, -0.5, 0.0], [0.0, 2.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.25]],
            "b": [[0.5, 0.0, 0.0, 0.0], [0.0, -1.0, 0.0, 2.0], [0.0, 0.0, 1.25, 0.0]]}
    paths = {}
    for name, dense in rows.items():
        sparse = tmp_path / f"{name}.sparse"
        sparse.write_text("#dim 4\n" + "".join(
            "0 " + " ".join(f"{i}:{v!r}" for i, v in enumerate(r) if v) + "\n" for r in dense))
        csv = tmp_path / f"{name}.csv"
        csv.write_text("f1,f2,f3,f4\n" + "".join(",".join(map(repr, r)) + "\n" for r in dense))
        paths[name] = (str(sparse), str(csv))
    for extra in (["--metric", "raw-ipm", "--k", "2"],
                  ["--metric", "raw-ipm", "--k", "3"],
                  ["--metric", "mmd-poly", "--degree", "2"],
                  ["--metric", "mmd-gauss", "--beta", "1.0"],
                  ["--metric", "coral"],
                  ["--metric", "cmd"]):
        docs = []
        for fmt, col in (("sparse", 0), ("dense", 1)):
            code, out, err = run(capsys, "distance", "--format", fmt, "--source",
                                 paths["a"][col], "--target", paths["b"][col], *extra)
            assert code == 0, (extra, fmt, err)
            docs.append(json.loads(out))
        assert docs[0] == docs[1], extra
        assert docs[0]["value"] > 0.0, extra


@pytest.mark.parametrize("fmt, text, message", [
    ("dense", "label,f0,f1\n1_0,1_5.0,３\n", "line 2: label '1_0' is not an integer"),
    ("dense", "label,f0,f1\n1,1_5.0,３\n", "line 2: non-numeric cell '1_5.0'"),
    ("dense", "label,f0,f1\n1,1.0,３\n", "line 2: non-numeric cell '３'"),
    ("dense", "NaN,1\n", "line 1: non-finite cell 'NaN'"),
    ("dense", "label,f1\n0,1.0\n\n10000000000000,1.0\n",
     "line 4: class id 10000000000000 needs one-hot labels of over 2**27 cells"),
    ("dense", "label,f1\n0,1.0\n\n100000000000000000000,1.0\n",
     "line 4: class id 100000000000000000000 needs one-hot labels of over 2**27 cells"),
    ("sparse", "0 0:1.0\n\n10000000000000 0:1.0\n",
     "line 3: class id 10000000000000 needs one-hot labels of over 2**27 cells"),
    ("sparse", "0 0:1.0\n\n100000000000000000000 0:1.0\n",
     "line 3: class id 100000000000000000000 needs one-hot labels of over 2**27 cells"),
])
def test_distance_rejects_bad_cells_and_class_ids(tmp_path, capsys, fmt, text, message):
    # each used to load, or to end in a MemoryError or OverflowError traceback
    bad = tmp_path / "bad.data"
    bad.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, "distance", "--metric", "cmd", "--format", fmt,
                         "--source", str(bad), "--target", str(bad))
    assert code == 2
    assert out == "" and err == f"error: {message}\n"


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
def test_distance_rejects_non_finite_csv_cells(two_point_files, tmp_path, capsys, cell):
    src, _ = two_point_files
    bad = tmp_path / "bad.csv"
    bad.write_text(f"f1\n0.5\n{cell}\n")
    code, out, err = run(capsys, "distance", "--metric", "cmd",
                         "--source", src, "--target", str(bad))
    assert code == 2
    assert out == ""
    assert "line 3" in err and "non-finite" in err


@pytest.mark.parametrize("extra, target, message", [
    (["--metric", "raw-ipm", "--k", "2"], "narrow", "dimension mismatch"),
    (["--metric", "mmd-poly", "--degree", "2"], "narrow", "dimension mismatch"),
    (["--metric", "cmd", "--k", "0"], "wide", "k must be >= 1"),
    (["--metric", "raw-ipm", "--k", "0"], "wide", "k must be >= 1"),
    (["--metric", "mmd-poly", "--degree", "0"], "wide", "degree must be >= 1"),
    (["--metric", "mmd-poly", "--degree", "-1"], "wide", "degree must be >= 1"),
    (["--metric", "mmd-gauss", "--beta", "0"], "wide", "bandwidth must be positive"),
    (["--metric", "mmd-gauss", "--beta", "nan"], "wide", "bandwidth must be positive and finite"),
    (["--metric", "mmd-gauss", "--beta", "inf"], "wide", "bandwidth must be positive and finite"),
], ids=["raw-ipm-widths", "mmd-poly-widths", "cmd-k0", "raw-ipm-k0", "mmd-poly-degree0",
        "mmd-poly-degree-1", "mmd-gauss-beta0", "mmd-gauss-beta-nan", "mmd-gauss-beta-inf"])
def test_distance_rejects_bad_input(tmp_path, capsys, extra, target, message):
    wide = tmp_path / "wide.csv"
    wide.write_text("f1,f2,f3\n0.0,1.0,2.0\n1.0,0.5,0.25\n")
    narrow = tmp_path / "narrow.csv"
    narrow.write_text("f1\n0.25\n0.75\n")
    paths = {"wide": str(wide), "narrow": str(narrow)}
    code, out, err = run(capsys, "distance", "--source", str(wide),
                         "--target", paths[target], *extra)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


@pytest.mark.parametrize("metric", [["cmd"], ["raw-ipm", "--k", "2"], ["coral"],
                                    ["mmd-gauss", "--beta", "1"], ["mmd-poly", "--degree", "2"]],
                         ids=lambda metric: metric[0])
def test_distance_rejects_a_result_that_is_not_finite(tmp_path, capsys, recwarn, metric):
    # finite values whose moments and kernels overflow: every metric used
    # to exit 0, printing NaN or Infinity, or for mmd-poly a false 0.0
    src, tgt = tmp_path / "src.csv", tmp_path / "tgt.csv"
    src.write_text("f1,f2\n1e200,1\n-1e200,2\n3e199,0\n")
    tgt.write_text("f1,f2\n0.5,1\n0.1,2\n0.3,0\n")
    code, out, err = run(capsys, "distance", "--metric", *metric, "--source", str(src),
                         "--target", str(tgt))
    assert (code, out) == (2, "")
    assert err == f"error: {metric[0]} is not finite on these samples\n"
    assert not recwarn.list  # NumPy's overflow warnings would print before it


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


def test_train_writes_artifacts_and_is_deterministic(tmp_path, capsys):
    doc = dict(SMALL_RUN, out=str(tmp_path / "run1"))
    cfg = write_config(tmp_path, doc)
    assert run(capsys, "train", "--config", cfg)[0] == 0
    doc2 = dict(SMALL_RUN, out=str(tmp_path / "run2"))
    cfg2 = write_config(tmp_path, doc2, name="run2.json")
    assert run(capsys, "train", "--config", cfg2)[0] == 0

    m1 = (tmp_path / "run1" / "metrics.csv").read_bytes()
    m2 = (tmp_path / "run2" / "metrics.csv").read_bytes()
    assert m1 == m2
    report = json.loads((tmp_path / "run1" / "report.json").read_text())
    assert report["command"] == "train"
    assert report["diverged"] is False
    assert report["final"]["epoch"] == 5
    params = json.loads((tmp_path / "run1" / "params.json").read_text())
    assert np.asarray(params["W"]).shape == (4, 2)


def test_train_lambda_zero_vs_one_target_accuracy(tmp_path, capsys):
    # aligned run beats the plain baseline on the held-out domain
    doc = {
        "artificial": {"total": 150, "seed": 0},
        "train": {"hidden": 8, "epochs": 400, "seed": 0},
    }
    accs = {}
    for lam in ("0", "1"):
        doc_l = dict(doc, out=str(tmp_path / f"lam{lam}"))
        cfg = write_config(tmp_path, doc_l, name=f"run{lam}.json")
        code, _, _ = run(capsys, "train", "--config", cfg, "--lambda", lam)
        assert code == 0
        report = json.loads((tmp_path / f"lam{lam}" / "report.json").read_text())
        accs[lam] = report["final"]["target_acc"]
    assert accs["1"] > accs["0"]


def test_train_unknown_config_key(tmp_path, capsys):
    cfg = write_config(tmp_path, {"trian": {}})
    code, _, err = run(capsys, "train", "--config", cfg)
    assert code == 2
    assert "trian" in err


def test_train_unknown_train_key(tmp_path, capsys):
    cfg = write_config(tmp_path, {"train": {"momentum": 0.9}})
    code, _, err = run(capsys, "train", "--config", cfg)
    assert code == 2
    assert "momentum" in err


def test_train_source_without_target(tmp_path, capsys):
    cfg = write_config(tmp_path, {"source": "a.csv"})
    code, _, err = run(capsys, "train", "--config", cfg)
    assert code == 2
    assert "together" in err


def test_train_malformed_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "train", "--config", str(path))
    assert code == 2


def test_train_divergence_exit_code(tmp_path, capsys):
    doc = {
        "artificial": {"total": 30, "seed": 1},
        "train": {"hidden": 3, "epochs": 2, "optimizer": "sgd",
                  "alpha": 1e400, "lambda": 0.0, "seed": 1},
        "out": str(tmp_path / "div"),
    }
    cfg = write_config(tmp_path, doc)
    code, _, _ = run(capsys, "train", "--config", cfg)
    assert code == 3
    report = json.loads((tmp_path / "div" / "report.json").read_text())
    assert report["diverged"] is True
    assert report["final"] is None


def test_train_file_inputs(tmp_path, capsys):
    gen = tmp_path / "gen"
    run(capsys, "gen-artificial", "--out", str(gen), "--samples", "45")
    doc = {
        "source": str(gen / "source.csv"),
        "target": str(gen / "target.csv"),
        "train": {"hidden": 3, "epochs": 3, "seed": 0},
        "out": str(tmp_path / "filerun"),
    }
    cfg = write_config(tmp_path, doc)
    assert run(capsys, "train", "--config", cfg)[0] == 0
    lines = (tmp_path / "filerun" / "metrics.csv").read_text().splitlines()
    assert lines[0] == "epoch,loss,cmd,source_acc,target_acc"
    assert len(lines) == 4


def test_train_takes_an_unlabeled_target_file(tmp_path, capsys):
    gen = tmp_path / "gen"
    run(capsys, "gen-artificial", "--out", str(gen), "--samples", "45")
    rows = (gen / "target.csv").read_text().splitlines()[1:]
    (tmp_path / "unlabeled.csv").write_text("f1,f2\n" + "".join(r.split(",", 1)[1] + "\n" for r in rows))
    doc = {"source": str(gen / "source.csv"), "target": str(tmp_path / "unlabeled.csv"),
           "train": {"hidden": 3, "epochs": 2, "seed": 0}, "out": str(tmp_path / "out")}
    assert run(capsys, "train", "--config", write_config(tmp_path, doc))[0] == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["final"]["target_acc"] is None


@pytest.mark.parametrize("target_classes, code", [((0, 1), 0), ((0, 3), 2)],
                         ids=["without-the-top-class", "with-a-class-the-source-lacks"])
def test_train_checks_the_target_files_classes_against_the_sources(tmp_path, capsys,
                                                                    target_classes, code):
    # a file's labels have a column per class up to its largest id: a target
    # without the source's top class trains on the source's columns, and a
    # class the source lacks exits 2 before any epoch
    def rows(classes):
        return "".join(f"{c} {c}:1.0 4:{0.5 + r}\n" for r, c in enumerate(classes * 4))

    src, tgt = tmp_path / "src.sparse", tmp_path / "tgt.sparse"
    src.write_text("#dim 5\n" + rows((0, 1, 2)))
    tgt.write_text("#dim 5\n" + rows(target_classes))
    doc = {"source": str(src), "target": str(tgt), "format": "sparse",
           "train": {"hidden": 3, "epochs": 2, "seed": 0}, "out": str(tmp_path / "out")}
    got, _, err = run(capsys, "train", "--config", write_config(tmp_path, doc))
    assert got == code
    if code == 2:
        assert "target labels must have 3 columns, one per class" in err
        assert not (tmp_path / "out").exists()
    else:
        assert 0.0 <= json.loads((tmp_path / "out" / "report.json").read_text())["final"]["target_acc"] <= 1.0


@pytest.mark.parametrize("block, message", [
    ({"optimizer": "sgd", "alpha": -0.5}, "alpha"),
    ({"optimizer": "adagrad", "eps": -1.0}, "eps"),
    ({"optimizer": "adam"}, "adam"),
    ({"rho": 1.0}, "rho"),
], ids=["sgd-alpha-negative", "adagrad-eps-negative", "optimizer-adam", "rho-1"])
def test_train_rejects_schema_invalid_settings_before_loading(tmp_path, capsys, block, message):
    # the data files do not exist: the config must fail first
    doc = {"source": str(tmp_path / "missing-src.csv"),
           "target": str(tmp_path / "missing-tgt.csv"),
           "train": dict(block, epochs=5), "out": str(tmp_path / "out")}
    code, out, err = run(capsys, "train", "--config", write_config(tmp_path, doc))
    assert code == 2
    assert message in err and "missing" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("doc, message", [
    ({"train": {"epochs": "5"}}, "epochs must be an integer, got '5'"),
    ({"artificial": {"total": "60"}}, "total must be an integer, got '60'"),
    ({"train": {"hidden": 4.5}}, "hidden must be an integer, got 4.5"),
    ({"train": {"epochs": True}}, "epochs must be an integer, got True"),
    ({"train": {"lambda": "1"}}, "lambda must be a number, got '1'"),
    ({"train": {"optimizer": "sgd", "alpha": False}}, "alpha must be a number, got False"),
    ({"artificial": {"target_seed": 1.5}}, "target_seed must be an integer, got 1.5"),
    # classes 0 with as many centers ended in a ZeroDivisionError traceback
    ({"artificial": {"classes": 0, "centers": []}}, "classes must be >= 1"),
    ({"artificial": {"shift": [None, 0]}}, "shift must be a list of numbers, got [None, 0]"),
    ({"artificial": {"spread": "0.3"}},
     "spread must be a number or a list of numbers, got '0.3'"),
    ({"artificial": {"centers": 5}}, "centers must be a list of lists of numbers, got 5"),
    ({"out": 7}, "out must be a non-empty string, got 7"),
    ({"out": ""}, "out must be a non-empty string, got ''"),
    ({"source": 0, "target": 0}, "source must be a string or null, got 0"),
    ({"source": "s.csv", "target": ["t.csv"]}, "target must be a string or null, got ['t.csv']"),
], ids=["epochs-string", "total-string", "hidden-float", "epochs-bool", "lambda-string",
        "alpha-bool", "target-seed-float", "classes-zero", "shift-null-element", "spread-string",
        "centers-number", "out-number", "out-empty", "source-number", "target-list"])
def test_train_rejects_wrong_json_types(tmp_path, capsys, doc, message):
    doc = {"out": str(tmp_path / "out"), **doc}
    code, out, err = run(capsys, "train", "--config", write_config(tmp_path, doc))
    assert code == 2
    assert out == "" and err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["train", "warm-start", "sweep"])
@pytest.mark.parametrize("where", ["config", "train", "artificial"])
@pytest.mark.parametrize("value", [None, [], "x", 5, True],
                         ids=["null", "array", "string", "number", "boolean"])
def test_commands_reject_a_document_or_block_that_is_no_object(tmp_path, capsys, monkeypatch,
                                                               command, where, value):
    # null, number and boolean blocks raised TypeError, an array block
    # AttributeError; a string was read as a list of unknown keys
    monkeypatch.chdir(tmp_path)  # where the default out would go
    doc = value if where == "config" else {where: value}
    code, out, err = run(capsys, command, "--config", write_config(tmp_path, doc))
    assert (code, out, err) == (2, "", f"error: {where} must be a JSON object, got {value!r}\n")
    assert os.listdir(tmp_path) == ["run.json"]


@pytest.mark.parametrize("train, artificial, message", [
    ({"lambda": float("nan")}, {}, "NaN is not a JSON number"),
    ({"optimizer": "sgd", "alpha": float("nan")}, {}, "NaN is not a JSON number"),
    ({"warm_start_fraction": float("nan")}, {}, "NaN is not a JSON number"),
    ({"lambda": -float("inf")}, {}, "lambda must be >= 0"),
    ({"lambda": float("inf")}, {}, "lambda must be finite, got inf"),
    ({"rho": float("inf")}, {}, "rho must lie in [0, 1)"),
    ({}, {"shift": [float("inf"), 0]}, "shift must be finite, got (inf, 0.0)"),
    ({}, {"rotation_deg": float("inf")}, "rotation_deg must be finite, got inf"),
    ({}, {"spread": float("inf")}, "spread must be finite, got inf"),
    ({}, {"spread": [0.2, -float("inf"), 0.3]}, "spread must be finite, got (0.2, -inf, 0.3)"),
    ({}, {"centers": [[0, 0], [1, float("inf")], [2, 1]]},
     "centers must be finite, got ((0.0, 0.0), (1.0, inf), (2.0, 1.0))"),
], ids=["lambda-nan", "alpha-nan", "fraction-nan", "lambda--inf", "lambda-inf", "rho-inf",
        "shift-inf", "rotation-inf", "spread-inf", "spread-list-inf", "centers-inf"])
def test_train_rejects_non_finite_json_constants(tmp_path, capsys, train, artificial, message):
    # Python's json writes NaN and +-Infinity and reads them back. NaN fails
    # at the loader, since it passes every bound; the bounds judge the
    # infinities, and the artificial data must be finite.
    doc = dict(SMALL_RUN, train=dict(train, epochs=2), out=str(tmp_path / "out"))
    doc["artificial"] = dict(doc["artificial"], **artificial)
    path = write_config(tmp_path, doc)
    text = pathlib.Path(path).read_text()
    assert "NaN" in text or "Infinity" in text
    code, out, err = run(capsys, "train", "--config", path)
    assert code == 2
    assert out == "" and err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


BEYOND_FLOAT = 10**400  # a JSON integer whose float() overflows


@pytest.mark.parametrize("command, key", [("train", "lambda"), ("train", "spread"),
                                          ("sweep", "lambdas"), ("report-alignment", "W")])
def test_an_integer_beyond_the_float_range_exits_2_naming_its_key(tmp_path, capsys, command, key):
    # each ended in OverflowError with a traceback and exit 1
    out = tmp_path / "out"
    doc = dict(SMALL_RUN, out=str(out))
    if key == "lambda":
        doc["train"] = dict(doc["train"], **{"lambda": BEYOND_FLOAT})
    elif key == "spread":
        doc["artificial"] = dict(doc["artificial"], spread=BEYOND_FLOAT)
    else:
        doc.update(ks=[5], lambdas=[BEYOND_FLOAT])
    if command == "report-alignment":  # the data files do not exist: the params fail first
        params = write_config(tmp_path, {**PARAMS, "W": [[BEYOND_FLOAT, -0.5]]}, "params.json")
        argv = ["--params", params, "--source", str(tmp_path / "missing-src.csv"),
                "--target", str(tmp_path / "missing-tgt.csv")]
    else:
        argv = ["--config", write_config(tmp_path, doc)]
    code, stdout, err = run(capsys, command, *argv)
    assert (code, stdout) == (2, "")
    assert err.startswith(f"error: {key} must be ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("value", [2**31, 10**30], ids=["2**31", "10**30"])
@pytest.mark.parametrize("command, key", [("train", "k"), ("train", "epochs"), ("train", "hidden"),
                                          ("train", "batch_size"), ("train", "total"),
                                          ("check", "cases"), ("gen-artificial", "total")])
def test_a_count_above_the_ceiling_exits_2_naming_its_key(tmp_path, capsys, command, key, value):
    # k = 10**30 ended in OverflowError with a traceback, and hidden,
    # batch_size and total in NumPy's "Maximum allowed size exceeded"
    out = tmp_path / "out"
    if command == "check":
        argv = ["gradients", "--cases", str(value)]
    elif command == "gen-artificial":
        argv = ["--out", str(out), "--samples", str(value)]
    else:
        doc = dict(SMALL_RUN, out=str(out))
        block = "artificial" if key == "total" else "train"
        doc[block] = dict(doc[block], **{key: value})
        argv = ["--config", write_config(tmp_path, doc)]
    assert run(capsys, command, *argv) == (2, "", f"error: {key} must be <= 2147483647\n")
    assert not out.exists()


def test_an_integer_rotation_beyond_int64_trains(tmp_path, capsys):
    # np.isfinite met it in an object array and raised TypeError, exit 1
    doc = dict(SMALL_RUN, out=str(tmp_path / "out"))
    doc["artificial"] = dict(doc["artificial"], rotation_deg=10**30)
    assert run(capsys, "train", "--config", write_config(tmp_path, doc)) == (0, "", "")
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["config"]["artificial"]["rotation_deg"] == 10**30


def test_train_report_records_data_source(tmp_path, capsys):
    gen = tmp_path / "gen"
    run(capsys, "gen-artificial", "--out", str(gen), "--samples", "45")
    paths = {role: str(gen / f"{role}.csv") for role in ("source", "target")}
    doc = dict(paths, train={"hidden": 3, "epochs": 2, "seed": 0}, out=str(tmp_path / "files"))
    assert run(capsys, "train", "--config", write_config(tmp_path, doc))[0] == 0
    config = json.loads((tmp_path / "files" / "report.json").read_text())["config"]
    assert set(config) == {"train", "format", "source", "target"}
    assert config["format"] == "dense"
    for role, path in paths.items():
        digest = hashlib.sha256(pathlib.Path(path).read_bytes()).hexdigest()
        assert config[role] == {"path": path, "sha256": digest}

    doc = dict(SMALL_RUN, out=str(tmp_path / "generated"))
    assert run(capsys, "train", "--config", write_config(tmp_path, doc, "gen.json"))[0] == 0
    config = json.loads((tmp_path / "generated" / "report.json").read_text())["config"]
    assert set(config) == {"train", "artificial"}
    assert config["artificial"]["total"] == 60 and config["artificial"]["seed"] == 3


# ---------------------------------------------------------------------------
# warm-start
# ---------------------------------------------------------------------------


# sha256 of the files a 90-epoch warm-start writes on the default
# artificial problem: any change to the epoch loop that moves one bit of a
# record, a parameter or the report shows here
WARM_START_SHA256 = {
    0: {"metrics.csv": "450cd76c92501244320510cda3ed46d6d4bee8083a11d04c3b5297653a3a9d66",
        "metrics-shallow.csv": "cae648cb7ddf791bee62a3e239b7813e448d6ffb3792884acf8bdb178c78425a",
        "params.json": "10e8047f0f9c26b520903b59fe79252e95d83259c97422e73e3728de4848988d",
        "params-shallow.json": "5684131f1ee8617fd88031d57bc7a9317d50b3489b72630f78ec3bea6d5dae4e",
        "report.json": "fa4cc36471bab516409c39efec242ee986853d441fd9d37fe5502222461415b6"},
    1: {"metrics.csv": "f733bb9b6dc180438bb711b33a97a1e0d3d25d46bf2e7f4cc2d80d138a2df1fa",
        "metrics-shallow.csv": "f09592cc3c477b95858145f4b2aa87a4572153a2948d62efe94a39cb42b6cadd",
        "params.json": "963d8f3c2afbe3c79e70b884896aa5caae0bce8dcb6b3e5225182d7d33a5ee42",
        "params-shallow.json": "2b50d079bb31a2d5ee5b2b293dd05b4689046f94b4d0bb59542376674ab6a721",
        "report.json": "af7546fa243817ef8335145ae76d869df4fabe7e33f7093857a064c7064f3fe7"},
    2: {"metrics.csv": "c4686b8480139d03a15baabf5b0081ed54d9fc63fd9b0b98ed2504a6b085ca5f",
        "metrics-shallow.csv": "794bb12e5c3a9b4c37b003685e0aeb6f7510d0a880ddc926a73c87179e7a234b",
        "params.json": "8e23f8c39e0e417e83df1511a74069a02ab385cf2481c14fc66a3a14f38c33d9",
        "params-shallow.json": "1b5ffd1cd017689e1651c23a78ab373f858df0af4c9481be06e1c55c7f855f62",
        "report.json": "85198b66f24419841663151f9b31638cb5b6a30efc8d4a628b33af4b05c65559"},
}


@pytest.mark.parametrize("seed", sorted(WARM_START_SHA256))
def test_warm_start_writes_the_pinned_bytes(tmp_path, capsys, seed):
    out = tmp_path / "run"
    cfg = write_config(tmp_path, {"artificial": {"seed": seed},
                                  "train": {"seed": seed, "epochs": 90}, "out": str(out)})
    assert run(capsys, "warm-start", "--config", cfg)[0] == 0
    got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
           for name in WARM_START_SHA256[seed]}
    assert got == WARM_START_SHA256[seed]


# sha256 of metrics.csv and params.json of a sparse train (see below), per
# batch size: the sparse products, minibatch gathers and params writer
SPARSE_TRAIN_SHA256 = {
    8: {"metrics.csv": "93ecb369f6f09ab32381f46ab66045131ffde0a5d4bafcc8f80b2dcff8738c83",
        "params.json": "afd722c36d524ff1961b3238d6d88a282b7f8fed7b575de2dd719d4410bef305"},
    0: {"metrics.csv": "d37c9da5742fd49c9379bb522c0fc6e218791a529e606c7771ae029d714528a9",
        "params.json": "b1f6aaba24d4dca57d2f94007f2fe00d1a38ec4ab9b762a7a8831bc82582214f"},
}


@pytest.mark.parametrize("batch_size", sorted(SPARSE_TRAIN_SHA256))
def test_sparse_train_writes_the_pinned_bytes(tmp_path, capsys, batch_size):
    paths = [str(tmp_path / name) for name in ("source.txt", "target.txt")]
    for seed, rows, path in zip((1, 2), (40, 30), paths):
        S = bag_of_words(rows=rows, cols=300, per_row=8, seed=seed)
        save_sparse(Sample(S, one_hot(np.arange(rows) % 2, 2)), path)
    out = tmp_path / "run"
    cfg = write_config(tmp_path, {"source": paths[0], "target": paths[1], "format": "sparse",
                                  "train": {"hidden": 6, "epochs": 4, "batch_size": batch_size,
                                            "lambda": 1.0, "seed": 0},
                                  "out": str(out)})
    assert run(capsys, "train", "--config", cfg)[0] == 0
    got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
           for name in SPARSE_TRAIN_SHA256[batch_size]}
    assert got == SPARSE_TRAIN_SHA256[batch_size]


def test_warm_start_artifacts(tmp_path, capsys):
    doc = {
        "artificial": {"total": 60, "seed": 2},
        "train": {"hidden": 4, "epochs": 9, "seed": 2},
        "out": str(tmp_path / "ws"),
    }
    cfg = write_config(tmp_path, doc)
    assert run(capsys, "warm-start", "--config", cfg)[0] == 0
    out = tmp_path / "ws"
    for name in ("metrics.csv", "metrics-shallow.csv", "params.json",
                 "params-shallow.json", "report.json"):
        assert (out / name).exists(), name
    report = json.loads((out / "report.json").read_text())
    assert report["command"] == "warm-start"
    assert report["snapshot_epoch"] == 6
    for phase in ("shallow", "mann"):
        assert 0.0 <= report[phase]["source_acc"] <= 1.0
        assert report[phase]["significant"] >= 0
    shallow_lines = (out / "metrics-shallow.csv").read_text().splitlines()
    mann_lines = (out / "metrics.csv").read_text().splitlines()
    assert len(shallow_lines) == 10  # header + 9 epochs
    assert len(mann_lines) == 4      # header + epochs 7..9
    assert mann_lines[1].startswith("7,")


def test_warm_start_whose_shallow_run_diverges_writes_every_file(tmp_path, capsys):
    # an infinite SGD step leaves no finite epoch to record in either run
    doc = {"artificial": {"total": 60, "seed": 2},
           "train": {"hidden": 4, "epochs": 9, "seed": 2, "optimizer": "sgd", "alpha": float("inf")},
           "out": str(tmp_path / "ws")}
    assert run(capsys, "warm-start", "--config", write_config(tmp_path, doc)) == (3, "", "")
    out = tmp_path / "ws"
    assert sorted(os.listdir(out)) == ["metrics-shallow.csv", "metrics.csv", "params-shallow.json",
                                       "params.json", "report.json"]
    for name in ("metrics.csv", "metrics-shallow.csv"):
        assert (out / name).read_text() == "epoch,loss,cmd,source_acc,target_acc\n"
    report = json.loads((out / "report.json").read_text())
    assert report["command"] == "warm-start" and report["diverged"] is True


def test_warm_start_report_names_the_cause_of_its_divergence(tmp_path, capsys):
    # the first SGD step at an infinite rate leaves non-finite parameters;
    # the shallow run stops before its snapshot, so no aligned run starts
    doc = {"artificial": {"total": 60, "seed": 2},
           "train": {"hidden": 4, "epochs": 9, "seed": 2, "optimizer": "sgd", "alpha": float("inf")},
           "out": str(tmp_path / "ws")}
    assert run(capsys, "warm-start", "--config", write_config(tmp_path, doc)) == (3, "", "")
    report = json.loads((tmp_path / "ws" / "report.json").read_text())
    assert list(report)[:4] == ["command", "config", "diverged", "divergence"]
    assert report["divergence"] == {
        "metrics-shallow.csv": {"cause": "non-finite parameters", "epoch": 1, "batch": 0}}


def test_train_report_names_a_divergence_in_an_epochs_record(tmp_path, capsys, monkeypatch):
    # the record's checks follow the epoch's steps: no step index
    monkeypatch.setattr(trainer, "cross_entropy_loss", lambda *args: float("nan"))
    doc = dict(SMALL_RUN, out=str(tmp_path / "t"))
    assert run(capsys, "train", "--config", write_config(tmp_path, doc)) == (3, "", "")
    report = json.loads((tmp_path / "t" / "report.json").read_text())
    assert report["divergence"] == {
        "metrics.csv": {"cause": "non-finite loss or CMD", "epoch": 1, "batch": None}}
    monkeypatch.undo()
    doc["out"] = str(tmp_path / "ok")
    assert run(capsys, "train", "--config", write_config(tmp_path, doc))[0] == 0
    assert "divergence" not in json.loads((tmp_path / "ok" / "report.json").read_text())


@pytest.mark.parametrize("train", [{"epochs": 1}, {"epochs": 9, "warm_start_fraction": 1.0}])
def test_warm_start_without_an_aligned_epoch_exits_2_and_writes_nothing(tmp_path, capsys, train):
    out = tmp_path / "ws"
    doc = {"artificial": {"total": 30}, "train": dict(train, hidden=2), "out": str(out)}
    code, stdout, err = run(capsys, "warm-start", "--config", write_config(tmp_path, doc))
    assert (code, stdout) == (2, "")
    assert err.startswith("error: warm_start_fraction ") and err.count("\n") == 1
    assert "leaves the aligned run no epoch" in err and not out.exists()


def test_every_written_file_ends_in_one_line_feed(tmp_path, capsys):
    gen = tmp_path / "gen"
    assert run(capsys, "gen-artificial", "--out", str(gen), "--samples", "45")[0] == 0
    for command, extra in (("train", {}), ("warm-start", {}),
                           ("sweep", {"ks": [5], "lambdas": [1.0]})):
        out = tmp_path / command
        doc = dict(SMALL_RUN, out=str(out / "sweep.csv" if command == "sweep" else out), **extra)
        config = write_config(tmp_path, doc, f"{command}.json")
        os.makedirs(out)
        assert run(capsys, command, "--config", config)[0] == 0
    written = [path for path in tmp_path.rglob("*") if path.is_file() and path.parent != tmp_path]
    assert len(written) == 3 + 3 + 5 + 1
    for path in written:
        data = path.read_bytes()
        assert data.endswith(b"\n") and not data.endswith(b"\n\n"), path
        assert b"\r" not in data, path


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


def test_check_gradients_small(capsys):
    code, out, _ = run(capsys, "check", "gradients", "--cases", "4")
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 8  # loss + cmd atom per case
    assert all(r["passed"] for r in rows)
    assert all(set(r) == {"name", "lhs", "rhs", "slack", "passed"} for r in rows)


def test_check_prop_bound_small(capsys):
    code, out, _ = run(capsys, "check", "prop-bound", "--cases", "200")
    assert code == 0
    assert all(r["passed"] for r in json.loads(out))


def test_check_char_fct_small(capsys):
    code, out, _ = run(capsys, "check", "char-fct", "--cases", "10")
    assert code == 0


def test_check_dual_form_small(capsys):
    code, out, _ = run(capsys, "check", "dual-form", "--cases", "6")
    assert code == 0


@pytest.mark.parametrize("suite", ["gradients", "prop-bound", "char-fct", "dual-form"])
@pytest.mark.parametrize("cases", ["0", "-3"])
def test_check_rejects_fewer_than_one_case(capsys, suite, cases):
    # zero cases would be a green verdict over nothing
    assert run(capsys, "check", suite, "--cases", cases) == (2, "", "error: cases must be >= 1\n")


def test_check_appendix_a_takes_a_seed_but_no_cases(capsys):
    # its atoms are fixed fractions: --cases was ignored, --seed is passed
    # to every suite by callers that run them all
    assert run(capsys, "check", "appendix-a", "--cases", "3") == (
        2, "", "error: appendix-a takes no --cases\n")
    assert run(capsys, "check", "appendix-a", "--seed", "5")[0] == 1  # red by design


def test_check_unknown_suite(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", "nonsense"])
    assert exc.value.code == 2


# (exit code, sha256 of stdout) of each suite at seed 0 and its default cases
CHECK_SHA256 = {
    "appendix-a": (1, "4053a9a68dbecb7e71b17e153609243c562310f8a583e7abe5bbc68c088d0efd"),
    "gradients": (0, "341692fba490f7e94c7836a716aa6cc70e8e1ed9fcd5b93bfa65bd142841b2bd"),
    "prop-bound": (0, "62596478d5d881b2242f19eeb5f8e0ad74bc74092e41b4c8833ae59c892ea553"),
    "char-fct": (0, "759f9dc222fbc14628792b98f3eb3b6fe9621fbe697864f660c7cc19eddf8c05"),
    "dual-form": (0, "79da46f2df03132a3f1a26ec3ba2becf15e22cabd9bda3c660771f0999a09ace"),
}


@pytest.mark.parametrize("suite", sorted(CHECK_SHA256))
def test_check_suites_print_the_pinned_bytes(capsys, suite):
    code, out, err = run(capsys, "check", suite, "--seed", "0")
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == CHECK_SHA256[suite] and err == ""


# ---------------------------------------------------------------------------
# report-alignment
# ---------------------------------------------------------------------------


def test_report_alignment_self_zero(tmp_path, capsys):
    doc = dict(SMALL_RUN, out=str(tmp_path / "ra"))
    cfg = write_config(tmp_path, doc)
    run(capsys, "train", "--config", cfg)
    gen = tmp_path / "gen"
    run(capsys, "gen-artificial", "--out", str(gen), "--samples", "60")
    code, out, _ = run(capsys, "report-alignment",
                       "--params", str(tmp_path / "ra" / "params.json"),
                       "--source", str(gen / "source.csv"),
                       "--target", str(gen / "source.csv"))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "node,statistic,pvalue,significant"
    assert lines[-1] == "# significant 0"
    assert len(lines) == 6  # header + 4 nodes + summary
    assert all(line.endswith(",0") for line in lines[1:-1])


def test_report_alignment_rejects_non_finite_params(tmp_path, capsys):
    # a NaN in row 0 of W read as node 0 "not significant" with exit 0
    doc = dict(SMALL_RUN, out=str(tmp_path / "ra"))
    run(capsys, "train", "--config", write_config(tmp_path, doc))
    params = tmp_path / "ra" / "params.json"
    p = NetworkParams.from_json(params.read_text())
    p.W[0, 0] = np.nan
    params.write_text(p.to_json())
    gen = tmp_path / "gen"
    run(capsys, "gen-artificial", "--out", str(gen), "--samples", "60")
    code, out, err = run(capsys, "report-alignment", "--params", str(params),
                         "--source", str(gen / "source.csv"),
                         "--target", str(gen / "target.csv"))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "W must be finite" in err


PARAMS = {"W": [[0.5, -0.5]], "b": [0.0], "V": [[1.0], [-1.0]], "c": [0.0, 0.0]}
MALFORMED_PARAMS = [
    ([1, 2], "params must be a JSON object, got [1, 2]"),
    ({"b": [0.0]}, "params has no key 'W'"),
    ({**PARAMS, "bias": [0.0]}, "unknown params keys: ['bias']"),
    ({**PARAMS, "shapes": 5}, "shapes must be a JSON object, got 5"),
    ({**PARAMS, "shapes": {"hidden": 1, "depth": 2}}, "unknown shapes keys: ['depth']"),
    ({**PARAMS, "seed": "1"}, "seed must be an integer, got '1'"),
    ({**PARAMS, "W": [0.5, -0.5]}, "W must be a list of lists of numbers, got [0.5, -0.5]"),
    ({**PARAMS, "V": [1.0, -1.0]}, "V must be a list of lists of numbers, got [1.0, -1.0]"),
    ({**PARAMS, "W": []}, "W must be a 2-D array"),
    ({**PARAMS, "c": [[0.0, 0.0]]}, "c must be a list of numbers, got [[0.0, 0.0]]"),
    ({**PARAMS, "W": [[0.5, -0.5], [1.0]], "b": [0.0, 0.0]},
     "W must have rows of one length, got lengths [1, 2]"),
    ({**PARAMS, "V": [[1.0], []]}, "V must have rows of one length, got lengths [0, 1]"),
    ({**PARAMS, "shapes": {"hidden": True, "input": 2, "classes": 2}},
     "hidden must be an integer, got True"),
    ({**PARAMS, "shapes": {"hidden": 1, "input": 2.0, "classes": 2}},
     "input must be an integer, got 2.0"),
]


@pytest.mark.parametrize("doc, message", MALFORMED_PARAMS,
                         ids=["array", "no-W", "unknown-key", "shapes-number", "shapes-unknown-key",
                              "seed-string", "W-1-D", "V-1-D", "W-empty", "c-2-D",
                              "W-ragged", "V-ragged", "shapes-bool", "shapes-float"])
def test_report_alignment_rejects_malformed_params(tmp_path, capsys, doc, message):
    # an array, a missing W and a number for shapes raised TypeError,
    # KeyError and AttributeError; a 1-D W failed to unpack its shape;
    # a ragged W or V failed in numpy with a message that named no array;
    # a bool or a float in shapes passed as the integer it equals.
    # The data files do not exist: the params must fail first
    params = write_config(tmp_path, doc, "params.json")
    assert run(capsys, "report-alignment", "--params", params, "--source",
               str(tmp_path / "missing-src.csv"), "--target", str(tmp_path / "missing-tgt.csv")) == (
        2, "", f"error: {message}\n")


def test_report_alignment_missing_params(tmp_path, capsys):
    code, _, err = run(capsys, "report-alignment",
                       "--params", str(tmp_path / "nope.json"),
                       "--source", "x", "--target", "y")
    assert code == 2


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def test_sweep_single_cell(tmp_path, capsys):
    out_csv = tmp_path / "sweep.csv"
    doc = {
        "artificial": {"total": 45, "seed": 3},
        "train": {"hidden": 3, "epochs": 3, "k": 5, "seed": 3},
        "ks": [5],
        "lambdas": [1.0],
        "out": str(out_csv),
    }
    cfg = write_config(tmp_path, doc)
    assert run(capsys, "sweep", "--config", cfg)[0] == 0
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "k,lambda,accuracy,ratio"
    assert len(lines) == 2
    assert float(lines[1].split(",")[3]) == pytest.approx(1.0)


def test_sweep_grid_rows(tmp_path, capsys):
    out_csv = tmp_path / "sweep.csv"
    doc = {
        "artificial": {"total": 45, "seed": 3},
        "train": {"hidden": 3, "epochs": 2, "k": 2, "seed": 3},
        "ks": [1, 2, 3],
        "lambdas": [0.5, 1.0],
        "out": str(out_csv),
    }
    cfg = write_config(tmp_path, doc)
    assert run(capsys, "sweep", "--config", cfg)[0] == 0
    assert len(out_csv.read_text().splitlines()) == 7  # header + 3*2 cells


def test_sweep_empty_grid(tmp_path, capsys):
    doc = {"artificial": {"total": 45}, "ks": [], "lambdas": [],
           "out": str(tmp_path / "s.csv")}
    cfg = write_config(tmp_path, doc)
    code, _, err = run(capsys, "sweep", "--config", cfg)
    assert code == 2


@pytest.mark.parametrize("doc, message", [
    ({"ks": [5, 2.7]}, "ks must be a non-empty list of integers >= 1, got [5, 2.7]"),
    ({"ks": [5, True]}, "ks must be a non-empty list of integers >= 1, got [5, True]"),
    ({"ks": 5}, "ks must be a non-empty list of integers >= 1, got 5"),
    ({"ks": [0]}, "ks must be a non-empty list of integers >= 1, got [0]"),
    ({"ks": []}, "ks must be a non-empty list of integers >= 1, got []"),
    ({"lambdas": [True]}, "lambdas must be a non-empty list of numbers >= 0, got [True]"),
    ({"lambdas": ["1"]}, "lambdas must be a non-empty list of numbers >= 0, got ['1']"),
    ({"lambdas": [1.0, -0.5]}, "lambdas must be a non-empty list of numbers >= 0, got [1.0, -0.5]"),
    ({"out": 1}, "out must be a non-empty string, got 1"),
    ({"out": ""}, "out must be a non-empty string, got ''"),
    ({"source": 0}, "source must be a string or null, got 0"),
], ids=["ks-float", "ks-bool", "ks-number", "ks-zero", "ks-empty", "lambdas-bool",
        "lambdas-string", "lambdas-negative", "out-number", "out-empty", "source-number"])
def test_sweep_rejects_wrong_json_types(tmp_path, capsys, doc, message):
    # the data files do not exist: the config must fail first
    doc = {"source": str(tmp_path / "missing-src.csv"), "target": str(tmp_path / "missing-tgt.csv"),
           "ks": [5], "lambdas": [1.0], "out": str(tmp_path / "s.csv"), **doc}
    code, out, err = run(capsys, "sweep", "--config", write_config(tmp_path, doc))
    assert code == 2
    assert out == "" and err == f"error: {message}\n"
    assert not (tmp_path / "s.csv").exists()


def test_sweep_without_out_writes_sweep_csv_in_the_working_directory(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    doc = {"artificial": {"total": 45, "seed": 3},
           "train": {"hidden": 3, "epochs": 2, "seed": 3}, "ks": [5], "lambdas": [1.0]}
    assert run(capsys, "sweep", "--config", write_config(tmp_path, doc)) == (0, "", "")
    assert sorted(os.listdir(tmp_path)) == ["run.json", "sweep.csv"]
    assert (tmp_path / "sweep.csv").read_text().splitlines()[0] == "k,lambda,accuracy,ratio"


def test_sweep_unknown_key(tmp_path, capsys):
    doc = {"kays": [1]}
    cfg = write_config(tmp_path, doc)
    code, _, err = run(capsys, "sweep", "--config", cfg)
    assert code == 2
    assert "kays" in err


# ---------------------------------------------------------------------------
# module entry point
# ---------------------------------------------------------------------------


def run_module(*argv):
    """python -m momentalign in a new interpreter."""
    import subprocess
    import sys

    import momentalign

    # the package's source directory, which pytest's pythonpath setting
    # puts on sys.path of this process only
    package_root = os.path.dirname(os.path.dirname(momentalign.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [package_root] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, "-m", "momentalign", *argv],
                          capture_output=True, text=True, env=env)


def test_module_entry_point(two_point_files):
    src, tgt = two_point_files
    proc = run_module("distance", "--metric", "cmd", "--source", src, "--target", tgt)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["metric"] == "cmd"


def test_module_entry_point_exits_2_on_malformed_documents(tmp_path):
    # both raised past main() with a traceback and exit 1
    config = write_config(tmp_path, {"train": None, "out": str(tmp_path / "out")})
    proc = run_module("train", "--config", config)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        2, "", "error: train must be a JSON object, got None\n")
    assert not (tmp_path / "out").exists()
    params = write_config(tmp_path, [1, 2], "params.json")
    proc = run_module("report-alignment", "--params", params, "--source", "x", "--target", "y")
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        2, "", "error: params must be a JSON object, got [1, 2]\n")
    assert "Traceback" not in proc.stderr
