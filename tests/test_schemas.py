import json
import pathlib

import pytest

jsonschema = pytest.importorskip("jsonschema")
import referencing
import referencing.jsonschema

import momentalign
from momentalign.cli import main
from momentalign.datasets import ArtificialSpec
from momentalign.distances import cmd_estimate
from momentalign.network import init_params
from momentalign.numerics import SeededRng
from momentalign.trainer import TrainConfig
from momentalign.verify import check_gradients

SCHEMA_DIR = pathlib.Path(momentalign.__file__).parent / "schemas"
NAMES = [
    "distance-report",
    "bound-checks",
    "artificial-spec",
    "run-config",
    "sweep-config",
    "run-report",
    "params",
]


def load_schemas():
    docs = {}
    for name in NAMES:
        docs[name] = json.loads((SCHEMA_DIR / f"{name}.schema.json").read_text())
    return docs


def registry(docs):
    resources = [
        (doc["$id"], referencing.Resource.from_contents(doc))
        for doc in docs.values()
    ]
    return referencing.Registry().with_resources(resources)


@pytest.fixture(scope="module")
def validators():
    docs = load_schemas()
    reg = registry(docs)
    return {
        name: jsonschema.Draft202012Validator(doc, registry=reg)
        for name, doc in docs.items()
    }


def test_all_schema_files_ship_and_are_valid():
    docs = load_schemas()
    assert len(docs) == 7
    for name, doc in docs.items():
        jsonschema.Draft202012Validator.check_schema(doc)
        assert doc["$id"] == f"momentalign/{name}"


def test_distance_report_instances(validators):
    v = validators["distance-report"]
    v.validate(cmd_estimate([[0.0], [1.0]], [[0.25], [0.75]]).to_dict())
    with pytest.raises(jsonschema.ValidationError):
        v.validate({"metric": "cmd", "value": -1.0, "terms": []})
    with pytest.raises(jsonschema.ValidationError):
        v.validate({"metric": "cmd", "value": 1.0, "terms": [], "extra": 1})


def test_distance_cli_output_validates(validators, tmp_path, capsys):
    src = tmp_path / "a.csv"
    src.write_text("f1\n0.0\n1.0\n")
    assert main(["distance", "--metric", "cmd", "--source", str(src),
                 "--target", str(src)]) == 0
    out = capsys.readouterr().out
    validators["distance-report"].validate(json.loads(out))


def test_bound_checks_instances(validators):
    v = validators["bound-checks"]
    rows = [r.to_dict() for r in check_gradients(cases=2)]
    v.validate(rows)
    with pytest.raises(jsonschema.ValidationError):
        v.validate([{"name": "x", "lhs": 0, "rhs": 1, "slack": 1}])


def test_artificial_spec_instances(validators):
    v = validators["artificial-spec"]
    v.validate(ArtificialSpec().to_dict())
    v.validate(ArtificialSpec(spread=(0.1, 0.2, 0.3)).to_dict())
    with pytest.raises(jsonschema.ValidationError):
        v.validate({"spread": 0.0})
    with pytest.raises(jsonschema.ValidationError):
        v.validate({"total": 0})
    with pytest.raises(jsonschema.ValidationError):
        v.validate({"blobs": 3})


SCHEMA_INVALID_ARTIFICIAL_BLOCKS = [
    ({"shift": [None, 0]}, "shift"),
    ({"shift": ["0.1", 0]}, "shift"),
    ({"spread": "0.3"}, "spread"),
    ({"spread": None}, "spread"),
    ({"spread": [0.1, True, 0.3]}, "spread"),
    ({"centers": 5}, "centers"),
    ({"centers": [[0, 0], [1, None], [2, 1]]}, "centers"),
]


@pytest.mark.parametrize("block, key", SCHEMA_INVALID_ARTIFICIAL_BLOCKS,
                         ids=lambda b: json.dumps(b))
def test_schema_invalid_artificial_block_is_rejected_by_spec(validators, block, key):
    with pytest.raises(jsonschema.ValidationError):
        validators["artificial-spec"].validate(block)
    with pytest.raises(ValueError, match=f"^{key} must be"):
        ArtificialSpec.from_dict(block)


def integer_minimums():
    """(settings class, key, minimum) of every integer property with a
    minimum in the artificial block and the train block."""
    docs = load_schemas()
    blocks = ((ArtificialSpec, docs["artificial-spec"]), (TrainConfig, docs["run-config"]["$defs"]["train"]))
    return [(cls, key, prop["minimum"]) for cls, schema in blocks
            for key, prop in schema["properties"].items()
            if prop.get("type") == "integer" and "minimum" in prop]


@pytest.mark.parametrize("cls, key, minimum", integer_minimums(),
                         ids=lambda v: getattr(v, "__name__", str(v)))
def test_integer_minimums_of_the_schemas_are_checked_by_the_settings(cls, key, minimum):
    # ArtificialSpec did not name total 0 ("need at least one sample per
    # class") or classes 0 (with as many centers, a ZeroDivisionError)
    with pytest.raises(ValueError, match=f"^{key} must be >= {minimum}$"):
        cls.from_dict({key: minimum - 1})


def test_every_integer_minimum_is_covered():
    assert {key for _, key, _ in integer_minimums()} == {
        "total", "classes", "hidden", "k", "epochs", "batch_size"}


def integer_maximums():
    """(settings class, key, maximum or None) of every integer property with
    a minimum, a count, in the artificial block and the train block."""
    docs = load_schemas()
    blocks = ((ArtificialSpec, docs["artificial-spec"]), (TrainConfig, docs["run-config"]["$defs"]["train"]))
    return [(cls, key, prop.get("maximum")) for cls, schema in blocks
            for key, prop in schema["properties"].items()
            if prop.get("type") == "integer" and "minimum" in prop]


@pytest.mark.parametrize("cls, key, maximum", integer_maximums(),
                         ids=lambda v: getattr(v, "__name__", str(v)))
def test_integer_maximums_of_the_schemas_are_checked_by_the_settings(cls, key, maximum):
    # above it k ended in OverflowError, and hidden, batch_size and total
    # in NumPy's "Maximum allowed size exceeded", which names no key
    with pytest.raises(ValueError, match=f"^{key} must be <= {maximum}$"):
        cls.from_dict({key: maximum + 1})


def test_every_integer_maximum_is_covered():
    # every count is bounded above by the one ceiling, the sweep's ks items too
    ks = load_schemas()["sweep-config"]["properties"]["ks"]["items"]
    assert {m for *_, m in integer_maximums()} == {ks.get("maximum")} == {2**31 - 1}


def test_run_config_instances(validators):
    v = validators["run-config"]
    v.validate({
        "train": {"hidden": 8, "lambda": 1.0, "optimizer": "adadelta"},
        "artificial": {"total": 100},
        "out": "results",
    })
    v.validate({"source": "a.csv", "target": "b.csv", "format": "sparse"})
    with pytest.raises(jsonschema.ValidationError):
        v.validate({"train": {"momentum": 0.9}})
    with pytest.raises(jsonschema.ValidationError):
        v.validate({"train": {"optimizer": "adam"}})
    with pytest.raises(jsonschema.ValidationError):
        v.validate({"format": "parquet"})


SCHEMA_INVALID_TRAIN_BLOCKS = [
    {"optimizer": "adam"},
    {"alpha": -0.5},
    {"alpha": 0.0},
    {"eps": -1.0},
    {"eps": 0.0},
    {"rho": 1.0},
    {"rho": -0.1},
    {"hidden": 0},
    {"k": 0},
    {"lambda": -1.0},
    {"epochs": 0},
    {"batch_size": -1},
    {"warm_start_fraction": 1.5},
    {"momentum": 0.9},
    {"epochs": "5"},
    {"hidden": 4.5},
    {"epochs": True},
    {"lambda": "1"},
    {"alpha": False},
    {"seed": None},
]


@pytest.mark.parametrize("block", SCHEMA_INVALID_TRAIN_BLOCKS, ids=lambda b: json.dumps(b))
def test_schema_invalid_train_block_is_rejected_by_train_config(validators, block):
    with pytest.raises(jsonschema.ValidationError):
        validators["run-config"].validate({"train": block})
    with pytest.raises(ValueError):
        TrainConfig.from_dict(block)


@pytest.mark.parametrize("block", [
    {"optimizer": "sgd", "alpha": float("inf")},  # the bound admits inf
    {"optimizer": "adagrad", "alpha": 0.5, "eps": 1e-12},
    {"rho": 0.0, "alpha": None, "eps": None},
])
def test_schema_valid_train_block_is_accepted_by_train_config(validators, block):
    validators["run-config"].validate({"train": block})
    assert TrainConfig.from_dict(block).to_dict() == dict(TrainConfig().to_dict(), **block)


def test_sweep_config_instances(validators):
    v = validators["sweep-config"]
    v.validate({
        "train": {"k": 3},
        "artificial": {"total": 60},
        "ks": [1, 3, 5],
        "lambdas": [0.0, 1.0],
        "out": "sweep.csv",
    })
    with pytest.raises(jsonschema.ValidationError):
        v.validate({"lambdas": [1.0]})  # ks missing
    with pytest.raises(jsonschema.ValidationError):
        v.validate({"ks": [], "lambdas": [1.0]})


def test_run_report_instances(validators, tmp_path, capsys):
    doc = {
        "artificial": {"total": 60, "seed": 3},
        "train": {"hidden": 4, "epochs": 4, "seed": 3},
        "out": str(tmp_path / "t"),
    }
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(doc))
    assert main(["train", "--config", str(cfg)]) == 0
    capsys.readouterr()
    report = json.loads((tmp_path / "t" / "report.json").read_text())
    validators["run-report"].validate(report)
    validators["params"].validate(json.loads((tmp_path / "t" / "params.json").read_text()))

    doc["out"] = str(tmp_path / "w")
    cfg.write_text(json.dumps(doc))
    assert main(["warm-start", "--config", str(cfg)]) == 0
    capsys.readouterr()
    ws_report = json.loads((tmp_path / "w" / "report.json").read_text())
    validators["run-report"].validate(ws_report)
    for name in ("params.json", "params-shallow.json"):
        validators["params"].validate(json.loads((tmp_path / "w" / name).read_text()))

    with pytest.raises(jsonschema.ValidationError):
        validators["run-report"].validate({"command": "train"})


def test_run_report_divergence_instances(validators, tmp_path, capsys):
    # an infinite SGD rate diverges at the first step of both commands
    v = validators["run-report"]
    doc = {"artificial": {"total": 60, "seed": 2},
           "train": {"hidden": 4, "epochs": 9, "seed": 2, "optimizer": "sgd", "alpha": float("inf")}}
    cfg = tmp_path / "run.json"
    reports = []
    for command, out in (("train", "t"), ("warm-start", "w")):
        cfg.write_text(json.dumps(dict(doc, out=str(tmp_path / out))))
        assert main([command, "--config", str(cfg)]) == 3
        reports.append(json.loads((tmp_path / out / "report.json").read_text()))
    capsys.readouterr()
    train, warm = reports
    cause = {"cause": "non-finite parameters", "epoch": 1, "batch": 0}
    assert train["divergence"] == {"metrics.csv": cause}
    assert warm["divergence"] == {"metrics-shallow.csv": cause}
    for report in reports:
        v.validate(report)
        for name in report["divergence"]:
            v.validate(dict(report, divergence={name: dict(cause, batch=None)}))  # the record's
    for bad in (
        dict(train, divergence={"metrics-shallow.csv": cause}),  # no such file for train
        dict(warm, divergence={"params.json": cause}),
        dict(train, divergence={}),
        {key: val for key, val in train.items() if key != "divergence"},
        dict(train, diverged=False),
        dict(train, divergence={"metrics.csv": dict(cause, cause="overflow")}),
        dict(train, divergence={"metrics.csv": dict(cause, epoch=0)}),
        dict(train, divergence={"metrics.csv": dict(cause, batch=-1)}),
        dict(train, divergence={"metrics.csv": {"cause": cause["cause"], "epoch": 1}}),
        dict(train, divergence={"metrics.csv": dict(cause, step=0)}),
    ):
        with pytest.raises(jsonschema.ValidationError):
            v.validate(bad)


def test_run_report_config_records_generated_or_file_data(validators, tmp_path, capsys):
    gen = tmp_path / "gen"
    assert main(["gen-artificial", "--out", str(gen), "--samples", "30"]) == 0
    doc = {"source": str(gen / "source.csv"), "target": str(gen / "target.csv"),
           "train": {"hidden": 3, "epochs": 2, "seed": 1}, "out": str(tmp_path / "f")}
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(doc))
    assert main(["train", "--config", str(cfg)]) == 0
    capsys.readouterr()
    report = json.loads((tmp_path / "f" / "report.json").read_text())
    v = validators["run-report"]
    v.validate(report)
    files = report["config"]

    generated = {"train": files["train"], "artificial": ArtificialSpec().to_dict()}
    v.validate(dict(report, config=generated))
    for bad in (
        dict(generated, format="dense"),  # both shapes at once
        dict(files, artificial=ArtificialSpec().to_dict()),
        {key: val for key, val in files.items() if key != "format"},
        dict(files, format="parquet"),
        dict(files, source=dict(files["source"], sha256="abc")),
        dict(files, target={"path": files["target"]["path"]}),
        {"artificial": generated["artificial"]},  # train missing
    ):
        with pytest.raises(jsonschema.ValidationError):
            v.validate(dict(report, config=bad))


def test_params_instances(validators):
    v = validators["params"]
    params = json.loads(init_params(3, 4, 2, SeededRng(5)).to_json())
    v.validate(params)
    arrays = {key: params[key] for key in ("W", "b", "V", "c")}
    v.validate(dict(arrays, shapes={}, seed=None))
    for bad in (
        {key: val for key, val in arrays.items() if key != "V"},
        dict(params, bias=[0.0]),
        dict(params, W=[]),
        dict(params, W=params["b"]),
        dict(params, c=[[0.0, 0.0]]),
        dict(params, b=[True] * len(params["b"])),
        dict(params, seed="3"),
        dict(params, shapes={"hidden": 4}),
        dict(params, shapes=dict(params["shapes"], depth=2)),
    ):
        with pytest.raises(jsonschema.ValidationError):
            v.validate(bad)
