"""Command-line surface: dataset generation, distances, training,
verifier suites, alignment reports, and sensitivity sweeps.

Exit codes: 0 success, 1 verifier failure, 2 usage or config error,
3 numerical divergence.  Every subcommand is a deterministic function
of its flags and config file; all randomness flows from config seeds.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from .analysis import alignment_report, sensitivity_sweep, sweep_grid, write_sweep_csv
from .datasets import (
    ArtificialSpec,
    Sample,
    generate_artificial,
    load_dense_csv,
    load_sparse,
    one_hot,
    save_dense_csv,
)
from .distances import (
    CmdConfig,
    DistanceReport,
    cmd_estimate,
    coral_distance,
    mmd_gaussian_estimate,
    mmd_polynomial_estimate,
    raw_moment_ipm_estimate,
)
from .network import NetworkParams
from .numerics import json_object
from .trainer import TrainConfig, train, warm_start_train, write_metrics_csv
from .verify import CHECKS

USAGE_ERROR = 2
DIVERGED = 3


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Run configuration
# ---------------------------------------------------------------------------

_RUN_KEYS = ("train", "artificial", "source", "target", "format", "out")


def _parse_constant(name):
    # NaN passes every bound check; the bounds judge the infinities
    if name == "NaN":
        raise ValueError("NaN is not a JSON number")
    return float(name)


def _load_json(path):
    with open(path, "r") as fh:
        return json.load(fh, parse_constant=_parse_constant)


def _load_pair(source, target, fmt: str) -> tuple[Sample, Sample]:
    """The source and target samples of two files in format fmt.  Target
    labels that lack the source's top classes get the source's columns;
    train rejects a target class the source does not have."""
    load = load_sparse if fmt == "sparse" else load_dense_csv
    src, tgt = load(source), load(target)
    if tgt.labels is not None and tgt.n_classes < src.n_classes:
        tgt = Sample(tgt.features, one_hot(tgt.label_ints, src.n_classes), src.n_classes)
    return src, tgt


class RunConfig:
    """Top-level JSON document: a "train" block, either file paths or an
    "artificial" spec for the data, and an output path, out by default.
    Every field has a default; a key outside keys is a hard error."""

    def __init__(self, doc: dict, keys=_RUN_KEYS, out: str = "run-out"):
        json_object(doc, keys, "config")
        self.train = TrainConfig.from_dict(doc.get("train", {}))
        self.artificial = ArtificialSpec.from_dict(doc.get("artificial", {}))
        self.source = doc.get("source")
        self.target = doc.get("target")
        for key in ("source", "target"):
            if not isinstance(doc.get(key), (str, type(None))):
                raise ConfigError(f"{key} must be a string or null, got {doc[key]!r}")
        self.format = doc.get("format", "dense")
        self.out = doc.get("out", out)
        if not isinstance(self.out, str) or not self.out:
            raise ConfigError(f"out must be a non-empty string, got {self.out!r}")
        if self.format not in ("dense", "sparse"):
            raise ConfigError(f"unknown format {self.format!r}")
        if (self.source is None) != (self.target is None):
            raise ConfigError("source and target files must be given together")

    def load_pair(self) -> tuple[Sample, Sample]:
        """The source and target samples: generated, or read by _load_pair."""
        if self.source is None:
            return generate_artificial(self.artificial)
        return _load_pair(self.source, self.target, self.format)

    def report_config(self) -> dict:
        """The "config" block of report.json: the train settings and the
        data used, either the artificial spec or the file format with each
        file's path and the sha256 of its bytes."""
        if self.source is None:
            return {"train": self.train.to_dict(), "artificial": self.artificial.to_dict()}
        return {
            "train": self.train.to_dict(),
            "format": self.format,
            "source": _file_record(self.source),
            "target": _file_record(self.target),
        }


def _file_record(path) -> dict:
    # imported here: hashlib loads OpenSSL, about 3.5 MiB resident, which
    # runs on generated data never need
    import hashlib

    with open(path, "rb") as fh:
        return {"path": path, "sha256": hashlib.sha256(fh.read()).hexdigest()}


def _write_json(path, obj) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(json.dumps(obj, indent=2) + "\n")


def _write_params(path, params: NetworkParams) -> None:
    """params.json, written piece by piece, one row of W at a time: no copy
    of the whole text.  The rows of W are encoded by orjson, imported at
    the first write."""
    with open(path, "w", newline="\n") as fh:
        fh.writelines(params.json_pieces())
        fh.write("\n")


def _write_run(cfg: RunConfig, command: str, runs: dict, report: dict) -> int:
    """Write the run directory cfg.out: metrics<suffix>.csv and
    params<suffix>.json of each TrainResult in runs, keyed by suffix, and
    report.json with the command, the config and whether any run diverged;
    if one did, the cause, epoch and batch of each diverged run, keyed by
    its metrics file; then report's own keys.  The exit code: DIVERGED if
    one did, else 0."""
    os.makedirs(cfg.out, exist_ok=True)
    divergence = {}
    for suffix, result in runs.items():
        metrics = f"metrics{suffix}.csv"
        write_metrics_csv(result.records, os.path.join(cfg.out, metrics))
        _write_params(os.path.join(cfg.out, f"params{suffix}.json"), result.params)
        if result.diverged:
            divergence[metrics] = {"cause": result.cause, "epoch": result.cause_epoch,
                                   "batch": result.cause_batch}
    head = {"command": command, "config": cfg.report_config(), "diverged": bool(divergence)}
    if divergence:
        head["divergence"] = divergence
    _write_json(os.path.join(cfg.out, "report.json"), {**head, **report})
    return DIVERGED if divergence else 0


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_gen_artificial(args) -> int:
    # one seed covers both domains so a zero transform provably writes
    # identical files; the domain gap comes from the transform alone
    spec = ArtificialSpec(
        total=args.samples,
        rotation_deg=args.rotation_deg,
        shift=_parse_pair(args.shift),
        seed=args.seed,
        target_seed=args.seed,
    )
    src, tgt = generate_artificial(spec)
    os.makedirs(args.out, exist_ok=True)
    save_dense_csv(src, os.path.join(args.out, "source.csv"))
    save_dense_csv(tgt, os.path.join(args.out, "target.csv"))
    _write_json(os.path.join(args.out, "spec.json"), spec.to_dict())
    return 0


def _parse_pair(text: str) -> tuple:
    parts = text.split(",")
    if len(parts) != 2:
        raise ConfigError(f"expected X,Y pair, got {text!r}")
    return (float(parts[0]), float(parts[1]))


# --metric -> (library function, the flag of its one setting, that flag's
# default (None: the flag is required), report name; "{}" takes the setting)
METRICS = {
    "cmd": (lambda s, t, k: cmd_estimate(s, t, CmdConfig(k=k)), "k", CmdConfig().k, "cmd"),
    "mmd-gauss": (mmd_gaussian_estimate, "beta", None, "mmd-gauss"),
    "mmd-poly": (mmd_polynomial_estimate, "degree", None, "mmd-poly{}"),
    "coral": (coral_distance, None, None, "coral"),
    "raw-ipm": (raw_moment_ipm_estimate, "k", None, "raw-ipm{}"),
}


def cmd_distance(args) -> int:
    fn, flag, default, name = METRICS[args.metric]
    for other in ("k", "beta", "degree"):
        if other != flag and getattr(args, other) is not None:
            raise ConfigError(f"{args.metric} takes no --{other}")
    settings = []
    if flag is not None:
        value = getattr(args, flag)
        if value is None:
            value = default
        if value is None:
            raise ConfigError(f"{args.metric} needs --{flag}")
        settings.append(value)
    src, tgt = _load_pair(args.source, args.target, args.format)
    with np.errstate(all="ignore"):  # a non-finite result is named below
        report = fn(src.features, tgt.features, *settings)
    if not isinstance(report, DistanceReport):
        report = DistanceReport(name.format(*settings), report)
    if not np.isfinite(report.value):  # a CMD is the sum of its nonnegative terms
        raise ConfigError(f"{args.metric} is not finite on these samples")
    print(json.dumps(report.to_dict(), indent=2))
    return 0


def cmd_train(args) -> int:
    cfg = RunConfig(_load_json(args.config))
    if args.lam is not None:
        cfg.train = dataclasses.replace(cfg.train, lam=args.lam)
    src, tgt = cfg.load_pair()
    result = train(src.features, src.labels, tgt.features, cfg.train, Yt=tgt.labels)
    final = dataclasses.asdict(result.records[-1]) if result.records else None
    return _write_run(cfg, "train", {"": result}, {"final": final})


def cmd_warm_start(args) -> int:
    cfg = RunConfig(_load_json(args.config))
    src, tgt = cfg.load_pair()
    result = warm_start_train(src.features, src.labels, tgt.features, cfg.train, Yt=tgt.labels)

    def phase(run, source_acc, target_acc):
        significant = alignment_report(run.params, src.features, tgt.features).significant
        return {"source_acc": source_acc, "target_acc": target_acc, "significant": significant}

    return _write_run(cfg, "warm-start", {"": result.mann, "-shallow": result.shallow}, {
        "snapshot_epoch": result.snapshot_epoch,
        "shallow": phase(result.shallow, result.shallow_source_acc, result.shallow_target_acc),
        "mann": phase(result.mann, result.mann_source_acc, result.mann_target_acc),
    })


def cmd_check(args) -> int:
    fn = CHECKS[args.suite]
    cases = {} if args.cases is None else {"cases": args.cases}  # each suite checks its count
    if args.suite == "appendix-a":
        # it takes --seed, which runners pass to every suite, and ignores it
        if cases:
            raise ConfigError("appendix-a takes no --cases")
        rows = fn()
    else:
        rows = fn(seed=args.seed, **cases)
    print(json.dumps([r.to_dict() for r in rows], indent=2))
    return 0 if all(r.passed for r in rows) else 1


def cmd_report_alignment(args) -> int:
    with open(args.params, "r") as fh:
        params = NetworkParams.from_json(fh.read())
    src, tgt = _load_pair(args.source, args.target, args.format)
    report = alignment_report(params, src.features, tgt.features)
    lines = ["node,statistic,pvalue,significant"]
    for i, node in enumerate(report.nodes):
        lines.append(
            f"{i},{repr(node.statistic)},{repr(node.pvalue)},{int(node.significant)}"
        )
    lines.append(f"# significant {report.significant}")
    print("\n".join(lines))
    return 0


def cmd_sweep(args) -> int:
    doc = _load_json(args.config)
    cfg = RunConfig(doc, _RUN_KEYS + ("ks", "lambdas"), "sweep.csv")
    ks, lambdas = sweep_grid(doc.get("ks"), doc.get("lambdas"))
    src, tgt = cfg.load_pair()
    if tgt.labels is None:
        raise ConfigError("sweep needs a labeled target sample")
    cells = sensitivity_sweep(src.features, src.labels, tgt.features, tgt.labels,
                              ks, lambdas, cfg.train)
    write_sweep_csv(cells, cfg.out)
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="momentalign",
        description="Moment-distance toolkit: data generation, training, "
        "distances, and bound verifiers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-artificial", help="write the two-domain artificial dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--samples", type=int, default=639)
    p.add_argument("--rotation-deg", type=float, default=ArtificialSpec().rotation_deg)
    p.add_argument("--shift", default=",".join(str(v) for v in ArtificialSpec().shift))
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_gen_artificial)

    p = sub.add_parser("distance", help="distance between two feature files")
    p.add_argument("--metric", required=True, choices=list(METRICS))
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--format", default="dense", choices=["dense", "sparse"])
    p.add_argument("--k", type=int)
    p.add_argument("--beta", type=float)
    p.add_argument("--degree", type=int)
    p.set_defaults(fn=cmd_distance)

    p = sub.add_parser("train", help="single training run from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--lambda", dest="lam", type=float)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("warm-start", help="shallow run, snapshot, then aligned run")
    p.add_argument("--config", required=True)
    p.set_defaults(fn=cmd_warm_start)

    p = sub.add_parser("check", help="run a verifier suite")
    p.add_argument("suite", choices=sorted(CHECKS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cases", type=int)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("report-alignment", help="per-node KS table for saved params")
    p.add_argument("--params", required=True)
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--format", default="dense", choices=["dense", "sparse"])
    p.set_defaults(fn=cmd_report_alignment)

    p = sub.add_parser("sweep", help="k/lambda sensitivity sweep to CSV")
    p.add_argument("--config", required=True)
    p.set_defaults(fn=cmd_sweep)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, ValueError, OSError, json.JSONDecodeError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
