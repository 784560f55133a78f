"""The benchmark's workloads.

Each workload builds its inputs from the benchmark seed in ``setup``,
lists the operations of one pass, turns one pass's results into a count
of failed operations and a snapshot of every output, and checks a
snapshot against computations made apart from the package
(``reference.py``) or against a property of the method.  An operation
fails when it raises or ends without its result (exit code 2, usage
error, or 3, divergence); a verifier that reports red rows has still
produced its result, and the checks judge it.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
from fractions import Fraction

import numpy as np

from momentalign import cli, distances
from momentalign.distances import CmdConfig
from momentalign.moments import FULL

import reference
import sparse_gen

NO_RESULT = (2, 3)  # exit codes of a CLI operation that did not finish


def _failed(result) -> bool:
    return isinstance(result, BaseException) or result in NO_RESULT


def _write_json(path, doc) -> None:
    with open(path, "w", newline="\n") as fh:
        json.dump(doc, fh, indent=2)


def _read(path) -> bytes | None:
    """File contents, or None when a failed operation left no file."""
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except FileNotFoundError:
        return None


def _take_outputs(out: str, files) -> dict:
    """Read a pass's output files, then remove them, so that every pass
    has to write its outputs anew and none can pass on an earlier one's."""
    snap = {f: _read(os.path.join(out, f)) for f in files}
    shutil.rmtree(out, ignore_errors=True)
    return snap


def _validator(name: str):
    """jsonschema validator for one of the package's shipped schemas."""
    import jsonschema
    import referencing

    schema_dir = os.path.join(os.path.dirname(cli.__file__), "schemas")
    docs = []
    for fname in sorted(os.listdir(schema_dir)):
        with open(os.path.join(schema_dir, fname)) as fh:
            docs.append(json.load(fh))
    registry = referencing.Registry().with_resources(
        (doc["$id"], referencing.Resource.from_contents(doc)) for doc in docs
    )
    schema = next(doc for doc in docs if doc["$id"] == f"momentalign/{name}")
    return jsonschema.Draft202012Validator(schema, registry=registry)


def _schema_errors(name: str, doc, where: str) -> list:
    return [f"{where}: {err.message}" for err in _validator(name).iter_errors(doc)]


def _metrics_rows(text: bytes) -> list:
    lines = text.decode().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, map(float, line.split(",")))) for line in lines[1:]]


def _record_errors(where, row, params, Xs, Ys, Xt, Yt, acc_rel) -> list:
    """Recompute one metrics.csv row from its params with the reference
    network: loss and cmd to 1e-9 relative, accuracies to acc_rel."""
    hs, out_s = reference.forward(params, Xs)
    ht, out_t = reference.forward(params, Xt)
    expect = {
        "loss": (reference.cross_entropy(out_s, Ys), 1e-9),
        "cmd": (reference.cmd(hs, ht, 5)[0], 1e-9),
        "source_acc": (reference.accuracy(out_s, Ys), acc_rel),
        "target_acc": (reference.accuracy(out_t, Yt), acc_rel),
    }
    return [
        f"{where} {key}: {row[key]!r}, reference {value!r}"
        for key, (value, rel) in expect.items()
        if not reference.rel_close(row[key], value, rel)
    ]


class WarmStart:
    """``momentalign warm-start`` on the default artificial problem."""

    name = "warm-start"
    FILES = ("metrics.csv", "metrics-shallow.csv", "params.json",
             "params-shallow.json", "report.json")
    # Acceptance criterion 5 establishes its property on these seeds.
    SEEDS = 5

    def __init__(self, seed: int, workdir: str):
        self.seed = seed % self.SEEDS
        self.out = os.path.join(workdir, "run")
        self.config = os.path.join(workdir, "run.json")

    def setup(self) -> None:
        _write_json(self.config, {"artificial": {"seed": self.seed},
                                  "train": {"seed": self.seed}, "out": self.out})

    def operations(self):
        return [("warm-start", lambda: cli.main(["warm-start", "--config", self.config]))]

    def outcome(self, results):
        return sum(map(_failed, results)), _take_outputs(self.out, self.FILES)

    def check(self, snap) -> list:
        from momentalign.datasets import ArtificialSpec, generate_artificial

        report = json.loads(snap["report.json"])
        errors = _schema_errors("run-report", report, "report.json")
        src, tgt = generate_artificial(ArtificialSpec(seed=self.seed))
        data = (src.features, src.labels, tgt.features, tgt.labels)
        epochs = report["config"]["train"]["epochs"]
        for csv, params, phase in (("metrics.csv", "params.json", "mann"),
                                   ("metrics-shallow.csv", "params-shallow.json", "shallow")):
            row = _metrics_rows(snap[csv])[-1]
            if row["epoch"] != epochs:
                errors.append(f"{csv}: last epoch {row['epoch']}, expected {epochs}")
            errors += _record_errors(csv, row, json.loads(snap[params]), *data, acc_rel=0.0)
            for key in ("source_acc", "target_acc"):
                if report[phase][key] != row[key]:
                    errors.append(f"report.json {phase}.{key} differs from {csv}")
        mann, shallow = report["mann"], report["shallow"]
        gap = (mann["target_acc"] - shallow["target_acc"]) * 100.0
        if not (mann["target_acc"] >= 0.95 and gap >= 8.0
                and mann["significant"] < shallow["significant"]):
            errors.append(
                f"criterion 5 property: aligned {mann['target_acc']}, gap {gap:+.2f} points,"
                f" KS nodes {shallow['significant']} -> {mann['significant']}")
        return errors


class SparseMinibatch:
    """``momentalign train`` on sparse bag-of-words files, minibatch 64."""

    name = "sparse-minibatch"
    ROWS, VOCAB, MEAN_LEN = 1000, 5000, 60
    TRAIN = {"hidden": 50, "epochs": 2, "batch_size": 64, "lambda": 1.0}
    FILES = ("metrics.csv", "params.json", "report.json")

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.out = os.path.join(workdir, "run")
        self.config = os.path.join(workdir, "run.json")

    def setup(self) -> None:
        self.domains = sparse_gen.two_domains(self.seed, self.ROWS, self.VOCAB, self.MEAN_LEN)
        paths = [os.path.join(self.workdir, f) for f in ("source.txt", "target.txt")]
        for domain, path in zip(self.domains, paths):
            domain.save(path)
        _write_json(self.config, {
            "source": paths[0], "target": paths[1], "format": "sparse",
            "train": dict(self.TRAIN, seed=self.seed), "out": self.out})

    def operations(self):
        return [("train", lambda: cli.main(["train", "--config", self.config]))]

    def outcome(self, results):
        return sum(map(_failed, results)), _take_outputs(self.out, self.FILES)

    def check(self, snap) -> list:
        report = json.loads(snap["report.json"])
        errors = _schema_errors("run-report", report, "report.json")
        rows = _metrics_rows(snap["metrics.csv"])
        src, tgt = self.domains
        data = (src.dense(), src.one_hot(), tgt.dense(), tgt.one_hot())
        errors += _record_errors("metrics.csv", rows[-1], json.loads(snap["params.json"]),
                                 *data, acc_rel=1e-9)
        if not rows[-1]["loss"] < rows[0]["loss"]:
            errors.append(f"loss did not fall: {rows[0]['loss']} -> {rows[-1]['loss']}")
        if len(rows) != self.TRAIN["epochs"] or report["diverged"]:
            errors.append(f"{len(rows)} epochs recorded, diverged={report['diverged']}")
        return errors


class _CmdCalls:
    """First half of ``cmd-verify``: library ``cmd_estimate`` on large
    in-memory Gaussian pairs."""

    LABELS = ("cmd-1e5", "cmd-2e5", "cmd-full", "cmd-1e5-swapped", "cmd-1e5-self")
    MARGINAL_ROWS, MARGINAL_DIM = (100_000, 200_000), 10
    FULL_ROWS, FULL_DIM = 20_000, 3
    K = 5
    Z = 5.0  # sampling-error tolerance in standard errors of each term

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        self.pairs = []  # (X, Y, closed-form params, full)
        shapes = [(n, self.MARGINAL_DIM, False) for n in self.MARGINAL_ROWS]
        shapes.append((self.FULL_ROWS, self.FULL_DIM, True))
        for n, m, full in shapes:
            mu_x = rng.uniform(-0.5, 0.5, m)
            sd_x = rng.uniform(0.7, 1.3, m)
            mu_y = mu_x + rng.uniform(-0.2, 0.2, m)
            sd_y = sd_x * rng.uniform(0.85, 1.15, m)
            X = mu_x + sd_x * rng.standard_normal((n, m))
            Y = mu_y + sd_y * rng.standard_normal((n, m))
            self.pairs.append((X, Y, (mu_x, sd_x, mu_y, sd_y), full))

    def operations(self):
        # looked up at call time, so that a traced pass sees the wrapper
        cmd = lambda X, Y, cfg: lambda: distances.cmd_estimate(X, Y, cfg)
        marginal, full = CmdConfig(k=self.K), CmdConfig(k=self.K, mode=FULL)
        (Xa, Ya, _, _), (Xb, Yb, _, _), (Xc, Yc, _, _) = self.pairs
        return list(zip(self.LABELS, (
            cmd(Xa, Ya, marginal),
            cmd(Xb, Yb, marginal),
            cmd(Xc, Yc, full),
            cmd(Ya, Xa, marginal),
            cmd(Xa, Xa, marginal),
        )))

    def outcome(self, results):
        failed = sum(isinstance(r, BaseException) or not math.isfinite(r.value)
                     for r in results)
        return failed, tuple(
            None if isinstance(r, BaseException) else (r.value, tuple(r.terms))
            for r in results)

    def check(self, snap) -> list:
        errors = []
        inputs = [(X, Y, full) for X, Y, _, full in self.pairs]
        Xa, Ya, _ = inputs[0]
        inputs += [(Ya, Xa, False), (Xa, Xa, False)]
        for label, (X, Y, full), (value, terms) in zip(self.LABELS, inputs, snap):
            ref_value, ref_terms = reference.cmd(X, Y, self.K, full)
            for got, want in zip((value,) + terms, [ref_value] + ref_terms):
                if not reference.rel_close(got, want, 1e-10):
                    errors.append(f"{label}: {got!r}, reference {want!r}")
        for (X, Y, params, full), label, (_, terms) in zip(self.pairs, self.LABELS, snap):
            closed = reference.normal_cmd_terms(*params, self.K, full)
            for j, (got, (term, var_x, var_y)) in enumerate(zip(terms, closed), start=1):
                tol = self.Z * math.sqrt(var_x / len(X) + var_y / len(Y))
                if abs(got - term) > tol:
                    errors.append(f"{label} order {j}: {got!r} vs closed form {term!r} ± {tol:.3g}")
        if snap[4][0] != 0.0:
            errors.append(f"cmd(X, X) = {snap[4][0]!r}")
        if snap[3] != snap[0]:
            errors.append("cmd(X, Y) and cmd(Y, X) differ")
        return errors


APPENDIX_RED = {
    # row name -> exact left side: squared polynomial-kernel MMD between
    # S = 0.8 Beta(0.4, 0.4) + 0.1 and L = Normal(0.5, 0.27)
    "mmd_k2(S,L) < 0.00025": 2,
    "mmd_k4(S,L) < 0.004": 4,
}


def _appendix_lhs(degree: int) -> Fraction:
    half, tenth = Fraction(2, 5), Fraction(1, 10)
    return reference.poly_mmd_sq(
        lambda n: reference.affine_beta_raw_moment(half, half, Fraction(4, 5), tenth, n),
        lambda n: reference.normal_raw_moment(Fraction(1, 2), Fraction(27, 100), n),
        degree,
    )


class _Suites:
    """Second half of ``cmd-verify``: ``momentalign check`` for every
    suite at its default case count."""

    SUITES = ("appendix-a", "gradients", "prop-bound", "char-fct", "dual-form")

    def __init__(self, seed: int):
        self.seed = seed

    def _suite(self, suite):
        def run():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = cli.main(["check", suite, "--seed", str(self.seed)])
            return rc, buf.getvalue()
        return run

    def operations(self):
        return [(suite, self._suite(suite)) for suite in self.SUITES]

    def outcome(self, results):
        failed = sum(isinstance(r, BaseException) or r[0] in NO_RESULT for r in results)
        return failed, tuple(None if isinstance(r, BaseException) else r for r in results)

    def check(self, snap) -> list:
        errors = []
        for suite, (rc, text) in zip(self.SUITES, snap):
            rows = json.loads(text)
            errors += _schema_errors("bound-checks", rows, suite)
            red = {row["name"]: row for row in rows if not row["passed"]}
            if suite != "appendix-a":
                if rc != 0 or red:
                    errors.append(f"{suite}: exit {rc}, red rows {sorted(red)}")
                continue
            if rc != 1 or set(red) != set(APPENDIX_RED):
                errors.append(f"appendix-a: exit {rc}, red rows {sorted(red)}")
                continue
            for name, degree in APPENDIX_RED.items():
                exact = float(_appendix_lhs(degree))
                if not reference.rel_close(red[name]["lhs"], exact, 1e-12):
                    errors.append(f"{name}: lhs {red[name]['lhs']!r}, exact {exact!r}")
        return errors


class CmdVerify:
    """The ``cmd_estimate`` calls, then the check suites, in one pass.

    Run alone, the suites, whose time goes to per-call overhead, spread
    too widely from run to run on a small shared machine; paired with
    the large-array calls the pass is steadier, and the per-layer
    metrics still tell the two apart."""

    name = "cmd-verify"
    SPLIT = len(_CmdCalls.LABELS)  # index of the first suite operation

    def __init__(self, seed: int, workdir: str):
        self.calls, self.suites = _CmdCalls(seed), _Suites(seed)

    def setup(self) -> None:
        self.calls.setup()  # the suites make their own inputs

    def operations(self):
        return self.calls.operations() + self.suites.operations()

    def outcome(self, results):
        failed_calls, calls = self.calls.outcome(results[:self.SPLIT])
        failed_suites, suites = self.suites.outcome(results[self.SPLIT:])
        return failed_calls + failed_suites, (calls, suites)

    def check(self, snap) -> list:
        calls, suites = snap
        return self.calls.check(calls) + self.suites.check(suites)


WORKLOADS = {w.name: w for w in (WarmStart, SparseMinibatch, CmdVerify)}
