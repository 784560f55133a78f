"""The benchmark's span tracer, bench/tracer.py, wraps package functions
by name.  These tests compile it from its text, so nothing is written
under bench/, and check that a rename or a product moved out of
SparseRowMatrix.t_dot_dense cannot leave its metrics silently at zero."""

import importlib
import pathlib
import types

import numpy as np
import pytest

from momentalign.datasets import one_hot
from momentalign.numerics import SparseRowMatrix
from momentalign.trainer import TrainConfig, train

from helpers import bag_of_words

TRACER = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
tracer = types.ModuleType("bench_tracer")
exec(compile(TRACER.read_text(), str(TRACER), "exec"), tracer.__dict__)


@pytest.mark.parametrize("target", tracer.TARGETS, ids=lambda t: f"{t[1]}.{t[2]}")
def test_every_tracer_target_resolves_in_the_package(target):
    _, module_name, attr, _ = target
    obj = importlib.import_module(module_name)
    for part in attr.split("."):
        obj = getattr(obj, part)
    assert callable(obj)


def test_every_span_a_metric_reads_is_traced():
    traced = {name for name, *_ in tracer.TARGETS}
    read = set(tracer.CALLS.values())
    for names in (*tracer.SELF_TIME.values(), *tracer.WORK.values()):
        read.update(names)
    assert read <= traced, sorted(read - traced)


def test_t_dot_dense_returns_its_out_in_both_forms():
    # the tracer counts a product's work only from a result that is not None
    S = bag_of_words(rows=20, cols=50, per_row=5)
    D = np.ones((20, 3))
    out = np.zeros((3, 50)).T
    assert S.t_dot_dense(D, out, 1.0) is out
    assert S.t_dot_dense(D, out, 20) is out


def test_traced_sparse_step_counts_both_domains_products():
    # a full-batch lambda = 1 epoch: one step's forward and input product
    # per domain, then the record's forward per domain
    Xs = bag_of_words(rows=40, cols=300, per_row=8, seed=1)
    Xt = bag_of_words(rows=30, cols=300, per_row=8, seed=2)
    cfg = TrainConfig(hidden=4, lam=1.0, epochs=1, seed=0)
    for _, module_name, _, _ in tracer.TARGETS:
        importlib.import_module(module_name)
    original = SparseRowMatrix.t_dot_dense
    spans = tracer.Tracer()
    spans.install()
    try:
        res = train(Xs, one_hot(np.arange(40) % 2, 2), Xt, cfg)
    finally:
        spans.uninstall()
    assert SparseRowMatrix.t_dot_dense is original and not res.diverged
    macs = (Xs.data.size + Xt.data.size) * cfg.hidden
    t_dots = [span for span in spans.spans if span[2] == "numerics.t_dot_dense"]
    assert len(t_dots) == 2 and sum(span[6] for span in t_dots) == macs
    assert spans.layer_metrics(1)["numerics.sparse_macs"] == 3 * macs
