"""Span tracing of momentalign from outside the package.

The tracer wraps the package's public functions and methods.  A module
binds the names it imports when it is imported (``trainer`` holds its
own reference to ``forward`` and ``cmd_estimate``), so each wrapper is
bound in every momentalign module, and every module-level dict, that
holds the original object.  Each call leaves one span in memory: its id,
its parent's id, its name, start and end, the operation it belongs to,
and a work count.  ``uninstall`` restores every original binding, so
untimed and untraced passes run the package's own code.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

# (span name, module, attribute, work count taken from (args, kwargs, result));
# a train() span counts its epoch budget
TARGETS = [
    ("cli.write_metrics_csv", "momentalign.trainer", "write_metrics_csv", None),
    ("cli.to_json", "momentalign.network", "NetworkParams.to_json", None),
    ("cli.write_json", "momentalign.cli", "_write_json", None),
    ("datasets.load_sparse", "momentalign.datasets", "load_sparse", None),
    ("datasets.load_dense_csv", "momentalign.datasets", "load_dense_csv", None),
    ("datasets.generate_artificial", "momentalign.datasets", "generate_artificial", None),
    ("numerics.dot_dense", "momentalign.numerics", "SparseRowMatrix.dot_dense",
     lambda a, kw, r: len(a[0].data) * _width(a[1])),
    ("numerics.t_dot_dense", "momentalign.numerics", "SparseRowMatrix.t_dot_dense",
     lambda a, kw, r: len(a[0].data) * _width(a[1])),
    ("numerics.take_rows", "momentalign.numerics", "take_rows", None),
    ("numerics.sparse_build", "momentalign.numerics", "SparseRowMatrix.__init__", None),
    ("moments.central_moments", "momentalign.moments", "central_moments", None),
    ("moments.monomial_matrix", "momentalign.moments", "monomial_matrix",
     lambda a, kw, r: r.size),
    ("distances.cmd_estimate", "momentalign.distances", "cmd_estimate",
     lambda a, kw, r: _rows(a[0]) + _rows(a[1])),
    ("network.forward", "momentalign.network", "forward", None),
    ("network.loss_gradients", "momentalign.network", "loss_gradients", None),
    ("network.cmd_gradients", "momentalign.network", "cmd_gradients", None),
    ("network.fd_check", "momentalign.network", "finite_difference_check", None),
    ("optim.step", "momentalign.optim", "Sgd.step", None),
    ("optim.step", "momentalign.optim", "Adagrad.step", None),
    ("optim.step", "momentalign.optim", "Adadelta.step", None),
    ("trainer.train", "momentalign.trainer", "train",
     lambda a, kw, r: kw["epochs"] if kw.get("epochs") is not None else a[3].epochs),
    ("analysis.alignment_report", "momentalign.analysis", "alignment_report", None),
    ("analysis.bound_check", "momentalign.analysis", "prop1_check", None),
    ("analysis.bound_check", "momentalign.analysis", "thm3_check", None),
    ("analysis.bound_check", "momentalign.analysis", "dual_equivalence_check", None),
    ("verify.appendix-a", "momentalign.verify", "check_appendix_a", None),
    ("verify.gradients", "momentalign.verify", "check_gradients", None),
    ("verify.prop-bound", "momentalign.verify", "check_prop_bound", None),
    ("verify.char-fct", "momentalign.verify", "check_char_fct", None),
    ("verify.dual-form", "momentalign.verify", "check_dual_form", None),
]

# per-layer metric -> span names whose self time it sums
SELF_TIME = {
    "cli.write_s": ("cli.write_metrics_csv", "cli.to_json", "cli.write_json"),
    "datasets.load_s": ("datasets.load_sparse", "datasets.load_dense_csv"),
    "datasets.generate_s": ("datasets.generate_artificial",),
    "numerics.dot_dense_s": ("numerics.dot_dense",),
    "numerics.t_dot_dense_s": ("numerics.t_dot_dense",),
    "numerics.take_rows_s": ("numerics.take_rows",),
    "numerics.sparse_build_s": ("numerics.sparse_build",),
    "moments.central_moments_s": ("moments.central_moments",),
    "moments.monomial_matrix_s": ("moments.monomial_matrix",),
    "distances.cmd_estimate_s": ("distances.cmd_estimate",),
    "network.forward_s": ("network.forward",),
    "network.loss_gradients_s": ("network.loss_gradients",),
    "network.cmd_gradients_s": ("network.cmd_gradients",),
    "network.fd_check_s": ("network.fd_check",),
    "optim.step_s": ("optim.step",),
    "trainer.self_s": ("trainer.train",),
    "analysis.alignment_report_s": ("analysis.alignment_report",),
    "analysis.bound_checks_s": ("analysis.bound_check",),
    "verify.appendix-a_s": ("verify.appendix-a",),
    "verify.gradients_s": ("verify.gradients",),
    "verify.prop-bound_s": ("verify.prop-bound",),
    "verify.char-fct_s": ("verify.char-fct",),
    "verify.dual-form_s": ("verify.dual-form",),
}

# per-layer metric -> span name whose calls it counts
CALLS = {
    "moments.central_moments_calls": "moments.central_moments",
    "distances.cmd_estimate_calls": "distances.cmd_estimate",
    "network.forward_calls": "network.forward",
    "optim.step_calls": "optim.step",
}

# per-layer metric -> span name whose work counts it sums
WORK = {
    "numerics.sparse_macs": ("numerics.dot_dense", "numerics.t_dot_dense"),
    "moments.monomial_elems": ("moments.monomial_matrix",),
    "trainer.epochs": ("trainer.train",),
}


def _rows(features) -> int:
    return features.rows if hasattr(features, "rows") else len(features)


def _width(D) -> int:
    return D.shape[1] if D.ndim == 2 else 1


class Tracer:
    def __init__(self):
        self.spans = []  # (id, parent id, name, start, end, operation, work)
        self.operation = 0
        self._stack = [0]
        self._next_id = 1
        self._saved = []  # (container, key, original), in install order

    def wrap(self, name: str, fn, work=None):
        clock = time.perf_counter
        stack = self._stack
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1]
            stack.append(sid)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                count = work(args, kwargs, result) if work is not None and result is not None else 0
                spans.append((sid, parent, name, start, end, self.operation, count))

        return traced

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "momentalign" or key.startswith("momentalign."))]
        for name, module_name, attr, work in TARGETS:
            owner = sys.modules[module_name]
            cls_name, _, method = attr.rpartition(".")
            if cls_name:
                cls = getattr(owner, cls_name)
                self._rebind(cls, method, self.wrap(name, vars(cls)[method], work))
                continue
            original = getattr(owner, attr)
            wrapper = self.wrap(name, original, work)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._rebind(module, key, wrapper)
                    elif isinstance(value, dict):
                        for dkey, dvalue in list(value.items()):
                            if dvalue is original:
                                self._rebind(value, dkey, wrapper)

    def _rebind(self, container, key, wrapper) -> None:
        if isinstance(container, dict):
            self._saved.append((container, key, container[key]))
            container[key] = wrapper
        else:
            self._saved.append((container, key, vars(container)[key]))
            setattr(container, key, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            container, key, original = self._saved.pop()
            if isinstance(container, dict):
                container[key] = original
            else:
                setattr(container, key, original)

    def write(self, path) -> None:
        with open(path, "w", newline="\n") as fh:
            fh.write("id,parent,name,start,end,operation,work\n")
            for span in self.spans:
                fh.write(",".join(map(str, span)) + "\n")

    def layer_metrics(self, passes: int) -> dict:
        """Per-layer metrics per traced pass."""
        covered = defaultdict(float)
        for _, parent, _, start, end, _, _ in self.spans:
            covered[parent] += end - start
        self_time, calls, work = Counter(), Counter(), Counter()
        train_ids = {s[0] for s in self.spans if s[2] == "trainer.train"}
        train_forwards = 0
        log_cmd = cmd_time = cmd_rows = 0.0
        for sid, parent, name, start, end, _, count in self.spans:
            self_time[name] += end - start - covered[sid]
            calls[name] += 1
            work[name] += count
            if name == "network.forward" and parent in train_ids:
                train_forwards += 1
            if name == "distances.cmd_estimate":
                cmd_time += end - start
                cmd_rows += count
                if parent in train_ids:
                    log_cmd += end - start
        out = {}
        for metric, names in SELF_TIME.items():
            out[metric] = sum(self_time[n] for n in names) / passes
        for metric, name in CALLS.items():
            out[metric] = calls[name] / passes
        for metric, names in WORK.items():
            out[metric] = sum(work[n] for n in names) / passes
        out["distances.cmd_rows_per_s"] = cmd_rows / cmd_time if cmd_time else 0.0
        epochs = work["trainer.train"]
        out["trainer.forwards_per_epoch"] = train_forwards / epochs if epochs else 0.0
        out["trainer.log_cmd_s"] = log_cmd / passes
        return out
