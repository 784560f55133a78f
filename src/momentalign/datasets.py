"""Sample container, the artificial two-domain generator, and file loaders.

The artificial dataset is three 2-D Gaussian class blobs; the target
domain re-draws the same blob process from its own stream and then
rotates the cloud about its centroid and translates it.  This reproduces
the qualitative structure of the shifted-and-rotated benchmark: classes
remain locally intact but the domains stop overlapping, so a classifier
trained on source labels alone degrades on the target.

The default geometry is deliberate.  Rotation about the centroid leaves
the blob nearest the centroid almost in place while sweeping the outer
blobs across the source decision boundaries, so the source-only net
loses ~10 points on the target; the displacement stays within roughly
1.5 blob widths, which keeps activation alignment reachable for the
CMD term instead of stranding units in saturation.  Larger transforms
break the alignment phase, smaller ones leave nothing to recover.

ArtificialSpec is the "artificial" block of a run config, read and
written by the settings codec of numerics, tuples as JSON lists.

File formats (all LF line endings, '.' decimals, floats written with
shortest round-trip repr so that save(load(f)) == f byte for byte):

* dense CSV -- header "label,f1,...,fm" or "f1,...,fm", m >= 1; a
  headerless first line of values is unlabeled data.  Cells, padded
  with spaces or tabs, hold labels and values of the sparse grammar.
* sparse    -- optional "#dim N" first line (N ASCII digits, 1 <= N <=
  2**31 - 1, the counts' ceiling), then lines of "<label> <idx>:<val>
  ...": an integer label, tokens of ASCII-digit 0-based indices below N
  (or the ceiling), strictly increasing within the line, and finite
  decimal values, separated by spaces or tabs.  Lines of spaces and
  tabs alone are skipped.
* both      -- class ids are >= 0, at most 2**27 one-hot cells in all.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .numerics import SeededRng, SparseRowMatrix, as_sample, check_finite, n_cols, n_rows, take_rows
from .numerics import _COUNT_MAX, check_count, check_json_types, check_labels, settings_from_dict, settings_to_dict


@dataclass
class Sample:
    features: object  # 2-D ndarray or SparseRowMatrix
    labels: np.ndarray | None = None  # one-hot, rows aligned with features
    n_classes: int = 0

    def __post_init__(self):
        if not isinstance(self.features, SparseRowMatrix):
            self.features = as_sample(self.features)
        if self.labels is not None:
            self.labels = check_labels(self.labels, self.n_rows, self.n_classes or None)
            self.n_classes = self.labels.shape[1]

    @property
    def n_rows(self) -> int:
        return n_rows(self.features)

    @property
    def dim(self) -> int:
        return n_cols(self.features)

    @property
    def label_ints(self) -> np.ndarray:
        if self.labels is None:
            raise ValueError("sample has no labels")
        return self.labels.argmax(axis=1)


def one_hot(classes: np.ndarray, n_classes: int) -> np.ndarray:
    classes = np.asarray(classes, dtype=np.int64)
    if classes.size and (classes.min() < 0 or classes.max() >= n_classes):
        raise ValueError("class id outside 0..n_classes-1")
    out = np.zeros((classes.shape[0], n_classes))
    out[np.arange(classes.shape[0]), classes] = 1.0
    return out


# ---------------------------------------------------------------------------
# Artificial two-domain problem
# ---------------------------------------------------------------------------

DEFAULT_CENTERS = ((0.0, 0.0), (1.168, 0.365), (2.165, 1.613))


@dataclass
class ArtificialSpec:
    total: int = 639
    classes: int = 3
    rotation_deg: float = -35.0
    shift: tuple = (0.06, -0.12)
    centers: tuple = DEFAULT_CENTERS
    spread: float = 0.275
    seed: int = 0
    target_seed: int | None = None  # None = independent stream derived from seed

    def __post_init__(self):
        for name in ("total", "classes"):
            check_count(getattr(self, name), name)
        check_json_types(vars(self), ints=("seed", "target_seed"),
                         reals=("rotation_deg",), nullable=("target_seed",),
                         arrays={"shift": (1,), "centers": (2,), "spread": (0, 1)})
        self.centers = tuple(tuple(float(x) for x in c) for c in self.centers)
        self.shift = tuple(float(x) for x in self.shift)
        if len(self.centers) != self.classes:
            raise ValueError("need one blob center per class")
        if any(len(c) != 2 for c in self.centers) or len(self.shift) != 2:
            raise ValueError("artificial data is 2-D")
        if self.total < self.classes:
            raise ValueError("need at least one sample per class")
        try:
            self.spread = float(self.spread)
        except TypeError:
            self.spread = tuple(float(s) for s in self.spread)
            if len(self.spread) != self.classes:
                raise ValueError("need one spread per class")
        for name in ("rotation_deg", "shift", "centers", "spread"):  # JSON reads Infinity
            if not np.all(np.isfinite(np.asarray(getattr(self, name), dtype=np.float64))):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        spreads = self.spread if isinstance(self.spread, tuple) else (self.spread,)
        if any(s <= 0 for s in spreads):
            raise ValueError("spread must be positive")

    def to_dict(self) -> dict:
        return settings_to_dict(self)

    @classmethod
    def from_dict(cls, doc: dict) -> "ArtificialSpec":
        return settings_from_dict(cls, doc, "artificial")


def _class_counts(total: int, classes: int) -> list[int]:
    base = total // classes
    counts = [base] * classes
    for i in range(total - base * classes):
        counts[i] += 1
    return counts


def _draw_blobs(spec: ArtificialSpec, rng: SeededRng):
    counts = _class_counts(spec.total, spec.classes)
    feats = []
    labels = []
    for cls, count in enumerate(counts):
        center = np.array(spec.centers[cls])
        scale = (spec.spread[cls] if isinstance(spec.spread, tuple)
                 else spec.spread)
        feats.append(center + scale * rng.normal_matrix(count, 2))
        labels.extend([cls] * count)
    return np.vstack(feats), one_hot(np.array(labels), spec.classes)


def generate_artificial(spec: ArtificialSpec) -> tuple[Sample, Sample]:
    """Labeled source and target samples; target labels are meant for
    evaluation only, never for training."""
    src_feats, src_labels = _draw_blobs(spec, SeededRng(spec.seed))
    if spec.target_seed is not None:
        tgt_rng = SeededRng(spec.target_seed)
    else:
        tgt_rng = SeededRng(spec.seed).split(1)
    tgt_feats, tgt_labels = _draw_blobs(spec, tgt_rng)

    if spec.rotation_deg == 0.0 and spec.shift == (0.0, 0.0):
        pass  # identity transform: keep the draw bit-exact
    elif spec.rotation_deg == 0.0:
        tgt_feats = tgt_feats + np.array(spec.shift)
    else:
        theta = math.radians(spec.rotation_deg)
        rot = np.array(
            [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
        )
        centroid = tgt_feats.mean(axis=0)
        tgt_feats = (tgt_feats - centroid) @ rot.T + centroid + np.array(spec.shift)

    return (
        Sample(src_feats, src_labels, spec.classes),
        Sample(tgt_feats, tgt_labels, spec.classes),
    )


# ---------------------------------------------------------------------------
# Dense CSV
# ---------------------------------------------------------------------------

# the grammar of both formats, as patterns that compile on first use
_VALUE = r"[+-]?(?:(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?|(?i:inf|infinity|nan))"
_LABEL = r"[+-]?[0-9]+"
_ONE_HOT_CELLS = 2**27  # the most cells of one-hot labels: 1 GiB of float64


def _labeled(features, labels: np.ndarray, linenos, token) -> Sample:
    """features with the one-hot labels of the class ids labels, floats
    read from the lines linenos; token(lineno) is the id as that line
    holds it, which a message quotes.  No id may be negative, and the
    largest must leave the one-hot labels within _ONE_HOT_CELLS cells."""
    row = int(np.argmax(labels < 0))
    if labels[row] < 0:
        raise ValueError(f"line {linenos[row]}: negative class id {token(linenos[row])}")
    row = int(np.argmax(labels))
    if (labels[row] + 1) * len(labels) > _ONE_HOT_CELLS:
        raise ValueError(f"line {linenos[row]}: class id {token(linenos[row])} needs one-hot "
                         f"labels of over 2**27 cells")
    n_classes = int(labels[row]) + 1
    return Sample(features, one_hot(labels.astype(np.int64), n_classes), n_classes)


def load_dense_csv(path) -> Sample:
    """Read the dense CSV format.  Lines end as sparse lines do, cells are
    stripped of spaces and tabs, and a label must match _LABEL and a
    feature _VALUE, the sparse format's grammar, before float() reads it."""
    with open(path, "r") as fh:
        lines = fh.read().split("\n")
    if lines == [""]:
        raise ValueError("empty file")
    value = re.compile(_VALUE).fullmatch
    head = [t.strip(" \t") for t in lines[0].split(",")]
    names = [bool(re.fullmatch("f[0-9]+", t)) for t in head]
    if head == ["label"]:
        raise ValueError("line 1: header names no feature column")
    if head[0] == "label" and all(names[1:]):
        labeled, start = True, 1
    elif all(names):
        labeled, start = False, 1
    elif all(value(t) for t in head):
        labeled, start = False, 0
    else:
        raise ValueError(f"line 1: unrecognized header {lines[0]!r}")

    rows, classes, linenos = [], [], []
    for lineno, line in enumerate(lines[start:], start=start + 1):
        if line == "":
            continue
        linenos.append(lineno)
        toks = [t.strip(" \t") for t in line.split(",")]
        if len(toks) != len(head):
            raise ValueError(f"line {lineno}: expected {len(head)} cells, got {len(toks)}")
        if labeled:
            if not re.fullmatch(_LABEL, toks[0]):
                raise ValueError(f"line {lineno}: label {toks[0]!r} is not an integer")
            classes.append(float(toks.pop(0)))
        for tok in toks:
            if not value(tok):
                raise ValueError(f"line {lineno}: non-numeric cell {tok!r}")
            if not math.isfinite(float(tok)):
                raise ValueError(f"line {lineno}: non-finite cell {tok!r}")
        rows.append([float(t) for t in toks])
    if not rows:
        raise ValueError("file contains no data rows")
    if not labeled:
        return Sample(np.array(rows))
    return _labeled(np.array(rows), np.array(classes), linenos,
                    lambda n: lines[n - 1].split(",", 1)[0].strip(" \t"))


def save_dense_csv(sample: Sample, path) -> None:
    if isinstance(sample.features, SparseRowMatrix):
        raise ValueError("dense CSV writer needs dense features")
    check_finite(features=sample.features)  # the loader refuses nan and inf cells
    labeled = sample.labels is not None
    ints = sample.label_ints.tolist() if labeled else []
    out = [",".join((["label"] if labeled else []) + [f"f{i + 1}" for i in range(sample.dim)])]
    for r, row in enumerate(sample.features.tolist()):
        cells = ",".join([repr(v) for v in row])
        out.append(f"{ints[r]},{cells}" if labeled else cells)
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(out) + "\n")


# ---------------------------------------------------------------------------
# Sparse line format
# ---------------------------------------------------------------------------

_TOKEN = rf"([0-9]+):({_VALUE})"
_SPARSE_LINE = rf"[ \t]*(?:{_LABEL}(?:[ \t]+[0-9]+:{_VALUE})*[ \t]*)?"
_DIM_HEADER = r"#dim[ \t]+([0-9]+)[ \t]*"


def _line_fault(line: str, limit: int, declared: bool) -> str:
    """The first fault of a sparse data line, token by token in the order
    the per-token checks take: the label's form, then each token's form,
    finiteness, order and bound."""
    toks = re.split(r"[ \t]+", line.strip(" \t"))
    if not re.fullmatch(_LABEL, toks[0]):
        return f"label {toks[0]!r} is not an integer"
    prev = -1
    for tok in toks[1:]:
        match = re.fullmatch(_TOKEN, tok)
        if match is None:
            return f"malformed token {tok!r}"
        idx = int(match[1])
        if not math.isfinite(float(match[2])):
            return f"non-finite value in token {tok!r}"
        if idx <= prev:
            return "indices not strictly increasing"
        if idx >= limit:
            return f"index {idx} exceeds {'declared' if declared else 'the largest'} dimension"
        prev = idx
    raise AssertionError(f"no fault in {line!r}")


def load_sparse(path) -> Sample:
    """Read the sparse line format.  Each line is checked with one regex, and
    the lines before the first malformed one are parsed in one np.fromstring
    call, ':' read as a separator; the value checks then run on the arrays.
    The first faulty line is reported, and only that line is read again
    token by token to say what is wrong with it."""
    with open(path, "r") as fh:
        lines = fh.read().split("\n")
    declared_dim = None
    start = 0
    if lines[0].startswith("#dim"):
        header = re.fullmatch(_DIM_HEADER, lines[0])
        if header is None:
            raise ValueError("line 1: malformed #dim line")
        declared_dim = int(header[1])
        if not 1 <= declared_dim <= _COUNT_MAX:
            raise ValueError(f"line 1: dimension must lie between 1 and {_COUNT_MAX}")
        start = 1
    limit = declared_dim or _COUNT_MAX

    rows, linenos, sizes = [], [], []
    faulty = None
    fullmatch = re.compile(_SPARSE_LINE).fullmatch
    for lineno, line in enumerate(lines[start:], start=start + 1):
        if fullmatch(line) is None:
            faulty = lineno
            break
        if line.strip(" \t"):
            rows.append(line)
            linenos.append(lineno)
            sizes.append(line.count(":"))
    indptr = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum(sizes, out=indptr[1:])
    # a row is its label, then index, value per entry; a string of blanks
    # alone would read as [-1.0]
    numbers = np.fromstring(" ".join(rows).replace(":", " "), sep=" ") if rows else np.zeros(0)
    labels_at = 2 * indptr[:-1] + np.arange(len(rows))
    labels = numbers[labels_at]
    pairs = np.delete(numbers, labels_at).reshape(-1, 2)
    del rows, numbers
    idx, values = pairs[:, 0], pairs[:, 1]
    fault = np.zeros(len(idx), dtype=bool)
    np.less_equal(idx[1:], idx[:-1], out=fault[1:])
    fault[indptr[:-1][indptr[:-1] < len(idx)]] = False  # a row's first index follows none
    fault |= ~np.isfinite(values)
    fault |= idx >= limit
    if fault.any():
        faulty = linenos[np.searchsorted(indptr, np.argmax(fault), side="right") - 1]
    if faulty is not None:
        raise ValueError(f"line {faulty}: {_line_fault(lines[faulty - 1], limit, declared_dim is not None)}")

    if not linenos:
        raise ValueError("file contains no data rows")
    indices = idx.astype(np.int64)
    dim = declared_dim if declared_dim is not None else int(indices.max(initial=-1)) + 1
    if dim < 1:
        raise ValueError("cannot infer dimension from an all-empty file")
    return _labeled(SparseRowMatrix(len(linenos), dim, indptr, indices, values.copy()),
                    labels, linenos, lambda n: lines[n - 1].split(None, 1)[0])


def save_sparse(sample: Sample, path) -> None:
    if not isinstance(sample.features, SparseRowMatrix):
        raise ValueError("sparse writer needs SparseRowMatrix features")
    if sample.labels is None:
        raise ValueError("sparse format carries labels; sample has none")
    S = sample.features
    tokens = [f"{i}:{v!r}" for i, v in zip(S.indices.tolist(), S.data.tolist())]
    bounds = S.indptr.tolist()
    # the loader refuses nan and inf; checked after the tokens, as the check's
    # temporary taken first raised the sparse bench's peak RSS by 1.4 MiB
    check_finite(features=S)
    out = [f"#dim {S.cols}"]
    for r, label in enumerate(sample.label_ints.tolist()):
        out.append(" ".join([str(label)] + tokens[bounds[r]:bounds[r + 1]]))
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(out) + "\n")


# ---------------------------------------------------------------------------
# Stratified split
# ---------------------------------------------------------------------------


def split(sample: Sample, fraction: float, seed: int) -> tuple[Sample, Sample]:
    """Seeded shuffle-and-split.  Per-class allotments follow the
    largest-remainder rule so class proportions hold within one item; an
    unlabeled sample is one class.  The left side takes each class's first
    allotted rows in shuffled order."""
    if not 0.0 < fraction < 1.0:
        raise ValueError("fraction must lie strictly between 0 and 1")
    n = sample.n_rows
    perm = SeededRng(seed).permutation(n)
    ints = np.zeros(n, dtype=int) if sample.labels is None else sample.label_ints
    counts = np.bincount(ints, minlength=max(sample.n_classes, 1))
    quotas = fraction * counts
    allot = np.floor(quotas).astype(int)
    remainders = quotas - allot
    for cls in sorted(
        range(len(counts)), key=lambda c: (-remainders[c], c)
    )[: max(0, round(fraction * n) - allot.sum())]:
        allot[cls] += 1
    shuffled = ints[perm]
    order = np.argsort(shuffled, kind="stable")  # class by class, in shuffled order
    ranked = shuffled[order]
    left = np.empty(n, dtype=bool)
    left[order] = np.arange(n) - (np.cumsum(counts) - counts)[ranked] < allot[ranked]
    if left.all() or not left.any():
        raise ValueError("split would leave one side empty")

    def subset(idx):
        labels = sample.labels[idx] if sample.labels is not None else None
        return Sample(take_rows(sample.features, idx), labels, sample.n_classes)

    return subset(perm[left]), subset(perm[~left])
