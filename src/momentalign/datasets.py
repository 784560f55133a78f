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

File formats (all LF line endings, '.' decimals, floats written with
shortest round-trip repr so that save(load(f)) == f byte for byte):

* dense CSV -- header "label,f1,...,fm" or "f1,...,fm"; a headerless
  all-numeric first line is accepted as unlabeled data.
* sparse    -- optional "#dim N" first line, then lines of
  "<label> <idx>:<val> ..." with strictly increasing 0-based indices.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, fields

import numpy as np

from .numerics import SeededRng, SparseRowMatrix, as_sample, n_cols, n_rows, take_rows
from .numerics import check_json_types


@dataclass
class Sample:
    features: object  # 2-D ndarray or SparseRowMatrix
    labels: np.ndarray | None = None  # one-hot, rows aligned with features
    n_classes: int = 0

    def __post_init__(self):
        if not isinstance(self.features, SparseRowMatrix):
            self.features = as_sample(self.features)
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=np.float64)
            if self.labels.shape[0] != self.n_rows:
                raise ValueError("feature/label row counts differ")
            if self.n_classes == 0:
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
        check_json_types(vars(self), ints=("total", "classes", "seed", "target_seed"),
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
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        spreads = self.spread if isinstance(self.spread, tuple) else (self.spread,)
        if any(s <= 0 for s in spreads):
            raise ValueError("spread must be positive")

    def to_dict(self) -> dict:
        return {
            "total": self.total,
            "classes": self.classes,
            "rotation_deg": self.rotation_deg,
            "shift": list(self.shift),
            "centers": [list(c) for c in self.centers],
            "spread": list(self.spread) if isinstance(self.spread, tuple)
                      else self.spread,
            "seed": self.seed,
            "target_seed": self.target_seed,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "ArtificialSpec":
        unknown = set(doc) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown artificial spec keys: {sorted(unknown)}")
        return cls(**doc)


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

_FEATURE_HEADER = re.compile(r"f[0-9]+")
_NUMBER = re.compile(r"[+-]?([0-9]+(\.[0-9]*)?|\.[0-9]+)([eE][+-]?[0-9]+)?|[+-]?(nan|inf)")


def _is_number(tok: str) -> bool:
    return bool(_NUMBER.fullmatch(tok.strip()))


def _parse_float(tok: str, lineno: int) -> float:
    try:
        value = float(tok)
    except ValueError:
        raise ValueError(f"line {lineno}: non-numeric cell {tok!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"line {lineno}: non-finite cell {tok!r}")
    return value


def load_dense_csv(path) -> Sample:
    with open(path, "r", newline="") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ValueError("empty file")
    head = [t.strip() for t in lines[0].split(",")]
    if head and head[0] == "label" and all(_FEATURE_HEADER.fullmatch(t) for t in head[1:]):
        labeled, start, width = True, 1, len(head)
    elif head and all(_FEATURE_HEADER.fullmatch(t) for t in head):
        labeled, start, width = False, 1, len(head)
    elif head and all(_is_number(t) for t in head):
        labeled, start, width = False, 0, len(head)
    else:
        raise ValueError(f"line 1: unrecognized header {lines[0]!r}")

    rows = []
    classes = []
    for lineno, line in enumerate(lines[start:], start=start + 1):
        if line == "":
            continue
        toks = line.split(",")
        if len(toks) != width:
            raise ValueError(f"line {lineno}: expected {width} cells, got {len(toks)}")
        if labeled:
            cls_tok = toks[0].strip()
            try:
                classes.append(int(cls_tok))
            except ValueError:
                raise ValueError(f"line {lineno}: label {cls_tok!r} is not an integer") from None
            toks = toks[1:]
        rows.append([_parse_float(t, lineno) for t in toks])
    if not rows:
        raise ValueError("file contains no data rows")
    feats = np.array(rows)
    if labeled:
        classes = np.array(classes)
        if classes.min() < 0:
            raise ValueError("negative class id")
        n_classes = int(classes.max()) + 1
        return Sample(feats, one_hot(classes, n_classes), n_classes)
    return Sample(feats)


def save_dense_csv(sample: Sample, path) -> None:
    if isinstance(sample.features, SparseRowMatrix):
        raise ValueError("dense CSV writer needs dense features")
    cols = [f"f{i + 1}" for i in range(sample.dim)]
    out = []
    if sample.labels is not None:
        out.append(",".join(["label"] + cols))
        ints = sample.label_ints
        for i in range(sample.n_rows):
            out.append(
                ",".join([str(int(ints[i]))] + [repr(float(v)) for v in sample.features[i]])
            )
    else:
        out.append(",".join(cols))
        for i in range(sample.n_rows):
            out.append(",".join(repr(float(v)) for v in sample.features[i]))
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(out) + "\n")


# ---------------------------------------------------------------------------
# Sparse line format
# ---------------------------------------------------------------------------


def load_sparse(path) -> Sample:
    with open(path, "r", newline="") as fh:
        lines = fh.read().splitlines()
    declared_dim = None
    start = 0
    if lines and lines[0].startswith("#dim"):
        parts = lines[0].split()
        if len(parts) != 2:
            raise ValueError("line 1: malformed #dim line")
        declared_dim = int(parts[1])
        if declared_dim < 1:
            raise ValueError("line 1: dimension must be >= 1")
        start = 1

    rows = []
    classes = []
    max_index = -1
    for lineno, line in enumerate(lines[start:], start=start + 1):
        if line.strip() == "":
            continue
        toks = line.split()
        try:
            classes.append(int(toks[0]))
        except ValueError:
            raise ValueError(f"line {lineno}: label {toks[0]!r} is not an integer") from None
        pairs = []
        prev = -1
        for tok in toks[1:]:
            if ":" not in tok:
                raise ValueError(f"line {lineno}: malformed token {tok!r}")
            idx_s, val_s = tok.split(":", 1)
            try:
                idx = int(idx_s)
                val = float(val_s)
            except ValueError:
                raise ValueError(f"line {lineno}: malformed token {tok!r}") from None
            if not math.isfinite(val):
                raise ValueError(f"line {lineno}: non-finite value in token {tok!r}")
            if idx <= prev:
                raise ValueError(f"line {lineno}: indices not strictly increasing")
            if declared_dim is not None and idx >= declared_dim:
                raise ValueError(f"line {lineno}: index {idx} exceeds declared dimension")
            prev = idx
            pairs.append((idx, val))
        max_index = max(max_index, prev)
        rows.append(pairs)
    if not rows:
        raise ValueError("file contains no data rows")
    dim = declared_dim if declared_dim is not None else max_index + 1
    if dim < 1:
        raise ValueError("cannot infer dimension from an all-empty file")
    classes = np.array(classes)
    if classes.min() < 0:
        raise ValueError("negative class id")
    n_classes = int(classes.max()) + 1
    return Sample(
        SparseRowMatrix.from_rows(rows, dim), one_hot(classes, n_classes), n_classes
    )


def save_sparse(sample: Sample, path) -> None:
    if not isinstance(sample.features, SparseRowMatrix):
        raise ValueError("sparse writer needs SparseRowMatrix features")
    if sample.labels is None:
        raise ValueError("sparse format carries labels; sample has none")
    S = sample.features
    ints = sample.label_ints
    out = [f"#dim {S.cols}"]
    for r in range(S.rows):
        lo, hi = S.indptr[r], S.indptr[r + 1]
        toks = [str(int(ints[r]))]
        toks += [f"{int(i)}:{repr(float(v))}" for i, v in zip(S.indices[lo:hi], S.data[lo:hi])]
        out.append(" ".join(toks))
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(out) + "\n")


# ---------------------------------------------------------------------------
# Stratified split
# ---------------------------------------------------------------------------


def split(sample: Sample, fraction: float, seed: int) -> tuple[Sample, Sample]:
    """Seeded shuffle-and-split.  With labels, per-class allotments follow
    the largest-remainder rule so class proportions hold within one item."""
    if not 0.0 < fraction < 1.0:
        raise ValueError("fraction must lie strictly between 0 and 1")
    n = sample.n_rows
    perm = SeededRng(seed).permutation(n)
    if sample.labels is None:
        cut = round(fraction * n)
        if cut == 0 or cut == n:
            raise ValueError("split would leave one side empty")
        left_idx, right_idx = perm[:cut], perm[cut:]
    else:
        ints = sample.label_ints
        counts = np.bincount(ints, minlength=sample.n_classes)
        quotas = fraction * counts
        allot = np.floor(quotas).astype(int)
        total_left = round(fraction * n)
        remainders = quotas - allot
        for cls in sorted(
            range(sample.n_classes), key=lambda c: (-remainders[c], c)
        )[: max(0, total_left - allot.sum())]:
            allot[cls] += 1
        taken = np.zeros(sample.n_classes, dtype=int)
        left_list, right_list = [], []
        for idx in perm:
            cls = ints[idx]
            if taken[cls] < allot[cls]:
                left_list.append(idx)
                taken[cls] += 1
            else:
                right_list.append(idx)
        if not left_list or not right_list:
            raise ValueError("split would leave one side empty")
        left_idx, right_idx = np.array(left_list), np.array(right_list)

    def subset(idx):
        labels = sample.labels[idx] if sample.labels is not None else None
        return Sample(take_rows(sample.features, idx), labels, sample.n_classes)

    return subset(left_idx), subset(right_idx)
