"""Every two-sample function treats a SparseRowMatrix exactly like its
dense copy, and rejects bad samples with ValueError."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentalign.analysis import dual_equivalence_check, prop1_check, thm3_check
from momentalign.distances import (
    CmdConfig,
    cmd_estimate,
    coral_distance,
    mmd_gaussian_estimate,
    mmd_polynomial_estimate,
    raw_moment_ipm_estimate,
)
from momentalign.moments import FULL
from momentalign.numerics import SparseRowMatrix

# name -> function of (source, target) giving a comparable result; the
# samples are two-column with entries in [-0.2, 0.2], inside every
# check's support
TWO_SAMPLE = {
    "cmd_estimate": lambda s, t: cmd_estimate(s, t).to_dict(),
    "cmd_estimate_full": lambda s, t: cmd_estimate(s, t, CmdConfig(k=4, mode=FULL)).to_dict(),
    "coral_distance": coral_distance,
    "mmd_gaussian_estimate": lambda s, t: mmd_gaussian_estimate(s, t, 0.5),
    "mmd_polynomial_estimate": lambda s, t: mmd_polynomial_estimate(s, t, 3),
    "raw_moment_ipm_estimate": lambda s, t: raw_moment_ipm_estimate(s, t, 3),
    "prop1_check": lambda s, t: prop1_check(s, t, 3, -0.2, 0.2).to_dict(),
    "dual_equivalence_check": lambda s, t: dual_equivalence_check(s, t, directions=50).to_dict(),
    "thm3_check": lambda s, t: thm3_check(s, t, k=3).to_dict(),
}

cells = st.floats(-0.2, 0.2, allow_nan=False)
sparse_rows = st.lists(
    st.lists(st.tuples(st.integers(0, 1), cells), max_size=2), min_size=1, max_size=8
)


def to_sparse(rows) -> SparseRowMatrix:
    return SparseRowMatrix.from_rows([sorted(dict(pairs).items()) for pairs in rows], cols=2)


@pytest.mark.parametrize("name", sorted(TWO_SAMPLE))
@settings(max_examples=25, deadline=None)
@given(src_rows=sparse_rows, tgt_rows=sparse_rows)
def test_sparse_input_gives_the_dense_result_bitwise(name, src_rows, tgt_rows):
    fn = TWO_SAMPLE[name]
    S, T = to_sparse(src_rows), to_sparse(tgt_rows)
    assert fn(S, T) == fn(S.toarray(), T.toarray())


def empty_sparse(cols):
    return SparseRowMatrix(0, cols, [0], [], [])


GOOD = np.array([[0.1, -0.1], [0.0, 0.2], [-0.15, 0.05]])
BAD_PAIRS = {
    "empty-source": (np.empty((0, 2)), GOOD),
    "empty-target": (GOOD, np.empty((0, 2))),
    "empty-sparse": (empty_sparse(2), GOOD),
    "3-d": (np.zeros((3, 2, 2)), GOOD),
    "widths": (GOOD, GOOD[:, :1]),
    "sparse-widths": (to_sparse([[(0, 0.1)], [(1, 0.1)]]),
                      SparseRowMatrix.from_rows([[(0, 0.1)], []], cols=1)),
}


@pytest.mark.parametrize("name", sorted(TWO_SAMPLE))
@pytest.mark.parametrize("case", sorted(BAD_PAIRS))
def test_bad_samples_raise_value_error(name, case):
    src, tgt = BAD_PAIRS[case]
    with pytest.raises(ValueError):
        TWO_SAMPLE[name](src, tgt)
