"""Moment-based distribution distances and a moment-alignment trainer
for unsupervised domain adaptation, with numeric verifiers for the
bounds the method rests on.
"""

from .analysis import (
    AlignmentReport,
    BoundCheck,
    KsResult,
    SweepCell,
    alignment_report,
    dual_equivalence_check,
    ks_two_sample,
    prop1_bound,
    prop1_check,
    sensitivity_sweep,
    thm3_check,
    write_sweep_csv,
)
from .datasets import (
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
from .distances import (
    CmdConfig,
    DistanceReport,
    cmd_analytic,
    cmd_estimate,
    coral_distance,
    mmd_gaussian_estimate,
    mmd_polynomial_analytic,
    mmd_polynomial_estimate,
    raw_moment_ipm,
    raw_moment_ipm_estimate,
)
from .moments import (
    FULL,
    MARGINAL,
    AffineBeta,
    CentralMomentVector,
    Normal,
    analytic_central_moment,
    analytic_mean,
    analytic_raw_moment,
    central_moments,
    monomial_exponents,
    sample_analytic,
)
from .network import (
    ForwardTrace,
    NetworkParams,
    cross_entropy_loss,
    finite_difference_check,
    forward,
    init_params,
    loss_gradients,
)
from .numerics import SeededRng, SparseRowMatrix
from .optim import Adadelta, Adagrad, Sgd
from .trainer import (
    EpochRecord,
    TrainConfig,
    TrainResult,
    WarmStartResult,
    evaluate,
    train,
    warm_start_train,
    write_metrics_csv,
)

__version__ = "0.1.0"
