"""Primal-dual solvers for robust sparse classification.

Trains a projection matrix W and a matrix of class centers mu jointly, under
a structured-sparsity ball constraint on W (l1, l21, l12 or nuclear) and a
robust data loss (huber, l1 or Frobenius), via a first-order primal-dual
saddle-point iteration.  Includes the exact ball projections, a nearest-center
classifier with per-class feature signatures, and a cross-validation /
radius-sweep harness.
"""

from .classify import (
    CVResult,
    EvalReport,
    Signature,
    SweepPoint,
    SweepResult,
    cross_validate,
    detect_knee,
    eta_sweep,
    evaluate,
    predict,
    predict_rows,
    signature,
    stratified_folds,
    train_model,
)
from .data_io import (
    Dataset,
    SyntheticSpec,
    generate_synthetic,
    load_csv,
    load_model,
    save_model,
    write_curve_csv,
    write_dataset_csv,
)
from .linalg import (
    OperatorNormEstimate,
    label_operator_norm,
    normalize_features,
    one_hot,
    spectral_norm,
)
from .losses import LossSpec, ObjectiveBreakdown, dual_prox, huber_value, loss_matrix, primal_objective
from .model import Problem, ProblemTemplate, TrainedModel
from .projections import (
    BallSpec,
    L12NewtonState,
    NewtonConvergenceError,
    ball_norm,
    clip_box,
    dual_norm,
    proj_frobenius_unit,
    proj_l1_matrix,
    proj_l1_vector,
    proj_l12,
    proj_l12_with_state,
    proj_l21,
    proj_nuclear,
    project_ball,
)
from .solver import (
    HistoryRecord,
    SolverDivergenceError,
    SolverParams,
    SolverState,
    StepConditionError,
    TrainingHistory,
    check_step_condition,
    default_steps,
    solve,
)

__version__ = "0.1.0"
