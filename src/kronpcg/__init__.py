"""Tensor-structured preconditioned conjugate gradients for grid Poisson problems.

The package solves finite-difference Poisson equations on 2D/3D
rectangular grids without ever assembling the system matrix: the operator
is the grid shape plus one boundary condition per direction, applied as
in-place three-point stencils, and the spectral preconditioners work
through per-axis linear transforms.  Five boundary treatments per
direction, three structure-aware preconditioner families,
hardware-independent operation accounting, and a CLI for generating
benchmark problems and reproducing the packaged experiments.
"""

from .counting import OpCounter, cost_model
from .laplace1d import (
    BoundaryCondition,
    SpectralDecomposition,
    analytic_spectrum,
    is_singular_1d,
)
from .operators import (
    BoundaryData,
    FaceValue,
    PoissonOperator,
    apply,
    apply_bc_updates,
    center,
    is_singular,
    nullspace_component,
    poisson_operator,
)
from .precond import (
    IdentityPreconditioner,
    JacobiPreconditioner,
    LowRankPreconditioner,
    PinvPreconditioner,
    jacobi_standalone,
    make_preconditioner,
)
from .problems import (
    P3_VARIANTS,
    ProblemSpec,
    gen_problem1,
    gen_problem2,
    gen_problem3,
)
from .solver import (
    ConvergenceLog,
    IterationRecord,
    PCGBreakdown,
    SolverConfig,
    eta_series,
    pcg,
)
from .tensors import (
    frobenius_norm,
    hadamard_pinv,
    inner,
    linear_transform,
)

__version__ = "0.1.0"
