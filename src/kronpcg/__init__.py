"""Tensor-structured preconditioned conjugate gradients for grid Poisson problems.

The finite-difference operator on a 2D/3D rectangular grid is never
assembled: it is the grid shape plus one boundary condition per direction,
applied as in-place three-point stencils, and the spectral preconditioners
work through per-axis linear transforms.  README.md is the user's guide.
"""

from .laplace1d import BoundaryCondition, SpectralDecomposition, analytic_spectrum, is_singular_1d
from .operators import PoissonOperator, apply, apply_bc_updates, center
from .operators import is_singular, nullspace_component
from .precond import IdentityPreconditioner, JacobiPreconditioner, LowRankPreconditioner
from .precond import PinvPreconditioner, jacobi_standalone, make_preconditioner
from .problems import P3_VARIANTS, ProblemSpec, gen_problem1, gen_problem2, gen_problem3
from .solver import ConvergenceLog, IterationRecord, PCGBreakdown, SolverConfig, eta_series, pcg
from .tensors import frobenius_norm, hadamard_pinv, inner, linear_transform

__version__ = "0.1.0"
