"""Riemannian optimization on the symplectic Stiefel manifold.

Library layers: ``core`` (J products, residuals, point types), ``sr``
(symplectic Gram-Schmidt SR factorization), ``geometry`` (metrics,
projections, gradients), ``retractions`` (Cayley, quasi-geodesic, SR),
``optimizer`` (non-monotone BB gradient descent), ``applications`` (target /
trace / PSD costs, Williamson post-processing, DEIM), ``hamiltonian``
(semi-discrete models, Crank-Nicolson, ROM assembly), and ``cli`` (the
``spopt`` experiment harness).
"""

from .core import (
    FeasibilityError,
    NumericalFailure,
    SymplecticPoint,
    TangentVector,
    canonical_point,
    symplectic_inverse,
    symplecticity_residual,
    tangency_residual,
)
from .geometry import (
    Metric,
    MetricKind,
    project_tangent,
    riemannian_gradient,
    solve_skew_lyapunov,
)
from .optimizer import (
    Evaluation,
    SolverOptions,
    SolverResult,
    SolverStatus,
    SolverTrace,
    bb_trial_step,
    minimize,
    nonmonotone_search,
)
from .retractions import (
    RetractionKind,
    SingularCayley,
    cayley_economical,
    quasi_geodesic,
    retract,
    sr_retract,
)
from .sr import (
    Breakdown,
    SrFactors,
    desr,
    sgs,
    sgs_modified,
)

__version__ = "0.1.0"
