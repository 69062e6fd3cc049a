"""Riemannian optimization on the symplectic Stiefel manifold.

Library layers: ``core`` (Poisson matrix, shuffles, residuals), ``sr``
(symplectic Gram-Schmidt SR factorization), ``geometry`` (metrics,
projections, gradients), ``retractions`` (Cayley, quasi-geodesic, SR),
``optimizer`` (non-monotone BB gradient descent), ``applications`` (target /
trace / PSD costs, Williamson post-processing, DEIM), ``hamiltonian``
(semi-discrete models, Crank-Nicolson, ROM assembly), and ``cli`` (the
``spopt`` experiment harness).  ``oracles`` holds the test-scale reference
forms the suite checks the fast kernels against.
"""

from .core import (
    FeasibilityError,
    NumericalFailure,
    PerfectShuffle,
    SymplecticPoint,
    TangentVector,
    canonical_point,
    perfect_shuffle,
    poisson,
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
from .oracles import (
    ComplementBasis,
    TangentCoordinates,
    canonical_gradient_qr,
    cayley_full,
    even_minor_check,
    in_normalized_triangular_set,
    metric_inner,
    orthonormal_complement,
    sgs_basic,
    tangent_coordinates,
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
    DesrFactors,
    PspsFactors,
    SrFactors,
    desr,
    sgs,
    sgs_modified,
)

__version__ = "0.1.0"
