"""Certified eigenvalue bounds and shape-extremality proofs for triangle Laplacians."""

from .geometry import (
    TriangleShape,
    perturbation_factor_bounds,
    triangle_from_angle,
    triangle_from_vertex,
)
from .mesh import Mesh, uniform_subdivide
from .fem import DiscreteOperators, FemSpace, assemble, build_space
from .eigsolve import EigenEnclosure, EigensolveError, solve_lowest, verify_enclosure
from .bounds import (
    BracketError,
    EigBracket,
    F_of,
    bracket,
    err_bound,
    eta,
    eta_range,
)
from .certify import (
    Certificate,
    CertifyError,
    RunConfig,
    Schedule,
    algorithm1,
    algorithm2,
    compute_point,
    compute_points,
    paper_config,
    paper_schedule,
    quick_config,
    run_proof,
    simplicity_check,
)

__version__ = "0.1.0"

__all__ = [
    "TriangleShape",
    "perturbation_factor_bounds",
    "triangle_from_angle",
    "triangle_from_vertex",
    "Mesh",
    "uniform_subdivide",
    "DiscreteOperators",
    "FemSpace",
    "assemble",
    "build_space",
    "EigenEnclosure",
    "EigensolveError",
    "solve_lowest",
    "verify_enclosure",
    "BracketError",
    "EigBracket",
    "F_of",
    "bracket",
    "err_bound",
    "eta",
    "eta_range",
    "Certificate",
    "CertifyError",
    "RunConfig",
    "Schedule",
    "algorithm1",
    "algorithm2",
    "compute_point",
    "compute_points",
    "paper_config",
    "paper_schedule",
    "quick_config",
    "run_proof",
    "simplicity_check",
    "__version__",
]
