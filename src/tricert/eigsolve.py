"""Generalized eigenvalue solves with certified a posteriori enclosures.

The floating-point eigensolve is treated as a heuristic that produces a
pair (rho, u).  Spaces of at most DENSE_CUTOFF unknowns go to dense
LAPACK, which computes only the modes asked for; larger ones go to
ARPACK shift-invert Lanczos.  The cutoff is the crossover measured
between the two backends, not a memory limit.  Certification then
rests only on

    min_k |lambda_k - rho| <= ||A u - rho M u||_{M^{-1}} / ||u||_M,

which holds for any rho and u.  The M^{-1}-norm of the residual is
bounded through a certified lower bound mu on the smallest eigenvalue
of M: M >= mu I gives ||x||_{M^{-1}} <= ||x||_2 / sqrt(mu), and the true
residual x differs from the computed one r by at most a running-error
majorant Delta, so

    ||x||_{M^{-1}} <= (||r||_2 + ||Delta||_2) / sqrt(mu).

||u||_M is bounded below by its certified quadratic form, and every
step is rounded outward, so the final enclosure [rho - delta,
rho + delta] is mathematically guaranteed to contain at least one
eigenvalue.  No system with M is solved; the only factorisations are
the ones that drive the shift-invert Lanczos solver: of A on the
nonconforming side, of A - sigma M on the conforming side.

The rounding term sets delta.  For a converged pair ||r||_2 is itself
at rounding level, while Delta is a worst case over every rounded term
of the matrix-vector products, so ||Delta||_2 / sqrt(mu) is 14 to 5,700
times the exact ||r||_{M^{-1}} over both families and constraints,
n from 32 to 96 and theta from 0.05 to pi/3.  Measuring r in the
sharper M^{-1}-norm, which needs a solve with M, would shrink delta by
under 5 %.

The conforming side needs none of this.  Its one certified number is
the Rayleigh quotient R(u) of :func:`ground_rayleigh`, and lambda_1 <=
R(u) holds for every u != 0, so that side computes a single mode, with
no guard mode and no residual bound, and its bound does not depend on
which mode the solver returned.  Its Lanczos run is shifted to a
certified lower bound sigma on lambda_1, where the ground mode is far
better separated than at 0; sigma only steers the solver, so a wrong
sigma costs solves or ends in a diagnosed error, never a bound below
lambda_1.

On the nonconforming side (:func:`solve_lowest`), which INDEX each
enclosed eigenvalue has is the one trusted, uncertified step: enclosures
are labeled by the solver's ordering, and the Kato-Temple gap refinement
in :func:`verify_enclosure` is exact modulo that labeling.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .fem import DiscreteOperators
from .rounding import Interval, dn, up

_EPS = float(np.finfo(np.float64).eps)

# Largest space sent to dense LAPACK: the crossover measured for
# solve_lowest(ops, 2) on a 2-core VM, median of 15 runs in ms, dense
# (count + 1 modes) / shift-invert Lanczos, by number of unknowns:
#   171: 9.6 / 14.0   253: 11.5 / 13.7   322: 17.9 / 18.9
#   351: 19.6 / 17.7  465: 37.5 / 12.4   558: 59.1 / 25.7
DENSE_CUTOFF = 330

# Lanczos vectors for the shifted ground solve of ground_rayleigh.  Factor
# solves summed over every fourth point of both paper schedules at CG 96,
# shifted to the corrected CR bound, by ncv (ARPACK's default of 20 at
# sigma = 0 makes 4178):  3: 1068,  4: 1090,  5: 1221,  6: 1413,  8: 1798.
# The corner solves take 5 (Dirichlet 288) and 6 (edge-mean 192); only the
# thinnest Dirichlet angles still need 30 to 42, about as many as unshifted.
GROUND_NCV = 3


class EigensolveError(RuntimeError):
    """Eigensolve did not converge or certification failed."""


@dataclass(frozen=True)
class EigenEnclosure:
    """Certified enclosure [lower, upper] around the k-th computed mode.

    rho encloses the Rayleigh quotient of ``vector``, as certified when
    the enclosure was made.
    """

    k: int                      # 1-based solver ordering
    lower: float
    upper: float
    rho: Interval
    residual_bound: float
    vector: np.ndarray
    gap_refined: bool = False

    @property
    def rayleigh(self) -> float:
        return self.rho.mid

    @property
    def width(self) -> float:
        return self.upper - self.lower

    def __contains__(self, x: float) -> bool:
        return self.lower <= x <= self.upper


def _gamma(k: int) -> float:
    ke = k * _EPS
    if ke >= 0.5:
        raise EigensolveError("dimension too large for running-error bounds")
    return ke / (1.0 - ke)


def _max_row_nnz(K: sp.csr_matrix) -> int:
    return int(np.max(np.diff(K.indptr))) if K.shape[0] else 0


def _abs(K: sp.csr_matrix) -> sp.csr_matrix:
    out = K.copy()
    out.data = np.abs(out.data)
    return out


def quad_form_interval(K: sp.csr_matrix, u: np.ndarray) -> Interval:
    """Enclosure of u^T K u including accumulated rounding error."""
    Ku = K @ u
    val = float(u @ Ku)
    maj = float(np.abs(u) @ (_abs(K) @ np.abs(u)))
    err = _gamma(_max_row_nnz(K) + u.size + 2) * up(maj, 4)
    return Interval(dn(val - err, 4), up(val + err, 4))


def _norm2_upper(x: np.ndarray) -> float:
    return up(float(np.linalg.norm(x)) * (1.0 + _gamma(x.size + 2)), 4)


def residual_bound(ops: DiscreteOperators, u: np.ndarray, rho: float) -> float:
    """Certified upper bound on ||A u - rho M u||_{M^{-1}}.

    With mu = ``ops.mass_min_eig_lower()``, M >= mu I, so every x has
    ||x||_{M^{-1}} <= ||x||_2 / sqrt(mu).  The true residual x differs
    from the computed one r by the elementwise rounding error Delta,
    bounded by a running-error majorant, hence

        ||x||_{M^{-1}} <= (||r||_2 + ||Delta||_2) / sqrt(mu),

    evaluated with outward rounding.  The majorant counts every term of
    the matrix-vector products in absolute value, times gamma of the
    largest row count, so it exceeds the residual of a converged pair by
    one to three orders of magnitude and sets the bound (module
    docstring).
    """
    A, M = ops.A, ops.M
    Au = A @ u
    Mu = M @ u
    r = Au - rho * Mu

    au_abs = _abs(A) @ np.abs(u)
    mu_abs = _abs(M) @ np.abs(u)
    m = max(_max_row_nnz(A), _max_row_nnz(M))
    delta_elem = _gamma(m + 3) * (au_abs + abs(rho) * mu_abs + np.abs(r))

    sqrt_mu = dn(float(np.sqrt(ops.mass_min_eig_lower())), 2)
    return up(up(_norm2_upper(r) + _norm2_upper(delta_elem), 2) / sqrt_mu, 4)


@dataclass(frozen=True)
class RayleighBound:
    """Certified Rayleigh quotient rho of ``vector`` and its M-form.

    lambda_1 <= rho.hi holds for any nonzero vector, whichever mode the
    solver returned, so rho.hi is a certified upper bound on lambda_1.
    """

    rho: Interval
    mass_form: Interval
    vector: np.ndarray


def _rayleigh(ops: DiscreteOperators, u: np.ndarray) -> RayleighBound:
    num = quad_form_interval(ops.A, u)
    den = quad_form_interval(ops.M, u)
    if den.lo <= 0.0:
        raise EigensolveError("mass quadratic form not certifiably positive")
    return RayleighBound(num / den, den, u)


def _certify(ops: DiscreteOperators, u: np.ndarray, k: int) -> EigenEnclosure:
    ray = _rayleigh(ops, u)
    rho, mass = ray.rho, ray.mass_form
    # delta bounds ||r||_{M^{-1}} / ||u||_M, so divide by a certified lower
    # bound on ||u||_M; u need not be normalised
    delta = up(residual_bound(ops, u, rho.mid) / dn(float(np.sqrt(mass.lo)), 2), 2)
    # enclosure around the Rayleigh interval; the residual was taken at its
    # midpoint, so widen by the interval radius as well
    rad = up(delta + 0.5 * rho.width, 4)
    lower = dn(rho.mid - rad, 4)
    upper = up(rho.mid + rad, 4)
    if k == 1:
        # unconditional Rayleigh bound lambda_1 <= R(u)
        upper = min(upper, up(rho.hi, 4))
    return EigenEnclosure(k, lower, upper, rho, delta, u)


def _normalize(M: sp.csr_matrix, u: np.ndarray) -> np.ndarray:
    u = np.ascontiguousarray(u)
    nrm = float(np.sqrt(u @ (M @ u)))
    if not np.isfinite(nrm) or nrm <= 0.0:
        raise EigensolveError("eigenvector has nonpositive mass norm")
    u = u / nrm
    j = int(np.argmax(np.abs(u)))
    return -u if u[j] < 0.0 else u


def _lowest_modes(
    ops: DiscreteOperators, k: int, sigma: float = 0.0, ncv: int | None = None
) -> np.ndarray:
    """The floating-point backend: the ``k`` lowest eigenvectors, as
    columns in ascending order of their eigenvalues.

    Dense LAPACK runs up to DENSE_CUTOFF unknowns (the measured
    crossover) or when more than dim modes are asked for, and the
    shift-invert Lanczos solver otherwise, on A - ``sigma`` M with
    ``ncv`` Lanczos vectors (ARPACK's default when None).  Dense LAPACK
    yields at most dim modes and Lanczos at most dim - 1, so fewer than
    ``k`` may come back.  Nothing returned is certified.
    """
    n = ops.dim
    if n <= DENSE_CUTOFF or k > n:
        vals, vecs = scipy.linalg.eigh(
            ops.A.toarray(), ops.M.toarray(), subset_by_index=[0, min(k, n) - 1]
        )
    else:
        # A - sigma M is symmetric positive definite for sigma below the
        # lowest eigenvalue, so a symmetric fill-reducing ordering with
        # diagonal pivots is stable there; above it the factor may fail,
        # which is diagnosed, or steer Lanczos to another mode
        shifted = ops.A - sigma * ops.M if sigma else ops.A
        try:
            lu = spla.splu(
                shifted.tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                options={"SymmetricMode": True},
            )
        except RuntimeError as exc:
            raise EigensolveError(f"shift-invert factorisation failed: {exc}") from exc
        opinv = spla.LinearOperator((n, n), matvec=lu.solve, dtype=np.float64)
        try:
            vals, vecs = spla.eigsh(
                ops.A, k=min(k, n - 1), M=ops.M, sigma=sigma, which="LM",
                v0=np.ones(n), ncv=ncv, OPinv=opinv,
            )
        except spla.ArpackNoConvergence as exc:
            raise EigensolveError(f"ARPACK did not converge: {exc}") from exc
        order = np.argsort(vals)
        vals, vecs = vals[order], vecs[:, order]
    if not np.all(np.isfinite(vals)):
        raise EigensolveError("solver returned non-finite eigenvalues")
    return vecs


def solve_lowest(ops: DiscreteOperators, count: int = 1) -> list[EigenEnclosure]:
    """Certified enclosures for the ``count`` lowest modes.

    The backend is chosen as in :func:`_lowest_modes`; certification is
    identical either way.  ``count`` + 1 modes are computed, the last
    one a guard for the ordering, where the space has that many.

    Raises EigensolveError on solver non-convergence; never silently
    substitutes approximate results.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    n = ops.dim
    if count > n:
        raise ValueError(f"requested {count} modes from a {n}-dimensional space")
    vecs = _lowest_modes(ops, count + 1)
    return [_certify(ops, _normalize(ops.M, vecs[:, i]), i + 1) for i in range(count)]


def ground_rayleigh(ops: DiscreteOperators, below: float) -> RayleighBound:
    """Certified Rayleigh upper bound on lambda_1 from one computed mode.

    ``below`` is a lower bound on the lowest eigenvalue of the pencil,
    such as the corrected CR bound.  Shift-invert Lanczos runs at sigma =
    ``below`` with GROUND_NCV vectors: just below the wanted eigenvalue
    the ground mode is far better separated than at 0, so ARPACK
    converges in a handful of factor solves.  The dense backend (chosen
    as in :func:`solve_lowest`) ignores the shift.  Only the quadratic
    forms u^T A u and u^T M u are certified: neither a residual bound nor
    an index is needed for lambda_1 <= R(u), so the bound holds whatever
    ``below`` is; a shift at or above the ground eigenvalue can only
    return a larger R(u) or end in an EigensolveError.
    """
    u = _lowest_modes(ops, 1, sigma=below, ncv=GROUND_NCV)[:, 0]
    return _rayleigh(ops, _normalize(ops.M, u))


def verify_enclosure(
    enclosure: EigenEnclosure, neighbors: tuple[EigenEnclosure, ...] = ()
) -> EigenEnclosure:
    """Apply the Kato-Temple gap refinement to a certified enclosure.

    ``enclosure`` and ``neighbors`` must come from one :func:`solve_lowest`
    call: the enclosure's bounds, its stored Rayleigh interval and its
    residual bound delta are used as certified, not computed again.  If
    a neighbor enclosure lies certifiably above this one, the spectral
    gap tightens the lower end to rho - delta^2 / (beta - rho).
    Overlapping or absent neighbors leave the enclosure unchanged,
    flagged ``gap_refined=False``.
    """
    lower, upper = enclosure.lower, enclosure.upper

    betas = [nb.lower for nb in neighbors if nb.k > enclosure.k and nb.lower > upper]
    refined = False
    if betas:
        beta = min(betas)
        rho = enclosure.rho
        gap = dn(beta - rho.hi, 2)
        if gap > 0.0:
            d2 = up(enclosure.residual_bound * enclosure.residual_bound, 2)
            kt = dn(rho.lo - up(d2 / gap, 2), 4)
            if kt > lower:
                lower = kt
                refined = True

    if lower > upper:
        raise EigensolveError("inconsistent enclosure after refinement")
    return replace(enclosure, lower=lower, gap_refined=refined)
