"""Generalized eigenvalue solves with certified a posteriori enclosures.

The floating-point eigensolve (dense LAPACK for small problems, ARPACK
shift-invert otherwise) is treated as a heuristic that produces a pair
(rho, u).  Certification then rests only on

    min_k |lambda_k - rho| <= ||A u - rho M u||_{M^{-1}} / ||u||_M,

which holds for any rho and u.  The M^{-1}-norm of the residual is
bounded rigorously through an approximate solve M z ~ r, a bound on the
smallest mass eigenvalue, and running-error majorants for every dot
product and matrix-vector product involved, so the final enclosure
[rho - delta, rho + delta] is mathematically guaranteed to contain at
least one eigenvalue.  The bound holds for any z, because the defect
M z - r enters it explicitly; z only has to be accurate for the bound to
be tight.  M is never factorised: its Jacobi-scaled condition number is
bounded independently of the mesh size, so Jacobi-preconditioned
conjugate gradients reach a defect near rounding level in a few dozen
iterations.  The only factorisation is the one of A that drives the
shift-invert Lanczos solver.

Which INDEX that eigenvalue has is the one trusted, uncertified step:
enclosures are labeled by the solver's ordering.  The Rayleigh quotient
upper bound lambda_1 <= R(u), and the Kato-Temple gap refinement in
:func:`verify_enclosure`, are exact modulo that labeling.
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

DENSE_CUTOFF = 600
# Jacobi-preconditioned CG on the mass matrix converges at a rate fixed by
# the element shapes, not by h or the angle: 1 (CR, M diagonal) to 61
# (conforming edge-mean) iterations on meshes up to n = 288
_MASS_CG_MAXITER = 500


class EigensolveError(RuntimeError):
    """Eigensolve did not converge or certification failed."""


@dataclass(frozen=True)
class EigenEnclosure:
    """Certified enclosure [lower, upper] around the k-th computed mode."""

    k: int                      # 1-based solver ordering
    lower: float
    upper: float
    rayleigh: float
    residual_bound: float
    vector: np.ndarray
    gap_refined: bool = False

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


def _dot_interval(x: np.ndarray, y: np.ndarray) -> Interval:
    val = float(x @ y)
    maj = float(np.abs(x) @ np.abs(y))
    err = _gamma(x.size + 1) * up(maj, 4)
    return Interval(dn(val - err, 4), up(val + err, 4))


def _norm2_upper(x: np.ndarray) -> float:
    return up(float(np.linalg.norm(x)) * (1.0 + _gamma(x.size + 2)), 4)


def residual_bound(ops: DiscreteOperators, u: np.ndarray, rho: float) -> float:
    """Certified upper bound on ||A u - rho M u||_{M^{-1}}.

    Let r be the computed residual and Delta its elementwise rounding
    error, bounded by a running-error majorant.  With z any vector and
    s = M z - r its defect,

        ||r||_{M^{-1}}^2 <= r^T z + ||r||_{M^{-1}} ||s||_2 / sqrt(mu),

    where mu is a lower bound on the smallest eigenvalue of M; solving
    the quadratic and adding ||Delta||_2 / sqrt(mu) covers the true
    residual.  The defect s and its own rounding error are bounded
    explicitly, so the bound does not depend on how z was obtained.
    Here z comes from Jacobi-preconditioned conjugate gradients, which
    needs no factorisation of M.
    """
    A, M = ops.A, ops.M
    Au = A @ u
    Mu = M @ u
    r = Au - rho * Mu

    au_abs = _abs(A) @ np.abs(u)
    mu_abs = _abs(M) @ np.abs(u)
    m = max(_max_row_nnz(A), _max_row_nnz(M))
    delta_elem = _gamma(m + 3) * (au_abs + abs(rho) * mu_abs + np.abs(r))
    delta2 = _norm2_upper(delta_elem)

    mu_low = ops.mass_min_eig_lower()
    sqrt_mu = dn(float(np.sqrt(mu_low)), 2)

    jacobi = sp.diags(1.0 / M.diagonal())
    z, _ = spla.cg(M, r, rtol=1e-15, atol=0.0, maxiter=_MASS_CG_MAXITER, M=jacobi)
    s = M @ z - r
    # rounding error of s itself, folded into its norm
    s_maj = _gamma(_max_row_nnz(M) + 2) * (_abs(M) @ np.abs(z) + np.abs(r))
    s_norm = up(_norm2_upper(s) + _norm2_upper(s_maj), 2)

    rz = _dot_interval(r, z)
    rz_hi = max(rz.hi, 0.0)
    q = up(s_norm / sqrt_mu, 2)
    # nu^2 - q nu - rz <= 0  =>  nu <= (q + sqrt(q^2 + 4 rz)) / 2
    nu = up(0.5 * (q + float(np.sqrt(up(q * q + 4.0 * rz_hi, 2)))), 4)
    return up(nu + up(delta2 / sqrt_mu, 2), 4)


def _certify(ops: DiscreteOperators, rho_float: float, u: np.ndarray, k: int) -> EigenEnclosure:
    num = quad_form_interval(ops.A, u)
    den = quad_form_interval(ops.M, u)
    if den.lo <= 0.0:
        raise EigensolveError("mass quadratic form not certifiably positive")
    rho = num / den
    delta = residual_bound(ops, u, rho.mid)
    # enclosure around the Rayleigh interval; the residual was taken at its
    # midpoint, so widen by the interval radius as well
    rad = up(delta + 0.5 * rho.width, 4)
    lower = dn(rho.mid - rad, 4)
    upper = up(rho.mid + rad, 4)
    if k == 1:
        # unconditional Rayleigh bound lambda_1 <= R(u)
        upper = min(upper, up(rho.hi, 4))
    return EigenEnclosure(k, lower, upper, rho.mid, delta, u)


def _normalize(M: sp.csr_matrix, u: np.ndarray) -> np.ndarray:
    nrm = float(np.sqrt(u @ (M @ u)))
    if not np.isfinite(nrm) or nrm <= 0.0:
        raise EigensolveError("eigenvector has nonpositive mass norm")
    u = u / nrm
    j = int(np.argmax(np.abs(u)))
    return -u if u[j] < 0.0 else u


def solve_lowest(
    ops: DiscreteOperators, count: int = 1, method: str = "auto"
) -> list[EigenEnclosure]:
    """Certified enclosures for the ``count`` lowest modes.

    method: "auto" picks dense below DENSE_CUTOFF unknowns and the
    shift-invert Lanczos solver above; "dense" / "sparse" force one
    backend (certification is identical either way).

    Raises EigensolveError on solver non-convergence; never silently
    substitutes approximate results.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if method not in ("auto", "dense", "sparse"):
        raise ValueError(f"method must be auto, dense or sparse, got {method!r}")
    n = ops.dim
    if count > n:
        raise ValueError(f"requested {count} modes from a {n}-dimensional space")

    if method == "dense" or (method == "auto" and n <= DENSE_CUTOFF):
        vals, vecs = scipy.linalg.eigh(ops.A.toarray(), ops.M.toarray())
    else:
        k = min(count + 1, n - 1)  # one guard mode for ordering
        v0 = np.ones(n)
        # A is symmetric positive definite on every space, so a symmetric
        # fill-reducing ordering with diagonal pivots is stable
        try:
            lu = spla.splu(
                ops.A.tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                options={"SymmetricMode": True},
            )
        except RuntimeError as exc:
            raise EigensolveError(f"shift-invert factorisation failed: {exc}") from exc
        opinv = spla.LinearOperator((n, n), matvec=lu.solve, dtype=np.float64)
        try:
            vals, vecs = spla.eigsh(
                ops.A, k=k, M=ops.M, sigma=0.0, which="LM", v0=v0, OPinv=opinv
            )
        except spla.ArpackNoConvergence as exc:
            raise EigensolveError(f"ARPACK did not converge: {exc}") from exc
        order = np.argsort(vals)
        vals, vecs = vals[order], vecs[:, order]

    if not np.all(np.isfinite(vals[:count])):
        raise EigensolveError("solver returned non-finite eigenvalues")

    out = []
    for i in range(count):
        u = _normalize(ops.M, np.ascontiguousarray(vecs[:, i]))
        out.append(_certify(ops, float(vals[i]), u, i + 1))
    return out


def verify_enclosure(
    ops: DiscreteOperators,
    enclosure: EigenEnclosure,
    neighbors: tuple[EigenEnclosure, ...] = (),
) -> EigenEnclosure:
    """Re-verify an enclosure and apply the Kato-Temple gap refinement.

    The residual certificate is recomputed from the stored vector.  If a
    neighbor enclosure lies certifiably above this one, the spectral gap
    tightens the lower end to rho - delta^2 / (beta - rho).  Overlapping
    or absent neighbors leave the enclosure unchanged, flagged
    ``gap_refined=False``.
    """
    fresh = _certify(ops, enclosure.rayleigh, enclosure.vector, enclosure.k)
    lower, upper = fresh.lower, fresh.upper

    betas = [nb.lower for nb in neighbors if nb.k > enclosure.k and nb.lower > upper]
    refined = False
    if betas:
        beta = min(betas)
        rho = quad_form_interval(ops.A, enclosure.vector) / quad_form_interval(
            ops.M, enclosure.vector
        )
        gap = dn(beta - rho.hi, 2)
        if gap > 0.0:
            d2 = up(fresh.residual_bound * fresh.residual_bound, 2)
            kt = dn(rho.lo - up(d2 / gap, 2), 4)
            if kt > lower:
                lower = kt
                refined = True

    if lower > upper:
        raise EigensolveError("inconsistent enclosure after refinement")
    return replace(fresh, lower=lower, upper=upper, gap_refined=refined)
