"""Generalized eigenvalue solves with certified a posteriori enclosures.

The floating-point eigensolve is treated as a heuristic that produces a
pair (rho, u).  Solver targets (a mirror half, or a whole space) of at
most DENSE_CUTOFF unknowns go to dense LAPACK, which computes only the
modes asked for; larger ones go to ARPACK shift-invert Lanczos.  The
cutoff is the crossover measured between the two backends, not a
memory limit.  Certification then rests only on

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

One rule splits the solves.  Operators that carry mirror-parity halves
(:attr:`fem.DiscreteOperators.halves`) are solved in them: the
nonconforming side in both halves, the conforming side in the symmetric
half alone.  Every map that certify._reference_operators builds carries
them, whatever its size, so every proof space is solved so; only
operators assembled directly carry none and are solved whole.  The
computed vectors are lifted to the whole space and certified there,
exactly as a whole-space vector would be, so the halves steer the solver
as sigma does and never enter a bound.  Each factorisation is made by
one of two backends: LAPACK's banded Cholesky in a half's band order
(:class:`fem.BandOrder`), which certify._reference_operators gives a
half, once per reference space, where the band is at most BAND_CUTOFF
wide; otherwise, and for every whole space, SuperLU with its own
fill-reducing order.  Both expect A - sigma M positive definite, sigma
below lambda_1: on any other matrix the banded Cholesky fails with a
diagnosis, and SuperLU may fail alike or steer Lanczos to another mode.

The rounding term sets delta.  Each Lanczos run stops at ARPACK's
relative tolerance LANCZOS_TOL = 1e-12, not at machine precision, and
its residual still lies far below the rounding term: Delta is a worst
case over every rounded term of the matrix-vector products, so
||Delta||_2 / sqrt(mu) is 10 to 5,400 times the exact ||r||_{M^{-1}}
over both families and constraints, n from 32 to 96 and theta from
0.05 to pi/3 (10 to 2,500 on the nonconforming side, the only one the
proof certifies this way).  Converging on to machine precision costs a
further restart cycle and changes the nonconforming delta by -6 % to
+1 % (-6 % only for the second mode at fl(pi/3), where lambda_2 =
lambda_3 is double).  Measuring r in the sharper M^{-1}-norm, which
needs a solve with M, would shrink delta by under 4 % on the
nonconforming side (12 % on the conforming one).

The conforming side needs none of this.  Its one certified number is
the Rayleigh quotient R(u) of :func:`ground_rayleigh`, and lambda_1 <=
R(u) holds for every u != 0, so that side computes a single mode, with
no guard mode and no residual bound, and its bound does not depend on
which mode the solver returned.  Its Lanczos run is shifted to a
certified lower bound sigma on lambda_1, where the ground mode is far
better separated than at 0; sigma only steers the solver, so a wrong
sigma costs solves or ends in a diagnosed error, never a bound below
lambda_1.  So does the symmetric half, which holds the ground mode: the
uniform mesh of T(theta) is acute (angles theta and (pi - theta)/2), so
the P1 Dirichlet stiffness is an M-matrix and, by Perron-Frobenius, the
ground mode positive; on edge-mean spaces it was measured symmetric.

On the nonconforming side (:func:`solve_lowest`), which INDEX each
enclosed eigenvalue has is the one trusted, uncertified step: enclosures
are labeled by the solver's ordering, and the Kato-Temple gap refinement
in :func:`verify_enclosure` is exact modulo that labeling.  Every
Lanczos run starts from v0 = ones.  On a whole space of T(theta) that
vector is mirror-symmetric, so in exact arithmetic its Krylov space holds
no antisymmetric mode: one enters only through rounding, after ARPACK
restarts (on CR 64 Dirichlet at theta = 1.0 the first cycle's third mode
is lambda_4, the second cycle's the antisymmetric lambda_3).  The split
solve runs each half from its own v0 = ones, so each half's modes are
reached without rounding, and the ordering is that of the union of the
two halves' spectra, which is the whole spectrum.  Every proof space is
solved so; only directly assembled operators (``tricert constants``)
still start a whole space from v0 = ones.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .fem import BandOrder, DiscreteOperators, Half
from .rounding import Interval, dn, up

_EPS = float(np.finfo(np.float64).eps)

# Largest solver target sent to dense LAPACK: the crossover measured on
# halves, run as the proof runs them (CR: both halves, three modes with
# HALF_NCV vectors; CG: the symmetric half, one mode shifted to 0.99
# lambda_1, GROUND_NCV vectors; each banded where the proof bands it).  CPU
# ms on one BLAS thread of a 2-vCPU VM, theta = 0.9, median of 15, dense /
# Lanczos, by unknowns per half (a CR time covers both halves):
#   CR Dirichlet  140/133: 4.8 / 8.5   184/176: 9.2 / 9.0   234/225: 17.1 / 8.9
#   CR edge-mean  159/153: 6.6 / 8.8   206/199: 14.0 / 9.1
#   CG Dirichlet  110: 1.4 / 1.7   132: 2.1 / 1.5   240: 9.5 / 1.9
#   CG edge-mean   98: 0.9 / 1.3   119: 1.7 / 1.7   167: 3.2 / 1.6
# The CG crossover lies near 120 unknowns, the CR one near 180.  The cutoff
# between them sends every quick-preset half to Lanczos (the smallest, CG
# 32 Dirichlet's, has 240 unknowns).
DENSE_CUTOFF = 150

# Widest band order that certify._reference_operators gives a mirror half,
# so that its shift-invert factor is LAPACK's banded Cholesky (dpbtrf,
# dpbtrs) in that order, not SuperLU.  On the uniform lattice the reverse
# Cuthill-McKee order of A and M has about one lattice row per band; the
# edge-mean elimination couples a whole parent side, so those bands are far
# wider.  ms per factor / per solve on one BLAS thread of a 2-vCPU VM,
# theta = 0.9, CG shifted to 0.99 lambda_1, median of 15 (31 per solve),
# banded / SuperLU, by width (whole spaces measured as points of the curve):
#   CG 32 Dirichlet whole    465,  30:  0.4 / 0.03    1.7 / 0.07
#   CG 96 Dirichlet half    2256,  47:  3.0 / 0.17    7.8 / 0.32
#   CR 32 Dirichlet whole   1488,  62:  1.4 / 0.12    3.5 / 0.18
#   CG 64 Dirichlet whole   1953,  62:  2.5 / 0.16    6.1 / 0.30
#   CR 64 Dirichlet half    3040,  63:  3.1 / 0.25    8.8 / 0.34
#   CR 64 edge-mean half    3103,  94:  7.3 / 0.29    8.2 / 0.34
#   CG 32 edge-mean whole    558, 121:  1.7 / 0.04    2.9 / 0.07
#   CR 128 Dirichlet half  12224, 127: 38.0 / 2.17   48.2 / 1.61
#   CG 288 Dirichlet half  20592, 143: 83.1 / 6.73  132.1 / 4.53
#   CG 96 edge-mean half    2399, 146:  9.5 / 0.27   10.5 / 0.38
#   CR 32 edge-mean whole   1581, 177:  6.7 / 0.17    4.4 / 0.20
#   CR 64 edge-mean half    3134, 184: 14.0 / 0.44    8.1 / 0.40
#   CG 192 edge-mean half   9407, 290: 75.7 / 4.83   60.6 / 1.79
# Up to width 63 the band factors 2.4 to 4 times faster and solves faster
# too.  From 94 to 146 the gain is under a fifth of a factor or is lost to
# slower solves over a run's 24 (CR 128: 90 against 87 ms), and above 170
# SuperLU wins.  The cutoff bands every Dirichlet half of the sweep and
# quick meshes and, of the edge-mean halves, only CG 32's and the
# antisymmetric one of CR 32 (widths 50 and 46); the published Dirichlet
# corner halves stay on SuperLU.
BAND_CUTOFF = 64

# Lanczos vectors for the shifted ground solve of ground_rayleigh.  Factor
# solves summed over every fourth point of both paper schedules (step-2
# breakpoints and J nodes) at CG 96, shifted to the corrected CR bound,
# stopping at LANCZOS_TOL, by ncv (ARPACK's default of 20 at sigma = 0
# makes 4189):  3: 868,  4: 1023,  5: 1215,  6: 1411,  8: 1803.
# The corner solves take 4 (Dirichlet 288) and 5 (edge-mean 192); only the
# thinnest Dirichlet angles still need 8 to 32 (theta = 0.1 down to 0.0209).
GROUND_NCV = 3

# Lanczos vectors for each half's run in _split_modes.  Factor solves per
# half run (symmetric, antisymmetric) on CR 32, 64 and 128, both
# constraints, at theta in {0.3, 0.5, 0.8, 1.0, fl(pi/3)}: at ARPACK's
# default of 20, 21 each, but 36 for the Dirichlet antisymmetric half at
# every such angle and size (a second restart cycle), and for both
# Dirichlet halves of CR 64 at fl(pi/3); at 23, 24 for every half.  The
# thin angles 0.05 and 0.1 take 21 to 69 either way.  Summed over every
# eighth breakpoint and every 25th J node of both paper schedules at CR 64,
# 23 takes 1,603 factor solves against 1,866 (Dirichlet) and 2,198 against
# 1,938 (edge-mean), in 3.34 s against 3.26 s.
HALF_NCV = 23

# ARPACK's relative stopping tolerance for every Lanczos run.  The
# running-error majorant, not the residual, sets delta (module docstring),
# so ARPACK's default of machine precision buys a further restart cycle
# and no certified digit: most CR 64 solves take 21 factor solves instead
# of 36 to 51.
LANCZOS_TOL = 1e-12


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


def _band_pack(half: Half, band: BandOrder, sigma: float) -> np.ndarray:
    """A - ``sigma`` M of ``half`` in the order ``band``, in LAPACK's upper
    band storage: entry (i, j), i <= j, of the permuted matrix at
    [w + i - j, j] of a (w + 1, n) array in column-major order, w the
    band's width.

    Each entry is formed as the sparse difference forms it, a - (sigma m),
    so the band holds the permuted upper triangle of A - sigma M bit for
    bit.
    """
    n, w = half.dim, band.width

    def upper(K):
        """The flat band positions and values of K's upper triangle."""
        j = band.rank[K.indices]
        d = j - band.rank[np.repeat(np.arange(n), np.diff(K.indptr))]
        # an entry outside the band would overwrite another's position
        if d.max(initial=0) > w:
            raise ValueError(f"operator pattern exceeds its band order's width {w}")
        keep = np.flatnonzero(d >= 0)
        return (w - d + (w + 1) * j)[keep], K.data[keep]

    ab = np.zeros((w + 1) * n)
    pos, vals = upper(half.A)
    ab[pos] = vals
    if sigma:
        pos, vals = upper(half.M)
        ab[pos] -= sigma * vals
    return ab.reshape((w + 1, n), order="F")


class _BandCholesky:
    """LAPACK banded Cholesky factor of A - sigma M (:func:`_band_pack`),
    solving in the unknowns' own order, as a SuperLU factor does."""

    def __init__(self, half: Half, band: BandOrder, sigma: float):
        self._band = band
        ab = _band_pack(half, band, sigma)
        self._factor, info = scipy.linalg.lapack.dpbtrf(ab, overwrite_ab=1)
        if info != 0:
            raise EigensolveError(
                f"shift-invert factorisation failed: banded Cholesky info {info} "
                "(A - sigma M is not positive definite)"
            )

    def solve(self, b: np.ndarray) -> np.ndarray:
        x, info = scipy.linalg.lapack.dpbtrs(self._factor, b[self._band.perm])
        if info != 0:
            raise EigensolveError(f"banded Cholesky solve failed: info {info}")
        return x[self._band.rank]


def _shift_invert_factor(target: DiscreteOperators | Half, sigma: float, band: BandOrder | None):
    """A factor of A - ``sigma`` M whose ``solve`` drives shift-invert
    Lanczos: banded Cholesky in ``band`` where one is given (a half's),
    SuperLU otherwise.

    A - sigma M is symmetric positive definite for sigma below the lowest
    eigenvalue, so both are stable there: Cholesky needs no pivoting, and
    SuperLU takes a symmetric fill-reducing ordering with diagonal pivots.
    Above it the Cholesky factorisation fails, and SuperLU may fail or steer
    Lanczos to another mode; every failure is an EigensolveError.
    """
    if band is not None:
        return _BandCholesky(target, band, sigma)
    shifted = target.A - sigma * target.M if sigma else target.A
    try:
        return spla.splu(
            shifted.tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
            options={"SymmetricMode": True},
        )
    except RuntimeError as exc:
        raise EigensolveError(f"shift-invert factorisation failed: {exc}") from exc


def _lowest_modes(
    target: DiscreteOperators | Half,
    k: int,
    sigma: float = 0.0,
    ncv: int | None = None,
    band: BandOrder | None = None,
) -> np.ndarray:
    """The floating-point backend: the ``k`` lowest eigenvectors of
    ``target``, a half or a whole space, as columns in ascending order of
    their eigenvalues.

    Dense LAPACK runs up to DENSE_CUTOFF unknowns (the measured
    crossover) or when more than dim modes are asked for, and the
    shift-invert Lanczos solver otherwise, on A - ``sigma`` M factorised
    in ``band`` (:func:`_shift_invert_factor`) with ``ncv`` Lanczos
    vectors (ARPACK's default when None), stopping at LANCZOS_TOL.  Dense
    LAPACK yields at most dim modes and Lanczos at most dim - 1, so fewer
    than ``k`` may come back.  Nothing returned is certified; every failure of either
    backend is an EigensolveError.
    """
    n = target.dim
    if n <= DENSE_CUTOFF or k > n:
        try:
            vals, vecs = scipy.linalg.eigh(
                target.A.toarray(), target.M.toarray(), subset_by_index=[0, min(k, n) - 1]
            )
        except np.linalg.LinAlgError as exc:
            raise EigensolveError(f"dense generalized eigensolve failed: {exc}") from exc
    else:
        factor = _shift_invert_factor(target, sigma, band)
        opinv = spla.LinearOperator((n, n), matvec=factor.solve, dtype=np.float64)
        try:
            vals, vecs = spla.eigsh(
                target.A, k=min(k, n - 1), M=target.M, sigma=sigma, which="LM",
                v0=np.ones(n), ncv=ncv, tol=LANCZOS_TOL, OPinv=opinv,
            )
        except spla.ArpackError as exc:
            raise EigensolveError(f"ARPACK failed: {exc}") from exc
        order = np.argsort(vals)
        vals, vecs = vals[order], vecs[:, order]
    if not np.all(np.isfinite(vals)):
        raise EigensolveError("solver returned non-finite eigenvalues")
    return vecs


def _split_modes(halves: Sequence[Half], k: int) -> np.ndarray:
    """The ``k`` lowest modes of the union of the halves' spectra, as
    columns in the space's reduced coordinates, in ascending order of
    their Ritz values.

    Each half's backend run (as in :func:`_lowest_modes`) computes ``k``
    modes, so the union holds the ``k`` lowest of the whole pencil,
    which is the direct sum of the halves.  Nothing returned is
    certified.
    """
    ritz, lifted = [], []
    for half in halves:
        vecs = _lowest_modes(half, k, ncv=HALF_NCV, band=half.band)
        ritz.extend(
            float(v @ (half.A @ v)) / float(v @ (half.M @ v)) for v in vecs.T
        )
        lifted.append(half.C @ vecs)
    order = np.argsort(ritz, kind="stable")[:k]
    return np.hstack(lifted)[:, order]


def solve_lowest(ops: DiscreteOperators, count: int = 1) -> list[EigenEnclosure]:
    """Certified enclosures for the ``count`` lowest modes.

    The backend is chosen as in :func:`_lowest_modes`; certification is
    identical either way.  ``count`` + 1 modes are computed, the last
    one a guard for the ordering, where the space has that many.  When
    ``ops`` carries both mirror-parity halves, the modes are computed in
    each half by :func:`_split_modes`, otherwise in the whole space, and
    certified on ``ops``, as any other vector would be.

    Raises EigensolveError on solver non-convergence; never silently
    substitutes approximate results.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    n = ops.dim
    if count > n:
        raise ValueError(f"requested {count} modes from a {n}-dimensional space")
    if len(ops.halves) == 2:
        vecs = _split_modes(ops.halves, count + 1)
    else:
        vecs = _lowest_modes(ops, count + 1)
    return [_certify(ops, _normalize(ops.M, vecs[:, i]), i + 1) for i in range(count)]


def ground_rayleigh(ops: DiscreteOperators, below: float) -> RayleighBound:
    """Certified Rayleigh upper bound on lambda_1 from one computed mode.

    ``below`` is a lower bound on the lowest eigenvalue of the pencil,
    such as the corrected CR bound.  Shift-invert Lanczos runs at sigma =
    ``below`` with GROUND_NCV vectors: just below the wanted eigenvalue
    the ground mode is far better separated than at 0, so ARPACK
    converges in a handful of factor solves.  The dense backend (chosen
    as in :func:`solve_lowest`) ignores the shift.  When ``ops`` carries
    mirror-parity halves, the mode is computed in the first and lifted.
    Only the quadratic forms u^T A u and u^T M u are certified, on
    ``ops``: neither a residual bound nor an index is needed for lambda_1
    <= R(u), so the bound holds whatever ``below`` and the half are; a
    shift at or above the ground eigenvalue, or a half that lacks the
    ground mode, can only return a larger R(u) or end in an
    EigensolveError.
    """
    if not ops.halves:
        u = _lowest_modes(ops, 1, sigma=below, ncv=GROUND_NCV)[:, 0]
    else:
        half = ops.halves[0]
        u = half.C @ _lowest_modes(half, 1, sigma=below, ncv=GROUND_NCV, band=half.band)[:, 0]
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
