"""Generalized eigenvalue solves with certified a posteriori enclosures.

The floating-point eigensolve is treated as a heuristic that produces a
pair (rho, u).  Solver targets (the parts of a space, below) of at most
DENSE_CUTOFF unknowns go to dense LAPACK, which computes only the modes
asked for; larger ones go to ARPACK's Lanczos solver, shift-inverted and
symmetrised by a Cholesky factor (below).  The cutoff is the crossover
measured between the two backends, not a memory limit.  Certification
then rests only on

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
the ones that drive the Lanczos solver: of A on the nonconforming side,
of A - sigma M on the conforming side.

Every solve runs in parts (:attr:`fem.DiscreteOperators.halves`), which
fem.ReferenceMap.with_halves builds: a mirror-parity half of T(theta),
or the whole space spanned by both parity bases, which serves a triangle
with no mirror (``tricert constants``).  The nonconforming side solves in
parts that span the space, the proof in both halves; the conforming side
in the first part alone, the proof in the symmetric half.  Operators
that carry no parts, such as those assembled directly, are refused.  The
computed vectors are lifted to the whole space and certified there,
exactly as a whole-space vector would be, so the parts steer the solver
as sigma does and never enter a bound.  Every part is factorised by
LAPACK's banded Cholesky in its band order (:class:`fem.BandOrder`),
which with_halves fixes once per reference space, however wide, and
stores the part in, so that no solve permutes a vector or a matrix: on
the uniform lattice a half's band holds about one lattice row, and the
whole part's about two (112 wide on CR 64 edge-mean, 116 on CG 96
edge-mean).
Measured against a general sparse LU (SuperLU, with its own
fill-reducing order; one BLAS thread, theta = 0.9, median of 15), the
banded factor is 2.5 to 7 times faster on the quick and sweep halves
(15 to 64 wide), and a warm corner point (114 to 143 wide) takes as long
or less: 0.066 to 0.086 s of CPU against 0.094 to 0.116 s on edge-mean,
0.37 to 0.46 s against 0.36 to 0.44 s on Dirichlet.  The factor expects
A - sigma M positive definite, sigma below lambda_1: on any other matrix
it fails with a diagnosis.

Lanczos runs on that factor in standard form: the spectral
transformation of Ericsson and Ruhe (Math. Comp. 35, 1980), symmetrised
as the ARPACK Users' Guide (Lehoucq, Sorensen and Yang, SIAM 1998)
recommends where a Cholesky factor of A - sigma M = U^T U is at hand.
A x = lambda M x holds exactly when the symmetric operator U^{-T} M
U^{-1} has the eigenpair (mu, y) = (1 / (lambda - sigma), U x), so the
modes nearest above sigma have the largest mu, and ARPACK runs in its
standard mode, with no M-inner product: each step of its reverse
communication is one application of the operator, two triangular band
solves and one product with M, and one more triangular solve per mode
recovers x = U^{-1} y.  Generalised shift-invert (ARPACK's mode 3)
took about four steps per factor solve, three of them products with M,
besides its own M-norms.  Against the mode-3 path this module ran
before, on the same factors, in one process, alternating (one BLAS
thread, theta = 0.9, median of 21): the three-mode runs of both CR 32
halves take 0.59 to 0.60 times as long, of the CR 64 halves 0.84 to
0.85 times, and of the CR 128 halves 0.96 times; whole point solves
take 0.64 to 0.67 times as long at CG/CR 32, 0.83 to 0.86 times at CG
96 / CR 64, and 0.98 to 1.01 times at the corner meshes (fl(pi/3)),
where the triangular solves of the factor dominate either way.

The rounding term sets delta.  Each Lanczos run stops at ARPACK's
relative tolerance LANCZOS_TOL = 1e-12, not at machine precision, and
its residual still lies far below the rounding term: Delta is a worst
case over every rounded term of the matrix-vector products, so
||Delta||_2 / sqrt(mu) is 13 to 780 times the exact ||r||_{M^{-1}} on
the nonconforming side, the only one the proof certifies this way (34
to 460 for the conforming ground mode), over both constraints, the
proof's parts at n = 32, 64 and 96, and theta in {0.05, 0.1, 0.3, 0.9,
fl(pi/3)}.  Converging on to machine precision costs a further restart
cycle (LANCZOS_TOL) and changes the nonconforming delta by -0.4 % to
+0.2 %.  Measuring r in the sharper M^{-1}-norm, which needs a solve
with M, would shrink delta by under 3 % on the nonconforming side (9 %
on the conforming one).

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
Lanczos run starts from y0 = ones, in the coordinates of its standard
form, which are its part's band-ordered coordinates transformed by U:
the pencil's start is x0 = U^{-1} ones.  Ones in a space's reduced
coordinates would be mirror-symmetric on T(theta), so in exact
arithmetic its Krylov space would hold no antisymmetric mode: one would
enter only through rounding, after ARPACK restarts (on CR 64 Dirichlet
at theta = 1.0 the first cycle's third mode is lambda_4, the second
cycle's the antisymmetric lambda_3).  Each half holds one parity and
runs from its own y0 = ones, so each half's modes are reached without
rounding, and the ordering is that of the union of the two halves'
spectra, which is the whole spectrum.  In the whole part's coordinates
ones has a component in each parity basis, and on T(theta), where A -
sigma M couples none of one basis to the other, so has U^{-1} ones: there
too the Krylov space holds the modes of both halves from the start.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .fem import DiscreteOperators, Half
from .rounding import Interval, dn, up

_EPS = float(np.finfo(np.float64).eps)

# Largest part sent to dense LAPACK: the crossover measured on the
# proof's halves, run as the proof runs them (CR: both halves, three modes
# with HALF_NCV vectors; CG: the symmetric half, one mode shifted to 0.99
# lambda_1, GROUND_NCV vectors; each banded, as the proof bands it).  CPU
# ms on one BLAS thread of a 2-vCPU VM, theta = 0.9, median of 25, dense /
# Lanczos, by unknowns per half (a CR time covers both halves):
#   CR Dirichlet   85/80: 1.0 / 1.4   102/96: 1.4 / 1.5   120/114: 1.8 / 1.5
#   CR edge-mean   83/79: 1.1 / 1.5   100/95: 1.4 / 1.4   118/113: 1.8 / 1.4
#   CG Dirichlet   56: 0.2 / 0.2   64: 0.2 / 0.2   72: 0.3 / 0.2   90: 0.5 / 0.3
#   CG edge-mean   54: 0.2 / 0.3   62: 0.3 / 0.3   70: 0.3 / 0.3   88: 0.4 / 0.3
# The CG crossover lies near 65 unknowns, the CR one near 100; under
# generalised shift-invert they lay near 120 and 180, and the cutoff was
# 150.  The cutoff between them sends every quick-preset half to Lanczos
# (the smallest, CG 32 Dirichlet's, has 240 unknowns), and every whole
# part of ``tricert constants`` at its default meshes (thousands of
# unknowns).
DENSE_CUTOFF = 90

# Lanczos vectors for the shifted ground solve of ground_rayleigh.
# Operator applications summed over every fourth point of both paper
# schedules (step-2 breakpoints and J nodes) at CG 96, shifted to the
# corrected CR bound, stopping at LANCZOS_TOL, by ncv (ARPACK's default of
# 20 at sigma = 0 makes 4189):  3: 1030,  4: 1023,  5: 1215,  6: 1411,
# 8: 1803.  4 saves 7 of them over those 199 points, but costs one more at
# the Dirichlet corner (CG 288: 4 at 3, 5 at 4; edge-mean CG 192: 5 at
# either), the costliest solve of a proof, so 3 stays.  Every paper
# breakpoint at CG 96 takes 5 or 6 from theta = 0.3 up, and 5 on
# edge-mean down to 0.0209; only the thinnest Dirichlet angles need more,
# 8 at theta = 0.1 and 9 to 33 at the four breakpoints below it.
GROUND_NCV = 3

# Lanczos vectors for each half's run in _split_modes.  Operator
# applications per half run (symmetric/antisymmetric) on CR 32, 64 and
# 128, both constraints, at theta in {0.3, 0.5, 0.8, 1.0, fl(pi/3)}: at
# ARPACK's default of 20, 21 each, but 36 for the Dirichlet antisymmetric
# half at every such angle and size (a second restart cycle); at 23, 24
# for every half.  The thin angles 0.05 and 0.1, which hold the first
# step-2 breakpoints of both paper schedules, restart either way: at
# least one half of each such split takes 37 to 69 at 20 and 42 to 63 at
# 23.  Summed over every eighth breakpoint and every 25th J node of both
# paper schedules at CR 64, 23 takes 1,603 applications against 1,851
# (Dirichlet) and 2,198 against 1,938 (edge-mean), in 0.73 and 0.89 s of
# CPU against 0.80 and 0.79 s (median of 7): a tie, as it was under
# generalised shift-invert.
HALF_NCV = 23

# ARPACK's relative stopping tolerance for every Lanczos run.  The
# running-error majorant, not the residual, sets delta (module docstring),
# so ARPACK's default of machine precision buys a further restart cycle
# and no certified digit: on CR 64 from theta = 0.3 up, every half run
# takes 24 operator applications, against 42 at machine precision for
# every Dirichlet antisymmetric half (and the symmetric one at theta =
# 1.0); the edge-mean halves take 24 either way.
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


def quad_form_interval(
    K: sp.csr_matrix, u: np.ndarray, abs_K: sp.csr_matrix | None = None
) -> Interval:
    """Enclosure of u^T K u including accumulated rounding error.

    ``abs_K`` is |K| entrywise, formed here when not given: a caller
    that bounds several forms of one K forms it once.
    """
    if abs_K is None:
        abs_K = _abs(K)
    Ku = K @ u
    val = float(u @ Ku)
    maj = float(np.abs(u) @ (abs_K @ np.abs(u)))
    err = _gamma(_max_row_nnz(K) + u.size + 2) * up(maj, 4)
    return Interval(dn(val - err, 4), up(val + err, 4))


_Magnitudes = tuple[sp.csr_matrix, sp.csr_matrix]


def _magnitudes(ops: DiscreteOperators) -> _Magnitudes:
    """|A| and |M| of ``ops`` entrywise, which every bound on its modes
    reads: formed once per solve, not once per bound."""
    return _abs(ops.A), _abs(ops.M)


def _norm2_upper(x: np.ndarray) -> float:
    return up(float(np.linalg.norm(x)) * (1.0 + _gamma(x.size + 2)), 4)


def residual_bound(
    ops: DiscreteOperators, u: np.ndarray, rho: float, magnitudes: _Magnitudes | None = None
) -> float:
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
    docstring).  ``magnitudes`` are |A| and |M| of ``ops``
    (:func:`_magnitudes`), formed here when not given.
    """
    A, M = ops.A, ops.M
    abs_A, abs_M = magnitudes or _magnitudes(ops)
    Au = A @ u
    Mu = M @ u
    r = Au - rho * Mu

    au_abs = abs_A @ np.abs(u)
    mu_abs = abs_M @ np.abs(u)
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


def _rayleigh(ops: DiscreteOperators, u: np.ndarray, magnitudes: _Magnitudes) -> RayleighBound:
    num = quad_form_interval(ops.A, u, magnitudes[0])
    den = quad_form_interval(ops.M, u, magnitudes[1])
    if den.lo <= 0.0:
        raise EigensolveError("mass quadratic form not certifiably positive")
    return RayleighBound(num / den, den, u)


def _certify(
    ops: DiscreteOperators, u: np.ndarray, k: int, magnitudes: _Magnitudes
) -> EigenEnclosure:
    ray = _rayleigh(ops, u, magnitudes)
    rho, mass = ray.rho, ray.mass_form
    # delta bounds ||r||_{M^{-1}} / ||u||_M, so divide by a certified lower
    # bound on ||u||_M; u need not be normalised
    bound = residual_bound(ops, u, rho.mid, magnitudes)
    delta = up(bound / dn(float(np.sqrt(mass.lo)), 2), 2)
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


def _band_pack(half: Half, sigma: float) -> np.ndarray:
    """A - ``sigma`` M of ``half``, which is stored in band order, in
    LAPACK's upper band storage, at the positions of the half's slots
    (:func:`fem._band_slots`).

    Each entry is formed as the sparse difference forms it, a - (sigma m),
    so the band holds the upper triangle of A - sigma M bit for bit.
    """
    (a_keep, a_pos), (m_keep, m_pos) = half.slots
    w = half.width
    ab = np.zeros((w + 1) * half.dim)
    ab[a_pos] = half.A.data[a_keep]
    if sigma:
        ab[m_pos] -= sigma * half.M.data[m_keep]
    return ab.reshape((w + 1, half.dim), order="F")


class _BandCholesky:
    """LAPACK banded Cholesky factor U of A - sigma M = U^T U
    (:func:`_band_pack`), and the symmetric operator U^{-T} M U^{-1} it
    turns the pencil into.

    A - sigma M is symmetric positive definite for sigma below the lowest
    eigenvalue, where Cholesky needs no pivoting; above it the
    factorisation fails with an EigensolveError.  Once it has succeeded,
    U has a positive diagonal, so its triangular solves go straight to
    BLAS ``dtbsv``: LAPACK's ``dtbtrs`` would first test that diagonal
    for zeros, one strided pass over the factor per solve, which made
    the corner halves' solves 12 % slower."""

    def __init__(self, half: Half, sigma: float):
        self._M = half.M
        ab = _band_pack(half, sigma)
        self._factor, info = scipy.linalg.lapack.dpbtrf(ab, overwrite_ab=1)
        if info != 0:
            raise EigensolveError(
                f"shift-invert factorisation failed: banded Cholesky info {info} "
                "(A - sigma M is not positive definite)"
            )
        self._width = half.width
        self._dtbsv = scipy.linalg.blas.dtbsv

    def matvec(self, y: np.ndarray) -> np.ndarray:
        """U^{-T} M U^{-1} y: two triangular band solves and one product
        with M."""
        Mz = self._M @ self._dtbsv(self._width, self._factor, y)
        return self._dtbsv(self._width, self._factor, Mz, trans=1, overwrite_x=1)

    def back(self, ys: np.ndarray) -> np.ndarray:
        """U^{-1} y for each column y of ``ys``."""
        return np.column_stack([self._dtbsv(self._width, self._factor, y) for y in ys.T])


def _lowest_modes(
    half: Half, k: int, sigma: float = 0.0, ncv: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """The floating-point backend: the ``k`` lowest eigenvalues of the
    part ``half``, ascending, and their eigenvectors, as columns in its
    coordinates.

    Dense LAPACK runs up to DENSE_CUTOFF unknowns (the measured
    crossover) or when more than dim modes are asked for.  Otherwise A -
    ``sigma`` M = U^T U is factorised by :class:`_BandCholesky`, and
    Lanczos runs in ARPACK's standard mode on the symmetric operator
    U^{-T} M U^{-1}, from y0 = ones, with ``ncv`` Lanczos vectors
    (ARPACK's default when None), stopping at LANCZOS_TOL.  Its
    eigenvalues are mu = 1 / (lambda - sigma), the largest for the
    lambda nearest above sigma, and its eigenvectors y = U x, so lambda
    = sigma + 1 / mu and x = U^{-1} y.  Dense LAPACK yields at most dim
    modes and Lanczos at most dim - 1, so fewer than ``k`` may come back.
    Nothing returned is certified; every failure of either backend is an
    EigensolveError.
    """
    n = half.dim
    if n <= DENSE_CUTOFF or k > n:
        try:
            vals, vecs = scipy.linalg.eigh(
                half.A.toarray(), half.M.toarray(), subset_by_index=[0, min(k, n) - 1]
            )
        except np.linalg.LinAlgError as exc:
            raise EigensolveError(f"dense generalized eigensolve failed: {exc}") from exc
    else:
        factor = _BandCholesky(half, sigma)
        op = spla.LinearOperator((n, n), matvec=factor.matvec, dtype=np.float64)
        try:
            mu, ys = spla.eigsh(
                op, k=min(k, n - 1), which="LM", v0=np.ones(n), ncv=ncv, tol=LANCZOS_TOL
            )
        except spla.ArpackError as exc:
            raise EigensolveError(f"ARPACK failed: {exc}") from exc
        order = np.argsort(mu)[::-1]
        vals, vecs = sigma + 1.0 / mu[order], factor.back(ys[:, order])
    if not np.all(np.isfinite(vals)):
        raise EigensolveError("solver returned non-finite eigenvalues")
    return vals, vecs


def _split_modes(halves: Sequence[Half], k: int) -> np.ndarray:
    """The ``k`` lowest modes of the union of the parts' spectra, as
    columns in the space's reduced coordinates, in ascending order of
    their computed eigenvalues.

    Each part's backend run (:func:`_lowest_modes`) computes ``k``
    modes, so where the parts span the space the union holds the ``k``
    lowest of the whole pencil, which is their direct sum.  Nothing
    returned is certified.
    """
    vals, lifted = [], []
    for half in halves:
        lam, vecs = _lowest_modes(half, k, ncv=HALF_NCV)
        vals.append(lam)
        lifted.append(half.C @ vecs)
    order = np.argsort(np.concatenate(vals), kind="stable")[:k]
    return np.hstack(lifted)[:, order]


def solve_lowest(ops: DiscreteOperators, count: int = 1) -> list[EigenEnclosure]:
    """Certified enclosures for the ``count`` lowest modes.

    ``count`` + 1 modes are computed, the last one a guard for the
    ordering, where the space has that many, in the parts ``ops``
    carries by :func:`_split_modes`, and certified on ``ops``, as any
    other vector would be; the backend is chosen as in
    :func:`_lowest_modes`, and certification is identical either way.
    The parts must span the space: operators with no parts, or with
    parts whose dimensions do not sum to the space's, raise ValueError.

    Raises EigensolveError on solver non-convergence; never silently
    substitutes approximate results.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    n = ops.dim
    if count > n:
        raise ValueError(f"requested {count} modes from a {n}-dimensional space")
    if sum(half.dim for half in ops.halves) != n:
        raise ValueError(f"the operators' parts do not span their {n}-dimensional space")
    vecs = _split_modes(ops.halves, count + 1)
    magnitudes = _magnitudes(ops)
    return [
        _certify(ops, _normalize(ops.M, vecs[:, i]), i + 1, magnitudes) for i in range(count)
    ]


def ground_rayleigh(ops: DiscreteOperators, below: float) -> RayleighBound:
    """Certified Rayleigh upper bound on lambda_1 from one computed mode.

    ``below`` is a lower bound on the lowest eigenvalue of the pencil,
    such as the corrected CR bound.  Lanczos runs shifted to sigma =
    ``below`` with GROUND_NCV vectors: just below the wanted eigenvalue
    the ground mode is far better separated than at 0, so ARPACK
    converges in a handful of operator applications.  The dense backend
    (chosen as in :func:`_lowest_modes`) ignores the shift.  The mode is
    computed in the first part ``ops`` carries and lifted; operators with
    no parts raise ValueError.  Only the quadratic forms u^T A u and u^T
    M u are certified, on ``ops``: neither a residual bound nor an index
    is needed for lambda_1 <= R(u), so the bound holds whatever ``below``
    and the part are; a shift at or above the ground eigenvalue, or a
    part that lacks the ground mode, can only return a larger R(u) or
    end in an EigensolveError.
    """
    if not ops.halves:
        raise ValueError("the operators carry no part to solve in")
    half = ops.halves[0]
    _, vecs = _lowest_modes(half, 1, sigma=below, ncv=GROUND_NCV)
    u = half.C @ vecs[:, 0]
    return _rayleigh(ops, _normalize(ops.M, u), _magnitudes(ops))


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
