"""Generalized eigenvalue solves with certified a posteriori enclosures.

The floating-point eigensolve is treated as a heuristic that produces a
pair (rho, u).  Every solver target (a part of a space, below) goes to
ARPACK's Lanczos solver, shift-inverted and symmetrised by a Cholesky
factor (below), unless it asks for as many modes as the part has
unknowns, which Lanczos cannot give: then dense LAPACK returns the
part's whole spectrum.  A second backend would add no certified digit,
so the choice follows from the request alone.  Certification then rests
only on

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

Each certified vector u is multiplied once by each of A, M, |A| and |M|,
after the product with M that normalises it: that one product pass
(:func:`_product_pass`) gives both quadratic forms of its Rayleigh
interval and the residual and majorant of its residual bound, five
products a mode where bounds that each made their own would make nine.
|A|, |M| and the largest row counts that the rounding factors gamma
read are formed once per solve, and the magnitudes share the index
arrays of A and M, which share those of the cached reference map
(:meth:`fem.ReferenceMap.mapped`).  Every certified number is the float
the separate bounds compute, bit for bit.

Every solve runs in parts (:attr:`fem.DiscreteOperators.halves`), which
fem.ReferenceMap.with_halves builds: a mirror-parity half of T(theta),
the part of T(pi/3) invariant under its whole symmetry group, or the
whole space spanned by both parity bases, which serves a triangle with
no mirror (``tricert constants``).  Both sides solve in the first part
alone, the proof in the symmetric half, and the conforming side at
fl(pi/3) in the invariant part; the nonconforming side
takes parts that span the space, and certifies every further part, the
antisymmetric half, by one factorisation, without solving it (below).
Operators that carry no parts, such as those assembled directly, are
refused.  The computed vectors are lifted to the whole space and
certified there, exactly as a whole-space vector would be, so the parts
steer the solver as sigma does and enter no bound but that of the
further parts.  Every part is factorised by
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
the Rayleigh quotient R(u) of :func:`rayleigh_bound`, and lambda_1 <=
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
At fl(pi/3) the part invariant under the rotation as well holds it: on
the equilateral triangle the simple ground mode spans a one-dimensional
representation of the symmetry group D3 (the mirror and the rotation),
and being mirror-symmetric it spans the trivial one (Pinsky, SIAM J.
Math. Anal. 11, 1980; solving in the subspace a symmetry group fixes is
Bossavit's reduction, Comput. Methods Appl. Mech. Engrg. 56, 1986).  The
float triangle of fl(pi/3) is equilateral only to rounding, but the part
steers the solver as the halves do, and R(u) is certified on the whole
operators.  At the corner meshes that part has a third of the symmetric
half's unknowns and half its band width (CG 288 Dirichlet: 6,912
unknowns 72 wide against 20,592 and 143; CG 192 edge-mean: 3,168 and 65
against 9,407 and 114), and its band factor takes 4.0 MB against 23.7 MB
and 1.7 against 8.7 MB.

On the nonconforming side (:func:`solve_lowest`) the one trusted,
uncertified step is the order of the modes within the first part, the
symmetric half of a proof space: enclosures are labeled by the solver's
ordering there, and the Kato-Temple gap refinement in
:func:`verify_enclosure` is exact modulo that labeling.  Every Lanczos
run starts from y0 = ones, in the coordinates of its standard form,
which are its part's band-ordered coordinates transformed by U: the
pencil's start is x0 = U^{-1} ones.  Ones in a space's reduced
coordinates would be mirror-symmetric on T(theta), so in exact
arithmetic its Krylov space would hold no antisymmetric mode: one would
enter only through rounding, after ARPACK restarts (on CR 64 Dirichlet
at theta = 1.0 the first cycle's third mode is lambda_4, the second
cycle's the antisymmetric lambda_3).  The symmetric half runs from its
own y0 = ones, so its modes are reached without rounding.  In the whole
part's coordinates ones has a component in each parity basis, and on
T(theta), where A - sigma M couples none of one basis to the other, so
has U^{-1} ones: there the Krylov space holds the modes of both halves
from the start.

The other parts are certified by inertia, not solved.  With C = [C_1 ...
C_p] the parts' bases side by side, which span the space, the pencil (A,
M) has as many eigenvalues below a floor l as C^T (A - l M) C has
negative eigenvalues (Sylvester's law of inertia).  The diagonal blocks
of that matrix are H_i = C_i^T (A - l M) C_i; the rest, F, couples the
parts, and vanishes in exact arithmetic on T(theta), whose mirror maps A
and M to themselves, so that it holds only rounding and the excess bx^2
+ by^2 - 1 of the float apex.  By Weyl's inequality no eigenvalue of C^T
(A - l M) C lies more than ||F||_2 below the matching one of the block
diagonal.  So if H_i - ||F||_2 I is positive definite for every part i >
1, the pencil has no more eigenvalues below l than H_1 - ||F||_2 I has
negative ones.  By the first part's order, the trusted step, those are
at most count - 1: the first part has no more than count - 1 eigenvalues
below the count-th enclosure, also with its matrix lowered by the
rounding-sized ||F||_2 I, which an exact pencil would make zero.  Then
lambda_count >= l.  Each H_i - ||F||_2 I is certified positive definite
by LAPACK's banded Cholesky factorisation of the part's packed A - l M
less tau I, for an a-priori tau (Rump, "Verification of positive
definiteness", BIT 46, 2006): if the factorisation runs to completion
the packed matrix exceeds -tau_c I for the factorisation's rounding
tau_c (Demmel, LAPACK Working Note 14), and tau also covers the part's
packing and mapping rounding, the entries its build dropped, and ||F||_2
(:func:`_floor_shift`, :class:`fem.Half`).  The floor l is the count-th
enclosure's lower end, or, where the part's lowest eigenvalue lies too
close above it for the test, 2 tau / m below it, m the mass density of
the first part's mode (:func:`_floor`), and the enclosure's lower end
becomes l, so :func:`verify_enclosure` and the brackets read the
certified floor.

The proofs ask for count = 2, and lambda_2 lies in the symmetric half at
every angle of (0, pi/3] measured: at CR 64 over all 370 + 420 reference
angles of the benchmark, on a 60-angle grid over (0, pi/3), and on the
quick and corner meshes, the antisymmetric half's lowest eigenvalue
never falls below the symmetric half's second, and ties it, within
1.4e-13 relative, only at fl(pi/3), where lambda_2 = lambda_3 is double.
The test passes at the enclosure's lower end at every point of the quick
and paper-config proofs of both problems but fl(pi/3); there the floor
drops below it by 0 (Dirichlet CR 32, 64, 128) and 2.7e-8, 4.6e-7 and
9.1e-6 of lambda_2 (edge-mean CR 32, 64, 128), all under 1e-5.  Above
pi/3 lambda_2 can be antisymmetric, as at pi/2, where the test fails
with an EigensolveError.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .fem import DiscreteOperators, Half, on_pattern
from .rounding import EPS as _EPS, Interval, dn, gamma, up

# Lanczos vectors for the shifted ground solve of ground_mode.
# Operator applications summed over every fourth point of both paper
# schedules (step-2 breakpoints and J nodes) at CG 96, shifted to the
# corrected CR bound, stopping at LANCZOS_TOL, by ncv (ARPACK's default of
# 20 at sigma = 0 makes 4189):  3: 1030,  4: 1023,  5: 1215,  6: 1411,
# 8: 1803.  4 saves 7 of them over those 199 points, but costs one more at
# the Dirichlet corner, the costliest solve of a proof, so 3 stays.  The
# corner solves in the part invariant under the triangle's symmetry group
# and takes as many as the symmetric half did: CG 288 Dirichlet 4 at 3, 5
# at 4; edge-mean CG 192 5 at either; at fl(pi/3) on CG 64 and 96, 4 or 5
# at 3 and 5 at 4.  Every paper
# breakpoint at CG 96 takes 5 or 6 from theta = 0.3 up, and 5 on
# edge-mean down to 0.0209; only the thinnest Dirichlet angles need more,
# 8 at theta = 0.1 and 9 to 33 at the four breakpoints below it.
GROUND_NCV = 3

# Lanczos vectors for the first part's run in solve_lowest, the symmetric
# half of a CR proof space.  Operator applications of that run on CR 32,
# 64 and 128, both constraints, at theta in {0.3, 0.5, 0.8, 1.0,
# fl(pi/3)}: 21 at ARPACK's default of 20, 24 at 23.  The thin Dirichlet
# angles restart: at theta = 0.05 38 to 53 at 20 and 43 at 23, at 0.1 37
# at 20 and 24 to 42 at 23; edge-mean takes 21 and 24 there too.  Summed
# over every eighth breakpoint and every 25th J node of both paper
# schedules at CR 64, 20 takes 684 applications against 782 (Dirichlet)
# and 945 against 1,080 (edge-mean), in 0.195 and 0.297 s of CPU against
# 0.224 and 0.331 s (one BLAS thread, mean of 3).  23 was chosen when
# both halves were solved, for the Dirichlet antisymmetric half, which
# took a second restart cycle at 20 (36 applications).  It stays for
# lambda_2: at 20 the run stops short of the residual floor the module
# docstring measures, and on CR 64 Dirichlet at theta = 0.9 lambda_2's
# delta comes out 4.44e-10, against 3.95e-10 at tolerance 0, 12 % above
# it and beyond the 10 % that
# test_residual_floor_does_not_need_a_tighter_tolerance allows; at 23 the
# two agree.  20 would also move every lambda_1 enclosure in its last
# digits.
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
    if k * _EPS >= 0.5:
        raise EigensolveError("dimension too large for running-error bounds")
    return gamma(k)


def _max_row_nnz(K: sp.csr_matrix) -> int:
    """The largest number of entries K stores in a row."""
    return int(np.max(np.diff(K.indptr))) if K.shape[0] else 0


def _abs(K: sp.csr_matrix) -> sp.csr_matrix:
    """|K| entrywise, on the index arrays of K."""
    return on_pattern(K, np.abs(K.data))


def _form(
    u: np.ndarray, abs_u: np.ndarray, Ku: np.ndarray, abs_Ku: np.ndarray, rows: int
) -> Interval:
    """Enclosure of u^T K u from the products K u and |K| |u|, for K of
    at most ``rows`` stored entries a row (:func:`quad_form_interval`)."""
    val = float(u @ Ku)
    maj = float(abs_u @ abs_Ku)
    err = _gamma(rows + u.size + 2) * up(maj, 4)
    return Interval(dn(val - err, 4), up(val + err, 4))


def quad_form_interval(
    K: sp.csr_matrix, u: np.ndarray, abs_K: sp.csr_matrix | None = None
) -> Interval:
    """Enclosure of u^T K u including accumulated rounding error.

    The float value u^T (K u) is widened by gamma(m + n + 2) times the
    majorant |u|^T |K| |u| of its terms, m the largest row count of K
    and n the length of u.  ``abs_K`` is |K| entrywise, formed here when
    not given.  This is the form of one operator from its two products;
    the Rayleigh intervals of :func:`solve_lowest` and
    :func:`rayleigh_bound` take the same two products of A and of M from
    the one product pass of their vector (:class:`_Products`), which the
    residual bound reads too, and compute the same floats.
    """
    abs_u = np.abs(u)
    if abs_K is None:
        abs_K = _abs(K)
    return _form(u, abs_u, K @ u, abs_K @ abs_u, _max_row_nnz(K))


@dataclass(frozen=True)
class _Products:
    """The products of one vector u with the whole operators A and M, each
    formed once (:func:`_product_pass`), with the largest row counts of A
    and M, which the rounding factors gamma read: its Rayleigh interval
    and its residual bound both read them."""

    u: np.ndarray
    abs_u: np.ndarray
    Au: np.ndarray
    Mu: np.ndarray
    abs_Au: np.ndarray
    abs_Mu: np.ndarray
    rows_A: int
    rows_M: int

    def rayleigh(self) -> "RayleighBound":
        """The certified Rayleigh quotient of u (:func:`quad_form_interval`
        of A and of M)."""
        num = _form(self.u, self.abs_u, self.Au, self.abs_Au, self.rows_A)
        den = _form(self.u, self.abs_u, self.Mu, self.abs_Mu, self.rows_M)
        if den.lo <= 0.0:
            raise EigensolveError("mass quadratic form not certifiably positive")
        return RayleighBound(num / den, den, self.u)


def _product_pass(ops: DiscreteOperators, vectors: list[np.ndarray]) -> list[_Products]:
    """The one product pass of each of ``vectors``: A u, M u, |A| |u| and
    |M| |u|.  |A| and |M| are formed once for all the vectors, on the index
    arrays of A and M, and one after the other, so that no more than one
    magnitude is held at a time; the row counts are taken once."""
    A, M = ops.A, ops.M
    abs_us = [np.abs(u) for u in vectors]
    abs_A = _abs(A)
    abs_Aus = [abs_A @ a for a in abs_us]
    del abs_A
    abs_M = _abs(M)
    abs_Mus = [abs_M @ a for a in abs_us]
    del abs_M
    rows_A, rows_M = _max_row_nnz(A), _max_row_nnz(M)
    return [
        _Products(u, a, A @ u, M @ u, abs_Au, abs_Mu, rows_A, rows_M)
        for u, a, abs_Au, abs_Mu in zip(vectors, abs_us, abs_Aus, abs_Mus)
    ]


def _norm2_upper(x: np.ndarray) -> float:
    return up(float(np.linalg.norm(x)) * (1.0 + _gamma(x.size + 2)), 4)


def residual_bound(
    ops: DiscreteOperators, u: np.ndarray, rho: float, products: _Products | None = None
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
    docstring).  ``products`` are the products of u with the operators
    of ``ops`` (:func:`_product_pass`), which the Rayleigh interval of u
    reads too; the pass is made here when they are not given.
    """
    p = products if products is not None else _product_pass(ops, [u])[0]
    r = p.Au - rho * p.Mu
    m = max(p.rows_A, p.rows_M)
    delta_elem = _gamma(m + 3) * (p.abs_Au + abs(rho) * p.abs_Mu + np.abs(r))

    sqrt_mu = dn(float(np.sqrt(ops.mass_min_eig_lower())), 2)
    return up(up(_norm2_upper(r) + _norm2_upper(delta_elem), 2) / sqrt_mu, 4)


@dataclass(frozen=True)
class RayleighBound:
    """Certified Rayleigh quotient rho of ``vector`` and its M-form.

    lambda_1 <= rho.hi holds for any nonzero vector, whichever mode the
    solver returned, so rho.hi is a certified upper bound on lambda_1.
    ``grams`` holds the certified forms of Kxx, Kxy and Kyy of the
    vector where its operators carried them (:func:`rayleigh_bound`).
    """

    rho: Interval
    mass_form: Interval
    vector: np.ndarray
    grams: tuple[Interval, Interval, Interval] | None = None


def _certify(ops: DiscreteOperators, products: _Products, k: int) -> EigenEnclosure:
    ray = products.rayleigh()
    rho, mass = ray.rho, ray.mass_form
    # delta bounds ||r||_{M^{-1}} / ||u||_M, so divide by a certified lower
    # bound on ||u||_M; u need not be normalised
    u = products.u
    bound = residual_bound(ops, u, rho.mid, products)
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
    half: Half, k: int, sigma: float = 0.0, ncv: int | None = None, vectors: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """The floating-point backend: the ``k`` lowest eigenvalues of the
    part ``half``, ascending, and the eigenvectors of the lowest
    ``vectors`` of them (all when None), as columns in its coordinates.

    A - ``sigma`` M = U^T U is factorised by :class:`_BandCholesky`,
    and Lanczos runs in ARPACK's standard mode on the symmetric operator
    U^{-T} M U^{-1}, from y0 = ones, with ``ncv`` Lanczos vectors
    (ARPACK's default when None; SciPy caps either at dim), stopping at
    LANCZOS_TOL.  Its eigenvalues are mu = 1 / (lambda - sigma), the
    largest for the lambda nearest above sigma, and its eigenvectors y =
    U x, so lambda = sigma + 1 / mu and x = U^{-1} y, one triangular
    band solve for each eigenvector returned.  Lanczos yields at most
    dim - 1 modes, so a request for ``k`` >= dim goes to dense LAPACK,
    which ignores ``sigma`` and returns all dim modes, fewer than ``k``
    when ``k`` > dim.  Nothing returned is certified; every failure of
    either backend is an EigensolveError.
    """
    n = half.dim
    if k >= n:
        try:
            vals, vecs = scipy.linalg.eigh(half.A.toarray(), half.M.toarray())
        except np.linalg.LinAlgError as exc:
            raise EigensolveError(f"dense generalized eigensolve failed: {exc}") from exc
        vecs = vecs[:, :vectors]
    else:
        factor = _BandCholesky(half, sigma)
        op = spla.LinearOperator((n, n), matvec=factor.matvec, dtype=np.float64)
        try:
            mu, ys = spla.eigsh(op, k=k, which="LM", v0=np.ones(n), ncv=ncv, tol=LANCZOS_TOL)
        except spla.ArpackError as exc:
            raise EigensolveError(f"ARPACK failed: {exc}") from exc
        order = np.argsort(mu)[::-1]
        vals, vecs = sigma + 1.0 / mu[order], factor.back(ys[:, order[:vectors]])
    if not np.all(np.isfinite(vals)):
        raise EigensolveError("solver returned non-finite eigenvalues")
    return vals, vecs


def _floor(ops: DiscreteOperators, lower: float, density: float) -> float:
    """A floor, ``lower`` or just below it, that every part of ``ops``
    but the first is certified to exceed: A - floor M is positive
    definite on each, beyond the coupling between the parts (module
    docstring).

    A part is tested by a banded Cholesky factorisation of its packed A
    - floor M less tau I, tau a priori (:func:`_floor_shift`), first at
    ``lower`` itself, which passes wherever the part's lowest eigenvalue
    lies well above it, as at every angle of the proofs below fl(pi/3).
    Where that fails, as at fl(pi/3), where lambda_2 = lambda_3 is double
    across the halves, the floor drops 2 tau / ``density`` below
    ``lower``, ``density`` being the mass per unit 2-norm x^T M x / x^T x
    of the first part's mode that ``lower`` encloses: were a part's
    lowest eigenvalue at ``lower``, with that mass density, A - floor M
    would exceed the shift tau by tau again, the most the
    factorisation's own rounding can take.  A part that fails there too
    raises an EigensolveError naming it.
    """
    if not (np.isfinite(density) and density > 0.0 and lower > 0.0):
        raise EigensolveError(f"no floor below {lower!r} at mass density {density!r}")
    # every bound below holds for any floor in [0, lower]
    coupling = max(up(h.coupling[0] + lower * h.coupling[1]) for h in ops.halves)
    further = [(half, _floor_shift(half, lower, coupling)) for half in ops.halves[1:]]
    below = dn(lower - up(2.0 * max(tau for _, tau in further) / density, 2), 2)
    for floor in (lower, max(below, 0.0)):
        failed = [i for i, (half, tau) in enumerate(further, 1) if not _definite(half, floor, tau)]
        if not failed:
            return floor
    raise EigensolveError(
        f"part {failed[0]} is not certified above the floor {floor!r} below {lower!r}: "
        "its banded Cholesky factorisation failed (the part may hold an eigenvalue below "
        "the floor)"
    )


def _definite(half: Half, floor: float, tau: float) -> bool:
    """Whether LAPACK's banded Cholesky factorises the packed A - floor M
    of ``half`` less ``tau`` I."""
    ab = _band_pack(half, floor)
    ab[half.width] -= tau
    return scipy.linalg.lapack.dpbtrf(ab, overwrite_ab=1)[1] == 0


def _floor_shift(half: Half, bound: float, coupling: float) -> float:
    """The shift tau of :func:`_floor` for ``half`` at any floor of
    magnitude at most ``bound`` (and not negative), given a bound
    ``coupling`` on the 2-norm of the coupling between the parts.

    tau covers, in 2-norm: the banded Cholesky factorisation's rounding,
    gamma_{w+2} / (1 - gamma_{w+2}) (2w + 1) max_i b_ii for a band of
    width w and the diagonal b of the factorised matrix (Demmel, LAPACK
    Working Note 14, 1989; Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., Theorem 10.5: each entry of U^T U is an inner
    product of at most w + 1 terms); the part's residue
    (:class:`fem.Half`), which holds its packing, its mapping and what
    the build dropped; the coupling; and the rounding of subtracting tau
    from the diagonal.  The diagonal of A - floor M is at most that of
    A, as the floor is not negative.
    """
    w = half.width
    diag = up(float(half.A.diagonal().max()) * (1.0 + 2.0 * _EPS))
    g = _gamma(w + 2)
    cholesky = up(g / (1.0 - g) * (2 * w + 1) * diag, 4)
    residue = up(half.residue[0] + bound * half.residue[1])
    return up((cholesky + residue + coupling + _EPS * diag) / (1.0 - _EPS), 4)


def solve_lowest(ops: DiscreteOperators, count: int = 1) -> list[EigenEnclosure]:
    """Certified enclosures for the ``count`` lowest modes.

    ``count`` + 1 modes are computed in the first part ``ops`` carries
    (the symmetric half of a CR proof space, or the whole space), the
    last one a guard for the ordering, with HALF_NCV Lanczos vectors, and
    its ``count`` lowest are lifted and certified on ``ops``, as any
    other vector would be; the backend is chosen as in
    :func:`_lowest_modes`, and certification is identical either way.
    Every further part is solved by no eigensolver: :func:`_floor`
    certifies it above a floor just below the count-th enclosure, whose
    lower end becomes that floor (module docstring).  The parts must span
    the space: operators with no parts, or with parts whose dimensions
    do not sum to the space's, raise ValueError, and so does a first
    part with fewer than ``count`` modes.

    Raises EigensolveError on solver non-convergence or a further part
    that fails its test; never silently substitutes approximate results.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    n = ops.dim
    if count > n:
        raise ValueError(f"requested {count} modes from a {n}-dimensional space")
    if sum(half.dim for half in ops.halves) != n:
        raise ValueError(f"the operators' parts do not span their {n}-dimensional space")
    first = ops.halves[0]
    if count > first.dim:
        raise ValueError(f"requested {count} modes from a {first.dim}-dimensional first part")
    _, vecs = _lowest_modes(first, count + 1, ncv=HALF_NCV, vectors=count)
    us = [_normalize(ops.M, first.C @ vecs[:, i]) for i in range(count)]
    encs = [_certify(ops, p, k) for k, p in enumerate(_product_pass(ops, us), 1)]
    if len(ops.halves) > 1:
        v = vecs[:, count - 1]
        floor = _floor(ops, encs[-1].lower, float(v @ (first.M @ v)) / float(v @ v))
        encs[-1] = replace(encs[-1], lower=floor)
    return encs


def ground_mode(half: Half, below: float) -> np.ndarray:
    """The ground mode of the part ``half``, lifted to the space.

    ``below`` is a lower bound on the lowest eigenvalue of the pencil,
    such as the corrected CR bound.  Lanczos runs shifted to sigma =
    ``below`` with GROUND_NCV vectors: just below the wanted eigenvalue
    the ground mode is far better separated than at 0, so ARPACK
    converges in a handful of operator applications.  A part of one
    unknown is solved by dense LAPACK instead, which ignores the shift
    (:func:`_lowest_modes`).  Nothing is certified here: neither a
    residual bound nor an index is needed for lambda_1 <= R(u)
    (:func:`rayleigh_bound`), so a shift at or above the ground
    eigenvalue, or a part that lacks the ground mode, can only give a
    larger R(u) or end in an EigensolveError.
    """
    _, vecs = _lowest_modes(half, 1, sigma=below, ncv=GROUND_NCV)
    return half.C @ vecs[:, 0]


def rayleigh_bound(ops: DiscreteOperators, u: np.ndarray) -> RayleighBound:
    """The certified Rayleigh quotient R(u) >= lambda_1 of the vector u,
    normalised first, on the whole operators ``ops``.

    Only the quadratic forms u^T A u and u^T M u are certified, from one
    product pass of u (:class:`_Products`).  Where ``ops`` carries the
    grams (:meth:`fem.ReferenceMap.grams`), their forms are certified
    too, each by :func:`quad_form_interval`, and returned with R(u).
    """
    u = _normalize(ops.M, u)
    ray = _product_pass(ops, [u])[0].rayleigh()
    if ops.Kxx is None:
        return ray
    return replace(ray, grams=tuple(quad_form_interval(K, u) for K in (ops.Kxx, ops.Kxy, ops.Kyy)))


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
