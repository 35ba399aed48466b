"""Proof-driver tests: schedules, configs, the two sweep algorithms and
the certificate artifact.  Full-resolution runs live in the acceptance
suite; everything here uses coarse meshes or the quick preset."""

import csv
import json
import math
import multiprocessing
import os
import sys
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

from helpers import (
    edge_mean_lambda1_by_bound,
    needs_two_cores,
    point_by_bound,
    stdout_per_blas_threads,
)
from tricert import certify, eigsolve
from tricert.certify import (
    CSV_COLUMNS,
    CERT_SCHEMA,
    EQ_MESH,
    PAPER_EPSILON,
    PAPER_N2,
    Certificate,
    CertifyError,
    Schedule,
    SimplicityEvidence,
    algorithm1,
    algorithm2,
    compute_point,
    compute_points,
    j_nodes,
    paper_config,
    paper_schedule,
    quick_config,
    quick_schedule,
    run_proof,
    schedule_from_file,
    simplicity_check,
)
from tricert.fem import INVARIANT, BandOrder, parity_bases

EQ = math.pi / 3
LAM1_EQ_DIRICHLET = 16.0 * math.pi**2 / 3.0
LAM2_EQ_DIRICHLET = 112.0 * math.pi**2 / 9.0


class TestSchedule:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Schedule((), provenance="x")

    def test_rejects_non_increasing(self):
        with pytest.raises(ValueError):
            Schedule((0.5, 0.5), provenance="x")
        with pytest.raises(ValueError):
            Schedule((0.8, 0.5), provenance="x")

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Schedule((0.0, 0.5), provenance="x")
        with pytest.raises(ValueError):
            Schedule((0.5, EQ + 1e-6), provenance="x")

    def test_endpoint_pi_third_allowed(self):
        s = Schedule((0.5, EQ), provenance="x")
        assert s.breakpoints[-1] == EQ

    @pytest.mark.parametrize(
        "problem,count", [("dirichlet", 170), ("cr-constant", 320)]
    )
    def test_published_counts_and_tail(self, problem, count):
        s = paper_schedule(problem)
        pts = s.breakpoints
        assert len(pts) == count
        assert all(b > a for a, b in zip(pts, pts[1:]))
        assert pts[0] > 0.0
        # last breakpoint butts exactly against the corner interval J
        assert pts[-1] == EQ - PAPER_EPSILON[problem]

    def test_quick_is_coarse_with_same_tail(self):
        for problem in ("dirichlet", "cr-constant"):
            s = quick_schedule(problem)
            assert len(s.breakpoints) < 30
            assert s.breakpoints[-1] == EQ - PAPER_EPSILON[problem]

    def test_file_roundtrip(self, tmp_path):
        pts = [0.3, 0.7, 1.0]
        p = tmp_path / "sched.json"
        p.write_text(json.dumps(pts))
        s = schedule_from_file(str(p))
        assert list(s.breakpoints) == pts
        assert s.provenance.startswith("file:")

    def test_file_must_hold_a_list(self, tmp_path):
        p = tmp_path / "sched.json"
        p.write_text('{"angles": [0.5]}')
        with pytest.raises(ValueError):
            schedule_from_file(str(p))


class TestRunConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            paper_config("neumann")
        with pytest.raises(ValueError):
            paper_config("dirichlet", cg_n=0)
        with pytest.raises(ValueError):
            paper_config("dirichlet", eq_cr_n=-4)
        with pytest.raises(ValueError):
            paper_config("dirichlet", epsilon=0.0)
        with pytest.raises(ValueError):
            paper_config("dirichlet", epsilon=EQ)
        with pytest.raises(ValueError):
            paper_config("dirichlet", n2=0)
        with pytest.raises(ValueError):
            paper_config("dirichlet", jobs=0)

    def test_effective_defaults(self):
        for problem in ("dirichlet", "cr-constant"):
            c = paper_config(problem)
            assert c.cg_n == 96 and c.cr_n == 64
            assert c.epsilon == PAPER_EPSILON[problem]
            assert c.n2 == PAPER_N2[problem]
            assert (c.eq_cg_n, c.eq_cr_n) == EQ_MESH[problem]
            assert c.schedule.provenance == f"paper-{problem}"
            assert not c.quick

    def test_quick_preset(self):
        c = quick_config("dirichlet")
        assert c.cg_n == 32 and c.cr_n == 32
        assert c.n2 == 10
        assert (c.eq_cg_n, c.eq_cr_n) == (64, 32)
        assert c.schedule.provenance == "quick-dirichlet"
        assert c.quick
        # changes apply on top of the preset, leaving its other values
        c = quick_config("dirichlet", cg_n=48, n2=4)
        assert (c.cg_n, c.cr_n, c.n2, c.quick) == (48, 32, 4, True)

    def test_corner_mesh_overrides(self):
        c = paper_config("dirichlet", eq_cg_n=100, eq_cr_n=40)
        assert (c.eq_cg_n, c.eq_cr_n) == (100, 40)


class TestJNodes:
    def test_layout(self):
        eps, n2 = math.pi / 300, 7
        nodes = j_nodes(eps, n2)
        assert len(nodes) == n2 + 1
        assert nodes[0] == EQ - eps
        assert nodes[-1] == EQ  # corner hit exactly, not via accumulation
        assert all(b > a for a, b in zip(nodes, nodes[1:]))

    def test_degenerate_epsilon(self):
        with pytest.raises(ValueError):
            j_nodes(0.0, 5)  # J must have positive width, as RunConfig requires

    def test_bad_args(self):
        with pytest.raises(ValueError):
            j_nodes(-1e-3, 5)
        with pytest.raises(ValueError):
            j_nodes(EQ, 5)
        with pytest.raises(ValueError):
            j_nodes(0.1, 0)


def _proof_spaces(problem):
    """(kind, n, family) of every space a quick or paper-config proof of
    ``problem`` solves."""
    quick, paper = quick_config(problem), paper_config(problem)
    return [
        ("quick", quick.cg_n, "cg"), ("quick", quick.cr_n, "cr"),
        ("quick", quick.eq_cg_n, "cg"), ("quick", quick.eq_cr_n, "cr"),
        ("sweep", paper.cg_n, "cg"), ("sweep", paper.cr_n, "cr"),
        ("corner", paper.eq_cg_n, "cg"), ("corner", paper.eq_cr_n, "cr"),
    ]


class TestPointData:
    def test_brackets_contain_analytic_values(self):
        pd = compute_point("dirichlet", EQ, cg_n=24, cr_n=16)
        assert pd.lam1.lower <= LAM1_EQ_DIRICHLET <= pd.lam1.upper
        assert pd.lam2.lower <= LAM2_EQ_DIRICHLET <= pd.lam2.upper
        assert pd.theta == EQ and pd.cg_n == 24 and pd.cr_n == 16
        assert 0.0 < pd.mass[0] <= pd.mass[1]
        for lo, hi in (pd.gram_xx, pd.gram_xy, pd.gram_yy):
            assert lo <= hi

    def test_compute_points_dedupes_and_sorts(self):
        pts = compute_points("dirichlet", [0.8, 0.5, 0.8], cg_n=12, cr_n=8)
        assert list(pts.keys()) == [0.5, 0.8]

    def test_operators_assembled_once_per_mesh_size(self, monkeypatch):
        calls = []
        real_assemble = certify.assemble

        def counting_assemble(space):
            calls.append((space.mesh.n, space.family))
            return real_assemble(space)

        monkeypatch.setattr(certify, "assemble", counting_assemble)
        certify._reference_operators.cache_clear()
        compute_points("dirichlet", [0.4, 0.6, 0.8, 0.9, EQ], 12, 8, jobs=1)
        assert sorted(calls) == [(8, "cr"), (12, "cg")]

    def test_both_quick_proofs_share_the_operator_cache(self):
        # the two quick proofs need six spaces (CG 32, CR 32, corner CG 64
        # per problem), so a second round of both must build none of them
        def both_proofs():
            for problem in ("dirichlet", "cr-constant"):
                run_proof(quick_config(problem))

        both_proofs()
        misses = certify._reference_operators.cache_info().misses
        both_proofs()
        assert certify._reference_operators.cache_info().misses == misses

    def test_one_certificate_per_mode(self, monkeypatch):
        # two CR modes; the gap refinement reuses the certificate of mode 1
        # instead of computing it again, and the conforming side certifies
        # its Rayleigh quotient without a residual bound
        calls = []
        real_bound = eigsolve.residual_bound

        def counting_bound(*args):
            calls.append(args)
            return real_bound(*args)

        monkeypatch.setattr(eigsolve, "residual_bound", counting_bound)
        compute_point("cr-constant", 0.9, cg_n=12, cr_n=8)
        assert len(calls) == 2

    def test_conforming_side_solves_one_mode_uncertified_by_residual(self, monkeypatch):
        # each solved half goes to Lanczos, as every part with more
        # unknowns than modes asked for: the CR symmetric half with two
        # modes plus a guard, the CG symmetric half with the ground mode
        # alone (the CR antisymmetric half is certified above a floor,
        # unsolved); the residual is certified on the whole CR space
        cg_half, cr_halves, cr_dim = 182, (184, 176), 360
        eigsh_k, residual_dims = [], []
        real_eigsh, real_bound = eigsolve.spla.eigsh, eigsolve.residual_bound

        def recording_eigsh(A, k, **kwargs):
            eigsh_k.append((A.shape[0], k))
            return real_eigsh(A, k, **kwargs)

        def recording_bound(ops, u, rho, *magnitudes):
            residual_dims.append(u.size)
            return real_bound(ops, u, rho, *magnitudes)

        monkeypatch.setattr(eigsolve.spla, "eigsh", recording_eigsh)
        monkeypatch.setattr(eigsolve, "residual_bound", recording_bound)
        pd = compute_point("dirichlet", 0.9, cg_n=28, cr_n=16)
        assert sorted(eigsh_k) == sorted([(cg_half, 1), (cr_halves[0], 3)])
        assert residual_dims == [cr_dim, cr_dim]
        assert pd.lam1.lower < pd.lam1.upper < pd.lam2.lower

    @pytest.mark.parametrize("problem", ["dirichlet", "cr-constant"])
    @pytest.mark.parametrize("theta", [0.4, 1.0, EQ], ids=["0.4", "1.0", "fl(pi/3)"])
    def test_split_point_matches_the_whole_point(self, monkeypatch, problem, theta):
        # splitting only steers the solver; every number is certified on
        # the whole operators, so the point data agree to rounding, but for
        # lambda_2's lower end, which the split solve lowers to the floor
        # it certifies the antisymmetric half above (up to 2e-9 relative
        # at CR 16), and each side solves its symmetric half alone, except
        # the conforming side at fl(pi/3), which solves the part invariant
        # under the whole symmetry group.  The whole-space reference is the
        # same maps with the whole space as their one part
        real_reference = certify._reference_operators
        with monkeypatch.context() as patch:
            patch.setattr(
                certify, "_reference_operators",
                lambda *key: real_reference(*key).with_halves(((0, 1),)),
            )
            whole = compute_point(problem, theta, cg_n=28, cr_n=16)
        eigsh_dims = []
        real_lowest = eigsolve._lowest_modes

        def recording(target, k, **kwargs):
            eigsh_dims.append((target.dim, k))
            return real_lowest(target, k, **kwargs)

        monkeypatch.setattr(eigsolve, "_lowest_modes", recording)
        split = compute_point(problem, theta, cg_n=28, cr_n=16)
        tri = certify.triangle_from_angle(theta)
        cr = certify._reference_operators(16, "cr", certify._BC[problem]).mapped(tri)
        cg_parts = ((INVARIANT,),) if theta == EQ else None
        cg = certify._reference(28, "cg", certify._BC[problem], cg_parts).mapped(tri)
        assert len(cr.halves) == 2 and len(cg.halves) == 1
        assert eigsh_dims == [(cr.halves[0].dim, 3), (cg.halves[0].dim, 1)]
        for name in ("lam1", "lam2"):
            for end in ("lower", "upper"):
                w, s = getattr(getattr(whole, name), end), getattr(getattr(split, name), end)
                tol = 1e-8 if (name, end) == ("lam2", "lower") else 1e-9
                assert w == s or math.isclose(w, s, rel_tol=tol)
        for name in ("gram_xx", "gram_xy", "gram_yy", "mass"):
            scale = abs(whole.gram_xx[1]) + abs(whole.gram_yy[1])
            for w, s in zip(getattr(whole, name), getattr(split, name)):
                assert abs(w - s) <= 1e-9 * scale

    @pytest.mark.parametrize("problem", ["dirichlet", "cr-constant"])
    @pytest.mark.parametrize("cg_n, cr_n", [(28, 16), (3, 2)])
    def test_equilateral_conforming_factor_is_the_invariant_part(
        self, monkeypatch, problem, cg_n, cr_n
    ):
        # at fl(pi/3) the conforming side factorises the part invariant
        # under the triangle's symmetry group, and nothing larger; at CG 3
        # Dirichlet that part has one unknown and goes to dense LAPACK
        factored = []
        real = eigsolve._BandCholesky

        class Recording(real):
            def __init__(self, half, sigma):
                factored.append((half.C.shape[0], half.dim))
                super().__init__(half, sigma)

        monkeypatch.setattr(eigsolve, "_BandCholesky", Recording)
        pd = compute_point(problem, EQ, cg_n, cr_n)
        bc = certify._BC[problem]
        ref = certify._reference(cg_n, "cg", bc, ((INVARIANT,),))
        (part,) = ref.mapped(certify.triangle_from_angle(EQ)).halves
        assert part.dim <= certify._reference_operators(cg_n, "cg", bc).halves[0][0].dim
        conforming = [dim for space, dim in factored if space == ref.dim]
        assert conforming == ([part.dim] if part.dim > 1 else [])
        assert pd.lam1.lower < pd.lam1.upper

    def test_each_magnitude_is_formed_once_per_point(self, monkeypatch):
        # the CR solve forms |A| and |M| once for the Rayleigh quotients and
        # residual bounds of both its modes (eight bounds), and the CG side
        # forms |A|, |M|, |Kxx|, |Kxy| and |Kyy| once each; the certified
        # numbers are those of forming each for every bound
        formed = []
        real_abs = eigsolve._abs

        def counting(K):
            formed.append(K.shape[0])
            return real_abs(K)

        real_residual, real_form = eigsolve.residual_bound, eigsolve.quad_form_interval
        with monkeypatch.context() as patch:
            # every bound forms its own magnitudes
            patch.setattr(
                eigsolve, "residual_bound", lambda ops, u, rho, _=None: real_residual(ops, u, rho)
            )
            patch.setattr(eigsolve, "quad_form_interval", lambda K, u, _=None: real_form(K, u))
            per_bound = compute_point("dirichlet", 0.9, cg_n=28, cr_n=16)
        monkeypatch.setattr(eigsolve, "_abs", counting)
        once = compute_point("dirichlet", 0.9, cg_n=28, cr_n=16)
        cr_dim = certify._reference_operators(16, "cr", "dirichlet").dim
        cg_dim = certify._reference_operators(28, "cg", "dirichlet").dim
        assert formed == [cr_dim] * 2 + [cg_dim] * 5
        assert once == per_bound

    @pytest.mark.parametrize(
        "theta", [0.0209, 0.3, 0.9, 1.04, EQ], ids=["0.0209", "0.3", "0.9", "1.04", "fl(pi/3)"]
    )
    @pytest.mark.parametrize("cg_n, cr_n", [(12, 8), (32, 32)], ids=["12-8", "32-32"])
    @pytest.mark.parametrize("problem", ["dirichlet", "cr-constant"])
    def test_one_product_pass_certifies_the_bits_of_separate_bounds(
        self, problem, cg_n, cr_n, theta
    ):
        # one pass of A u, M u, |A| |u| and |M| |u| per vector feeds both
        # its Rayleigh interval and its residual bound, and the conforming
        # grams come from the map that gives A: every certified number must
        # be the one that bounds forming their own products give (helpers)
        got = compute_point(problem, theta, cg_n, cr_n)
        assert repr(got) == repr(point_by_bound(problem, theta, cg_n, cr_n))

    @pytest.mark.parametrize("problem", ["dirichlet", "cr-constant"])
    def test_one_product_pass_matches_separate_bounds_on_the_sweep_meshes(self, problem):
        got = compute_point(problem, 0.9, 96, 64)
        assert repr(got) == repr(point_by_bound(problem, 0.9, 96, 64))

    def test_whole_part_bracket_matches_separate_bounds(self):
        # the whole space as one part, on a triangle with no mirror
        tri = certify.triangle_from_vertex(0.37, 0.71)
        got = certify.edge_mean_lambda1(tri, 24, 16)
        assert repr(got) == repr(edge_mean_lambda1_by_bound(tri, 24, 16))

    def test_a_certified_mode_forms_each_product_once(self, monkeypatch):
        # a certified CR mode multiplies the whole operators five times: to
        # normalise it, then A u, M u, |A| |u| and |M| |u| once, for both its
        # Rayleigh interval and its residual bound; the largest row counts
        # that the rounding factors read are taken once per solve
        ops = certify._reference_operators(16, "cr", "dirichlet").mapped(
            certify.triangle_from_angle(0.9)
        )
        products, row_counts = [], []
        real_matmul, real_rows = sp.csr_matrix.__matmul__, eigsolve._max_row_nnz

        def counting_matmul(K, x):
            if K.shape == (ops.dim, ops.dim):
                products.append(K.nnz)
            return real_matmul(K, x)

        def counting_rows(K):
            row_counts.append(K.nnz)
            return real_rows(K)

        monkeypatch.setattr(sp.csr_matrix, "__matmul__", counting_matmul)
        monkeypatch.setattr(eigsolve, "_max_row_nnz", counting_rows)
        encs = eigsolve.solve_lowest(ops, 2)
        assert len(products) == 5 * len(encs)
        assert len(row_counts) == 2

    @pytest.mark.parametrize("family", ["cr", "cg"])
    def test_mapped_operators_and_magnitudes_share_the_reference_patterns(self, family):
        # a point allocates values alone: the whole operators, their
        # magnitudes and the parts' matrices keep the index arrays of the
        # cached map they are mapped from (no entry vanishes at theta = 0.9)
        ref = certify._reference_operators(16, family, "dirichlet")
        ops = ref.mapped(certify.triangle_from_angle(0.9))
        shared = [
            (ops.A, ref), (eigsolve._abs(ops.A), ref),
            (ops.M, ref.M), (eigsolve._abs(ops.M), ref.M),
        ]
        for (part, _), half in zip(ref.halves, ops.halves):
            shared += [(half.A, part), (half.M, part.M)]
        for K, pattern in shared:
            assert np.shares_memory(K.indices, pattern.indices)
            assert np.shares_memory(K.indptr, pattern.indptr)

    def test_every_reference_map_carries_its_halves(self):
        # no proof space is solved whole, whatever its size: every map
        # carries both non-empty halves of a CR space and the symmetric half
        # of a CG space, down to the smallest meshes build_space accepts
        # (one size smaller has no unknowns, or no slave for a side mean).
        smallest = {"dirichlet": {"cg": 3, "cr": 2}, "cr-constant": {"cg": 2, "cr": 2}}
        for problem in ("dirichlet", "cr-constant"):
            bc = certify._BC[problem]
            spaces = _proof_spaces(problem) + [
                ("smallest", n, family) for family, n in smallest[problem].items()
            ]
            for kind, n, family in spaces:
                ref = certify._reference_operators(n, family, bc)
                dims = [half.dim for half, _ in ref.halves]
                assert len(dims) == (2 if family == "cr" else 1), (problem, kind, n, family)
                assert min(dims) > 0
                if family == "cr":
                    assert sum(dims) == ref.dim
            for family, n in smallest[problem].items():
                with pytest.raises(ValueError):
                    certify._reference_operators(n - 1, family, bc)

    def test_every_half_carries_the_band_order_of_its_pattern(self):
        # every half of the quick, sweep and corner spaces, however wide,
        # is stored in the band order that BandOrder.of gives for the
        # pattern of its A and M in the order of its parity basis: its
        # pattern, M and the columns of C are permuted once, and the mapped
        # half carries the width with the slots, so each of its solves
        # factorises by banded Cholesky with no permutation.  The widest
        # are the published corner halves
        tri = certify.triangle_from_angle(0.9)
        widths = {}
        for problem in ("dirichlet", "cr-constant"):
            for kind, n, family in _proof_spaces(problem):
                ref = certify._reference_operators(n, family, certify._BC[problem])
                bases = parity_bases(ref.space)
                mapped_halves = ref.mapped(tri).halves
                for parity, ((half, C), mapped) in enumerate(zip(ref.halves, mapped_halves)):
                    m, band = half.dim, half.band
                    pattern = (np.ones(half.indices.size), half.indices, half.indptr)
                    stored = (sp.csr_matrix(pattern, (m, m)) + abs(half.M)).tocsr()
                    rank = np.argsort(band.perm)
                    unordered = stored[rank][:, rank].tocsr().sorted_indices()
                    order = BandOrder.of(unordered)
                    assert np.array_equal(band.perm, order.perm) and band.width == order.width
                    rows = np.repeat(np.arange(m), np.diff(stored.indptr))
                    assert np.abs(rows - stored.indices).max() == band.width
                    assert (C != bases[parity][:, band.perm]).nnz == 0
                    assert mapped.width == band.width and mapped.slots is half.slots
                    widths[problem, kind, family, n, parity] = order.width
        corner = {key: w for key, w in widths.items() if key[1] == "corner"}
        assert corner == {
            ("dirichlet", "corner", "cg", 288, 0): 143,
            ("dirichlet", "corner", "cr", 128, 0): 127,
            ("dirichlet", "corner", "cr", 128, 1): 126,
            ("cr-constant", "corner", "cg", 192, 0): 114,
            ("cr-constant", "corner", "cr", 32, 0): 32,
            ("cr-constant", "corner", "cr", 32, 1): 32,
        }
        assert max(w for key, w in widths.items() if key[1] != "corner") == 64

    def test_parallel_matches_serial(self):
        thetas = [0.4, 0.7, 1.0, EQ]
        serial = compute_points("cr-constant", thetas, 12, 8, jobs=1)
        parallel = compute_points("cr-constant", thetas, 12, 8, jobs=2)
        assert serial == parallel  # bitwise: same dataclasses, same floats

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="the platform cannot fork",
    )
    def test_pool_asks_for_the_fork_context(self, monkeypatch):
        # warm workers inherit the caller's spaces only when forked, and
        # Python 3.14 makes forkserver the default start method on Linux,
        # so the pool asks for fork by name
        contexts = []

        class InProcess:
            def __init__(self, max_workers, mp_context=None):
                contexts.append(mp_context)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks, chunksize=1):
                return map(fn, tasks)

        monkeypatch.setattr(certify, "ProcessPoolExecutor", InProcess)
        points = compute_points("dirichlet", [0.5, 0.9], 12, 8, jobs=2)
        assert sorted(points) == [0.5, 0.9]
        assert [c.get_start_method() for c in contexts] == ["fork"]

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="pool workers inherit the caller's spaces only when forked",
    )
    @pytest.mark.parametrize(
        "thetas, layouts",
        [
            ([0.4, 0.7, 1.0], [((0,),), ((0,), (1,))]),
            ([0.4, 0.7, 1.0, EQ], [((0,),), ((0,), (1,)), ((INVARIANT,),)]),
        ],
        ids=["below-pi/3", "with-fl(pi/3)"],
    )
    def test_pool_workers_build_nothing_and_set_no_blas_count(
        self, monkeypatch, tmp_path, thetas, layouts
    ):
        # every reference map the points ask for is built in the calling
        # process before the pool forks, with one BLAS thread, so every
        # worker inherits the maps and that count and sets none: each
        # space's build, each part layout's build and each count set logs
        # the process it ran in, through wrappers the workers inherit too
        log = tmp_path / "log"

        def logged(what, call):
            def wrapped(*args):
                with open(log, "a") as f:
                    f.write(f"{os.getpid()} {what} {args[-1]}\n")
                return call(*args)
            return wrapped

        controls = certify._openblas_controls()
        monkeypatch.setattr(certify, "uniform_subdivide", logged("build", certify.uniform_subdivide))
        monkeypatch.setattr(
            certify.ReferenceMap, "with_halves", logged("parts", certify.ReferenceMap.with_halves)
        )
        monkeypatch.setattr(
            certify, "_openblas_controls",
            lambda: tuple((get, logged("set", set_)) for get, set_ in controls),
        )
        certify._reference_operators.cache_clear()
        before = [get() for get, _ in controls]
        for _, set_ in controls:
            set_(2)
        try:
            compute_points("cr-constant", thetas, 12, 8, jobs=2)
            assert [get() for get, _ in controls] == [1] * len(controls)
        finally:
            for (_, set_), n in zip(controls, before):
                set_(n)
        # the counts set to 1 here, which this process keeps, then the
        # conforming space, then the CR space, then at fl(pi/3) the
        # invariant conforming part, taken from the conforming space's map
        # with no second build, all here
        here = os.getpid()
        assert log.read_text().splitlines() == (
            [f"{here} set 1"] * len(controls)
            + [f"{here} build 12", f"{here} parts {layouts[0]}"]
            + [f"{here} build 8"]
            + [f"{here} parts {parts}" for parts in layouts[1:]]
        )
        info = certify._reference_operators.cache_info()
        assert (info.misses, info.currsize) == (len(layouts), len(layouts))

    def test_unknown_problem_fails_alike_at_every_jobs(self):
        # the spaces built before the pool starts are keyed by the
        # problem's boundary condition; an unknown problem still fails as
        # the first point reports it at jobs=1
        messages = set()
        for jobs in (1, 2):
            with pytest.raises(CertifyError) as e:
                compute_points("neumann", [0.4, 0.7], 12, 8, jobs=jobs)
            messages.add(str(e.value))
        assert messages == {
            "point solve failed at theta=0.4: problem must be one of "
            "('dirichlet', 'cr-constant'), got 'neumann'"
        }


class TestBlasThreads:
    def test_thread_counts_restored(self, monkeypatch):
        controls = certify._openblas_controls()
        if not controls:
            pytest.skip("no OpenBLAS thread control found in this process")
        seen = []
        real_solve = certify.solve_lowest

        def recording_solve(ops, count):
            seen.append([get() for get, _ in controls])
            return real_solve(ops, count)

        monkeypatch.setattr(certify, "solve_lowest", recording_solve)
        before = [get() for get, _ in controls]
        for _, set_ in controls:
            set_(2)
        try:
            callers = [get() for get, _ in controls]
            compute_point("dirichlet", 0.8, cg_n=12, cr_n=8)
            assert seen and all(counts == [1] * len(controls) for counts in seen)
            assert [get() for get, _ in controls] == callers
            with pytest.raises(ValueError):
                compute_point("no-such-problem", 0.8, cg_n=12, cr_n=8)
            assert [get() for get, _ in controls] == callers
        finally:
            for (_, set_), n in zip(controls, before):
                set_(n)

    def test_count_of_one_is_not_set(self, monkeypatch):
        # after a fork OpenBLAS restarts its thread pool at the next count
        # set, so a count that is 1 already, as a pool worker inherits it,
        # is left alone
        controls = certify._openblas_controls()
        if not controls:
            pytest.skip("no OpenBLAS thread control found in this process")
        sets = []

        def recording(set_):
            def wrapped(n):
                sets.append(n)
                set_(n)
            return wrapped

        monkeypatch.setattr(
            certify, "_openblas_controls",
            lambda: tuple((get, recording(set_)) for get, set_ in controls),
        )
        before = [get() for get, _ in controls]
        try:
            for _, set_ in controls:
                set_(1)
            compute_point("dirichlet", 0.8, cg_n=12, cr_n=8)
            assert sets == []
            for _, set_ in controls:
                set_(2)
            compute_point("dirichlet", 0.8, cg_n=12, cr_n=8)
            assert sets == [1] * len(controls) + [2] * len(controls)
        finally:
            for (_, set_), n in zip(controls, before):
                set_(n)

    def test_no_library_found_changes_nothing(self, monkeypatch):
        expected = compute_point("cr-constant", 0.9, cg_n=12, cr_n=8)
        monkeypatch.setattr(certify, "_openblas_controls", lambda: ())
        assert compute_point("cr-constant", 0.9, cg_n=12, cr_n=8) == expected

    @needs_two_cores
    def test_corner_bits_independent_of_blas_threads(self):
        # the edge-mean corner mesh, where a two-thread BLAS used to
        # change the last digits of the bracket
        code = (
            "import math\n"
            "from tricert.certify import compute_point\n"
            "print(repr(compute_point('cr-constant', math.pi / 3, 192, 32)))\n"
        )
        outs = stdout_per_blas_threads([sys.executable, "-c", code])
        assert outs[0] == outs[1]


class TestAlgorithm1:
    schedule = Schedule((0.5, 0.8, EQ - 0.01), provenance="test")

    def test_row_invariants(self):
        pts = compute_points("dirichlet", self.schedule.breakpoints, 24, 16)
        res = algorithm1(self.schedule, pts)
        assert len(res.rows) == 3
        prev = 0.0
        for i, row in enumerate(res.rows, start=1):
            assert row.i == i
            assert row.theta_lo == prev
            assert row.theta_hi == self.schedule.breakpoints[i - 1]
            assert 0.0 < row.lambda1_lo <= row.lambda1_hi
            assert row.f_lo is None and row.err is None
            prev = row.theta_hi
        assert res.lower_min == min(r.lambda1_lo for r in res.rows)
        assert res.rows[res.argmin_interval - 1].lambda1_lo == res.lower_min


class TestStep3:
    def test_simplicity_and_derivative_range_coarse(self):
        eps, n2 = math.pi / 300, 3
        pts = compute_points("cr-constant", j_nodes(eps, n2), 24, 16)
        simp = simplicity_check(eps, n2, pts)
        assert simp.separated
        assert simp.lambda1_upper < simp.lambda2_lower
        assert len(simp.intervals) == n2
        rng = algorithm2(pts, simp)
        assert len(rng.rows) == n2
        assert rng.f_lo <= rng.corner.f_value <= rng.f_hi
        assert rng.corner.theta == EQ
        assert rng.eta_max >= 0.0 and rng.err_max >= 0.0
        for row, ext in zip(rng.rows, simp.intervals):
            assert row.f_lo <= row.f_hi
            assert row.err is not None and row.err >= 0.0
            # the ledger carries the brackets the simplicity check extended
            assert (row.theta_lo, row.theta_hi) == (ext.t_lo, ext.t_hi)
            assert (row.lambda1_lo, row.lambda1_hi, row.lambda2_lo) == (
                ext.lam1_lo, ext.lam1_hi, ext.lam2_lo
            )

    def test_each_j_subinterval_extended_once(self, monkeypatch):
        eps, n2 = math.pi / 300, 4
        pts = compute_points("cr-constant", j_nodes(eps, n2), 12, 8)
        calls = []
        real = certify.perturbation_factor_bounds

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(certify, "perturbation_factor_bounds", counting)
        algorithm2(pts, simplicity_check(eps, n2, pts))
        assert len(calls) == n2

    def test_overlapping_enclosures_abort(self):
        eps, n2 = math.pi / 300, 2
        pts = compute_points("cr-constant", j_nodes(eps, n2), 12, 8)
        real = simplicity_check(eps, n2, pts)
        fake = SimplicityEvidence(lambda1_upper=2.0, lambda2_lower=1.0, intervals=real.intervals)
        assert not fake.separated
        with pytest.raises(CertifyError):
            algorithm2(pts, fake)


def _second_mode_as_ground(monkeypatch):
    """Make the backend answer every one-mode request with mode 2, and
    pass every other request through as made."""
    real = eigsolve._lowest_modes

    def second_mode(ops, k, **kwargs):
        if k != 1:
            return real(ops, k, **kwargs)
        vals, vecs = real(ops, 2)
        return vals[1:], vecs[:, 1:]

    monkeypatch.setattr(eigsolve, "_lowest_modes", second_mode)


class TestConformingIndexFree:
    """The conforming side is certified without trusting the mode index:
    a solver that returns mode 2 as the ground mode widens lambda_1's
    upper end and makes step 3 fail with a diagnosis, never prove."""

    def test_wrong_mode_still_brackets_lambda1(self, monkeypatch):
        honest = compute_point("dirichlet", EQ, cg_n=24, cr_n=16)
        _second_mode_as_ground(monkeypatch)
        wrong = compute_point("dirichlet", EQ, cg_n=24, cr_n=16)
        assert wrong.lam1.lower <= LAM1_EQ_DIRICHLET <= wrong.lam1.upper
        assert wrong.lam1.lower == honest.lam1.lower
        # the Rayleigh quotient of mode 2 sits near lambda_2
        assert wrong.lam1.upper > LAM2_EQ_DIRICHLET > honest.lam1.upper

    def test_wrong_mode_fails_step3_with_diagnosis(self, monkeypatch):
        eps, n2 = math.pi / 300, 3
        nodes = j_nodes(eps, n2)
        simp = simplicity_check(eps, n2, compute_points("cr-constant", nodes, 24, 16))
        assert simp.separated
        _second_mode_as_ground(monkeypatch)
        wrong = compute_points("cr-constant", nodes, 24, 16)
        with pytest.raises(CertifyError, match="reference Rayleigh upper .* not below separator"):
            algorithm2(wrong, simp)
        assert not simplicity_check(eps, n2, wrong).separated

    def test_wrong_mode_never_proves(self, monkeypatch):
        _second_mode_as_ground(monkeypatch)
        cert = run_proof(quick_config("dirichlet"))
        assert cert.verdict == "failed"
        assert cert.failure is not None
        assert cert.step2["ok"] is False


@pytest.fixture(scope="module")
def quick_cr_cert():
    return run_proof(quick_config("cr-constant"))


class TestRunProof:
    def test_arpack_failure_is_a_diagnosed_abort(self, monkeypatch):
        # any ARPACK error, not only non-convergence, becomes a certificate
        # that fails at stage abort, never an exception out of run_proof
        def failing_eigsh(*args, **kwargs):
            raise eigsolve.spla.ArpackError(-9999)

        monkeypatch.setattr(eigsolve.spla, "eigsh", failing_eigsh)
        cert = run_proof(quick_config("dirichlet"))
        assert cert.verdict == "failed"
        assert cert.failure["stage"] == "abort"
        assert "ARPACK" in cert.failure["detail"]

    def test_further_part_below_the_floor_is_a_diagnosed_abort(self, monkeypatch):
        # with the CR halves swapped, the antisymmetric half is solved and
        # the symmetric one, which holds lambda_1, must be certified above
        # a floor below lambda_2: its factorisation fails, and the proof
        # ends failed at stage abort, naming the part, never with a bracket
        real = certify._reference_operators

        def swapped(n, family, bc, *parts):
            ref = real(n, family, bc, *parts)
            return replace(ref, halves=ref.halves[::-1]) if family == "cr" else ref

        monkeypatch.setattr(certify, "_reference_operators", swapped)
        cert = run_proof(quick_config("dirichlet"))
        assert cert.verdict == "failed"
        assert cert.failure["stage"] == "abort"
        assert "part 1 is not certified above the floor" in cert.failure["detail"]

    def test_certificate_shape(self, quick_cr_cert):
        cert = quick_cr_cert
        d = cert.to_dict()
        assert d["schema"] == CERT_SCHEMA
        assert d["problem"] == "cr-constant"
        assert cert.verdict in ("proven", "failed")
        for key in ("cg_n", "cr_n", "epsilon", "n2", "schedule_breakpoints",
                    "lemma_constant", "enclosure_model"):
            assert key in d["config"]
        assert "jobs" not in d["config"]  # certificate independent of worker count
        assert set(d["environment"]) == {"python", "numpy", "scipy"}
        assert d["step1"]["computational"] is False
        assert len(d["ledger"]["step2"]) == len(cert.rows_step2)
        assert len(d["ledger"]["step3"]) == len(cert.rows_step3)

    def test_quick_rows_are_complete_even_on_failure(self):
        cert = run_proof(quick_config("dirichlet"))
        # coarse preset cannot clear the margin, but the ledger must be whole
        n_sched = len(quick_schedule("dirichlet").breakpoints)
        assert len(cert.rows_step2) == n_sched
        assert len(cert.rows_step3) == 10
        if cert.verdict == "failed":
            assert cert.failure is not None
            assert cert.failure["stage"] in ("step2", "step3", "abort")

    def test_schedule_gap_rejected(self, tmp_path):
        # a config that would leave (end, pi/3 - epsilon) uncovered cannot
        # be built, so no run can start from one
        p = tmp_path / "short.json"
        p.write_text("[0.5]")  # stops far below the corner interval
        with pytest.raises(ValueError, match="cover"):
            paper_config("dirichlet", schedule=schedule_from_file(str(p)))
        with pytest.raises(ValueError, match="cover"):
            quick_config("dirichlet", epsilon=PAPER_EPSILON["dirichlet"] / 2)

    def test_rerun_and_jobs_byte_identical(self, quick_cr_cert, tmp_path):
        again = run_proof(quick_config("cr-constant"))
        par = run_proof(quick_config("cr-constant", jobs=2))
        paths = []
        for name, cert in (("a", quick_cr_cert), ("b", again), ("c", par)):
            path = tmp_path / f"{name}.json"
            cert.to_json(path)
            paths.append(path.read_bytes())
        assert paths[0] == paths[1] == paths[2]

    def test_ledger_csv_format(self, quick_cr_cert, tmp_path):
        path = tmp_path / "ledger.csv"
        quick_cr_cert.write_csv(path)
        with open(path, newline="") as f:
            rows = list(csv.reader(f))
        assert rows[0] == list(CSV_COLUMNS)
        n2 = len(quick_cr_cert.rows_step2)
        for row in rows[1 : 1 + n2]:
            assert row[6:] == ["", "", ""]  # sweep rows carry no F columns
        for row in rows[1 + n2 :]:
            assert all(row), row  # corner rows are fully populated
        # repr round trip: theta_hi of the final row is exactly pi/3
        assert float(rows[-1][2]) == EQ
