"""Benchmark harness for tricert.

    python3 bench/run.py --workload sweep-dirichlet --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all --seed 1

Runs one workload against the public API for ``--seconds`` seconds as a
closed loop with one caller, checks every certified output against
bench/reference.json, and prints as its last line one JSON object with
the keys correct, attempted, failed and metrics.  ``--trace 0`` reports
the end-to-end metrics of BENCHMARK.json; ``--trace 1`` wraps the public
functions of each module from outside the program and reports the
per-layer metrics instead.  bench/README.md says why each workload
exists and which layer metric should move which end-to-end metric.

The program is imported from src/ of the checkout this file sits in.
The BLAS thread variables are recorded, never set: the oversubscription
they cause is part of what the sweeps measure.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import io
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
OUT = ROOT / ".bench_out"

SWEEP_MESH = (96, 64)
EQ_DIRICHLET = 16.0 * math.pi**2 / 3.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# Angles per compute_points call.  run_proof passes its whole angle list
# in one call; a sweep operation does the same on a seeded sample small
# enough to repeat within a run.  At jobs=2, 24 angles are 3 chunks of 4
# per worker, so one pool serves about 10 s of solves and its start-up
# is under 1 % of an operation (bench/README.md).
WORKLOADS = {
    "sweep-dirichlet": {"kind": "sweep", "problem": "dirichlet", "jobs": 1, "batch": 24},
    "sweep-edgemean-j2": {"kind": "sweep", "problem": "cr-constant", "jobs": 2, "batch": 24},
    "corner": {"kind": "corner", "jobs": 1},
    "prove-quick": {"kind": "prove", "jobs": 1},
}


@dataclass(frozen=True)
class Config:
    """Problem sizes of the workloads; the self-tests shrink them."""

    sweep_mesh: tuple[int, int] = SWEEP_MESH
    batch: int | None = None            # None: the workload's own
    corner_mesh: dict | None = None     # None: the meshes in the reference
    prove_argv: tuple[str, ...] = ("--quick",)
    setup_probes: int = 6


def import_program():
    """Import tricert from this checkout's src/ and from nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import tricert
        import tricert.cli  # noqa: F401  (and with it every other module)
    except ImportError as exc:
        raise SystemExit(f"cannot import tricert from {src}: {exc}")
    if src not in Path(tricert.__file__).resolve().parents:
        raise SystemExit(f"tricert was imported from {tricert.__file__}, not from {src}")
    return tricert


def load_reference() -> dict:
    with open(BENCH / "reference.json") as f:
        ref = json.load(f)
    ref["sweep"] = {
        p: {row[0]: (row[1:3], row[3:5]) for row in rows} for p, rows in ref["sweep"].items()
    }
    return ref


def intersects(a, b) -> bool:
    """Two closed intervals [lo, hi] share a point."""
    return a[0] <= b[1] and b[0] <= a[1]


def _relwidth(lo: float, hi: float) -> float:
    return (hi - lo) / lo


def environment() -> dict:
    import numpy as np
    import scipy

    def blas(mod):
        cfg = mod.__config__.CONFIG["Build Dependencies"]["blas"]
        return f"{cfg.get('name')} {cfg.get('version')}"

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(np),
        "scipy_blas": blas(scipy),
        "thread_vars": {k: os.environ.get(k) for k in THREAD_VARS},
    }


# ---------------------------------------------------------------------------
# workloads: run() is one timed operation; check() verifies its outputs
# outside the clock and returns the number of certified points it made


@dataclass
class Checks:
    attempted: int = 0
    failed: int = 0
    widths: list[float] = field(default_factory=list)
    info: dict = field(default_factory=dict)

    def outcome(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            for p in problems:
                print(f"FAILED {what}: {p}", file=sys.stderr)


def _bracket_problems(lam1, lam2, ref1, ref2) -> list[str]:
    return [
        f"{name} {got} misses reference {want}"
        for name, got, want in (("lambda1", lam1, ref1), ("lambda2", lam2, ref2))
        if not intersects(got, want)
    ]


class Sweep:
    """compute_points over seeded batches of published breakpoints and J nodes."""

    def __init__(self, spec, cfg, ref, seed, tricert):
        self.problem = spec["problem"]
        self.cfg = cfg
        self.ref = ref["sweep"][self.problem]
        self.certify = tricert.certify
        pool = sorted(self.ref)
        random.Random(seed).shuffle(pool)
        b = cfg.batch or spec["batch"]
        self.inputs = [pool[i:i + b] for i in range(0, len(pool) - b + 1, b)]

    def probe_args(self) -> list[str]:
        cg_n, cr_n = self.cfg.sweep_mesh
        return [self.problem, repr(self.inputs[0][0]), str(cg_n), str(cr_n)]

    def run(self, inp, jobs):
        return self.certify.compute_points(self.problem, inp, *self.cfg.sweep_mesh, jobs=jobs)

    def check(self, inp, out, checks: Checks) -> int:
        for t in inp:
            pd = out[t]
            lam1, lam2 = (pd.lam1.lower, pd.lam1.upper), (pd.lam2.lower, pd.lam2.upper)
            checks.widths.append(_relwidth(*lam1))
            checks.outcome(f"{self.problem} theta={t!r}",
                           _bracket_problems(lam1, lam2, *self.ref[t]))
        return len(inp)


class Corner:
    """compute_point at fl(pi/3) on the published corner meshes of both problems."""

    def __init__(self, spec, cfg, ref, seed, tricert):
        self.ref = ref["corner"]
        self.mesh = cfg.corner_mesh or {p: (r["cg_n"], r["cr_n"]) for p, r in self.ref.items()}
        self.certify = tricert.certify
        order = sorted(self.ref)
        random.Random(seed).shuffle(order)  # the seed only orders the two solves
        self.inputs = [order]

    def probe_args(self) -> list[str]:
        return []

    def run(self, inp, jobs):
        return {p: self.certify.compute_point(p, math.pi / 3, *self.mesh[p]) for p in inp}

    def check(self, inp, out, checks: Checks) -> int:
        for p in inp:
            pd, r = out[p], self.ref[p]
            lam1, lam2 = (pd.lam1.lower, pd.lam1.upper), (pd.lam2.lower, pd.lam2.upper)
            problems = _bracket_problems(lam1, lam2, r["lam1"], r["lam2"])
            if p == "dirichlet" and not (lam1[0] <= EQ_DIRICHLET <= lam1[1]):
                problems.append(f"lambda1 {lam1} does not contain 16 pi^2 / 3")
            checks.widths.append(_relwidth(*lam1))
            checks.outcome(f"corner {p}", problems)
        return len(inp)


class Prove:
    """`tricert prove --quick` through cli.main, both problems, one after the other."""

    def __init__(self, spec, cfg, ref, seed, tricert):
        self.ref = ref["prove_quick"]
        self.argv = list(cfg.prove_argv)
        self.cli = tricert.cli
        self.certify = tricert.certify
        order = sorted(self.ref)
        random.Random(seed).shuffle(order)  # the seed only orders the two proofs
        self.inputs = [order]
        self.sha: dict[str, str] = {}

    def probe_args(self) -> list[str]:
        return []

    def run(self, inp, jobs):
        out = {}
        OUT.mkdir(exist_ok=True)
        for p in inp:
            with tempfile.TemporaryDirectory(dir=OUT) as d:
                argv = ["prove", "--problem", p, "--jobs", str(jobs), "--out", d, *self.argv]
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    rc = self.cli.main(argv)
                path = Path(d) / "certificate.json"
                out[p] = (rc, path.read_bytes() if path.exists() else None)
        return out

    def check(self, inp, out, checks: Checks) -> int:
        points = 0
        for p in inp:
            rc, raw = out[p]
            problems = []
            if rc == 2 or raw is None:
                problems.append(f"exit code {rc}")
                checks.outcome(f"prove {p}", problems)
                continue
            cert = json.loads(raw)
            cfg = cert["config"]
            # breakpoints and J nodes (the last breakpoint is the first J
            # node), plus the corner bracket
            nodes = self.certify.j_nodes(cfg["epsilon"], cfg["n2"])
            points += len(set(cfg["schedule_breakpoints"]) | set(nodes)) + 1
            if (cert["failure"] or {}).get("stage") == "abort":
                problems.append(f"abort: {cert['failure']['detail']}")
            s2 = cert["step2"]
            if "equilateral_lower" in s2:
                eq = (s2["equilateral_lower"], s2["equilateral_upper"])
                if not intersects(eq, self.ref[p]["equilateral"]):
                    problems.append(f"equilateral {eq} misses {self.ref[p]['equilateral']}")
                if p == "dirichlet" and not (eq[0] <= EQ_DIRICHLET <= eq[1]):
                    problems.append(f"equilateral {eq} does not contain 16 pi^2 / 3")
            sha = hashlib.sha256(raw).hexdigest()
            if self.sha.setdefault(p, sha) != sha:
                problems.append(f"certificate bytes differ between runs ({sha})")
            rows = cert["ledger"]["step2"] + cert["ledger"]["step3"]
            checks.widths.extend(_relwidth(r["lambda1_lo"], r["lambda1_hi"]) for r in rows)
            checks.info[p] = {
                "verdict": cert["verdict"],
                "failure_stage": (cert["failure"] or {}).get("stage"),
                "margin_step2": s2.get("margin"),
                "step3_f_hi": cert["step3"].get("f_hi"),
                "sha256": sha,
                "sha256_matches_reference": sha == self.ref[p]["sha256"],
            }
            checks.outcome(f"prove {p}", problems)
        return points


KINDS = {"sweep": Sweep, "corner": Corner, "prove": Prove}


# ---------------------------------------------------------------------------
# tracing


class _ModuleProxy:
    """Stands in for a module in one importer's namespace so that only that
    importer's lookups of the wrapped attributes are traced."""

    def __init__(self, module):
        self._module = module

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    """Spans around the public functions of each module, patched in from
    outside the program.  Spans stay in memory until the run ends."""

    def __init__(self):
        self.spans: list = []        # (op, name, start, end, parent, self_s)
        self.counters: Counter = Counter()
        self.op = 0
        self._stack: list = []       # [span index, time covered by children]
        self._undo: list = []

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def wrap(self, owner, attr, name, measure=None) -> None:
        fn = getattr(owner, attr)
        stack, spans = self._stack, self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [len(spans), 0.0]
            parent = stack[-1][0] if stack else None
            spans.append(None)
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                if stack:
                    stack[-1][1] += t1 - t0
                spans[frame[0]] = (self.op, name, t0, t1, parent, t1 - t0 - frame[1])
            if measure is not None:
                self.counters.update(measure(args, result))
            return result

        self._set(owner, attr, traced)

    def install(self, tricert) -> None:
        from tricert import certify, cli, eigsolve

        def nnz(args, ops):
            return {"nnz_A": ops.A.nnz, "nnz_M": ops.M.nnz}

        def modes(args, encs):
            return {"modes": len(encs)}

        def written(args, result):
            return {"write_bytes": os.path.getsize(args[1])}

        sites = [
            ("mesh.uniform_subdivide", [(certify, "uniform_subdivide"), (cli, "uniform_subdivide")], None),
            ("fem.build_space", [(certify, "build_space"), (cli, "build_space")], None),
            ("fem.assemble", [(certify, "assemble"), (cli, "assemble")], nnz),
            ("eigsolve.solve_lowest", [(certify, "solve_lowest"), (cli, "solve_lowest")], modes),
            ("eigsolve.verify_enclosure", [(certify, "verify_enclosure"), (cli, "verify_enclosure")], None),
            ("eigsolve.residual_bound", [(eigsolve, "residual_bound")], None),
            ("eigsolve.quad_form_interval", [(eigsolve, "quad_form_interval"), (certify, "quad_form_interval")], None),
            ("bounds.bracket", [(certify, "bracket"), (cli, "eig_bracket")], None),
            ("bounds.eta_range", [(certify, "eta_range")], None),
            ("bounds.err_bound", [(certify, "err_bound")], None),
            ("geometry.perturbation_factor_bounds", [(certify, "perturbation_factor_bounds")], None),
            ("certify.compute_point", [(certify, "compute_point")], None),
            ("certify.compute_points", [(certify, "compute_points"), (cli, "compute_points")], None),
            ("certify.algorithm1", [(certify, "algorithm1")], None),
            ("certify.simplicity_check", [(certify, "simplicity_check")], None),
            ("certify.algorithm2", [(certify, "algorithm2")], None),
            ("certify.run_proof", [(cli, "run_proof")], None),
            ("cli.write", [(certify.Certificate, "to_json"), (certify.Certificate, "write_csv")], written),
        ]
        for name, owners, measure in sites:
            for owner, attr in owners:
                self.wrap(owner, attr, name, measure)
        # the library calls eigsolve makes, as eigsolve looks them up
        spla = _ModuleProxy(eigsolve.spla)
        linalg = _ModuleProxy(eigsolve.scipy.linalg)
        scipy_ns = _ModuleProxy(eigsolve.scipy)
        scipy_ns.linalg = linalg
        self._set(eigsolve, "spla", spla)
        self._set(eigsolve, "scipy", scipy_ns)
        self.wrap(spla, "splu", "eigsolve.mass_factor")
        self.wrap(spla, "eigsh", "eigsolve.backend_arpack")
        self.wrap(linalg, "eigh", "eigsolve.backend_dense")

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def write(self, path: Path) -> None:
        path.parent.mkdir(exist_ok=True)
        with open(path, "w") as f:
            json.dump({"fields": ["op", "name", "start", "end", "parent", "self_s"],
                       "spans": self.spans}, f)


PER_POINT_CALLS = (
    "mesh.uniform_subdivide", "fem.build_space", "fem.assemble",
    "eigsolve.verify_enclosure", "eigsolve.residual_bound", "eigsolve.quad_form_interval",
    "eigsolve.mass_factor", "eigsolve.backend_arpack", "eigsolve.backend_dense",
    "geometry.perturbation_factor_bounds",
)
PER_POINT_SELF = (
    "mesh.uniform_subdivide", "fem.build_space", "fem.assemble",
    "eigsolve.solve_lowest", "eigsolve.verify_enclosure", "eigsolve.residual_bound",
    "eigsolve.mass_factor", "eigsolve.backend_arpack", "eigsolve.backend_dense",
    "bounds.bracket", "bounds.eta_range", "bounds.err_bound",
    "geometry.perturbation_factor_bounds", "certify.compute_point",
    "certify.algorithm1", "certify.simplicity_check", "certify.algorithm2", "cli.write",
)


def layer_metrics(tracer: Tracer, points: int) -> dict[str, float]:
    calls: Counter = Counter()
    self_s: dict[str, float] = defaultdict(float)
    point_s = []
    for _op, name, t0, t1, _parent, own in tracer.spans:
        calls[name] += 1
        self_s[name] += own
        if name == "certify.compute_point":
            point_s.append(t1 - t0)
    m = {f"{n}.calls": calls[n] / points for n in PER_POINT_CALLS}
    m.update({f"{n}.s": self_s[n] / points for n in PER_POINT_SELF})
    m["fem.nnz_A"] = tracer.counters["nnz_A"] / points
    m["fem.nnz_M"] = tracer.counters["nnz_M"] / points
    m["eigsolve.certs_per_mode"] = calls["eigsolve.residual_bound"] / tracer.counters["modes"]
    m["cli.write.bytes"] = tracer.counters["write_bytes"] / points
    point_s.sort()
    m["certify.compute_point.p50_s"] = statistics.median(point_s)
    m["certify.compute_point.tail_s"] = point_s[math.ceil(0.9 * len(point_s)) - 1]
    return m


# ---------------------------------------------------------------------------
# measurement


def _cpu() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


@dataclass
class Phase:
    op_s: list[float] = field(default_factory=list)
    points: int = 0
    cpu_per_wall: float = 0.0
    first_widths: list[float] = field(default_factory=list)  # of the first op


def run_phase(work, seconds: float, jobs: int, checks: Checks, min_ops: int,
              tracer: Tracer | None = None, between=None) -> Phase:
    """Closed loop: the next op starts when the previous one has returned,
    until the ops have taken ``seconds``.  ``between`` runs after each op,
    outside the ops' clock."""
    phase = Phase()
    cpu0, start = _cpu(), time.perf_counter()
    ops, busy = 0, 0.0
    while ops < min_ops or busy < seconds:
        inp = work.inputs[ops % len(work.inputs)]
        ops += 1
        if tracer is not None:
            tracer.op += 1
        t0 = time.perf_counter()
        try:
            out = work.run(inp, jobs)
        except Exception:  # a failed operation is counted, not fatal
            busy += time.perf_counter() - t0
            traceback.print_exc()
            checks.attempted += len(inp)
            checks.failed += len(inp)
            continue
        op_s = time.perf_counter() - t0
        busy += op_s
        phase.op_s.append(op_s)
        widths = len(checks.widths)
        phase.points += work.check(inp, out, checks)
        if not phase.first_widths:
            phase.first_widths = checks.widths[widths:]
        if between is not None:
            between()
    if not phase.op_s:
        raise SystemExit(f"all {ops} operations failed")
    phase.cpu_per_wall = (_cpu() - cpu0) / (time.perf_counter() - start)
    return phase


class SetupProbes:
    """Times fresh processes that import the program and, on the sweeps,
    certify the run's first angle.  A helper process starts them, so that
    they stay out of this process's children until peak RSS is read."""

    def __init__(self, work):
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--probe-helper", *work.probe_args()],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.times: list[float] = []

    def probe(self) -> None:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("a set-up probe failed")
        self.times.append(float(line))

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait(timeout=170)


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 cfg: Config = Config()) -> tuple[dict, dict]:
    """Returns (result, info): result is the object printed last."""
    tricert = import_program()
    spec = WORKLOADS[workload]
    work = KINDS[spec["kind"]](spec, cfg, load_reference(), seed, tricert)
    checks = Checks()
    min_ops = 2 if spec["kind"] == "prove" else 1  # determinism needs a repeat
    info: dict = {"workload": workload, "seed": seed, "seconds": seconds,
                  "trace": int(trace), "environment": environment()}

    if not trace:
        # set-up probes are spread over the run: one before the first op,
        # one after each op, and the rest after the last
        probes = SetupProbes(work)

        def probe_between() -> None:
            if len(probes.times) < cfg.setup_probes:
                probes.probe()

        try:
            probes.probe()
            phase = run_phase(work, seconds, spec["jobs"], checks, min_ops, between=probe_between)
            rss = peak_rss_mb()
            while len(probes.times) < cfg.setup_probes:
                probes.probe()
        finally:
            probes.close()
        metrics = {
            "op_s": statistics.median(phase.op_s),
            "setup_s": statistics.median(probes.times),
            "peak_rss_mb": rss,
            "lam1_relwidth": statistics.median(phase.first_widths),
        }
        info.update(op_s=phase.op_s, points=phase.points, setup_probe_s=probes.times)
    else:
        # untraced at the workload's own jobs (for CPU/wall), untraced at
        # jobs=1 when that differs, then traced at jobs=1 so every span
        # lands in this process; overhead compares the last two
        plan = [(spec["jobs"], False)] + ([(1, False)] if spec["jobs"] != 1 else []) + [(1, True)]
        share = seconds / len(plan)
        phases = []
        tracer = Tracer()
        for jobs, traced in plan:
            if traced:
                tracer.install(tricert)
            try:
                phases.append(run_phase(work, share, jobs, checks, 1,
                                        tracer if traced else None))
            finally:
                tracer.uninstall()
        metrics = layer_metrics(tracer, phases[-1].points)
        metrics["certify.pool.cpu_per_wall"] = phases[0].cpu_per_wall
        metrics["trace.overhead_ratio"] = (
            statistics.median(phases[-1].op_s) / statistics.median(phases[-2].op_s)
        )
        path = OUT / f"trace-{workload}-seed{seed}.json"
        tracer.write(path)
        info.update(op_s=[p.op_s for p in phases], points=[p.points for p in phases],
                    spans=len(tracer.spans), trace_file=str(path.relative_to(ROOT)))
    if checks.info:
        info["prove"] = checks.info

    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": with_units(metrics, trace),
    }
    return result, info


def with_units(values: dict[str, float], trace: bool) -> dict:
    """Attach the units BENCHMARK.json declares; the names must match it."""
    with open(ROOT / "BENCHMARK.json") as f:
        declared = json.load(f)["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(values):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {set(units) ^ set(values)}")
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def run_all(args) -> int:
    """Every workload in its own process; a table, then one combined object."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=True)
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        print(f"{name}: attempted {res['attempted']}, failed {res['failed']}")
        for metric, v in res["metrics"].items():
            print(f"  {metric:40s} {v['value']:>14.6g} {v['unit']}")
            combined["metrics"][f"{name}/{metric}"] = v
    print(json.dumps(combined))
    return 0


def probe(args: list[str]) -> int:
    tricert = import_program()
    if args:
        problem, theta, cg_n, cr_n = args
        tricert.certify.compute_points(problem, [float(theta)], int(cg_n), int(cr_n))
    return 0


def probe_helper(args: list[str]) -> int:
    """For each line on stdin, time one probe process and print its seconds."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--probe", *args]
    for _ in sys.stdin:
        t0 = time.perf_counter()
        subprocess.run(argv, check=True, timeout=170, stdout=subprocess.DEVNULL)
        print(time.perf_counter() - t0, flush=True)
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe", nargs="*", help=argparse.SUPPRESS)
    p.add_argument("--probe-helper", nargs="*", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.probe is not None:
        return probe(args.probe)
    if args.probe_helper is not None:
        return probe_helper(args.probe_helper)
    if args.workload is None:
        p.error("--workload is required")
    if args.workload == "all":
        return run_all(args)
    result, info = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
