"""The three benchmark workloads ("lanes"): inputs, operations and checks.

Each lane draws its inputs from the workload seed, hands out rounds of
operations, and checks every operation's output against an oracle or a
closed form. An operation is one README command run in-process through
``caplab.cli.main`` or one library pipeline; the runner executes each one
twice, times both executions and compares their output bytes.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from caplab import cli
from caplab import families as fam
from caplab import identities as idn
from caplab import meshkit as mk
from caplab import stability as st
from caplab.discops import estimate_fields

import oracle

ANGLES_DEG = (45, 60, 75, 90, 120)
EIG_K = 10
EIG_RTOL = 1e-6
# stability_verdict switches from its dense solve to LOBPCG above this many
# vertices; an eigenvalue mismatch there is the seed's known solver stall.
ITERATIVE_NV = 1600
IDENTITY_TOL = 0.02
# the sweep's default onset threshold is absolute and suits r = 1; the
# eigenvalues scale as 1/r^2, so the threshold is scaled with them
ONSET_TOL_R1 = 0.02


@dataclass
class Outcome:
    """What one execution left behind: exit code, stderr, files or a value."""

    out: Path
    rc: int | None = None
    stderr: str = ""
    value: object = None
    mesh: tuple | None = None
    error: str | None = None

    def files(self):
        return {p.name: p.read_bytes() for p in sorted(self.out.iterdir()) if p.is_file()}


@dataclass
class Failure:
    """Why an execution failed; ``known`` names a defect the seed is known to have.

    "solver-stall": LOBPCG returns a wrong eigenvalue above 1600 vertices and
    exits 0. "unprojected-refinement": ``identities --mesh --levels 2``
    refines off the surface and exits 1. See NOTES.md.
    """

    reason: str
    known: str | None = None


@dataclass
class Op:
    """One operation: ``run`` executes it into a directory, ``check`` judges it.

    ``check`` returns None when the output is correct. ``fingerprint`` turns
    an outcome into the bytes that two executions must share.
    """

    kind: str
    run: Callable[[Path], Outcome]
    check: Callable[[Outcome], Failure | None]
    fingerprint: Callable[[Outcome], object] = Outcome.files


def run_cli(argv, out):
    out.mkdir(parents=True, exist_ok=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        rc = cli.main([*argv, "--out", str(out)])
    return Outcome(out=out, rc=rc, stderr=stderr.getvalue())


def warm_up(workdir):
    """Run every command once on a tiny cap (nv = 25).

    This pays lazy imports and LAPACK set-up before the first timed
    operation, and it reaches every layer the traced run reports.
    """
    out = workdir / "warmup"
    run_cli(["gen", "cap", "--angle-deg", "60", "--res", "12", "--name", "tiny"], out)
    mesh, walls = str(out / "tiny.capmesh"), str(out / "tiny.walls.json")
    for argv in (["stability", "--mesh", mesh], ["identities", "--mesh", mesh, "--levels", "2"],
                 ["testfn", "--family", "cap", "--angle-deg", "60", "--res", "12"],
                 ["wedge", "--walls", walls, "--mesh", mesh]):
        run_cli(argv, out / "run")
    shutil.rmtree(out)


def _rc(outcome, *allowed):
    if outcome.rc in allowed:
        return None
    return Failure(f"exit code {outcome.rc}: {outcome.stderr.strip()[-200:]}")


def _read_json(path):
    return json.loads(Path(path).read_text())


def _cap_nv(theta, res):
    rings = max(2, round(res * theta / (2.0 * math.pi * math.sin(theta))))
    return 1 + res * rings


def rung_resolution(angle_deg, target_nv):
    """Azimuthal resolution whose cap at this angle has about target_nv vertices."""
    theta = math.radians(angle_deg)
    return min(range(16, 257), key=lambda res: abs(_cap_nv(theta, res) - target_nv))


class EigenTally:
    """Eigenvalues checked against the oracle, and how many matched."""

    def __init__(self):
        self.requested = 0
        self.matched = 0

    def compare(self, got, want, scale, nv):
        got = np.asarray(got, float)
        want = np.asarray(want, float)
        self.requested += len(want)
        if got.shape != want.shape:
            return Failure(f"{len(got)} eigenvalues written, {len(want)} expected")
        ok = np.abs(got - want) <= EIG_RTOL * (np.abs(want) + scale)
        self.matched += int(ok.sum())
        if ok.all():
            return None
        j = int(np.argmin(ok))
        known = "solver-stall" if nv > ITERATIVE_NV else None
        return Failure(f"eigenvalue {j} = {got[j]:.10g}, oracle {want[j]:.10g} (nv={nv})", known)


def _system_spectrum(mesh, walls, fields, k):
    system = st.assemble_index_form(mesh, walls, fields)
    vals, _ = oracle.constrained_lowest(system, k)
    return vals, float(system.meta["max_sigma_sq"])


class Lane:
    name = ""

    def __init__(self, seed, workdir):
        self.rng = random.Random(f"{self.name}:{seed}")
        self.workdir = workdir
        self.eigen = EigenTally()

    def write_inputs(self):
        """Input files, written during set-up."""

    def prepare(self):
        """Oracle values, computed after set-up and before timing."""

    def next_round(self):
        raise NotImplementedError

    def describe(self):
        return ""


# -- mesh-lane ------------------------------------------------------------------


@dataclass
class Rung:
    name: str
    angle_deg: int
    res: int
    radius: float
    nv: int = 0
    eigenvalues: np.ndarray = field(default=None, repr=False)
    scale: float = 1.0


class MeshLane(Lane):
    """Estimated-field commands on CAPMESH files: estimation, iterative solves, I/O.

    Three rungs, each a cap at a seed-drawn angle. A rung's resolution is set
    from its angle so that its vertex count matches the 60-degree cap at res
    64/96/128 (769/1729/3201); otherwise the angle draw alone would move a
    run's cost by 2x. ``identities --levels 2`` quadruples the mesh, so it
    runs on the two smaller rungs only (on the largest it would take as long
    as the rest of the round); it shows the same defect there.
    """

    name = "mesh-lane"
    TARGET_NV = (769, 1729, 3201)

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        radius = round(self.rng.uniform(0.5, 2.0), 3)
        self.rungs = []
        for i, target in enumerate(self.TARGET_NV):
            angle = self.rng.choice(ANGLES_DEG)
            self.rungs.append(Rung(f"rung{i}", angle, rung_resolution(angle, target), radius))
        self.ops = self._ops()
        self.rng.shuffle(self.ops)

    def _paths(self, rung):
        mesh = self.workdir / "inputs" / f"{rung.name}.capmesh"
        return mesh, mk.default_walls_path(mesh)

    def write_inputs(self):
        for rung in self.rungs:
            argv = ["gen", "cap", "--radius", repr(rung.radius), "--angle-deg", str(rung.angle_deg),
                    "--res", str(rung.res), "--name", rung.name]
            outcome = run_cli(argv, self.workdir / "inputs")
            if outcome.rc != 0:
                raise RuntimeError(f"gen failed: {outcome.stderr}")

    def prepare(self):
        for rung in self.rungs:
            mesh, walls = mk.load(self._paths(rung)[0])
            rung.nv = mesh.nv
            rung.eigenvalues, rung.scale = _system_spectrum(
                mesh, walls, estimate_fields(mesh, walls), EIG_K
            )

    def describe(self):
        return " ".join(f"{r.name}=a{r.angle_deg}/res{r.res}/nv{r.nv}" for r in self.rungs) + (
            f" R={self.rungs[0].radius}"
        )

    def _ops(self):
        ops = []
        for rung in self.rungs:
            mesh, walls = (str(p) for p in self._paths(rung))
            ops.append(Op("stability --mesh", lambda out, m=mesh: run_cli(["stability", "--mesh", m], out),
                          lambda o, r=rung: self._check_stability(o, r)))
            ops.append(Op("identities --mesh --levels 1",
                          lambda out, m=mesh: run_cli(["identities", "--mesh", m, "--levels", "1"], out),
                          self._check_identities_l1))
            ops.append(Op("wedge --mesh",
                          lambda out, m=mesh, w=walls: run_cli(["wedge", "--walls", w, "--mesh", m], out),
                          lambda o, r=rung: self._check_wedge(o, r)))
        for rung in self.rungs[:2]:
            mesh = str(self._paths(rung)[0])
            ops.append(Op("identities --mesh --levels 2",
                          lambda out, m=mesh: run_cli(["identities", "--mesh", m, "--levels", "2"], out),
                          self._check_identities_l2))
        return ops

    def next_round(self):
        return self.ops

    def _check_stability(self, outcome, rung):
        failure = _rc(outcome, 0)
        if failure:
            return failure
        lines = (outcome.out / "eigenvalues.csv").read_text().split()[1:]
        got = [float(line.split(",")[1]) for line in lines]
        return self.eigen.compare(got, rung.eigenvalues, rung.scale, rung.nv)

    def _check_wedge(self, outcome, rung):
        failure = _rc(outcome, 0)
        if failure:
            return failure
        doc = _read_json(outcome.out / "wedge.json")
        want = abs(math.cos(math.radians(rung.angle_deg)))
        if abs(doc["norm_a"] - want) > 1e-12:
            return Failure(f"|a| = {doc['norm_a']}, closed form {want}")
        got = doc["classification"]["lambda_min"]
        return self.eigen.compare([got], rung.eigenvalues[:1], rung.scale, rung.nv)

    @staticmethod
    def _check_identities_l1(outcome):
        """Exit 0 or 1 are both verdicts; the code must match the finest level's residuals."""
        failure = _rc(outcome, 0, 1)
        if failure:
            return failure
        reports = _read_json(outcome.out / "identities.json")["reports"]
        finest = reports[-1]["resolution"] if reports else None
        live = [r for r in reports if r["resolution"] == finest and not r["info"].get("skipped")]
        if not live or any(not math.isfinite(r["rel_residual"]) for r in live):
            return Failure("missing or non-finite residuals")
        over = any(r["rel_residual"] > IDENTITY_TOL for r in live)
        if over != (outcome.rc == 1):
            return Failure(f"exit code {outcome.rc} disagrees with the written residuals")
        return None

    @staticmethod
    def _check_identities_l2(outcome):
        """Either the finest level passes, or the command refuses with a named error."""
        if outcome.rc == 0:
            return MeshLane._check_identities_l1(outcome)
        if outcome.rc == 2 and outcome.stderr.startswith("error: "):
            return None
        if outcome.rc == 1:
            return Failure("finest-level residuals over tolerance", "unprojected-refinement")
        return _rc(outcome, 0, 2)


# -- family-lane ----------------------------------------------------------------


def _suite_document(outcome):
    return json.dumps(idn.suite_to_document(outcome.value), sort_keys=True)


class FamilyLane(Lane):
    """Exact-field commands: no estimation and no eigensolve.

    Every round runs each operation once with fresh draws, so a run averages
    over hundreds of inputs. Neither field estimation nor the eigensolver
    runs here, so changes to them should not move this lane.
    """

    name = "family-lane"

    def _draw(self):
        g = self.rng
        return {
            "R": round(g.uniform(0.5, 2.0), 3),
            "angle": g.choice(ANGLES_DEG),
            "r": round(g.uniform(0.5, 2.0), 3),
            "aspect": round(g.uniform(1.5, 4.0), 3),
            "amplitude": round(g.uniform(0.05, 0.15), 3),
        }

    def next_round(self):
        d = self._draw()
        R, a, r = repr(d["R"]), str(d["angle"]), repr(d["r"])
        L = repr(round(d["r"] * d["aspect"], 6))
        cap = ["--family", "cap", "--radius", R, "--angle-deg", a]
        cyl = ["--family", "cylinder", "--r", r, "--length", L]
        monge = ["--family", "monge", "--amplitude", repr(d["amplitude"])]
        ops = [
            Op(f"identities {args[1]}",
               lambda out, args=args: run_cli(["identities", *args, "--levels", "3"], out),
               lambda o: _rc(o, 0))
            for args in (cap, cyl, monge)
        ]
        ops += [
            Op("testfn cap", lambda out: run_cli(["testfn", *cap], out), self._check_testfn_cap),
            Op("testfn cylinder --identity-mode",
               lambda out: run_cli(["testfn", *cyl, "--identity-mode"], out),
               lambda o: self._check_testfn_cylinder(o, float(r), float(L))),
            Op("gen cap --res 128",
               lambda out: run_cli(["gen", "cap", "--radius", R, "--angle-deg", a, "--res", "128"], out),
               lambda o: self._check_gen(o, d)),
            Op("library refine+suite", lambda out: self._library_path(d, out), self._check_library,
               _suite_document),
        ]
        self.rng.shuffle(ops)
        return ops

    @staticmethod
    def _library_path(d, out):
        """The pipeline of demos 01 and 02: generate, refine twice on the surface, run the suite."""
        spec = fam.Cap(R=d["R"], theta=math.radians(d["angle"]), resolution=16)
        mesh, _ = fam.generate_mesh(spec)
        project = fam.surface_projector(spec)
        walls = spec.walls()
        for _ in range(2):
            mesh = mk.refine(mesh, project, walls=walls)
        fields = fam.exact_fields(spec, mesh)
        a = [0.0, 0.0, math.cos(spec.theta)]
        reports = idn.run_suite(mesh, walls, fields, resolution="64", capillary_vector=a)
        return Outcome(out=out, rc=0, value=reports, mesh=(mesh, walls))

    @staticmethod
    def _check_library(outcome):
        mesh, walls = outcome.mesh
        report = mk.validate(mesh, walls)
        if not report.ok:
            return Failure(f"refined mesh invalid: {report}")
        live = [r for r in outcome.value if not r.skipped]
        if not live or any(not math.isfinite(r.rel_residual) for r in live):
            return Failure("missing or non-finite residuals")
        return None

    @staticmethod
    def _check_testfn_cap(outcome):
        failure = _rc(outcome, 0)
        if failure:
            return failure
        doc = _read_json(outcome.out / "testfn.json")
        if not doc["max_abs_phi"] <= 1e-8:
            return Failure(f"equality case: max|phi| = {doc['max_abs_phi']:.3e}")
        return None

    @staticmethod
    def _check_testfn_cylinder(outcome, r, L):
        failure = _rc(outcome, 0)
        if failure:
            return failure
        doc = _read_json(outcome.out / "testfn.json")
        want = -math.pi * L / (2.0 * r)
        if abs(doc["index_quadratic"] - want) > 0.02 * abs(want):
            return Failure(f"I(phi,phi) = {doc['index_quadratic']:.6g}, closed form {want:.6g}")
        return None

    @staticmethod
    def _check_gen(outcome, d):
        failure = _rc(outcome, 0)
        if failure:
            return failure
        spec = fam.Cap(R=d["R"], theta=math.radians(d["angle"]), resolution=128)
        want, _ = fam.generate_mesh(spec)
        (path,) = outcome.out.glob("*.capmesh")
        got, walls = mk.load(path)
        same = (
            np.array_equal(got.positions, want.positions)
            and np.array_equal(got.triangles, want.triangles)
            and got.boundary_labels == want.boundary_labels
            and walls.angles == spec.walls().angles
        )
        return None if same else Failure(f"{path.name} does not read back bit-exact")


# -- sweep-lane -----------------------------------------------------------------


class SweepLane(Lane):
    """``sweep cylinder`` over [2r, 4r]: 21 small dense k=1 solves per operation.

    The seed draws r for each operation. The onset of instability is at
    L = pi r, which the reported bracket must contain; every lambda_min is
    also checked against the oracle.
    """

    name = "sweep-lane"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self._spectra = {}

    def next_round(self):
        r = round(self.rng.uniform(0.5, 2.0), 3)
        argv = ["sweep", "cylinder", "--r", repr(r), "--lmin", repr(2 * r), "--lmax", repr(4 * r),
                "--step", repr(0.1 * r), "--res", "32", "--onset-tol", repr(ONSET_TOL_R1 / r**2)]
        return [Op("sweep cylinder", lambda out: run_cli(argv, out), lambda o: self._check(o, r))]

    def _lambda_min(self, r, L):
        if (r, L) not in self._spectra:
            spec = fam.Cylinder(r=r, L=L, resolution=32)
            mesh, fields = fam.generate_mesh(spec)
            vals, scale = _system_spectrum(mesh, spec.walls(), fields, 1)
            self._spectra[(r, L)] = (vals[0], scale, mesh.nv)
        return self._spectra[(r, L)]

    def _check(self, outcome, r):
        failure = _rc(outcome, 0)
        if failure:
            return failure
        doc = _read_json(outcome.out / "sweep.json")
        bracket = doc["bracket"]
        if not bracket or not bracket[0] <= math.pi * r <= bracket[1]:
            return Failure(f"bracket {bracket} misses pi*r = {math.pi * r:.6g}")
        for L, lam in zip(doc["parameters"], doc["lambda_min"]):
            want, scale, nv = self._lambda_min(r, L)
            failure = self.eigen.compare([lam], [want], scale, nv)
            if failure:
                return failure
        return None


LANES = {lane.name: lane for lane in (MeshLane, FamilyLane, SweepLane)}
