"""Batch command-line front end.

Commands: gen, identities, stability, testfn, wedge, sweep. Angles are taken
in degrees on the command line and stored in radians everywhere else. Exit
codes: 0 success, 1 tolerance failure, 2 input error, 3 solver failure.
Reports are deterministic: identical inputs produce byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import families as fam
from . import identities as idn
from . import meshkit as mk
from . import stability as st
from . import wedge as wg
from .discops import assemble_operators, estimate_fields, export_fields_csv
from .errors import CapLabError, SolverFailureError
from .reports import document, write_report

EXIT_OK = 0
EXIT_TOLERANCE = 1
EXIT_INPUT = 2
EXIT_SOLVER = 3

OUTDIR_ENV = "CAPLAB_OUTDIR"


def _outdir(args):
    out = args.out or os.environ.get(OUTDIR_ENV) or "."
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


# --family name -> (spec class, {spec field: flag destination}); the flags
# themselves are defined once, in _add_family_flags
FAMILIES = {
    "cap": (fam.Cap, {"R": "radius", "theta": "theta"}),
    "cylinder": (fam.Cylinder, {"r": "r", "L": "length"}),
    "disk": (fam.FlatDisk, {"R": "radius"}),
    "sphere": (fam.ClosedSphere, {"R": "radius"}),
    "monge": (fam.MongePatch, {"amplitude": "amplitude", "R": "radius"}),
}


def _family_from_args(args, res=None):
    if not args.family:
        raise CapLabError("either --mesh or --family is required")
    cls, flags = FAMILIES[args.family]
    values = {name: getattr(args, dest) for name, dest in flags.items()}
    return cls(**values, resolution=args.res if res is None else res)


def _degrees(text):
    """Angle flag in degrees, stored in radians."""
    return math.radians(float(text))


def _add_family_flags(p, choose=True):
    """Flags of every family; ``choose`` adds --family (gen takes it as a sub-command)."""
    if choose:
        p.add_argument("--family", choices=list(FAMILIES))
    p.add_argument("--radius", type=float, default=1.0, help="radius (cap/disk/sphere/monge)")
    p.add_argument(
        "--angle-deg", dest="theta", metavar="ANGLE_DEG", type=_degrees, default="90",
        help="contact angle in degrees (cap)",
    )
    p.add_argument("--r", type=float, default=1.0, help="tube radius (cylinder)")
    p.add_argument("--length", type=float, default=2.0, help="slab height (cylinder)")
    p.add_argument("--amplitude", type=float, default=0.1, help="height amplitude (monge)")
    p.add_argument("--res", type=int, default=32, help="vertices around the azimuth")


def _load_inputs(args):
    """Mesh, walls and fields from either --mesh/--walls or family flags."""
    if args.mesh:
        mesh, walls = mk.load(args.mesh, getattr(args, "walls", None))
        fields = estimate_fields(mesh, walls)
        return mesh, walls, fields, None
    spec = _family_from_args(args)
    mesh, fields = fam.generate_mesh(spec)
    return mesh, spec.walls(), fields, spec


# -- gen -------------------------------------------------------------------------


def _cmd_gen(args):
    spec = _family_from_args(args)
    mesh, _fields = fam.generate_mesh(spec)
    out = _outdir(args)
    name = args.name or spec.slug
    mesh_path = out / f"{name}.capmesh"
    walls = spec.walls()
    mk.save(mesh, walls, mesh_path)
    print(mesh_path)
    if walls is not None:
        print(mk.default_walls_path(mesh_path))
    return EXIT_OK


# -- identities -------------------------------------------------------------------


def _cmd_identities(args):
    out = _outdir(args)
    # one (mesh, walls, fields, resolution tag, capillary vector) per level
    if args.mesh:
        mesh, walls, fields, _ = _load_inputs(args)
        levels = [(mesh, walls, fields, f"nv={mesh.nv}", None)]
        for _ in range(1, args.levels):
            mesh = mk.refine(mesh, walls=walls)
            levels.append((mesh, walls, estimate_fields(mesh, walls), f"nv={mesh.nv}", None))
    else:
        levels = []
        for level in range(args.levels):
            spec = _family_from_args(args, res=args.res * (2**level))
            mesh, fields = fam.generate_mesh(spec)
            levels.append(
                (mesh, spec.walls(), fields, str(spec.resolution), spec.capillary_vector())
            )

    rows = []
    for mesh, walls, fields, tag, a in levels:
        final_reports = idn.run_suite(mesh, walls, fields, resolution=tag, capillary_vector=a)
        rows.extend(final_reports)

    header = {"tol": args.tol, "levels": args.levels}
    csv_path = out / "identities.csv"
    idn.suite_to_csv(rows, csv_path, header)
    write_report(out / "identities.json", idn.suite_to_document(rows, {"tolerance": args.tol}))
    print(csv_path)

    failing = [
        r for r in final_reports if not r.skipped and r.rel_residual is not None and r.rel_residual > args.tol
    ]
    if failing:
        for r in failing:
            print(
                f"TOLERANCE FAILURE {r.name}: rel_residual {r.rel_residual:.3e} > {args.tol}",
                file=sys.stderr,
            )
        return EXIT_TOLERANCE
    return EXIT_OK


# -- stability ----------------------------------------------------------------------


def _cmd_stability(args):
    out = _outdir(args)
    mesh, walls, fields, spec = _load_inputs(args)
    if walls is None:
        raise CapLabError("stability analysis needs a wall set")
    ops = assemble_operators(mesh)
    system = st.assemble_index_form(mesh, walls, fields, ops)
    verdict = st.stability_verdict(system, tol=args.tol)
    write_report(out / "verdict.json", verdict.to_document())
    lines = ["index,lambda"] + [
        f"{i},{v:.17g}" for i, v in enumerate(verdict.eigenvalues)
    ]
    (out / "eigenvalues.csv").write_text("\n".join(lines) + "\n")
    st.export_eigenfunction_csv(verdict.eigenfunction, out / "eigenfunction.csv")
    export_fields_csv(mesh, fields, out / "fields.csv")
    print(out / "verdict.json")
    print(f"lambda_min = {verdict.lambda_min:.6g} stable = {verdict.stable}")
    return EXIT_OK


# -- testfn -------------------------------------------------------------------------


def _cmd_testfn(args):
    out = _outdir(args)
    mesh, walls, fields, spec = _load_inputs(args)
    if walls is None:
        raise CapLabError("the test function needs a wall set")
    a = None
    if not args.identity_mode:
        a = wg.solve_a(walls.normals, walls.angles).a
    report = st.build_test_function(mesh, walls, fields, a=a)
    write_report(out / "testfn.json", report.to_document())
    st.export_eigenfunction_csv(report.phi, out / "phi.csv")
    print(out / "testfn.json")
    print(
        f"max|phi| = {np.abs(report.phi).max():.6g} "
        f"I(phi,phi) = {report.index_quadratic:.6g} match = {report.match_residual:.3e}"
    )
    return EXIT_OK


# -- wedge -------------------------------------------------------------------------


def _cmd_wedge(args):
    out = _outdir(args)
    walls = mk.load_walls(args.walls)
    sol = wg.solve_a(walls.normals, walls.angles)
    delta = wg.delta_max(walls.normals)
    body = {
        "a": [float(x) for x in sol.a],
        "coefficients": [float(x) for x in sol.coefficients],
        "norm_a": sol.norm_a,
        "umbilical_conclusion": sol.umbilical_conclusion,
        "delta_max_rad": delta,
        "delta_max_deg": math.degrees(delta),
    }
    if args.mesh:
        mesh, _ = mk.load(args.mesh)
        fields = estimate_fields(mesh, walls)
        system = st.assemble_index_form(mesh, walls, fields)
        # the classification reads only lambda_min and the stable flag
        verdict = st.stability_verdict(system, tol=args.tol, k=1)
        report = wg.classify(mesh, walls, fields, verdict)
        body["classification"] = report.to_document()
    write_report(out / "wedge.json", document("wedge", body))
    print(out / "wedge.json")
    print(
        f"|a| = {sol.norm_a:.6g} umbilical: {sol.umbilical_conclusion} "
        f"delta_max = {math.degrees(delta):.4g} deg"
    )
    return EXIT_OK


# -- sweep -------------------------------------------------------------------------


def _cmd_sweep(args):
    if args.step <= 0:
        raise CapLabError("sweep step must be positive")
    if args.lmax < args.lmin:
        raise CapLabError("empty sweep range")
    out = _outdir(args)
    params = []
    value = args.lmin
    while value <= args.lmax + 1e-12:
        params.append(round(value, 12))
        value += args.step
    results = []
    for L in params:
        spec = fam.Cylinder(r=args.r, L=L, resolution=args.res)
        mesh, fields = fam.generate_mesh(spec)
        system = st.assemble_index_form(mesh, spec.walls(), fields)
        lam, _ = st.min_constrained_eigenpair(system)
        results.append((L, lam))
    results.sort(key=lambda t: t[0])

    bracket = None
    for (l0, v0), (l1, v1) in zip(results, results[1:]):
        if v0 >= -args.onset_tol and v1 < -args.onset_tol:
            bracket = [l0, l1]
            break

    lines = [f"# r={args.r:g} res={args.res} onset_tol={args.onset_tol:g}", "parameter,lambda_min"]
    lines += [f"{L:.17g},{lam:.17g}" for L, lam in results]
    csv_path = out / "sweep.csv"
    csv_path.write_text("\n".join(lines) + "\n")
    body = {
        "family": "cylinder",
        "r": args.r,
        "resolution": args.res,
        "onset_tol": args.onset_tol,
        "parameters": [L for L, _ in results],
        "lambda_min": [lam for _, lam in results],
        "bracket": bracket,
    }
    write_report(out / "sweep.json", document("sweep", body))
    print(csv_path)
    if bracket:
        print(f"instability onset bracket: [{bracket[0]:g}, {bracket[1]:g}]")
    else:
        print("no instability onset detected in range")
    return EXIT_OK


# -- parser -------------------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="caplab",
        description="Capillary-surface stability laboratory: meshes, identities, spectra. "
        f"Each command writes into --out, ${OUTDIR_ENV}, or the working directory.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a family mesh and wall-set file")
    gen_sub = p.add_subparsers(dest="family", required=True)
    for kind in FAMILIES:
        q = gen_sub.add_parser(kind)
        _add_family_flags(q, choose=False)
        q.add_argument("--name")
        q.add_argument("--out")
        q.set_defaults(func=_cmd_gen)

    p = sub.add_parser("identities", help="run the identity suite across refinement levels")
    p.add_argument("--mesh")
    p.add_argument("--walls")
    _add_family_flags(p)
    p.add_argument("--levels", type=int, default=3, choices=range(1, 7))
    p.add_argument("--tol", type=float, default=0.02, help="relative residual gate at the finest level")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_identities)

    p = sub.add_parser("stability", help="assemble the index form and solve the spectrum")
    p.add_argument("--mesh")
    p.add_argument("--walls")
    _add_family_flags(p)
    p.add_argument("--tol", type=float, default=None, help="verdict tolerance (default 0.05 max|sigma|^2)")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_stability)

    p = sub.add_parser("testfn", help="build and validate the rigidity test function")
    p.add_argument("--mesh")
    p.add_argument("--walls")
    _add_family_flags(p)
    p.add_argument("--identity-mode", action="store_true", help="use a = 0 (no common origin needed)")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_testfn)

    p = sub.add_parser("wedge", help="capillary vector, angle window, optional classification")
    p.add_argument("--walls", required=True, help="wall-set JSON document")
    p.add_argument("--mesh", help="classify this mesh against the wall set")
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_wedge)

    p = sub.add_parser("sweep", help="parameter sweep of the smallest eigenvalue")
    p.add_argument("family", choices=["cylinder"])
    p.add_argument("--r", type=float, default=1.0)
    p.add_argument("--lmin", type=float, default=2.0)
    p.add_argument("--lmax", type=float, default=4.0)
    p.add_argument("--step", type=float, default=0.1)
    p.add_argument("--res", type=int, default=32)
    p.add_argument("--onset-tol", type=float, default=0.02, help="onset threshold on lambda_min")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse uses status 2 for usage errors, matching the input-error code
        return int(exc.code or 0)
    try:
        return args.func(args)
    except SolverFailureError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except (CapLabError, OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def main_entry():
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
