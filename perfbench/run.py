#!/usr/bin/env python3
"""Batch benchmark of caplab: three closed-loop lanes, one client each.

    python3 perfbench/run.py --workload mesh-lane --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
Workloads: mesh-lane, family-lane, sweep-lane (see lanes.py and NOTES.md).
Every operation runs twice, in-process and closed-loop, in whole rounds
until ``--seconds`` of operation time have passed; checks and oracles run
between operations, outside the timed region. Each output is checked and
the two executions must write identical bytes.

With ``--trace 0`` the last line of stdout carries the end-to-end metrics.
With ``--trace 1`` the lane runs once untraced and once with a span around
every call into caplab's public functions, and the last line carries the
per-layer metrics; the spans go to ``.perfbench-out/``. Lines before it are
a human-readable report, including the error rate and the machine facts.
Exit code 2 means the benchmark could not run at all.
"""

import os

# One BLAS thread for this process and the set-up probes it starts; this must
# happen before numpy loads OpenBLAS.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
OUT = ROOT / ".perfbench-out"
WORKLOADS = ("mesh-lane", "family-lane", "sweep-lane")
SETUP_SAMPLES = 5
PROBE_TIMEOUT_S = 120

# layers whose time is reported; a layer is one traced function unless grouped
TIMED_LAYERS = (
    "meshkit.load", "meshkit.save", "meshkit.refine", "meshkit.validate",
    "families.generate_mesh", "families.exact_fields",
    "discops.assemble_operators", "discops.estimate_fields", "discops.export_fields_csv",
    "identities.run_suite", "identities.write",
    "stability.assemble_index_form", "stability.solve_spectrum", "stability.build_test_function",
    "wedge.solve_a", "wedge.classify",
)
LAYER_SPANS = {"identities.write": ("identities.suite_to_csv", "identities.save_document")}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def require_sources():
    if not (SRC / "caplab" / "__init__.py").is_file():
        fail(f"no caplab sources under {SRC}; run from the root of a checkout")


def import_program():
    """Import caplab from this checkout's sources, and nothing else."""
    require_sources()
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import caplab.cli  # noqa: F401

    elapsed = time.perf_counter() - t0
    if Path(caplab.cli.__file__).resolve().parent != SRC / "caplab":
        fail(f"imported caplab from {caplab.cli.__file__}, not from {SRC}")
    return elapsed


def set_up(workload, seed, workdir):
    """Everything before the first timed operation: import, input files, warm-up."""
    import_s = import_program()
    import lanes

    workdir.mkdir(parents=True, exist_ok=True)
    lane = lanes.LANES[workload](seed, workdir)
    lane.write_inputs()
    lanes.warm_up(workdir)
    return lane, import_s


def sample_setup(args, workdir):
    """Set-up times of fresh interpreters, from spawn to ready, and their import times."""
    setups, imports = [], []
    for i in range(SETUP_SAMPLES):
        probe_dir = workdir / f"probe{i}"
        argv = [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", "0", "--setup-probe", str(probe_dir)]
        t0 = time.perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            ready = time.perf_counter() - t0
            proc.stdout.read()
            try:
                rc = proc.wait(timeout=PROBE_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                rc = None
        shutil.rmtree(probe_dir, ignore_errors=True)
        if rc != 0 or not line.strip():
            fail(f"set-up probe exited with {rc}")
        setups.append(ready)
        imports.append(json.loads(line)["import_s"])
    return setups, imports


class Pass:
    """Executions, times and failures of one timed pass."""

    def __init__(self):
        self.times = []
        self.kinds = []
        self.failures = []  # (operation kind, Failure)
        self.report_bytes = 0

    @property
    def ops_per_s(self):
        return len(self.times) / sum(self.times)

    @property
    def error_rate(self):
        return len(self.failures) / len(self.times)

    def by_kind(self):
        kinds = {}
        for kind, t in zip(self.kinds, self.times):
            kinds.setdefault(kind, []).append(t)
        return kinds

    @property
    def op_p50(self):
        """Median over operation kinds of each kind's median time.

        A lane mixes kinds whose times differ by 10x, so the pooled median
        falls in the gap between two kinds and jumps with the mix; the median
        of per-kind medians does not.
        """
        return statistics.median(statistics.median(t) for t in self.by_kind().values())


def judge(op, outcome):
    import lanes

    if outcome.error:
        return lanes.Failure(outcome.error)
    try:
        return op.check(outcome)
    except Exception as exc:  # a check that cannot read the output fails the operation
        return lanes.Failure(f"check raised {type(exc).__name__}: {exc}")


def measure(lane, seconds, workdir, tracer=None):
    """Whole rounds until ``seconds`` of operation time, each operation twice."""
    import lanes

    run = Pass()
    n = 0
    while not run.times or sum(run.times) < seconds:
        for op in lane.next_round():
            outcomes = []
            for rep in range(2):
                out = workdir / "ops" / f"{n}-{rep}"
                if tracer:
                    tracer.op_id, tracer.active = f"{n}-{rep}", True
                t0 = time.perf_counter()
                try:
                    outcome = op.run(out)
                except Exception as exc:  # an operation that raises is a failed operation
                    outcome = lanes.Outcome(out=out, error=f"{type(exc).__name__}: {exc}")
                run.times.append(time.perf_counter() - t0)
                run.kinds.append(op.kind)
                if tracer:
                    tracer.active = False
                outcomes.append(outcome)
                if out.is_dir():
                    run.report_bytes += sum(p.stat().st_size for p in out.iterdir())
            verdicts = [judge(op, o) for o in outcomes]
            first, second = outcomes
            if not (first.error or second.error) and op.fingerprint(first) != op.fingerprint(second):
                verdicts[1] = verdicts[1] or lanes.Failure("second execution wrote different bytes")
            run.failures += [(op.kind, v) for v in verdicts if v]
            shutil.rmtree(workdir / "ops", ignore_errors=True)
            n += 1
    return run


def machine_facts():
    import numpy
    import scipy

    threads = {}
    with open("/proc/self/maps") as fh:
        libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln and ln.split()[-1].startswith("/")})
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads[Path(path).name] = fn()
                break
    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
    }


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(run, setups):
    return {
        "ops_per_s": metric(run.ops_per_s, "1/s"),
        "op_p50_s": metric(run.op_p50, "s"),
        "setup_s": metric(statistics.median(setups), "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(tracer, traced, untraced, imports, eigen):
    """Layer totals of the traced pass, per execution, so they compare across speeds."""
    calls, busy, self_s = tracer.layer_totals()
    sizes = tracer.sizes
    n = len(traced.times)

    def per_op(value, unit):
        return metric(value / n, f"{unit}/op")

    m = {
        "cli.import_s": metric(statistics.median(imports), "s"),
        "cli.self_s": per_op(self_s["cli.main"], "s"),
        "cli.calls": per_op(calls["cli.main"], "count"),
        "cli.report_bytes": per_op(traced.report_bytes, "bytes"),
    }
    for prefix in TIMED_LAYERS:
        names = LAYER_SPANS.get(prefix, (prefix,))
        m[f"{prefix}_s"] = per_op(sum(busy[name] for name in names), "s")
        m[f"{prefix}_self_s"] = per_op(sum(self_s[name] for name in names), "s")
        m[f"{prefix}_calls"] = per_op(sum(calls[name] for name in names), "count")
    for key, unit in (("meshkit.load_bytes", "bytes"), ("meshkit.save_bytes", "bytes"),
                      ("meshkit.refine_nv_out", "count"), ("families.generate_mesh_nv", "count"),
                      ("discops.assemble_operators_nnz", "count"),
                      ("discops.estimate_fields_nv", "count"), ("stability.solve_spectrum_n", "count")):
        m[key] = per_op(sizes[key], unit)
    nv_est = sizes["discops.estimate_fields_nv"]
    reports = sizes["identities.run_suite_reports"]
    m.update({
        "discops.estimate_fields_us_per_vertex": metric(
            1e6 * busy["discops.estimate_fields"] / nv_est if nv_est else 0.0, "us/vertex"
        ),
        "identities.reports": per_op(reports, "count"),
        "identities.skipped_ratio": metric(
            sizes["identities.run_suite_skipped"] / reports if reports else 0.0, "ratio"
        ),
        "stability.solver_warnings": per_op(tracer.warnings, "count"),
        "stability.eig_requested": per_op(eigen.requested, "count"),
        "stability.eig_ok_ratio": metric(eigen.matched / eigen.requested if eigen.requested else 0.0,
                                         "ratio"),
        "trace.spans": per_op(len(tracer.spans), "count"),
        "trace.ops_per_s": metric(traced.ops_per_s, "1/s"),
        "trace.untraced_ops_per_s": metric(untraced.ops_per_s, "1/s"),
        "trace.overhead_ratio": metric(untraced.ops_per_s / traced.ops_per_s, "ratio"),
    })
    return m


def summarize(name, run):
    print(f"{name}: {len(run.times)} executions in {sum(run.times):.2f} s, "
          f"error_rate {run.error_rate:.4f} ({len(run.failures)}/{len(run.times)})")
    for kind, times in sorted(run.by_kind().items()):
        print(f"  {kind}: p50 {statistics.median(times):.4f} s over {len(times)}")
    seen = {}
    for kind, failure in run.failures:
        key = (kind, failure.known, failure.reason if failure.known is None else "")
        seen.setdefault(key, [0, failure.reason])[0] += 1
    for (kind, known, _), (count, reason) in sorted(seen.items(), key=str):
        tag = f"known defect '{known}'" if known else "UNEXPECTED"
        print(f"  FAIL x{count} {kind}: {reason} [{tag}]")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        _, import_s = set_up(args.workload, args.seed, Path(args.setup_probe))
        print(json.dumps({"import_s": import_s}), flush=True)
        return 0

    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        require_sources()
        setups, imports = sample_setup(args, workdir)
        lane, _ = set_up(args.workload, args.seed, workdir / "main")
        lane.prepare()
        print("machine: " + json.dumps(machine_facts(), sort_keys=True))
        print(f"workload {args.workload} seed {args.seed}: {lane.describe()}")
        print(f"setup_s samples: {', '.join(f'{s:.3f}' for s in setups)}")

        untraced = measure(lane, args.seconds, workdir / "main")
        summarize("untraced", untraced)
        runs = [untraced]
        metrics = end_to_end(untraced, setups)
        print(f"  error_rate = {untraced.error_rate:.6g} ratio")
        if args.trace:
            import lanes
            import spans

            lane.eigen = lanes.EigenTally()
            tracer = spans.Tracer()
            tracer.install()
            try:
                # every reported layer gets at least the warm-up's spans, in every lane
                tracer.active = True
                lanes.warm_up(workdir / "main")
                tracer.active = False
                traced = measure(lane, args.seconds, workdir / "main", tracer)
            finally:
                tracer.uninstall()
            summarize("traced", traced)
            runs.append(traced)
            metrics = per_layer(tracer, traced, untraced, imports, lane.eigen)
            OUT.mkdir(exist_ok=True)
            span_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
            tracer.dump(span_path)
            print(f"spans: {len(tracer.spans)} written to {span_path.relative_to(ROOT)}")
        for name, m in metrics.items():
            print(f"  {name} = {m['value']:.6g} {m['unit']}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()

    failures = [f for run in runs for _, f in run.failures]
    result = {
        "correct": all(f.known for f in failures),
        "attempted": sum(len(run.times) for run in runs),
        "failed": len(failures),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
