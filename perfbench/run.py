"""Benchmark of the chaosmoments command line.

Run from the repository root:

    python3 perfbench/run.py --workload bound-exppower --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

One closed-loop caller runs the workload's pinned ``chaosmoments``
command in-process through ``cli.main`` again and again for
``--seconds``, checks every report, and prints the metrics by name with
their units.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics of untraced calls, plus the
set-up time of fresh interpreters.  ``--trace 1`` makes untraced calls
and then traced ones, and reports the per-layer metrics of the traced
calls (see tracing.py).  Reports and span files go to ``.perfbench_out/``.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from time import perf_counter, process_time

from check import check_report, load_reference, parse_report
from tracing import TERMS, Tracer, call_metrics, write_spans
from workload import HERE, WORKLOADS, grid_points, warm

#: the part of --seconds given to set-up probes in an untraced run
SETUP_SHARE = 0.3
OUT_DIR = ".perfbench_out"
#: the ROADMAP's measured per-call band of norm_Xp; reported, not gated
NORM_XP_BAND_US = (300.0, 2600.0)
#: the part of --seconds given to untraced calls in a traced run
UNTRACED_SHARE = 0.4
BALANCE_TOL_S = 1e-6
COUNTS = (
    "dual_norms.norm_Xp.calls", "distributions.sample.draws", "rng.stream.calls",
    "functionals.lq_norm.calls", "montecarlo.estimate_moment_decoupled.calls",
    *(f"bounds.{t}.norm_Xp_calls" for t in TERMS),
)


@dataclass
class Call:
    code: object
    t0: float
    t1: float
    cpu_s: float
    report: str
    spans: list = None

    @property
    def wall_s(self):
        return self.t1 - self.t0


def declared_units(root, trace):
    """Metric name -> unit, in BENCHMARK.json's order, for this mode."""
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def git_sha(root):
    """Commit of the checkout, or 'unknown' outside a git repository."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def stamp(root):
    import numpy
    import scipy

    return {
        "git_sha": git_sha(root),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
    }


class SetupProbes:
    """Fresh-interpreter set-up probes, run between the calls of a run.

    After each call, ``catch_up`` runs probes until they have taken
    SETUP_SHARE of the time since ``started``, so the probes and the calls
    sample the same stretch of the host's time.
    """

    def __init__(self, root, workload, started):
        self.argv = [sys.executable, os.path.join(HERE, "setup_probe.py"), workload.name]
        self.root = root
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (os.path.join(root, "src"), self.env.get("PYTHONPATH")) if p
        )
        self.started = started
        self.spent_s = 0.0
        self.values = []

    def probe(self):
        t0 = perf_counter()
        proc = subprocess.run(self.argv, cwd=self.root, env=self.env, capture_output=True,
                              text=True, timeout=120, check=True)
        self.spent_s += perf_counter() - t0
        self.values.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])

    def catch_up(self):
        while self.spent_s < SETUP_SHARE * (perf_counter() - self.started):
            self.probe()


def make_call(cli, argv, out_path, tracer=None):
    if os.path.exists(out_path):
        os.remove(out_path)
    t0, c0 = perf_counter(), process_time()
    try:
        code = cli.main(argv)
    except Exception:  # the benchmark keeps going; the rows count as failed
        traceback.print_exc()
        code = None
    t1, c1 = perf_counter(), process_time()
    report = ""
    if os.path.exists(out_path):
        with open(out_path) as fh:
            report = fh.read()
    spans = tracer.take_spans() if tracer is not None else None
    return Call(code, t0, t1, c1 - c0, report, spans)


def closed_loop(run_call, budget_s, minimum, started, probes=None):
    """Call until the next call would end past ``budget_s`` after ``started``.

    With ``probes``, set-up probes follow each call, and the next call's
    estimate includes its share of them.
    """
    stretch = 1.0 / (1.0 - SETUP_SHARE) if probes else 1.0
    calls = []
    while len(calls) < minimum or (
        perf_counter() - started + stretch * statistics.median(c.wall_s for c in calls)
        <= budget_s
    ):
        calls.append(run_call())
        if probes:
            probes.catch_up()
    return calls


def check_calls(calls, points, workload, seed):
    """(failed rows, problems) over all calls of a run."""
    reference = load_reference(workload, seed)
    if reference is None:
        print(f"check: no stored report for seed {seed}; checking invariants only")
    else:
        print(f"check: comparing with the stored report for seed {seed}")
    failed = 0
    problems = []
    for call in calls:
        if call.code in (0, 1):
            results = check_report(call.report, points, seed, reference)
        else:
            results = [[f"command exited with {call.code}"]] * len(points)
        failed += sum(1 for r in results if r)
        problems += [f"row {i}: {'; '.join(r)}" for i, r in enumerate(results) if r]
    if len({c.report for c in calls}) != 1:
        problems.append("repeated calls gave reports that are not byte-identical")
    return failed, problems


def nonconverged_share(report_rows):
    bound_rows = [row for row in report_rows if row["T2"] != "nan"]
    if not bound_rows:
        return 0.0
    flags = sum(row["flags"].count("nonconverged:") for row in bound_rows)
    return flags / (len(bound_rows) * 5)  # T2, T3, T4r, T4c, T5 carry diagnostics


def layer_metrics(traced, untraced, cfg, table_fill_s):
    """Per-layer metrics: medians over the traced calls, plus trace checks."""
    per_call = [call_metrics(c.spans, c.t0, c.t1) for c in traced]
    problems = []
    for key in COUNTS:
        if len({m[key] for m in per_call}) != 1:
            problems.append(f"count {key} differs between traced calls")
    for m in per_call:
        if abs(m.pop("trace.balance_error_s")) > BALANCE_TOL_S:
            problems.append("layer self times plus unattributed_s do not sum to wall_s")
    metrics = {key: statistics.median(m[key] for m in per_call) for key in per_call[0]}
    traced_wall = metrics.pop("trace.wall_s")
    est_s = metrics["montecarlo.estimate_moment_decoupled.s"]
    samples = metrics["montecarlo.estimate_moment_decoupled.calls"] * cfg.total_samples
    metrics.update({
        "distributions.table_fill_s": table_fill_s,
        "montecarlo.samples_per_s": samples / est_s if est_s else 0.0,
        "bounds.nonconverged_share": nonconverged_share(parse_report(traced[0].report)),
        "harness.cpu_per_wall": statistics.median(c.cpu_s / c.wall_s for c in untraced),
        "harness.report_bytes": len(traced[0].report.encode()),
        "trace.overhead_share": traced_wall / statistics.median(c.wall_s for c in untraced) - 1.0,
    })
    return metrics, problems


def run_workload(args, root):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import chaosmoments
    from chaosmoments import cli

    if not os.path.abspath(chaosmoments.__file__).startswith(src + os.sep):
        print(f"perfbench: imported chaosmoments from {chaosmoments.__file__}, not ./src",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    print("stamp " + json.dumps(stamp(root)))

    cfg, table_fill_s = warm(workload.config_text())
    os.makedirs(os.path.join(root, OUT_DIR), exist_ok=True)
    out_path = os.path.join(root, OUT_DIR, f"{workload.name}-{args.seed}.csv")
    argv = workload.argv(args.seed, out_path)

    started = perf_counter()
    if args.trace:
        untraced = closed_loop(lambda: make_call(cli, argv, out_path),
                               args.seconds * UNTRACED_SHARE, 1, started)
        tracer = Tracer()
        with tracer.installed():
            traced = closed_loop(lambda: make_call(cli, argv, out_path, tracer),
                                 args.seconds, 2, started)
        write_spans(os.path.join(root, OUT_DIR, f"spans-{workload.name}-{args.seed}.csv"),
                    [(c.spans, c.t0) for c in traced])
        calls = untraced + traced
    else:
        probes = SetupProbes(root, workload, started)
        calls = closed_loop(lambda: make_call(cli, argv, out_path), args.seconds, 2, started,
                            probes)

    points = grid_points(cfg)
    failed, problems = check_calls(calls, points, workload.name, args.seed)
    attempted = len(points) * len(calls)

    if args.trace:
        metrics, trace_problems = layer_metrics(traced, untraced, cfg, table_fill_s)
        problems += trace_problems
        p50 = metrics["dual_norms.norm_Xp.us_p50"]
        if metrics["dual_norms.norm_Xp.calls"]:
            lo, hi = NORM_XP_BAND_US
            where = "inside" if lo <= p50 <= hi else "outside"
            print(f"note: norm_Xp p50 {p50:.1f} us is {where} the ROADMAP band {lo:g}-{hi:g} us")
    else:
        wall_s = statistics.median(c.wall_s for c in calls)
        metrics = {
            "setup_s": statistics.median(probes.values),
            "wall_s": wall_s,
            "points_per_s": len(points) / wall_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_share": (attempted - failed) / attempted,
        }
        print(f"failed_share {failed / attempted:.6g} ratio")

    for problem in problems[:20]:
        print("problem: " + problem)
    print(f"seed {args.seed}  rows per call {len(points)}  call walls "
          + " ".join(f"{c.wall_s:.3f}" for c in calls))
    if not args.trace:
        print("set-up probes " + " ".join(f"{v:.3f}" for v in probes.values))
    units = declared_units(root, args.trace)
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {set(units) ^ set(metrics)}")
    for name, unit in units.items():
        print(f"{name} {metrics[name]:.6g} {unit}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args, root):
    """Each workload in its own process; a per-workload summary table."""
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=root, capture_output=True, text=True, timeout=600,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(f"[{name}] {line}")
        if proc.returncode != 0 or not lines:
            print(f"perfbench: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
    print()
    for name, res in results.items():
        share = res["failed"] / res["attempted"]
        cells = [f"{k} {v['value']:.6g} {v['unit']}" for k, v in res["metrics"].items()]
        print(f"{name:24s} " + "  ".join(cells + [f"failed_share {share:.6g} ratio"]))
    combined = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{k}": v for name, r in results.items()
                    for k, v in r["metrics"].items()},
    }
    print(json.dumps(combined))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "chaosmoments", "__init__.py")):
        print("perfbench: no ./src/chaosmoments here; run from the repository root",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args, root)
    return run_workload(args, root)


if __name__ == "__main__":
    sys.exit(main())
