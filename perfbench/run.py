"""The pblab benchmark: seeded `pblab` job lists run back to back in one process.

    python3 perfbench/run.py --workload frechet_curves --seed 1 --seconds 50 --trace 0

Each job is one `poincare_boundary_lab.cli.main(argv)` call, a closed loop with
one client, as a user running `pblab` jobs one after another.  Every job parses
its own specs, so curve memoisation never carries over between jobs, and
writes its report to a scratch directory inside the checkout, so report
writing is timed.  Every report is checked against `perfbench/refs/`.

A pass runs the workload's whole job list.  Passes repeat while another one
fits in `--seconds`; there are always at least three.  With `--trace 0` the
last line of standard output carries the end-to-end metrics of BENCHMARK.json;
with `--trace 1` untraced and traced passes run in turn (up to three of each,
while another round fits in `--seconds`), and it carries the per-layer metrics
of the first traced pass and the tracing overhead.  The spans of that pass are
written to `.perfbench_out/`.
"""

from __future__ import annotations

import os

# single-threaded, in this process and in the set-up probes it starts
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 3
MIN_PASSES = 3
# not checked and not timed: lazy imports and first-use costs of the CLI
WARMUP = (["metric", "--kind", "h", "--z", "0.5,0", "--w", "0,0.5"],
          ["gallery", "--name", "square_exp", "--at", "0.5,0"])


def _fail(msg: str):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def setup_seconds(workload: str, seed: int) -> list[float]:
    """Wall time of fresh processes that import the CLI, build its parser and
    generate the job list."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, timeout=120)
        times.append(time.perf_counter() - t0)
        if done.returncode != 0:
            _fail(f"set-up probe failed: {done.stderr.decode()[-2000:]}")
    return times


def run_job(cli, argv, outdir):
    """(latency, exit code, report or None, error text) of one pblab job."""
    out, err = io.StringIO(), io.StringIO()
    error = ""
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = cli.main(["--output-dir", outdir] + argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a traceback is a failed job, not a crash
            code, error = None, f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - t0
    report = None
    for line in err.getvalue().splitlines():
        if line.startswith("report: "):
            path = line[len("report: "):]
            try:
                with open(path, encoding="utf-8") as f:
                    report = json.load(f)
                os.remove(path)
            except (OSError, ValueError) as exc:  # checked as "no report"
                error = f"unreadable report {path}: {exc}"
    return latency, code, report, error or err.getvalue()[-500:]


def run_pass(cli, jobs, refs, outdir, failures):
    """Latencies of one pass over the job list; failures are appended."""
    from check import verify

    latencies = []
    for argv in jobs:
        latency, code, report, error = run_job(cli, argv, outdir)
        latencies.append(latency)
        key = " ".join(argv)
        if key not in refs:
            problems = ["no pinned reference"]
        elif code is None:
            problems = [error]
        else:
            problems = verify(refs[key], code, report)
        if problems:
            failures.append(f"{key}: {'; '.join(problems[:3])}")
    return latencies


def meta(workload, seed, passes, jobs) -> dict:
    import numpy as np

    sha = "unknown"
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True)
            sha = done.stdout.strip() or sha
        except OSError:
            pass
    return {"workload": workload, "seed": seed, "git_sha": sha,
            "python": platform.python_version(), "numpy": np.__version__,
            "nproc": len(os.sched_getaffinity(0)), "passes": passes, "jobs_per_pass": len(jobs),
            "threads": {v: os.environ[v] for v in THREAD_VARS}}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "poincare_boundary_lab" / "cli.py").is_file():
        _fail(f"no package source under {SRC}")
    sys.path[:0] = [str(SRC), str(HERE)]
    from workloads import WORKLOADS, job_list

    if args.workload not in WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; choices: {sorted(WORKLOADS)}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    refs = json.loads((HERE / "refs" / f"{args.workload}.json").read_text())

    setup = [] if args.trace else setup_seconds(args.workload, args.seed)
    from poincare_boundary_lab import cli

    jobs = job_list(args.workload, args.seed)
    outdir = ROOT / ".perfbench_tmp" / f"{args.workload}-{args.seed}-{os.getpid()}"
    outdir.mkdir(parents=True, exist_ok=True)
    failures: list[str] = []
    try:
        for argv in WARMUP:
            if run_job(cli, argv, str(outdir))[1] != 0:
                _fail(f"warm-up job failed: {' '.join(argv)}")
        if args.trace:
            values, n_passes = traced_passes(cli, jobs, refs, str(outdir), failures,
                                             args.workload, args.seed, args.seconds)
        else:
            passes = []
            start = time.perf_counter()
            while True:
                passes.append(run_pass(cli, jobs, refs, str(outdir), failures))
                elapsed = time.perf_counter() - start
                if len(passes) >= MIN_PASSES and \
                        elapsed + statistics.median(map(sum, passes)) > args.seconds:
                    break
            # each job's median over the passes: a burst of load on the shared
            # machine has to hit the same job in most passes to move it
            per_job = [statistics.median(lat) for lat in zip(*passes)]
            values = {
                "wall_s": sum(per_job),
                "job_p50_s": statistics.median(per_job),
                "setup_s": statistics.median(setup),
                "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            n_passes = len(passes)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)

    attempted = n_passes * len(jobs)
    for line in failures[:20]:
        print(f"perfbench: FAILED {line}", file=sys.stderr)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        _fail(f"metrics not measured: {missing}")
    print("perfbench-meta " + json.dumps(meta(args.workload, args.seed, n_passes, jobs)))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


def traced_passes(cli, jobs, refs, outdir, failures, workload, seed,
                  seconds) -> tuple[dict, int]:
    """Untraced and traced passes in turn, up to three of each while another
    round fits in `seconds`: the per-layer metrics of the first traced pass
    and the tracing overhead over all of them."""
    from tracer import Tracer
    from workloads import WORKLOADS

    plain, traced, tracers = [], [], []
    start = time.perf_counter()
    while True:
        plain.append(run_pass(cli, jobs, refs, outdir, failures))
        tracer = Tracer()
        tracer.install("poincare_boundary_lab")
        try:
            traced.append(run_pass(cli, jobs, refs, outdir, failures))
        finally:
            tracer.uninstall()
        tracers.append(tracer)
        rounds = len(plain)
        elapsed = time.perf_counter() - start
        if rounds >= MIN_PASSES or elapsed * (rounds + 1) / rounds > seconds:
            break
    tracer = tracers[0]
    plain_wall = sum(statistics.median(lat) for lat in zip(*plain))
    traced_wall = sum(statistics.median(lat) for lat in zip(*traced))
    values = tracer.metrics()
    values.update({
        "trace.overhead_s": traced_wall - plain_wall,
        "trace.overhead_frac": traced_wall / plain_wall - 1.0,
    })
    first_wall = sum(traced[0])
    shares = {layer: s / first_wall for layer, s in tracer.layer_self().items()}
    spec = WORKLOADS[workload]
    print("perfbench-layers " + json.dumps({
        "self_share": shares, "stress": spec.stress,
        "stress_holds": bool(spec.stressed(values, shares))}))
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    tracer.save(str(out / f"trace-{workload}-{seed}.npz"))
    return values, len(plain) + len(traced)


if __name__ == "__main__":
    sys.exit(main())
