"""Run the benchmark over ten seeds, twice, and record the baseline.

    python3 perfbench/baseline.py

For every workload of BENCHMARK.json it runs `run.py` untraced for seeds 1 to
10 with the run time of BENCHMARK.json, then does the whole sweep a second
time, and runs it traced once for seed 1.  It prints per metric and sweep the
median and the quartile spread as a share of the median (the statistic the
bounds in BENCHMARK.json are compared with, "ok" when it is within a third of
the bound), and how far the second sweep's median moved from the first's
("ok" when not worse by more than the bound).  It writes every run, the
summaries, the traced per-layer metrics and the layer-stress checks to
`perfbench/baseline.json`.
"""

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)
SWEEPS = 2


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr[-3000:]}")
    lines = done.stdout.strip().splitlines()
    extra = {line.split(" ", 1)[0]: json.loads(line.split(" ", 1)[1])
             for line in lines[:-1] if line.startswith("perfbench-")}
    return json.loads(lines[-1]), extra


def summarise(values, bound):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    spread = (q3 - q1) / median
    return {"median": median, "q1": q1, "q3": q3, "spread": spread,
            "within_third_of_bound": spread < bound / 3}


def sweep(workload, seconds, bounds, label):
    runs = []
    for seed in SEEDS:
        result, extra = run(workload, seed, seconds, 0)
        if not result["correct"]:
            sys.exit(f"{workload} seed {seed}: {result['failed']} jobs failed")
        meta = extra["perfbench-meta"]
        runs.append({"seed": seed, "attempted": result["attempted"],
                     "failed": result["failed"], "passes": meta["passes"],
                     **{k: v["value"] for k, v in result["metrics"].items()}})
    summary = {}
    for name, bound in bounds.items():
        s = summary[name] = summarise([r[name] for r in runs], bound)
        print(f"{workload:15s} {label} {name:13s} runs " +
              " ".join(f"{r[name]:.4g}" for r in runs), flush=True)
        print(f"{workload:15s} {label} {name:13s} median {s['median']:10.4f} "
              f"spread {s['spread']:.4f} (bound {bound}) "
              f"{'ok' if s['within_third_of_bound'] else 'WIDE'}", flush=True)
    return {"runs": runs, "summary": summary}, meta


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = [w["name"] for w in spec["workloads"]]
    record = {"command": "python3 perfbench/baseline.py", "seeds": list(SEEDS),
              "run_seconds": seconds, "workloads": {w: {"sweeps": []} for w in names}}
    # one sweep over every workload before the next, so the two sets of runs
    # are taken some time apart
    for i in range(SWEEPS):
        for workload in names:
            done, meta = sweep(workload, seconds, bounds, f"sweep{i + 1}")
            entry = record["workloads"][workload]
            entry["sweeps"].append(done)
            entry["jobs_per_pass"] = meta["jobs_per_pass"]
    for workload in names:
        entry = record["workloads"][workload]
        first, last = (s["summary"] for s in (entry["sweeps"][0], entry["sweeps"][-1]))
        entry["median_shift"] = {}
        for name, bound in bounds.items():
            shift = last[name]["median"] / first[name]["median"] - 1.0
            entry["median_shift"][name] = {"shift": shift, "agrees": shift <= bound}
            print(f"{workload:15s} {name:13s} second median vs first {shift:+.4f} "
                  f"(bound {bound}) {'ok' if shift <= bound else 'WORSE'}", flush=True)
        traced, extra = run(workload, 1, seconds, 1)
        layers = extra["perfbench-layers"]
        print(f"{workload:15s} traced: overhead "
              f"{traced['metrics']['trace.overhead_frac']['value']:.3f}, "
              f"stress check '{layers['stress']}' holds: {layers['stress_holds']}", flush=True)
        entry.update(traced={k: v["value"] for k, v in traced["metrics"].items()},
                     traced_correct=traced["correct"], **layers)
    record["meta"] = {k: meta[k] for k in ("git_sha", "python", "numpy", "nproc", "threads")}
    (HERE / "baseline.json").write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    main()
