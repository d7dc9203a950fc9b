"""Pin the reference outputs of every job a workload can generate.

    python3 perfbench/pin.py [WORKLOAD ...]

Writes `perfbench/refs/<workload>.json`: per catalogue argv, the exit code
and the normalised report (see check.py).  References are pinned once, on a
commit whose outputs are trusted; re-pinning after a change to the program
would hide exactly what the benchmark checks.
"""

import json
import shutil
import sys
import tempfile

from run import HERE, SRC, run_job

sys.path[:0] = [str(SRC), str(HERE)]

from check import normalise  # noqa: E402
from poincare_boundary_lab import cli  # noqa: E402
from workloads import WORKLOADS, catalogue  # noqa: E402


def pin(workload: str) -> dict:
    refs = {}
    scratch = HERE.parent / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    outdir = tempfile.mkdtemp(prefix="pin-", dir=scratch)
    try:
        for job in catalogue(workload):
            latency, code, report, error = run_job(cli, job.split(), outdir)
            if code is None or report is None:
                sys.exit(f"{job}: {error}")
            refs[job] = {"exit": code, "report": normalise(report)}
            print(f"{latency:8.3f}s exit {code}  {job}", flush=True)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    return refs


if __name__ == "__main__":
    for name in sys.argv[1:] or list(WORKLOADS):
        path = HERE / "refs" / f"{name}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(pin(name), indent=1, sort_keys=True) + "\n")
