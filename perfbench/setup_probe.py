"""Set-up probe timed by run.py: import the CLI, build its parser and generate
the job list, in a fresh interpreter.

    python3 perfbench/setup_probe.py WORKLOAD SEED
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from poincare_boundary_lab import cli  # noqa: E402
from workloads import job_list  # noqa: E402

cli.build_parser()
job_list(sys.argv[1], int(sys.argv[2]))
