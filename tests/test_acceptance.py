"""Acceptance suite: every criterion at its stated tolerance, one PASS/FAIL
line per criterion (run with -s to see them live), plus the CLI determinism
and wall-clock budget checks."""

import json
import os
import time

import pytest

from poincare_boundary_lab import analysis as an
from poincare_boundary_lab import cli
from poincare_boundary_lab import selftest as sft

SEED = sft.DEFAULT_SEED

RUNTIME_BUDGET_S = {
    "metric_suite": 5.0,
    "disk_image": 30.0,
    "equivalence": 60.0,
    "zigzag": 60.0,
    "normality": 120.0,
    "cluster_family": 120.0,
    "stolz": 60.0,
    "decay": 60.0,
}

_t0 = time.perf_counter()


CRITERIA = {key: (description, fun) for key, description, fun in sft.CRITERIA}


@pytest.mark.parametrize("cid", list(CRITERIA))
def test_criterion(cid):
    description, fun = CRITERIA[cid]
    t0 = time.perf_counter()
    passed, details = fun(SEED)
    elapsed = time.perf_counter() - t0
    print(f"{'PASS' if passed else 'FAIL'}  criterion {cid}: {description}"
          f"  ({elapsed:.1f}s)")
    assert elapsed <= RUNTIME_BUDGET_S[cid], \
        f"{cid} exceeded its runtime budget: {elapsed:.3f}s"
    assert passed, json.dumps(details, indent=2, default=str)[:4000]


def test_criterion_9_cli_determinism(tmp_path):
    """selftest twice with the same seed: byte-identical JSON reports."""
    t0 = time.perf_counter()
    for _ in range(2):
        code = cli.main(["--output-dir", str(tmp_path), "--seed", "42", "selftest"])
        assert code == 0
    files = sorted(p for p in os.listdir(tmp_path) if p.startswith("selftest"))
    assert len(files) == 2
    blobs = []
    for name in files:
        with open(os.path.join(tmp_path, name), "rb") as f:
            blobs.append(f.read())
    identical = blobs[0] == blobs[1]
    elapsed = time.perf_counter() - t0
    print(f"{'PASS' if identical else 'FAIL'}  criterion cli_determinism: "
          f"byte-identical selftest reports  ({elapsed:.1f}s)")
    assert identical
    payload = json.loads(blobs[0])
    assert payload["all_passed"]


class TestCriterionWork:
    """Work a criterion need not repeat: its three normality sups share a
    region and so one cusp zoom, and the family check reads no shell radius."""

    def test_normality_builds_one_zoom(self, monkeypatch):
        built = []
        init = an._LockstepZoom.__init__
        monkeypatch.setattr(an._LockstepZoom, "__init__",
                            lambda zm, *args: built.append(args) or init(zm, *args))
        sft.criterion_normality(SEED)
        (region, jobs), = built
        assert [max(levels) for _, levels in jobs] == [10, 10, 14]

    def test_cluster_family_checks_each_family_once(self, monkeypatch):
        calls = []
        check = an.renormalized_family_check
        monkeypatch.setattr(an, "renormalized_family_check",
                            lambda f, *args: calls.append(f) or check(f, *args))
        sft.criterion_cluster_family(SEED)
        assert len(calls) == 2 and calls[0] is not calls[1]


def test_full_suite_wall_clock():
    """Everything above must fit the < 10 minute budget."""
    elapsed = time.perf_counter() - _t0
    print(f"PASS  wall-clock: acceptance criteria finished in {elapsed:.0f}s")
    assert elapsed < 600.0
