"""The `pblab` contract: what each command line exits with, says and writes.

ROWS is the contract as one table, and `check_row` runs a row in process:
`cli.main(["--output-dir", DIR] + argv)`, with a `SystemExit` from argparse
taken as the exit code. A row fails on a wrong exit code, on a missing
stderr fragment, on a stdout that does not start as the row says, on any
warning, on an exception that escapes `cli.main`, on a report that is not
strict JSON, and on a report predicate that does not hold. A row that exits
2 writes nothing and prints one error: the one line `error: ...` where
`cli.main` returns 2, one `error: ` after argparse's usage where argparse
exits. A row that exits 0 prints on stderr only where its report went. The
tests after the table check what a row cannot: two runs against each other,
report key sets, and runs under a monkeypatch.
"""

import argparse
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np
import pytest

from poincare_boundary_lab import analysis as an
from poincare_boundary_lab import cli
from poincare_boundary_lab import curves as cv
from poincare_boundary_lab import functions as fn
from poincare_boundary_lab import geometry as ge
from poincare_boundary_lab import selftest as sft
from poincare_boundary_lab import stolz as st

ROOT = Path(__file__).resolve().parent.parent


class Row(NamedTuple):
    """`pblab ARGV` exits CODE; its stderr holds every fragment of ERR, its
    stdout starts with OUT, and its one report meets REPORT. FILES are
    written, name to text, into the directory that `{in}` in ARGV names.

    An ID `Class::test[case]` names the test that checked the row before the
    table: the row runs under that test id, with the other rows of that ID,
    in order. Any other ID is a case of test_contract.
    """
    id: str
    argv: str
    code: int
    err: tuple = ()
    out: str = ""
    report: Callable | None = None
    files: dict = {}


R = Row
_METRIC = "metric --kind ph --z 0,0 --w 0.5,0"
_CURVE_FILE = "frechet --curve1 radius:0 --curve2 @{in}/curve.json"
_NAN_END = json.dumps({"endpoint_angle": math.nan, "samples": [[0.5, 0], [0.9, 0]]})
_POLES = ("pole_series", "damped_pole_series")


def _pointwise_values(name):
    f, poles = cli.parse_function(f"{name}:52"), fn.PoleSchedule.default(52).pole_points[:30]
    return list(an.pseq_indicator_pointwise(f, poles).values)


# (argv, message) of a malformed spec, whose row id is the spec; most of them
# exited 0, or exited 2 without naming the spec, before one grammar read them
MALFORMED_SPECS = [
    ("curve-dist --curve1 radius:0:5 --curve2 radius:0",
     "bad curve spec 'radius:0:5'; expected radius:theta"),
    ("curve-dist --curve1 horocycle:0:1:9 --curve2 radius:0",
     "bad curve spec 'horocycle:0:1:9'; expected horocycle:theta[:side]"),
    ("curve-dist --curve1 radius:0 --curve2 horocycle:0:0.3",
     "bad curve spec 'horocycle:0:0.3': horocycle side must be 1 or -1, got 0.3"),
    ("frechet --curve1 radius:nan --curve2 radius:0",
     "bad curve spec 'radius:nan'; expected radius:theta"),
    ("equiv --curve1 radius:0 --curve2 chord:0", "bad curve spec 'chord:0'; expected "
     "chord:theta:angle"),
    ("curve-dist --curve1 lemniscate:0 --curve2 radius:0",
     "bad curve spec 'lemniscate:0'; expected radius:theta | chord:theta:angle | "
     "hypercycle:theta:offset | horocycle:theta[:side]"),
    # an offset this close to +-1 rounds the arclength step to 0, which raised
    # ZeroDivisionError with a traceback
    ("curve-dist --curve1 radius:0 --curve2 hypercycle:0:0.999999999 --level 3",
     "bad curve spec 'hypercycle:0:0.999999999': hypercycle offset 0.999999999 is "
     "too close to the boundary: its arclength step rounds to 0"),
    ("equiv --curve1 hypercycle:0:-0.999999999 --curve2 radius:0",
     "bad curve spec 'hypercycle:0:-0.999999999': hypercycle offset -0.999999999 is "
     "too close to the boundary"),
    ("frechet --curve1 radius:0 --curve2 hypercycle:0:0.9999999999",
     "bad curve spec 'hypercycle:0:0.9999999999': hypercycle offset 0.9999999999 is "
     "too close to the boundary"),
    ("normality --function identity --curve hypercycle:0:0.99999999999 --deflection 0.5",
     "bad curve spec 'hypercycle:0:0.99999999999': hypercycle offset 0.99999999999 is "
     "too close to the boundary"),
    ("gallery --name identity:5", "bad function spec 'identity:5'; expected identity"),
    ("gallery --name pole_series:12:7",
     "bad function spec 'pole_series:12:7'; expected pole_series[:K]"),
    ("gallery --name pole_series:x",
     "bad function spec 'pole_series:x'; expected pole_series[:K]"),
    ("gallery --name constant:1,2:3", "bad function spec 'constant:1,2:3'; expected constant[:c]"),
    ("gallery --name automorphism:2",
     "bad function spec 'automorphism:2'; expected automorphism[:w]"),
    ("decay --function saginjan_h --curve radius:0 --profile log:2:1:7",
     "bad profile spec 'log:2:1:7'; expected log[:shift[:e]]"),
    ("decay --function saginjan_h --curve radius:0 --profile log:0.3:inf:x",
     "bad profile spec 'log:0.3:inf:x'; expected log"),
    ("decay --function saginjan_h --curve radius:0 --profile pow:inf",
     "bad profile spec 'pow:inf'; expected pow:s[:e]"),
    ("decay --function saginjan_h --curve radius:0 --profile pow",
     "bad profile spec 'pow'; expected pow:s[:e]"),
    ("decay --function saginjan_h --curve radius:0 --profile log:-1",
     "bad profile spec 'log:-1': log profile needs shift > -1, got -1"),
    ("cluster --function identity --region radius-angle:0.5:0:9",
     "bad region spec 'radius-angle:0.5:0:9'; expected radius-angle:R[:theta]"),
    ("cluster --function identity --region radius-angle:0.5:nan",
     "bad region spec 'radius-angle:0.5:nan'; expected radius-angle:R[:theta]"),
    ("cluster --function identity --region radius-angle:0.5:inf",
     "bad region spec 'radius-angle:0.5:inf'; expected radius-angle:R[:theta]"),
    ("cluster --function identity --region radius-angle:2",
     "bad region spec 'radius-angle:2': pseudo-hyperbolic radius 2.0 not in [0, 1)"),
    ("pseq --function identity --mode pointwise --sequence radial:2:3",
     "bad sequence spec 'radial:2:3'; expected radial[:N]"),
]

ROWS = [
    # the README examples, in its order
    R("TestMetric::test_pseudo_hyperbolic_example", "metric --kind ph --z 0.5,0 --w -0.5,0",
      0, out="0.8\n"),
    R("TestExitCodes::test_equiv_not_equivalent_is_4",
      "equiv --curve1 radius:0 --curve2 horocycle:0 --max-level 12", 4),
    R("lemma4", "lemma4 --r 0.5 --n-zigzags 8", 0),
    R("normality-radius",
      "normality --function square_exp --curve radius:0 --deflection 0.5 --max-level 14", 0),
    R("decay-log", "decay --function saginjan_h --curve radius:0 --profile log:1 --level 12", 4),

    # verdicts, and what each subcommand prints
    R("TestExitCodes::test_equiv_inconclusive_is_3",
      "equiv --curve1 radius:0 --curve2 horocycle:0 --max-level 4", 3),
    R("TestExitCodes::test_equiv_equivalent_is_0",
      "equiv --curve1 radius:0 --curve2 chord:0:0.5236 --max-level 10", 0),
    R("TestExitCodes::test_endpoint_mismatch_is_2", "equiv --curve1 radius:0 --curve2 radius:1", 2),
    R("TestExitCodes::test_decay_violated_is_4",
      "decay --function saginjan_h --curve radius:0 --profile log:1 --level 10", 4),
    R("TestExitCodes::test_decay_satisfied_is_0",
      "decay --function square_exp --curve radius:0 --profile super:1 --level 10", 0),
    R("TestOtherSubcommands::test_family", "family --function identity --target 1,0 --r1 0.9 --depths 1:16", 0),
    R("TestOtherSubcommands::test_family", "family --function identity --target 0,0 --r1 0.5 --depths 1:8", 4),
    R("TestOtherSubcommands::test_lemma6_pass", "lemma6 --alpha 0.7853981633974483 --beta 0.5235987755982988 "
      "--samples 4000", 0),
    R("TestOtherSubcommands::test_pseq_local_sup", "pseq --function pole_series --mode local-sup "
      "--sequence poles:8", 0, out="local-sup: diverging"),
    R("TestOtherSubcommands::test_gallery", "gallery --name saginjan_h --at 0.5,0", 0, out="[0.13533"),
    R("TestOtherSubcommands::test_stolz_map_point", "stolz-map --alpha 0.7853981633974483 --z 0.5,0", 0),
    R("TestMetric::test_spherical_infinity", "metric --kind s --z 0,0 --w inf", 0, out="2\n"),
    # the distance kernels check no domain: metric checks its disk points
    *[R(f"metric-{kind}-refuses-a-point-off-the-disk", f"metric --kind {kind} --z 1,0 --w 0,0", 2,
        ["error: |z| = 1.0 is not inside the unit disk\n"]) for kind in ("ph", "h")],
    R("TestReports::test_json_report_written", "metric --kind h --z 0,0 --w 0.5,0", 0,
      report=lambda r: r["subcommand"] == "metric" and "seed" in r
      and r["value"] == pytest.approx(math.log(3.0))),

    # deep curves
    R("frechet-chord-level-45", "frechet --curve1 radius:0 --curve2 chord:0:1.5 --level 45", 0),
    # the horocycle's zoom levels fall into several region-test blocks
    R("normality-horocycle", "normality --function square_exp --curve horocycle:0 "
      "--deflection 0.5 --max-level 14", 0),
    R("equiv-chords-level-40",
      "equiv --curve1 chord:0:0.5 --curve2 chord:0:-1.55 --max-level 40", 0),
    # deep horocycle steps: curve2 is stepped to level 24
    R("curve-dist-horocycle-level-22",
      "curve-dist --curve1 chord:0:0.5 --curve2 horocycle:0:-1 --level 22", 0),
    R("TestExitCodes::test_level_past_double_precision_is_2",
      "frechet --curve1 radius:0 --curve2 chord:0:0.5 --level 53", 0),
    R("TestExitCodes::test_level_past_double_precision_is_2",
      "frechet --curve1 radius:0 --curve2 chord:0:0.5 --level 54", 2,
      ["error: curve chord:0:0.5 at level 54: depth 2^-54 is below what complex-double "
       "samples resolve"]),
    # 2^-1100 rounds to 0.0, and 2 / 2^-1023 to infinity: a sample bound
    # that cannot be computed raised ZeroDivisionError or OverflowError
    # with a traceback
    *[R(f"level-past-double-range-{spec}-{level}", f"frechet --curve1 {spec} --curve2 {spec} "
        f"--level {level}", 2, [f"error: curve {spec} at level {level}: depth 2^-{level} is "
                                "past the range of doubles\n"])
      for spec, level in [("radius:0", 1100), ("radius:0", 1023), ("chord:0:0.5", 1100),
                          ("hypercycle:0:0.5", 1100), ("horocycle:0", 1100)]],
    *[R(f"level-past-double-range-{argv.split()[0]}", argv, 2,
        ["error: curve radius:0 at level 1100: depth 2^-1100 is past the range of doubles\n"])
      for argv in ["curve-dist --curve1 radius:0 --curve2 radius:0 --level 1100",
                   "decay --function saginjan_h --curve radius:0 --profile log:1 --level 1100",
                   "normality --function identity --curve radius:0 --deflection 0.3 "
                   "--max-level 1100"]],
    # the label is a spec that parses back; `:g` named it hypercycle:0:1
    R("over-budget-hypercycle-named-by-its-spec",
      "curve-dist --curve1 radius:0 --curve2 hypercycle:0:0.99999999 --level 3", 2,
      ["error: curve hypercycle:0:0.99999999 at level 5: 1118924175 samples predicted"]),
    # 38 curve samples, each covered by 7,207,301 points, would need about
    # 16 GiB; the pool is refused before it is built
    R("normality-cover-over-budget",
      "normality --function identity --curve radius:0 --deflection 0.9999", 2,
      ["error: normality of curve radius:0 at deflection 0.9999, level 12: 273877438 cover "
       "points, above the budget of 4000000\n"]),
    # level 50's deepest radius sample rounds to |z| = 1 - 1e-15 before the
    # zoom reads level 52; the refusal names the curve and the level
    R("normality-level-past-double-precision",
      "normality --function identity --curve radius:0 --deflection 0.3 --max-level 50", 2,
      ["error: normality of curve radius:0 at deflection 0.3, level 50: "
       "|z| = 0.999999999999999 is not inside the unit disk\n"]),
    *[R(f"TestExitCodes::test_level_below_one_is_2[{sub}]", argv, 2, ["error: "]) for sub, argv in [
        ("frechet", "frechet --curve1 radius:0 --curve2 hypercycle:0:0.5 --level 0"),
        ("curve-dist", "curve-dist --curve1 radius:0 --curve2 hypercycle:0:0.5 --level 0"),
        ("decay", "decay --function square_exp --curve radius:0 --profile super:1 --level 0"),
        ("equiv", "equiv --curve1 radius:0 --curve2 hypercycle:0:0.5 --max-level 0"),
        ("normality", "normality --function identity --curve radius:0 --deflection 0.3 "
         "--max-level 0")]],

    # sphere points in reports; a tower value saturates at both ends, to 0
    # at 0.999 and to infinity at the second point, and both reports flag it
    R("TestReports::test_sphere_points_are_pairs_or_infinity", "metric --kind s --z inf "
      "--w 0.5,0", 0, report=lambda r: r["z"] == "infinity" and r["w"] == [0.5, 0.0]),
    R("TestReports::test_sphere_points_are_pairs_or_infinity", "gallery --name gavrilov_g "
      "--at 0.999,0", 0, report=lambda r: r["values"] == [
          {"z": [0.999, 0.0], "value": [0.0, 0.0], "saturated": True}]),
    R("gallery-saturates-to-infinity", "gallery --name gavrilov_g --at 0.999732501,-0.000963558",
      0, report=lambda r: [(v["value"], v["saturated"]) for v in r["values"]]
      == [("infinity", True)]),
    # one call evaluates every --at point
    R("gallery-flags-each-point", "gallery --name gavrilov_g --at 0.5,0 "
      "--at 0.999732501,-0.000963558", 0, report=lambda r: [
          v["saturated"] for v in r["values"]] == [False, True]),
    # the limit rule reads two diameters: shell 50 holds no point of the
    # disk, and neither does 51, so these said no_limit from one shell or none
    *[R(f"cluster-shells-{shells}-inconclusive", "cluster --function constant:2,0 "
        f"--region radius-angle:0.5 --shells {shells}", 3, out="verdict inconclusive")
      for shells in ("49:50", "50:51")],
    # diameters of values above 1.3e154 were NaN, with overflow warnings
    R("cluster-tower-diameters", "cluster --function gavrilov_g --region radius-angle:0.5 "
      "--shells 2:10 --no-values", 0, report=lambda r: None not in r["diameters"]),

    # curve exchange files
    R(f"TestExitCodes::test_missing_or_malformed_curve_file_is_2[missing-curve-file]",
      "frechet --curve1 radius:0 --curve2 @{in}/absent.json", 2, ["error: "]),
    *[R(f"TestExitCodes::test_missing_or_malformed_curve_file_is_2[{case}]", _CURVE_FILE, 2, ["error: "],
        files={"curve.json": json.dumps(payload)}) for case, payload in [
        ("payload-without-angle", {"samples": []}),
        ("payload-without-samples", {"endpoint_angle": 0.0}),
        ("malformed-sample-pair", {"endpoint_angle": 0.0, "samples": [[0.1, 0.0, 0.2]]})]],
    *[R(f"TestExitCodes::test_curve_file_samples_must_lie_in_disk[{case}]", _CURVE_FILE + " --level 6",
        code, ["error: curve sample 0 has |z| = 1"] if code else [],
        files={"curve.json": json.dumps({"endpoint_angle": 0.0, "samples": [sample]})})
      for case, sample, code in [("outside-disk", [1.5, 0.0], 2), ("on-circle", [0.0, -1.0], 2),
                                 ("inside-disk", [0.5, 0.0], 0)]],
    # it used to exit 0 and print nan distances with a RuntimeWarning
    *[R(f"TestExitCodes::test_curve_file_with_nan_endpoint_is_2[{sub}]",
        f"{sub} --curve1 @{{in}}/nan-end.json --curve2 radius:0 --level 3", 2,
        ["error: malformed curve exchange payload: endpoint_angle nan is not finite\n"],
        files={"nan-end.json": _NAN_END}) for sub in ("curve-dist", "frechet")],

    # malformed specs, ranges, points and counts
    *[R(f"TestExitCodes::test_malformed_spec_is_2[{message.split(chr(39))[1]}]", argv, 2,
        [f"error: {message}"]) for argv, message in MALFORMED_SPECS],
    *[R(f"TestExitCodes::test_bad_range_or_region_is_2[{case}]", argv, 2, [f"error: {message}"])
      for case, argv, message in [
        ("region-without-radius", "cluster --function identity --region radius-angle",
         "bad region spec 'radius-angle'; expected radius-angle:R[:theta]"),
        ("empty-shells", "cluster --function identity --region radius-angle:0.4 "
         "--shells 8:2", "empty shell range '8:2'"),
        ("empty-depths", "family --function identity --target 1,0 --depths 5:1",
         "empty depth range '5:1'"),
        ("shells-without-colon", "cluster --function identity --region radius-angle:0.4 "
         "--shells 2", "bad shell range '2'; expected lo:hi"),
        ("depths-not-integers", "family --function identity --target 1,0 --depths a:b",
         "bad depth range 'a:b'; expected lo:hi")]],
    *[R(f"TestExitCodes::test_nan_point_is_2[{case}]", argv, 2, ["NaN is not a point"])
      for case, argv in [("metric-z", "metric --kind ph --z nan,0 --w 0,0"),
                         ("family-target", "family --function identity --target nan,0"),
                         ("gallery-at", "gallery --name identity --at 0,nan")]],
    R("TestMetric::test_bad_complex_is_usage_error", "metric --kind ph --z zebra --w 0,0", 2),
    R(f"TestExitCodes::test_zero_count_is_2[stolz-map-grid]", "stolz-map --alpha 0.5 --grid 0", 2,
      ["error: --grid must be >= 1, got 0"]),
    R(f"TestExitCodes::test_zero_count_is_2[lemma6-samples]", "lemma6 --alpha 0.5 --beta 0.3 --samples 0",
      2, ["error: --samples must be >= 1, got 0"]),
    R("TestOtherSubcommands::test_gallery_unknown_name", "gallery --name mystery", 2),
    *[row for name in _POLES for row in [
        R(f"TestExitCodes::test_pole_series_needs_ten_poles[{name}]", f"gallery --name {name}:8 "
          "--at 0.2,0.1", 2, [f"error: bad function spec '{name}:8': pole schedule needs "
                              "K >= 10, got K = 8"]),
        R(f"TestExitCodes::test_pole_series_needs_ten_poles[{name}]",
          f"gallery --name {name}:10 --at 0.2,0.1", 0)]],
    # 53-55 used to fail a schedule check, 56 and up a numpy reduction
    *[R(f"TestExitCodes::test_pole_series_refuses_more_than_52_poles[{name}-{k}]",
        f"gallery --name {name}:{k} --at 0.5,0", 2,
        [f"error: bad function spec '{name}:{k}': pole schedule needs K <= 52, got K = {k}"])
      for name in _POLES for k in (53, 56, 60)],
    *[R(f"TestExitCodes::test_pole_series_takes_52_poles[{name}]", f"gallery --name {name}:52 --at 0.5,0",
        0) for name in _POLES],
    R("TestOtherSubcommands::test_bad_decay_profile_warns_nothing",
      "decay --function saginjan_h --curve radius:0 --profile log:-5 --level 4", 2,
      ["error: bad profile spec 'log:-5'"]),

    # pseq: sequences, and the options each mode reads
    *[R(f"TestExitCodes::test_bad_sequence_spec_is_2[{case}]",
        f"pseq --function identity --mode {mode} --sequence {sequence}", 2, [message])
      for case, mode, sequence, message in [
        ("split-pair-zero", "split-pair", "poles:0",
         "bad sequence spec 'poles:0'; expected poles[:N]"),
        ("split-pair-radial", "split-pair", "radial:8",
         "split-pair takes --sequence poles:N, got 'radial:8'"),
        ("split-pair-unknown-kind", "split-pair", "nonsense:8", "bad sequence spec "
         "'nonsense:8'; expected radial[:N] | poles[:N] | pole-adjacent[:N] | pole-offset[:N]"),
        ("too-many-poles", "pointwise", "poles:30",
         "sequence 'poles:30' asks for 30 poles; the schedule has 20"),
        ("too-many-offset-poles", "local-sup", "pole-offset:21",
         "asks for 21 poles; the schedule has 20"),
        ("radial-zero", "pointwise", "radial:0",
         "bad sequence spec 'radial:0'; expected radial[:N]"),
        ("count-not-integer", "pointwise", "poles:x",
         "bad sequence spec 'poles:x'; expected poles[:N]")]],
    # the pole sequences come from the schedule of the function's K
    *[row for name in _POLES for row in [
        R(f"TestExitCodes::test_sequence_follows_the_function_poles[{name}]",
          f"pseq --function {name}:10 --mode pointwise --sequence poles:20", 2,
          ["error: sequence 'poles:20' asks for 20 poles; the schedule has 10"]),
        R(f"TestExitCodes::test_sequence_follows_the_function_poles[{name}]",
          f"pseq --function {name}:52 --mode pointwise --sequence poles:30", 0,
          report=lambda r, name=name: r["values"] == _pointwise_values(name))]],
    *[R(f"TestExitCodes::test_twenty_poles_are_accepted[{mode}]", "pseq --function pole_series "
        f"--mode {mode} --sequence poles:20", 0, report=lambda r: len(r["values"]) == 20)
      for mode in ("pointwise", "local-sup", "split-pair")],
    *[R(f"TestExitCodes::test_split_pair_options_are_refused_elsewhere[{option}-{value}-{mode}]",
        f"pseq --function identity --mode {mode} {option} {value}", 2,
        [f"error: pseq --mode {mode} does not read {option}\n"])
      for option, value in [("--alpha", "0.3,0"), ("--delta", "0.9")]
      for mode in ("pointwise", "local-sup")],
    # 2, the largest spherical distance, is a delta
    *[R("TestExitCodes::test_split_pair_reads_delta", "pseq --function pole_series --mode "
        f"split-pair --sequence poles:4{extra}", 0, report=lambda r, d=delta:
        r["arguments"]["delta"] == r["details"]["delta"] == d) for extra, delta in
      [("", cli.PSEQ_DELTA), (" --delta 0.5", 0.5), (" --delta 0.9", 0.9), (" --delta 2", 2.0)]],
    # these exited 0 with a separated_along_b that meant nothing
    *[R(f"TestExitCodes::test_split_pair_refuses_a_delta_outside_0_2[{delta}]",
        f"pseq --function pole_series --mode split-pair --sequence poles:4 --delta {delta}",
        2, [f"error: split-pair delta must be a spherical distance in (0, 2], got "
            f"{float(delta)!r}\n"]) for delta in ("nan", "-1", "5", "inf", "0")],
    R("split-pair-delta-nan-default-sequence",
      "pseq --function identity --mode split-pair --delta nan", 2,
      ["split-pair delta must be a spherical distance in (0, 2], got nan"]),
    R("TestOtherSubcommands::test_damped_pole_pointwise_warns_nothing",
      "pseq --function damped_pole_series --mode pointwise", 0),

    # stolz-map: one point, or a grid of samples
    R("TestOtherSubcommands::test_stolz_map_point_rejects_grid", "stolz-map --alpha 0.5 --z 0.5,0 --grid 5", 2,
      ["--z", "--grid"]),
    # one mapped point draws no sample
    R("TestOtherSubcommands::test_stolz_map_point_rejects_seed", "--seed 4 stolz-map --alpha 0.5 --z 0.5,0", 2,
      ["--z", "--seed"]),
    R("TestOtherSubcommands::test_stolz_map_outside_domain", "stolz-map --alpha 0.5 --z 0,0.9", 2),
    # the radius follows from --alpha, so an out-of-range alpha cannot slip
    # past rho_of_alpha's check
    R("TestOtherSubcommands::test_stolz_map_has_no_radius_option", "stolz-map --alpha 3 --rho 0.5 --grid 10", 2,
      ["unrecognized arguments: --rho"]),
    R("TestOtherSubcommands::test_stolz_map_echoes_grid_in_grid_mode_only", "stolz-map --alpha 0.5", 0,
      report=lambda r: r["arguments"]["grid"] == r["samples"] == cli.STOLZ_GRID == 1000),
    R("TestOtherSubcommands::test_stolz_map_echoes_grid_in_grid_mode_only", "stolz-map --alpha 0.5 --z 0.5,0", 0,
      report=lambda r: "grid" not in r["arguments"]),

    # global options: --seed where samples are drawn, nothing else
    R("TestExitCodes::test_unknown_subcommand", "no-such-command", 2),
    # thresholds are fixed module constants; no override is accepted
    R("TestExitCodes::test_set_tolerance_flag_is_rejected", "--set-tolerance algebraic=1e-13 " + _METRIC,
      2),
    *[R(f"TestExitCodes::test_unknown_global_option_is_named[{case}]", f"{argv} {_METRIC}", 2,
        [f"error: unrecognized arguments: {option}\n"]) for case, argv, option in [
        ("format", "--format csv", "--format"), ("config", "--config run.cfg", "--config"),
        ("set-tolerance", "--set-tolerance x=1", "--set-tolerance"),
        ("after-a-known-option", "--seed 5 --bogus x", "--bogus")]],
    # a level is an option of the subcommand that reads it
    R("TestExitCodes::test_global_max_level_is_unrecognized",
      "--max-level 6 frechet --curve1 radius:0 --curve2 chord:0:0.5", 2,
      ["error: unrecognized arguments: --max-level\n"]),
    R("TestParser::test_subcommand_usage_error_names_it", _METRIC + " --bogus", 2,
      ["pblab metric: error: unrecognized arguments: --bogus\n"]),
    R("seed-refused-where-no-sample-is-drawn", "--seed 4 " + _METRIC, 2,
      ["error: metric does not read --seed\n"]),
    R("seed-read-by-cluster", "--seed 4 cluster --function identity --region radius-angle:0.5 "
      "--shells 2:4 --no-values", 0),
    R("TestConfig::test_seed_flag", "--seed 9 cluster --function identity --region "
      "radius-angle:0.4 --shells 2:4 --no-values", 0,
      report=lambda r: r["seed"] == r["arguments"]["seed"] == 9),
    # without --seed, and on subcommands that draw no sample, the default
    R("TestConfig::test_seed_flag", "cluster --function identity --region radius-angle:0.4 "
      "--shells 2:4 --no-values", 0,
      report=lambda r: r["seed"] == sft.DEFAULT_SEED and "seed" not in r["arguments"]),
    R("TestConfig::test_seed_flag", _METRIC, 0, report=lambda r: r["seed"] == sft.DEFAULT_SEED),

    # help
    R("help", "-h", 0, out="usage: pblab [-h]"),
    *[R(f"TestParser::test_subcommand_help[{name}]", f"{name} -h", 0,
        out=f"usage: pblab {name} [-h]") for name in cli.SUBCOMMANDS],
]


def _refuse(constant):
    raise ValueError(f"report holds {constant}, which is not JSON")


def check_row(row, tmp_path, capsys):
    reports, inputs = tmp_path / "reports", tmp_path / "inputs"
    inputs.mkdir(parents=True)
    for name, text in row.files.items():
        (inputs / name).write_text(text)
    argv = [word.replace("{in}", str(inputs)) for word in row.argv.split()]
    parsed = True  # False where argparse exits: a usage error, or -h
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = cli.main(["--output-dir", str(reports), *argv])
        except SystemExit as exc:
            parsed, code = False, exc.code
    out, err = capsys.readouterr()
    assert code == row.code, err
    assert not caught, [str(w.message) for w in caught]
    assert [f for f in row.err if f not in err] == []
    assert out.startswith(row.out), out
    written = sorted(reports.iterdir()) if reports.exists() else []
    found = [json.loads(path.read_text(), parse_constant=_refuse) for path in written]
    if code == 2:  # cli.main prints one line; argparse a usage, then its error
        assert not written
        assert (err.startswith("error: ") and err.count("\n") == 1 if parsed
                else err.count("error: ") == 1), err
    elif code == 0:  # nothing on stderr but where the report went
        assert all(line.startswith("report: ") for line in err.splitlines()), err
    if row.report is not None:
        assert len(found) == 1 and row.report(found[0])


def _run_rows(rows, tmp_path, capsys, monkeypatch):
    monkeypatch.delenv(cli.OUTPUT_DIR_ENV, raising=False)
    for i, row in enumerate(rows):
        check_row(row, tmp_path / str(i), capsys)


CONTRACT = [row for row in ROWS if "::" not in row.id]


@pytest.mark.parametrize("row", CONTRACT, ids=[row.id for row in CONTRACT])
def test_contract(row, tmp_path, capsys, monkeypatch):
    _run_rows([row], tmp_path, capsys, monkeypatch)


def run(argv, tmp_path):
    return cli.main(["--output-dir", str(tmp_path)] + argv)


def latest_report(tmp_path, sub):
    files = sorted(p for p in os.listdir(tmp_path) if p.startswith(sub))
    assert files, f"no report for {sub}"
    with open(os.path.join(tmp_path, files[-1]), "rb") as f:
        return f.read()


def test_readme_examples_are_rows():
    # every `pblab ...` line of the README's examples block is a row, with
    # the exit code its comment names (0 where it names none) and the output
    block = (ROOT / "README.md").read_text(encoding="utf-8").split("Examples:\n\n```\n")[1]
    rows = {" ".join(row.argv.split()): row for row in ROWS}
    examples = [line.partition("#") for line in block.split("```")[0].splitlines()]
    assert len(examples) == 5
    for command, _, comment in examples:
        row = rows[" ".join(command.split()[1:])]
        code, printed = re.search(r"exit (\d)", comment), re.search(r"prints (\S+)", comment)
        assert row.code == (int(code[1]) if code else 0)
        assert printed is None or row.out == f"{printed[1]}\n"


# runs argv and prints its exit code and its own peak RSS in KiB. A child
# starts at the size of the process it forks from (exec keeps that peak), so
# a small launcher forks the command, not the test session; and wait4 reads
# one child's peak, where RUSAGE_CHILDREN is the largest of all of them
_PEAK_RSS = ("import os, subprocess, sys; child = subprocess.Popen(sys.argv[1:]); "
             "_, status, usage = os.wait4(child.pid, 0); "
             "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)")


def _peak_rss_mib(tmp_path, argv):
    """(exit code, peak RSS in MiB) of `pblab argv` run through _PEAK_RSS."""
    argv = [sys.executable, "-c", _PEAK_RSS, sys.executable, "-m", "poincare_boundary_lab.cli",
            "--output-dir", str(tmp_path), *argv.split()]
    out = subprocess.run(argv, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                         capture_output=True, text=True, check=True).stdout
    code, peak_kib = map(int, out.split()[-2:])
    return code, peak_kib / 1024


def test_curve_distance_memory_does_not_grow_with_its_cells(tmp_path):
    # a curve distance computes its cells a block at a time: 4,088 x 4,088
    # cells (16.7M, under the budget) peak at about 33 MiB
    code, peak = _peak_rss_mib(
        tmp_path, "frechet --curve1 horocycle:0 --curve2 horocycle:0:-1 --level 19")
    assert code == 0 and peak < 64


def test_normality_memory_does_not_grow_with_points_times_poles(tmp_path):
    # the pole series takes its offsets a block of points at a time: a
    # 52-pole normality pass over a horocycle's cover (339,556 points) peaks
    # at about 67 MiB, where one (N, K) array of them a call took 600 MiB
    code, peak = _peak_rss_mib(tmp_path, "normality --function pole_series:52 "
                               "--curve horocycle:0 --deflection 0.5 --max-level 14")
    assert code == 0 and peak < 128


class TestExitCodes:
    def test_level_over_sample_budget_is_2(self, tmp_path, capsys, monkeypatch):
        # horocycle:0 at level 52 (the distance reads curve2 two levels
        # deeper) would take about 3.8e8 samples; none of them is stepped
        monkeypatch.setattr(cv.ParametricCurve, "_step", None)
        assert run(["curve-dist", "--curve1", "radius:0", "--curve2", "horocycle:0",
                    "--level", "50"], tmp_path) == 2
        assert ("error: curve horocycle:0 at level 52: 379625064 samples "
                "predicted, above the budget of 100000") in capsys.readouterr().err
        assert not os.listdir(tmp_path)

    def test_equiv_over_sample_budget_names_its_deepest_level(self, tmp_path, capsys,
                                                             monkeypatch):
        # every level is read from the deepest one, whose budgets are checked
        # first: the horocycle at level 52, not the first level over budget
        monkeypatch.setattr(cv.ParametricCurve, "_step", None)
        assert run(["equiv", "--curve1", "radius:0", "--curve2", "horocycle:0",
                    "--max-level", "50"], tmp_path) == 2
        assert ("error: curve horocycle:0 at level 52: 379625064 samples "
                "predicted, above the budget of 100000") in capsys.readouterr().err
        assert not os.listdir(tmp_path)

    def test_matrix_over_cell_budget_is_2(self, tmp_path, capsys, monkeypatch):
        # 8,172 samples a curve, far under the sample budget; refused before
        # any cell is computed
        monkeypatch.setattr(cv, "_CoshCells", None)
        assert run(["frechet", "--curve1", "horocycle:0", "--curve2", "horocycle:0:-1",
                    "--level", "21"], tmp_path) == 2
        assert ("error: curves horocycle:0 and horocycle:0 at level 21: 66781584 "
                "distance-matrix cells, above the budget of 20000000"
                ) in capsys.readouterr().err
        assert not os.listdir(tmp_path)


class TestReports:
    def test_report_stamp_reads_one_clock(self, tmp_path, monkeypatch):
        # the seconds came from gmtime(), a coarse clock that can still read
        # the old second after time_ns() has passed into the next, so a later
        # report could sort before an earlier one
        monkeypatch.setattr(cli.time, "time_ns", lambda: 1_000_000_000_002_966_015)
        path = cli.write_report(str(tmp_path), "metric", {})
        assert os.path.basename(path) == "metric-20010909T014640002966015.json"

    def test_deterministic_given_seed(self, tmp_path):
        args = ["--seed", "5", "cluster", "--function", "identity",
                "--region", "radius-angle:0.4", "--shells", "2:8"]
        run(args, tmp_path)
        run(args, tmp_path)
        files = sorted(p for p in os.listdir(tmp_path) if p.startswith("cluster"))
        with open(os.path.join(tmp_path, files[0]), "rb") as f:
            a = f.read()
        with open(os.path.join(tmp_path, files[1]), "rb") as f:
            b = f.read()
        assert a == b

    def test_equiv_arguments_echo(self, tmp_path):
        code = run(["equiv", "--curve1", "radius:0", "--curve2",
                    "chord:0:0.5236", "--max-level", "12"], tmp_path)
        assert code == 0
        payload = json.loads(latest_report(tmp_path, "equiv"))
        assert payload["arguments"] == {
            "curve1": "radius:0", "curve2": "chord:0:0.5236",
            "max_level": 12, "max_level_local": 12, "no_report": False,
            "output_dir": str(tmp_path), "subcommand": "equiv"}

    def test_selftest_echoes_the_thresholds_in_force(self, tmp_path, monkeypatch):
        monkeypatch.setattr(sft, "CRITERIA", [])  # the echo, not the battery
        assert run(["selftest"], tmp_path) == 0
        payload = json.loads(latest_report(tmp_path, "selftest"))
        assert payload["tolerances"] == {
            "algebraic": ge.ALGEBRAIC_TOL,
            "composed": ge.COMPOSED_TOL,
            "plateau_ratio": cv.PLATEAU_RATIO,
            "growth_factor": an.GROWTH_FACTOR,
            "converge": an.CONVERGE_TOL,
            "margin_rel": st.MARGIN_REL_TOL,
        }

    def test_no_report_flag(self, tmp_path):
        run(["--no-report", "metric", "--kind", "ph", "--z", "0,0",
             "--w", "0.1,0"], tmp_path)
        assert not os.listdir(tmp_path)

# one cheap run per subcommand, with the keys its `arguments` echo holds
# besides no_report, output_dir and subcommand, as the parser of the
# previous release (one argparse subparser per subcommand) wrote them
ECHO_KEYS = [
    ("metric", ["--kind", "ph", "--z", "0.5,0", "--w", "-0.5,0"], {"kind", "z", "w"}),
    ("curve-dist", ["--curve1", "radius:0", "--curve2", "hypercycle:0:0.3",
                    "--level", "6"], {"curve1", "curve2", "level"}),
    ("frechet", ["--curve1", "radius:0", "--curve2", "hypercycle:0:0.3",
                 "--level", "6"], {"curve1", "curve2", "level"}),
    ("equiv", ["--curve1", "radius:0", "--curve2", "chord:0:0.5236", "--max-level", "8"],
     {"curve1", "curve2", "max_level", "max_level_local"}),
    ("lemma4", ["--r", "0.5", "--n-zigzags", "2"], {"r", "n_zigzags"}),
    ("normality", ["--function", "identity", "--curve", "radius:0",
                   "--deflection", "0.3", "--max-level", "4"],
     {"function", "curve", "deflection", "max_level", "max_level_local"}),
    ("pseq", ["--function", "pole_series", "--mode", "pointwise", "--sequence", "poles:4"],
     {"function", "mode", "sequence", "delta"}),
    ("cluster", ["--function", "identity", "--region", "radius-angle:0.4",
                 "--shells", "2:4", "--no-values"],
     {"function", "region", "shells", "no_values"}),
    ("family", ["--function", "identity", "--target", "1,0", "--r1", "0.9"],
     {"function", "target", "r1", "depths"}),
    ("stolz-map", ["--alpha", "0.5", "--grid", "10"], {"alpha", "grid"}),
    ("lemma6", ["--alpha", "0.5", "--beta", "0.3", "--samples", "100"],
     {"alpha", "beta", "samples"}),
    ("decay", ["--function", "square_exp", "--curve", "radius:0",
               "--profile", "super:1", "--level", "6"],
     {"function", "curve", "profile", "level"}),
    ("gallery", ["--name", "saginjan_h", "--at", "0.5,0"], {"name", "at"}),
    ("selftest", [], set()),
]
SUBCOMMAND_NAMES = [name for name, _, _ in ECHO_KEYS]
SEEDED = {"cluster", "stolz-map", "lemma6", "selftest"}  # they draw samples

_THRESHOLDS = ["thresholds", "thresholds.converge_tol", "thresholds.failure_fraction",
               "thresholds.growth_factor", "thresholds.plateau_ratio"]
_SHELLS = ["shells", "shells[].diameter", "shells[].mean", "shells[].n",
           "shells[].range", "shells[].shell"]
_CLUSTER = ["cluster", "--function", "identity", "--region", "radius-angle:0.4",
            "--shells", "2:4"]
_PSEQ = ["pseq", "--function", "pole_series", "--sequence", "poles:4", "--mode"]
# one cheap run per report built from a library dataclass, with the nested
# keys of its report besides arguments, seed and subcommand, as the
# hand-written serialisers of the previous release wrote them
PAYLOAD_KEYS = [
    (["equiv", "--curve1", "radius:0", "--curve2", "chord:0:0.5236", "--max-level", "8"],
     ["backward", "curve1", "curve2", "forward", "levels", "thresholds",
      "thresholds.growth_floor", "thresholds.growth_run", "thresholds.plateau_ratio",
      "thresholds.small_distance", "values", "verdict"]),
    (["normality", "--function", "identity", "--curve", "radius:0",
      "--deflection", "0.3", "--max-level", "4"],
     ["deflection", "evaluations", "failures", "function", "levels", "region", "sups",
      "verdict", *_THRESHOLDS]),
    ([*_PSEQ, "pointwise"],
     ["details", "details.crossed_at", "details.crossed_at.10.0",
      "details.crossed_at.100.0", "details.crossed_at.1000.0", "details.thresholds",
      "function", "kind", "values", "verdict"]),
    ([*_PSEQ, "local-sup"], ["details", "details.radii", "details.thresholds",
                             "details.thresholds.growth_factor",
                             "details.thresholds.plateau_ratio", "function", "kind",
                             "values", "verdict"]),
    ([*_PSEQ, "split-pair"],
     ["details", "details.converges_along_a", "details.d_h_pairs", "details.d_target_b",
      "details.delta", "details.pairs_merge", "details.separated_along_b", "function",
      "kind", "values", "verdict"]),
    (_CLUSTER, ["diameters", "function", "limit_candidate", "region", *_SHELLS,
                "shells[].values", "theta", "verdict", *_THRESHOLDS]),
    ([*_CLUSTER, "--no-values"], ["diameters", "function", "limit_candidate", "region",
                                  *_SHELLS, "theta", "verdict", *_THRESHOLDS]),
    (["family", "--function", "identity", "--target", "1,0", "--r1", "0.9",
      "--depths", "1:4"],
     ["compact_radius", "failures", "function", "sup_ds", "target", "verdict",
      "w_sequence", *_THRESHOLDS]),
    (["decay", "--function", "square_exp", "--curve", "radius:0", "--profile", "super:1",
      "--level", "6"],
     ["curve", "exponent", "function", "levels", "profile", "rows", "rows[].depth",
      "rows[].margin", "thresholds", "thresholds.margin_rel_tol", "verdict",
      "violation_threshold"]),
]


def _key_paths(obj, prefix=""):
    """Dotted paths of every key under obj; list items share a `[]` step."""
    if isinstance(obj, dict):
        for k, v in obj.items():
            path = f"{prefix}.{k}" if prefix else k
            yield path
            yield from _key_paths(v, path)
    elif isinstance(obj, list):
        for v in obj:
            yield from _key_paths(v, prefix + "[]")


class TestParser:
    @pytest.mark.parametrize("name,options,keys", ECHO_KEYS, ids=SUBCOMMAND_NAMES)
    def test_echo_key_set_is_pinned(self, tmp_path, monkeypatch, name, options, keys):
        monkeypatch.setattr(sft, "CRITERIA", [])  # the echo, not the battery
        assert run([name, *options], tmp_path) == 0
        payload = json.loads(latest_report(tmp_path, name))
        assert set(payload["arguments"]) == keys | {"no_report", "output_dir", "subcommand"}

    @pytest.mark.parametrize("argv,keys", PAYLOAD_KEYS, ids=[
        "equiv", "normality", "pseq-pointwise", "pseq-local-sup", "pseq-split-pair",
        "cluster", "cluster-no-values", "family", "decay"])
    def test_payload_key_set_is_pinned(self, tmp_path, argv, keys):
        run(argv, tmp_path)
        payload = json.loads(latest_report(tmp_path, argv[0]))
        del payload["arguments"], payload["seed"], payload["subcommand"]
        assert set(_key_paths(payload)) == set(keys)

    def test_table_has_every_subcommand(self):
        assert list(cli.SUBCOMMANDS) == SUBCOMMAND_NAMES

    @pytest.mark.parametrize("name,options,keys", ECHO_KEYS, ids=SUBCOMMAND_NAMES)
    def test_seed_is_accepted_where_it_is_read(self, tmp_path, capsys, monkeypatch,
                                               name, options, keys):
        seeds = []  # the battery is not run, only the seed it is given
        monkeypatch.setattr(sft, "run_all", lambda seed: seeds.append(seed) or
                            {"criteria": [], "all_passed": True})
        if name not in SEEDED:
            assert run(["--seed", "4", name, *options], tmp_path) == 2
            assert f"error: {name} does not read --seed\n" in capsys.readouterr().err
            assert not os.listdir(tmp_path)
            return
        payloads = []
        for seed in (4, 5):
            assert run(["--seed", str(seed), name, *options], tmp_path) == 0
            payload = json.loads(latest_report(tmp_path, name))
            assert payload["seed"] == payload["arguments"]["seed"] == seed
            del payload["arguments"], payload["seed"]
            payloads.append(payload)
        if name == "selftest":
            assert seeds == [4, 5]
        else:
            assert payloads[0] != payloads[1]

    def test_top_level_help_lists_every_subcommand(self, capsys):
        with pytest.raises(SystemExit):  # its exit code is the row "help"
            cli.main(["-h"])
        lines = capsys.readouterr().out.splitlines()
        for name in SUBCOMMAND_NAMES:
            help_text = cli.SUBCOMMANDS[name][0]
            assert any(line.split() == [name, *help_text.split()] for line in lines), name

    @pytest.mark.parametrize("argv,dest,value", [
        (["metric", "--kind", "ph", "--z", "-0.5,0", "--w", "-.5,0"], "z", "-0.5,0"),
        (["metric", "--kind", "ph", "--z", "0,0", "--w", "-.5,0"], "w", "-.5,0"),
        (["metric", "--kind", "ph", "--z", "0,0", "--w", "-1e-3,0"], "w", "-1e-3,0"),
        (["stolz-map", "--alpha", "0.5", "--z", "-.5,0"], "z", "-.5,0"),
        (["pseq", "--function", "identity", "--mode", "pointwise",
          "--delta", "-1e-3"], "delta", -1e-3),
    ], ids=["metric-z", "metric-w-dot", "metric-w-exponent", "stolz-map-z", "pseq-delta"])
    def test_negative_numbers_are_values(self, argv, dest, value):
        args = cli.build_parser().parse_args(argv)
        cli.build_parser(args.subcommand).parse_args(args.rest, namespace=args)
        assert getattr(args, dest) == value

    def test_a_run_builds_at_most_two_parsers(self, tmp_path, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        assert run(["metric", "--kind", "ph", "--z", "0,0", "--w", "0.5,0"],
                   tmp_path) == 0
        assert built == ["pblab", "pblab metric"]


class TestConfig:
    def test_env_output_dir(self, tmp_path, monkeypatch, capsys):
        target = tmp_path / "env-dir"
        monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(target))
        code = cli.main(["metric", "--kind", "ph", "--z", "0,0", "--w", "0.2,0"])
        assert code == 0
        assert any(p.startswith("metric") for p in os.listdir(target))


class TestCurveExchange:
    def test_produced_and_consumed(self, tmp_path):
        # lemma4 report carries a curve in the exchange format; feed it back
        code = run(["lemma4", "--r", "0.5", "--n-zigzags", "2"], tmp_path)
        assert code == 0
        payload = json.loads(latest_report(tmp_path, "lemma4"))
        exchange = payload["curve2_exchange"]
        assert exchange["endpoint_angle"] == 0.0
        curve_file = tmp_path / "curve.json"
        curve_file.write_text(json.dumps(exchange))
        code = run(["frechet", "--curve1", "radius:0",
                    "--curve2", f"@{curve_file}", "--level", "8"], tmp_path)
        assert code == 0

    def test_round_trip_matches_module(self, tmp_path):
        chord = cv.canonical_curve("chord", 0.0, 0.4)
        payload = cv.curve_to_exchange(chord, 7)
        back = cv.curve_from_exchange(json.loads(json.dumps(payload)))
        assert back.endpoint_angle == 0.0


class TestOtherSubcommands:
    def test_gallery_evaluates_its_points_in_one_call(self, tmp_path, monkeypatch):
        calls = []
        eval_ = fn.LogScaleFunction.eval
        monkeypatch.setattr(fn.LogScaleFunction, "eval",
                            lambda self, z: calls.append(len(z)) or eval_(self, z))
        assert run(["gallery", "--name", "gavrilov_g", "--at", "0.5,0", "--at",
                    "0.999732501,-0.000963558", "--at", "0.2,0.1"], tmp_path) == 0
        assert calls == [3]

    def test_family_sup_of_failed_values_is_null(self, tmp_path, capsys, monkeypatch):
        nanf = fn.CallableFunction("nanf", lambda z: np.full_like(z, np.nan),
                                   lambda z: np.full_like(z, np.nan))
        monkeypatch.setattr(cli, "parse_function", lambda spec: nanf)
        assert run(["family", "--function", "nanf", "--target", "0,0",
                    "--r1", "0.5", "--depths", "1:2"], tmp_path) == 3
        assert "final sup none" in capsys.readouterr().out

        def reject(name):
            raise ValueError(f"report holds {name}")

        report = json.loads(latest_report(tmp_path, "family"), parse_constant=reject)
        assert report["sup_ds"] == [None, None]


def test_cli_imports_no_scipy():
    # numpy is the only runtime dependency; a fresh interpreter shows what
    # importing the CLI pulls in, whatever this test session has loaded
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    code = ("import sys, poincare_boundary_lab.cli; "
            "print(sorted(m for m in sys.modules"
            " if m == 'scipy' or m.startswith('scipy.')))")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"



class TestMetric:
    """Rows of the table only."""


def _rows_test(cases):
    if list(cases) == [""]:  # a test without parameters
        return lambda tmp_path, capsys, monkeypatch: _run_rows(
            cases[""], tmp_path, capsys, monkeypatch)

    @pytest.mark.parametrize("rows", list(cases.values()), ids=list(cases))
    def test(rows, tmp_path, capsys, monkeypatch):
        _run_rows(rows, tmp_path, capsys, monkeypatch)
    return test


def _keep_test_ids():
    """Bind the rows whose id names a test under that test's id, which the
    suite had before the table: rows of one id run in order in one test,
    and an id `test[case]` is a case of a parametrized test."""
    tests = {}
    for row in ROWS:
        test, _, case = row.id.partition("[")
        if "::" in test:
            tests.setdefault(test, {}).setdefault(case[:-1], []).append(row)
    for test, cases in tests.items():
        owner, name = test.split("::")
        setattr(globals()[owner], name, staticmethod(_rows_test(cases)))


_keep_test_ids()
