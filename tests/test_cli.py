import argparse
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from poincare_boundary_lab import analysis as an
from poincare_boundary_lab import cli
from poincare_boundary_lab import curves as cv
from poincare_boundary_lab import functions as fn
from poincare_boundary_lab import geometry as ge
from poincare_boundary_lab import selftest as sft
from poincare_boundary_lab import stolz as st


def run(argv, tmp_path, monkeypatch=None):
    return cli.main(["--output-dir", str(tmp_path)] + argv)


def latest_report(tmp_path, sub):
    files = sorted(p for p in os.listdir(tmp_path) if p.startswith(sub))
    assert files, f"no report for {sub}"
    with open(os.path.join(tmp_path, files[-1]), "rb") as f:
        return f.read()


class TestMetric:
    def test_pseudo_hyperbolic_example(self, tmp_path, capsys):
        code = run(["metric", "--kind", "ph", "--z", "0.5,0", "--w", "-0.5,0"],
                   tmp_path)
        out = capsys.readouterr().out.strip()
        assert code == 0
        assert out.startswith("0.8")

    def test_spherical_infinity(self, tmp_path, capsys):
        code = run(["metric", "--kind", "s", "--z", "0,0", "--w", "inf"], tmp_path)
        assert code == 0
        assert capsys.readouterr().out.strip().startswith("2")

    def test_bad_complex_is_usage_error(self, tmp_path):
        assert run(["metric", "--kind", "ph", "--z", "zebra", "--w", "0,0"],
                   tmp_path) == 2


# malformed specs and the message each ends with; most of them exited 0, or
# exited 2 without naming the spec, before one grammar read every spec
MALFORMED_SPECS = [
    (["curve-dist", "--curve1", "radius:0:5", "--curve2", "radius:0"],
     "bad curve spec 'radius:0:5'; expected radius:theta"),
    (["curve-dist", "--curve1", "horocycle:0:1:9", "--curve2", "radius:0"],
     "bad curve spec 'horocycle:0:1:9'; expected horocycle:theta[:side]"),
    (["curve-dist", "--curve1", "radius:0", "--curve2", "horocycle:0:0.3"],
     "bad curve spec 'horocycle:0:0.3': horocycle side must be 1 or -1, got 0.3"),
    (["frechet", "--curve1", "radius:nan", "--curve2", "radius:0"],
     "bad curve spec 'radius:nan'; expected radius:theta"),
    (["equiv", "--curve1", "radius:0", "--curve2", "chord:0"],
     "bad curve spec 'chord:0'; expected chord:theta:angle"),
    (["curve-dist", "--curve1", "lemniscate:0", "--curve2", "radius:0"],
     "bad curve spec 'lemniscate:0'; expected radius:theta | chord:theta:angle | "
     "hypercycle:theta:offset | horocycle:theta[:side]"),
    (["gallery", "--name", "identity:5"], "bad function spec 'identity:5'; expected identity"),
    (["gallery", "--name", "pole_series:12:7"],
     "bad function spec 'pole_series:12:7'; expected pole_series[:K]"),
    (["gallery", "--name", "pole_series:x"],
     "bad function spec 'pole_series:x'; expected pole_series[:K]"),
    (["gallery", "--name", "constant:1,2:3"],
     "bad function spec 'constant:1,2:3'; expected constant[:c]"),
    (["gallery", "--name", "automorphism:2"],
     "bad function spec 'automorphism:2'; expected automorphism[:w]"),
    (["decay", "--function", "saginjan_h", "--curve", "radius:0", "--profile", "log:2:1:7"],
     "bad profile spec 'log:2:1:7'; expected log[:shift[:e]]"),
    (["decay", "--function", "saginjan_h", "--curve", "radius:0",
      "--profile", "log:0.3:inf:x"], "bad profile spec 'log:0.3:inf:x'; expected log"),
    (["decay", "--function", "saginjan_h", "--curve", "radius:0", "--profile", "pow:inf"],
     "bad profile spec 'pow:inf'; expected pow:s[:e]"),
    (["decay", "--function", "saginjan_h", "--curve", "radius:0", "--profile", "pow"],
     "bad profile spec 'pow'; expected pow:s[:e]"),
    (["decay", "--function", "saginjan_h", "--curve", "radius:0", "--profile", "log:-1"],
     "bad profile spec 'log:-1': log profile needs shift > -1, got -1"),
    (["cluster", "--function", "identity", "--region", "radius-angle:0.5:0:9"],
     "bad region spec 'radius-angle:0.5:0:9'; expected radius-angle:R[:theta]"),
    (["cluster", "--function", "identity", "--region", "radius-angle:0.5:nan"],
     "bad region spec 'radius-angle:0.5:nan'; expected radius-angle:R[:theta]"),
    (["cluster", "--function", "identity", "--region", "radius-angle:0.5:inf"],
     "bad region spec 'radius-angle:0.5:inf'; expected radius-angle:R[:theta]"),
    (["cluster", "--function", "identity", "--region", "radius-angle:2"],
     "bad region spec 'radius-angle:2': pseudo-hyperbolic radius 2.0 not in [0, 1)"),
    (["pseq", "--function", "identity", "--mode", "pointwise", "--sequence", "radial:2:3"],
     "bad sequence spec 'radial:2:3'; expected radial[:N]"),
]


class TestExitCodes:
    def test_unknown_subcommand(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(["no-such-command"], tmp_path)
        assert exc.value.code == 2

    def test_equiv_not_equivalent_is_4(self, tmp_path):
        code = run(["equiv", "--curve1", "radius:0", "--curve2", "horocycle:0",
                    "--max-level", "12"], tmp_path)
        assert code == 4

    def test_equiv_inconclusive_is_3(self, tmp_path):
        code = run(["equiv", "--curve1", "radius:0", "--curve2", "horocycle:0",
                    "--max-level", "4"], tmp_path)
        assert code == 3

    def test_equiv_equivalent_is_0(self, tmp_path):
        code = run(["equiv", "--curve1", "radius:0", "--curve2",
                    "chord:0:0.5236", "--max-level", "10"], tmp_path)
        assert code == 0

    def test_endpoint_mismatch_is_2(self, tmp_path):
        code = run(["equiv", "--curve1", "radius:0", "--curve2", "radius:1"],
                   tmp_path)
        assert code == 2

    def test_decay_violated_is_4(self, tmp_path):
        code = run(["decay", "--function", "saginjan_h", "--curve", "radius:0",
                    "--profile", "log:1", "--level", "10"], tmp_path)
        assert code == 4

    def test_decay_satisfied_is_0(self, tmp_path):
        code = run(["decay", "--function", "square_exp", "--curve", "radius:0",
                    "--profile", "super:1", "--level", "10"], tmp_path)
        assert code == 0

    def test_set_tolerance_flag_is_rejected(self, tmp_path):
        # thresholds are fixed module constants; no override is accepted
        with pytest.raises(SystemExit) as exc:
            run(["--set-tolerance", "algebraic=1e-13", "metric",
                 "--kind", "ph", "--z", "0,0", "--w", "0.5,0"], tmp_path)
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv,option", [
        (["--format", "csv"], "--format"),
        (["--config", "run.cfg"], "--config"),
        (["--set-tolerance", "x=1"], "--set-tolerance"),
        (["--seed", "5", "--bogus", "x"], "--bogus"),
    ], ids=["format", "config", "set-tolerance", "after-a-known-option"])
    def test_unknown_global_option_is_named(self, tmp_path, capsys, argv, option):
        with pytest.raises(SystemExit) as exc:
            run(argv + ["metric", "--kind", "ph", "--z", "0,0", "--w", "0.5,0"],
                tmp_path)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"error: unrecognized arguments: {option}\n" in err
        assert "invalid choice" not in err and "Traceback" not in err
        assert not os.listdir(tmp_path)

    @pytest.mark.parametrize("argv,message", [
        (["stolz-map", "--alpha", "0.5", "--grid", "0"], "--grid must be >= 1, got 0"),
        (["lemma6", "--alpha", "0.5", "--beta", "0.3", "--samples", "0"],
         "--samples must be >= 1, got 0"),
    ], ids=["stolz-map-grid", "lemma6-samples"])
    def test_zero_count_is_2(self, tmp_path, capsys, argv, message):
        assert run(argv, tmp_path) == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not os.listdir(tmp_path)

    @pytest.mark.parametrize("mode,sequence,message", [
        ("split-pair", "poles:0", "bad sequence spec 'poles:0'; expected poles[:N]"),
        ("split-pair", "radial:8", "split-pair takes --sequence poles:N, got 'radial:8'"),
        ("split-pair", "nonsense:8", "bad sequence spec 'nonsense:8'; expected radial[:N] | "
         "poles[:N] | pole-adjacent[:N] | pole-offset[:N]"),
        ("pointwise", "poles:30", "sequence 'poles:30' asks for 30 poles; the schedule has 20"),
        ("local-sup", "pole-offset:21", "asks for 21 poles; the schedule has 20"),
        ("pointwise", "radial:0", "bad sequence spec 'radial:0'; expected radial[:N]"),
        ("pointwise", "poles:x", "bad sequence spec 'poles:x'; expected poles[:N]"),
    ], ids=["split-pair-zero", "split-pair-radial", "split-pair-unknown-kind",
            "too-many-poles", "too-many-offset-poles", "radial-zero", "count-not-integer"])
    def test_bad_sequence_spec_is_2(self, tmp_path, capsys, mode, sequence, message):
        assert run(["pseq", "--function", "identity", "--mode", mode,
                    "--sequence", sequence], tmp_path) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not os.listdir(tmp_path)

    @pytest.mark.parametrize("name", ["pole_series", "damped_pole_series"])
    def test_sequence_follows_the_function_poles(self, tmp_path, capsys, name):
        # the pole sequences come from the schedule of the function's K
        assert run(["pseq", "--function", f"{name}:10", "--mode", "pointwise",
                    "--sequence", "poles:20"], tmp_path) == 2
        assert ("error: sequence 'poles:20' asks for 20 poles; the schedule has 10"
                in capsys.readouterr().err)
        assert not os.listdir(tmp_path)
        assert run(["pseq", "--function", f"{name}:52", "--mode", "pointwise",
                    "--sequence", "poles:30"], tmp_path) == 0
        report = json.loads(latest_report(tmp_path, "pseq"))
        f = cli.parse_function(f"{name}:52")
        poles = fn.PoleSchedule.default(52).pole_points[:30]
        assert report["values"] == list(an.pseq_indicator_pointwise(f, poles).values)

    @pytest.mark.parametrize("mode", ["pointwise", "local-sup", "split-pair"])
    def test_twenty_poles_are_accepted(self, tmp_path, mode):
        assert run(["pseq", "--function", "pole_series", "--mode", mode,
                    "--sequence", "poles:20"], tmp_path) == 0
        report = json.loads(latest_report(tmp_path, "pseq"))
        assert len(report["values"]) == 20

    @pytest.mark.parametrize("mode", ["pointwise", "local-sup"])
    @pytest.mark.parametrize("option,value", [("--alpha", "0.3,0"), ("--delta", "0.9")])
    def test_split_pair_options_are_refused_elsewhere(self, tmp_path, capsys, mode,
                                                      option, value):
        assert run(["pseq", "--function", "identity", "--mode", mode,
                    option, value], tmp_path) == 2
        assert f"error: pseq --mode {mode} does not read {option}\n" in \
            capsys.readouterr().err
        assert not os.listdir(tmp_path)

    def test_split_pair_reads_delta(self, tmp_path):
        for delta in (None, "0.5", "0.9"):
            extra = [] if delta is None else ["--delta", delta]
            assert run(["pseq", "--function", "pole_series", "--mode", "split-pair",
                        "--sequence", "poles:4", *extra], tmp_path) == 0
            report = json.loads(latest_report(tmp_path, "pseq"))
            assert report["arguments"]["delta"] == report["details"]["delta"] == \
                float(delta or cli.PSEQ_DELTA)

    @pytest.mark.parametrize("argv,message", [
        (["cluster", "--function", "identity", "--region", "radius-angle"],
         "bad region spec 'radius-angle'; expected radius-angle:R[:theta]"),
        (["cluster", "--function", "identity", "--region", "radius-angle:0.4",
          "--shells", "8:2"], "empty shell range '8:2'"),
        (["family", "--function", "identity", "--target", "1,0",
          "--depths", "5:1"], "empty depth range '5:1'"),
        (["cluster", "--function", "identity", "--region", "radius-angle:0.4",
          "--shells", "2"], "bad shell range '2'; expected lo:hi"),
        (["family", "--function", "identity", "--target", "1,0",
          "--depths", "a:b"], "bad depth range 'a:b'; expected lo:hi"),
    ], ids=["region-without-radius", "empty-shells", "empty-depths",
            "shells-without-colon", "depths-not-integers"])
    def test_bad_range_or_region_is_2(self, tmp_path, capsys, argv, message):
        assert run(argv, tmp_path) == 2
        assert f"error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,message", [
        pytest.param(argv, message, id=message.split("'")[1])
        for argv, message in MALFORMED_SPECS])
    def test_malformed_spec_is_2(self, tmp_path, capsys, argv, message):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(argv, tmp_path) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and "Traceback" not in err
        assert not caught
        assert not os.listdir(tmp_path)

    @pytest.mark.parametrize("sub", ["curve-dist", "frechet"])
    def test_curve_file_with_nan_endpoint_is_2(self, tmp_path, capsys, sub):
        # it used to exit 0 and print nan distances with a RuntimeWarning
        curve = tmp_path / "nan-end.json"
        curve.write_text(json.dumps({"endpoint_angle": math.nan,
                                     "samples": [[0.5, 0], [0.9, 0]]}))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run([sub, "--curve1", f"@{curve}", "--curve2", "radius:0",
                        "--level", "3"], tmp_path) == 2
        assert capsys.readouterr().err == \
            "error: malformed curve exchange payload: endpoint_angle nan is not finite\n"
        assert not caught
        assert os.listdir(tmp_path) == ["nan-end.json"]

    @pytest.mark.parametrize("payload", [
        None, {"samples": []}, {"endpoint_angle": 0.0},
        {"endpoint_angle": 0.0, "samples": [[0.1, 0.0, 0.2]]},
    ], ids=["missing-curve-file", "payload-without-angle",
            "payload-without-samples", "malformed-sample-pair"])
    def test_missing_or_malformed_curve_file_is_2(self, tmp_path, capsys, payload):
        curve = tmp_path / "curve.json"
        if payload is not None:
            curve.write_text(json.dumps(payload))
        assert run(["frechet", "--curve1", "radius:0", "--curve2", f"@{curve}"],
                   tmp_path) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert not [p for p in os.listdir(tmp_path) if p.startswith("frechet")]

    @pytest.mark.parametrize("sample,code", [
        ([1.5, 0.0], 2), ([0.0, -1.0], 2), ([0.5, 0.0], 0),
    ], ids=["outside-disk", "on-circle", "inside-disk"])
    def test_curve_file_samples_must_lie_in_disk(self, tmp_path, capsys, sample, code):
        curve = tmp_path / "curve.json"
        curve.write_text(json.dumps({"endpoint_angle": 0.0, "samples": [sample]}))
        assert run(["frechet", "--curve1", "radius:0", "--curve2", f"@{curve}",
                    "--level", "6"], tmp_path) == code
        err = capsys.readouterr().err
        if code == 2:
            assert err.startswith("error: curve sample 0 has |z| = 1")
            assert not [p for p in os.listdir(tmp_path) if p.startswith("frechet")]
        else:
            assert "error" not in err

    @pytest.mark.parametrize("argv", [
        ["frechet", "--curve1", "radius:0", "--curve2", "hypercycle:0:0.5",
         "--level", "0"],
        ["curve-dist", "--curve1", "radius:0", "--curve2", "hypercycle:0:0.5",
         "--level", "0"],
        ["decay", "--function", "square_exp", "--curve", "radius:0",
         "--profile", "super:1", "--level", "0"],
        ["equiv", "--curve1", "radius:0", "--curve2", "hypercycle:0:0.5",
         "--max-level", "0"],
        ["normality", "--function", "identity", "--curve", "radius:0",
         "--deflection", "0.3", "--max-level", "0"],
    ], ids=["frechet", "curve-dist", "decay", "equiv", "normality"])
    def test_level_below_one_is_2(self, tmp_path, capsys, argv):
        assert run(argv, tmp_path) == 2
        assert "error: " in capsys.readouterr().err
        assert not os.listdir(tmp_path)

    def test_global_max_level_is_unrecognized(self, tmp_path, capsys):
        # a level is an option of the subcommand that reads it
        with pytest.raises(SystemExit) as exc:
            run(["--max-level", "6", "frechet", "--curve1", "radius:0",
                 "--curve2", "chord:0:0.5"], tmp_path)
        assert exc.value.code == 2
        assert "error: unrecognized arguments: --max-level\n" in capsys.readouterr().err
        assert not os.listdir(tmp_path)

    @pytest.mark.parametrize("argv", [
        ["metric", "--kind", "ph", "--z", "nan,0", "--w", "0,0"],
        ["family", "--function", "identity", "--target", "nan,0"],
        ["gallery", "--name", "identity", "--at", "0,nan"],
    ], ids=["metric-z", "family-target", "gallery-at"])
    def test_nan_point_is_2(self, tmp_path, capsys, argv):
        assert run(argv, tmp_path) == 2
        assert "NaN is not a point" in capsys.readouterr().err
        assert not os.listdir(tmp_path)

    @pytest.mark.parametrize("name", ["pole_series", "damped_pole_series"])
    def test_pole_series_needs_ten_poles(self, tmp_path, capsys, name):
        assert run(["gallery", "--name", f"{name}:8", "--at", "0.2,0.1"], tmp_path) == 2
        assert (f"error: bad function spec '{name}:8': pole schedule needs K >= 10, got K = 8"
                in capsys.readouterr().err)
        assert not os.listdir(tmp_path)
        assert run(["gallery", "--name", f"{name}:10", "--at", "0.2,0.1"], tmp_path) == 0

    @pytest.mark.parametrize("k", [53, 56, 60])
    @pytest.mark.parametrize("name", ["pole_series", "damped_pole_series"])
    def test_pole_series_refuses_more_than_52_poles(self, tmp_path, capsys, name, k):
        # 53-55 used to fail a schedule check, 56 and up a numpy reduction
        assert run(["gallery", "--name", f"{name}:{k}", "--at", "0.5,0"], tmp_path) == 2
        assert (f"error: bad function spec '{name}:{k}': pole schedule needs K <= 52, "
                f"got K = {k}") in capsys.readouterr().err
        assert not os.listdir(tmp_path)

    @pytest.mark.parametrize("name", ["pole_series", "damped_pole_series"])
    def test_pole_series_takes_52_poles(self, tmp_path, name):
        assert run(["gallery", "--name", f"{name}:52", "--at", "0.5,0"], tmp_path) == 0

    def test_level_past_double_precision_is_2(self, tmp_path, capsys):
        argv = ["frechet", "--curve1", "radius:0", "--curve2", "chord:0:0.5", "--level"]
        assert run(argv + ["53"], tmp_path) == 0
        assert run(argv + ["54"], tmp_path) == 2
        err = capsys.readouterr().err
        assert ("error: curve chord:0:0.5 at level 54: depth 2^-54 is below "
                "what complex-double samples resolve") in err

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

    def test_json_report_written(self, tmp_path):
        run(["metric", "--kind", "h", "--z", "0,0", "--w", "0.5,0"], tmp_path)
        payload = json.loads(latest_report(tmp_path, "metric"))
        assert payload["subcommand"] == "metric"
        assert payload["value"] == pytest.approx(math.log(3.0))
        assert "seed" in payload

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

    def test_sphere_points_are_pairs_or_infinity(self, tmp_path):
        run(["metric", "--kind", "s", "--z", "inf", "--w", "0.5,0"], tmp_path)
        payload = json.loads(latest_report(tmp_path, "metric"))
        assert payload["z"] == "infinity" and payload["w"] == [0.5, 0.0]
        run(["gallery", "--name", "gavrilov_g", "--at", "0.999,0"], tmp_path)
        payload = json.loads(latest_report(tmp_path, "gallery"))
        assert payload["values"] == [
            {"z": [0.999, 0.0], "value": [0.0, 0.0], "saturated": True}]

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
        with pytest.raises(SystemExit) as exc:
            cli.main(["-h"])
        assert exc.value.code == 0
        lines = capsys.readouterr().out.splitlines()
        for name in SUBCOMMAND_NAMES:
            help_text = cli.SUBCOMMANDS[name][0]
            assert any(line.split() == [name, *help_text.split()] for line in lines), name

    @pytest.mark.parametrize("name", SUBCOMMAND_NAMES)
    def test_subcommand_help(self, capsys, name):
        with pytest.raises(SystemExit) as exc:
            cli.main([name, "-h"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: pblab {name} [-h]")

    def test_subcommand_usage_error_names_it(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["metric", "--kind", "ph", "--z", "0,0", "--w", "0.5,0", "--bogus"],
                tmp_path)
        assert exc.value.code == 2
        assert "pblab metric: error: unrecognized arguments: --bogus\n" in \
            capsys.readouterr().err

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
    def test_seed_flag(self, tmp_path):
        cluster = ["cluster", "--function", "identity", "--region", "radius-angle:0.4",
                   "--shells", "2:4", "--no-values"]
        assert run(["--seed", "9", *cluster], tmp_path) == 0
        payload = json.loads(latest_report(tmp_path, "cluster"))
        assert payload["seed"] == payload["arguments"]["seed"] == 9
        # without --seed, and on subcommands that draw no sample, the default
        assert run(cluster, tmp_path) == 0
        payload = json.loads(latest_report(tmp_path, "cluster"))
        assert payload["seed"] == sft.DEFAULT_SEED and "seed" not in payload["arguments"]
        assert run(["metric", "--kind", "ph", "--z", "0,0", "--w", "0.5,0"], tmp_path) == 0
        assert json.loads(latest_report(tmp_path, "metric"))["seed"] == sft.DEFAULT_SEED

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
    def test_gallery(self, tmp_path, capsys):
        code = run(["gallery", "--name", "saginjan_h", "--at", "0.5,0"], tmp_path)
        assert code == 0
        assert "0.13533" in capsys.readouterr().out

    def test_gallery_unknown_name(self, tmp_path):
        assert run(["gallery", "--name", "mystery"], tmp_path) == 2

    def test_stolz_map_point(self, tmp_path, capsys):
        code = run(["stolz-map", "--alpha", "0.7853981633974483",
                    "--z", "0.5,0"], tmp_path)
        assert code == 0

    def test_stolz_map_point_rejects_grid(self, tmp_path, capsys):
        assert run(["stolz-map", "--alpha", "0.5", "--z", "0.5,0", "--grid", "5"],
                   tmp_path) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "--z" in err and "--grid" in err
        assert not os.listdir(tmp_path)

    def test_stolz_map_point_rejects_seed(self, tmp_path, capsys):
        # one mapped point draws no sample
        assert run(["--seed", "4", "stolz-map", "--alpha", "0.5", "--z", "0.5,0"],
                   tmp_path) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "--z" in err and "--seed" in err
        assert not os.listdir(tmp_path)

    def test_stolz_map_echoes_grid_in_grid_mode_only(self, tmp_path):
        assert run(["stolz-map", "--alpha", "0.5"], tmp_path) == 0
        payload = json.loads(latest_report(tmp_path, "stolz-map"))
        assert payload["arguments"]["grid"] == payload["samples"] == cli.STOLZ_GRID == 1000
        assert run(["stolz-map", "--alpha", "0.5", "--z", "0.5,0"], tmp_path) == 0
        assert "grid" not in json.loads(latest_report(tmp_path, "stolz-map"))["arguments"]

    def test_damped_pole_pointwise_warns_nothing(self, tmp_path):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["pseq", "--function", "damped_pole_series",
                        "--mode", "pointwise"], tmp_path) == 0

    def test_bad_decay_profile_warns_nothing(self, tmp_path, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["decay", "--function", "saginjan_h", "--curve", "radius:0",
                        "--profile", "log:-5", "--level", "4"], tmp_path) == 2
        assert capsys.readouterr().err.startswith("error: bad profile spec 'log:-5'")

    def test_stolz_map_outside_domain(self, tmp_path):
        assert run(["stolz-map", "--alpha", "0.5", "--z", "0,0.9"], tmp_path) == 2

    def test_stolz_map_has_no_radius_option(self, tmp_path, capsys):
        # the radius follows from --alpha, so an out-of-range alpha cannot
        # slip past rho_of_alpha's check
        with pytest.raises(SystemExit) as exc:
            run(["stolz-map", "--alpha", "3", "--rho", "0.5", "--grid", "10"], tmp_path)
        assert exc.value.code == 2
        assert "unrecognized arguments: --rho" in capsys.readouterr().err
        assert not os.listdir(tmp_path)

    def test_lemma6_pass(self, tmp_path):
        assert run(["lemma6", "--alpha", "0.7853981633974483",
                    "--beta", "0.5235987755982988", "--samples", "4000"],
                   tmp_path) == 0

    def test_pseq_local_sup(self, tmp_path, capsys):
        code = run(["pseq", "--function", "pole_series", "--mode", "local-sup",
                    "--sequence", "poles:8"], tmp_path)
        assert code == 0
        assert "diverging" in capsys.readouterr().out

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

    def test_family(self, tmp_path):
        assert run(["family", "--function", "identity", "--target", "1,0",
                    "--r1", "0.9", "--depths", "1:16"], tmp_path) == 0
        assert run(["family", "--function", "identity", "--target", "0,0",
                    "--r1", "0.5", "--depths", "1:8"], tmp_path) == 4


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
