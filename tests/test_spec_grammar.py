"""The spec grammar: `cli.parse_spec` over the CLI's five tables.

Every well-formed spec that the README, the CLI contract table in
tests/test_cli.py and the `frechet_curves` benchmark catalogue use, and every
kind at its shortest and longest arity, must build the same object as the
hand parsers the grammar replaced (kept unchanged in tests/reference.py),
compared as float.hex.  The demos build their curves and functions directly
and use no spec.  A derandomised fuzz runs specs drawn from the tables
through cheap subcommands: each run must exit 0, 2, 3 or 4, without an
exception or a RuntimeWarning.
"""

import contextlib
import io
import math
import re
import runpy
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hs

import reference
from test_cli import ROWS
from poincare_boundary_lab import cli
from poincare_boundary_lab import curves as cv

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")

TABLES = {"CURVES": "curve", "FUNCTIONS": "function", "PROFILES": "profile",
          "REGIONS": "region", "SEQUENCES": "sequence"}
# the options whose value is a spec, and the table that reads it
SPEC_OPTIONS = {"--curve": "CURVES", "--curve1": "CURVES", "--curve2": "CURVES",
                "--function": "FUNCTIONS", "--name": "FUNCTIONS",
                "--profile": "PROFILES", "--region": "REGIONS", "--sequence": "SEQUENCES"}
KIND_TABLE = {kind: table for table in TABLES for kind in getattr(cli, table)}


def _catalogue() -> list[str]:
    workloads = runpy.run_path(str(ROOT / "perfbench" / "workloads.py"))
    return workloads["catalogue"]("frechet_curves")


def _used_specs() -> list[tuple[str, str]]:
    """(table, spec) for every spec of a README example, of a contract row
    that is expected to run (exit 0, 3 or 4), of the README text and of the
    frechet_curves catalogue, and the default --sequence."""
    commands = [line[len("pblab "):] for line in README.splitlines()
                if line.startswith("pblab ")]
    commands += [row.argv for row in ROWS if row.code in (0, 3, 4)]
    commands += _catalogue()
    found = {("SEQUENCES", "poles:8")}
    for command in commands:
        words = command.split()
        found |= {(SPEC_OPTIONS[opt], value) for opt, value in zip(words, words[1:])
                  if opt in SPEC_OPTIONS and not value.startswith(("@", '"'))}
    for token in re.findall(r"`([a-z_-]+(?::[-0-9.,e]+)*)`", README):
        if token.split(":")[0] in KIND_TABLE:
            found.add((KIND_TABLE[token.split(":")[0]], token))
    return sorted(found)


# each kind at its shortest and its longest arity
ARITY_SPECS = {
    "CURVES": ["radius:0.3", "chord:0.3:0.5", "hypercycle:0.3:-0.4", "horocycle:0.3",
               "horocycle:0.3:-1"],
    "FUNCTIONS": ["identity", "constant", "constant:1.5,-2", "automorphism",
                  "automorphism:0.2,-0.1", "gavrilov_g", "saginjan_h", "square_exp",
                  "pole_series", "pole_series:12", "damped_pole_series",
                  "damped_pole_series:52"],
    "PROFILES": ["log", "log:2", "log:2:1.5", "pow:0.5", "pow:0.5:2", "super:3"],
    "REGIONS": ["radius-angle:0.4", "radius-angle:0.4:0.7"],
    "SEQUENCES": ["radial", "radial:5", "poles", "poles:12", "pole-adjacent",
                  "pole-adjacent:3", "pole-offset", "pole-offset:20"],
}

Z = np.array([0.0, 0.5, -0.3 + 0.4j, 0.9 + 0.1j, 0.2 - 0.7j, 0.999, 0.5j])
T = np.logspace(-6, 0, 13)
_rng = np.random.default_rng(0)
REGION_POINTS = np.sqrt(_rng.uniform(0.0, 1.0, 400)) * np.exp(
    1j * _rng.uniform(-math.pi, math.pi, 400))


def _hex(values) -> list:
    a = np.asarray(values).ravel()
    if np.iscomplexobj(a):
        return [(float(v.real).hex(), float(v.imag).hex()) for v in a]
    return [float(v).hex() for v in a]


def _compared(table: str, built):
    """What two builds of a spec must agree on."""
    if table == "CURVES":
        s, t = built.strip_refine(8)
        return built.label, built.endpoint_angle.hex(), _hex(s), _hex(t)
    if table == "FUNCTIONS":
        with np.errstate(all="ignore"):
            return built.label, _hex(built.eval_array(Z)), _hex(built.sph_array(Z))
    if table == "PROFILES":
        return built.name, built.exponent.hex(), _hex(built.bound(T))
    if table == "REGIONS":
        contains, theta = built
        return theta.hex(), contains(REGION_POINTS).tolist()
    return built  # a sequence is (kind, N)


def _build_new(table: str, spec: str):
    if table == "CURVES":
        return cli.parse_curve(spec)
    if table == "FUNCTIONS":
        return cli.parse_function(spec)
    return cli.parse_spec(getattr(cli, table), TABLES[table], spec)


def _build_reference(table: str, spec: str):
    if table == "CURVES":
        return reference.parse_curve(spec)
    if table == "FUNCTIONS":
        return reference.parse_function(spec)
    if table == "PROFILES":
        return reference.parse_profile(spec)
    if table == "REGIONS":
        return reference._parse_region(spec)
    return reference._parse_sequence(spec, 10**6)  # the pole count is checked apart


USED = _used_specs()
ARITY = [(table, spec) for table, specs in ARITY_SPECS.items() for spec in specs]
SAME_BUILD = sorted(set(USED) | set(ARITY))


class TestSameBuild:
    def test_every_source_gives_specs(self):
        tables = {table for table, _ in USED}
        assert tables == set(TABLES)
        # the catalogue's curves: two angles, both horocycle sides
        assert {"horocycle:2.5:-1", "chord:0:-0.4", "hypercycle:2.5:-0.3"} <= \
            {spec for _, spec in USED}

    @pytest.mark.parametrize("table,spec", SAME_BUILD,
                             ids=[f"{t}-{s}" for t, s in SAME_BUILD])
    def test_same_as_the_hand_parsers(self, table, spec):
        assert _compared(table, _build_new(table, spec)) == \
            _compared(table, _build_reference(table, spec))

    @pytest.mark.parametrize("table", TABLES)
    def test_arity_list_has_every_kind_at_both_ends(self, table):
        for kind, (usage, parsers, _) in getattr(cli, table).items():
            arities = {spec.count(":") for spec in ARITY_SPECS[table]
                       if spec.split(":")[0] == kind}
            assert {usage.partition("[")[0].count(":"), len(parsers)} <= arities, kind


def _samples_or_refusal(curve):
    try:
        s, t = curve.strip_refine(4)
    except ValueError as exc:  # over the sample budget, which names the label
        return str(exc)
    return _hex(s), _hex(t)


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(hs.sampled_from(["radius", "chord", "hypercycle", "horocycle"]),
       hs.floats(-4.0, 4.0), hs.floats(-0.9999999999, 0.9999999999))
# `:g` named these hypercycle:0:1, chord:0.523599:0.3 and horocycle:0.523599,
# which do not parse back
@example("hypercycle", 0.0, 0.99999999)
@example("chord", math.pi / 6, 0.3)
@example("horocycle", math.pi / 6, 0.0)
def test_curve_label_parses_back(kind, theta, p):
    # a horocycle's label names no side, so it is drawn on side 1
    parameter = {"radius": None, "chord": 1.5 * p, "hypercycle": p, "horocycle": None}[kind]
    try:
        built = cv.canonical_curve(kind, theta, parameter)
    except ValueError:  # an offset whose arclength step rounds to 0
        return
    again = cli.parse_spec(cli.CURVES, "curve", built.label)
    assert again.label == built.label
    assert again.endpoint_angle.hex() == built.endpoint_angle.hex()
    assert getattr(again, "t0", 0.0).hex() == getattr(built, "t0", 0.0).hex()
    assert _samples_or_refusal(again) == _samples_or_refusal(built)


# the point a function is compared at: inside, near the boundary, near 1
_LABEL_POINTS = np.array([0.0, 0.5, -0.3 + 0.4j, 0.9 + 0.05j, 0.999, 1.0 - 1e-9j])


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(hs.sampled_from(sorted(cli.FUNCTIONS)), hs.complex_numbers(allow_nan=False),
       hs.complex_numbers(max_magnitude=0.99, allow_nan=False),
       hs.integers(10, 52))
# str() named these constant:(1+2j), automorphism:(0.3+0j) and
# pole-series:K=20, which do not parse back
@example("constant", 1 + 2j, 0j, 10)
@example("automorphism", 0j, 0.3 + 0j, 10)
@example("pole_series", 0j, 0j, 20)
@example("damped_pole_series", 0j, 0j, 52)
@example("constant", complex(math.inf, -0.0), 0j, 10)
def test_function_label_parses_back(kind, c, w, k):
    fields = {"constant": f"{c.real!r},{c.imag!r}", "automorphism": f"{w.real!r},{w.imag!r}",
              "pole_series": str(k), "damped_pole_series": str(k)}
    built = cli.parse_function(f"{kind}:{fields[kind]}" if kind in fields else kind)
    again = cli.parse_function(built.label)
    assert again.label == built.label
    for method in ("eval_array", "sph_array"):
        with np.errstate(all="ignore"):
            assert getattr(again, method)(_LABEL_POINTS).tobytes() == \
                getattr(built, method)(_LABEL_POINTS).tobytes()


class TestTables:
    @pytest.mark.parametrize("table", TABLES)
    def test_readme_names_every_usage(self, table):
        missing = [usage for usage, _, _ in getattr(cli, table).values()
                   if f"`{usage}`" not in README]
        assert not missing

    @pytest.mark.parametrize("sub,dest,table", [("decay", "profile", "PROFILES"),
                                                ("cluster", "region", "REGIONS")])
    def test_help_comes_from_the_table(self, sub, dest, table):
        action = next(a for a in cli.build_parser(sub)._actions if a.dest == dest)
        assert action.help == " | ".join(row[0] for row in getattr(cli, table).values())

    def test_usage_names_its_kind(self):
        for table in TABLES:
            for kind, (usage, _, _) in getattr(cli, table).items():
                assert re.match(rf"{re.escape(kind)}(\[?:|$)", usage), usage

    def test_unknown_kind_lists_every_usage(self):
        with pytest.raises(cli.CliError) as exc:
            cli.parse_function("mystery:1")
        assert str(exc.value) == ("bad function spec 'mystery:1'; expected " + " | ".join(
            usage for usage, _, _ in cli.FUNCTIONS.values()))


# ---------------------------------------------------------------------------
# fuzz

FIELD_ALPHABET = ["", "0", "-1", "0.5", "2", "x", "nan", "inf", "1e400", "0.3,0", "12"]
# a cheap subcommand that reads one spec of each table, at SPEC
FUZZ_RUNS = {
    "CURVES": ["curve-dist", "--curve1", "SPEC", "--curve2", "SPEC", "--level", "2"],
    "FUNCTIONS": ["gallery", "--name", "SPEC", "--at", "0.5,0"],
    "PROFILES": ["decay", "--function", "saginjan_h", "--curve", "radius:0",
                 "--profile", "SPEC", "--level", "2"],
    "REGIONS": ["cluster", "--function", "identity", "--region", "SPEC",
                "--shells", "2:2", "--no-values"],
    "SEQUENCES": ["pseq", "--function", "identity", "--mode", "pointwise",
                  "--sequence", "SPEC"],
}


def _fuzz_argv(table: str, spec: str) -> list[str]:
    return ["--no-report", *(spec if a == "SPEC" else a for a in FUZZ_RUNS[table])]


@hs.composite
def fuzz_runs(draw):
    table = draw(hs.sampled_from(sorted(FUZZ_RUNS)))
    kind = draw(hs.sampled_from([*getattr(cli, table), "bogus"]))
    fields = draw(hs.lists(hs.sampled_from(FIELD_ALPHABET), max_size=3))
    return _fuzz_argv(table, ":".join([kind, *fields]))


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(fuzz_runs())
# runs that exited 0 or 2 with a RuntimeWarning before the grammar
@example(_fuzz_argv("PROFILES", "log:0.3:inf:x"))
@example(_fuzz_argv("PROFILES", "pow:inf"))
@example(_fuzz_argv("PROFILES", "log:-1"))
@example(_fuzz_argv("REGIONS", "radius-angle:0.5:inf"))
def test_fuzz_specs_exit_cleanly(argv):
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = cli.main(argv)
    assert code in (0, 2, 3, 4), err.getvalue()
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], \
        [str(w.message) for w in caught]
    assert "Traceback" not in err.getvalue()
