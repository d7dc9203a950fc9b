"""Batch command-line front end: every operation behind one subcommand,
emitting deterministic machine-readable reports.

Exit codes: 0 success, 2 invalid arguments, 3 evaluation failure or an
inconclusive verdict, 4 a check that is not satisfied.  VERDICT_EXIT maps
every verdict the library returns to its code; lemma4, lemma6 and selftest
exit 4 when their check fails.

Reports carry the seed and the arguments but no wall-clock data, so repeated
runs with the same seed are byte-identical; the timestamp only names the file.
Only the SEEDED subcommands accept --seed; the others report the default seed.
Each level option belongs to its subcommand and defaults to DEFAULT_LEVEL.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import os
import re
import sys
import time

import numpy as np

from . import analysis as an
from . import curves as cv
from . import functions as fn
from . import geometry as ge
from . import selftest as sft
from . import stolz as st

OUTPUT_DIR_ENV = "PBLAB_OUTPUT_DIR"
DEFAULT_LEVEL = 12  # the level of a subcommand run without its level option


class CliError(ValueError):
    pass


def _positive(value: int, name: str) -> int:
    if value < 1:
        raise CliError(f"{name} must be >= 1, got {value}")
    return value


def _level(value) -> int:
    """A subcommand's level option, or DEFAULT_LEVEL when it is absent."""
    return _positive(DEFAULT_LEVEL if value is None else value, "level")


def _seed(args) -> int:
    return sft.DEFAULT_SEED if args.seed is None else args.seed


# ---------------------------------------------------------------------------
# argument grammars


def parse_complex(text: str) -> complex:
    if text.strip().lower() in ("inf", "infinity"):
        return complex(math.inf, 0.0)
    parts = text.split(",")
    if len(parts) != 2:
        raise CliError(f"bad complex {text!r}; expected re,im")
    v = complex(float(parts[0]), float(parts[1]))
    if cmath.isnan(v):
        raise CliError(f"bad complex {text!r}; NaN is not a point")
    return v


def parse_curve(spec: str) -> cv.BoundaryCurve:
    """kind:theta[:param], or @path to a curve exchange JSON file."""
    if spec.startswith("@"):
        with open(spec[1:], "r", encoding="utf-8") as f:
            return cv.curve_from_exchange(json.load(f))
    parts = spec.split(":")
    kind = parts[0]
    if kind not in ("radius", "chord", "hypercycle", "horocycle"):
        raise CliError(f"unknown curve kind {kind!r}")
    if len(parts) < 2:
        raise CliError(f"curve spec {spec!r} needs kind:theta[:param]")
    theta = float(parts[1])
    param = float(parts[2]) if len(parts) > 2 else None
    return cv.canonical_curve(kind, theta, param)


def parse_function(spec: str) -> fn.FunctionHandle:
    parts = spec.split(":")
    name = parts[0]
    if name == "identity":
        return fn.identity_function()
    if name == "constant":
        return fn.constant_function(parse_complex(parts[1]) if len(parts) > 1 else 0.0)
    if name == "automorphism":
        w = parse_complex(parts[1]) if len(parts) > 1 else 0.3 + 0.0j
        return fn.automorphism_function(ge.mobius_translation(w))
    if name in fn.gallery_names():
        return fn.gallery(name)
    if name in ("pole_series", "damped_pole_series"):
        k = int(parts[1]) if len(parts) > 1 else 20
        if k < 10:
            # PoleSchedule's own checks reject every schedule of 4 to 9 poles
            raise CliError(f"{name} needs K >= 10")
        return fn.RationalPoleFunction(fn.PoleSchedule.default(k),
                                       damped=name == "damped_pole_series")
    raise CliError(f"unknown function {spec!r}; gallery: {fn.gallery_names()}, "
                   f"also identity, constant:c, automorphism:w, "
                   f"pole_series[:K], damped_pole_series[:K]")


def parse_profile(spec: str) -> st.DecayProfile:
    parts = spec.split(":")
    kind = parts[0]
    try:
        if kind == "log":
            shift = float(parts[1]) if len(parts) > 1 else math.e
            expo = float(parts[2]) if len(parts) > 2 else 1.0
            return st.DecayProfile.log_form(shift, expo)
        if kind == "pow":
            s = float(parts[1])
            expo = float(parts[2]) if len(parts) > 2 else 1.0
            return st.DecayProfile.power_form(s, expo)
        if kind == "super":
            return st.DecayProfile.super_exponential(int(parts[1]))
    except (IndexError, ValueError) as exc:
        raise CliError(f"bad profile spec {spec!r}: {exc}") from None
    raise CliError(f"unknown profile kind {kind!r}; use log[:shift[:e]], "
                   f"pow:s[:e], super:n")


# ---------------------------------------------------------------------------
# report output


def _json_default(v):
    """How a report writes a point of the Riemann sphere: [re, im] when the
    complex is finite, "infinity" otherwise."""
    if isinstance(v, complex):
        return [v.real, v.imag] if cmath.isfinite(v) else "infinity"
    raise TypeError(f"{type(v).__name__} is not JSON serializable")


def write_report(output_dir: str, subcommand: str, report: dict) -> str:
    os.makedirs(output_dir, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime()) + f"{time.time_ns() % 1_000_000_000:09d}"
    path = os.path.join(output_dir, f"{subcommand}-{stamp}.json")
    payload = json.dumps(report, indent=2, sort_keys=True, default=_json_default) + "\n"
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as f:
        f.write(payload)
    os.replace(tmp, path)
    return path


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (exit_code, report_dict, stdout_text)

# indexed directly, so that a verdict missing here fails loudly
VERDICT_EXIT = {
    "inconclusive": 3,
    **dict.fromkeys(("not_equivalent", "no_convergence", "violated", "mixed"), 4),
    **dict.fromkeys(("equivalent", "bounded", "diverging", "positive", "negative",
                     "limit", "no_limit", "converges", "satisfied"), 0),
}


METRICS = {"ph": ge.pseudo_hyperbolic_distance, "h": ge.hyperbolic_distance,
           "s": ge.spherical_distance}


def cmd_metric(args):
    z = parse_complex(args.z)
    w = parse_complex(args.w)
    value = METRICS[args.kind](z, w)
    return 0, {"kind": args.kind, "z": z, "w": w, "value": value}, f"{value:.12g}"


def cmd_curve_dist(args):
    c1 = parse_curve(args.curve1)
    c2 = parse_curve(args.curve2)
    level = _level(args.level)
    fwd = cv.directed_curve_distance(c1, c2, level)
    bwd = cv.directed_curve_distance(c2, c1, level)
    rep = {"curve1": c1.label, "curve2": c2.label, "level": level,
           "forward": fwd, "backward": bwd}
    return 0, rep, f"forward {fwd:.6g}  backward {bwd:.6g}"


def cmd_frechet(args):
    c1 = parse_curve(args.curve1)
    c2 = parse_curve(args.curve2)
    level = _level(args.level)
    value = cv.curve_frechet(c1, c2, level)
    return 0, {"curve1": c1.label, "curve2": c2.label, "level": level,
               "value": value}, f"{value:.6g}"


def cmd_equiv(args):
    c1 = parse_curve(args.curve1)
    c2 = parse_curve(args.curve2)
    verdict = cv.are_equivalent(c1, c2, _level(args.max_level_local))
    rep = {"curve1": c1.label, "curve2": c2.label, **vars(verdict)}
    return VERDICT_EXIT[verdict.verdict], rep, verdict.verdict


def cmd_lemma4(args):
    values = []
    contained = True
    for n in range(1, args.n_zigzags + 1):
        g1, g2, mk = cv.build_zigzag_pair(args.r, n)
        values.append(cv.curve_frechet(g1, g2, cv.zigzag_truncation_level(mk)))
        contained &= cv.zigzag_contained(g2, mk)
    if not values:
        _, g2, mk = cv.build_zigzag_pair(args.r, args.n_zigzags)
    increasing = all(a < b for a, b in zip(values, values[1:]))
    exch = cv.curve_to_exchange(g2, DEFAULT_LEVEL)
    rep = {"r": args.r, "n_zigzags": args.n_zigzags, "markers": mk,
           "frechet_by_prefix": values, "contained": contained,
           "strictly_increasing": increasing, "curve2_exchange": exch}
    ok = contained and (increasing or not values)
    return (0 if ok else 4), rep, \
        f"frechet by prefix: {['%.3f' % v for v in values]} contained={contained}"


def cmd_normality(args):
    f = parse_function(args.function)
    curve = parse_curve(args.curve)
    region = cv.CurvilinearAngle(curve, args.deflection)
    rep = an.normality_sup(f, region, _level(args.max_level_local))
    return VERDICT_EXIT[rep.verdict], {**vars(rep), "function": f.label}, \
        f"verdict {rep.verdict}  sup[{rep.levels[-1]}]={rep.sups[-1]:.6g}"


PSEQ_DELTA = 0.5  # split-pair's separation along seq_b without --delta
SEQUENCE_KINDS = ("radial", "poles", "pole-adjacent", "pole-offset")


def _parse_sequence(spec: str, n_poles: int) -> tuple[str, int]:
    """kind[:N], N >= 1 (default 8); the pole kinds take at most the n_poles
    scheduled poles."""
    kind, colon, count = spec.partition(":")
    if kind not in SEQUENCE_KINDS or (colon and not count.isdecimal()):
        raise CliError(f"bad sequence spec {spec!r}; expected kind[:N] with kind in "
                       f"{', '.join(SEQUENCE_KINDS)}")
    n = _positive(int(count) if colon else 8, f"N of sequence {spec!r}")
    if kind != "radial" and n > n_poles:
        raise CliError(f"sequence {spec!r} asks for {n} poles; the schedule has {n_poles}")
    return kind, n


def _build_sequence(kind: str, n: int, sch: fn.PoleSchedule):
    if kind == "radial":
        return np.array([1.0 - 2.0 ** (-k) for k in range(1, n + 1)]), None
    if kind == "poles":
        return sch.pole_points[:n], sch.hyperbolic_diameters[:n]
    if kind == "pole-adjacent":
        return sch.pole_points[:n] + sch.radii[:n] ** 2 * 1e-3, None
    return sch.pole_points[:n] + sch.radii[:n], None


def cmd_pseq(args):
    if args.mode != "split-pair":
        for option in ("alpha", "delta"):
            if getattr(args, option) is not None:
                raise CliError(f"pseq --mode {args.mode} does not read --{option}")
    if args.delta is None:
        args.delta = PSEQ_DELTA  # reports echo delta in every mode
    sch = fn.PoleSchedule.default()
    f = parse_function(args.function)
    kind, n = _parse_sequence(args.sequence, len(sch.pole_points))
    if args.mode == "pointwise":
        seq, _ = _build_sequence(kind, n, sch)
        rep = an.pseq_indicator_pointwise(f, seq)
    elif args.mode == "local-sup":
        seq, radii = _build_sequence(kind, n, sch)
        if radii is None:
            radii = np.array([0.5 * 0.7 ** i for i in range(len(seq))])
        rep = an.pseq_indicator_local_sup(f, seq, radii)
    else:  # split-pair
        if kind != "poles":
            raise CliError(f"split-pair takes --sequence poles:N, got {args.sequence!r}")
        seq_a, _ = _build_sequence("pole-offset", n, sch)
        seq_b, _ = _build_sequence("pole-adjacent", n, sch)
        alpha = parse_complex(args.alpha) if args.alpha else \
            complex(f.eval_array(np.array([seq_a[-1]]))[0])
        rep = an.pseq_indicator_split_pair(f, seq_a, seq_b, alpha, args.delta)
    return VERDICT_EXIT[rep.verdict], {**vars(rep), "function": f.label}, \
        f"{args.mode}: {rep.verdict}"


def _parse_region(spec: str):
    parts = spec.split(":")
    if parts[0] != "radius-angle" or len(parts) < 2:
        raise CliError("region spec must be radius-angle:R[:theta]")
    r = float(parts[1])
    theta = float(parts[2]) if len(parts) > 2 else 0.0
    return an.radial_angle_membership(r, theta), theta


def _parse_range(spec: str, what: str) -> range:
    """lo:hi, both ends included; an empty range is an error."""
    try:
        lo, hi = (int(x) for x in spec.split(":"))
    except ValueError:
        raise CliError(f"bad {what} range {spec!r}; expected lo:hi") from None
    if lo > hi:
        raise CliError(f"empty {what} range {spec!r}; expected lo:hi with lo <= hi")
    return range(lo, hi + 1)


def cmd_cluster(args):
    f = parse_function(args.function)
    member, theta = _parse_region(args.region)
    rep = an.cluster_estimate(f, member, theta, _parse_range(args.shells, "shell"),
                              seed=_seed(args), record_values=not args.no_values)
    d = {**vars(rep), "function": f.label, "region": args.region}
    cand = rep.limit_candidate
    return VERDICT_EXIT[rep.verdict], d, (f"verdict {rep.verdict}  candidate "
                                          f"{cand if cand is None else _json_default(cand)}")


def cmd_family(args):
    f = parse_function(args.function)
    ws = [1.0 - 2.0 ** (-k) for k in _parse_range(args.depths, "depth")]
    target = parse_complex(args.target)
    rep = an.renormalized_family_check(f, ws, args.r1, target)
    final = rep.sup_ds[-1]
    return VERDICT_EXIT[rep.verdict], {**vars(rep), "function": f.label}, (
        f"verdict {rep.verdict}  final sup "
        f"{'none' if final is None else format(final, '.3e')}")


STOLZ_GRID = 1000  # stolz-map samples without --z


def cmd_stolz_map(args):
    m = st.StolzAngle(args.alpha)
    if args.z is not None:
        if args.grid is not None:
            raise CliError("--z maps one point and --grid samples the sector: give one of them")
        if args.seed is not None:
            raise CliError("--z maps one point and draws no sample: it does not read --seed")
        z = parse_complex(args.z)
        try:
            w = m.apply(z)
        except st.StolzMapDomainError as exc:
            raise CliError(str(exc)) from None
        back = m.invert(w)
        rep = {"alpha": args.alpha, "rho": m.rho, "z": z, "w": w,
               "roundtrip_error": abs(back - z)}
        return 0, rep, f"w = {w:.12g}"
    # written back, so that grid-mode reports echo the sample count in force
    args.grid = _positive(STOLZ_GRID if args.grid is None else args.grid, "--grid")
    z = m.sample(args.grid, seed=_seed(args), margin=1e-9)
    w = m.forward_steps(z)
    rt = float(np.max(np.abs(m.invert(w) - z)))
    closed = float(np.max(np.abs(w - m.closed_form(z))))
    rep = {"alpha": args.alpha, "rho": m.rho, "samples": args.grid,
           "max_roundtrip_error": rt, "max_closed_form_error": closed,
           "image_in_disk": bool(np.all(np.abs(w) < 1.0))}
    return 0, rep, f"roundtrip {rt:.2e}  closed-form {closed:.2e}"


def cmd_lemma6(args):
    m_hat, big_m, ok = st.stolz_distortion_bounds(
        args.alpha, args.beta, _positive(args.samples, "--samples"), seed=_seed(args))
    rep = {"alpha": args.alpha, "beta": args.beta, "samples": args.samples,
           "m": m_hat, "M": big_m, "holdout_pass": ok}
    return (0 if ok else 4), rep, f"m={m_hat:.6g} M={big_m:.6g} pass={ok}"


def cmd_decay(args):
    f = parse_function(args.function)
    curve = parse_curve(args.curve)
    profile = parse_profile(args.profile)
    rep = st.decay_margin(f, curve, profile, _level(args.level))
    d = {**vars(rep), "function": f.label, "curve": curve.label}
    return VERDICT_EXIT[rep.verdict], d, \
        f"verdict {rep.verdict}  threshold {rep.violation_threshold}"


def cmd_gallery(args):
    f = parse_function(args.name)
    points = [parse_complex(p) for p in (args.at or ["0,0"])]
    values = []
    for p in points:
        v, saturated = f.eval(p)
        values.append({"z": p, "value": v, "saturated": saturated})
    rep = {"name": f.label, "values": values}
    return 0, rep, " ".join(str(_json_default(v["value"])) for v in values)


def cmd_selftest(args):
    res = sft.run_all(_seed(args))
    lines = [f"{'PASS' if c['passed'] else 'FAIL'} {c['criterion']}"
             for c in res["criteria"]]
    return (0 if res["all_passed"] else 4), res, "\n".join(lines)


# ---------------------------------------------------------------------------
# the subcommand table: name -> (help, handler, [(flag, add_argument keywords)])

_REQUIRED = {"required": True}
_CURVE_PAIR = [("--curve1", _REQUIRED), ("--curve2", _REQUIRED)]
_LEVEL = ("--level", {"type": int})
_LOCAL_MAX_LEVEL = ("--max-level", {"type": int, "dest": "max_level_local"})

SUBCOMMANDS = {
    "metric": ("evaluate a point distance", cmd_metric, [
        ("--kind", {"required": True, "choices": list(METRICS)}),
        ("--z", _REQUIRED), ("--w", _REQUIRED)]),
    "curve-dist": ("directed curve distance", cmd_curve_dist, [*_CURVE_PAIR, _LEVEL]),
    "frechet": ("discrete Frechet distance", cmd_frechet, [*_CURVE_PAIR, _LEVEL]),
    "equiv": ("curve equivalence verdict", cmd_equiv, [*_CURVE_PAIR, _LOCAL_MAX_LEVEL]),
    "lemma4": ("zigzag pair construction and growth", cmd_lemma4, [
        ("--r", {"type": float, "default": 0.5}),
        ("--n-zigzags", {"type": int, "default": 5})]),
    "normality": ("normality sup over a deflection region", cmd_normality, [
        ("--function", _REQUIRED), ("--curve", _REQUIRED),
        ("--deflection", {"type": float, "required": True}), _LOCAL_MAX_LEVEL]),
    "pseq": ("blow-up sequence indicators", cmd_pseq, [
        ("--function", _REQUIRED),
        ("--mode", {"required": True, "choices": ["pointwise", "local-sup", "split-pair"]}),
        ("--sequence", {"default": "poles:8"}), ("--alpha", {"help": "split-pair only"}),
        ("--delta", {"type": float, "help": f"split-pair only (default {PSEQ_DELTA})"})]),
    "cluster": ("cluster-set estimate on boundary shells", cmd_cluster, [
        ("--function", _REQUIRED),
        ("--region", {"required": True, "help": "radius-angle:R[:theta]"}),
        ("--shells", {"default": "2:14", "help": "lo:hi shell levels"}),
        ("--no-values", {"action": "store_true"})]),
    "family": ("renormalized family convergence", cmd_family, [
        ("--function", _REQUIRED), ("--r1", {"type": float, "default": 0.5}),
        ("--target", _REQUIRED),
        ("--depths", {"default": "1:16", "help": "lo:hi dyadic depths of w_n"})]),
    "stolz-map": ("sector-to-disk conformal map", cmd_stolz_map, [
        ("--alpha", {"type": float, "required": True}),
        ("--z", {"help": "map this one point re,im"}),
        ("--grid", {"type": int, "help": f"without --z: samples (default {STOLZ_GRID})"})]),
    "lemma6": ("boundary-distance distortion bounds", cmd_lemma6, [
        ("--alpha", {"type": float, "required": True}),
        ("--beta", {"type": float, "required": True}),
        ("--samples", {"type": int, "default": 10000})]),
    "decay": ("decay-bound margin table", cmd_decay, [
        ("--function", _REQUIRED), ("--curve", _REQUIRED),
        ("--profile", {"required": True, "help": "log[:shift[:e]] | pow:s[:e] | super:n"}),
        _LEVEL]),
    "gallery": ("evaluate a gallery function", cmd_gallery, [
        ("--name", _REQUIRED),
        ("--at", {"action": "append", "help": "point re,im (repeatable)"})]),
    "selftest": ("run the full acceptance battery", cmd_selftest, []),
}
SEEDED = ("cluster", "stolz-map", "lemma6", "selftest")  # the readers of --seed


def build_parser(subcommand: str | None = None) -> argparse.ArgumentParser:
    """The parser of one subcommand's options or, without one, the top-level
    parser: the global options, the subcommand word and the rest of the argv.
    A run builds just these two.  perfbench/setup_probe.py calls this with no
    argument, and perfbench/tracer.py hooks it by name."""
    if subcommand is None:
        p = argparse.ArgumentParser(
            prog="pblab", formatter_class=argparse.RawDescriptionHelpFormatter,
            description="numerical laboratory for boundary behavior on the unit disk",
            epilog="subcommands (pblab SUBCOMMAND -h lists its options):\n" + "\n".join(
                f"  {name:<11} {row[0]}" for name, row in SUBCOMMANDS.items()))
        p.add_argument("--seed", type=int, help=f"read by {', '.join(SEEDED)} only")
        p.add_argument("--output-dir")
        p.add_argument("--no-report", action="store_true",
                       help="skip writing the report file")
        p.add_argument("subcommand", help="one of the subcommands below")
        p.add_argument("rest", nargs=argparse.REMAINDER, metavar="...",
                       help="the options of the subcommand")
    else:
        help_text, _, options = SUBCOMMANDS[subcommand]
        p = argparse.ArgumentParser(prog=f"pblab {subcommand}", description=help_text)
        for flag, kwargs in options:
            p.add_argument(flag, **kwargs)
    # values like -0.5,0, -.5,0 and -1e-3 are option arguments, not flags:
    # no option of pblab starts with a digit
    p._negative_number_matcher = re.compile(r"^-\.?\d")
    return p


def main(argv=None) -> int:
    top = build_parser()
    # an unknown option before the subcommand is left over here, and
    # parse_args names it; the word after it was taken for the subcommand,
    # so that word is checked second
    args = top.parse_args(argv)
    if args.subcommand not in SUBCOMMANDS:
        top.error(f"argument subcommand: invalid choice: {args.subcommand!r} "
                  f"(choose from {', '.join(map(repr, SUBCOMMANDS))})")
    rest = args.rest
    del args.rest  # the report echoes options, not the raw argv
    build_parser(args.subcommand).parse_args(rest, namespace=args)
    output_dir = args.output_dir if args.output_dir is not None else \
        os.environ.get(OUTPUT_DIR_ENV) or "pblab-reports"
    try:
        if args.seed is not None and args.subcommand not in SEEDED:
            raise CliError(f"{args.subcommand} does not read --seed")
        code, report, text = SUBCOMMANDS[args.subcommand][1](args)
        # equiv and normality read --max-level as max_level_local and echo it
        # as max_level too: the benchmark references pin both keys
        if getattr(args, "max_level_local", None) is not None:
            args.max_level = args.max_level_local
        # taken after the handler, which may write a value back (stolz-map --grid)
        report = {"subcommand": args.subcommand, "seed": _seed(args),
                  "arguments": {k: v for k, v in sorted(vars(args).items())
                                if v is not None},
                  **report}
        if not args.no_report:
            path = write_report(output_dir, args.subcommand, report)
            print(text)
            print(f"report: {path}", file=sys.stderr)
        else:
            print(text)
        return code
    except (ValueError, OSError) as exc:  # CliError, domain errors, unreadable files
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except fn.EvaluationError as exc:
        print(f"evaluation failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
