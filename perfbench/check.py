"""Pinned references for `pblab` reports, and the comparison behind
`failed`.

A reference holds a job's exit code and its report in a normalised form:
- strings, booleans, integers and None are pinned exactly (verdicts, flags,
  counts, seeds);
- floats are pinned to REL_TOL relative; a two-float list is one complex
  number, compared by its modulus, so the noise in a near-zero imaginary part
  of a mean does not count;
- a list of more than LONG_LIST numbers, pairs or strings (cluster values,
  curve exchange samples) is pinned by a summary: its length, its count of each
  string, and sum, sum of squares and position-weighted sum of its numbers,
  each to REL_TOL of the matching sum of magnitudes;
- diagnostic error fields are checked against the pass limit the lab itself
  uses for them, not against a pinned value, so a more accurate result passes;
- the report's echo of `--output-dir` is dropped: it names a scratch path.
"""

from __future__ import annotations

import math

REL_TOL = 1e-12
LONG_LIST = 32

# field name -> largest value that passes (the tolerances of selftest.py)
DIAGNOSTIC_LIMITS = {
    "roundtrip_error": 1e-9,
    "max_roundtrip_error": 1e-9,
    "max_closed_form_error": 1e-9,
    "roundtrip": 1e-9,
    "composition_vs_closed_form": 1e-9,
    "phi_near_1_error": 1e-9,
    "symmetry": 1e-12,
    "triangle_slack": 1e-12,
    "identity": 1e-12,
    "mobius_invariance": 1e-12,
    "radius_convert_roundtrip": 1e-12,
    "slow_exp_identity_error": 1e-9,
    "threshold_error": 1e-6,
}


def _is_num(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _leaves(x, nums, strs):
    if isinstance(x, list):
        for v in x:
            _leaves(v, nums, strs)
    elif isinstance(x, dict):
        for k in sorted(x):
            _leaves(x[k], nums, strs)
    elif _is_num(x):
        nums.append(float(x))
    else:
        key = repr(x)
        strs[key] = strs.get(key, 0) + 1


def summarise(values: list) -> dict:
    nums, strs = [], {}
    _leaves(values, nums, strs)
    finite = [v for v in nums if math.isfinite(v)]
    return {
        "n": len(nums),
        "nonfinite": sorted(repr(v) for v in nums if not math.isfinite(v)),
        "strings": strs,
        "sum": sum(finite),
        "sq": sum(v * v for v in finite),
        "weighted": sum((i + 1) * v for i, v in enumerate(finite)),
        "abs": sum(abs(v) for v in finite),
        "wabs": sum((i + 1) * abs(v) for i, v in enumerate(finite)),
    }


def _count_nums(x) -> int:
    if isinstance(x, list):
        return sum(_count_nums(v) for v in x)
    if isinstance(x, dict):
        return sum(_count_nums(v) for v in x.values())
    return 1 if _is_num(x) else 0


def normalise(report, key=None):
    """The pinned form of a report (or of one of its fields)."""
    if isinstance(report, dict):
        out = {k: normalise(v, k) for k, v in report.items()}
        if key == "arguments":
            out.pop("output_dir", None)
        return out
    if isinstance(report, list):
        if _count_nums(report) > LONG_LIST \
                and not any(isinstance(v, dict) for v in report):
            return {"__summary__": summarise(report)}
        return [normalise(v) for v in report]
    if key in DIAGNOSTIC_LIMITS and _is_num(report):
        return {"__at_most__": DIAGNOSTIC_LIMITS[key]}
    return report


def _close(a: float, b: float, scale: float) -> bool:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return True
    return abs(a - b) <= REL_TOL * scale


def compare(ref, got, path="report") -> list[str]:
    """Differences between a pinned reference and a normalised report."""
    if isinstance(ref, dict) and "__summary__" in ref:
        if not isinstance(got, dict) or "__summary__" not in got:
            return [f"{path}: expected a long list"]
        r, g = ref["__summary__"], got["__summary__"]
        bad = [k for k in ("n", "nonfinite", "strings") if r[k] != g[k]]
        bad += [k for k, scale in (("sum", "abs"), ("sq", "sq"), ("abs", "abs"),
                                   ("weighted", "wabs"), ("wabs", "wabs"))
                if not _close(r[k], g[k], r[scale])]
        return [f"{path}: summary differs in {bad}"] if bad else []
    if isinstance(ref, dict) and "__at_most__" in ref:
        if isinstance(got, dict) and "__at_most__" in got:
            return []
        return [f"{path}: expected a diagnostic field"]
    if isinstance(ref, dict):
        if not isinstance(got, dict) or set(ref) != set(got):
            return [f"{path}: keys differ"]
        return [d for k in ref for d in compare(ref[k], got[k], f"{path}.{k}")]
    if isinstance(ref, list):
        if not isinstance(got, list) or len(ref) != len(got):
            return [f"{path}: length differs"]
        if len(ref) == 2 and all(type(v) is float for v in ref + got):
            scale = math.hypot(*ref)
            ok = _close(ref[0], got[0], scale) and _close(ref[1], got[1], scale)
            return [] if ok else [f"{path}: {got} != {ref}"]
        return [d for i, (r, g) in enumerate(zip(ref, got))
                for d in compare(r, g, f"{path}[{i}]")]
    if type(ref) is float and type(got) is float:
        return [] if _close(ref, got, max(abs(ref), abs(got))) \
            else [f"{path}: {got!r} != {ref!r}"]
    if type(ref) is not type(got) or ref != got:
        return [f"{path}: {got!r} != {ref!r}"]
    return []


def check_diagnostics(report, path="report") -> list[str]:
    """Diagnostic error fields above their pass limit."""
    out = []
    if isinstance(report, dict):
        for k, v in report.items():
            if k in DIAGNOSTIC_LIMITS and _is_num(v):
                if not v <= DIAGNOSTIC_LIMITS[k]:
                    out.append(f"{path}.{k}: {v!r} above {DIAGNOSTIC_LIMITS[k]!r}")
            else:
                out += check_diagnostics(v, f"{path}.{k}")
    elif isinstance(report, list):
        for i, v in enumerate(report):
            out += check_diagnostics(v, f"{path}[{i}]")
    return out


def verify(ref: dict, code: int, report: dict | None) -> list[str]:
    """Everything wrong with one job's result against its reference."""
    errs = [] if code == ref["exit"] else [f"exit {code} != {ref['exit']}"]
    if report is None:
        return errs + ["no report written"]
    return errs + check_diagnostics(report) + compare(ref["report"], normalise(report))
