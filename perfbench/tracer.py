"""Per-layer spans for the traced run, recorded from outside the package.

`install` wraps every public function and method of the seven modules where
it is looked up: in the defining module, in each module that imported it by
name (`from .geometry import ...`), on each class that overrides a method, and
in `selftest.CRITERIA`, which `run_all` iterates.  The private helpers named
in GROUPS are wrapped as well: the curve distance and Frechet cells are
computed in two of them, `_build_strip` (on each curve class) builds a
refinement level that is not memoised yet, and `cli._parse_region` parses a
region spec.
`install` leaves `uninstall` a list of what to put back.  Properties, dunder
methods, private classes and the other private methods are not wrapped; their
time is charged to the span that calls them.

A span belongs to a layer (the module) and to a group inside it, such as
`curves.refine` or `analysis.cluster`.  A function without a group of its own
inherits the group of the nearest enclosing span of its layer.  Self time is a
span's duration minus the durations of its child spans.  Calls, points and
samples are counted only at the outermost span of a group, so nested calls
such as `sph_array` -> `log_sph_array` count once.  Refinement samples are
counted where a level is built, so memoised `refine` calls add none.  Spans are kept in memory
and written out by `save` when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("geometry", "curves", "functions", "analysis", "stolz", "cli", "selftest")

# functions whose spans form a named group; None inherits the caller's group
GROUPS = {
    "curves": {
        "refine": "refine", "strip_refine": "refine", "_build_strip": "refine",
        "directed_curve_distance": "distance", "are_equivalent": "distance",
        "curve_frechet": "frechet", "discrete_frechet": "frechet",
        "discrete_frechet_strip": "frechet", "_frechet_dp": "frechet",
        "_strip_distance_matrix": None,
    },
    "analysis": {
        "normality_sup": "normality",
        "cluster_estimate": "cluster", "radial_angle_membership": "cluster",
    },
    "cli": {
        "build_parser": "parse", "build_config": "parse", "parse_complex": "parse",
        "parse_curve": "parse", "parse_function": "parse", "parse_profile": "parse",
        "_parse_region": "parse", "write_report": "write",
    },
}
# layers with one group, named after the layer
SINGLE = ("geometry", "functions", "stolz")


def _points(args, result) -> int:
    n = 1
    for x in (*args, result):
        if isinstance(x, tuple) and x:
            x = x[0]
        if isinstance(x, np.ndarray):
            n = max(n, x.size)
    return n


def _nan_count(result) -> int:
    if isinstance(result, np.ndarray) and result.dtype.kind in "fc":
        return int(np.count_nonzero(np.isnan(result)))
    return 0


def _distortion_points(args, kwargs) -> int:
    samples = args[2] if len(args) > 2 else kwargs.get("samples", 10000)
    return 2 * samples  # the estimate set and the holdout set


class Tracer:
    def __init__(self):
        self.stack = []             # [group, layer, child time, span index]
        self.open = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(float)
        self.names: list[str] = []
        self.spans = array("d")     # name id, parent index, start, end
        self.criteria = []
        self.group_keys = {}

    def _counter(self, layer, name):
        """(count, outer): `count(counts, group, args, kwargs, result)` adds
        to the counts, at the outermost span of the group only if `outer`."""
        if layer == "functions":
            def count(c, g, a, k, r):
                n = _points(a, r)
                c["functions.points"] += n
                c["functions.nan"] += _nan_count(r)
        elif layer == "geometry":
            def count(c, g, a, k, r):
                c["geometry.points"] += _points(a, r)
        elif name == "stolz_distortion_bounds":
            def count(c, g, a, k, r):
                c["stolz.points"] += _distortion_points(a, k)
        elif layer == "stolz":
            def count(c, g, a, k, r):
                c["stolz.points"] += _points(a, r)
        elif name == "_build_strip":
            def count(c, g, a, k, r):
                c["curves.refine.samples"] += r[0].size
            return count, False
        elif name == "_strip_distance_matrix":
            def count(c, g, a, k, r):
                if g == "curves.distance":  # the DP counts the Frechet cells
                    c["curves.distance.cells"] += r.size
            return count, False
        elif name == "_frechet_dp":
            def count(c, g, a, k, r):
                c["curves.frechet.cells"] += a[0].size
            return count, False
        elif name == "normality_sup":
            def count(c, g, a, k, r):
                c["analysis.normality.evaluations"] += r.evaluations
            return count, False
        elif name == "write_report":
            def count(c, g, a, k, r):
                c["cli.write.bytes"] += os.path.getsize(r)
            return count, False
        else:
            count = None
        return count, True

    def _hook(self, name):
        """Replaces the result of the few functions that return callables."""
        if name == "radial_angle_membership":
            return self._counting_predicate
        if name == "build_parser":
            def hook(parser):
                parser.parse_args = self.span(parser.parse_args, "cli.parse_args", "cli", "cli.parse")
                return parser
            return hook
        return None

    def _counting_predicate(self, contains):
        counts = self.counts

        def counted(z):
            inside = contains(z)
            counts["analysis.cluster.tested"] += len(inside)
            counts["analysis.cluster.accepted"] += int(np.count_nonzero(inside))
            return inside
        return self.span(counted, "analysis.radial_angle_membership.contains",
                         "analysis", "analysis.cluster")

    def span(self, fn, name, layer, group, count=None, outer=True, hook=None):
        """`fn` wrapped so that each call records one span.  A call made
        directly inside a span of the same group records none: its time is
        that group's self time either way."""
        name_id = len(self.names)
        self.names.append(name)
        stack, open_, spans = self.stack, self.open, self.spans
        self_s, counts, group_keys = self.self_s, self.counts, self.group_keys

        skippable = outer and hook is None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if skippable and stack:
                top = stack[-1]
                if top[1] == layer and (group is None or top[0] == group):
                    return fn(*args, **kwargs)
            g = group
            if g is None:
                g = next((e[0] for e in reversed(stack) if e[1] == layer), layer + ".other")
            outermost = open_[g] == 0
            open_[g] += 1
            entry = [g, layer, 0.0, len(spans) // 4]
            spans.extend((name_id, stack[-1][3] if stack else -1, 0.0, 0.0))
            stack.append(entry)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                open_[g] -= 1
                dur = t1 - t0
                self_s[g] += dur - entry[2]
                if stack:
                    stack[-1][2] += dur
                i = 4 * entry[3]
                spans[i + 2] = t0
                spans[i + 3] = t1
                if outermost:
                    keys = group_keys.get(g) or group_keys.setdefault(g, (g + ".calls", g + ".s"))
                    counts[keys[0]] += 1
                    counts[keys[1]] += dur
            if count is not None and (outermost or not outer):
                count(counts, g, args, kwargs, result)
            if hook is not None:
                result = hook(result)
            if stack:
                # counting and hooks are tracing cost: keep them out of the caller
                stack[-1][2] += perf_counter() - t1
            return result
        return traced

    def _wrap(self, fn, layer, qualname, attr):
        if layer in SINGLE:
            group = layer
        elif layer == "selftest" and attr.startswith("criterion_"):
            group = "selftest." + attr[len("criterion_"):]
        else:
            group = GROUPS.get(layer, {}).get(attr)
            if group is not None:
                group = f"{layer}.{group}"
        count, outer = self._counter(layer, attr)
        return self.span(fn, f"{layer}.{qualname}", layer, group, count, outer, self._hook(attr))

    def install(self, package: str):
        """Wrap the package's public functions and methods in place."""
        self.criteria = importlib.import_module(f"{package}.selftest").CRITERIA
        mods = {layer: importlib.import_module(f"{package}.{layer}") for layer in LAYERS}
        wrapped = {}
        patches = []   # (owner, attribute, wrapper)
        for layer, mod in mods.items():
            for name, obj in list(vars(mod).items()):
                mine = getattr(obj, "__module__", None) == mod.__name__
                if inspect.isfunction(obj) and mine and \
                        (not name.startswith("_") or name in GROUPS.get(layer, {})):
                    wrapped[id(obj)] = self._wrap(obj, layer, name, name)
                elif inspect.isclass(obj) and mine and not name.startswith("_"):
                    for attr, val in list(vars(obj).items()):
                        if attr.startswith("_") and attr not in GROUPS.get(layer, {}):
                            continue
                        qual = f"{name}.{attr}"
                        if inspect.isfunction(val):
                            patches.append((obj, attr, self._wrap(val, layer, qual, attr)))
                        elif isinstance(val, (classmethod, staticmethod)):
                            patches.append((obj, attr, type(val)(
                                self._wrap(val.__func__, layer, qual, attr))))
        for mod in mods.values():
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    patches.append((mod, name, wrapped[id(obj)]))
        self._restore = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in patches]
        self._restore_criteria = list(self.criteria)
        for owner, attr, wrapper in patches:
            setattr(owner, attr, wrapper)
        self.criteria[:] = [(key, desc, wrapped.get(id(fun), fun))
                            for key, desc, fun in self.criteria]

    def uninstall(self):
        """Put back everything `install` replaced."""
        for owner, attr, original in self._restore:
            setattr(owner, attr, original)
        self.criteria[:] = self._restore_criteria

    def layer_self(self) -> dict:
        out = dict.fromkeys(LAYERS, 0.0)
        for group, s in self.self_s.items():
            out[group.split(".")[0]] += s
        return out

    def metrics(self) -> dict:
        """Per-layer metric values by name."""
        c, s = self.counts, self.self_s
        layer_s = self.layer_self()
        fcalls, fpts = c["functions.calls"], c["functions.points"]
        tested = c["analysis.cluster.tested"]
        out = {
            "geometry.calls": c["geometry.calls"],
            "geometry.points": c["geometry.points"],
            "geometry.self_s": layer_s["geometry"],
            "functions.calls": fcalls,
            "functions.points": fpts,
            "functions.points_per_call": fpts / fcalls if fcalls else 0.0,
            "functions.nan_frac": c["functions.nan"] / fpts if fpts else 0.0,
            "functions.self_s": layer_s["functions"],
            "analysis.normality.calls": c["analysis.normality.calls"],
            "analysis.normality.evaluations": c["analysis.normality.evaluations"],
            "analysis.normality.self_s": s["analysis.normality"],
            "analysis.cluster.tested": tested,
            "analysis.cluster.accept_frac":
                c["analysis.cluster.accepted"] / tested if tested else 0.0,
            "analysis.cluster.self_s": s["analysis.cluster"],
            "analysis.other.self_s": s["analysis.other"],
            "stolz.calls": c["stolz.calls"],
            "stolz.points": c["stolz.points"],
            "stolz.self_s": layer_s["stolz"],
            "cli.parse.self_s": s["cli.parse"],
            "cli.write.calls": c["cli.write.calls"],
            "cli.write.bytes": c["cli.write.bytes"],
            "cli.write.self_s": s["cli.write"],
            "cli.self_s": layer_s["cli"],
        }
        for part in ("refine", "distance", "frechet"):
            out[f"curves.{part}.calls"] = c[f"curves.{part}.calls"]
            out[f"curves.{part}.self_s"] = s[f"curves.{part}"]
        out["curves.refine.samples"] = c["curves.refine.samples"]
        out["curves.distance.cells"] = c["curves.distance.cells"]
        out["curves.frechet.cells"] = c["curves.frechet.cells"]
        for key, _, _ in self.criteria:
            out[f"selftest.{key}.s"] = c[f"selftest.{key}.s"]
        return out

    def save(self, path: str):
        """Write the spans (name id, parent index, start, end) and names."""
        spans = np.frombuffer(self.spans, dtype=float).reshape(-1, 4)
        np.savez_compressed(path, spans=spans, names=np.array(self.names))
