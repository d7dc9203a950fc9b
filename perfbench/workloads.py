"""Seeded `pblab` job lists for the benchmark's two workloads.

A workload (BENCHMARK.json says why each was chosen) is a list of slots.  A
slot is one `pblab` argv template whose placeholders each take one value from
a short list; the seed picks the values and the order of the jobs, never the
slots, so every seed runs the same kinds of job at nearly the same cost.  The
catalogue of a workload is every argv its slots can produce;
`perfbench/refs/<workload>.json` pins the output of each.

Left out on purpose, because their current outputs are known to be wrong and
pinning them would mark the fix as a failure:
- `@file` curve imports: `SampleBackedCurve` ignores the truncation level
  (ROADMAP item 5a);
- `--set-tolerance` and `tolerance.*` config keys: no computation reads them
  (ROADMAP item 4);
- `selftest --seed 5`: near the Stolz sector corner, `StolzMap.invert` after
  `forward_steps` misses the start point by 1.9e-8 at alpha = pi/4, above the
  stolz criterion's 1e-9, so the battery exits 4 for that seed.  The same
  round trip reaches 1.3e-9 for `stolz-map --alpha 0.785 --grid 200000`
  (ROADMAP item 5b).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Slot:
    template: str          # pblab argv, space separated, with {name} fields
    choices: tuple = ()    # (name, (value, ...)) pairs

    def variants(self) -> list[str]:
        names = [n for n, _ in self.choices]
        values = [v for _, v in self.choices]
        return [self.template.format(**dict(zip(names, combo)))
                for combo in itertools.product(*values)]

    def draw(self, rng: random.Random) -> str:
        return self.template.format(**{n: rng.choice(v) for n, v in self.choices})


@dataclass(frozen=True)
class Workload:
    name: str
    slots: tuple
    stress: str             # what the traced run must show on the seed commit
    stressed: object        # (per-layer metrics, layer self-time shares) -> bool


def _slot(template, **choices):
    return Slot(template, tuple(choices.items()))


_PAIRS = (
    ("radius:{th}", "hypercycle:{th}:{p}"),
    ("radius:{th}", "chord:{th}:{a}"),
    ("radius:{th}", "horocycle:{th}:{side}"),
    ("chord:{th}:{a}", "horocycle:{th}:{side}"),
    ("hypercycle:{th}:{p}", "chord:{th}:{a}"),
    ("hypercycle:{th}:0.5", "hypercycle:{th}:{p}"),
    ("chord:{th}:0.3", "chord:{th}:{a}"),
)
_PAIR_CHOICES = {"th": ("0", "2.5"), "p": ("0.5", "-0.3"),
                 "a": ("0.5", "-0.4"), "side": ("1", "-1")}


def _pair_slots():
    out = []
    for c1, c2 in _PAIRS:
        used = [f for f in _PAIR_CHOICES if "{" + f + "}" in c1 + c2]
        choices = {f: _PAIR_CHOICES[f] for f in used}
        for level in ("12", "14", "16"):
            for sub, opt in (("frechet", "level"), ("curve-dist", "level"),
                             ("equiv", "max-level")):
                out.append(_slot(f"{sub} --curve1 {c1} --curve2 {c2} --{opt} {level}",
                                 **choices))
    return tuple(out)


FRECHET_CURVES = Workload(
    "frechet_curves",
    tuple(_slot(f"lemma4 --r {{r}} --n-zigzags {n}", r=("0.4", "0.5"))
          for n in (6, 8, 10, 12)) + _pair_slots(),
    "functions.calls == 0 and curves holds most self time",
    lambda m, share: m["functions.calls"] == 0 and share["curves"] > 0.5,
)

BATTERY = Workload(
    "battery",
    # three different seeds a pass; each pair takes about the same time
    tuple(_slot("--seed {s} selftest", s=pair)
          for pair in (("1729", "1"), ("2", "3"), ("4", "6"))),
    "every selftest criterion takes time",
    lambda m, share: all(v > 0 for k, v in m.items()
                         if k.startswith("selftest.") and k.endswith(".s")),
)

WORKLOADS = {w.name: w for w in (FRECHET_CURVES, BATTERY)}


def job_list(workload: str, seed: int) -> list[list[str]]:
    """The pass of `workload` for `seed`: one argv per slot."""
    rng = random.Random(seed)
    jobs = [slot.draw(rng) for slot in WORKLOADS[workload].slots]
    rng.shuffle(jobs)
    return [job.split() for job in jobs]


def catalogue(workload: str) -> list[str]:
    """Every argv (space joined) the workload's slots can produce."""
    seen = {}
    for slot in WORKLOADS[workload].slots:
        for job in slot.variants():
            seen[job] = None
    return list(seen)
