"""The acceptance battery: one function per criterion, shared by the CLI
`selftest` subcommand and the pytest acceptance module.

Each criterion returns (passed, details); the details hold what a report
can write: JSON values and complex numbers.  run_all aggregates them
deterministically for a seed and echoes, under `tolerances`, the threshold
constants the lab's verdicts read; they are fixed module constants, not
options.
"""

from __future__ import annotations

import math

import numpy as np

from . import analysis as an
from . import curves as cv
from . import functions as fn
from . import geometry as ge
from . import stolz as st

DEFAULT_SEED = 1729


def _sample_disk(rng, n, radius=0.99):
    r = radius * np.sqrt(rng.uniform(0.0, 1.0, n))
    return r * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, n))


def criterion_metric_suite(seed: int):
    """Metric axioms, Mobius invariance, radius-conversion round trip."""
    rng = np.random.default_rng(seed)
    n = 10_000
    tol = ge.ALGEBRAIC_TOL
    z, w, u = (_sample_disk(rng, n) for _ in range(3))

    details = {}
    ok = True
    for name, dist in [("pseudo_hyperbolic", ge.pseudo_hyperbolic_distance_array),
                       ("hyperbolic", ge.hyperbolic_distance_array)]:
        dzw, dwz = dist(z, w), dist(w, z)
        dzu, duw = dist(z, u), dist(u, w)
        sym = float(np.max(np.abs(dzw - dwz)))
        tri = float(np.max(dzw - (dzu + duw)))
        idd = float(np.max(dist(z, z)))
        details[name] = {"symmetry": sym, "triangle_slack": tri, "identity": idd}
        ok &= sym <= tol and tri <= tol and idd <= tol

    a = np.where(rng.uniform(size=n) < 0.1, np.inf, rng.standard_normal(n) * 3)
    b = rng.standard_normal(n) * 3 + 1j * rng.standard_normal(n)
    c = np.where(rng.uniform(size=n) < 0.1, np.inf, rng.standard_normal(n) * 5)
    dab, dba = ge.spherical_distance_array(a, b), ge.spherical_distance_array(b, a)
    tri_s = float(np.max(dab - (ge.spherical_distance_array(a, c)
                                + ge.spherical_distance_array(c, b))))
    bound = float(np.max(dab))
    details["spherical"] = {"symmetry": float(np.max(np.abs(dab - dba))),
                            "triangle_slack": tri_s, "max": bound}
    ok &= details["spherical"]["symmetry"] <= tol and tri_s <= tol and bound <= 2.0 + tol

    taus = rng.uniform(0.0, 2.0 * math.pi, n)
    cents = _sample_disk(rng, n, 0.95)
    inv_err = 0.0
    for i in range(0, n, 2500):
        m = ge.MobiusAutomorphism(cents[i], taus[i])
        zz, ww = z[i:i + 2500], w[i:i + 2500]
        d0 = ge.pseudo_hyperbolic_distance_array(zz, ww)
        d1 = ge.pseudo_hyperbolic_distance_array(m.apply(zz), m.apply(ww))
        inv_err = max(inv_err, float(np.max(np.abs(d0 - d1))))
    details["mobius_invariance"] = inv_err
    ok &= inv_err <= tol

    r_grid = 1.0 - np.logspace(-4, -0.02, 60)
    rt1 = np.abs(np.tanh((np.log1p(r_grid) - np.log1p(-r_grid)) / 2.0) - r_grid)
    rp_grid = np.logspace(-6, 1, 60)
    back = np.tanh(rp_grid / 2.0)
    rt2 = np.abs((np.log1p(back) - np.log1p(-back)) - rp_grid)
    details["radius_convert_roundtrip"] = float(max(np.max(rt1), np.max(rt2)))
    ok &= details["radius_convert_roundtrip"] <= tol
    return bool(ok), details


def criterion_disk_image(seed: int):
    """Pseudo-hyperbolic disks are automorphism images of centered disks."""
    rng = np.random.default_rng(seed)
    results = []
    for i in range(100):
        w = complex(_sample_disk(rng, 1, 0.95)[0])
        r = float(rng.uniform(0.05, 0.9))
        results.append(ge.disk_image_check(w, r, 10_000, seed=seed + i + 1))
    passed = all(results)
    return passed, {"pairs": 100, "samples_each": 10_000, "failures": int(100 - sum(results))}


def _equivalence_family():
    return {
        "radius": cv.canonical_curve("radius", 0.0),
        "chord+pi/6": cv.canonical_curve("chord", 0.0, math.pi / 6),
        "chord-pi/4": cv.canonical_curve("chord", 0.0, -math.pi / 4),
        "chord+0.3": cv.canonical_curve("chord", 0.0, 0.3),
        "hyper+0.5": cv.canonical_curve("hypercycle", 0.0, 0.5),
        "hyper-0.3": cv.canonical_curve("hypercycle", 0.0, -0.3),
    }


def criterion_equivalence(seed: int):
    """Reflexive/symmetric/transitive verdicts across the non-tangential
    family; tangent curve at infinite distance with growing directed gap."""
    fam = _equivalence_family()
    names = list(fam)
    verdicts = {}
    ok = True
    for i, a in enumerate(names):
        for b in names[i:]:
            v = cv.are_equivalent(fam[a], fam[b], 12)
            verdicts[f"{a}|{b}"] = v.verdict
            ok &= v.verdict == "equivalent"
    # transitivity as an implication over all triples
    for a in names:
        for b in names:
            for c in names:
                if verdicts.get(f"{a}|{b}", verdicts.get(f"{b}|{a}")) == "equivalent" \
                        and verdicts.get(f"{b}|{c}", verdicts.get(f"{c}|{b}")) == "equivalent":
                    ok &= verdicts.get(f"{a}|{c}", verdicts.get(f"{c}|{a}")) == "equivalent"

    v = cv.are_equivalent(fam["radius"], cv.canonical_curve("horocycle", 0.0), 12)
    fwd, bwd = v.forward[3:], v.backward[3:]   # levels 4..12
    inc = all(x < y for x, y in zip(fwd, fwd[1:])) and \
        all(x < y for x, y in zip(bwd, bwd[1:]))
    ok &= inc and v.verdict == "not_equivalent"
    return bool(ok), {"verdicts": verdicts, "radius_horocycle": v.verdict,
                      "directed_forward": fwd, "directed_backward": bwd,
                      "strictly_increasing": inc}


def criterion_zigzag(seed: int):
    """Zigzag pair: containment in the deflection band at every level, and
    strictly growing Frechet distance crossing 10 by the fifth prefix."""
    r = 0.5
    values = []
    contained = True
    simple = True
    for n in range(1, 9):
        g1, g2, mk = cv.build_zigzag_pair(r, n)
        contained &= cv.zigzag_contained(g2, mk)
        simple &= cv.polyline_is_simple(
            np.array([complex(a, b) for a, b in g2.vertices]))
        values.append(cv.curve_frechet(g1, g2, cv.zigzag_truncation_level(mk)))
    increasing = all(a < b for a, b in zip(values, values[1:]))
    crosses = values[4] > 10.0
    # sampled membership cross-check on the shallow part (n = 2)
    g1, g2, mk = cv.build_zigzag_pair(r, 2)
    region = cv.CurvilinearAngle(g1, r)
    pts = g2.refine(10)
    pts = pts[np.abs(pts) < 0.999]
    sampled_ok = bool(np.all(region.contains(pts[:: max(1, len(pts) // 50)], 10)))
    passed = contained and simple and increasing and crosses and sampled_ok
    return bool(passed), {"frechet_by_prefix": values, "contained": contained,
                          "simple": simple, "strictly_increasing": increasing,
                          "exceeds_10_at_5": crosses, "sampled_membership": sampled_ok}


def criterion_normality(seed: int):
    """Identity/automorphism sups at the Schwarz-Pick bound, bounded verdict
    for the pole series, diverging local-sup indicator at its poles."""
    rad = cv.canonical_curve("radius", 0.0)
    reg = cv.CurvilinearAngle(rad, 0.5)
    sch = fn.PoleSchedule.default()
    f0 = fn.RationalPoleFunction(sch)
    # one region, so one cusp zoom for the three sups
    rep_i, rep_a, rep_f = an.normality_sups(reg, [
        (fn.identity_function(), 10),
        (fn.automorphism_function(ge.mobius_translation(0.3)), 10),
        (f0, 14)])
    ind = an.pseq_indicator_local_sup(
        f0, sch.pole_points[:10], sch.hyperbolic_diameters[:10])
    ok = (max(rep_i.sups) <= 1.0 + 1e-9 and abs(max(rep_i.sups) - 1.0) <= 1e-6
          and rep_i.verdict == "bounded"
          and max(rep_a.sups) <= 1.0 + 1e-9 and rep_a.verdict == "bounded"
          and rep_f.verdict == "bounded"
          and ind.verdict == "diverging")
    return bool(ok), {
        "identity": {"max_sup": max(rep_i.sups), "verdict": rep_i.verdict},
        "automorphism": {"max_sup": max(rep_a.sups), "verdict": rep_a.verdict},
        "pole_series": {"sups": rep_f.sups, "verdict": rep_f.verdict},
        "pole_local_sup": {"values": ind.values, "verdict": ind.verdict},
    }


def criterion_cluster_family(seed: int):
    """Cluster limits agree with renormalized-family limits; the two-value
    cluster set of the damped pole series is reproduced."""
    sch = fn.PoleSchedule.default()
    f1 = fn.RationalPoleFunction(sch, damped=True)
    ident = fn.identity_function()
    ws = [1.0 - 2.0 ** (-k) for k in range(1, 17)]
    ok = True
    details = {}
    for label, f, target, r1 in [("identity", ident, 1.0, 0.9),
                                 ("damped_pole_series", f1, 0.0, 0.5)]:
        fam = an.renormalized_family_check(f, ws, r1, target)   # the same for both r
        for r in (0.2, 0.5):
            member = an.radial_angle_membership(r, 0.0)
            cl = an.cluster_estimate(f, member, 0.0, range(2, 15),
                                     seed=seed + int(10 * r), record_values=False)
            d_target = None if cl.limit_candidate is None \
                else float(ge.spherical_distance_array(cl.limit_candidate, target))
            agree = d_target is not None and d_target < 1e-3 and fam.verdict == "converges"
            details[f"{label}:r={r}"] = {
                "cluster_verdict": cl.verdict,
                "cluster_candidate_distance": d_target,
                "family_verdict": fam.verdict,
                "family_final_sup": fam.sup_ds[-1],
                "agree": agree,
            }
            ok &= agree

    # two-value shells on the pole-containing region
    member_band = an.radial_angle_membership(0.5, 0.0)
    poles, radii = sch.pole_points, sch.radii

    def member_region(z):
        z = np.asarray(z, complex)
        d = np.abs(z[:, None] - poles[None, :])
        return member_band(z) | np.any(d <= radii[None, :], axis=1)

    extra = {}
    for zj in poles:
        dist = abs(zj - 1.0)
        for k in range(2, 11):
            if 2.0 ** (-k - 1) <= dist < 2.0 ** (-k):
                extra.setdefault(k, []).append(zj)
    cl2 = an.cluster_estimate(f1, member_region, 0.0, range(2, 11),
                              seed=seed + 77, extra_points=extra)
    both_shells = []
    for sh in cl2.shells:
        if not sh.get("values"):
            continue
        arr = np.asarray(sh["values"])
        d0 = ge.spherical_distance_array(arr, np.zeros(len(arr)))
        di = ge.spherical_distance_array(arr, np.full(len(arr), np.inf))
        if float(np.min(d0)) < 1e-2 and float(np.min(di)) < 1e-2:
            both_shells.append(sh["shell"])
    details["two_value_shells"] = both_shells
    details["two_value_region_verdict"] = cl2.verdict
    ok &= len(both_shells) >= 1 and cl2.limit_candidate is None
    return bool(ok), details


def criterion_stolz(seed: int):
    """Boundary correspondence, composition-vs-closed-form agreement, round
    trips, and distortion-bound holdouts of the sector map."""
    ok = True
    details = {}
    for alpha in (math.pi / 4, math.pi / 3):
        m = st.StolzAngle(alpha)
        w_end = m.apply(1.0 - m.rho + 1e-12)
        near1 = m.apply(1.0 - 1e-7)
        z = m.sample(1000, seed=seed, margin=1e-9)
        w = m.forward_steps(z)
        closed = float(np.max(np.abs(w - m.closed_form(z))))
        rt = float(np.max(np.abs(m.invert(w) - z)))
        inside = bool(np.all(np.abs(w) < 1.0))
        details[f"alpha={alpha:.6f}"] = {
            "phi_at_1_minus_rho": w_end,
            "phi_near_1_error": abs(near1 - 1.0),
            "composition_vs_closed_form": closed,
            "roundtrip": rt,
            "image_in_disk": inside,
        }
        tol = ge.COMPOSED_TOL
        ok &= abs(w_end + 1.0) <= tol and abs(near1 - 1.0) <= tol
        ok &= closed <= tol and rt <= tol and inside
    holdouts = {}
    for a in (math.pi / 4, math.pi / 3):
        for b in (math.pi / 6, math.pi / 4):
            mh, Mh, hold = st.stolz_distortion_bounds(a, b, 10_000, seed=seed)
            holdouts[f"a={a:.4f},b={b:.4f}"] = {"m": mh, "M": Mh, "pass": hold}
            ok &= hold and 0.0 < mh <= Mh < math.inf
    details["distortion"] = holdouts
    return bool(ok), details


def criterion_decay(seed: int):
    """Exponential-decay margins: the boundary identity of the slow
    exponential, the violation threshold against a closed-form oracle, and
    the consistency probe pairing a satisfied super-exponential bound with a
    diverging normality sup."""
    rad = cv.canonical_curve("radius", 0.0)
    h = fn.gallery("saginjan_h")
    pts = rad.refine(12)
    t = 1.0 - np.abs(pts)
    ident_err = float(np.max(np.abs(-h.log_abs_array(pts) * t - 1.0)))

    rep = st.decay_margin(h, rad, st.DecayProfile.log_form(shift=1.0), 12)
    oracle = 1.0 / math.expm1(1.0)   # the root of 1 - log1p(1/x) = 0
    thr_err = abs((rep.violation_threshold or math.nan) - oracle)

    sq = fn.gallery("square_exp")
    rep2 = st.decay_margin(sq, rad, st.DecayProfile.super_exponential(1), 12)
    reg = cv.CurvilinearAngle(rad, 0.5)
    rep3 = an.normality_sup(sq, reg, 14)

    ok = (ident_err <= 1e-9
          and rep.verdict == "violated" and thr_err <= 1e-6
          and rep2.verdict == "satisfied"
          and rep3.verdict == "diverging")
    return bool(ok), {
        "slow_exp_identity_error": ident_err,
        "violation_threshold": rep.violation_threshold,
        "threshold_oracle": oracle,
        "threshold_error": thr_err,
        "super_exponential_verdict": rep2.verdict,
        "normality_verdict": rep3.verdict,
        "normality_sups_tail": rep3.sups[-4:],
    }


CRITERIA = [
    ("metric_suite", "metric axioms, invariance, radius conversion", criterion_metric_suite),
    ("disk_image", "automorphism image of centered disks", criterion_disk_image),
    ("equivalence", "curve equivalence relation and tangent separation", criterion_equivalence),
    ("zigzag", "deflection-band pair with unbounded Frechet distance", criterion_zigzag),
    ("normality", "normality sups and blow-up indicators", criterion_normality),
    ("cluster_family", "cluster limits vs renormalized families", criterion_cluster_family),
    ("stolz", "sector map correspondence and distortion bounds", criterion_stolz),
    ("decay", "decay margins and uniqueness-hypothesis probes", criterion_decay),
]


def run_all(seed: int = DEFAULT_SEED) -> dict:
    """Run the whole battery.  The report carries no elapsed times, so it is
    byte-identical across runs with the same seed, and echoes the thresholds
    the verdict functions read."""
    criteria = []
    for key, description, fun in CRITERIA:
        passed, details = fun(seed)
        criteria.append({"criterion": key, "description": description,
                         "passed": passed, "details": details})
    return {"seed": seed, "criteria": criteria,
            "all_passed": all(c["passed"] for c in criteria),
            "tolerances": {
                "algebraic": ge.ALGEBRAIC_TOL,
                "composed": ge.COMPOSED_TOL,
                "plateau_ratio": cv.PLATEAU_RATIO,
                "growth_factor": an.GROWTH_FACTOR,
                "converge": an.CONVERGE_TOL,
                "margin_rel": st.MARGIN_REL_TOL,
            }}
