"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (run with ``pytest -s`` to see them
live).  Expensive tip searches are cached inside the library, so criteria
sharing tips reuse them within one session.
"""

import itertools
import time

import numpy as np
import pytest

from fareyweb.config import Config
from fareyweb.construct import build, render
from fareyweb.farey import (Frac, child, enumerate_level, is_farey_neighbor,
                            mediant, parents)
from fareyweb.lift import SINE, FamilyParams
from fareyweb.rotation import orbit_averages, rot_interval
from fareyweb.tongue import boundary, section, tip_by_width
from fareyweb.verify import run_suite
from fareyweb.web import b_point, strand_point, tip_by_intersection

HALF = Frac(1, 2)


def report(num, name, ok, elapsed, detail=""):
    status = "PASS" if ok else "FAIL"
    extra = f"  [{detail}]" if detail else ""
    print(f"criterion {num:>2} {status} ({elapsed:6.1f}s) {name}{extra}")
    assert ok, f"criterion {num}: {name}{extra}"


def test_criterion_01_farey_exhaustive():
    t0 = time.time()
    ok = True
    for n in range(2, 11):
        for f in enumerate_level(n):
            left, right = parents(f)
            ok &= is_farey_neighbor(left, right)
            ok &= abs(left.p * right.q - right.p * left.q) == 1
            ok &= mediant(left, right) == f
            ok &= left < f < right
    for f in (HALF, Frac(2, 5), Frac(3, 7), Frac(5, 8)):
        ls = [child(f, "L", j) for j in range(1, 9)]
        rs = [child(f, "R", j) for j in range(1, 9)]
        ok &= all(a < b < f for a, b in zip(ls, ls[1:]))
        ok &= all(a > b > f for a, b in zip(rs, rs[1:]))
        ok &= abs(ls[-1].p * f.q - f.p * ls[-1].q) == 1  # gap exactly 1/(q qj)
    elapsed = time.time() - t0
    report(1, "farey exhaustive suite through level 10", ok and elapsed < 1.0,
           elapsed, f"runtime budget 1 s")


def test_criterion_02_fact4_containment():
    t0 = time.time()
    rng = np.random.default_rng(2024)
    ok = True
    for _ in range(20):
        params = FamilyParams(rng.uniform(-0.5, 1.5), 1.0 + rng.uniform(1e-6, 1.0))
        ri = rot_interval(params, Config(rot_tol=1e-4))
        avgs = orbit_averages(params, rng.uniform(0.0, 1.0, 64), 4000)
        ok &= avgs.min() >= ri.lower.lo - 1e-3
        ok &= avgs.max() <= ri.upper.hi + 1e-3
    elapsed = time.time() - t0
    report(2, "rotation-interval containment of 64-start orbit averages",
           ok and elapsed < 60.0, elapsed, "20 random (a,b), slack 1e-3")


def test_criterion_03_boundary_orderings():
    t0 = time.time()
    rep = run_suite("fact1_order")  # six fractions x four b values + analytic
    report(3, "boundary orderings to 1e-9 and analytic 0/1 values to 1e-10",
           rep.passed, time.time() - t0, rep.summary)


def test_criterion_04_exact_anchor_points():
    t0 = time.time()
    ok = True
    for frac, want in ((Frac(0, 1), 0.0), (Frac(1, 1), 1.0), (HALF, 0.5)):
        a, b = b_point(frac)
        ok &= abs(a - want) <= 1e-10 and abs(b - 1.0) <= 1e-10
    report(4, "critical-line anchors at (0,1), (1,1), (0.5,1)", ok, time.time() - t0)


def test_criterion_05_theorem2_tip_consistency():
    t0 = time.time()
    ok = True
    details = []
    for j in range(1, 5):
        rj = child(HALF, "R", j)
        tip_r = tip_by_width(rj)
        on_strand = strand_point(HALF, "R", tip_r.b).a
        gap = abs(tip_r.a - on_strand)
        details.append(f"{rj}:{gap:.2g}")
        ok &= gap <= 1e-6
    tw = tip_by_width(HALF)
    ti = tip_by_intersection(HALF)
    ok &= abs(tw.a - ti.a) <= 1e-6 and abs(tw.b - ti.b) <= 1e-6
    ok &= abs(tw.a - 0.5) <= 1e-8
    report(5, "tips of right children on the 1/2 strand; methods agree; symmetry",
           ok, time.time() - t0, " ".join(details))


def test_criterion_06_theorem3_trichotomy():
    t0 = time.time()
    rep = run_suite("theorem3", frac=HALF, jmax=4)
    report(6, "trichotomy below/at/above the 1/2 tip with strict chains",
           rep.passed, time.time() - t0, rep.summary)


def test_criterion_07_theorem4_corollary1():
    t0 = time.time()
    tip25 = tip_by_width(Frac(2, 5))
    b0 = 0.5 * (SINE.b_critical + tip25.b)
    ok = section(Frac(2, 5), b0).locking_width > 0  # 2/5 locked at b0
    for high in (HALF, Frac(1, 3)):
        ok &= section(high, b0).locking_width >= 1e-8
    heights = [tip_by_width(f).b for f in (HALF, Frac(1, 3), Frac(2, 5), Frac(3, 8))]
    ok &= all(h1 - h2 >= 1e-6 for h1, h2 in zip(heights, heights[1:]))
    report(7, "locking propagates upward; tip heights strictly decrease",
           ok, time.time() - t0,
           " > ".join(f"{h:.6f}" for h in heights))


def test_criterion_08_theorem5_tip_sequences():
    t0 = time.time()
    rep = run_suite("theorem5", frac=HALF, jmax=6, irr_depth=5)
    report(8, "tip sequences: uniform gap, Cauchy onto the edge, golden collapse",
           rep.passed, time.time() - t0,
           "; ".join(f"{c.label}={c.measured:.3g}" for c in rep.cases if not c.passed)
           or rep.summary)


def test_criterion_09_tip_cycles():
    t0 = time.time()
    rep = run_suite("tip_cycle", fracs=(HALF, Frac(1, 3), Frac(2, 5), Frac(3, 8)))
    identities = [c for c in rep.cases if c.threshold == 1e-8]
    ok = rep.passed and len(identities) == 8 and all(c.measured <= 1e-8 for c in identities)
    report(9, "twist-cycle identities at the four tips (residual <= 1e-8)",
           ok, time.time() - t0,
           "; ".join(f"{c.label}={c.measured:.3g}" for c in rep.cases if not c.passed)
           or rep.summary)


def _proper_crossing(s1, s2, eps=1e-12):
    (ax, ay, bx, by), (cx, cy, dx, dy) = s1, s2
    if {(ax, ay), (bx, by)} & {(cx, cy), (dx, dy)}:
        return False

    def orient(px, py, qx, qy, rx, ry):
        return (qx - px) * (ry - py) - (qy - py) * (rx - px)

    d1 = orient(cx, cy, dx, dy, ax, ay)
    d2 = orient(cx, cy, dx, dy, bx, by)
    d3 = orient(ax, ay, bx, by, cx, cy)
    d4 = orient(ax, ay, bx, by, dx, dy)
    return ((d1 > eps and d2 < -eps) or (d1 < -eps and d2 > eps)) and \
           ((d3 > eps and d4 < -eps) or (d3 < -eps and d4 > eps))


def test_criterion_10_construction():
    t0 = time.time()
    ok = True
    webs = [build(s) for s in range(9)]
    ok &= sum(1 for v in webs[8].vertices if v.kind == "T") == 257
    # collinearity: each stage's new vertex sits on the carrier it subdivided
    for s in range(1, 9):
        prev, cur = webs[s - 1], webs[s]
        placed = {v.frac for v in cur.vertices if v.kind == "T"} - \
                 {v.frac for v in prev.vertices if v.kind == "T"}
        for f in placed:
            pair = parents(f)
            top_frac, base_frac = prev.carriers[pair]
            vt, vb = prev.vertex("T", top_frac), prev.vertex("B", base_frac)
            v = cur.vertex("T", f)
            cross = (vb.x - vt.x) * (v.y - vt.y) - (vb.y - vt.y) * (v.x - vt.x)
            ok &= abs(cross) <= 1e-12
    for v in webs[8].vertices:
        if v.kind == "T" and not v.frac.is_endpoint and v.frac != HALF:
            left, right = parents(v.frac)
            ok &= v.y < webs[8].vertex("T", left).y
            ok &= v.y < webs[8].vertex("T", right).y
        if v.kind == "T":
            ok &= webs[8].vertex("B", v.frac).x == v.x
    segs = webs[6].segment_coords()
    ok &= not any(_proper_crossing(s1, s2)
                  for s1, s2 in itertools.combinations(segs, 2))
    ok &= render(webs[8], "svg") == render(build(8), "svg")
    report(10, "eight-stage construction: counts, geometry, planarity, determinism",
           ok, time.time() - t0)


def test_criterion_11_schwarzian():
    t0 = time.time()
    rep = run_suite("schwarzian", bs=(1.2, 2.0))
    report(11, "negative Schwarzian away from turning points", rep.passed,
           time.time() - t0, rep.summary)
