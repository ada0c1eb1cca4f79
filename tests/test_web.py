import math
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from fareyweb.config import DEFAULT, Config  # noqa: E402
from fareyweb.farey import Frac, child, enumerate_level  # noqa: E402
from fareyweb.lift import SINE, TWO_PI, BoundSide, FamilyParams  # noqa: E402
from fareyweb.solvers import bisect_root  # noqa: E402
from fareyweb.tongue import boundary, tip_by_width  # noqa: E402
from fareyweb.verify import run_suite  # noqa: E402
from fareyweb.web import (_grid_roots, _strand_objective, _strand_root, b_point,  # noqa: E402
                          strand_point, strand_sides, tip_by_intersection, trace_strand,
                          twist_cycles)
from perfbench import reference  # noqa: E402

HALF = Frac(1, 2)
ZERO = Frac(0, 1)
ONE = Frac(1, 1)


def test_strand_degenerate_critical_line():
    sp = strand_point(ZERO, "R", 1.0)
    assert abs(sp.a) < 1e-10
    assert sp.constraint_report == ("relaxed",)
    sp1 = strand_point(ONE, "L", 1.0)
    assert abs(sp1.a - 1.0) < 1e-10


def test_strand_zero_tongue_closed_form():
    lm = SINE.landmarks(2.0)
    sp = strand_point(ZERO, "R", 2.0)
    want = lm.c_plus - 2.0 / 3.0 + math.sqrt(3.0) / TWO_PI
    assert abs(sp.a - want) < 1e-10
    assert sp.constraints_verified


def test_strand_defining_equation_residual():
    for frac, side in ((HALF, "R"), (HALF, "L"), (Frac(2, 5), "R"), (Frac(1, 3), "L")):
        b = 1.45
        sp = strand_point(frac, side, b)
        lm = SINE.landmarks(b)
        if side == "R":
            got = SINE.iterate(FamilyParams(sp.a, b), BoundSide.LOWER, lm.k_minus, frac.q)
            assert abs(got - (lm.c_plus + frac.p)) < 1e-10
        else:
            got = SINE.iterate(FamilyParams(sp.a, b), BoundSide.UPPER, lm.c_plus, frac.q)
            assert abs(got - (lm.k_minus + frac.p)) < 1e-10


def test_strand_roots_by_newton_match_bisection(monkeypatch):
    # every strand root within solver_tol of bisection on the same objective and
    # bracket, bracketed by the independent reference, at under 16 orbits a root,
    # evaluating a = p/q at most once
    evals = []

    def counted(*args, **kw):
        objective = _strand_objective(*args, **kw)

        def count(a):
            evals[-1].append(a)
            return objective(a)

        return count

    monkeypatch.setattr("fareyweb.web._strand_objective", counted)
    for level in range(6):
        for frac in enumerate_level(level):
            for b in (1.0, 1.05, 1.2, 1.5, 2.0, 2.5, 3.0):
                for side in strand_sides(frac):
                    evals.append([])
                    a = _strand_root(frac, side, b, DEFAULT)
                    assert evals[-1].count(frac.value) <= 1, (frac, side, b)
                    f, a0 = _strand_objective(frac, side, b), frac.value
                    r = abs(f(a0)) + 1e-9
                    want = bisect_root(f, a0 - r, a0 + r, DEFAULT.solver_tol)
                    assert abs(a - want) <= DEFAULT.solver_tol, (frac, side, b)
                    assert reference.strand_brackets_root(frac.p, frac.q, side, b, a), \
                        (frac, side, b)
    assert len(evals) == 448
    assert sum(map(len, evals)) / len(evals) <= 16.0


def test_strand_side_restrictions():
    assert [strand_sides(f) for f in (ZERO, HALF, ONE)] == [("R",), ("L", "R"), ("L",)]
    with pytest.raises(ValueError):
        strand_point(ZERO, "L", 1.5)
    with pytest.raises(ValueError):
        strand_point(ONE, "R", 1.5)


def test_trace_strand_rows():
    pts = trace_strand(HALF, "R", 1.0, 1.0, 2)
    assert all(abs(p.a - 0.5) < 1e-9 for p in pts)
    pts = trace_strand(ZERO, "R", 1.0, 2.0, 11)
    assert abs(pts[0].a) < 1e-9
    assert all(p.constraints_verified for p in pts)


def test_trace_strand_budget_admits_the_landmark_gap():
    # the 0/1 and 1/1 strands open with the landmark gap just above the
    # critical line: a first step of 0.068 in a while the gap moves 0.135
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for frac, side in ((ZERO, "R"), (ONE, "L")):
            trace_strand(frac, side, 1.0, 1.55, 25)


def test_constraints_verified_through_q8():
    # sampled below each fraction's own structures, where the bound-solved
    # point and the constrained locus coincide
    for frac in (HALF, Frac(1, 3), Frac(2, 5), Frac(3, 8), Frac(3, 7)):
        for side in ("L", "R"):
            for b in (1.05, 1.15, 1.3):
                sp = strand_point(frac, side, b)
                assert sp.constraints_verified, (frac, side, b, sp.constraint_report)
    for side in ("L", "R"):
        for b in (1.4, 1.7, 2.0):
            assert strand_point(HALF, side, b).constraints_verified


def test_strand_above_parent_tip_rides_and_is_flagged():
    # above the tip of its right parent 2/5, the 8-step bound equation closes
    # through a plateau and lands on the 1/3 strand; the point is kept but
    # the avoidance flags record that it has left the constrained locus
    sp = strand_point(Frac(3, 8), "R", 1.6)
    assert not sp.constraints_verified
    assert "avoidance" in sp.constraint_report
    assert abs(sp.a - strand_point(Frac(1, 3), "R", 1.6).a) < 1e-9


def test_b_point_anchors():
    assert b_point(ZERO) == pytest.approx((0.0, 1.0), abs=1e-10)
    assert b_point(ONE) == pytest.approx((1.0, 1.0), abs=1e-10)
    assert b_point(HALF) == pytest.approx((0.5, 1.0), abs=1e-10)


def test_b_point_checks_the_cap():
    for frac, num in ((Frac(1, 200), DEFAULT), (Frac(1, 3), Config(q_cap=2))):
        with pytest.raises(ValueError, match=f"denominator {frac.q} exceeds cap {num.q_cap}"):
            b_point(frac, num)


def test_web_caches_share_call_forms():
    for fn in (b_point, tip_by_intersection):
        fn(HALF)
        before = fn.cache_info()
        assert fn(HALF, DEFAULT) is fn(HALF, num=DEFAULT) is fn(HALF)
        after = fn.cache_info()
        assert (after.misses, after.hits) == (before.misses, before.hits + 3)


def test_strands_anchor_at_b_point():
    for frac in (HALF, Frac(1, 3), Frac(2, 3), Frac(2, 5), Frac(3, 8), Frac(3, 7)):
        a_anchor, _ = b_point(frac)
        for side in ("L", "R"):
            sp = strand_point(frac, side, SINE.b_critical)
            assert abs(sp.a - a_anchor) < 1e-9


def test_tip_methods_agree_for_half():
    tw = tip_by_width(HALF)
    ti = tip_by_intersection(HALF)
    assert abs(tw.a - ti.a) < 1e-6
    assert abs(tw.b - ti.b) < 1e-6
    assert abs(ti.a - 0.5) < 1e-8
    assert ti.residual < 1e-8


def test_tip_methods_agree_at_a_tie():
    # near the 4/9 tip the locking width changes by only about 6e-12 per b_tol
    # of b, a few solver_tol, yet the two methods must agree to b_tol
    frac = Frac(4, 9)
    tw, ti = tip_by_width(frac), tip_by_intersection(frac)
    assert abs(tw.b - ti.b) <= DEFAULT.b_tol
    assert abs(tw.a - ti.a) <= 1e-9


def test_tip_by_intersection_checks_the_cap_first():
    # so does the width search, which no longer calls a capped objective
    for tip in (tip_by_intersection, tip_by_width):
        with pytest.raises(ValueError, match="exceeds cap"):
            tip(Frac(3, 8), Config(q_cap=5, b_ceiling=1.0 + 1e-9))


def test_twist_cycles_pair_inside_locking():
    cycles = twist_cycles(FamilyParams(0.02, 0.5), BoundSide.LOWER, ZERO)
    assert len(cycles) == 2
    assert {c.crossing for c in cycles} == {1, -1}
    # displacement a + (b/2pi) sin(2pi x) vanishes at the two analytic roots
    want = math.asin(-0.02 * TWO_PI / 0.5) / TWO_PI
    pts = sorted(p for c in cycles for p in c.points)
    assert abs(pts[0] - (0.5 - want) % 1.0) < 1e-9 or abs(pts[0] - want % 1.0) < 1e-9


def test_twist_cycles_tangency_single():
    a_tan = boundary("phi1", ZERO, 0.5)
    cycles = twist_cycles(FamilyParams(a_tan, 0.5), BoundSide.RAW, ZERO)
    assert len(cycles) == 1
    assert cycles[0].crossing == 0
    assert abs(cycles[0].points[0] - 0.75) < 1e-4


def test_twist_cycles_at_critical_anchor():
    cycles = twist_cycles(FamilyParams(0.5, 1.0), BoundSide.RAW, HALF)
    assert len(cycles) == 2
    with_half = [c for c in cycles if any(abs(p - 0.5) < 1e-9 for p in c.points)]
    assert len(with_half) == 1
    assert with_half[0].points == pytest.approx((0.0, 0.5), abs=1e-9)
    assert sum(with_half[0].lift_increments) == 1
    other = next(c for c in cycles if c is not with_half[0])
    assert other.crossing == 1 and with_half[0].crossing == -1


def test_twist_cycle_pair_interleaves():
    # two coexisting twist cycles alternate around the circle
    for params, frac in ((FamilyParams(0.5, 1.0), HALF),
                         (FamilyParams(0.02, 0.5), ZERO),
                         (FamilyParams(0.497, 1.2), HALF)):
        cycles = twist_cycles(params, BoundSide.RAW, frac)
        if len(cycles) != 2:
            continue
        merged = sorted((p, i) for i, c in enumerate(cycles) for p in c.points)
        owners = [i for _, i in merged]
        assert all(o1 != o2 for o1, o2 in zip(owners, owners[1:]))


@pytest.mark.parametrize("frac", [Frac(1, 3), Frac(2, 5), Frac(3, 8), Frac(5, 13)], ids=str)
@pytest.mark.parametrize("side", list(BoundSide), ids=lambda s: s.value)
def test_twist_cycle_pair_mid_locking(frac, side):
    # raw map below the critical line, bounds halfway up to the tip; a sits
    # mid-way between the two boundaries of that map's locking interval
    if side is BoundSide.RAW:
        b = 0.9
        lo, hi = boundary("phi2", frac, b), boundary("phi1", frac, b)
    else:
        b = 1.0 + (tip_by_width(frac).b - 1.0) / 2
        lo, hi = boundary("psi1", frac, b), boundary("psi2", frac, b)
    params = FamilyParams(0.5 * (lo + hi), b)
    cycles = twist_cycles(params, side, frac)
    assert len(cycles) == 2
    assert {c.crossing for c in cycles} == {1, -1}
    merged = sorted((x, i) for i, c in enumerate(cycles) for x in c.points)
    assert all(o1 != o2 for (_, o1), (_, o2) in zip(merged, merged[1:]))
    for c in cycles:
        assert len(c.points) == frac.q and sum(c.lift_increments) == frac.p
        for x in c.points:
            assert abs(SINE.iterate(params, side, x, frac.q) - x - frac.p) <= 1e-9


def test_grid_roots_zero_sample_once_and_falling_cells():
    xs = np.linspace(0.0, 1.0, 5)
    assert _grid_roots(lambda x: x - 0.5, xs, xs - 0.5, 1e-13) == [0.5]
    (root,) = _grid_roots(lambda x: 0.3 - x, xs, 0.3 - xs, 1e-13)
    assert abs(root - 0.3) <= 1e-13


def test_twist_cycles_root_in_the_last_grid_cell():
    # the fixed point 1 - eps lies between the last grid point and x = 1,
    # which only the periodic closure of the grid brackets
    b, eps = 0.5, 0.3 / (DEFAULT.grid_base + DEFAULT.grid_per_q)
    params = FamilyParams(b / TWO_PI * math.sin(TWO_PI * eps), b)
    cycles = twist_cycles(params, BoundSide.RAW, ZERO)
    assert len(cycles) == 2
    rising = next(c for c in cycles if c.crossing == 1)
    assert abs(rising.points[0] - (1.0 - eps)) < 1e-12


def test_strand_continued_above_tip_stays_between():
    # above the 1/2 tip the bound roots of deeper child strands merge; the
    # continued samples stay strictly ordered between them and the locking
    # edge
    from fareyweb.tongue import boundary
    b = tip_by_width(HALF).b + 0.1
    psi2 = boundary("psi2", HALF, b)
    l1 = strand_point(child(HALF, "R", 1), "L", b, method="continued")
    l2 = strand_point(child(HALF, "R", 2), "L", b, method="continued")
    l1_bound = strand_point(child(HALF, "R", 1), "L", b)
    assert l1.method == "continued" and l2.method == "continued"
    assert l1_bound.a < l1.a < l2.a < psi2


def test_continued_strand_grid_follows_the_config(monkeypatch):
    # the raw strand equation is sampled on twice the displacement grid at q
    frac, b = child(HALF, "R", 1), tip_by_width(HALF).b + 0.1
    sizes, original = [], SINE.iterate_grid

    def counted(a, *args):
        sizes.append(np.size(a))
        return original(a, *args)

    monkeypatch.setattr(SINE, "iterate_grid", counted)
    coarse = Config(grid_base=1024, grid_per_q=128)
    points = [strand_point(frac, "L", b, num, method="continued") for num in (DEFAULT, coarse)]
    assert sizes == [2 * (num.grid_base + num.grid_per_q * frac.q) for num in (DEFAULT, coarse)]
    assert all(p.method == "continued" for p in points)
    assert abs(points[0].a - points[1].a) <= DEFAULT.solver_tol


def test_twist_cycles_empty_outside_tongue():
    cycles = twist_cycles(FamilyParams(0.3, 0.2), BoundSide.RAW, ZERO)
    assert cycles == []


def _tip_cycle_cases(frac):
    rep = run_suite("tip_cycle", fracs=frac)
    assert rep.passed, rep.to_text()
    identities, gap, shifts = rep.cases[:2], rep.cases[2], rep.cases[3:]
    assert all(c.measured <= 1e-8 for c in identities)
    assert gap.threshold == 1e-6 and gap.measured <= 1e-6
    assert all(c.threshold == 1e-6 and 0.0 <= c.measured <= 1e-6 for c in shifts)
    return rep.cases


def test_verify_tip_cycle_half():
    cases = _tip_cycle_cases(HALF)
    assert cases[0].label.startswith("F^1(k_minus)") and cases[1].label.startswith("F^1(c_plus)")
    # the raw strand equations of the parents 0/1 and 1/1, read at the width tip
    assert [c.measured for c in cases[:2]] == [4.600653191744186e-12, 4.600542169441724e-12]


def test_verify_tip_cycle_third():
    cases = _tip_cycle_cases(Frac(1, 3))
    assert cases[0].label.startswith("F^1(k_minus)") and cases[1].label.startswith("F^2(c_plus)")
