import math

import pytest

from fareyweb.config import DEFAULT
from fareyweb.farey import Frac, child
from fareyweb.lift import SINE, TWO_PI, BoundSide, FamilyParams
from fareyweb.tongue import boundary, tip_by_width
from fareyweb.web import (b_point, strand_point, strand_sides, tip_by_intersection,
                          trace_strand, twist_cycles, verify_tip_cycle)

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


def test_twist_cycles_empty_outside_tongue():
    cycles = twist_cycles(FamilyParams(0.3, 0.2), BoundSide.RAW, ZERO)
    assert cycles == []


def test_verify_tip_cycle_half():
    rep = verify_tip_cycle(tip_by_width(HALF))
    assert rep.passed
    assert rep.q1 == rep.q2 == 1
    assert rep.residual_right < 1e-8 and rep.residual_left < 1e-8


def test_verify_tip_cycle_third():
    rep = verify_tip_cycle(tip_by_width(Frac(1, 3)))
    assert rep.passed
    assert (rep.q1, rep.q2) == (1, 2)
