import math
import random
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fareyweb import rotation
from fareyweb.config import DEFAULT, Config
from fareyweb.farey import Frac
from fareyweb.lift import SINE, TWO_PI, BoundSide, FamilyParams
from fareyweb.rotation import (displacement_extrema, lock_status,
                               orbit_averages, rot_interval)

import referee

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))  # perfbench


def test_rho_fixed_point_family():
    # sin vanishes at 0, so a = 0 pins a fixed point and rho = 0
    ri = rot_interval(FamilyParams(0.0, 1.0), Config(rot_tol=1e-4))
    assert ri.lower.exact == ri.upper.exact == (0, 1)


def test_rho_monotone_in_translation():
    # the rotation number of the lower bound is non-decreasing in a
    encs = [rot_interval(FamilyParams(a, 1.6), Config(rot_tol=1e-4)).lower
            for a in (0.1, 0.2, 0.3)]
    for e1, e2 in zip(encs, encs[1:]):
        assert e2.lo >= e1.lo - 1e-4
        assert e2.hi >= e1.lo


def test_rot_interval_invertible_is_degenerate():
    ri = rot_interval(FamilyParams(0.25, 0.5), Config(rot_tol=1e-4))
    assert ri.upper.hi - ri.lower.lo <= 2.1e-4


def test_rot_interval_translation_by_one():
    ri0 = rot_interval(FamilyParams(0.3, 1.6), Config(rot_tol=1e-4))
    ri1 = rot_interval(FamilyParams(1.3, 1.6), Config(rot_tol=1e-4))
    assert abs(ri1.lower.lo - ri0.lower.lo - 1.0) < 1e-9
    assert abs(ri1.upper.hi - ri0.upper.hi - 1.0) < 1e-9
    # F_{a+k} = F_a + k shifts rho by exactly k: the same descent, on a - k,
    # serves any k, and only the rounding of the shifted ends grows with k
    for num, b in ((Config(rot_tol=1e-4), 1.6), (DEFAULT, 0.5)):
        for k in (10**7, 10**10):
            a = k + 0.3
            ri0 = rot_interval(FamilyParams(a - k, b), num)  # a - k is exact
            rik = rot_interval(FamilyParams(a, b), num)
            for e0, ek in ((ri0.lower, rik.lower), (ri0.upper, rik.upper)):
                assert ek.iterations == e0.iterations
                assert ek.exact == (e0.exact and (e0.exact[0] + k * e0.exact[1], e0.exact[1]))
                assert abs(ek.lo - e0.lo - k) <= math.ulp(k) + 1e-9
                assert abs(ek.hi - e0.hi - k) <= math.ulp(k) + 1e-9
                assert ek.width <= num.rot_tol, (k, b, ek)


def test_rot_interval_odd_symmetry():
    # conjugating by x -> -x negates rotation numbers and swaps the endpoints
    for a in (0.0, 0.21):
        ri_pos = rot_interval(FamilyParams(a, 1.9), Config(rot_tol=1e-5))
        ri_neg = rot_interval(FamilyParams(-a, 1.9), Config(rot_tol=1e-5))
        assert abs(ri_pos.lower.mid + ri_neg.upper.mid) < 1e-4
        assert abs(ri_pos.upper.mid + ri_neg.lower.mid) < 1e-4


def test_rot_interval_snaps_locked_origin():
    ri = rot_interval(FamilyParams(0.0, 2.0), Config(rot_tol=1e-4))
    assert ri.lower.exact == (0, 1)
    assert ri.upper.exact == (0, 1)
    assert ri.width == 0.0


def test_snap_requires_sign_certificate():
    # a around the 0/1 boundary: the enclosure may hug 0 but must not snap
    b = 0.5
    a_edge = b / TWO_PI  # exact right edge of the 0-locking interval
    ri = rot_interval(FamilyParams(a_edge + 1e-3, b), Config(rot_tol=1e-5))
    assert ri.lower.exact is None or ri.lower.exact != (0, 1)


def _orbit_enclosure(params, side, n=10_000):
    """Intersection of the (d -+ 1)/n enclosures of 8 orbits of n steps.

    The scalar loop equals the array pass bit for bit
    (``test_iterate_grid_equals_scalar_iterate``) and is far cheaper at 8 starts.
    """
    d = [SINE.iterate(params, side, x, n) - x for x in np.arange(8) / 8.0]
    return max((v - 1.0) / n for v in d), min((v + 1.0) / n for v in d)


def _overlaps(enc, lo, hi):
    return enc.lo <= hi + 1e-12 and enc.hi >= lo - 1e-12


@given(st.floats(-0.5, 1.5), st.floats(0.0, 2.5))
@settings(max_examples=40, deadline=None, derandomize=True)
def test_rot_interval_against_orbits_and_lock_status(a, b):
    params = FamilyParams(a, b)
    ri = rot_interval(params, Config(rot_tol=1e-4))
    for side, enc in ((BoundSide.LOWER, ri.lower), (BoundSide.UPPER, ri.upper)):
        assert _overlaps(enc, *_orbit_enclosure(params, side)), (side, enc)
        # hi - lo rounds: a bracket of exact width 1e-4 reads 1.0000000000000286e-4
        assert enc.exact is not None or enc.width <= 1e-4 + 1e-15, (side, enc)
    for enc, other in ((ri.lower, ri.upper), (ri.upper, ri.lower)):
        if enc.exact is None:
            continue
        p, q = enc.exact
        k = p // q
        state = lock_status(params, Frac(p - k * q, q), k, Config(q_cap=q)).state
        if other.exact == enc.exact:
            assert state != "not_locked", (enc, state)
        elif not other.contains(p / q):
            assert state != "locked", (enc, other, state)


def test_rot_interval_snaps_only_within_q_cap():
    # rho = 1/2 here; a snap beyond q_cap would name a rational that
    # lock_status refuses at the same config
    params = FamilyParams(0.5, 0.8)
    assert rot_interval(params, Config(q_cap=1, rot_tol=1e-4)).lower.exact != (1, 2)
    assert rot_interval(params, Config(q_cap=2, rot_tol=1e-4)).lower.exact == (1, 2)


def test_rot_interval_cap_returns_wider_bracket():
    params = FamilyParams(0.1234, 0.7)
    enc = rot_interval(params, Config(rot_tol=1e-9, rot_max_iter=1000)).lower
    assert enc.iterations <= 1000
    assert enc.exact is None and enc.width > 1e-9
    assert _overlaps(enc, *_orbit_enclosure(params, BoundSide.LOWER))


def test_rot_interval_one_descent_up_to_critical_line():
    for b in (0.0, 0.6, 1.0):
        ri = rot_interval(FamilyParams(0.3, b), Config(rot_tol=1e-5))
        assert ri.lower == ri.upper


def test_tie_snaps_only_when_certified(monkeypatch):
    # F(0) = 0 exactly: a tie at 0/1, certified by the sign test at b = 2
    # and not for the identity map, whose displacement never leaves zero;
    # an uncertified tie still ends at width rot_tol around its node
    tol = DEFAULT.rot_tol
    assert rot_interval(FamilyParams(0.0, 2.0)).lower.exact == (0, 1)
    ri = rot_interval(FamilyParams(0.0, 0.0))
    assert ri.lower.exact is None and ri.lower.contains(0.0) and ri.lower.width <= tol
    # a rigid rotation by the double nearest 1/3 ties at 1/3 after 3 steps
    ri = rot_interval(FamilyParams(1 / 3, 0.0))
    assert ri.lower.exact is None and ri.lower.contains(1 / 3) and ri.lower.width <= tol
    # with the sign test refusing, the certified tie yields no rational either
    monkeypatch.setattr(rotation, "_try_snap", lambda *args: None)
    enc = rot_interval(FamilyParams(0.0, 2.0)).lower
    assert enc.exact is None and enc.contains(0.0) and enc.width <= tol
    # under a step cap the closing orbit is shorter and the enclosure wider
    enc = rot_interval(FamilyParams(0.0, 0.0), Config(rot_max_iter=1000)).lower
    assert enc.iterations == 1000 and enc.contains(0.0) and tol < enc.width <= 2 / 999


#: repr of (lower, upper) of rot_interval at (a, b, rot_tol, rot_max_iter): the
#: twelve orbits-benchmark draws of seed 1, one b > 1 point at rot_tol 1e-4, and two
#: points where rot_max_iter binds (the second ends on its closing orbit).  The
#: descent must reproduce them exactly, step counts included.
PINNED_INTERVALS = {
    (0.050180459637834594, 0.5671821220562006, 1e-06, 10_000_000): (
        'Enclosure(lo=0.0, hi=0.0, iterations=9, exact=(0, 1))',
        'Enclosure(lo=0.0, hi=0.0, iterations=9, exact=(0, 1))'),
    (0.9449956651371225, 0.8818873094883071, 1e-06, 10_000_000): (
        'Enclosure(lo=1.0, hi=1.0, iterations=9, exact=(1, 1))',
        'Enclosure(lo=1.0, hi=1.0, iterations=9, exact=(1, 1))'),
    (0.5, 0.7477175435459704, 1e-06, 10_000_000): (
        'Enclosure(lo=0.5, hi=0.5, iterations=2, exact=(1, 2))',
        'Enclosure(lo=0.5, hi=0.5, iterations=2, exact=(1, 2))'),
    (0.0, 1.4595928518309904, 1e-06, 10_000_000): (
        'Enclosure(lo=0.0, hi=0.0, iterations=1, exact=(0, 1))',
        'Enclosure(lo=0.0, hi=0.0, iterations=1, exact=(0, 1))'),
    (0.5, 1.6212743781782102, 1e-06, 10_000_000): (
        'Enclosure(lo=0.5, hi=0.5, iterations=17, exact=(1, 2))',
        'Enclosure(lo=0.5, hi=0.5, iterations=17, exact=(1, 2))'),
    (1.0, 1.7309786809084104, 1e-06, 10_000_000): (
        'Enclosure(lo=1.0, hi=1.0, iterations=1, exact=(1, 1))',
        'Enclosure(lo=1.0, hi=1.0, iterations=1, exact=(1, 1))'),
    (0.0938595867742349, 0.3130461871069582, 1e-06, 10_000_000): (
        'Enclosure(lo=0.07985193019566367, hi=0.07985257985257985, iterations=1891, exact=None)',
        'Enclosure(lo=0.07985193019566367, hi=0.07985257985257985, iterations=1891, exact=None)'),
    (0.8357651039198697, 0.5949563151929022, 1e-06, 10_000_000): (
        'Enclosure(lo=0.8637770897832817, hi=0.8637780548628429, iterations=3208, exact=None)',
        'Enclosure(lo=0.8637770897832817, hi=0.8637780548628429, iterations=3208, exact=None)'),
    (0.43276706790505337, 0.4779551191140172, 1e-06, 10_000_000): (
        'Enclosure(lo=0.4313487241798299, hi=0.4313494401885681, iterations=1697, exact=None)',
        'Enclosure(lo=0.4313487241798299, hi=0.4313494401885681, iterations=1697, exact=None)'),
    (0.762280082457942, 0.4180799059133742, 1e-06, 10_000_000): (
        'Enclosure(lo=0.7699859747545582, hi=0.7699868938401049, iterations=1526, exact=None)',
        'Enclosure(lo=0.7699859747545582, hi=0.7699868938401049, iterations=1526, exact=None)'),
    (0.7215400323407826, 0.5946229912615603, 1e-06, 10_000_000): (
        'Enclosure(lo=0.7336357744653272, hi=0.7336363636363636, iterations=1543, exact=None)',
        'Enclosure(lo=0.7336357744653272, hi=0.7336363636363636, iterations=1543, exact=None)'),
    (0.22876222127045265, 0.5311569419492401, 1e-06, 10_000_000): (
        'Enclosure(lo=0.21531994395142456, hi=0.2153209109730849, iterations=2141, exact=None)',
        'Enclosure(lo=0.21531994395142456, hi=0.2153209109730849, iterations=2141, exact=None)'),
    (0.3, 1.8, 0.0001, 10_000_000): (
        'Enclosure(lo=0.1, hi=0.1, iterations=1001, exact=(1, 10))',
        'Enclosure(lo=0.2857142857142857, hi=0.2857142857142857, iterations=1432, exact=(2, 7))'),
    (0.1234, 0.7, 1e-09, 1000): (
        'Enclosure(lo=0.05381944444444445, hi=0.05382131324004306, iterations=929, exact=None)',
        'Enclosure(lo=0.05381944444444445, hi=0.05382131324004306, iterations=929, exact=None)'),
    (0.0, 0.0, 1e-06, 1000): (
        'Enclosure(lo=-0.001, hi=0.001, iterations=1000, exact=None)',
        'Enclosure(lo=-0.001, hi=0.001, iterations=1000, exact=None)'),
}


@pytest.mark.parametrize("case", list(PINNED_INTERVALS))
def test_rot_interval_pinned(case):
    a, b, rot_tol, rot_max_iter = case
    ri = rot_interval(FamilyParams(a, b), Config(rot_tol=rot_tol, rot_max_iter=rot_max_iter))
    assert (repr(ri.lower), repr(ri.upper)) == PINNED_INTERVALS[case]


def _walk_recorder(monkeypatch):
    """Log each (state, n, new state) that the descent asks ``SINE.advance`` for;
    ``_try_snap``'s own orbits and grid passes are not logged."""
    calls, snapping = [], []
    advance, try_snap = SINE.advance, rotation._try_snap

    def logged(params, side, state, n):
        out = advance(params, side, state, n)
        if not snapping:
            calls.append((state, n, out))
        return out

    def snap(*args):
        snapping.append(args)
        try:
            return try_snap(*args)
        finally:
            snapping.pop()

    monkeypatch.setattr(SINE, "advance", logged)
    monkeypatch.setattr(rotation, "_try_snap", snap)
    return calls


@pytest.mark.parametrize("case", list(PINNED_INTERVALS))
def test_iterations_are_the_steps_of_one_forward_orbit(monkeypatch, case):
    a, b, rot_tol, rot_max_iter = case
    num = Config(rot_tol=rot_tol, rot_max_iter=rot_max_iter)
    calls = _walk_recorder(monkeypatch)
    for side in (BoundSide.LOWER, BoundSide.UPPER):
        calls.clear()
        enc = rotation._descend(FamilyParams(a, b), side, num)
        # every piece resumes where the last one stopped: the orbit of 0 never restarts
        assert calls[0][0] == (0.0, 0.0)
        assert all(nxt[0] == prev[2] for prev, nxt in zip(calls, calls[1:]))
        assert enc.iterations == sum(n for _, n, _ in calls) <= rot_max_iter


def test_unsnapped_descents_end_on_farey_neighbours():
    rng = np.random.default_rng(5)
    budgets = [(1e-6, 10_000_000)] * 30 + [(1e-9, 300)] * 10
    for rot_tol, rot_max_iter in budgets:
        params = FamilyParams(float(rng.uniform(0.0, 1.0)), float(rng.uniform(0.0, 3.5)))
        ri = rot_interval(params, Config(rot_tol=rot_tol, rot_max_iter=rot_max_iter))
        for enc in (ri.lower, ri.upper):
            if enc.exact is not None:
                continue
            lo, hi = (Fraction(v).limit_denominator(10 ** 6) for v in (enc.lo, enc.hi))
            assert (float(lo), float(hi)) == (enc.lo, enc.hi), (params, enc)
            assert hi.numerator * lo.denominator - lo.numerator * hi.denominator == 1
            # wider than rot_tol only when the next mediant would pass the budget
            assert (enc.width <= rot_tol * (1 + 1e-9)
                    or lo.denominator + hi.denominator > rot_max_iter), (params, enc)


@pytest.mark.parametrize("a, b, exact, steps", [
    (0.05, 0.57, (0, 1), 1 + 8 * 1),   # from 1/1
    (0.34, 0.9, (1, 3), 2 + 8 * 3),    # from 1/2
    (0.66, 0.9, (2, 3), 2 + 8 * 3),    # from 1/2
    (0.25, 0.99, (1, 5), 4 + 8 * 5),   # from 1/4
])
def test_a_run_toward_a_locked_node_snaps_it(monkeypatch, a, b, exact, steps):
    params, num = FamilyParams(a, b), Config(rot_tol=1e-5)
    assert lock_status(params, Frac(*exact)).state == "locked"
    tried = []
    try_snap = rotation._try_snap
    monkeypatch.setattr(rotation, "_try_snap",
                        lambda *args: tried.append(args[2:4]) or try_snap(*args))
    enc = rotation._descend(params, BoundSide.LOWER, num)
    # the SNAP_RUN-th consecutive move toward the node hands it to the sign test
    assert rotation.SNAP_RUN == 8 and tried == [exact]
    assert enc.exact == exact and enc.iterations == steps
    # without the hand-over the walk creeps toward it until rot_tol
    monkeypatch.setattr(rotation, "SNAP_RUN", 10 ** 9)
    enc = rotation._descend(params, BoundSide.LOWER, num)
    assert enc.exact == exact and enc.iterations * exact[1] >= 1 / num.rot_tol


@pytest.mark.parametrize("side", list(BoundSide))
def test_disp_grid_equals_scalar_iterate(side):
    # the grid pass and golden refinement compare values from one arithmetic
    for b in (0.6, 1.0, 1.8):
        params = FamilyParams(0.37, b)
        for q in (1, 2, 5, 13):
            xs, g = rotation._disp_grid(params, side, 2, q, DEFAULT.grid)
            assert len(xs) == DEFAULT.grid[0] + DEFAULT.grid[1] * q
            want = [SINE.iterate(params, side, x, q) - x - 2 for x in xs.tolist()]
            assert g.tolist() == want, (b, q)


def test_displacement_extrema_identity_map():
    ext = displacement_extrema(FamilyParams(0, 0), BoundSide.RAW, Frac(0, 1))
    assert abs(ext.minimum) < 1e-14 and abs(ext.maximum) < 1e-14


def test_displacement_extrema_sine_min_at_three_quarters():
    b = 0.5
    ext = displacement_extrema(FamilyParams(b / TWO_PI, b), BoundSide.RAW, Frac(0, 1))
    assert abs(ext.minimum) < 1e-13
    assert abs(ext.argmin - 0.75) < 1e-6


def test_displacement_extrema_analytic_amplitudes():
    ext = displacement_extrema(FamilyParams(0, 1), BoundSide.RAW, Frac(0, 1))
    assert abs(ext.minimum + 1 / TWO_PI) < 1e-13
    assert abs(ext.maximum - 1 / TWO_PI) < 1e-13
    assert abs(ext.argmin - 0.75) < 1e-6
    assert abs(ext.argmax - 0.25) < 1e-6


def test_displacement_extrema_offset_translates():
    base = displacement_extrema(FamilyParams(0.3, 1.2), BoundSide.LOWER, Frac(1, 2))
    shifted = displacement_extrema(FamilyParams(1.3, 1.2), BoundSide.LOWER,
                                   Frac(1, 2), offset=1)
    assert abs(base.minimum - shifted.minimum) < 1e-10
    assert abs(base.maximum - shifted.maximum) < 1e-10


def test_displacement_cap():
    with pytest.raises(ValueError):
        displacement_extrema(FamilyParams(0, 1), BoundSide.RAW, Frac(1, 65), num=Config(q_cap=64))


def test_lock_status_examples():
    assert lock_status(FamilyParams(0.0, 0.5), Frac(0, 1)).state == "locked"
    assert lock_status(FamilyParams(0.25, 0.0), Frac(0, 1)).state == "not_locked"
    st = lock_status(FamilyParams(0.5, 1.0), Frac(1, 2))
    assert st.state == "locked" and st.frac == Frac(1, 2)


def _two_pass_lock_state(params, frac):
    p, q = frac.p, frac.q
    max_low, _ = rotation._disp_extremum(params, BoundSide.LOWER, p, q, "max", SINE,
                                         DEFAULT.grid, band=rotation.LOCK_BAND)
    min_up, _ = rotation._disp_extremum(params, BoundSide.UPPER, p, q, "min", SINE,
                                        DEFAULT.grid, band=rotation.LOCK_BAND)
    band = rotation.LOCK_BAND
    if max_low >= band and min_up <= -band:
        return "locked"
    return "not_locked" if max_low <= -band or min_up >= band else "uncertain"


def test_lock_status_one_pass_up_to_critical_line(monkeypatch):
    calls = []
    extremum = rotation._disp_extremum
    monkeypatch.setattr(rotation, "_disp_extremum",
                        lambda *args, **kw: calls.append(args) or extremum(*args, **kw))
    assert lock_status(FamilyParams(0.5, 0.8), Frac(1, 2)).state == "locked"
    assert len(calls) == 1
    monkeypatch.undo()
    states = set()
    for frac in (Frac(1, 2), Frac(2, 5)):
        for a in np.linspace(frac.value - 0.04, frac.value + 0.04, 8):
            for b in (0.25, 0.5, 0.75, 1.0):
                params = FamilyParams(float(a), b)
                state = lock_status(params, frac).state
                assert state == _two_pass_lock_state(params, frac), (frac, a, b)
                states.add(state)
    assert {"locked", "not_locked"} <= states


def test_lock_status_skips_the_upper_bound_when_the_lower_decides(monkeypatch):
    calls, grid = [], []
    bound_sign, extremum = rotation._bound_sign, rotation._disp_extremum
    monkeypatch.setattr(rotation, "_bound_sign",
                        lambda *args: calls.append(args) or bound_sign(*args))
    monkeypatch.setattr(rotation, "_disp_extremum",
                        lambda *args, **kw: grid.append(args) or extremum(*args, **kw))
    assert lock_status(FamilyParams(0.2, 1.5), Frac(1, 2)).state == "not_locked"
    # the lower corner orbit rules the lock out, so no grid pass runs
    assert [args[1] for args in calls] == [BoundSide.LOWER] and grid == []
    monkeypatch.undo()
    states = set()
    for frac in (Frac(1, 2), Frac(2, 5)):
        for a in np.linspace(frac.value - 0.06, frac.value + 0.06, 8):
            for b in (1.5, 2.0):
                params = FamilyParams(float(a), b)
                state = lock_status(params, frac).state
                assert state == _two_pass_lock_state(params, frac), (frac, a, b)
                states.add(state)
    assert {"locked", "not_locked"} <= states


@pytest.mark.parametrize("frac, a_lo, a_hi, b_lo, b_hi, centre", [
    (Frac(3, 8), 0.3, 0.45, 1.02, 1.6, 0.389),
    (Frac(2, 5), 0.3, 0.5, 1.05, 2.0, 0.408),
])
def test_corner_lock_verdicts_against_the_grid(monkeypatch, frac, a_lo, a_hi, b_lo, b_hi,
                                               centre):
    grid = []
    extremum = rotation._disp_extremum
    monkeypatch.setattr(rotation, "_disp_extremum",
                        lambda *args, **kw: grid.append(args[0]) or extremum(*args, **kw))
    # a 12x12 window, and a band of finer columns across its thin tongue
    columns = np.union1d(np.linspace(a_lo, a_hi, 12), np.linspace(centre - 0.01, centre + 0.01, 9))
    cells = [FamilyParams(float(a), float(b)) for b in np.linspace(b_lo, b_hi, 12)
             for a in columns]
    states = [lock_status(params, frac).state for params in cells]
    decided = [params not in grid for params in cells]
    monkeypatch.undo()
    for params, state in zip(cells, states):
        reference = _two_pass_lock_state(params, frac)
        assert reference == "uncertain" or state == reference, (params, state, reference)
    assert {"locked", "not_locked"} <= set(states)
    assert sum(decided) >= 0.95 * len(cells)


def test_orbit_snaps_are_grid_straddles(monkeypatch):
    # a grid pass that never certifies leaves only the orbit test's snaps,
    # each of which a direct grid pass must confirm
    extremum = rotation._disp_extremum
    monkeypatch.setattr(rotation, "_disp_extremum",
                        lambda *args, **kw: rotation.Extrema(0.0, 0.0, 0.0, 0.0))
    fracs = [Frac(p, q) for q in range(1, 6) for p in range(q + 1) if math.gcd(p, q) == 1]
    cases = [(FamilyParams(a, b), side) for a in (0.0, 0.5, 1.0, 0.3, 0.62)
             for b in (0.4, 0.8, 1.1, 1.3, 1.5, 1.7, 1.9)
             for side in (BoundSide.LOWER, BoundSide.UPPER)]
    snaps = []
    for params, side in cases:
        t = SINE.advance(params, side, (0.0, 0.0), 16)[0]  # a point of the orbit of 0
        snaps += [(params, side, frac) for frac in fracs
                  if rotation._try_snap(params, side, frac.p, frac.q, t, DEFAULT)]
    monkeypatch.undo()
    # the centres of the 0/1, 1/2 and 1/1 locking intervals snap on both sides
    centres = {(params.a, params.b, side) for params, side, frac in snaps
               if frac.value == params.a}
    assert len(centres) == 3 * 7 * 2
    for params, side, frac in snaps:
        ext = extremum(params, side, frac.p, frac.q, "both", SINE, DEFAULT.grid)
        assert ext.minimum <= -1e-12 and ext.maximum >= 1e-12, (params, side, frac, ext)


#: Locks whose cycle attracts weakly: two fixed points of multiplier about
#: 0.97, certified only by the wider straddles after 32 cycles, and an 11/12
#: cycle whose g > 0 only on a window of 1.6e-3 beside it.
WEAK_LOCKS = {
    (0.013246721495275615, 0.08825024849290952): (0, 1),
    (0.00517282028089916, 0.03492538908360021): (0, 1),
    (0.8520251502585062, 0.7752084820987564): (11, 12),
}
#: Locks just inside a tongue edge that the orbit test misses and the grid
#: pass certifies: the orbit of 0 has not reached the cycle after 32 more
#: cycles, or g < 0 only on a window between two eps.
EDGE_LOCKS = {
    (0.003317945203006545, 0.020853117460227888): (0, 1),
    (0.9650416905801555, 0.22001073757838252): (1, 1),
    (0.6306902631702648, 2.0329590488878626): (1, 2),
    (0.2578874065451787, 0.46453279839348716): (1, 4),
}


def test_a_lock_below_the_critical_line_snaps_without_a_grid_pass(monkeypatch):
    def no_grid(*args, **kw):
        raise AssertionError("grid pass")

    monkeypatch.setattr(rotation, "_disp_extremum", no_grid)
    # each descent tries only the node it snaps; the 11/12 one fails at 1/1 first
    fixed_points = [(point, exact) for point, exact in WEAK_LOCKS.items() if exact[1] == 1]
    for (a, b), exact in [((0.05, 0.57), (0, 1)), ((0.34, 0.9), (1, 3)), *fixed_points]:
        ri = rot_interval(FamilyParams(a, b))
        assert ri.lower.exact == ri.upper.exact == exact, (a, b, ri)


def test_the_grid_pass_certifies_what_the_orbit_test_misses():
    for (a, b), exact in EDGE_LOCKS.items():
        assert rot_interval(FamilyParams(a, b)).lower.exact == exact, (a, b)


def _exact_points():
    """300 points: b = 1 and b = 1 + 1e-9 (20 each), 130 below the critical line,
    123 above it, then ``WEAK_LOCKS`` and ``EDGE_LOCKS``."""
    rng = random.Random(11)
    heights = ([1.0] * 20 + [1.0 + 1e-9] * 20 + [rng.uniform(0.0, 1.0) for _ in range(130)]
               + [rng.uniform(1.0, 3.5) for _ in range(123)])
    return ([(rng.uniform(-0.5, 1.5), b) for b in heights]
            + list(WEAK_LOCKS) + list(EDGE_LOCKS))


#: "lower upper" exact ends of rot_interval at the default configuration on
#: ``_exact_points()``, "-" for none, recorded when the grid pass certified
#: every snap.
PINNED_EXACTS = """
    -6/13 -6/13   - -   0/1 0/1   - -   -2/5 -2/5   94/117 94/117   - -   21/26 21/26
    - -   1/1 1/1   - -   1/1 1/1   0/1 0/1   6/13 6/13   0/1 0/1   -1/2 -1/2
    37/82 37/82   1/1 1/1   0/1 0/1   0/1 0/1   1/9 1/9   1/1 1/1   13/25 13/25   13/17 13/17
    1/1 1/1   1/4 1/4   1/1 1/1   9/7 9/7   - -   4/3 4/3   1/1 1/1   - -
    2/5 2/5   4/5 4/5   - -   - -   2/3 2/3   107/88 107/88   1/1 1/1   11/8 11/8
    - -   - -   0/1 0/1   1/1 1/1   - -   - -   - -   0/1 0/1
    - -   - -   - -   - -   - -   - -   - -   - -
    1/8 1/8   - -   - -   - -   - -   - -   - -   - -
    - -   - -   - -   - -   - -   - -   - -   - -
    1/1 1/1   - -   - -   - -   1/2 1/2   - -   - -   0/1 0/1
    - -   - -   1/1 1/1   - -   - -   - -   - -   - -
    - -   - -   - -   - -   - -   - -   7/13 7/13   - -
    - -   - -   1/2 1/2   - -   - -   - -   1/2 1/2   - -
    - -   - -   - -   - -   - -   - -   - -   - -
    - -   0/1 0/1   - -   - -   - -   - -   - -   - -
    0/1 0/1   0/1 0/1   - -   4/3 4/3   - -   1/1 1/1   - -   - -
    - -   1/1 1/1   - -   - -   - -   - -   1/1 1/1   - -
    - -   0/1 0/1   - -   - -   - -   - -   - -   - -
    - -   0/1 0/1   - -   - -   - -   - -   - -   - -
    0/1 0/1   1/1 1/1   - -   - -   0/1 0/1   - -   - -   - -
    - -   - -   - -   0/1 0/1   - -   0/1 0/1   - -   - -
    - -   1/1 1/1   -2/11 -3/17   1/5 1/4   1/1 1/1   -4/5 0/1   0/1 0/1   1/1 1/1
    1/1 3/2   7/5 3/2   -8/35 -5/22   1/2 1/2   1/1 1/1   1/2 1/2   1/1 1/1   0/1 0/1
    -1/2 0/1   -1/4 -5/24   -1/2 -1/3   1/3 1/1   0/1 1/1   1/2 1/1   0/1 0/1   0/1 0/1
    0/1 0/1   20/19 20/19   3/2 3/2   1/1 3/2   -1/2 0/1   -2/3 0/1   7/5 7/5   1/9 1/2
    1/1 1/1   0/1 0/1   1/3 1/2   0/1 1/1   1/3 1/3   2/3 1/1   -2/3 -2/13   1/1 1/1
    1/1 1/1   0/1 0/1   0/1 5/8   1/1 1/1   1/11 1/3   0/1 0/1   -1/4 0/1   1/6 1/1
    -1/2 -1/3   1/1 3/2   1/1 1/1   1/1 1/1   1/1 7/6   1/1 1/1   0/1 2/5   3/5 1/1
    1/2 1/2   5/4 5/3   1/1 1/1   0/1 0/1   1/1 3/2   1/1 1/1   1/1 1/1   1/1 1/1
    0/1 1/3   1/1 3/2   6/5 6/5   1/1 1/1   1/1 1/1   1/1 1/1   0/1 1/3   1/1 1/1
    -1/2 0/1   0/1 0/1   1/5 1/2   -1/1 0/1   0/1 0/1   36/43 67/80   7/8 1/1   0/1 0/1
    4/3 7/5   1/1 1/1   0/1 1/3   1/1 1/1   13/25 6/7   1/4 1/1   0/1 1/4   4/3 5/3
    1/1 1/1   1/1 1/1   1/1 1/1   1/1 13/7   -4/5 0/1   3/4 1/1   1/1 1/1   0/1 0/1
    1/4 1/4   -1/2 -1/5   0/1 0/1   0/1 1/2   -1/2 0/1   0/1 0/1   7/6 17/13   3/5 2/3
    1/2 5/8   11/8 3/2   2/3 2/3   3/2 3/2   4/5 1/1   1/1 1/1   -1/3 -2/9   1/2 1/1
    1/1 1/1   -1/2 -1/4   4/3 4/3   -2/35 -7/124   0/1 3/4   0/1 0/1   1/4 5/7   2/3 1/1
    -3/7 -4/13   1/1 3/2   1/3 1/3   1/2 1/2   2/3 1/1   0/1 0/1   0/1 0/1   11/12 11/12
    0/1 0/1   1/1 1/1   1/2 4/5   1/4 1/4
""".split()


def test_exact_ends_pinned():
    got = []
    for a, b in _exact_points():
        ri = rot_interval(FamilyParams(a, b))
        got += ["-" if e.exact is None else f"{e.exact[0]}/{e.exact[1]}"
                for e in (ri.lower, ri.upper)]
    assert got == PINNED_EXACTS


def _orbits_draws(seeds):
    """The rot_interval points of the orbits benchmark workload of each seed."""
    from perfbench import workloads
    return [(op.key.a, op.key.b) for seed in seeds
            for op in workloads.Orbits(random.Random(seed), Path("unused")).ops
            if op.kind == "rot_interval"]


def test_every_exact_end_is_a_fifty_digit_straddle():
    # the referee finds its own pair of points where the 50-digit displacement
    # of the bound takes both signs, so the bound has a periodic orbit p/q
    cases = [(a, b, DEFAULT) for a, b in _orbits_draws(range(1, 6))]
    cases += [(a, b, Config(rot_tol=tol, rot_max_iter=cap))
              for a, b, tol, cap in PINNED_INTERVALS]
    cases += [(a, b, DEFAULT) for a, b in [*WEAK_LOCKS, *EDGE_LOCKS]]
    checked = 0
    for a, b, num in cases:
        ri = rot_interval(FamilyParams(a, b), num)
        for side, enc in ((BoundSide.LOWER, ri.lower), (BoundSide.UPPER, ri.upper)):
            if enc.exact is None or (side is BoundSide.UPPER and b <= 1.0):
                continue
            p, q = enc.exact
            assert referee.straddle(a, b, side.value, p, q) is not None, (a, b, side, enc)
            checked += 1
    assert checked >= 60


def test_lock_status_interval_matches_analytic_edges():
    b = 0.5
    edge = b / TWO_PI
    assert lock_status(FamilyParams(edge - 1e-6, b), Frac(0, 1)).state == "locked"
    assert lock_status(FamilyParams(edge + 1e-6, b), Frac(0, 1)).state == "not_locked"
    assert lock_status(FamilyParams(edge, b), Frac(0, 1)).state == "uncertain"


def test_iterate_against_high_precision_reference():
    # the reduced-argument iteration tracks a 50-digit orbit to ~1e-10 over
    # a thousand steps for these mildly expanding parameters
    rng = np.random.default_rng(17)
    for _ in range(10):
        a = float(rng.uniform(-0.5, 1.5))
        b = float(rng.uniform(0.0, 1.05))
        x0 = float(rng.uniform(0.0, 1.0))
        n = 1000
        got = SINE.iterate(FamilyParams(a, b), BoundSide.RAW, x0, n)
        assert abs(got - float(referee.orbit(a, b, "raw", x0, n))) < 1e-9


def test_fact4_containment_sampled():
    # quick version of the acceptance criterion: orbit averages stay inside
    rng = np.random.default_rng(42)
    for _ in range(5):
        params = FamilyParams(rng.uniform(-0.5, 1.5), rng.uniform(1.0, 2.0) + 1e-9)
        ri = rot_interval(params, Config(rot_tol=1e-4))
        starts = rng.uniform(0.0, 1.0, 16)
        avgs = orbit_averages(params, starts, 3000)
        assert avgs.min() >= ri.lower.lo - 1e-3
        assert avgs.max() <= ri.upper.hi + 1e-3
