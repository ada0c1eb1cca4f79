import math

import numpy as np
import pytest

from fareyweb import lift
from fareyweb.lift import SINE, TWO_PI, BoundSide, FamilyParams, _sine_landmarks

import referee


def g0(b, x):
    return x + b / TWO_PI * math.sin(TWO_PI * x)


def test_eval_examples():
    assert SINE.eval(FamilyParams(0, 0), 0.3) == 0.3
    assert SINE.eval(FamilyParams(0.25, 0), 0.0) == 0.25
    assert abs(SINE.eval(FamilyParams(0, 1), 0.5) - 0.5) < 1e-15


def test_family_params_rejects_non_finite():
    for a, b, field in ((math.inf, 0.5, "a"), (-math.inf, 0.5, "a"), (math.nan, 0.5, "a"),
                        (0.3, math.nan, "b"), (0.3, math.inf, "b"), (0.3, -1.0, "b")):
        with pytest.raises(ValueError, match=f"^{field} must be"):
            FamilyParams(a, b)
    assert FamilyParams(-1e300, 0.0).b == 0.0


def test_eval_accepts_arrays():
    xs = np.linspace(0, 2, 17)
    params = FamilyParams(0.3, 1.4)
    vals = SINE.eval(params, xs)
    assert vals.shape == xs.shape
    assert vals[0] == SINE.eval(params, 0.0)


def test_degree_one_identity_on_grid():
    rng = np.random.default_rng(3)
    xs = np.linspace(-1.0, 2.0, 1024)
    for _ in range(20):
        params = FamilyParams(rng.uniform(-1, 1), rng.uniform(0, 2.5))
        err = np.abs(SINE.eval(params, xs + 1.0) - SINE.eval(params, xs) - 1.0)
        assert err.max() < 1e-12


def test_translation_and_monotone_in_a():
    xs = np.linspace(0, 1, 257)
    lo = SINE.eval(FamilyParams(0.1, 1.7), xs)
    hi = SINE.eval(FamilyParams(0.3, 1.7), xs)
    assert np.allclose(hi - lo, 0.2, atol=1e-14)
    assert np.all(hi > lo)


def test_landmarks_critical_and_closed_form():
    lm = SINE.landmarks(1.0)
    assert lm.c == lm.k == lm.k_minus == lm.c_plus == 0.5
    assert lm.degenerate
    lm2 = SINE.landmarks(2.0)
    assert abs(lm2.c - 1.0 / 3.0) < 1e-12
    assert abs(lm2.k - 2.0 / 3.0) < 1e-12
    with pytest.raises(ValueError):
        SINE.landmarks(0.8)


def bisect_companion(b, target, lo, hi):
    # independent solver for g0(x) = target on an increasing branch
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if g0(b, mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("b", [1.1, 1.5, 2.0, 2.5, 3.0, 4.0])
def test_landmark_companions_and_ordering(b):
    lm = SINE.landmarks(b)
    assert 0 < lm.k_minus <= lm.c <= lm.k <= lm.c_plus < 1
    assert abs(g0(b, lm.k_minus) - g0(b, lm.k)) < 1e-12
    assert abs(g0(b, lm.c_plus) - g0(b, lm.c)) < 1e-12
    # cross-check against a hand-rolled bisection on the same branches
    assert abs(lm.k_minus - bisect_companion(b, g0(b, lm.k), 0.0, lm.c)) < 1e-10
    assert abs(lm.c_plus - bisect_companion(b, g0(b, lm.c), lm.k, 1.0)) < 1e-10


@pytest.mark.parametrize("b", [1.01, 1.1, 1.5, 2.0, 2.5, 3.0, 4.0])
def test_landmarks_against_fifty_digits(b):
    lm = _sine_landmarks.__wrapped__(b)  # bypasses the cache
    assert abs(lm.k_minus - float(referee.landmarks(b)[2])) <= 1e-13
    assert lm.c_plus == 1.0 - lm.k_minus  # g(1 - x) = 1 - g(x) and k = 1 - c


def test_landmarks_evaluation_budget(monkeypatch):
    # each evaluation of g takes one sine; 16 per landmark set at most
    sines, sin = [], math.sin
    monkeypatch.setattr(math, "sin", lambda x: sines.append(x) or sin(x))
    rng = np.random.default_rng(17)
    for b in rng.uniform(1.01, 4.0, 200):
        sines.clear()
        _sine_landmarks.__wrapped__(float(b))
        assert len(sines) <= 16, b


def test_bound_eval_examples():
    p = FamilyParams(0.0, 0.5)
    assert SINE.bound_eval(p, BoundSide.LOWER, 0.3) == SINE.eval(p, 0.3)
    p2 = FamilyParams(0.0, 2.0)
    lm = SINE.landmarks(2.0)
    assert SINE.bound_eval(p2, BoundSide.LOWER, lm.k) == SINE.eval(p2, lm.k)
    mid = 0.5 * (lm.k_minus + lm.k)
    assert abs(SINE.bound_eval(p2, BoundSide.LOWER, mid) - SINE.eval(p2, lm.k)) < 1e-15
    mid_u = 0.5 * (lm.c + lm.c_plus)
    assert abs(SINE.bound_eval(p2, BoundSide.UPPER, mid_u) - SINE.eval(p2, lm.c)) < 1e-15


def test_bound_eval_is_one_iterate_step():
    # bit for bit, also where the image is negative and where x lies outside [0, 1)
    rng = np.random.default_rng(18)
    negative = outside = 0
    for b in (0.5, 1.0, 1.5, 2.5):
        for side in BoundSide:
            for a, x in zip(rng.uniform(-1.0, 1.0, 500), rng.uniform(-3.0, 3.0, 500)):
                params = FamilyParams(float(a), b)
                want = SINE.iterate(params, side, float(x), 1)
                got = SINE.bound_eval(params, side, float(x))
                assert repr(got) == repr(want), (params, side, x)
                negative += want < 0.0
                outside += not 0.0 <= x < 1.0
    assert negative > 1000 and outside > 1000


@pytest.mark.parametrize("b", [1.3, 2.0])
def test_bounds_sandwich_and_monotone(b):
    params = FamilyParams(0.37, b)
    xs = np.linspace(0, 1, 4096, endpoint=False)
    raw = SINE.eval(params, xs)
    low = SINE.iterate_array(params, BoundSide.LOWER, xs, 1)
    up = SINE.iterate_array(params, BoundSide.UPPER, xs, 1)
    assert np.all(low <= raw + 1e-14)
    assert np.all(raw <= up + 1e-14)
    assert np.all(np.diff(low) >= -1e-12)
    assert np.all(np.diff(up) >= -1e-12)
    # degree one survives truncation
    assert np.allclose(SINE.iterate_array(params, BoundSide.LOWER, xs + 1.0, 1), low + 1.0,
                       atol=1e-12)


def test_bound_translation_in_a():
    xs = np.linspace(0, 1, 513)
    for side in (BoundSide.LOWER, BoundSide.UPPER):
        shifted = SINE.iterate_array(FamilyParams(0.4, 1.8), side, xs, 1)
        base = SINE.iterate_array(FamilyParams(0.0, 1.8), side, xs, 1)
        assert np.allclose(shifted, base + 0.4, atol=1e-14)


def test_delta_values():
    assert SINE.delta(0.5) == 0.0
    assert SINE.delta(1.0) == 0.0
    want = -1.0 / 3.0 + math.sqrt(3.0) / math.pi
    assert abs(SINE.delta(2.0) - want) < 1e-12
    bs = [1.0, 1.2, 1.5, 2.0, 2.5, 3.0]
    deltas = [SINE.delta(b) for b in bs]
    assert all(d2 > d1 for d1, d2 in zip(deltas, deltas[1:]) if d1 > 0 or d2 > 0)


def test_delta_matches_grid_supremum():
    for b in (1.4, 2.2):
        params = FamilyParams(0.0, b)
        xs = np.linspace(0, 1, 20000, endpoint=False)
        gap = (SINE.iterate_array(params, BoundSide.UPPER, xs, 1)
               - SINE.iterate_array(params, BoundSide.LOWER, xs, 1))
        assert abs(gap.max() - SINE.delta(b)) < 1e-9


def test_schwarzian_values():
    assert abs(SINE.schwarzian(FamilyParams(0, 1), 0.0) + 2.0 * math.pi**2) < 1e-9
    assert SINE.schwarzian(FamilyParams(0.4, 0), 0.123) == 0.0
    with pytest.raises(ZeroDivisionError):
        SINE.schwarzian(FamilyParams(0, 1.5), SINE.landmarks(1.5).c)


@pytest.mark.parametrize("b", [1.2, 2.0])
def test_schwarzian_negative_off_turning_points(b):
    params = FamilyParams(0.0, b)
    for i in range(1024):
        x = i / 1024
        if abs(SINE.derivative(params, x, 1)) > 1e-6:
            assert SINE.schwarzian(params, x) < 0.0


def test_iterate_examples():
    assert abs(SINE.iterate(FamilyParams(1/3, 0), BoundSide.RAW, 0.0, 3) - 1.0) < 1e-12
    assert abs(SINE.iterate(FamilyParams(0.5, 1), BoundSide.RAW, 0.5, 2) - 1.5) < 1e-12
    with pytest.raises(ValueError):
        SINE.iterate(FamilyParams(0, 1), BoundSide.RAW, 0.0, 0)


def test_iterate_lower_below_raw():
    rng = np.random.default_rng(5)
    for _ in range(10):
        params = FamilyParams(rng.uniform(-0.5, 0.5), rng.uniform(1.0, 2.4))
        x = rng.uniform(0, 1)
        n = rng.integers(1, 12)
        low = SINE.iterate(params, BoundSide.LOWER, x, int(n))
        raw = SINE.iterate(params, BoundSide.RAW, x, int(n))
        up = SINE.iterate(params, BoundSide.UPPER, x, int(n))
        assert low <= raw + 1e-12 <= up + 2e-12


def test_iterate_matches_array_version():
    params = FamilyParams(0.21, 1.9)
    xs = np.linspace(0, 1, 7, endpoint=False)
    for side in BoundSide:
        batch = SINE.iterate_array(params, side, xs, 9)
        single = [SINE.iterate(params, side, float(x), 9) for x in xs]
        assert batch.tolist() == single


def test_iterate_grid_equals_scalar_iterate():
    # a along one axis and b along the other; rows below, on, just above and
    # well above the critical line
    a = np.array([[-0.7, -0.1, 0.0, 0.23, 0.5, 0.91, 1.4]])
    b = np.array([[0.0], [0.6], [0.999], [1.0], [1.0 + 1e-9], [1.3], [2.0], [3.5]])
    xs = np.random.default_rng(7).uniform(-3.0, 3.0, (8, 7))  # starts outside [0, 1)
    for side in BoundSide:
        for n in (1, 7, 200):
            grid = SINE.iterate_grid(a, b, side, xs, n)
            assert grid.shape == (8, 7)
            for i, j in np.ndindex(grid.shape):
                params = FamilyParams(float(a[0, j]), float(b[i, 0]))
                assert grid[i, j] == SINE.iterate(params, side, float(xs[i, j]), n), \
                    (side, n, i, j)
            # b = 1 exactly for the whole grid: no element has a plateau
            grid = SINE.iterate_grid(a, 1.0, side, xs, n)
            for i, j in np.ndindex(grid.shape):
                params = FamilyParams(float(a[0, j]), 1.0)
                assert grid[i, j] == SINE.iterate(params, side, float(xs[i, j]), n), \
                    (side, n, i, j)
    with pytest.raises(ValueError):
        SINE.iterate_grid(0.0, -1.0, BoundSide.LOWER, 0.0, 3)


def test_plateau_looked_up_once_per_side_and_b(monkeypatch):
    # the plateau varies only along the axes of (side, b); a and the starts
    # broadcast over them without further lookups
    calls, plateau = [], lift._plateau
    monkeypatch.setattr(lift, "_plateau", lambda side, b: calls.append((side, b)) or
                        plateau(side, b))
    a, b = np.linspace(0.0, 1.0, 9), np.array([0.5, 1.5, 2.0])[:, None]
    sides = np.array(list(BoundSide), dtype=object)[:, None, None]
    stacked = SINE.iterate_grid(a, b, sides, 0.25, 7)
    assert len(calls) == 9
    one = SINE.iterate_grid(a, b, BoundSide.LOWER, 0.25, 7)
    assert len(calls) == 12
    monkeypatch.undo()
    _assert_scalar(stacked, a, b, sides, 0.25, 7)
    _assert_scalar(one, a, b, BoundSide.LOWER, 0.25, 7)


def _first_repeat(params, side, x, n):
    """(step, period) at which the Brent checkpoints of ``iterate_grid`` see
    the orbit of x repeat, or None: the scalar loop one step at a time."""
    t = x - math.floor(x)
    state, mark = (t, x - t), None
    for j in range(1, n + 1):
        state = SINE.advance(params, side, state, 1)
        if mark is not None and state[0] == checkpoint:
            return j, j - mark
        if j == lift.REPEAT_WINDOW or j == 2 * (mark or 0):
            checkpoint, mark = state[0], j
    return None


def _assert_scalar(grid, a, b, sides, xs, n):
    a, b, sides, xs = np.broadcast_arrays(a, b, sides, xs)
    assert grid.shape == a.shape
    for i in np.ndindex(grid.shape):
        params = FamilyParams(float(a[i]), float(b[i]))
        want = SINE.iterate(params, sides[i], float(xs[i]), n)
        assert repr(float(grid[i])) == repr(want), (params, sides[i], float(xs[i]), n)


SIDES = np.array(list(BoundSide), dtype=object)[:, None, None]


@pytest.mark.parametrize("n, count", [(2000, 10), (10_000, 4)])
def test_long_grid_passes_equal_scalar_iterate(n, count):
    # stacked sides, and a and b per element: rows below and on the critical
    # line, just above it and up to b = 3; the locked orbits repeat and retire,
    # the unlocked ones run all n steps
    rng = np.random.default_rng(n)
    b = np.array([0.0, 0.5, 1.0, 1.0 + 1e-9, 1.05, 1.5, 2.2, 3.0])[:, None]
    a = rng.uniform(-1.0, 2.0, (8, count))
    xs = rng.uniform(-3.0, 3.0, (3, 8, count))
    grid = SINE.iterate_grid(a, b, SIDES, xs, n)
    _assert_scalar(grid, a, b, SIDES, xs, n)
    repeats = [_first_repeat(FamilyParams(float(a[i, j]), float(b[i, 0])), SIDES[s, 0, 0],
                             float(xs[s, i, j]), n) for s, i, j in np.ndindex(grid.shape)]
    assert 0 < sum(r is not None for r in repeats) < len(repeats)


def test_last_live_orbits_finish_in_the_scalar_loop(monkeypatch):
    # both bounds at four heights: the locked orbits repeat and retire, and once
    # at most SCALAR_TAIL are left after a retirement, each runs its remaining
    # steps in one ``advance`` call (patched on the class, which SINE shares)
    a, b, sides, n = np.linspace(0.0, 1.0, 8, endpoint=False), \
        np.array([1.2, 1.5, 1.8, 2.0])[:, None], SIDES[:2], 2000
    calls, advance = [], lift.SineFamily.advance
    monkeypatch.setattr(lift.SineFamily, "advance",
                        lambda self, *args: calls.append(args) or advance(self, *args))
    grid = SINE.iterate_grid(a, b, sides, 0.0, n)
    monkeypatch.undo()
    _assert_scalar(grid, a, b, sides, 0.0, n)
    # the step at which the array pass retires each orbit, from its first repeat
    ends = []
    for s, i, j in np.ndindex(grid.shape):
        r = _first_repeat(FamilyParams(float(a[j]), float(b[i, 0])), sides[s, 0, 0], 0.0, n)
        ends.append(math.inf if r is None else r[0] + (n - r[0]) % r[1])
    fire = min(e for e in ends if e < math.inf and sum(f > e for f in ends) <= lift.SCALAR_TAIL)
    assert 0 < sum(e > fire for e in ends) == len(calls)
    assert all(args[-1] == n - fire for args in calls)


def test_retiring_on_the_last_step_and_on_whole_periods():
    # (a, b, side) -> (step, period) of the first repeat of the orbit of 0
    cases = {(0.33, 1.8, BoundSide.LOWER): (75, 11), (0.4, 2.5, BoundSide.LOWER): (87, 23),
             (1 / 3, 1.5, BoundSide.UPPER): (67, 3), (0.5, 1.5, BoundSide.LOWER): (66, 2),
             (0.2, 1.05, BoundSide.LOWER): (223, 95)}  # the last one at the second checkpoint
    for (a, b, side), (step, period) in cases.items():
        params = FamilyParams(a, b)
        assert _first_repeat(params, side, 0.0, 300) == (step, period)
        # found on the last step; n - step a whole number of periods; and not
        for n in (step, step + 181 * period, step + 181 * period + 1, 2000):
            grid = SINE.iterate_grid(np.array([a, a + 1.0]), b, side, 0.0, n)
            assert [repr(float(v)) for v in grid] == [
                repr(SINE.iterate(FamilyParams(a + k, b), side, 0.0, n)) for k in (0.0, 1.0)], \
                (a, b, side, n)


def test_grid_passes_on_empty_arrays():
    for n in (3, 2000):
        assert SINE.iterate_grid(np.empty((0, 4)), 1.5, BoundSide.LOWER, 0.0, n).shape == (0, 4)
        assert SINE.iterate_grid(0.3, np.empty((0, 1)), SIDES, 0.0, n).shape == (3, 0, 1)


class _CountEqual:
    """numpy with a counter on ``equal``, the repeat test of ``iterate_grid``."""

    def __init__(self):
        self.calls = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def equal(self, *args, **kwargs):
        self.calls += 1
        return np.equal(*args, **kwargs)


def test_repeat_search_only_in_long_passes(monkeypatch):
    spy = _CountEqual()
    monkeypatch.setattr(lift, "np", spy)
    a = np.array([0.5, 0.05, 0.33])  # lower bound locked at 1/2, 0/1 and 2/11
    for n in (1, 7, lift.REPEAT_WINDOW):
        grid = SINE.iterate_grid(a, 1.8, BoundSide.LOWER, 0.0, n)
        _assert_scalar(grid, a, 1.8, BoundSide.LOWER, 0.0, n)
    assert spy.calls == 0
    # every orbit retires within a few checkpoints, and the pass stops there
    grid = SINE.iterate_grid(a, 1.8, BoundSide.LOWER, 0.0, 2000)
    _assert_scalar(grid, a, 1.8, BoundSide.LOWER, 0.0, 2000)
    assert 0 < spy.calls < 100
    # carries that could pass 2^53 are added step by step
    spy.calls = 0
    grid = SINE.iterate_grid(np.array([1e13]), 1.8, BoundSide.LOWER, 0.0, 2000)
    _assert_scalar(grid, np.array([1e13]), 1.8, BoundSide.LOWER, 0.0, 2000)
    assert spy.calls == 0


def test_iterate_long_orbit_stays_reduced():
    # the carry bookkeeping must avoid large sine arguments
    params = FamilyParams(0.3, 0.8)
    v = SINE.iterate(params, BoundSide.RAW, 0.0, 200000)
    assert 0.25 < v / 200000 < 0.35


def test_advance_in_pieces_is_one_iterate():
    # resuming a stored orbit state replays the same arithmetic, bit for bit
    rng = np.random.default_rng(19)
    cases = [(FamilyParams(float(rng.uniform(-1.0, 1.0)), b), side, float(rng.uniform(-3.0, 3.0)))
             for b in (0.5, 1.0, 1.5, 3.0) for side in BoundSide for _ in range(100)]
    # F(0) = -1e-17 lands just below 0, so t = v - floor(v) rounds up to 1.0 and wraps
    assert -1e-17 - math.floor(-1e-17) == 1.0
    cases += [(FamilyParams(-1e-17, b), side, x) for b in (0.5, 1.0) for side in BoundSide
              for x in (0.0, -2.0)]
    for params, side, x in cases:
        n = int(rng.integers(1, 40))
        cuts = sorted(rng.choice(np.arange(1, n + 1), int(rng.integers(1, 4))).tolist())
        t = x - math.floor(x)
        state = SINE.advance(params, side, (t, x - t), 0)
        assert state == (t, x - t)
        for lo, hi in zip([0, *cuts], [*cuts, n]):
            state = SINE.advance(params, side, state, hi - lo)
        want = SINE.iterate(params, side, x, n)
        assert repr(state[1] + state[0]) == repr(want), (params, side, x, n, cuts)


def test_scalar_loops_floor_like_the_grid_pass():
    # the scalar loops take floor(v) as the float v // 1.0, the grid pass as
    # np.floor(v); both must agree where a float floor has edge cases
    assert -1e-17 - (-1e-17 // 1.0) == 1.0  # t rounds up to 1.0 and wraps
    cases = [(FamilyParams(-2e-17, 0.0), BoundSide.RAW, 1e-17),  # v = -1e-17
             (FamilyParams(-0.0, 0.0), BoundSide.RAW, -0.0),  # v = -0.0
             (FamilyParams(0.5, 0.0), BoundSide.RAW, 0.5),  # v = 1.0
             (FamilyParams(1.0, 0.0), BoundSide.RAW, -3.0)]  # v = -2.0
    cases += [(FamilyParams(a, 0.7 * k), side, x) for a in (1e15 + 0.25, -1e15 - 0.25)
              for k in (1, 2) for side in BoundSide for x in (0.0, 0.3, -2.6)]
    for params, side, x in cases:
        for n in (1, 3, 70):
            want = repr(float(SINE.iterate_grid(params.a, params.b, side, np.array([x]), n)[0]))
            assert repr(SINE.iterate(params, side, x, n)) == want, (params, side, x, n)
            value = SINE.iterate_slope(params.a, params.b, side, x, n)[0]
            assert repr(value) == want, (params, side, x, n)


def _plateau_edges(side, b):
    lm = SINE.landmarks(b)
    return (lm.k_minus, lm.k) if side is BoundSide.LOWER else (lm.c, lm.c_plus)


def _slope_cases(seed, count):
    """Random (params, side, x, n): b below, on and above the critical line,
    starts on a plateau (mod 1, negative ones too) and off it."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        b = float(rng.choice([0.0, 0.4, 0.999, 1.0, 1.0 + 1e-9, rng.uniform(1.0, 3.5)]))
        side = list(BoundSide)[rng.integers(3)]
        x = float(rng.uniform(-4.0, 4.0))
        if b > 1.0 and side is not BoundSide.RAW and rng.random() < 0.3:
            lo, hi = _plateau_edges(side, b)
            x = float(rng.choice([lo, hi, rng.uniform(lo, hi)])) + float(rng.integers(-3, 3))
        yield FamilyParams(float(rng.uniform(-1.5, 1.5)), b), side, x, int(rng.integers(1, 25))


def test_iterate_slope_value_is_iterate_bit_for_bit():
    for params, side, x, n in _slope_cases(11, 2000):
        value = SINE.iterate_slope(params.a, params.b, side, x, n)[0]
        assert value == SINE.iterate(params, side, x, n), (params, side, x, n)
    with pytest.raises(ValueError):
        SINE.iterate_slope(0.0, 1.0, BoundSide.RAW, 0.0, 0)


def test_iterate_slope_matches_central_difference():
    h, checked = 1e-6, 0
    for params, side, x, n in _slope_cases(12, 600):
        n = min(n, 6)
        if params.b > 1.0 and side is not BoundSide.RAW:
            # skip orbits that pass within reach of a plateau edge, where the slope jumps
            edges, y, near = _plateau_edges(side, params.b), x, False
            for _ in range(n):
                t = y - math.floor(y)
                near |= min(abs(t - e) for e in edges) < 1e-3
                y = SINE.bound_eval(params, side, y)
            if near:
                continue
        value, slope = SINE.iterate_slope(params.a, params.b, side, x, n)
        up = SINE.iterate(FamilyParams(params.a + h, params.b), side, x, n)
        down = SINE.iterate(FamilyParams(params.a - h, params.b), side, x, n)
        assert abs((up - down) / (2 * h) - slope) <= 1e-4 * max(1.0, abs(slope)), \
            (params, side, x, n)
        checked += 1
    assert checked > 400


def test_iterate_slope_at_least_one_on_the_bounds():
    for params, side, x, n in _slope_cases(13, 2000):
        if side is not BoundSide.RAW:
            slope = SINE.iterate_slope(params.a, params.b, side, x, n)[1]
            assert slope >= 1.0, (params, side, x, n)
