import math

import numpy as np
import pytest

from fareyweb.lift import SINE, TWO_PI, BoundSide, FamilyParams


def g0(b, x):
    return x + b / TWO_PI * math.sin(TWO_PI * x)


def test_eval_examples():
    assert SINE.eval(FamilyParams(0, 0), 0.3) == 0.3
    assert SINE.eval(FamilyParams(0.25, 0), 0.0) == 0.25
    assert abs(SINE.eval(FamilyParams(0, 1), 0.5) - 0.5) < 1e-15


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


@pytest.mark.parametrize("b", [1.3, 2.0])
def test_bounds_sandwich_and_monotone(b):
    params = FamilyParams(0.37, b)
    xs = np.linspace(0, 1, 4096, endpoint=False)
    raw = SINE.eval(params, xs)
    low = SINE.bound_eval(params, BoundSide.LOWER, xs)
    up = SINE.bound_eval(params, BoundSide.UPPER, xs)
    assert np.all(low <= raw + 1e-14)
    assert np.all(raw <= up + 1e-14)
    assert np.all(np.diff(low) >= -1e-12)
    assert np.all(np.diff(up) >= -1e-12)
    # degree one survives truncation
    assert np.allclose(SINE.bound_eval(params, BoundSide.LOWER, xs + 1.0), low + 1.0,
                       atol=1e-12)


def test_bound_translation_in_a():
    xs = np.linspace(0, 1, 513)
    for side in (BoundSide.LOWER, BoundSide.UPPER):
        shifted = SINE.bound_eval(FamilyParams(0.4, 1.8), side, xs)
        base = SINE.bound_eval(FamilyParams(0.0, 1.8), side, xs)
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
        gap = (SINE.bound_eval(params, BoundSide.UPPER, xs)
               - SINE.bound_eval(params, BoundSide.LOWER, xs))
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
    with pytest.raises(ValueError):
        SINE.iterate_grid(0.0, -1.0, BoundSide.LOWER, 0.0, 3)


def test_iterate_long_orbit_stays_reduced():
    # the carry bookkeeping must avoid large sine arguments
    params = FamilyParams(0.3, 0.8)
    v = SINE.iterate(params, BoundSide.RAW, 0.0, 200000)
    assert 0.25 < v / 200000 < 0.35
