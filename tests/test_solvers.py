import math
import random

import pytest

from fareyweb.errors import BracketError
from fareyweb.solvers import bisect_root, newton_root, root_order


def test_bisect_root_exact_zeros():
    assert bisect_root(lambda x: x - 0.25, 0.25, 1.0) == 0.25  # zero at lo
    assert bisect_root(lambda x: x - 1.0, 0.25, 1.0) == 1.0  # zero at hi
    assert bisect_root(lambda x: x - 0.5, 0.0, 1.0) == 0.5  # zero at the first midpoint


def test_bisect_root_width_and_bracket_errors():
    root = bisect_root(lambda x: x * x - 2.0, 0.0, 2.0, 1e-12)
    assert abs(root - 2.0 ** 0.5) <= 1e-12
    with pytest.raises(BracketError):
        bisect_root(lambda x: x + 1.0, 0.0, 1.0)
    with pytest.raises(BracketError):
        bisect_root(lambda x: x, 1.0, 0.0)  # empty bracket


def _reference_bisect(f, lo: float, hi: float, xtol: float) -> float:
    """Plain bisection of an open bracket with f(lo) < 0 < f(hi), written out.

    It stops at width xtol or when the midpoint is no longer a new float, and
    a zero of f at a midpoint is the root.
    """
    while hi - lo > xtol:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        f_mid = f(mid)
        if f_mid == 0.0:
            return mid
        lo, hi = (mid, hi) if f_mid < 0.0 else (lo, mid)
    return 0.5 * (lo + hi)


def test_bisect_root_end_zeros_and_float_exhaustion():
    calls = []
    # a zero at an end is the root, with no further evaluation
    assert bisect_root(lambda x: calls.append(x) or x - 0.25, 0.25, 1.0, 1e-12) == 0.25
    assert calls == [0.25, 1.0]
    # no float between the ends: no midpoint is probed, and the root is their midpoint
    del calls[:]
    hi = 1.0 + 2.0 ** -52
    f = lambda x: calls.append(x) or (-1.0 if x < hi else 1.0)  # noqa: E731
    assert bisect_root(f, 1.0, hi, 0.0) == 0.5 * (1.0 + hi)
    assert calls == [1.0, hi]
    # two ulps wide: the one float inside is probed, then nothing is left between
    del calls[:]
    hi, mid = 1.0 + 2.0 ** -51, 1.0 + 2.0 ** -52
    assert bisect_root(f, 1.0, hi, 0.0, f_lo=-1.0, f_hi=1.0) == 0.5 * (mid + hi)
    assert calls == [mid]


def _reference_root_order(f1, f2, lo, hi, x0, step, xtol):
    """``root_order`` written out: gallop from x0, then ``_reference_bisect`` on the probe."""
    found = []

    def probe(x):
        above1, below2 = f1(x) >= 0.0, f2(x) <= 0.0
        if above1 == below2:
            found.append((-1.0 if above1 else 1.0, x))
            return 0.0
        return 1.0 if above1 else -1.0

    x = x_prev = min(max(x0, lo), hi)
    side = s = probe(x)
    while s == side and not found:
        assert x != (lo if side > 0.0 else hi), "roots beyond the bracket"
        x_prev, x, step = x, min(max(x - side * step, lo), hi), 2.0 * step
        s = probe(x)
    if not found:
        x = _reference_bisect(probe, *sorted((x_prev, x)), xtol)
    return found[0] if found else (0.0, x)


def _cases(seed: int, count: int):
    """Random brackets [lo, hi], a root r inside and an xtol from 0 up to 0.3 of the width."""
    rng = random.Random(seed)
    for _ in range(count):
        lo, hi = sorted(rng.uniform(-3.0, 3.0) for _ in range(2))
        yield rng, lo, hi, rng.uniform(lo, hi), rng.choice([0.0, 1e-15, 1e-12, 1e-6,
                                                            0.3 * (hi - lo)])


@pytest.mark.parametrize("seed", range(3))
def test_bisect_root_matches_a_reference_bisection(seed):
    for _, lo, hi, r, xtol in _cases(seed, 300):
        # smooth, steep and piecewise-constant objectives; the last has exact zeros only at r
        for f in (lambda x: x ** 3 - r ** 3, lambda x: math.atan(40.0 * (x - r)),
                  lambda x: float(x > r) - float(x < r)):
            if f(lo) < 0.0 < f(hi):
                got = bisect_root(f, lo, hi, xtol)
                assert repr(got) == repr(_reference_bisect(f, lo, hi, xtol)), (lo, hi, r, xtol)


@pytest.mark.parametrize("seed", range(3))
def test_root_order_matches_a_reference_bisection(seed):
    signs = set()
    for rng, lo, hi, r1, xtol in _cases(seed, 300):
        r2 = r1 + rng.choice([-1e-3, -1e-13, 0.0, 1e-13, 1e-9, 1e-3])
        x0, step = rng.uniform(lo - 1.0, hi + 1.0), rng.choice([1e-3, 0.1]) * (hi - lo)
        args = (lo - 1e-3, hi + 1e-3, x0, step, xtol)
        got = root_order(*_linear_pair(r1, r2, []), *args)
        want = _reference_root_order(*_linear_pair(r1, r2, []), *args)
        assert repr(got) == repr(want), (r1, r2, args)
        signs.add(got[0])
    assert signs == {-1.0, 0.0, 1.0}


def _linear_pair(r1, r2, probes):
    """Increasing lines through r1 and r2 of different slopes, logging each x."""
    def f1(x):
        probes.append(x)
        return 2.0 * (x - r1)

    def f2(x):
        probes.append(x)
        return 0.5 * (x - r2)

    return f1, f2


@pytest.mark.parametrize("x0", [-0.9, 0.05, 0.45, 0.95, 3.0])
@pytest.mark.parametrize("r1, r2", [(0.3, 0.6), (0.6, 0.3), (0.6, 0.6 + 1e-3)])
def test_root_order_decides_from_any_start(r1, r2, x0):
    probes = []
    lo, hi = -1.0, 2.0
    sign, x = root_order(*_linear_pair(r1, r2, probes), lo, hi, x0, 0.01, 1e-12)
    assert sign == (-1.0 if r1 < r2 else 1.0)
    assert min(r1, r2) <= x <= max(r1, r2)
    assert probes and all(lo <= p <= hi for p in probes)
    assert len(probes) <= 2 * 25  # doubling steps, then bisection
    if min(r1, r2) < x0 < max(r1, r2):
        assert probes == [x0, x0]  # a start between the roots decides at once


@pytest.mark.parametrize("x0", [0.0, 0.9])
def test_root_order_equal_roots_give_zero(x0):
    r = 2.0 ** -0.5
    probes = []
    sign, x = root_order(*_linear_pair(r, r, probes), 0.0, 1.0, x0, 0.01, 1e-12)
    assert sign == 0.0 and abs(x - r) <= 1e-12
    assert all(0.0 <= p <= 1.0 for p in probes)


@pytest.mark.parametrize("lo, hi, x0", [(0.0, 0.5, 0.1), (0.7, 1.0, 0.9), (0.0, 0.5, 0.5)])
def test_root_order_raises_when_the_roots_lie_beyond_the_bracket(lo, hi, x0):
    probes = []
    with pytest.raises(BracketError):
        root_order(*_linear_pair(0.55, 0.65, probes), lo, hi, x0, 0.01, 1e-12)
    assert all(lo <= p <= hi for p in probes)
    assert (lo if x0 > 0.6 else hi) in probes  # the bracket end was probed


def _logged(f, probes, slope=None):
    """f as a (value, slope) objective that logs each (x, value); slope overrides f's."""
    def g(x):
        v, d = f(x)
        probes.append((x, v))
        return v, d if slope is None else slope
    return g


def _final_bracket(probes) -> tuple[float, float]:
    """The tightest sign change among the probes of an increasing f."""
    return (max(x for x, v in probes if v < 0.0), min(x for x, v in probes if v > 0.0))


def _cubic(x):
    return x ** 3 + x - 0.7, 3.0 * x * x + 1.0


def test_newton_root_shares_the_bisect_contract():
    for lo, hi in ((0.0, 1.0), (1.0, 0.0)):  # no sign change; empty bracket
        with pytest.raises(BracketError):
            newton_root(lambda x: (x + 1.0, 1.0), lo, hi)
    with pytest.raises(BracketError):
        newton_root(lambda x: (-x, -1.0), -1.0, 1.0)  # decreasing
    probes = []
    # a zero at an end is the root, with no further evaluation
    assert newton_root(_logged(lambda x: (x - 0.25, 1.0), probes), 0.25, 1.0) == 0.25
    assert probes == [(0.25, 0.0), (1.0, 0.75)]
    assert newton_root(lambda x: (x - 1.0, 1.0), 0.25, 1.0) == 1.0
    # given end values are read for their signs only and never probed
    evaluated = newton_root(_cubic, -1.0, 1.0)
    for f_lo, f_hi in ((-1.0, 1.0), (-1e-300, None), (None, 5.0)):
        del probes[:]
        assert newton_root(_logged(_cubic, probes), -1.0, 1.0, f_lo=f_lo, f_hi=f_hi) == evaluated
        assert (-1.0 in [x for x, _ in probes]) == (f_lo is None)
        assert (1.0 in [x for x, _ in probes]) == (f_hi is None)
    for f_lo, f_hi in ((1.0, 1.0), (-1.0, -1.0)):  # a given end of the wrong sign
        with pytest.raises(BracketError):
            newton_root(_cubic, -1.0, 1.0, f_lo=f_lo, f_hi=f_hi)
    del probes[:]
    assert newton_root(_logged(_cubic, probes), -1.0, 1.0, f_lo=0.0, f_hi=1.0) == -1.0
    assert newton_root(_logged(_cubic, probes), -1.0, 1.0, f_lo=-1.0, f_hi=0.0) == 1.0
    assert probes == []  # a given zero end is the root, with no evaluation


@pytest.mark.parametrize("xtol", [1e-12, 1e-6, 0.1])
def test_newton_root_ends_on_a_sign_change_no_wider_than_xtol(xtol):
    probes = []
    root = newton_root(_logged(_cubic, probes), -1.0, 1.0, xtol)
    lo, hi = _final_bracket(probes)
    assert hi - lo <= xtol and root == 0.5 * (lo + hi)
    assert all(-1.0 <= x <= 1.0 for x, _ in probes)
    if xtol == 1e-12:
        assert len(probes) < 12  # bisection takes 43


@pytest.mark.parametrize("slope", [0.0, -1.0, math.nan, math.inf])
def test_newton_root_bisects_without_a_usable_slope(slope):
    probes, bisected = [], [-1.0, 1.0]  # the ends are evaluated first
    root = newton_root(_logged(_cubic, probes, slope), -1.0, 1.0)
    assert root == _reference_bisect(lambda x: bisected.append(x) or _cubic(x)[0], -1.0, 1.0,
                                     1e-12)
    assert [x for x, _ in probes] == bisected
    lo, hi = _final_bracket(probes)
    assert hi - lo <= 1e-12 and root == 0.5 * (lo + hi)


def test_newton_root_steps_outside_the_bracket_bisect():
    # far from 0.3 the arctangent's Newton steps leave the bracket
    probes = []
    f = lambda x: (math.atan(20.0 * (x - 0.3)), 20.0 / (1.0 + 400.0 * (x - 0.3) ** 2))  # noqa: E731
    root = newton_root(_logged(f, probes), -1.0, 3.0)
    assert abs(root - 0.3) <= 1e-12 and all(-1.0 <= x <= 3.0 for x, _ in probes)
    assert len(probes) < 20


def test_newton_root_with_tiny_steps_stays_near_bisection_cost():
    # a slope of 1e30 makes every step xtol/2 long, until bisection takes over
    probes = []
    root = newton_root(_logged(lambda x: (x - 0.6, 1e30), probes), 0.0, 1.0)
    lo, hi = _final_bracket(probes)
    assert hi - lo <= 1e-12 and lo <= 0.6 <= hi and root == 0.5 * (lo + hi)
    assert len(probes) <= 2 * 42
