import math

import pytest

from fareyweb.errors import BracketError
from fareyweb.solvers import bisect_bracket, bisect_root, newton_root, root_order


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


def test_staged_narrowing_ends_on_the_one_shot_bracket():
    f = lambda x: x ** 3 - 0.3  # noqa: E731
    calls = []
    # a zero at an end is the root, with no further evaluation
    assert bisect_root(lambda x: calls.append(x) or x - 0.25, 0.25, 1.0, 1e-12) == 0.25
    assert calls == [0.25, 1.0]
    lo, hi = bisect_bracket(f, 0.0, 1.0, 0.3)
    assert hi - lo <= 0.3 < 2 * (hi - lo) and lo < 0.3 ** (1 / 3) < hi
    one_shot = bisect_bracket(f, 0.0, 1.0, 1e-12)
    for width in (0.5, 0.1, 1e-6, 1e-12):
        lo, hi = bisect_bracket(f, lo, hi, width)
    assert (lo, hi) == one_shot
    assert bisect_bracket(f, 1.0, 1.0 + 2.0 ** -52, 0.0) == (1.0, 1.0 + 2.0 ** -52)  # no float between


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
    probes, bisected = [], []
    root = newton_root(_logged(_cubic, probes, slope), -1.0, 1.0)
    assert root == bisect_root(lambda x: bisected.append(x) or _cubic(x)[0], -1.0, 1.0)
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
