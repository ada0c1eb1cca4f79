"""A 50-digit referee for the certified outputs of fareyweb.

The sine family F(x) = x + a + (b / 2 pi) sin(2 pi x), its two monotone
bounds with their landmarks, orbits and the q-step displacement
g(x) = B^q(x) - x - p are re-derived here from their definitions, in mpmath
at ``DPS`` significant digits.  Nothing here imports fareyweb, so a check
against the referee shares no code with the certificate it checks.  numpy,
in double precision, only proposes where to look: every verdict is read at
50 digits.

Sides are named by strings, "lower", "upper" and "raw", the values of
``fareyweb.lift.BoundSide``.  Up to the critical line b = 1 both bounds are
the map itself.
"""

from __future__ import annotations

import math
from functools import lru_cache

import mpmath
import numpy as np

DPS = 50
#: A straddle counts only beyond this, far above the rounding of 50-digit
#: orbits of the q and b checked here (about 1e-50 (1 + b)^q).
MARGIN = 1e-30


@lru_cache(maxsize=None)
def landmarks(b: float) -> tuple[mpmath.mpf, mpmath.mpf, mpmath.mpf, mpmath.mpf]:
    """(c, k, k_minus, c_plus) at b >= 1, each by bisection to 2^-200.

    c and k = 1 - c are the turning points of h(x) = x + (b / 2 pi) sin(2 pi x)
    on [0, 1]; k_minus solves h = h(k) on [0, c] and c_plus solves h = h(c)
    on [k, 1], where h rises.
    """
    with mpmath.workdps(DPS):
        bm, two_pi = mpmath.mpf(b), 2 * mpmath.pi
        c = mpmath.acos(-1 / bm) / two_pi
        k = 1 - c

        def h(x):
            return x + bm / two_pi * mpmath.sin(two_pi * x)

        def solve(target, lo, hi):
            for _ in range(200):
                mid = (lo + hi) / 2
                lo, hi = (mid, hi) if h(mid) < target else (lo, mid)
            return (lo + hi) / 2

        return c, k, solve(h(k), mpmath.mpf(0), c), solve(h(c), k, mpmath.mpf(1))


def _plateau(side: str, b: float):
    """(lo, hi, top): the bound is flat at F(top) on [lo, hi] mod 1, or None."""
    if side == "raw" or b <= 1.0:
        return None
    c, k, k_minus, c_plus = landmarks(b)
    return (k_minus, k, k) if side == "lower" else (c, c_plus, c)


def orbit(a: float, b: float, side: str, x: float, n: int) -> mpmath.mpf:
    """B^n(x) at DPS digits, from the float inputs taken exactly."""
    flat = _plateau(side, b)
    with mpmath.workdps(DPS):
        am, amp, two_pi = mpmath.mpf(a), mpmath.mpf(b) / (2 * mpmath.pi), 2 * mpmath.pi
        y = mpmath.mpf(x)
        for _ in range(n):
            whole = mpmath.floor(y)
            t = y - whole
            if flat is not None and flat[0] <= t <= flat[1]:
                t = flat[2]
            y = whole + t + am + amp * mpmath.sin(two_pi * t)
        return y


def displacement(a: float, b: float, side: str, p: int, q: int, x: float) -> mpmath.mpf:
    """g(x) = B^q(x) - x - p at DPS digits."""
    with mpmath.workdps(DPS):
        return orbit(a, b, side, x, q) - mpmath.mpf(x) - p


def _float_displacement(a: float, b: float, side: str, p: int, q: int,
                        xs: np.ndarray) -> np.ndarray:
    flat = _plateau(side, b)
    lo, hi, top = (math.inf, -math.inf, 0.0) if flat is None else map(float, flat)
    y = xs.copy()
    for _ in range(q):
        whole = np.floor(y)
        t = y - whole
        t = np.where((t >= lo) & (t <= hi), top, t)
        y = whole + t + a + b / (2 * math.pi) * np.sin(2 * math.pi * t)
    return y - xs - p


def _float_extreme(a: float, b: float, side: str, p: int, q: int, sign: float) -> float:
    """A point near the largest of sign * g: the best of 1024 q grid points,
    then of 1024 points across the cells around it, three times over."""
    xs = np.arange(1024 * q) / (1024 * q)
    for _ in range(4):
        x = xs[np.argmax(sign * _float_displacement(a, b, side, p, q, xs))]
        xs = x + np.linspace(-2.0, 2.0, 1024) * (xs[1] - xs[0])
    return float(x)


def straddle(a: float, b: float, side: str, p: int, q: int) -> tuple[float, float] | None:
    """(x1, x2) with g(x1) > MARGIN and g(x2) < -MARGIN at DPS digits, else None.

    g is continuous, so such a pair shows a zero of g: a periodic orbit of
    type p/q of the selected map, so its rotation number is p/q.  x1 and x2
    are float estimates of where g is largest and smallest.
    """
    x1, x2 = (_float_extreme(a, b, side, p, q, sign) for sign in (1.0, -1.0))
    if (displacement(a, b, side, p, q, x1) > MARGIN
            and displacement(a, b, side, p, q, x2) < -MARGIN):
        return x1, x2
    return None
