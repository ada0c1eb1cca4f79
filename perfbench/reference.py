"""Independent reference computations used by the cross-checks.

Nothing here calls fareyweb: the landmarks, the plateau-truncated bounds and
the orbits are re-derived from the definitions in ``fareyweb.lift`` so that a
check does not share code with the path it checks.
"""

from __future__ import annotations

import math

import numpy as np

TWO_PI = 2.0 * math.pi


def _bisect(g, lo: float, hi: float) -> float:
    """Root of an increasing g on [lo, hi], to float resolution."""
    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            return mid
        if g(mid) < 0.0:
            lo = mid
        else:
            hi = mid


def landmarks(b: float) -> tuple[float, float, float, float]:
    """(c, k, k_minus, c_plus) of the sine family at b >= 1."""
    if b == 1.0:
        return 0.5, 0.5, 0.5, 0.5
    c = math.acos(-1.0 / b) / TWO_PI
    k = 1.0 - c

    def g(x: float) -> float:
        return x + b / TWO_PI * math.sin(TWO_PI * x)

    gk, gc = g(k), g(c)
    return c, k, _bisect(lambda x: g(x) - gk, 0.0, c), _bisect(lambda x: g(x) - gc, k, 1.0)


def bound_orbit(a: float, b: float, lower: bool, x: float, n: int) -> float:
    """n steps of the lower (or upper) monotone bound of x + a + b/2pi sin 2pi x."""
    c, k, k_minus, c_plus = landmarks(b)
    lo, hi, flat_at = (k_minus, k, k) if lower else (c, c_plus, c)
    amp = b / TWO_PI
    for _ in range(n):
        t = x % 1.0
        u = flat_at if lo <= t <= hi else t
        x = x - t + u + a + amp * math.sin(TWO_PI * u)
    return x


def raw_orbit(a: float, b: float, x: float, n: int) -> float:
    amp = b / TWO_PI
    for _ in range(n):
        x = x + a + amp * math.sin(TWO_PI * x)
    return x


def strand_brackets_root(p: int, q: int, side: str, b: float, a: float,
                         eps: float = 1e-7) -> bool:
    """True when the strand equation changes sign across [a - eps, a + eps].

    The right strand carries k_minus to c_plus + p in q steps of the lower
    bound, the left strand carries c_plus to k_minus + p under the upper
    bound; both residuals increase with a at slope at least one.
    """
    _, _, k_minus, c_plus = landmarks(b)
    if side == "R":
        x0, target, lower = k_minus, c_plus + p, True
    else:
        x0, target, lower = c_plus, k_minus + p, False
    below = bound_orbit(a - eps, b, lower, x0, q) - target
    above = bound_orbit(a + eps, b, lower, x0, q) - target
    return below < 0.0 < above


def bpoint_brackets_root(p: int, q: int, a: float, eps: float = 1e-7) -> bool:
    """True when the critical orbit of 1/2 at b = 1 closes p/q inside a +- eps."""
    return (raw_orbit(a - eps, 1.0, 0.5, q) - (0.5 + p)
            < 0.0 < raw_orbit(a + eps, 1.0, 0.5, q) - (0.5 + p))


def rotation_estimates(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """Rotation numbers of x + a + b/2pi sin 2pi x (b <= 1) to within 1/n."""
    x = np.zeros_like(a)
    amp = b / TWO_PI
    for _ in range(n):
        x = x + a + amp * np.sin(TWO_PI * x)
    return x / n
