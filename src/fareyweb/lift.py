"""The standard sine circle-map family and its monotone bounds.

Lifts F(x) = x + a + (b / 2 pi) sin(2 pi x) satisfy F(x + 1) = F(x) + 1, so a
is a pure translation parameter and b >= 0 controls the nonlinearity.  For
b <= 1 the lift is non-decreasing.  Above b = 1 (the critical line) each
period carries a maximum at c and a minimum at k with c < k; k_minus is the
closest point below k where F matches F(k), and c_plus the closest point above
c where F matches F(c).  Truncating F to the constant F(k) on [k_minus, k]
gives the largest non-decreasing minorant (the lower bound), and truncating to
F(c) on [c, c_plus] gives the smallest non-decreasing majorant (the upper
bound).  The rotation numbers of these two bounds are the endpoints of the
rotation interval of F.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .solvers import bisect_root

TWO_PI = 2.0 * math.pi


class BoundSide(enum.Enum):
    """Which map to evaluate: the lower bound, the upper bound, or F itself."""

    LOWER = "lower"
    UPPER = "upper"
    RAW = "raw"


@dataclass(frozen=True)
class FamilyParams:
    """Parameter pair (a, b); a translates, b >= 0 bends."""

    a: float
    b: float

    def __post_init__(self):
        if self.b < 0:
            raise ValueError(f"b must be non-negative, got {self.b}")


@dataclass(frozen=True)
class Landmarks:
    """Turning points and their equal-value companions for one value of b.

    Ordering 0 < k_minus <= c <= k <= c_plus < 1 holds while the distance
    between the bounds stays below 1; on the critical line all four coincide.
    """

    b: float
    c: float
    k: float
    k_minus: float
    c_plus: float

    @property
    def degenerate(self) -> bool:
        return self.c == self.k


@lru_cache(maxsize=None)
def _sine_landmarks(b: float) -> Landmarks:
    if b < 1.0:
        raise ValueError(f"no turning points below the critical line (b={b})")
    if b == 1.0:
        return Landmarks(1.0, 0.5, 0.5, 0.5, 0.5)
    c = math.acos(-1.0 / b) / TWO_PI
    k = 1.0 - c

    def g(x: float) -> float:
        return x + b / TWO_PI * math.sin(TWO_PI * x)

    gk, gc = g(k), g(c)
    if g(0.0) > gk or g(1.0) < gc:
        raise ValueError(f"landmark companions leave (0, 1) at b={b}; family out of range")
    # g is strictly increasing on [0, c] and on [k, 1]
    k_minus = bisect_root(lambda x: g(x) - gk, 0.0, c, xtol=1e-13)
    c_plus = bisect_root(lambda x: g(x) - gc, k, 1.0, xtol=1e-13)
    return Landmarks(b, c, k, k_minus, c_plus)


class SineFamily:
    """x + a + (b / 2 pi) sin(2 pi x).

    The solvers use the shared instance ``SINE`` through degree-one ``eval``
    (accepting floats or numpy arrays), analytic ``derivative`` up to order 3,
    ``b_critical``, per-b ``landmarks``, plateau-truncated ``bound_eval``, and
    the compositions: scalar ``iterate`` and its array form ``iterate_grid``
    (``iterate_array`` at one parameter pair).
    """

    b_critical = 1.0

    def eval(self, params: FamilyParams, x):
        sin = np.sin if isinstance(x, np.ndarray) else math.sin
        return x + params.a + params.b / TWO_PI * sin(TWO_PI * x)

    def derivative(self, params: FamilyParams, x, order: int = 1):
        cos = np.cos if isinstance(x, np.ndarray) else math.cos
        sin = np.sin if isinstance(x, np.ndarray) else math.sin
        if order == 1:
            return 1.0 + params.b * cos(TWO_PI * x)
        if order == 2:
            return -TWO_PI * params.b * sin(TWO_PI * x)
        if order == 3:
            return -TWO_PI * TWO_PI * params.b * cos(TWO_PI * x)
        raise ValueError(f"order must be 1, 2, or 3, got {order}")

    def landmarks(self, b: float) -> Landmarks:
        return _sine_landmarks(float(b))

    def _plateau(self, side: BoundSide, b: float) -> tuple[float, float, float]:
        """(lo, hi, top) for b > 1: the bound is flat on [lo, hi] mod 1 at its value at top."""
        lm = self.landmarks(b)
        return (lm.k_minus, lm.k, lm.k) if side is BoundSide.LOWER else (lm.c, lm.c_plus, lm.c)

    def bound_eval(self, params: FamilyParams, side: BoundSide, x):
        """Evaluate the selected map; degree one is preserved exactly."""
        if side is BoundSide.RAW or params.b <= self.b_critical:
            return self.eval(params, x)
        lo, hi, top = self._plateau(side, params.b)
        if isinstance(x, np.ndarray):
            t = x - np.floor(x)
            on_flat = (t >= lo) & (t <= hi)
            return np.where(on_flat, self.eval(params, top), self.eval(params, t)) + (x - t)
        t = x - math.floor(x)
        return self.eval(params, top if lo <= t <= hi else t) + (x - t)

    def delta(self, b: float) -> float:
        """Sup-norm gap between the upper and lower bounds; 0 iff b <= 1.

        The gap function peaks on [c, k] where it equals F(c) - F(k), so the
        closed landmark form is exact.
        """
        if b <= self.b_critical:
            return 0.0
        lm = self.landmarks(b)
        p0 = FamilyParams(0.0, b)
        return self.eval(p0, lm.c) - self.eval(p0, lm.k)

    def schwarzian(self, params: FamilyParams, x: float) -> float:
        """F'''/F' - (3/2)(F''/F')^2; singular where F' vanishes."""
        d1 = self.derivative(params, x, 1)
        if abs(d1) < 1e-12:
            raise ZeroDivisionError(f"derivative vanishes at x={x} (turning point)")
        d2 = self.derivative(params, x, 2)
        d3 = self.derivative(params, x, 3)
        r = d2 / d1
        return d3 / d1 - 1.5 * r * r

    def iterate(self, params: FamilyParams, side: BoundSide, x: float, n: int) -> float:
        """n-fold composition of the selected map.

        The argument is kept reduced mod 1 with the integer part carried
        separately, so long orbits do not lose precision in the sine argument.
        """
        if n < 1:
            raise ValueError("n must be positive")
        a = params.a
        amp = params.b / TWO_PI
        t = x - math.floor(x)
        carry = x - t
        if side is BoundSide.RAW or params.b <= self.b_critical:
            for _ in range(n):
                v = t + a + amp * math.sin(TWO_PI * t)
                f = math.floor(v)
                t = v - f
                carry += f
                if t >= 1.0:
                    t -= 1.0
                    carry += 1.0
            return carry + t
        lm = self.landmarks(params.b)
        if side is BoundSide.LOWER:
            lo_edge, hi_edge = lm.k_minus, lm.k
            flat = lm.k + a + amp * math.sin(TWO_PI * lm.k)
        else:
            lo_edge, hi_edge = lm.c, lm.c_plus
            flat = lm.c + a + amp * math.sin(TWO_PI * lm.c)
        for _ in range(n):
            if lo_edge <= t <= hi_edge:
                v = flat
            else:
                v = t + a + amp * math.sin(TWO_PI * t)
            f = math.floor(v)
            t = v - f
            carry += f
            if t >= 1.0:
                t -= 1.0
                carry += 1.0
        return carry + t

    def iterate_array(self, params: FamilyParams, side: BoundSide, xs: np.ndarray, n: int) -> np.ndarray:
        """Vectorized n-fold composition over a batch of starting points."""
        return self.iterate_grid(params.a, params.b, side, xs, n)

    def iterate_grid(self, a, b, side: BoundSide, xs, n: int) -> np.ndarray:
        """n-fold composition over arrays of a, b and starts that broadcast.

        Each element equals ``iterate(FamilyParams(a, b), side, x, n)`` bit for
        bit: every step does the scalar loop's arithmetic in the same order,
        with the plateau edges and flat value looked up once per distinct b.
        """
        if n < 1:
            raise ValueError("n must be positive")
        a, b, xs = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (a, b, xs)))
        if np.any(b < 0):
            raise ValueError(f"b must be non-negative, got {b.min()}")
        amp = b / TWO_PI
        # the plateau [lo_edge, hi_edge] is empty where the map is raw
        lo_edge, hi_edge = np.full(b.shape, np.inf), np.full(b.shape, -np.inf)
        flat = np.zeros_like(b)
        for bv in () if side is BoundSide.RAW else np.unique(b[b > self.b_critical]):
            lo, hi, top = self._plateau(side, bv)
            at = b == bv
            lo_edge[at], hi_edge[at] = lo, hi
            flat[at] = top + a[at] + amp[at] * math.sin(TWO_PI * top)
        t = xs - np.floor(xs)
        carry = xs - t
        for _ in range(n):
            v = t + a + amp * np.sin(TWO_PI * t)
            np.copyto(v, flat, where=(lo_edge <= t) & (t <= hi_edge))
            f = np.floor(v)
            t = v - f
            carry += f
            wrap = t >= 1.0
            t[wrap] -= 1.0
            carry[wrap] += 1.0
        return carry + t


#: Shared instance of the shipped family.
SINE = SineFamily()
