"""Bracketed scalar solvers.

Everything here assumes a validated bracket, so results are certified up to
the requested x tolerance: bisection never leaves the initial interval and
golden-section refinement never leaves its cell.
"""

from __future__ import annotations

import math

from .errors import BracketError

_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0  # 0.618...


def open_bracket(f, lo: float, hi: float, f_lo: float | None = None,
                 f_hi: float | None = None) -> tuple[float, float]:
    """Validated bisection bracket for f(lo) <= 0 <= f(hi).

    End values not given are evaluated, lo first.  An end where f vanishes
    collapses the bracket onto it.
    """
    if not lo <= hi:
        raise BracketError(f"empty bracket [{lo}, {hi}]")
    if f_lo is None:
        f_lo = f(lo)
    if f_hi is None:
        f_hi = f(hi)
    if f_lo > 0.0 or f_hi < 0.0:
        raise BracketError(f"no sign change on [{lo}, {hi}]: f(lo)={f_lo}, f(hi)={f_hi}")
    if f_lo == 0.0:
        return lo, lo
    if f_hi == 0.0:
        return hi, hi
    return lo, hi


def bisect_bracket(f, lo: float, hi: float, xtol: float) -> tuple[float, float]:
    """Bisect an open bracket until it is no wider than xtol; returns that bracket.

    Bisection also stops when the midpoint is no longer a new float, and a
    zero of f at a midpoint collapses the bracket onto it.  The root is the
    midpoint of the returned bracket, and narrowing in stages to a final xtol
    ends on the same bracket as narrowing to it at once.
    """
    while hi - lo > xtol:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:  # float exhaustion
            break
        f_mid = f(mid)
        if f_mid < 0.0:
            lo = mid
        elif f_mid > 0.0:
            hi = mid
        else:
            return mid, mid
    return lo, hi


def bisect_root(f, lo: float, hi: float, xtol: float = 1e-12,
                f_lo: float | None = None, f_hi: float | None = None) -> float:
    """Root of a continuous f on [lo, hi] with f(lo) <= 0 <= f(hi).

    Plain bisection: robust for the piecewise-smooth objectives used
    throughout (displacement extrema, plateau-truncated iterates).
    """
    lo, hi = bisect_bracket(f, *open_bracket(f, lo, hi, f_lo, f_hi), xtol)
    return 0.5 * (lo + hi)


def golden_min(f, lo: float, hi: float, xtol: float = 1e-13) -> tuple[float, float]:
    """Golden-section minimizer on [lo, hi]; returns (x, f(x))."""
    a, b = lo, hi
    c = b - _INV_GOLDEN * (b - a)
    d = a + _INV_GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    while b - a > xtol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INV_GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_GOLDEN * (b - a)
            fd = f(d)
    if fc < fd:
        return c, fc
    return d, fd


def golden_max(f, lo: float, hi: float, xtol: float = 1e-13) -> tuple[float, float]:
    """Golden-section maximizer on [lo, hi]; returns (x, f(x))."""
    x, neg = golden_min(lambda t: -f(t), lo, hi, xtol)
    return x, -neg
