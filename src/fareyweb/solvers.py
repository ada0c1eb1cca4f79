"""Bracketed scalar solvers.

Everything here works inside a given bracket, so results are certified up
to the requested x tolerance: bisection, the safeguarded Newton solve and the
root-order search never probe outside the initial interval and golden-section
refinement never leaves its cell.
"""

from __future__ import annotations

import math

from .errors import BracketError

_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0  # 0.618...


def bisect_bracket(f, lo: float, hi: float, xtol: float) -> tuple[float, float]:
    """Bisect an open bracket until it is no wider than xtol; returns that bracket.

    Bisection also stops when the midpoint is no longer a new float, and a
    zero of f at a midpoint collapses the bracket onto it.  The root is the
    midpoint of the returned bracket.
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


def _end_root(f, lo: float, hi: float, f_lo, f_hi) -> float | None:
    """The end of [lo, hi] where f vanishes, or None; raises unless f(lo) <= 0 <= f(hi)."""
    if not lo <= hi:
        raise BracketError(f"empty bracket [{lo}, {hi}]")
    if f_lo is None:
        f_lo = f(lo)
    if f_hi is None:
        f_hi = f(hi)
    if f_lo > 0.0 or f_hi < 0.0:
        raise BracketError(f"no sign change on [{lo}, {hi}]: f(lo)={f_lo}, f(hi)={f_hi}")
    return lo if f_lo == 0.0 else hi if f_hi == 0.0 else None


def bisect_root(f, lo: float, hi: float, xtol: float = 1e-12,
                f_lo: float | None = None, f_hi: float | None = None) -> float:
    """Root of a continuous f on [lo, hi] with f(lo) <= 0 <= f(hi).

    Plain bisection: robust for the piecewise-smooth objectives used
    throughout (displacement extrema, plateau-truncated iterates).  End values
    not given are evaluated, lo first; an end where f vanishes is the root.
    Only the sign of a given end value is read, so a bound of that sign serves.
    """
    end = _end_root(f, lo, hi, f_lo, f_hi)
    if end is not None:
        return end
    lo, hi = bisect_bracket(f, lo, hi, xtol)
    return 0.5 * (lo + hi)


def newton_root(f, lo: float, hi: float, xtol: float = 1e-12,
                f_lo: float | None = None, f_hi: float | None = None) -> float:
    """Root of a continuous f on [lo, hi] with f(lo) <= 0 <= f(hi), from values and slopes.

    ``f(x)`` returns (value, slope); otherwise the contract is ``bisect_root``'s,
    given end values included.  The iterates never read the end values, so a
    bound of the right sign in place of an end's value gives the same root.
    From the midpoint on, a Newton step that lands strictly inside the bracket
    is taken, and one that leaves it, or a slope that is not positive and
    finite, bisects.  A step shorter than xtol/2 is stretched to xtol/2, so the
    bracket closes over the root.  Newton stops once plain bisection would
    have reached xtol, which caps a solve near twice bisection's evaluations.
    """
    end = _end_root(lambda x: f(x)[0], lo, hi, f_lo, f_hi)
    if end is not None:
        return end
    x, reach = 0.5 * (lo + hi), hi - lo
    while hi - lo > xtol and lo < x < hi:
        v, d = f(x)
        if v < 0.0:
            lo = x
        elif v > 0.0:
            hi = x
        else:
            return x
        reach *= 0.5  # the bracket plain bisection would have by now
        step = -v / d if reach > xtol and 0.0 < d < math.inf else math.nan
        if abs(step) < 0.5 * xtol:
            step = math.copysign(0.5 * xtol, step)
        x += step
        if not lo < x < hi:  # also a nan step
            x = 0.5 * (lo + hi)
    return 0.5 * (lo + hi)


def root_order(f1, f2, lo: float, hi: float, x0: float, step: float,
               xtol: float) -> tuple[float, float]:
    """Sign of r1 - r2 for the roots of two increasing functions, and the x that decides it.

    f1(x) >= 0 iff x >= r1 and f2(x) <= 0 iff x <= r2, so at an x between the
    roots both tests hold (-1.0) or neither does (+1.0).  Otherwise both roots
    lie on one side of x: from x0 the search gallops toward them by ``step``,
    doubling up to the end of [lo, hi], and bisects between its last two
    probes.  Roots within xtol of each other give 0.0 and the midpoint of
    their bracket; roots beyond [lo, hi] raise BracketError.
    """
    found = []

    def probe(x: float) -> float:
        """-1 below both roots, +1 above both, 0 between them (kept in found)."""
        above1, below2 = f1(x) >= 0.0, f2(x) <= 0.0
        if above1 == below2:
            found.append((-1.0 if above1 else 1.0, x))
            return 0.0
        return 1.0 if above1 else -1.0

    x = min(max(x0, lo), hi)
    side = s = probe(x)
    x_prev, end = x, lo if side > 0.0 else hi
    while s == side and not found:
        if x == end:
            raise BracketError(f"both roots lie beyond {end} in [{lo}, {hi}]")
        x_prev, x, step = x, min(max(x - side * step, lo), hi), 2.0 * step
        s = probe(x)
    if not found:
        lo, hi = bisect_bracket(probe, *sorted((x_prev, x)), xtol)
    return found[0] if found else (0.0, 0.5 * (lo + hi))


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
