"""Bracketed scalar solvers.

Everything here works inside a given bracket, so results are certified up
to the requested x tolerance: the safeguarded Newton solve, bisection (that
solve with a zero slope) and the root-order search never probe outside the
initial interval and golden-section refinement never leaves its cell.
"""

from __future__ import annotations

import math

from .errors import BracketError

_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0  # 0.618...


def bisect_root(f, lo: float, hi: float, xtol: float = 1e-12,
                f_lo: float | None = None, f_hi: float | None = None) -> float:
    """Root of a continuous f on [lo, hi] with f(lo) <= 0 <= f(hi), by plain bisection.

    Robust for the piecewise-smooth objectives used throughout (displacement
    extrema, plateau-truncated iterates).  It is ``newton_root`` with a zero
    slope, which bisects at every step, so the end values follow its contract.
    """
    return newton_root(lambda x: (f(x), 0.0), lo, hi, xtol, f_lo, f_hi)


def newton_root(f, lo: float, hi: float, xtol: float = 1e-12,
                f_lo: float | None = None, f_hi: float | None = None) -> float:
    """Root of a continuous f on [lo, hi] with f(lo) <= 0 <= f(hi), from values and slopes.

    ``f(x)`` returns (value, slope).  End values not given are evaluated, lo
    first; an end where f vanishes is the root.  Only the sign of a given end
    value is read, so a bound of that sign serves: the iterates never read
    the end values, and give the same root either way.  From the midpoint
    on, a Newton step that lands strictly inside the bracket is taken, and
    one that leaves it, or a slope that is not positive and finite, bisects;
    with a zero slope every step bisects.  A step shorter than xtol/2 is
    stretched to xtol/2, so the bracket closes over the root.  Newton stops
    once plain bisection would have reached xtol, which caps a solve near
    twice bisection's evaluations.
    """
    if not lo <= hi:
        raise BracketError(f"empty bracket [{lo}, {hi}]")
    if f_lo is None:
        f_lo = f(lo)[0]
    if f_hi is None:
        f_hi = f(hi)[0]
    if f_lo > 0.0 or f_hi < 0.0:
        raise BracketError(f"no sign change on [{lo}, {hi}]: f(lo)={f_lo}, f(hi)={f_hi}")
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
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
        if 0.0 < d < math.inf and reach > xtol:
            step = -v / d
            x += step if abs(step) >= 0.5 * xtol else math.copysign(0.5 * xtol, step)
            if lo < x < hi:
                continue
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
    if not found:  # below both roots at the lower probe, above both at the upper one
        x = bisect_root(probe, *sorted((x_prev, x)), xtol, f_lo=-1.0, f_hi=1.0)
    return found[0] if found else (0.0, x)


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
