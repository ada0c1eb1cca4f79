"""Tongue boundary functions of a at fixed b, locking intervals, and tips.

At fixed b and fixed p/q four values of a bound the tongue: phi1 (phi2) is
where the q-step displacement of the raw map has min (max) exactly zero, and
psi1 (psi2) is where the lower (upper) monotone bound's displacement has max
(min) exactly zero.  The locking interval is [psi1, psi2] when non-empty, and
phi2 <= {psi1, psi2} <= phi1 always.  Each defining objective is strictly
increasing in the translation parameter, so every boundary is the root of a
bracketed solve that ends on a sign change no wider than ``solver_tol``: a
Newton solve safeguarded by the bracket, with the slope dB^q/da at the
extremum's argument.  phi1 and phi2 are saddle-node tangencies, where the
raw extremum is smooth in a and, by the envelope theorem, has that slope, so
the solve takes about a quarter of bisection's grid passes.  The extremum of
psi1 or psi2 usually sits at a plateau corner, a kink where that slope only
guides the steps; the solve still takes under half of bisection's grid
passes on average.

A tip is the parameter point where the locking width psi2 - psi1 collapses to
zero; the first collapse above the critical line is the top of the principal
locking component.  It is also where the two parent strands cross, so both
tip methods are one search (``_tip``) that differ only in the pair of roots
whose order they read at each height.  From the critical line up the width
method reads each sign from the orbit of a plateau corner, where the extremum
usually sits (on the critical line both corners are the turning point 1/2).
Both bounds are non-decreasing degree-one maps, so max g_L >= 0 iff
rho(L) >= p/q and min g_U <= 0 iff rho(U) <= p/q, and the D_j test of the
corner orbit certifies each sign (``rotation._bound_sign``, which
``lock_status`` also calls; the facts are in the ``rotation`` module
docstring).  A corner orbit that decides nothing within a grid's worth of
cycles hands the sign to the displacement grid.
"""

from __future__ import annotations

from dataclasses import dataclass
import warnings

from .config import DEFAULT, Config, cached
from .errors import ConsistencyError, TipNotFoundError
from .farey import Frac
from .lift import SINE, TWO_PI, BoundSide, FamilyParams
from .rotation import _bound_sign, _check_cap, _disp_extremum
from .solvers import bisect_root, newton_root, root_order

#: objective -> (map side, which extremum of the displacement must vanish)
_OBJECTIVES = {
    "phi1": (BoundSide.RAW, "min"),
    "phi2": (BoundSide.RAW, "max"),
    "psi1": (BoundSide.LOWER, "max"),
    "psi2": (BoundSide.UPPER, "min"),
}

BOUNDARY_KINDS = tuple(_OBJECTIVES)


@dataclass(frozen=True)
class TongueSection:
    """The four boundary values at one b for one fraction."""

    frac: Frac
    b: float
    phi2: float
    psi1: float
    psi2: float
    phi1: float

    @property
    def locking_width(self) -> float:
        return self.psi2 - self.psi1


@dataclass(frozen=True)
class Tip:
    """A single-point horizontal slice of a locking region.

    ``residual`` is the locking width |psi2 - psi1| measured at the reported
    point, whichever method produced it.  ``extra_crossings`` lists further
    width sign changes seen by a full scan; a non-empty tuple flags a family
    whose locking region is not a single vertical slab.
    """

    frac: Frac
    a: float
    b: float
    method: str  # "width" | "intersection"
    residual: float
    extra_crossings: tuple[float, ...] = ()


def _default_bracket(frac: Frac, b: float) -> tuple[float, float]:
    # the raw map and both bounds obey a - b/2pi <= B(x) - x <= a + b/2pi, so
    # at p/q -+ (1/2 + b/2pi) every q-step displacement is <= -q/2 (>= q/2)
    r = 0.5 + b / TWO_PI
    v = frac.value
    return v - r, v + r


def _objective(kind: str, frac: Frac, b: float, num: Config):
    """The increasing function of a whose root is the ``kind`` boundary at b.

    It returns the pair (value, dB^q/da at the extremum's argument) that
    ``newton_root`` reads, on the raw map and on either bound.  A grid
    extremum that already has the sign refinement would give is returned
    unrefined, so the value is exact in its sign and otherwise a witness
    between the extremum and zero.
    """
    if kind not in _OBJECTIVES:
        raise ValueError(f"kind must be one of {BOUNDARY_KINDS}, got {kind!r}")
    _check_cap(frac, num)
    FamilyParams(frac.value, b)  # names a bad b before a bracket is built from it
    side, which = _OBJECTIVES[kind]
    p, q, grid = frac.p, frac.q, num.grid

    def objective(a: float) -> tuple[float, float]:
        value, x = _disp_extremum(FamilyParams(a, b), side, p, q, which, SINE, grid, band=0.0)
        return value, SINE.iterate_slope(a, b, side, x, q)[1]

    return objective


def boundary(kind: str, frac: Frac, b: float, num: Config = DEFAULT) -> float:
    """The unique a at which the selected displacement extremum vanishes.

    ``newton_root`` on the extremum and ``SINE.iterate_slope`` at its argument.
    The ends of ``_default_bracket`` are not evaluated: every q-step
    displacement is at most -q/2 at its lower end and at least q/2 at its
    upper end, which ``newton_root`` takes as their signs.
    """
    return newton_root(_objective(kind, frac, b, num), *_default_bracket(frac, b),
                       num.solver_tol, f_lo=-0.5 * frac.q, f_hi=0.5 * frac.q)


def section(frac: Frac, b: float, num: Config = DEFAULT) -> TongueSection:
    """All four boundaries at b, with the required orderings checked to 1e-8.

    psi1 > psi2 is legal (empty locking interval above the tip); only
    phi2 <= phi1, phi2 <= psi1, psi2 <= phi1 are enforced.
    """
    vals = {k: boundary(k, frac, b, num) for k in BOUNDARY_KINDS}
    sec = TongueSection(frac, b, vals["phi2"], vals["psi1"], vals["psi2"], vals["phi1"])
    if (sec.phi2 > sec.phi1 + 1e-8 or sec.phi2 > sec.psi1 + 1e-8
            or sec.psi2 > sec.phi1 + 1e-8):
        raise ConsistencyError(f"boundary ordering violated at {frac}, b={b}: {vals}")
    return sec


def locking_interval(frac: Frac, b: float,
                     num: Config = DEFAULT) -> tuple[float, float] | None:
    """[psi1, psi2] when non-empty, else None."""
    sec = section(frac, b, num)
    if sec.psi1 <= sec.psi2:
        return sec.psi1, sec.psi2
    return None


def sample_grid(lo: float, hi: float, n: int) -> list[float]:
    """``n`` evenly spaced values from lo to hi; one sample is lo alone."""
    gaps = max(n - 1, 1)
    return [lo + (hi - lo) * i / gaps for i in range(n)]


def _sweep(sample, coords, b_lo: float, b_hi: float, steps: int, floor: float,
           drift=None) -> list:
    """``sample(b)`` on ``sample_grid(b_lo, b_hi, steps)``; adjacent jumps above budget are warned.

    ``coords(point)`` lists the (label, value) pairs compared between
    neighbouring samples.  The budget is max(``floor``, twice the b step), so
    that regular drift in b never trips it; only step-disproportionate jumps
    are flagged.  A ``drift(b_prev, b)`` adds to
    the budget of each neighbouring pair.
    """
    if steps < 1:
        raise ValueError("steps must be at least 1")
    budget = max(floor, 2.0 * (b_hi - b_lo) / max(steps - 1, 1))
    out = [sample(b) for b in sample_grid(b_lo, b_hi, steps)]
    for prev, cur in zip(out, out[1:]):
        allowed = budget + (drift(prev.b, cur.b) if drift else 0.0)
        for (label, v_prev), (_, v_cur) in zip(coords(prev), coords(cur)):
            jump = abs(v_cur - v_prev)
            if jump > allowed:
                warnings.warn(f"{label} jumps by {jump:.3g} between b={prev.b} and b={cur.b}",
                              RuntimeWarning, stacklevel=3)
    return out


def trace(frac: Frac, b_lo: float, b_hi: float, steps: int,
          num: Config = DEFAULT) -> list[TongueSection]:
    """Sections on ``sample_grid``; neighbours apart by over max(0.02, 2 b-steps) are warned."""
    if b_lo > b_hi:
        raise ValueError("b_lo must not exceed b_hi")
    return _sweep(lambda b: section(frac, b, num),
                  lambda sec: [(f"{name} of {frac}", getattr(sec, name))
                               for name in BOUNDARY_KINDS],
                  b_lo, b_hi, steps, 0.02)


def _tip(frac: Frac, num: Config, full_scan: bool, method: str, objectives,
         closing=None) -> Tip:
    """The lowest b above the critical line where the two roots of ``objectives(b)`` meet.

    At each height ``root_order`` decides the sign of r1 - r2, starting from
    the a that decided the previous height with the change in b as its step.
    A coarse upward scan in steps of ``b_step`` finds the first turn of that
    sign from negative to non-negative, then bisection narrows it to
    ``b_tol``; ``full_scan`` scans on to the ceiling and records the midpoints
    of any further sign changes.  Roots that meet on a height (0.0) give no
    sign of their own: from the tip on the sign is non-negative, and a later
    change is bracketed by the nearest nonzero signs.  psi1 and psi2 are
    solved only at the tip: the residual is |psi2 - psi1|, and a is their
    mean unless ``closing(b)`` supplies it.
    """
    if frac.is_endpoint:
        raise ValueError(f"{frac} has no tip in the scanned range")
    _check_cap(frac, num)
    what = f"{method} tip of {frac}"
    last = [frac.value, None]  # the deciding a and the height it decided

    def f(b: float) -> float:
        x0, b_last = last
        step = num.b_step if b_last is None else abs(b - b_last)
        sign, x = root_order(*objectives(b), *_default_bracket(frac, b), x0, step,
                             num.solver_tol)
        last[:] = x, b
        return sign

    b_prev = SINE.b_critical
    f_prev = f(b_prev)
    if f_prev > 0.0:
        raise ConsistencyError(f"{what}: wrong sign on the critical line")
    b_lo = b_hi = f_lo = f_hi = None
    extras: list[float] = []
    b = b_prev
    while b < num.b_ceiling:
        b = min(b + num.b_step, num.b_ceiling)
        f_b = f(b)  # a sign, so a rise is upward
        if b_lo is None:
            if f_b > f_prev:
                b_lo, b_hi, f_lo, f_hi = b_prev, b, f_prev, f_b
                if not full_scan:
                    break
                f_b = 1.0  # non-negative from the tip on
        elif f_b == 0.0:  # roots that meet on a height: the crossing closes at the next sign
            continue
        elif f_b != f_prev:
            extras.append(0.5 * (b_prev + b))
        b_prev, f_prev = b, f_b
    if b_lo is None:
        raise TipNotFoundError(f"{what}: no sign change below b={num.b_ceiling}")
    b_star = bisect_root(f, b_lo, b_hi, num.b_tol, f_lo=f_lo, f_hi=f_hi)
    psi1 = boundary("psi1", frac, b_star, num)
    psi2 = boundary("psi2", frac, b_star, num)
    a = 0.5 * (psi1 + psi2) if closing is None else closing(b_star)
    return Tip(frac, a, b_star, method, abs(psi2 - psi1), tuple(extras))


@cached(maxsize=256)
def tip_by_width(frac: Frac, num: Config = DEFAULT, full_scan: bool = False) -> Tip:
    """Lowest b above the critical line where the locking width reaches zero.

    ``_tip`` on the order of psi1 and psi2, each height read from
    plateau-corner orbits from the critical line up (``_bound_sign``).
    ``full_scan`` keeps scanning to the ceiling and records any further sign
    changes (a connected principal component has none).
    """
    def sign(side: BoundSide, b: float):
        return lambda a: _bound_sign(FamilyParams(a, b), side, frac.p, frac.q, num, 0.0)

    return _tip(frac, num, full_scan, "width",
                lambda b: (sign(BoundSide.LOWER, b), sign(BoundSide.UPPER, b)))
