"""Certified rotation numbers and rotation intervals.

For a non-decreasing degree-one lift the displacement d = F^n(x) - x of any
single orbit pins the rotation number inside [(d - 1)/n, (d + 1)/n], so an
enclosure of width 2/n comes for free with n iterations and is unconditionally
valid.  The rotation interval of the full family map is the interval between
the rotation numbers of its lower and upper monotone bounds, computed the same
way, with exact rational endpoints recovered by a sign test on the q-step
displacement whenever a unique simple rational sits inside an enclosure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT, Config
from .farey import Frac, simplest_in_interval
from .lift import SINE, BoundSide, FamilyParams
from .solvers import golden_max, golden_min

#: lock_status reports displacement extrema within this of zero as uncertain.
LOCK_BAND = 1e-11


@dataclass(frozen=True)
class Enclosure:
    """A certified bracket lo <= rho <= hi around a rotation number."""

    lo: float
    hi: float
    iterations: int = 0
    exact: tuple[int, int] | None = None  # snapped rational (num, den), num signed

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError(f"empty enclosure [{self.lo}, {self.hi}]")

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def mid(self) -> float:
        return 0.5 * (self.lo + self.hi)

    def contains(self, v: float) -> bool:
        return self.lo <= v <= self.hi


@dataclass(frozen=True)
class RotationInterval:
    """Enclosures of the two endpoints: rho(lower bound) and rho(upper bound)."""

    lower: Enclosure
    upper: Enclosure

    @property
    def width(self) -> float:
        """Outer width; zero within tolerance means frequency-locked."""
        return max(0.0, self.upper.hi - self.lower.lo)


@dataclass(frozen=True)
class LockStatus:
    state: str  # "locked" | "not_locked" | "uncertain"
    frac: Frac | None = None


@dataclass(frozen=True)
class Extrema:
    """Extrema of the q-step displacement G(x) = F^q(x) - x - p over one period."""

    minimum: float
    argmin: float
    maximum: float
    argmax: float


def _orbit_steps(tol: float, max_iter: int) -> int:
    """Orbit length of an enclosure of width ``tol``: 2/tol, capped at ``max_iter``."""
    return min(max_iter, math.ceil(2.0 / tol))


def rho_monotone(map_fn, num: Config = DEFAULT) -> Enclosure:
    """Enclosure of the rotation number of a non-decreasing degree-one lift.

    ``map_fn`` is a scalar callable, iterated from 0.  Iteration count is
    2/rot_tol capped at ``rot_max_iter``; when the cap binds the returned
    enclosure is simply wider.  A coarse sample first verifies monotonicity and
    the degree-one identity before any long iteration is spent.
    """
    xs = [i / 64.0 for i in range(65)]
    vals = [map_fn(x) for x in xs]
    for i in range(64):
        if vals[i + 1] < vals[i] - 1e-12:
            raise ValueError(f"map is not non-decreasing near x={xs[i]}")
    if abs(map_fn(1.0) - (map_fn(0.0) + 1.0)) > 1e-9:
        raise ValueError("map does not satisfy the degree-one identity")
    n = _orbit_steps(num.rot_tol, num.rot_max_iter)
    t = carry = 0.0
    for _ in range(n):
        v = map_fn(t)
        f = math.floor(v)
        t = v - f
        carry += f
        if t >= 1.0:
            t -= 1.0
            carry += 1.0
    d = carry + t
    return Enclosure((d - 1.0) / n, (d + 1.0) / n, n)


def _disp_grid(params: FamilyParams, side: BoundSide, p: int, q: int, family,
               grid: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """Grid xs over one period and the displacement g = F^q(xs) - xs - p on it."""
    n = grid[0] + grid[1] * q
    xs = np.arange(n) / n
    ys = xs.copy()
    for _ in range(q):
        ys = family.bound_eval(params, side, ys)
    return xs, ys - xs - p


def _disp_extremum(params: FamilyParams, side: BoundSide, p: int, q: int,
                   mode: str, family, grid: tuple[int, int], xtol: float,
                   band: float | None = None):
    """Extrema of F^q(x) - x - p from one grid pass, refined inside the best cell.

    ``mode`` "min" or "max" returns (value, x) of that extremum; "both" returns
    the ``Extrema`` of both, refined from the same grid.  Refinement only
    moves a max up and a min down, so with a ``band`` a grid max above +band
    (grid min below -band) is returned unrefined: it already decides every
    comparison of that extremum with 0 and +-band.
    """
    xs, g = _disp_grid(params, side, p, q, family, grid)
    h = 1.0 / len(xs)

    def scalar(x: float) -> float:
        return family.iterate(params, side, x, q) - x - p

    def refine(which: str) -> tuple[float, float]:
        if which == "min":
            i = int(np.argmin(g))
            if band is not None and g[i] < -band:
                return float(g[i]), float(xs[i])
            x_ref, v_ref = golden_min(scalar, xs[i] - h, xs[i] + h, xtol)
            on_grid = g[i] < v_ref
        else:
            i = int(np.argmax(g))
            if band is not None and g[i] > band:
                return float(g[i]), float(xs[i])
            x_ref, v_ref = golden_max(scalar, xs[i] - h, xs[i] + h, xtol)
            on_grid = g[i] > v_ref
        return (float(g[i]), float(xs[i])) if on_grid else (v_ref, x_ref % 1.0)

    if mode == "both":
        return Extrema(*refine("min"), *refine("max"))
    return refine(mode)


def _check_cap(frac: Frac, num: Config) -> None:
    if frac.q > num.q_cap:
        raise ValueError(f"denominator {frac.q} exceeds cap {num.q_cap}")


def displacement_extrema(params: FamilyParams, side: BoundSide, frac: Frac,
                         offset: int = 0, num: Config = DEFAULT) -> Extrema:
    """Extrema over one period of F^q(x) - x - (p + offset*q) for the selected map.

    ``offset`` translates the target rational by an integer, covering rotation
    numbers outside [0, 1].
    """
    _check_cap(frac, num)
    p = frac.p + offset * frac.q
    return _disp_extremum(params, side, p, frac.q, "both", SINE, num.grid, 1e-13)


def lock_status(params: FamilyParams, frac: Frac, offset: int = 0,
                num: Config = DEFAULT) -> LockStatus:
    """Exact-rational lock test by displacement signs.

    Locked means the lower bound still reaches x + p somewhere (its max
    displacement is >= 0) while the upper bound still dips to x + p (its min
    is <= 0); ties at zero count as locked.  Verdicts inside the band
    ``LOCK_BAND`` around zero are reported as uncertain.
    """
    _check_cap(frac, num)
    p = frac.p + offset * frac.q
    max_low, _ = _disp_extremum(params, BoundSide.LOWER, p, frac.q, "max", SINE, num.grid,
                                1e-13, band=LOCK_BAND)
    min_up, _ = _disp_extremum(params, BoundSide.UPPER, p, frac.q, "min", SINE, num.grid,
                               1e-13, band=LOCK_BAND)
    if max_low >= LOCK_BAND and min_up <= -LOCK_BAND:
        return LockStatus("locked", frac)
    if max_low <= -LOCK_BAND or min_up >= LOCK_BAND:
        return LockStatus("not_locked")
    return LockStatus("uncertain", frac)


def _try_snap(enc: Enclosure, params: FamilyParams, side: BoundSide,
              num: Config) -> tuple[int, int] | None:
    """Exact rational for an enclosure, or None.

    Requires a unique simplest rational inside the enclosure and a strict
    two-sided sign straddle of the q-step displacement, so a rational is never
    reported on proximity alone.
    """
    k0 = math.floor(enc.lo)
    candidates: set[tuple[int, int]] = set()
    for k in (k0, k0 + 1):
        c = simplest_in_interval(enc.lo - k, enc.hi - k, qmax=num.snap_qmax)
        if c is not None:
            candidates.add((c.p + k * c.q, c.q))
    if len(candidates) != 1:
        return None
    p, q = candidates.pop()
    margin = 1e-12
    ext = _disp_extremum(params, side, p, q, "both", SINE, num.grid, 1e-13, band=margin)
    if ext.minimum <= -margin and ext.maximum >= margin:
        return p, q
    return None


def rot_interval(params: FamilyParams, num: Config = DEFAULT, *,
                 snap: bool = True) -> RotationInterval:
    """Rotation interval [rho(lower bound), rho(upper bound)] of the family map.

    Each endpoint is enclosed by one orbit of 2/rot_tol steps (capped at
    ``rot_max_iter``) from 0.
    """
    n = _orbit_steps(num.rot_tol, num.rot_max_iter)
    sides = {}
    for side in (BoundSide.LOWER, BoundSide.UPPER):
        d = SINE.iterate(params, side, 0.0, n)
        enc = Enclosure((d - 1.0) / n, (d + 1.0) / n, n)
        if snap:
            hit = _try_snap(enc, params, side, num)
            if hit is not None:
                p, q = hit
                v = p / q
                enc = Enclosure(v, v, enc.iterations, exact=(p, q))
        sides[side] = enc
    return RotationInterval(sides[BoundSide.LOWER], sides[BoundSide.UPPER])


def orbit_averages(params: FamilyParams, starts: np.ndarray, n: int) -> np.ndarray:
    """Finite-orbit displacement averages (F^n(x) - x)/n for a batch of starts."""
    finals = SINE.iterate_array(params, BoundSide.RAW, np.asarray(starts, dtype=float), n)
    return (finals - starts) / n
