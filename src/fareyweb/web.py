"""Web strands, critical-line anchor points, intersection tips, twist cycles.

The right strand of p/q is the locus in the (a, b) plane where the lower
bound carries k_minus to c_plus + p in exactly q steps; the left strand sends
c_plus to k_minus + p under the upper bound.  Both defining iterates are
strictly increasing in a (slope at least 1), so each strand meets every
horizontal line in one root, certified by a bracketed Newton solve on the
bound orbit and its a-slope.  Strand crossings of the two parent strands
locate tips independently of any locking-width computation, and at a tip the
orbit of k_minus is a twist cycle whose combinatorics are fixed by the
parents' denominators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError
from .farey import Frac, parents
from .config import DEFAULT, Config, cached
from .lift import SINE, BoundSide, FamilyParams
from .rotation import _check_cap, _disp_grid
from .solvers import bisect_root, golden_max, golden_min, newton_root
from .tongue import Tip, _default_bracket, _sweep, _tip

#: circle-distance tolerance for the orbit-avoidance checks
CONSTRAINT_TOL = 1e-9

#: twist_cycles keeps extrema within this of zero as tangential fixed points
#: and matches orbit points to fixed points within MATCH_TOL
TOUCH_TOL = 1e-9
MATCH_TOL = 1e-5


@dataclass(frozen=True)
class StrandPoint:
    """One strand sample: the solved a at height b, plus raw-orbit checks.

    The defining equation is solved on the monotone bound; the avoidance
    constraints are then verified on the raw map and recorded per iterate
    ("ok", "avoidance", "early", "uncertain", or a single "relaxed" entry on
    the critical line, where the constraints do not apply).  ``method`` is
    "bound" for the monotone-bound root and "continued" when the sample came
    from the raw-map continuation used above the strand's tip ladder.
    """

    frac: Frac
    side: str  # "L" | "R"
    a: float
    b: float
    constraints_verified: bool
    constraint_report: tuple[str, ...]
    method: str = "bound"


@dataclass(frozen=True)
class TwistCycle:
    """A cycle on which the map acts like the rigid rotation by p/q.

    ``points`` are the q cycle points sorted in [0, 1); ``lift_increments``
    are the integers m_i with F(y_i) = y_{(i+p) mod q} + m_i.  ``crossing``
    records how the q-step displacement crosses zero on the cycle: +1 upward,
    -1 downward, 0 tangentially.
    """

    frac: Frac
    points: tuple[float, ...]
    lift_increments: tuple[int, ...]
    crossing: int


def _circle_dist(x: float, y: float) -> float:
    d = (x - y) % 1.0
    return min(d, 1.0 - d)


def _cycle_shift(pts, images, tol: float) -> int | None:
    """The k that sends each sorted point pts[i] to images[i] ~ pts[(i + k) % q], else None.

    k is read off the first image's nearest point; every image must then lie
    within ``tol`` of its place on the circle.
    """
    q = len(pts)
    k = min(range(q), key=lambda j: _circle_dist(images[0], pts[j]))
    ok = all(_circle_dist(y, pts[(i + k) % q]) <= tol for i, y in enumerate(images))
    return k if ok else None


def strand_sides(frac: Frac) -> tuple[str, ...]:
    """The sides whose strand ``frac`` has: both, less L of 0/1 and R of 1/1."""
    return ("R",) if frac.p == 0 else ("L",) if frac.p == frac.q else ("L", "R")


def _check_side(frac: Frac, side: str) -> None:
    if side not in ("L", "R"):
        raise ValueError(f"side must be 'L' or 'R', got {side!r}")
    if side not in strand_sides(frac):
        raise ValueError(f"the {dict(L='left', R='right')[side]} strand of {frac} is not defined")


def _strand_ends(frac: Frac, side: str, lm) -> tuple[float, float, BoundSide]:
    """(x0, target, bound) of the strand equation bound^q(x0) = target."""
    if side == "R":
        return lm.k_minus, lm.c_plus + frac.p, BoundSide.LOWER
    return lm.c_plus, lm.k_minus + frac.p, BoundSide.UPPER


def _strand_objective(frac: Frac, side: str, b: float, raw: bool = False,
                      slope: bool = False):
    """bound^q(x0) - target at height b as a function of a; it grows at least as fast as a.

    ``raw`` puts the raw map in place of the bound in the same equation (same
    x0 and target); that objective need not be monotone.  With ``slope`` it
    returns (value, d/da) from one orbit, the pair ``newton_root`` reads.
    """
    x0, target, bound = _strand_ends(frac, side, SINE.landmarks(b))
    bound = BoundSide.RAW if raw else bound

    def objective(a: float) -> float:
        return SINE.iterate(FamilyParams(a, b), bound, x0, frac.q) - target

    def with_slope(a: float) -> tuple[float, float]:
        value, s = SINE.iterate_slope(a, b, bound, x0, frac.q)
        return value - target, s

    return with_slope if slope else objective


def _strand_root(frac: Frac, side: str, b: float, num: Config) -> float:
    """The strand objective's one root by ``newton_root``; it lies within |objective(a0)| of a0.

    It grows at least as fast as a, so -+1e-9 bound its values at the ends of a bracket
    that holds a0 -+ |f0| about the Newton point a1, where the solve starts.
    """
    objective, a0 = _strand_objective(frac, side, b, slope=True), frac.value
    f0, s0 = objective(a0)
    if f0 == 0.0:
        return a0
    a1 = a0 - f0 / s0 if 0.0 < s0 < math.inf else a0
    r = abs(f0) + abs(a1 - a0) + 1e-9
    return newton_root(objective, a1 - r, a1 + r, num.solver_tol, f_lo=-1e-9, f_hi=1e-9)


def _raw_orbit(params: FamilyParams, x: float, n: int) -> list[float]:
    """x and its first n images under the raw map, as unreduced lift values."""
    orbit = [x]
    for _ in range(n):
        orbit.append(SINE.eval(params, orbit[-1]))
    return orbit


def _raw_orbit_flags(frac: Frac, side: str, a: float, b: float) -> tuple[str, ...]:
    """Per-iterate avoidance/early-arrival flags along the raw orbit."""
    lm = SINE.landmarks(b)
    if lm.degenerate:
        return ("relaxed",)
    params = FamilyParams(a, b)
    x0, target, _ = _strand_ends(frac, side, lm)
    # the avoided set: (k_minus, k] for right strands, [c, c_plus) for left ones
    avoid_lo, avoid_hi = (lm.k_minus, lm.k) if side == "R" else (lm.c, lm.c_plus)
    flags = []
    for i, x in enumerate(_raw_orbit(params, x0, frac.q)[1:], 1):
        t = x - math.floor(x)
        flag = "ok"
        if avoid_lo + CONSTRAINT_TOL < t < avoid_hi - CONSTRAINT_TOL:
            flag = "avoidance"
        elif abs(t - avoid_lo) <= CONSTRAINT_TOL or abs(t - avoid_hi) <= CONSTRAINT_TOL:
            # a boundary touch: the half-open set membership cannot be decided
            flag = "uncertain"
        # early arrival excludes only the exact lift value: orbits legally
        # revisit the same circle point at other integer translates
        if i < frac.q and flag == "ok" and abs(x - target) <= CONSTRAINT_TOL:
            flag = "early"
        flags.append(flag)
    return tuple(flags)


def _grid_roots(f, xs, g, xtol: float) -> list[float]:
    """Roots of f from its samples g = f(xs) on increasing xs, in order.

    A zero sample is a root as it stands; each cell whose ends have strictly
    opposite signs is bisected from those two samples, which must equal f
    there bit for bit.
    """
    sign = np.sign(g)
    roots = []
    for i in np.nonzero((sign == 0) | np.append(sign[:-1] * sign[1:] < 0, False))[0]:
        s = -float(sign[i])  # +1 where f rises through the cell, -1 where it falls
        roots.append(float(xs[i]) if s == 0 else float(bisect_root(
            lambda x: s * f(x), xs[i], xs[i + 1], xtol, f_lo=s * g[i], f_hi=s * g[i + 1])))
    return roots


def _raw_strand_roots(frac: Frac, side: str, b: float, lo: float, hi: float,
                      num: Config) -> list[float]:
    """All roots of the raw q-step strand equation on [lo, hi], from twice the displacement grid."""
    x0, target, _ = _strand_ends(frac, side, SINE.landmarks(b))
    a_grid = np.linspace(lo, hi, 2 * (num.grid_base + num.grid_per_q * frac.q))
    g = SINE.iterate_grid(a_grid, b, BoundSide.RAW, x0, frac.q) - target
    return _grid_roots(_strand_objective(frac, side, b, raw=True), a_grid, g, num.solver_tol)


def _segment_is_twist(frac: Frac, side: str, a: float, b: float) -> bool:
    """True when the defining orbit segment is combinatorially a rigid rotation.

    The lift must act in an order-preserving way on the segment's circle
    positions; among all raw roots of the strand equation this holds for
    exactly the one continuing the strand.
    """
    params = FamilyParams(a, b)
    x0 = _strand_ends(frac, side, SINE.landmarks(b))[0]
    ts = [x - math.floor(x) for x in _raw_orbit(params, x0, frac.q - 1)]
    images = [SINE.eval(params, t) for t in ts]
    order = sorted(range(frac.q), key=lambda i: ts[i])
    return all(images[i2] >= images[i1] - 1e-9 for i1, i2 in zip(order, order[1:]))


def strand_point(frac: Frac, side: str, b: float, num: Config = DEFAULT, *,
                 method: str = "bound") -> StrandPoint:
    """The strand's intersection with the horizontal line at b.

    "bound" solves the monotone-bound equation, whose unique certified root
    coincides with the strand at and below its tip ladder.  Above the ladder
    that root closes through a plateau and merges with a shallower strand;
    "continued" then re-solves the raw q-step equation and keeps the root
    whose orbit segment is twist-ordered, which is the continuation the
    strict strand ordering of the trichotomy refers to.
    """
    if method not in ("bound", "continued"):
        raise ValueError(f"method must be 'bound' or 'continued', got {method!r}")
    _check_side(frac, side)
    _check_cap(frac, num)
    a_star = _strand_root(frac, side, b, num)
    flags = _raw_orbit_flags(frac, side, a_star, b)
    verified = all(f in ("ok", "relaxed") for f in flags)
    how = "bound"
    if method == "continued" and not verified:
        cands = [a for a in _raw_strand_roots(frac, side, b, *_default_bracket(frac, b), num)
                 if _segment_is_twist(frac, side, a, b)]
        if cands:
            a_star = min(cands, key=lambda a: abs(a - a_star))
            flags = _raw_orbit_flags(frac, side, a_star, b)
            verified = all(f in ("ok", "relaxed") for f in flags)
            how = "continued"
    return StrandPoint(frac, side, a_star, b, verified, flags, how)


def trace_strand(frac: Frac, side: str, b_lo: float, b_hi: float, steps: int,
                 num: Config = DEFAULT, *, method: str = "bound") -> list[StrandPoint]:
    """Strand samples at uniformly spaced b; jumps above budget are warned.

    The budget floor is wider than for tongue sections, and each step's
    budget also admits the change of the landmark gap c_plus - k_minus:
    strands move fastest just above the critical line, where that gap opens
    like a square root.
    """
    if not SINE.b_critical <= b_lo <= b_hi:
        raise ValueError("need b_critical <= b_lo <= b_hi")

    def gap(b: float) -> float:
        lm = SINE.landmarks(b)
        return lm.c_plus - lm.k_minus

    return _sweep(lambda b: strand_point(frac, side, b, num, method=method),
                  lambda pt: [(f"strand {side} of {frac}", pt.a)],
                  b_lo, b_hi, steps, 0.05, drift=lambda b0, b1: abs(gap(b1) - gap(b0)))


@cached(maxsize=1024)
def b_point(frac: Frac, num: Config = DEFAULT) -> tuple[float, float]:
    """The unique critical-line point whose critical orbit is p/q-periodic.

    On the critical line both bounds are the raw map and all four landmarks
    are the critical point c, so the strand equation there reads F^q(c) = c + p.
    """
    _check_cap(frac, num)
    b = SINE.b_critical
    return _strand_root(frac, "R", b, num), b


@cached(maxsize=256)
def tip_by_intersection(frac: Frac, num: Config = DEFAULT, full_scan: bool = False) -> Tip:
    """Tip located as the lowest crossing of the two parent strands.

    The right strand of the left parent and the left strand of the right
    parent start apart on the critical line and cross at the tip.  ``_tip``
    decides each height by the order of the two strand roots, and the strand
    points are solved only at the crossing, whose mean is the reported a.
    The residual is the locking width measured there, the same quantity the
    width method drives to zero, so the two methods are directly comparable.
    """
    # both read ``parents`` only once ``_tip`` has checked frac, which may be an endpoint
    def objectives(b: float):
        left, right = parents(frac)
        return _strand_objective(left, "R", b), _strand_objective(right, "L", b)

    def closing(b: float) -> float:
        left, right = parents(frac)
        return 0.5 * (_strand_root(left, "R", b, num) + _strand_root(right, "L", b, num))

    return _tip(frac, num, full_scan, "intersection", objectives, closing)


def twist_cycles(params: FamilyParams, side: BoundSide, frac: Frac,
                 num: Config = DEFAULT) -> list[TwistCycle]:
    """All twist p/q-cycles of the selected map (at most two for this family).

    Fixed points of the q-step displacement are the grid roots of one
    periodic scan; extrema grazing zero within ``TOUCH_TOL`` after refinement
    are kept as tangential fixed points.  One map step sends each fixed point
    to its nearest fixed point; a twist cycle is a q-cycle of that successor
    map whose images advance its sorted points by p places, the rigid
    rotation by p/q.  More than two such cycles is a structural failure.
    """
    _check_cap(frac, num)
    p, q = frac.p, frac.q
    xs, g = _disp_grid(params, side, p, q, num.grid)
    h = 1.0 / len(xs)

    def scalar(x: float) -> float:
        return SINE.iterate(params, side, x, q) - x - p

    roots: list[float] = []

    def add_root(x: float) -> None:
        # merge clusters around a near-tangency: points count as one fixed
        # point when the displacement stays within TOUCH_TOL between them
        t = float(x) % 1.0
        for idx, r in enumerate(roots):
            d = _circle_dist(r, t)
            if d < 1e-7:
                return
            if d < 1e-3 and abs(scalar(0.5 * (r + t) if abs(r - t) < 0.5
                                       else 0.5 * (r + t) - 0.5)) <= TOUCH_TOL:
                if abs(scalar(t)) < abs(scalar(r)):
                    roots[idx] = t
                return
        roots.append(t)

    # the displacement is periodic: close the grid with its value at x = 1
    for x in _grid_roots(scalar, np.append(xs, 1.0), np.append(g, g[0]), 1e-13):
        add_root(x)

    # tangential fixed points graze zero without a sign change; the grid value
    # near one is quadratic in the cell size, so filter loosely, keep one
    # candidate per dip of |g| and let the refinement decide
    grid_filter = max(TOUCH_TOL, 100.0 * h * h * (1.0 + params.b) ** q)
    dist = np.abs(g)
    dip = (dist <= np.roll(dist, 1)) & (dist <= np.roll(dist, -1))
    near = np.nonzero(dip & (dist <= grid_filter))[0]
    if len(near) > 256:
        near = near[np.argsort(dist[near])[:256]]
    for i in near:
        lo, hi = xs[i] - h, xs[i] + h
        if g[i] >= 0.0:
            x_t, v_t = golden_min(scalar, lo, hi, 1e-13)
        else:
            x_t, v_t = golden_max(scalar, lo, hi, 1e-13)
        if abs(v_t) <= TOUCH_TOL:
            add_root(x_t)

    # one map step sends each fixed point near another: the successor map;
    # a far match fails the shift test below
    roots.sort()
    images = [SINE.bound_eval(params, side, r) for r in roots]
    succ = [min(range(len(roots)), key=lambda j: _circle_dist(y, roots[j])) for y in images]
    cycles: list[TwistCycle] = []
    for start in range(len(roots)):
        orbit = [start]
        for _ in range(q - 1):
            orbit.append(succ[orbit[-1]])
        # each q-cycle is taken once, from its first point
        if succ[orbit[-1]] != start or len(set(orbit)) < q or min(orbit) < start:
            continue
        orbit.sort()
        pts, imgs = [roots[i] for i in orbit], [images[i] for i in orbit]
        if _cycle_shift(pts, imgs, MATCH_TOL) != p % q:
            continue
        incs = tuple(int(round(y - pts[(k + p) % q])) for k, y in enumerate(imgs))
        lv, rv = scalar(pts[0] - 1e-6), scalar(pts[0] + 1e-6)
        crossing = (1 if lv < -TOUCH_TOL and rv > TOUCH_TOL
                    else -1 if lv > TOUCH_TOL and rv < -TOUCH_TOL else 0)
        cycles.append(TwistCycle(frac, tuple(pts), incs, crossing))
    if len(cycles) > 2:
        raise ConsistencyError(
            f"{len(cycles)} twist {frac}-cycles found at a={params.a}, b={params.b}; "
            "at most two are possible for this family")
    return cycles

