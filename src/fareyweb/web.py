"""Web strands, critical-line anchor points, intersection tips, twist cycles.

The right strand of p/q is the locus in the (a, b) plane where the lower
bound carries k_minus to c_plus + p in exactly q steps; the left strand sends
c_plus to k_minus + p under the upper bound.  Both defining iterates are
strictly increasing in a (slope at least 1), so each strand meets every
horizontal line in one certified bisection root.  Strand crossings of the two
parent strands locate tips independently of any locking-width computation,
and at a tip the orbit of k_minus is a twist cycle whose combinatorics are
fixed by the parents' denominators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError
from .farey import Frac, parents
from .config import DEFAULT, Config, cached
from .lift import SINE, TWO_PI, BoundSide, FamilyParams
from .rotation import _check_cap, _disp_grid
from .solvers import bisect_root, golden_max, golden_min
from .tongue import Tip, _first_crossing, _sweep, boundary

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


@dataclass(frozen=True)
class TipCycleReport:
    """Checks of the two orbit identities and cycle combinatorics at a tip."""

    frac: Frac
    a: float
    b: float
    q1: int
    p1: int
    q2: int
    p2: int
    residual_right: float  # |F^q1(k_minus) - (c_plus + p1)|
    residual_left: float   # |F^q2(c_plus) - (k_minus + p2)|
    misses_gap: bool       # cycle avoids the open interval (k_minus, c_plus) mod 1
    succ_ok: bool          # q1 steps advance the sorted cycle by one position
    pred_ok: bool          # q2 steps retreat the sorted cycle by one position
    identity_tol: float
    combinatorics_tol: float

    @property
    def passed(self) -> bool:
        return (self.residual_right <= self.identity_tol
                and self.residual_left <= self.identity_tol
                and self.misses_gap and self.succ_ok and self.pred_ok)


def _circle_dist(x: float, y: float) -> float:
    d = (x - y) % 1.0
    return min(d, 1.0 - d)


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
    x = x0
    for i in range(1, frac.q + 1):
        x = SINE.eval(params, x)
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


def _raw_strand_roots(frac: Frac, side: str, b: float, lo: float, hi: float,
                      xtol: float) -> list[float]:
    """All roots of the raw q-step strand equation on [lo, hi]."""
    x0, target, _ = _strand_ends(frac, side, SINE.landmarks(b))
    p0 = FamilyParams(0.0, b)  # translation moves everything by a exactly
    n = 8192 + 1024 * frac.q
    a_grid = np.linspace(lo, hi, n)
    x = np.full(n, x0)
    for _ in range(frac.q):
        x = SINE.eval(p0, x) + a_grid
    g = x - target

    def scalar(a: float) -> float:
        return SINE.iterate(FamilyParams(a, b), BoundSide.RAW, x0, frac.q) - target

    roots = []
    for i in np.nonzero(np.diff(np.sign(g)) != 0)[0]:
        if g[i] == 0.0:
            roots.append(float(a_grid[i]))
        elif g[i] < 0.0:
            roots.append(bisect_root(scalar, a_grid[i], a_grid[i + 1], xtol))
        else:
            roots.append(bisect_root(lambda v: -scalar(v), a_grid[i], a_grid[i + 1], xtol))
    return roots


def _segment_is_twist(frac: Frac, side: str, a: float, b: float) -> bool:
    """True when the defining orbit segment is combinatorially a rigid rotation.

    The lift must act in an order-preserving way on the segment's circle
    positions; among all raw roots of the strand equation this holds for
    exactly the one continuing the strand.
    """
    params = FamilyParams(a, b)
    x = _strand_ends(frac, side, SINE.landmarks(b))[0]
    ts: list[float] = []
    images: list[float] = []
    for _ in range(frac.q):
        t = x - math.floor(x)
        ts.append(t)
        images.append(SINE.eval(params, t))
        x = SINE.eval(params, x)
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
    x0, target, bound = _strand_ends(frac, side, SINE.landmarks(b))

    def objective(a: float) -> float:
        return SINE.iterate(FamilyParams(a, b), bound, x0, frac.q) - target

    # the objective grows at least as fast as a, so the root is within
    # |objective(a0)| of any probe a0
    a0 = frac.value
    f0 = objective(a0)
    lo, hi = a0 - abs(f0) - 1e-9, a0 + abs(f0) + 1e-9
    a_star = bisect_root(objective, lo, hi, num.solver_tol)
    flags = _raw_orbit_flags(frac, side, a_star, b)
    verified = all(f in ("ok", "relaxed") for f in flags)
    how = "bound"
    if method == "continued" and not verified:
        r = 0.5 + b / TWO_PI
        cands = [a for a in _raw_strand_roots(frac, side, b, frac.value - r,
                                              frac.value + r, num.solver_tol)
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

    The budget floor is wider than for tongue sections: strands move fastest
    just above the critical line, where the landmark gap opens like a square
    root.
    """
    if not SINE.b_critical <= b_lo <= b_hi:
        raise ValueError("need b_critical <= b_lo <= b_hi")
    return _sweep(lambda b: strand_point(frac, side, b, num, method=method),
                  lambda pt: [(f"strand {side} of {frac}", pt.a)],
                  b_lo, b_hi, steps, 0.05)


@cached(maxsize=1024)
def b_point(frac: Frac, num: Config = DEFAULT) -> tuple[float, float]:
    """The unique critical-line point whose critical orbit is p/q-periodic."""
    b = SINE.b_critical
    c = SINE.landmarks(b).c  # single critical point on the critical line

    def objective(a: float) -> float:
        return SINE.iterate(FamilyParams(a, b), BoundSide.RAW, c, frac.q) - (c + frac.p)

    a0 = frac.value
    f0 = objective(a0)
    a_star = bisect_root(objective, a0 - abs(f0) - 1e-9, a0 + abs(f0) + 1e-9, num.solver_tol)
    return a_star, b


@cached(maxsize=256)
def tip_by_intersection(frac: Frac, num: Config = DEFAULT, full_scan: bool = False) -> Tip:
    """Tip located as the lowest crossing of the two parent strands.

    The right strand of the left parent and the left strand of the right
    parent start apart on the critical line and cross at the tip.  The
    residual reported is the locking width measured at the crossing, the same
    quantity the width method drives to zero, so the two methods are directly
    comparable.
    """
    if frac.is_endpoint:
        raise ValueError(f"{frac} has no tip in the scanned range")
    left, right = parents(frac)

    def gap(b: float) -> float:
        return strand_point(left, "R", b, num).a - strand_point(right, "L", b, num).a

    b_star, extras = _first_crossing(gap, num, full_scan, f"intersection tip of {frac}")
    ra = strand_point(left, "R", b_star, num).a
    la = strand_point(right, "L", b_star, num).a
    psi1 = boundary("psi1", frac, b_star, num)
    psi2 = boundary("psi2", frac, b_star, num)
    return Tip(frac, 0.5 * (ra + la), b_star, "intersection", abs(psi2 - psi1), extras)


def twist_cycles(params: FamilyParams, side: BoundSide, frac: Frac,
                 num: Config = DEFAULT) -> list[TwistCycle]:
    """All twist p/q-cycles of the selected map (at most two for this family).

    Fixed points of the q-step displacement are found by sign-change scanning
    plus bisection; extrema grazing zero within ``TOUCH_TOL`` after refinement
    are kept as tangential fixed points.  Fixed points are grouped into
    orbits, and only cycles on which the map acts as the rigid rotation by
    p/q are returned.  More than two such cycles is a structural failure.
    """
    _check_cap(frac, num)
    p, q = frac.p, frac.q
    xs, g = _disp_grid(params, side, p, q, SINE, num.grid)
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

    g_next = np.roll(g, -1)  # displacement is periodic, so roll wraps correctly
    for i in np.nonzero(((g <= 0.0) & (g_next >= 0.0)) | ((g >= 0.0) & (g_next <= 0.0)))[0]:
        lo, hi = xs[i], xs[i] + h
        if g[i] == 0.0:
            add_root(float(xs[i]))
        elif g[i] < 0.0 < g_next[i]:
            add_root(bisect_root(scalar, lo, hi, 1e-13))
        elif g[i] > 0.0 > g_next[i]:
            add_root(bisect_root(lambda x: -scalar(x), lo, hi, 1e-13))

    # tangential fixed points graze zero without a sign change; the grid value
    # near one is quadratic in the cell size, so filter loosely and let the
    # refinement decide
    grid_filter = max(TOUCH_TOL, 100.0 * h * h * (1.0 + params.b) ** q)
    near = np.nonzero(np.abs(g) <= grid_filter)[0]
    if len(near) > 256:
        near = near[np.argsort(np.abs(g[near]))[:256]]
    for i in near:
        lo, hi = xs[i] - h, xs[i] + h
        if g[i] >= 0.0:
            x_t, v_t = golden_min(scalar, lo, hi, 1e-13)
        else:
            x_t, v_t = golden_max(scalar, lo, hi, 1e-13)
        if abs(v_t) <= TOUCH_TOL:
            add_root(x_t)

    if not roots:
        return []

    roots_sorted = sorted(roots)
    used = [False] * len(roots_sorted)
    cycles: list[TwistCycle] = []
    for i0, r0 in enumerate(roots_sorted):
        if used[i0]:
            continue
        used[i0] = True
        taken = []
        orbit = [r0]
        x = r0
        broken = False
        for _ in range(q - 1):
            x = SINE.bound_eval(params, side, x) % 1.0
            dists = [_circle_dist(x, r) for r in roots_sorted]
            j = int(np.argmin(dists))
            if dists[j] > MATCH_TOL or used[j]:
                broken = True
                break
            used[j] = True
            taken.append(j)
            orbit.append(roots_sorted[j])
        if broken or len(set(orbit)) != q:
            for j in taken:  # leave the points available for other groupings
                used[j] = False
            continue
        pts = tuple(sorted(orbit))
        # twist test: one application advances the sorted cycle by p positions
        incs = []
        twist = True
        for idx, y in enumerate(pts):
            fy = SINE.bound_eval(params, side, y)
            succ = pts[(idx + p) % q]
            if _circle_dist(fy, succ) > MATCH_TOL:
                twist = False
                break
            incs.append(int(round(fy - succ)))
        if not twist:
            continue
        rep = pts[0]
        left_val = scalar(rep - 1e-6)
        right_val = scalar(rep + 1e-6)
        if left_val < -TOUCH_TOL and right_val > TOUCH_TOL:
            crossing = 1
        elif left_val > TOUCH_TOL and right_val < -TOUCH_TOL:
            crossing = -1
        else:
            crossing = 0
        cycles.append(TwistCycle(frac, pts, tuple(incs), crossing))
    if len(cycles) > 2:
        raise ConsistencyError(
            f"{len(cycles)} twist {frac}-cycles found at a={params.a}, b={params.b}; "
            "at most two are possible for this family")
    return cycles


def verify_tip_cycle(tip: Tip, *, identity_tol: float = 1e-8,
                     combinatorics_tol: float = 1e-6) -> TipCycleReport:
    """Check the orbit identities and cycle structure at a tip.

    At the tip, k_minus reaches c_plus + p1 in q1 steps and c_plus reaches
    k_minus + p2 in q2 steps (parents p1/q1 and p2/q2); the union is a twist
    cycle avoiding the open gap between k_minus and c_plus.  The identity
    residuals are held to ``identity_tol``; whole-orbit successor/predecessor
    matching uses the looser ``combinatorics_tol`` since q-fold composition
    amplifies the tip's own coordinate tolerance.
    """
    left, right = parents(tip.frac)
    q1, p1 = left.q, left.p
    q2, p2 = right.q, right.p
    lm = SINE.landmarks(tip.b)
    params = FamilyParams(tip.a, tip.b)
    res_r = abs(SINE.iterate(params, BoundSide.RAW, lm.k_minus, q1) - (lm.c_plus + p1))
    res_l = abs(SINE.iterate(params, BoundSide.RAW, lm.c_plus, q2) - (lm.k_minus + p2))

    # the raw orbit of k_minus is the candidate cycle
    q = tip.frac.q
    orbit = [lm.k_minus % 1.0]
    x = lm.k_minus
    for _ in range(q - 1):
        x = SINE.eval(params, x)
        orbit.append(x % 1.0)
    pts = sorted(orbit)
    gap_lo, gap_hi = lm.k_minus, lm.c_plus
    misses = all(not (gap_lo + combinatorics_tol < t < gap_hi - combinatorics_tol)
                 for t in pts)
    succ_ok = True
    pred_ok = True
    for idx, y in enumerate(pts):
        fy1 = SINE.iterate(params, BoundSide.RAW, y, q1)
        if _circle_dist(fy1, pts[(idx + 1) % q]) > combinatorics_tol:
            succ_ok = False
        fy2 = SINE.iterate(params, BoundSide.RAW, y, q2)
        if _circle_dist(fy2, pts[(idx - 1) % q]) > combinatorics_tol:
            pred_ok = False
    return TipCycleReport(tip.frac, tip.a, tip.b, q1, p1, q2, p2, res_r, res_l,
                          misses, succ_ok, pred_ok, identity_tol, combinatorics_tol)
