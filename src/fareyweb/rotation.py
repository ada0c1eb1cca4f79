"""Certified rotation numbers and rotation intervals.

For a non-decreasing degree-one lift F four certificates bound the rotation
number rho:

* an orbit: the displacement d = F^n(x) - x of any single orbit pins rho
  inside [(d - 1)/n, (d + 1)/n], so n iterations give an enclosure of width
  2/n (the width rasters of ``fareyweb scan``, and the end of a Farey
  descent at a tie that no sign test certifies).  A float orbit whose
  reduced state repeats, as a locked bound's orbit does once it lands on
  the plateau, is exactly periodic from then on: a long ``iterate_grid``
  pass finds the repeat and adds the remaining whole periods at once, bit
  for bit the full orbit, and runs its last few live orbits in the scalar
  loop;
* a Farey test: F^q(0) >= p implies rho >= p/q and F^q(0) <= p implies
  rho <= p/q; it reads a q-step prefix of the orbit of 0;
* a cell bound: for non-decreasing F, g = F^q(x) - x - p obeys
  g(x_i) - h <= g <= g(x_i + h) + h on each grid cell of width h, so one grid
  pass encloses both extrema of g (a first-order interval enclosure);
* a corner orbit: above the critical line the lower bound L is flat on
  [k_minus, k] and the upper bound U on [c, c_plus]; on it both corners are
  the turning point 1/2 and both bounds are the map, so the test holds there
  too (``_bound_sign``, which serves lock verdicts and width tips).  Let
  D_j = B^{jq}(x0) - x0 - jp, from x0 = k_minus for L and c_plus for U.
  Were g_L < 0 everywhere, every D_j would be, so D_j >= 0 gives
  max g_L >= 0; any orbit obeys |B^n(x) - x - n rho(B)| <= 1 (Rhodes &
  Thompson, 1986), so D_j < -1 gives rho(L) < p/q.  Mirrored, D_j <= 0
  gives min g_U <= 0 and D_j > 1 gives rho(U) > p/q.  A tie band
  ROUND_BAND * j * (q + |p|) covers the rounding of the jq steps;
* a straddle: g(x1) > 0 > g(x2) beyond a margin shows that the continuous g
  has a zero, a periodic orbit of type p/q, so rho = p/q (``_try_snap``,
  which seeks x1 and x2 around the cycle the descent's orbit runs toward).

The rotation interval of the family map runs from the rotation number of its
lower monotone bound to that of its upper one.  ``rot_interval`` encloses each
by a Stern-Brocot descent of Farey tests, which ends on a pair of certified
Farey neighbours p/q < p'/q' with 1/(q q') <= rot_tol.  The mediants it tests
have growing q, so all its tests read one forward orbit of 0 as it runs.  An
exact rational comes only from a strict two-sided sign test of the q-step
displacement around the cycle the descent's orbit runs toward (``_try_snap``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .config import DEFAULT, Config
from .farey import Frac
from .lift import SINE, BoundSide, FamilyParams
from .solvers import golden_max, golden_min

#: lock_status reports displacement extrema within this of zero as uncertain.
LOCK_BAND = 1e-11
#: A Farey test with |F^q(0) - p| <= ROUND_BAND * (q + |p|) is a tie, not a
#: certificate: it covers the rounding of q reduced steps and of the carry.
ROUND_BAND = 1e-13
#: A run of this many moves toward one node may hand over to ``_try_snap``.
SNAP_RUN = 8
#: A bounded extremum of a non-decreasing map first reads every STRIDE-th grid point.
STRIDE = 16
#: ``_try_snap`` estimates the cycle point after this many q-cycles in all...
SETTLE = (0, 8, 32)
#: ... and tries a straddle of each of these half-widths around each estimate.
SNAP_EPS = (1e-9, 1e-7, 1e-5, 1e-3, 3e-3, 1e-2, 3e-2, 1e-1)
#: Cost of one grid point-step of the grid pass that ``_try_snap`` may fall
#: back to, in scalar map steps (0.05-0.12 measured for q >= 10 at the
#: default grid).
GRID_STEP_COST = 0.1


@dataclass(frozen=True)
class Enclosure:
    """A certified bracket lo <= rho <= hi around a rotation number."""

    lo: float
    hi: float
    iterations: int = 0  # map steps run by the orbit its tests read
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


def _disp_grid(params: FamilyParams, side: BoundSide, p: int, q: int,
               grid: tuple[int, int], stride: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Every ``stride``-th point xs of the grid over one period, and g = F^q(xs) - xs - p."""
    n = grid[0] + grid[1] * q
    xs = np.arange(0, n, stride) / n
    return xs, SINE.iterate_array(params, side, xs, q) - xs - p


def _disp_extremum(params: FamilyParams, side: BoundSide, p: int, q: int,
                   mode: str, family, grid: tuple[int, int], band: float | None = None):
    """Extrema of F^q(x) - x - p from a grid pass, refined inside the best cell.

    ``mode`` "min" or "max" returns (value, x) of that extremum; "both" returns
    the ``Extrema`` of both.  With a ``band`` a grid max above +band, or a cell
    bound of a non-decreasing map (tried on every ``STRIDE``-th point first)
    below -band, is returned unrefined, and likewise for a min: either lies
    between the extremum and 0.  The grid pass equals ``family.iterate``
    (``family`` is always ``SINE``) bit for bit; golden refinement runs to 1e-13.
    """
    n = grid[0] + grid[1] * q
    monotone = side is not BoundSide.RAW or params.b <= SINE.b_critical
    strides = (STRIDE, 1) if band is not None and monotone else (1,)
    band = math.inf if band is None else band
    grid_pass = cache(lambda stride: _disp_grid(params, side, p, q, grid, stride))

    def extremum(which: str) -> tuple[float, float]:
        s, golden = (1.0, golden_max) if which == "max" else (-1.0, golden_min)
        for stride in strides:
            xs, g = grid_pass(stride)
            i = int(np.argmax(s * g))
            # g moves by at most a cell width within a cell; ROUND_BAND covers rounding
            cell = stride / n + ROUND_BAND * (q + abs(p)) if monotone else math.inf
            if s * g[i] > band:
                return float(g[i]), float(xs[i])
            if s * g[i] + cell < -band:
                return float(g[i] + s * cell), float(xs[i])
        x_ref, v_ref = golden(lambda x: family.iterate(params, side, x, q) - x - p,
                              xs[i] - 1.0 / n, xs[i] + 1.0 / n)
        return ((float(g[i]), float(xs[i])) if s * g[i] > s * v_ref
                else (float(v_ref), float(x_ref % 1.0)))

    if mode == "both":
        return Extrema(*extremum("min"), *extremum("max"))
    return extremum(mode)


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
    return _disp_extremum(params, side, p, frac.q, "both", SINE, num.grid)


def _corner(side: BoundSide, b: float) -> tuple[float, float]:
    """(x0, s) above the critical line: the corner whose orbit decides the bound,
    and the sign that turns its verdicts into the lower bound's."""
    lm = SINE.landmarks(b)
    return (lm.k_minus, 1.0) if side is BoundSide.LOWER else (lm.c_plus, -1.0)


def _bound_sign(params: FamilyParams, side: BoundSide, p: int, q: int, num: Config,
                band: float) -> float:
    """max g_L (LOWER) or min g_U (UPPER) at b >= 1: -inf or +inf once the corner-orbit
    test (module docstring) certifies its sign, else ``_disp_extremum``'s value with
    ``band``.  The orbit stops undecided after (grid_base + grid_per_q * q) // STRIDE
    cycles, about a coarse grid pass, or as soon as a cycle maps it onto itself."""
    x0, s = _corner(side, params.b)
    y = x0
    for j in range(1, (num.grid_base + num.grid_per_q * q) // STRIDE + 1):
        y, last = SINE.iterate(params, side, y, q) - p, y  # near x0: p costs no bits
        if y == last:  # every later D_j is D_{j-1}, and the tie only widens
            break
        d, tie = y - x0, ROUND_BAND * j * (q + abs(p))
        if s * d > tie or s * d < -1.0 - tie:
            return math.copysign(math.inf, d)
    which = "max" if side is BoundSide.LOWER else "min"
    return _disp_extremum(params, side, p, q, which, SINE, num.grid, band=band)[0]


def lock_status(params: FamilyParams, frac: Frac, offset: int = 0,
                num: Config = DEFAULT) -> LockStatus:
    """Exact-rational lock test by displacement signs.

    Locked means the lower bound still reaches x + p somewhere (its max
    displacement is >= 0) while the upper bound still dips to x + p (its min
    is <= 0); ties at zero count as locked.  Below the critical line both
    bounds are the map itself, and one grid pass gives both extrema.  From
    the critical line up ``_bound_sign`` reads each bound, lower first, from
    its plateau-corner orbit, and runs a grid pass only for a bound whose
    orbit decides nothing.  Grid verdicts inside the band ``LOCK_BAND``
    around zero are reported as uncertain.
    """
    _check_cap(frac, num)
    p = frac.p + offset * frac.q
    if params.b < SINE.b_critical:
        ext = _disp_extremum(params, BoundSide.RAW, p, frac.q, "both", SINE, num.grid,
                             band=LOCK_BAND)
        max_low, min_up = ext.maximum, ext.minimum
    else:
        max_low = _bound_sign(params, BoundSide.LOWER, p, frac.q, num, LOCK_BAND)
        if max_low <= -LOCK_BAND:  # the lower bound alone rules the lock out
            return LockStatus("not_locked")
        min_up = _bound_sign(params, BoundSide.UPPER, p, frac.q, num, LOCK_BAND)
    if max_low >= LOCK_BAND and min_up <= -LOCK_BAND:
        return LockStatus("locked", frac)
    if max_low <= -LOCK_BAND or min_up >= LOCK_BAND:
        return LockStatus("not_locked")
    return LockStatus("uncertain", frac)


def _try_snap(params: FamilyParams, side: BoundSide, p: int, q: int, t: float,
              num: Config) -> tuple[int, int] | None:
    """(p, q) when a strict sign straddle of g = F^q(x) - x - p certifies rho = p/q.

    An orbit of rotation number p/q runs toward an attracting p/q cycle, so
    the straddle is first sought there: from t, a point of the descent's
    orbit, the test runs ``SETTLE`` cycles of G(y) = F^q(y) - p in all,
    estimates the cycle point x* by Aitken's delta-squared from the last
    three iterates after each, and tries g at x* -+ eps for each eps of
    ``SNAP_EPS`` beyond the band 1e-12 + ``ROUND_BAND`` * (q + |p|); g has
    period 1, so x* is taken mod 1, where the band covers its rounding.
    That is at most 2 + 32 + 48 = 82 q-step orbits.  Only if they find no
    straddle does a grid pass seek one, as for a lock just inside a tongue
    edge, whose cycle the orbit has not reached or whose window lies
    between two eps.
    """
    edge = 1e-12 + ROUND_BAND * (q + abs(p))
    ys = [t]
    for settle in SETTLE:
        while len(ys) < settle + 3:
            ys.append(SINE.iterate(params, side, ys[-1], q) - p)
        y0, y1, y2 = ys[-3:]
        d2 = y2 - 2.0 * y1 + y0
        x = (y2 - (y2 - y1) ** 2 / d2 if d2 else y2) % 1.0
        for eps in SNAP_EPS:
            g = [SINE.iterate(params, side, x + e, q) - (x + e) - p for e in (-eps, eps)]
            if min(g) <= -edge and max(g) >= edge:
                return p, q
    ext = _disp_extremum(params, side, p, q, "both", SINE, num.grid, band=1e-12)
    if ext.minimum <= -1e-12 and ext.maximum >= 1e-12:
        return p, q
    return None


def _descend(params: FamilyParams, side: BoundSide, num: Config) -> Enclosure:
    """Enclosure of the rotation number of one bound by Farey descent.

    Nodes are integer pairs (p, q).  From the integer bracket around F(0) the
    descent tests the mediant of its bracket, a Stern-Brocot walk whose
    bracket is always a pair of Farey neighbours.  Mediant q only grow, so
    one forward orbit of 0 serves every test: it is carried to each
    mediant's q, and its length n is the map steps run (``iterations``).
    The descent stops at width rot_tol or before a mediant of q past
    rot_max_iter.  The SNAP_RUN-th consecutive move toward one node hands
    that node to ``_try_snap``, with the reduced state t of the orbit, when
    the grid pass that the snap may fall back to is cheaper than the steps
    the run may still take; so does a tie, and so does the end of the walk.  A tie that the sign test does
    not certify ends the descent by extending the orbit to n >= 2/rot_tol
    steps (within rot_max_iter): F^n(0) lies strictly between integers
    p < p', so rho is in [p/n, p'/n], of width at most 2/n.  F_{a+k} = F_a + k
    for an integer k, so the walk runs on a - floor(a), where the orbit keeps
    its low bits at any |a|, and each end p/q is reported as (p + kq)/q.
    """
    shift = math.floor(params.a)
    params = FamilyParams(params.a - shift, params.b)
    tried = set()
    state, n = (0.0, 0.0), 0

    def ratio(p: int, q: int) -> float:
        return (p + shift * q) / q

    def orbit(q: int) -> float:
        # F^q(0) for q >= n: the orbit of 0 runs on, never restarts
        nonlocal state, n
        state, n = SINE.advance(params, side, state, q - n), q
        return state[1] + state[0]

    def snapped(node) -> Enclosure | None:
        if node[1] > num.q_cap or node in tried:
            return None
        tried.add(node)
        hit = _try_snap(params, side, *node, state[0], num)
        return None if hit is None else Enclosure(ratio(*hit), ratio(*hit), n,
                                                  exact=(hit[0] + shift * hit[1], hit[1]))

    def finish(lo, hi, tie=None) -> Enclosure:
        # a tie is the only candidate; otherwise the simplest rational in the
        # bracket, which is its endpoint of smaller q
        hit = snapped(tie or min(lo, hi, key=lambda node: node[1]))
        if hit or tie is None:
            return hit or Enclosure(ratio(*lo), ratio(*hi), n)
        v = orbit(max(n, min(math.ceil(2.0 / num.rot_tol), num.rot_max_iter)))
        band = ROUND_BAND * (n + abs(v))
        return Enclosure(max(ratio(*lo), ratio(math.ceil(v - band) - 1, n)),
                         min(ratio(*hi), ratio(math.floor(v + band) + 1, n)), n)

    v = orbit(1)
    k = round(v)
    if abs(v - k) <= ROUND_BAND * (1 + abs(k)):
        return finish((k - 1, 1), (k + 1, 1), (k, 1))
    lo, hi = (math.floor(v), 1), (math.floor(v) + 1, 1)
    run, up = 0, None
    while hi[0] * lo[1] - lo[0] * hi[1] > num.rot_tol * (lo[1] * hi[1]):
        m = (lo[0] + hi[0], lo[1] + hi[1])
        if m[1] > num.rot_max_iter:
            break
        g = orbit(m[1]) - m[0]
        if abs(g) <= ROUND_BAND * (m[1] + abs(m[0])):
            return finish(lo, hi, m)
        run = run + 1 if (g > 0) == up else 1
        up = g > 0
        lo, hi = (m, hi) if up else (lo, m)
        if run == SNAP_RUN:
            # a long run hints at a lock at target; without the sign test
            # the walk creeps toward it until rot_tol
            target = hi if up else lo
            left = min(math.ceil(1.0 / (num.rot_tol * target[1])), num.rot_max_iter) - n
            grid = num.grid_base + num.grid_per_q * target[1]
            hit = GRID_STEP_COST * grid * target[1] < left and snapped(target)
            if hit:
                return hit
    return finish(lo, hi)


def rot_interval(params: FamilyParams, num: Config = DEFAULT) -> RotationInterval:
    """Rotation interval [rho(lower bound), rho(upper bound)] of the family map.

    Each endpoint is enclosed by a Farey descent (``_descend``) to width
    rot_tol within rot_max_iter map steps of one orbit of 0.  An endpoint
    that ``_try_snap`` certifies to be a rational p/q is returned exactly.
    Up to the critical line both bounds are the map itself and one descent
    serves both.
    """
    lower = _descend(params, BoundSide.LOWER, num)
    if params.b <= SINE.b_critical:
        return RotationInterval(lower, lower)
    return RotationInterval(lower, _descend(params, BoundSide.UPPER, num))


def orbit_averages(params: FamilyParams, starts: np.ndarray, n: int) -> np.ndarray:
    """Finite-orbit displacement averages (F^n(x) - x)/n for a batch of starts."""
    return (SINE.iterate_array(params, BoundSide.RAW, starts, n) - starts) / n
