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

from .solvers import newton_root

TWO_PI = 2.0 * math.pi
#: An array pass of more than this many steps retires orbits that repeat exactly,
#: looking for repeats from this step on; a shorter one, such as a displacement
#: grid up to q = 64, would pay for the search and save few steps.
REPEAT_WINDOW = 64


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
        if not -math.inf < self.a < math.inf:
            raise ValueError(f"a must be finite, got {self.a}")
        if not 0 <= self.b < math.inf:
            raise ValueError(f"b must be non-negative and finite, got {self.b}")


@dataclass(frozen=True)
class Landmarks:
    """Turning points and their equal-value companions for one value of b.

    Ordering 0 < k_minus <= c <= k <= c_plus < 1 holds while the distance
    between the bounds stays below 1; on the critical line all four coincide.
    k_minus solves g(x) = x + (b / 2 pi) sin(2 pi x) = g(k) on [0, c] by one Newton
    solve to a certified bracket of width 1e-13; c_plus = 1 - k_minus, since
    g(1 - x) = 1 - g(x) and k = 1 - c.  The equation is flat near b = 1: for
    b - 1 < 1e-8, k_minus is off by up to about 1e-6 against 50 digits.
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
    c = math.acos(-1.0 / b) / TWO_PI  # b = 1: c = k = 0.5 and gc = gk, so k_minus = c
    k, amp = 1.0 - c, b / TWO_PI
    gk, gc = k + amp * math.sin(TWO_PI * k), c + amp * math.sin(TWO_PI * c)
    if gk < 0.0 or gc > 1.0:  # g(0) = 0 and g(1) = 1
        raise ValueError(f"landmark companions leave (0, 1) at b={b}; family out of range")

    def f(x: float) -> tuple[float, float]:
        u = TWO_PI * x
        return x + amp * math.sin(u) - gk, 1.0 + b * math.cos(u)

    # g rises on [0, c] from g(0) = 0 <= gk to g(c) = gc >= gk
    k_minus = newton_root(f, 0.0, c, 1e-13, f_lo=-gk, f_hi=gc - gk)
    return Landmarks(b, c, k, k_minus, 1.0 - k_minus)


@lru_cache(maxsize=None)
def _plateau(side: BoundSide, b: float) -> tuple[float, float, float]:
    """(lo, hi, top): the map is flat on [lo, hi] mod 1 at its value at top;
    (inf, -inf) for a raw map and for any map up to the critical line."""
    if side is BoundSide.RAW or b <= SineFamily.b_critical:
        return math.inf, -math.inf, 0.0
    lm = _sine_landmarks(float(b))
    return (lm.k_minus, lm.k, lm.k) if side is BoundSide.LOWER else (lm.c, lm.c_plus, lm.c)


class SineFamily:
    """x + a + (b / 2 pi) sin(2 pi x).

    The solvers use the shared instance ``SINE`` through degree-one ``eval``
    (accepting floats or numpy arrays), analytic ``derivative`` up to order 3,
    ``b_critical``, per-b ``landmarks``, plateau-truncated ``bound_eval`` at one
    point, and the compositions: every orbit runs either in the scalar loop of
    ``advance`` (``iterate`` from a start x, ``rotation`` from a stored orbit
    state) or in ``iterate_grid``, the one array pass, which matches it bit
    for bit (``iterate_array`` is that pass at one parameter pair).  An orbit
    state is (t, carry), and t alone decides every later step, so an array
    pass retires each orbit whose t repeats exactly and adds the carry of its
    remaining whole periods in one product.
    ``iterate_slope`` is ``iterate``'s loop at float a and b with the
    a-derivative carried along, for the Newton solves on strands and tongue
    boundaries; it is a separate loop so that ``iterate`` carries no flag.
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

    def bound_eval(self, params: FamilyParams, side: BoundSide, x: float) -> float:
        """The selected map at one point: one step of ``iterate``, bit for bit."""
        return self.iterate(params, side, x, 1)

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
        separately, so long orbits do not lose precision in the sine argument:
        x splits into the orbit state (t, carry) that ``advance`` moves.
        """
        if n < 1:
            raise ValueError("n must be positive")
        t = x - math.floor(x)
        t, carry = self.advance(params, side, (t, x - t), n)
        return carry + t

    def advance(self, params: FamilyParams, side: BoundSide, state: tuple[float, float],
                n: int) -> tuple[float, float]:
        """The orbit state (t, carry) after n >= 0 more steps; in pieces, bit for bit one run.

        The map takes the flat value on its plateau; a raw map, and any map
        up to the critical line, has the empty plateau (inf, -inf).
        """
        a, b = params.a, params.b
        amp = b / TWO_PI
        t, carry = state
        lo_edge, hi_edge, top = ((math.inf, -math.inf, 0.0) if side is BoundSide.RAW
                                 or b <= self.b_critical else _plateau(side, b))
        flat = top + a + amp * math.sin(TWO_PI * top)
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
        return t, carry

    def iterate_slope(self, a: float, b: float, side: BoundSide, x: float,
                      n: int) -> tuple[float, float]:
        """(``iterate``, its a-derivative) from one loop; the value is ``iterate``'s bit for bit.

        The slope follows s <- (1 + b cos 2 pi t) s + 1, and a plateau step
        resets it to 1: the flat value top + a + amp sin(2 pi top) moves with a alone.
        """
        if n < 1:
            raise ValueError("n must be positive")
        amp = b / TWO_PI
        t = x - math.floor(x)
        carry = x - t
        lo_edge, hi_edge, top = ((math.inf, -math.inf, 0.0) if side is BoundSide.RAW
                                 or b <= self.b_critical else _plateau(side, b))
        flat = top + a + amp * math.sin(TWO_PI * top)
        s = 0.0
        for _ in range(n):
            if lo_edge <= t <= hi_edge:
                v, s = flat, 1.0
            else:
                u = TWO_PI * t
                v = t + a + amp * math.sin(u)
                s = (1.0 + b * math.cos(u)) * s + 1.0
            f = math.floor(v)
            t = v - f
            carry += f
            if t >= 1.0:
                t -= 1.0
                carry += 1.0
        return carry + t, s

    def iterate_array(self, params: FamilyParams, side: BoundSide, xs: np.ndarray, n: int) -> np.ndarray:
        """Vectorized n-fold composition over a batch of starting points."""
        return self.iterate_grid(params.a, params.b, side, xs, n)

    def iterate_grid(self, a, b, side: BoundSide | np.ndarray, xs, n: int) -> np.ndarray:
        """n-fold composition over arrays of a, b, sides and starts that broadcast.

        This is the library's one array orbit pass.  Each element equals
        ``iterate(FamilyParams(a, b), side, x, n)`` bit for bit: every step
        does the scalar loop's arithmetic in the same order, with the plateau
        edges looked up once per element of (side, b) before they broadcast.

        The reduced argument t is an element's whole state: a step reads only
        t and the parameters, and the carry only adds integer-valued floats,
        which is exact below 2^53.  So once t repeats exactly, the orbit is
        periodic from there bit for bit.  A pass of more than
        ``REPEAT_WINDOW`` steps keeps Brent checkpoints of (t, carry) at steps
        W, 2W, 4W, ... (R. P. Brent, BIT 20, 1980); an element whose t meets
        its checkpoint after P steps with carry gain G retires at the first
        step j with (n - j) % P == 0 as (carry + (n - j) // P * G) + t; once a
        quarter of the elements has retired, the others are compacted.  A pass
        whose carries could reach 2^53 runs every step.
        """
        if n < 1:
            raise ValueError("n must be positive")
        a, b, xs = (np.asarray(v, dtype=float) for v in (a, b, xs))
        if b.min(initial=0.0) < 0:
            raise ValueError(f"b must be non-negative, got {b.min()}")
        sides = None if isinstance(side, BoundSide) else np.asarray(side, dtype=object)
        shape = np.broadcast(a, b, xs, *([] if sides is None else [sides])).shape
        # the map takes the value flat on [lo_edge, hi_edge]; raw maps have no plateau
        lo_edge, hi_edge, flat = np.inf, -np.inf, 0.0
        plateau = ((sides is not None or side is not BoundSide.RAW)
                   and b.max(initial=0.0) > self.b_critical)
        if plateau:  # the plateau varies only along the axes of (side, b): one lookup a pair
            pairs = np.broadcast(b, side if sides is None else sides)
            edges = [_plateau(s, float(bv)) for bv, s in pairs]
            lo_edge, hi_edge, top = (edges[0] if pairs.ndim == 0 else
                                     (np.reshape(col, pairs.shape) for col in zip(*edges)))
        # array parameters take the full shape, so each step is one contiguous loop
        a, b = (v if v.ndim == 0 else np.broadcast_to(v, shape).copy() for v in (a, b))
        amp = b / TWO_PI
        t = np.subtract(xs, np.floor(xs), out=np.empty(shape))
        carry = xs - t
        if plateau:
            flat = top + a + amp * np.sin(TWO_PI * top)
            on_flat, below = np.empty(shape, dtype=bool), np.empty(shape, dtype=bool)
        v, step = np.empty(shape), np.empty(shape)
        # a long pass looks for repeats from step `watch` on, if every carry
        # stays below 2^53 in magnitude, so that carry sums are exact
        watch = REPEAT_WINDOW if n > REPEAT_WINDOW and (np.abs(xs).max(initial=0.0) + n * (
            4.0 + np.abs(a).max(initial=0.0) + amp.max(initial=0.0))) < 2.0 ** 53 else n + 1
        for j in range(1, n + 1):
            np.multiply(TWO_PI, t, out=step)
            np.sin(step, out=step)
            np.multiply(amp, step, out=step)
            np.add(t, a, out=v)
            np.add(v, step, out=v)
            if plateau:
                np.greater_equal(t, lo_edge, out=on_flat)
                on_flat &= np.less_equal(t, hi_edge, out=below)
                np.copyto(v, flat, where=on_flat)
            np.floor(v, out=step)
            np.subtract(v, step, out=t)
            carry += step
            if t.max(initial=0.0) >= 1.0:
                wrap = t >= 1.0
                t[wrap] -= 1.0
                carry[wrap] += 1.0
            if j < watch:
                continue
            if j == watch:
                ck_t, ck_carry, mark = t.copy(), carry.copy(), j
                # per element: its due step (-1 once retired), carry gain and flat index
                due, gain = np.full(shape, np.inf), np.empty(shape)
                idx, hit = np.arange(t.size).reshape(shape), np.empty(shape, dtype=bool)
                out, dues, retired = np.empty(t.size), set(), 0
            elif np.equal(t, ck_t, out=hit).any():
                hit &= due == np.inf  # a retired orbit still steps until compacted
                period = j - mark
                end = j + (n - j) % period
                due[hit] = end
                gain[hit] = (n - end) // period * (carry[hit] - ck_carry[hit])
                dues.add(end)
            if j in dues:
                done = due == j
                out[idx[done]] = (carry[done] + gain[done]) + t[done]
                due[done] = -1.0
                retired += np.count_nonzero(done)
            if 4 * retired >= t.size:  # compact once a quarter has retired, or none is left
                keep = due != -1.0
                (t, carry, a, amp, lo_edge, hi_edge, flat, ck_t, ck_carry, due, gain, idx) = (
                    np.broadcast_to(col, keep.shape)[keep] for col in
                    (t, carry, a, amp, lo_edge, hi_edge, flat, ck_t, ck_carry, due, gain, idx))
                v, step, on_flat, below, hit = (np.empty(t.size, dtype=dt)
                                                for dt in (float, float, bool, bool, bool))
                retired = 0
                if t.size == 0:
                    break
            if j == 2 * mark:
                ck_t[...], ck_carry[...] = t, carry
                mark = j
        carry += t
        if watch > n:
            return carry
        out[idx] = carry
        return out.reshape(shape)


#: Shared instance of the shipped family.
SINE = SineFamily()
