"""Numerical verification suites.

Each suite runs a finite set of numeric comparisons with explicit thresholds
and returns a Report; nothing here is randomized, so reports are reproducible
from their inputs.  Suite names are stable strings used by the command line.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, field

import numpy as np

from .config import DEFAULT, Config
from .farey import Frac, child, is_higher, parents, path_to_real
from .lift import SINE, TWO_PI, BoundSide, FamilyParams
from .rotation import displacement_extrema
from .tongue import boundary, section, tip_by_width
from .web import (_circle_dist, _raw_orbit, _strand_objective, b_point, strand_point,
                  strand_sides)

GOLDEN_MEAN = (math.sqrt(5.0) - 1.0) / 2.0

DEFAULT_FRACS = (Frac(0, 1), Frac(1, 2), Frac(1, 3), Frac(2, 3), Frac(2, 5), Frac(3, 8))
DEFAULT_BS = (1.0, 1.2, 1.5, 2.0)
DEFAULT_CHAIN = (Frac(1, 2), Frac(1, 3), Frac(2, 5), Frac(3, 8))

#: strand and boundary abscissas within this spread count as one point (a tip)
COINCIDE_TOL = 1e-6


@dataclass(frozen=True)
class Case:
    label: str
    measured: float
    threshold: float
    passed: bool
    slack: float  # distance to the failure edge; negative means failed
    detail: str = ""


@dataclass
class Report:
    suite: str
    cases: list[Case] = field(default_factory=list)

    def add(self, label: str, measured: float, threshold: float, passed: bool,
            detail: str = "") -> None:
        self.cases.append(Case(label, float(measured), float(threshold), bool(passed),
                               0.0 if passed else -1.0, detail))

    def check_le(self, label: str, measured: float, threshold: float, detail: str = "") -> None:
        measured, threshold = float(measured), float(threshold)
        self.cases.append(Case(label, measured, threshold, measured <= threshold,
                               threshold - measured, detail))

    def check_ge(self, label: str, measured: float, threshold: float, detail: str = "") -> None:
        measured, threshold = float(measured), float(threshold)
        self.cases.append(Case(label, measured, threshold, measured >= threshold,
                               measured - threshold, detail))

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.cases)

    @property
    def summary(self) -> str:
        n_ok = sum(1 for c in self.cases if c.passed)
        return f"{n_ok}/{len(self.cases)}"

    @property
    def worst_residual(self) -> float:
        """Smallest slack over all cases; negative means at least one failure."""
        return min((c.slack for c in self.cases), default=0.0)

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "passed": self.passed,
            "summary": self.summary,
            "worst_residual": self.worst_residual,
            "cases": [
                {"label": c.label, "measured": c.measured, "threshold": c.threshold,
                 "passed": c.passed, "slack": c.slack, "detail": c.detail}
                for c in self.cases
            ],
        }

    def to_text(self) -> str:
        lines = [f"suite {self.suite}: {'PASS' if self.passed else 'FAIL'} ({self.summary})"]
        width = max((len(c.label) for c in self.cases), default=0)
        for c in self.cases:
            mark = "ok  " if c.passed else "FAIL"
            extra = f"  {c.detail}" if c.detail else ""
            lines.append(f"  {mark} {c.label:<{width}}  measured={c.measured:.6g} "
                         f"threshold={c.threshold:.6g}{extra}")
        return "\n".join(lines)


@dataclass(frozen=True)
class TrichotomyResult:
    """Strand abscissas of the child strands around the locking interval at one b."""

    frac: Frac
    b: float
    jmax: int
    case: int  # 1: locked slab, 2: above the tip, 3: at the tip
    L_values: tuple[float, ...]  # left strands of the right children, j = 0..jmax
    R_values: tuple[float, ...]  # right strands of the left children
    psi1: float
    psi2: float


def fact1_order(fracs=DEFAULT_FRACS, bs=DEFAULT_BS, num: Config = DEFAULT) -> Report:
    """Boundary orderings phi2 <= {psi1, psi2} <= phi1 to 1e-9, analytic 0/1 values to 1e-10."""
    rep = Report("fact1_order")
    tol = 1e-9
    for f in fracs:
        for b in bs:
            sec = section(f, b, num)
            rep.check_le(f"phi2<=phi1 {f} b={b}", sec.phi2 - sec.phi1, tol)
            rep.check_le(f"phi2<=psi1 {f} b={b}", sec.phi2 - sec.psi1, tol)
            rep.check_le(f"psi2<=phi1 {f} b={b}", sec.psi2 - sec.phi1, tol)
    zero = Frac(0, 1)
    for b in bs:
        phi1 = boundary("phi1", zero, b, num)
        phi2 = boundary("phi2", zero, b, num)
        rep.check_le(f"phi1(0/1,b={b})=b/2pi", abs(phi1 - b / TWO_PI), 1e-10)
        rep.check_le(f"phi2(0/1,b={b})=-b/2pi", abs(phi2 + b / TWO_PI), 1e-10)
    return rep


def theorem1(frac: Frac = Frac(1, 2), bs=(1.0, 1.2, 1.5, 2.0), num: Config = DEFAULT) -> Report:
    """Strand single-valuedness, sampled continuity, and critical-line anchoring to 1e-9."""
    rep = Report("theorem1")
    step = max((b2 - b1 for b1, b2 in zip(sorted(bs), sorted(bs)[1:])), default=0.0)
    continuity_budget = max(0.05, 2.0 * step)
    for side in strand_sides(frac):
        pts = [strand_point(frac, side, b, num) for b in sorted(bs)]
        # monotone objective across the defining bracket at the largest b
        b_top = max(bs)
        objective = _strand_objective(frac, side, b_top)
        a_star = next(p.a for p in pts if p.b == b_top)
        samples = [objective(a_star + da) for da in np.linspace(-0.4, 0.4, 9)]
        min_step = min(s2 - s1 for s1, s2 in zip(samples, samples[1:]))
        rep.check_ge(f"objective increasing {side} {frac}", min_step, 1e-12)
        max_jump = max((abs(p2.a - p1.a) for p1, p2 in zip(pts, pts[1:])), default=0.0)
        rep.check_le(f"continuity {side} {frac}", max_jump, continuity_budget)
        anchor = strand_point(frac, side, SINE.b_critical, num)
        ba, _ = b_point(frac, num)
        rep.check_le(f"critical-line anchor {side} {frac}", abs(anchor.a - ba), 1e-9)
    return rep


def theorem2(frac: Frac = Frac(1, 2), jmax: int = 4, num: Config = DEFAULT) -> Report:
    """Tips of children sit on the parent strands and conversely, to 1e-6."""
    rep = Report("theorem2")
    tol = 1e-6
    tip = tip_by_width(frac, num)
    for j in range(1, jmax + 1):
        rj = child(frac, "R", j)
        lj = child(frac, "L", j)
        tip_r = tip_by_width(rj, num)
        tip_l = tip_by_width(lj, num)
        on_r = strand_point(frac, "R", tip_r.b, num).a
        on_l = strand_point(frac, "L", tip_l.b, num).a
        rep.check_le(f"tip({rj}) on R-strand({frac})", abs(tip_r.a - on_r), tol)
        rep.check_le(f"tip({lj}) on L-strand({frac})", abs(tip_l.a - on_l), tol)
        child_r = strand_point(lj, "R", tip.b, num).a
        child_l = strand_point(rj, "L", tip.b, num).a
        rep.check_le(f"tip({frac}) on R-strand({lj})", abs(tip.a - child_r), tol)
        rep.check_le(f"tip({frac}) on L-strand({rj})", abs(tip.a - child_l), tol)
    return rep


def trichotomy(frac: Frac, b: float, jmax: int = 4, num: Config = DEFAULT) -> TrichotomyResult:
    """Classify one horizontal line against the child strands of one fraction.

    Strand samples use the raw-map continuation so that above the tip the
    child strands stay distinct instead of merging through plateaus.
    """
    L = tuple(strand_point(child(frac, "R", j), "L", b, num, method="continued").a
              for j in range(jmax + 1))
    R = tuple(strand_point(child(frac, "L", j), "R", b, num, method="continued").a
              for j in range(jmax + 1))
    psi1 = boundary("psi1", frac, b, num)
    psi2 = boundary("psi2", frac, b, num)
    allv = list(L) + list(R) + [psi1, psi2]
    if max(allv) - min(allv) <= COINCIDE_TOL:
        case = 3
    elif psi1 < psi2:
        case = 1
    else:
        case = 2
    return TrichotomyResult(frac, b, jmax, case, L, R, psi1, psi2)


def _chain_margin(values: list[float]) -> float:
    """Smallest decrease along a supposedly strictly decreasing chain."""
    if len(values) < 2:
        raise ValueError(f"a chain needs at least two values, got {len(values)}")
    return min(v1 - v2 for v1, v2 in zip(values, values[1:]))


def theorem3(frac: Frac = Frac(1, 2), b: float | None = None, jmax: int = 4,
             expect_case: int | None = None, num: Config = DEFAULT) -> Report:
    """Exactly one of the three orderings holds on each horizontal line.

    With b omitted, all three regimes of the given fraction are exercised:
    below the tip, at the tip, and above it.  Chains must be strict by 1e-9.
    """
    rep = Report("theorem3")
    if b is not None:
        rows = [(b, expect_case)]
    else:
        tip = tip_by_width(frac, num)
        rows = [(SINE.b_critical + 0.05, 1), (tip.b, 3), (tip.b + 0.1, 2)]
    for b_row, expected in rows:
        res = trichotomy(frac, b_row, jmax, num)
        rep.add(f"case at b={b_row:.6g}", res.case,
                expected if expected is not None else res.case,
                expected is None or res.case == expected,
                f"psi1={res.psi1:.9g} psi2={res.psi2:.9g}")
        if res.case == 1:
            chain = list(res.L_values) + [res.psi2, res.psi1] + list(reversed(res.R_values))
            rep.check_ge(f"strict chain (locked) b={b_row:.6g}", _chain_margin(chain), 1e-9)
        elif res.case == 2:
            chain = list(res.R_values) + [res.psi1, res.psi2] + list(reversed(res.L_values))
            rep.check_ge(f"strict chain (unlocked) b={b_row:.6g}", _chain_margin(chain), 1e-9)
        else:
            allv = list(res.L_values) + list(res.R_values) + [res.psi1, res.psi2]
            rep.check_le(f"coincidence spread b={b_row:.6g}", max(allv) - min(allv),
                         COINCIDE_TOL)
    return rep


def theorem4(pairs=((Frac(1, 2), Frac(1, 3)), (Frac(1, 3), Frac(2, 5))),
             b: float | None = None, num: Config = DEFAULT) -> Report:
    """Locking of a fraction forces locking of width at least 1e-8 of everything higher."""
    rep = Report("theorem4")
    for high, low in pairs:
        if not is_higher(high, low):
            rep.add(f"{high} higher than {low}", 0.0, 1.0, False)
            continue
        if b is None:
            tip_low = tip_by_width(low, num)
            b_row = 0.5 * (SINE.b_critical + tip_low.b)
        else:
            b_row = b
        sec_low = section(low, b_row, num)
        rep.check_ge(f"{low} locked at b={b_row:.6g}", sec_low.locking_width, 0.0)
        sec_high = section(high, b_row, num)
        rep.check_ge(f"width({high}) at b={b_row:.6g}", sec_high.locking_width, 1e-8)
    return rep


def corollary1(chain=DEFAULT_CHAIN, num: Config = DEFAULT) -> Report:
    """Tip heights strictly decrease, by at least 1e-6, down a monotone tree path."""
    rep = Report("corollary1")
    for f1, f2 in zip(chain, chain[1:]):
        rep.add(f"{f1} higher than {f2}", 1.0 if is_higher(f1, f2) else 0.0, 1.0,
                is_higher(f1, f2))
    heights = [tip_by_width(f, num).b for f in chain]
    rep.check_ge("tip heights strictly decreasing",
                 _chain_margin(heights), 1e-6,
                 detail=" > ".join(f"{h:.9g}" for h in heights))
    return rep


def theorem5(frac: Frac = Frac(1, 2), jmax: int = 6, irr_depth: int = 5,
             num: Config = DEFAULT) -> Report:
    """Tip sequences along child chains: a uniform gap for one fraction's
    children, Cauchy convergence onto the tongue boundary, and collapse onto
    the critical line along an irrational path."""
    rep = Report("theorem5")
    tips = [tip_by_width(child(frac, "R", j), num) for j in range(1, jmax + 1)]
    bs = [t.b for t in tips]
    rep.check_ge("b(T_rj) strictly decreasing", _chain_margin(bs), 0.0,
                 detail=" > ".join(f"{v:.9g}" for v in bs))
    eps = min(bs) - SINE.b_critical
    rep.check_ge("uniform gap above critical line", eps, 1e-6,
                 detail=f"measured eps={eps:.6g}")
    gaps = [math.hypot(t2.a - t1.a, t2.b - t1.b) for t1, t2 in zip(tips, tips[1:])]
    rep.check_ge("successive tip gaps decreasing", _chain_margin(gaps), 0.0,
                 detail=" > ".join(f"{g:.3g}" for g in gaps))
    # tips approach the right edge of the parent's locking region
    dists = [abs(t.a - boundary("psi2", frac, t.b, num)) for t in tips]
    rep.check_ge("distance to tongue edge decreasing", _chain_margin(dists), 0.0,
                 detail=" > ".join(f"{d:.3g}" for d in dists))
    rep.check_le("final distance to tongue edge", dists[-1], 0.5 * dists[0])

    path = path_to_real(GOLDEN_MEAN, irr_depth)
    heights = [tip_by_width(f, num).b - SINE.b_critical for f in path]
    rep.check_ge("golden-path heights strictly decreasing", _chain_margin(heights), 0.0,
                 detail=" > ".join(f"{h:.6g}" for h in heights))
    rep.check_le("golden-path final height < half initial", heights[-1],
                 0.5 * heights[0])
    return rep


def schwarzian_negativity(bs=(1.2, 2.0), n_grid: int = 1024, num: Config = DEFAULT) -> Report:
    """The Schwarzian derivative stays negative where |F'| > 1e-6 (``num`` unused)."""
    if n_grid < 1:
        raise ValueError(f"n_grid must be positive, got {n_grid}")
    rep = Report("schwarzian")
    for b in bs:
        params = FamilyParams(0.0, b)
        worst = -math.inf
        for i in range(n_grid):
            x = i / n_grid
            if abs(SINE.derivative(params, x, 1)) > 1e-6:
                worst = max(worst, SINE.schwarzian(params, x))
        rep.check_le(f"max S at b={b}", worst, -1e-12,
                     detail=f"grid of {n_grid} points")
    return rep


def fact9_tangency(frac: Frac = Frac(0, 1), b: float = 1.5, num: Config = DEFAULT) -> Report:
    """Loss of the rational from the rotation set is a tangency of F^q."""
    rep = Report("fact9_tangency")
    a = boundary("phi1", frac, b, num)
    ext = displacement_extrema(FamilyParams(a, b), BoundSide.RAW, frac, num=num)
    rep.check_le(f"displacement min at phi1({frac}, b={b})", abs(ext.minimum), 1e-10)
    worst = 0.0
    for dx in (1e-5, 1e-4, 1e-3):
        for s in (-1.0, 1.0):
            g = (SINE.iterate(FamilyParams(a, b), BoundSide.RAW,
                                ext.argmin + s * dx, frac.q)
                 - (ext.argmin + s * dx) - frac.p)
            worst = min(worst, g)
    rep.check_ge("two-sided non-negativity around the tangency", worst, -1e-9)
    return rep


def tip_cycle(fracs=DEFAULT_CHAIN, num: Config = DEFAULT) -> Report:
    """At each width tip the orbit of k_minus is a twist cycle fixed by the parents.

    The parents' strand equations hold on the raw map to 1e-8 (F^q1(k_minus) =
    c_plus + p1, F^q2(c_plus) = k_minus + p2); the cycle misses the gap
    (k_minus, c_plus) by 1e-6; F^q1 moves it one place forward and F^q2 one
    back, each image within 1e-6 of its place, as q-fold composition amplifies
    tip error.
    """
    rep = Report("tip_cycle")
    tol = 1e-6
    for f in fracs:
        tip = tip_by_width(f, num)
        left, right = parents(f)
        for parent, side, x0, x1 in ((left, "R", "k_minus", "c_plus"),
                                     (right, "L", "c_plus", "k_minus")):
            residual = abs(_strand_objective(parent, side, tip.b, raw=True)(tip.a))
            rep.check_le(f"F^{parent.q}({x0})={x1}+{parent.p} at tip({f})", residual, 1e-8)
        lm = SINE.landmarks(tip.b)
        params = FamilyParams(tip.a, tip.b)
        pts = sorted(x % 1.0 for x in _raw_orbit(params, lm.k_minus, f.q - 1))
        # how far the deepest cycle point lies inside the gap; <= 0 outside it
        depth = max(min(t - lm.k_minus, lm.c_plus - t) for t in pts)
        rep.check_le(f"cycle misses (k_minus, c_plus) at tip({f})", depth, tol)
        for n, k in ((left.q, 1), (right.q, f.q - 1)):
            # the farthest image from its place under the shift k
            miss = max(_circle_dist(SINE.iterate(params, BoundSide.RAW, y, n), pts[(i + k) % f.q])
                       for i, y in enumerate(pts))
            rep.check_le(f"F^{n} shifts the {f.q}-cycle by {k} at tip({f})", miss, tol)
    return rep


SUITES = {
    "fact1_order": fact1_order,
    "theorem1": theorem1,
    "theorem2": theorem2,
    "theorem3": theorem3,
    "theorem4": theorem4,
    "corollary1": corollary1,
    "theorem5": theorem5,
    "schwarzian": schwarzian_negativity,
    "fact9_tangency": fact9_tangency,
    "tip_cycle": tip_cycle,
}


def run_suite(name: str, num: Config = DEFAULT, /, **params) -> Report:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; available: {sorted(SUITES)}")
    suite = SUITES[name]
    defaults = {k: p.default for k, p in inspect.signature(suite).parameters.items()
                if k != "num"}
    if not defaults.keys() >= params.keys():
        raise ValueError(f"suite {name!r} has no parameter {sorted(params.keys() - defaults)}; "
                         f"available: {sorted(defaults)}")
    # a scalar where the suite samples a tuple is a one-element sample set
    params = {k: (v,) if isinstance(defaults[k], tuple) and not isinstance(v, tuple) else v
              for k, v in params.items()}
    report = suite(num=num, **params)
    if not report.cases:
        raise ValueError(f"suite {name!r} with parameters {params} checks nothing")
    return report
