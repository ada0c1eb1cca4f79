import functools
import math
import random
import sys
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from fareyweb import rotation, tongue
from fareyweb.config import DEFAULT, Config
from fareyweb.errors import TipNotFoundError
from fareyweb.farey import Frac
from fareyweb.lift import SINE, TWO_PI, BoundSide, FamilyParams
from fareyweb.rotation import displacement_extrema
from fareyweb.solvers import bisect_root
from fareyweb.tongue import (boundary, locking_interval, section, tip_by_width,
                             trace)
from fareyweb.web import tip_by_intersection

HALF = Frac(1, 2)
ZERO = Frac(0, 1)


@pytest.mark.parametrize("b", [0.25, 0.5, 1.0, 1.7])
def test_phi_analytic_for_zero_tongue(b):
    assert abs(boundary("phi1", ZERO, b) - b / TWO_PI) < 1e-10
    assert abs(boundary("phi2", ZERO, b) + b / TWO_PI) < 1e-10


def test_psi_coincides_with_phi_when_invertible():
    for frac in (ZERO, HALF):
        for b in (0.4, 1.0):
            sec = section(frac, b)
            assert abs(sec.psi1 - sec.phi2) < 1e-10
            assert abs(sec.psi2 - sec.phi1) < 1e-10


def test_section_half_at_critical_line():
    sec = section(HALF, 1.0)
    assert sec.psi1 < 0.5 < sec.psi2
    assert sec.locking_width > 0.01


def test_section_orderings_above_critical():
    sec = section(HALF, 1.5)
    tol = 1e-9
    assert sec.phi2 <= sec.phi1 + tol
    assert sec.phi2 <= sec.psi1 + tol
    assert sec.psi2 <= sec.phi1 + tol


def test_boundary_residuals():
    # the defining extremum vanishes at each returned boundary
    targets = {"phi1": (BoundSide.RAW, "minimum"), "phi2": (BoundSide.RAW, "maximum"),
               "psi1": (BoundSide.LOWER, "maximum"), "psi2": (BoundSide.UPPER, "minimum")}
    for frac, b in ((ZERO, 1.3), (HALF, 1.5), (Frac(1, 3), 1.2)):
        for kind, (side, attr) in targets.items():
            a = boundary(kind, frac, b)
            ext = displacement_extrema(FamilyParams(a, b), side, frac)
            assert abs(getattr(ext, attr)) < 1e-10, (kind, frac, b)


def test_locking_interval_analytic_invertible():
    lo, hi = locking_interval(ZERO, 0.5)
    assert abs(lo + 0.5 / TWO_PI) < 1e-10
    assert abs(hi - 0.5 / TWO_PI) < 1e-10


def test_locking_interval_above_tip_absent():
    tip = tip_by_width(HALF)
    assert locking_interval(HALF, tip.b + 0.2) is None
    lo, hi = locking_interval(HALF, 1.0)
    assert lo < 0.5 < hi


def test_trace_phi_column_analytic():
    rows = trace(ZERO, 0.0, 1.0, 11)
    for sec in rows:
        assert abs(sec.phi1 - sec.b / TWO_PI) < 1e-12


def test_trace_orderings_and_degenerate_range():
    rows = trace(HALF, 1.0, 1.5, 6)
    for sec in rows:
        assert sec.phi2 <= sec.psi1 + 1e-9 and sec.psi2 <= sec.phi1 + 1e-9
    same = trace(HALF, 1.0, 1.0, 2)
    assert same[0] == same[1]


def test_trace_flags_artificial_jump():
    # the sweep under trace; its budget at 3 samples over [0, 1] is max(0.02, 2 * 0.5) = 1
    def sample(b):
        return SimpleNamespace(b=b, v=5.0 if b > 0.75 else b)

    def coords(pt):
        return [("v", pt.v)]

    with pytest.warns(RuntimeWarning, match="v jumps by 4.5 between b=0.5 and b=1.0"):
        tongue._sweep(sample, coords, 0.0, 1.0, 3, 0.02)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = tongue._sweep(lambda b: SimpleNamespace(b=b, v=b), coords, 0.0, 1.0, 3, 0.02)
    assert [pt.b for pt in rows] == [0.0, 0.5, 1.0]


def test_sample_grid_single_sample_and_empty_span():
    assert tongue.sample_grid(0.3, 0.9, 1) == [0.3]
    assert tongue.sample_grid(0.7, 0.7, 4) == [0.7] * 4
    assert tongue.sample_grid(1.0, 2.0, 5) == [1.0, 1.25, 1.5, 1.75, 2.0]


def test_tip_half_symmetric():
    tip = tip_by_width(HALF)
    assert abs(tip.a - 0.5) < 1e-8
    assert tip.b > SINE.b_critical
    assert tip.residual < 1e-8
    assert tip.extra_crossings == ()


def test_tip_width_collapses_across():
    tip = tip_by_width(HALF)
    assert section(HALF, tip.b - 0.05).locking_width > 0
    assert section(HALF, tip.b + 0.05).locking_width < 0


def test_tip_rejects_endpoints():
    for tip in (tip_by_width, tip_by_intersection):
        for frac in (ZERO, Frac(1, 1)):
            with pytest.raises(ValueError, match="has no tip in the scanned range"):
                tip(frac)


def test_tip_not_found_below_ceiling():
    for tip in (tip_by_width, tip_by_intersection):
        with pytest.raises(TipNotFoundError):
            tip(Frac(1, 3), Config(b_ceiling=1.05))


def test_tip_reports_later_crossings_as_extras():
    # r1 - r2 = (b - 1.234)(b - 1.476)(b - 1.812), off the scan heights: below zero
    # on the critical line, then three sign flips; the first upward one is the tip
    def objectives(b):
        gap = (b - 1.234) * (b - 1.476) * (b - 1.812)
        return (lambda a: a - 0.5 - gap), (lambda a: a - 0.5)

    num = Config(b_ceiling=2.0)
    tip = tongue._tip(HALF, num, True, "width", objectives, closing=lambda b: 0.5)
    assert abs(tip.b - 1.234) <= num.b_tol and tip.a == 0.5 and tip.method == "width"
    assert len(tip.extra_crossings) == 2
    for mid, flip in zip(tip.extra_crossings, (1.476, 1.812)):
        assert abs(mid - flip) <= 0.5 * num.b_step + 1e-12
    # without the full scan the search stops at the first flip
    assert tongue._tip(HALF, num, False, "width", objectives).extra_crossings == ()


def test_full_scan_leaves_the_half_tip_unchanged():
    for search in (tip_by_width, tip_by_intersection):
        full, plain = search(HALF, full_scan=True), search(HALF)
        assert full.extra_crossings == ()
        assert (full.a, full.b, full.residual) == (plain.a, plain.b, plain.residual)


def test_left_edge_nondecreasing_in_fraction():
    # rotation number grows with a, so locking intervals are ordered like
    # their fractions
    fracs = sorted((ZERO, Frac(1, 3), Frac(2, 5), HALF, Frac(2, 3), Frac(3, 8)))
    for b in (1.0, 1.2):
        edges = [boundary("psi1", f, b) for f in fracs]
        assert all(e1 <= e2 + 1e-10 for e1, e2 in zip(edges, edges[1:]))


def test_fact9_tangency_signature_at_phi1():
    frac, b = HALF, 1.4
    a = boundary("phi1", frac, b)
    ext = displacement_extrema(FamilyParams(a, b), BoundSide.RAW, frac)
    for dx in (1e-5, 1e-4, 1e-3):
        for s in (-1, 1):
            x = ext.argmin + s * dx
            g = SINE.iterate(FamilyParams(a, b), BoundSide.RAW, x, frac.q) - x - frac.p
            assert g >= -1e-9


#: default-config width tips; b is as first recorded, to the last bit, and a
#: and the residual are as the Newton psi solves give them from the Newton
#: landmarks (a moved by at most 1.6e-13 from the bisected psi solves, and by
#: at most 1.8e-13 from the bisected landmarks)
PINNED_TIPS = {
    Frac(1, 2): (0.5000000000000001, 2.1348986767604927, 4.3156589413229085e-12),
    Frac(1, 3): (0.3696399518031209, 1.647391846515239, 3.594458064526407e-12),
    Frac(2, 5): (0.41006345902374686, 1.336572438962758, 9.305889392408062e-13),
    Frac(3, 8): (0.39284118487934316, 1.1940916931256655, 1.966149465459921e-12),
}


@pytest.mark.parametrize("frac", list(PINNED_TIPS))
def test_width_tip_pinned(frac):
    tip = tip_by_width(frac)
    assert (tip.a, tip.b, tip.residual) == PINNED_TIPS[frac]
    assert tip.method == "width" and tip.extra_crossings == ()


def test_tip_cache_shares_call_forms():
    tip_by_width(HALF)
    before = tip_by_width.cache_info()
    forms = [tip_by_width(HALF), tip_by_width(HALF, DEFAULT), tip_by_width(HALF, num=DEFAULT),
             tip_by_width(frac=HALF, full_scan=False)]
    after = tip_by_width.cache_info()
    assert after.misses == before.misses
    assert after.hits == before.hits + len(forms)
    assert all(t is forms[0] for t in forms)


def _count_extrema(monkeypatch) -> list:
    """Every binding of ``_disp_extremum`` logs its calls into the returned list."""
    calls = []
    original = rotation._disp_extremum

    def counted(*args, **kw):
        calls.append(1)
        return original(*args, **kw)

    for mod in [m for name, m in sys.modules.items() if name.startswith("fareyweb")]:
        if getattr(mod, "_disp_extremum", None) is original:
            monkeypatch.setattr(mod, "_disp_extremum", counted)
    return calls


def test_cold_width_tip_extremum_budget(monkeypatch):
    calls = _count_extrema(monkeypatch)
    tip = tip_by_width.__wrapped__(HALF)  # bypasses the cache
    assert (tip.a, tip.b) == PINNED_TIPS[HALF][:2]
    assert 0 < len(calls) <= 30


def _fine_displacement(side: BoundSide, frac: Frac, a: float, b: float,
                       n: int = 2 ** 18) -> np.ndarray:
    """The q-step displacement of ``side`` on n grid points and the plateau's ends.

    Plain numpy (not ``iterate_grid``), with the plateau re-derived from F as
    ``_reference_rho`` does; the raw map and b <= 1 have none.
    """
    xs, amp = np.arange(n) / n, b / TWO_PI
    if side is BoundSide.RAW or b <= 1.0:
        ys = xs.copy()
        for _ in range(frac.q):
            ys = ys + a + amp * np.sin(TWO_PI * ys)
        return ys - xs - frac.p
    edge_lo, edge_hi, top = (float(v) for v in _reference_plateau(b, side is BoundSide.LOWER))
    xs = np.sort(np.append(xs, [edge_lo, edge_hi]))
    t, carry = xs.copy(), np.zeros_like(xs)
    for _ in range(frac.q):
        v = np.where((t >= edge_lo) & (t <= edge_hi), top + a, t + a + amp * np.sin(TWO_PI * t))
        whole = np.floor(v)
        t, carry = v - whole, carry + whole
    return carry + t - xs - frac.p


def _fine_extremum(kind: str, frac: Frac, a: float, b: float) -> float:
    """The extremum whose zero is the ``kind`` boundary, on ``_fine_displacement``'s grid."""
    side, which = tongue._OBJECTIVES[kind]
    g = _fine_displacement(side, frac, a, b)
    return float(g.min() if which == "min" else g.max())


NEWTON_FRACS = [ZERO, HALF, Frac(1, 3), Frac(2, 5), Frac(3, 8), Frac(5, 13)]
NEWTON_BS = [0.5, 1.0, 1.3, 2.5]


@functools.cache
def _counted_boundary(kind: str, frac: Frac, b: float) -> tuple[float, int]:
    """``boundary`` and the number of extremum calls it made."""
    with pytest.MonkeyPatch.context() as mp:
        calls = _count_extrema(mp)
        return boundary(kind, frac, b), len(calls)


@pytest.mark.parametrize("b", NEWTON_BS)
@pytest.mark.parametrize("frac", NEWTON_FRACS)
@pytest.mark.parametrize("kind", tongue.BOUNDARY_KINDS)
def test_phi_newton_root_against_bisection_and_a_fine_grid(kind, frac, b):
    root, calls = _counted_boundary(kind, frac, b)
    # phi's extremum is smooth in a; psi's usually sits at a plateau corner
    assert type(root) is float and calls <= (20 if kind.startswith("phi") else 2 * 43)
    bracket = tongue._default_bracket(frac, b)
    objective = tongue._objective(kind, frac, b, DEFAULT)
    bisected = bisect_root(lambda a: objective(a)[0], *bracket, DEFAULT.solver_tol)
    assert abs(root - bisected) <= DEFAULT.solver_tol
    # the extremum crosses zero between root -+ 1e-6 on a grid 24-57x finer than the library's
    assert (_fine_extremum(kind, frac, root - 1e-6, b) < 0.0
            < _fine_extremum(kind, frac, root + 1e-6, b))


def test_psi_newton_root_mean_calls():
    counts = [_counted_boundary(kind, frac, b)[1]
              for kind in ("psi1", "psi2") for frac in NEWTON_FRACS for b in NEWTON_BS]
    assert sum(counts) / len(counts) <= 20  # bisection takes 43


@pytest.mark.parametrize("frac, b", [(ZERO, 0.5), (HALF, 1.0), (Frac(2, 5), 1.3),
                                     (Frac(3, 8), 2.5)])
def test_boundary_takes_the_bracket_end_signs_unevaluated(monkeypatch, frac, b):
    lo, hi = tongue._default_bracket(frac, b)
    probed = []
    objective = tongue._objective

    def logged(*args, **kw):
        f = objective(*args, **kw)
        return lambda a: probed.append(a) or f(a)

    monkeypatch.setattr(tongue, "_objective", logged)
    for kind in tongue.BOUNDARY_KINDS:
        boundary(kind, frac, b)
    assert probed and all(lo < a < hi for a in probed)
    # the bounds boundary passes for the unevaluated ends hold on a fine grid,
    # up to the rounding of q steps; only their signs are read
    slack = 1e-12 * frac.q
    for side in BoundSide:
        assert _fine_displacement(side, frac, lo, b).max() <= -0.5 * frac.q + slack
        assert _fine_displacement(side, frac, hi, b).min() >= 0.5 * frac.q - slack


def _order(v: float, band: float) -> tuple[bool, ...]:
    """Every comparison of v that a bisection, lock or snap test makes."""
    return tuple(c for t in (-band, 0.0, band) for c in (v < t, v == t, v > t))


@pytest.mark.parametrize("frac", [HALF, Frac(2, 5)])
def test_grid_witness_sign_matches_refined_sign(frac):
    rng = random.Random(7)
    sides = {"phi1": (BoundSide.RAW, "min"), "phi2": (BoundSide.RAW, "max"),
             "psi1": (BoundSide.LOWER, "max"), "psi2": (BoundSide.UPPER, "min")}
    unrefined = 0
    offsets = (-0.2, -0.05, -1e-3, -1e-9, 0.0, 1e-9, 1e-3, 0.05, 0.2)
    # b <= 1 makes every side non-decreasing, so the cell bound decides there too
    for b in (0.8, 1.0, 1.2, 2.0):
        for kind, (side, which) in sides.items():
            root = boundary(kind, frac, b)
            for a in [root + d for d in offsets] + [
                    frac.value + rng.uniform(-0.3, 0.3) for _ in range(3)]:
                args = (FamilyParams(a, b), side, frac.p, frac.q, which, SINE, DEFAULT.grid)
                refined, _ = rotation._disp_extremum(*args)
                for band in (0.0, 1e-12, rotation.LOCK_BAND):
                    witness, _ = rotation._disp_extremum(*args, band=band)
                    assert _order(witness, band) == _order(refined, band), (kind, b, a)
                    if witness != refined:
                        unrefined += 1
                        assert abs(witness) <= abs(refined)
    assert unrefined > 0


def _reference_plateau(b, lower):
    """(left end, right end, F0 value) of each bound's plateau, re-derived from F alone.

    Turning points from F' = 0 and the companions by bisection on the
    monotone branches; F0 is F at a = 0.
    """
    b, lower = np.asarray(b), np.asarray(lower)
    amp = b / TWO_PI
    c = np.arccos(-1.0 / b) / TWO_PI
    k = 1.0 - c

    def f0(x):
        return x + amp * np.sin(TWO_PI * x)

    top = np.where(lower, k, c)
    # the companion of top on the other monotone branch: [0, c] or [k, 1]
    lo, hi = np.where(lower, 0.0, k), np.where(lower, c, 1.0)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        below = f0(mid) < f0(top)
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    comp = 0.5 * (lo + hi)
    return np.where(lower, comp, c), np.where(lower, k, comp), f0(top)


def _reference_rho(a, b, lower, n=100_000):
    """d/n of an n-step orbit from 0 of each plateau bound, |d/n - rho| <= 1/n.

    The bounds are re-derived from F alone (``_reference_plateau``), and the
    plateau cut into a plain loop over numpy arrays.
    """
    a, b, lower = (np.asarray(v) for v in (a, b, lower))
    amp = b / TWO_PI
    edge_lo, edge_hi, top = _reference_plateau(b, lower)
    flat = top + a
    t, carry = np.zeros_like(a), np.zeros_like(a)
    for _ in range(n):
        v = np.where((t >= edge_lo) & (t <= edge_hi), flat, t + a + amp * np.sin(TWO_PI * t))
        whole = np.floor(v)
        t, carry = v - whole, carry + whole
    return (carry + t) / n


def test_orbit_verdicts_against_long_reference_orbits(monkeypatch):
    rng = random.Random(11)
    n = 100_000
    # near the critical line the extremum leaves the plateau corner for small
    # q, so the corner's own sign would mislead there; b crowds toward it
    draws = [(HALF, 1.05), (Frac(1, 3), 1.02)]
    for _ in range(10):
        q = rng.randint(2, 13)
        p = rng.choice([p for p in range(1, q) if math.gcd(p, q) == 1])
        draws.append((Frac(p, q), 1.02 + 2.48 * rng.random() ** 3))
    roots = [(frac, b, kind, boundary(kind, frac, b))
             for frac, b in draws for kind in ("psi1", "psi2")]
    # a fallback would read the grid; NaN marks it so that only orbit verdicts count
    monkeypatch.setattr(rotation, "_disp_extremum", lambda *args, **kw: (math.nan, math.nan))
    cases = []
    for frac, b, kind, root in roots:
        side = tongue._OBJECTIVES[kind][0]
        for _ in range(6):
            a = root + rng.choice((-1, 1)) * 10.0 ** rng.uniform(-9, math.log10(0.2))
            v = rotation._bound_sign(FamilyParams(a, b), side, frac.p, frac.q, DEFAULT, 0.0)
            cases.append((frac, b, kind, a, v, a > root))
    decided = [c for c in cases if not math.isnan(c[4])]
    assert all(math.isinf(c[4]) for c in decided)  # a certified sign, not a magnitude
    # inside a tongue whose extremum left the corner the orbit decides nothing
    assert len(decided) >= 0.75 * len(cases)
    rho = _reference_rho([c[3] for c in decided], [c[1] for c in decided],
                         [c[2] == "psi1" for c in decided], n)
    for (frac, b, kind, a, v, beyond), r in zip(decided, rho):
        # psi1 reads max g_L >= 0, i.e. rho(L) >= p/q; psi2 reads min g_U > 0, i.e. rho(U) > p/q
        at_least = v >= 0.0 if kind == "psi1" else v > 0.0
        # both objectives increase in a, so the grid root orders every probe;
        # inside the tongue, where rho = p/q, the reference orbit cannot
        assert at_least == beyond, (frac, b, kind, a, v)
        if at_least:
            assert r >= frac.value - 2.0 / n, (frac, b, kind, a, v, r)
        else:
            assert r <= frac.value + 2.0 / n, (frac, b, kind, a, v, r)


def test_bound_sign_decides_from_the_critical_line_up(monkeypatch):
    calls = []
    original = rotation._disp_extremum

    def counted(*args, **kw):
        calls.append(1)
        return original(*args, **kw)

    monkeypatch.setattr(rotation, "_disp_extremum", counted)
    for b in (1.0, 1.5):
        for kind in ("psi1", "psi2"):
            side = tongue._OBJECTIVES[kind][0]
            grid = tongue._objective(kind, HALF, b, DEFAULT)
            for a in (0.4, 0.45, 0.5, 0.55, 0.6):
                del calls[:]
                v = rotation._bound_sign(FamilyParams(a, b), side, HALF.p, HALF.q, DEFAULT, 0.0)
                made = len(calls)
                assert (v >= 0.0) == (grid(a)[0] >= 0.0), (b, kind, a)
                # on the critical line too the corner orbit decides, but for the
                # centre of the tongue, where the corner 1/2 is a 2-cycle (D_j = 0)
                assert made == (1 if (b, a) == (1.0, 0.5) else 0), (b, kind, a)


def test_undecided_corner_orbits_stop_once_they_repeat(monkeypatch):
    # a cold 1/2 width tip leaves two corner orbits undecided, at the centre of
    # the tongue on the critical line, where the corner 1/2 is a 2-cycle: the
    # first q-cycle maps the orbit onto itself, so it stops there instead of
    # running all (grid_base + grid_per_q * q) // STRIDE = 320 cycles
    steps, undecided, start = [], [], [0]
    iterate, bound_sign, extremum = SINE.iterate, tongue._bound_sign, rotation._disp_extremum
    # patched on the class: undoing an instance patch would leave the bound
    # method on SINE, where it hides the class attribute from later patches
    monkeypatch.setattr(type(SINE), "iterate",
                        lambda self, *args: steps.append(args) or iterate(*args))

    def counted(*args):
        start[0] = len(steps)
        return bound_sign(*args)

    def grid(params, *args, **kw):
        # only an undecided corner orbit reaches the grid: log its map steps
        undecided.append((params, len(steps) - start[0]))
        return extremum(params, *args, **kw)

    monkeypatch.setattr(tongue, "_bound_sign", counted)
    monkeypatch.setattr(rotation, "_disp_extremum", grid)
    tip = tip_by_width.__wrapped__(HALF)  # bypasses the cache
    assert (tip.a, tip.b) == PINNED_TIPS[HALF][:2]
    assert undecided == [(FamilyParams(0.5, 1.0), 1)] * 2


@pytest.mark.parametrize("frac", [Frac(1, 3), Frac(3, 8)])
def test_cold_width_tip_on_the_critical_line_reads_corner_orbits(monkeypatch, frac):
    heights = []
    original = rotation._disp_extremum

    def counted(*args, **kw):
        heights.append(args[0].b)
        return original(*args, **kw)

    monkeypatch.setattr(rotation, "_disp_extremum", counted)
    tip = tip_by_width.__wrapped__(frac)  # bypasses the cache
    assert (tip.a, tip.b) == PINNED_TIPS[frac][:2]
    # the corner orbit decides every sign at b = 1 but one, inside the tongue,
    # where it is drawn to a cycle just below the corner (the grid alone took
    # 4 passes there for 1/3 and 10 for 3/8)
    assert heights.count(SINE.b_critical) <= 1
