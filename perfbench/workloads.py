"""The three workloads: fixed job lists drawn from a seed, and their cross-checks.

A workload is a list of operations, each one call into the public library
API with default numerics (the configuration ``load_config()`` returns, one
worker).  The benchmark repeats the list; the library sees only the drawn
inputs.  Each workload names its per-item operation (``op_ms``) and its
compound operation (``job_s``).

Inputs are drawn so that every seed gives the same mix of work: fractions
come from classes of equal cost (mirror pairs p/q and (q-p)/q cost the same),
section denominators are fixed and only their numerators and heights drawn,
and rotation-interval points have a fixed split of locked and unlocked
cases.  Otherwise a median over a few operations would measure the draw, not
the code.

``check`` runs outside the timed region and returns, per operation, None or a
failure message.  Checks compare against computations that do not share the
timed path: the other tip method, analytic boundary values, critical-line
anchors, ``iterate_array`` orbits, and the re-derived maps in ``reference``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from fareyweb import cli, lift, rotation, tongue, verify, web
from fareyweb.farey import Frac, enumerate_level

from . import reference

TWO_PI = 2.0 * math.pi


@dataclass
class Op:
    kind: str
    label: str
    call: Callable[[], object]
    key: object = None  # what the checks need to know about the input


def _fracs_through(level: int) -> list[Frac]:
    return sorted({f for lvl in range(level + 1) for f in enumerate_level(lvl)})


def _strand_sides(f: Frac) -> list[str]:
    return [s for s in ("L", "R")
            if not (s == "L" and f.p == 0) and not (s == "R" and f.p == f.q)]


def _coprime_numerator(rng: random.Random, q: int) -> int:
    if q == 1:
        return 0
    return rng.choice([p for p in range(1, q) if math.gcd(p, q) == 1])


def _chain_ok(values) -> bool:
    return all(v1 - v2 >= 1e-9 for v1, v2 in zip(values, values[1:]))


class Tongue:
    """Width tips and tongue sections: the displacement grid pass, bisection
    and golden refinement dominate; no long orbits run."""

    op_kind, job_kind = "section", "tip_width"
    speed_exponent = 1.0  # see ``speed``
    #: a mirror pair: both tips take 7,504 extremum evaluations; tips of
    #: other fractions differ in their mix of grid points and golden steps
    TIP_POOL = (Frac(1, 3), Frac(2, 3))
    #: section denominators; q = 1 is the 0/1 tongue with analytic boundaries.
    #: Section cost grows with q, so an odd count puts the median on one q
    #: (q = 6) instead of in the gap between two.
    SECTION_QS = (1, 3, 4, 5, 6, 7, 9, 11, 13)

    def __init__(self, rng: random.Random, tmp: Path):
        tip = rng.choice(self.TIP_POOL)
        self.ops = [Op("tip_width", f"tip_by_width({tip})",
                       lambda: tongue.tip_by_width(tip))]
        for q in self.SECTION_QS:
            frac, b = Frac(_coprime_numerator(rng, q), q), rng.uniform(1.0, 2.0)
            self.ops.append(Op("section", f"section({frac}, b={b:.6f})",
                               lambda frac=frac, b=b: tongue.section(frac, b)))

    def check(self, results) -> list[str | None]:
        out = []
        for op, r in zip(self.ops, results):
            if r is None:  # raised; already counted as failed
                out.append(None)
            elif op.kind == "tip_width":
                other = web.tip_by_intersection(r.frac)
                da, db = abs(r.a - other.a), abs(r.b - other.b)
                out.append(None if max(da, db) <= 1e-6 else
                           f"width tip differs from intersection tip by ({da:.3g}, {db:.3g})")
            else:
                out.append(self._check_section(r))
        return out

    @staticmethod
    def _check_section(r) -> str | None:
        bad = []
        if not (r.phi2 <= r.phi1 + 1e-9 and r.phi2 <= r.psi1 + 1e-9
                and r.psi2 <= r.phi1 + 1e-9):
            bad.append("boundary ordering violated")
        if r.frac.q == 1:
            exact = r.b / TWO_PI
            if max(abs(r.phi1 - exact), abs(r.phi2 + exact)) > 1e-10:
                bad.append(f"phi1/phi2 of 0/1 miss +-b/2pi={exact!r}")
        return "; ".join(bad) or None


class Web:
    """Every strand, critical-line point and intersection tip through one tree
    level, plus trichotomy rows and single strand samples: tens of thousands
    of scalar orbits of q steps; the grid pass runs only for tip residuals
    and trichotomy boundaries."""

    op_kind, job_kind = "strand_point", "tip_intersection"
    speed_exponent = 1.25  # see ``speed``
    LEVEL = 4
    STEPS = 25
    QUERIES_PER_STRAND = 31
    #: trichotomy rows run for 1/2 and one of a mirror pair of equal cost;
    #: their children stay within q <= 14
    TRICHOTOMY_PAIR = (Frac(1, 3), Frac(2, 3))

    def __init__(self, rng: random.Random, tmp: Path):
        fracs = _fracs_through(self.LEVEL)
        b_hi = rng.uniform(1.5, 1.7)
        self.ops = []
        for f in fracs:
            for side in _strand_sides(f):
                self.ops.append(Op("trace_strand", f"trace_strand({f}, {side})",
                                   lambda f=f, side=side:
                                   web.trace_strand(f, side, 1.0, b_hi, self.STEPS)))
        for f in fracs:
            self.ops.append(Op("b_point", f"b_point({f})", lambda f=f: web.b_point(f), f))
        for f in fracs:
            if not f.is_endpoint:
                self.ops.append(Op("tip_intersection", f"tip_by_intersection({f})",
                                   lambda f=f: web.tip_by_intersection(f)))
        for f in (Frac(1, 2), rng.choice(self.TRICHOTOMY_PAIR)):
            below, above = rng.uniform(0.3, 0.7), rng.uniform(0.05, 0.1)
            # the tip is a cache hit: its own operation ran earlier in the list
            # key: the case expected, 1 (locked) below the tip, 2 above it
            self.ops.append(Op("trichotomy", f"trichotomy({f}, below tip)",
                               lambda f=f, u=below: verify.trichotomy(
                                   f, 1.0 + u * (web.tip_by_intersection(f).b - 1.0)), 1))
            self.ops.append(Op("trichotomy", f"trichotomy({f}, above tip)",
                               lambda f=f, d=above: verify.trichotomy(
                                   f, web.tip_by_intersection(f).b + d), 2))
        # the same number of samples on every strand, heights stratified over
        # [1, 2], so that every seed asks for the same mix of work
        strands = [(f, side) for f in fracs for side in _strand_sides(f)]
        for k in range(self.QUERIES_PER_STRAND):
            for f, side in strands:
                b = 1.0 + (k + rng.random()) / self.QUERIES_PER_STRAND
                self.ops.append(Op("strand_point", f"strand_point({f}, {side}, b={b:.6f})",
                                   lambda f=f, side=side, b=b: web.strand_point(f, side, b)))

    def check(self, results) -> list[str | None]:
        anchors = {op.key: r[0] for op, r in zip(self.ops, results)
                   if op.kind == "b_point" and r is not None}
        out = []
        for op, r in zip(self.ops, results):
            if r is None:  # raised; already counted as failed
                out.append(None)
            elif op.kind == "trace_strand":
                f, side = r[0].frac, r[0].side
                bad = [p.b for p in r
                       if not reference.strand_brackets_root(f.p, f.q, side, p.b, p.a)]
                anchor = anchors.get(f)
                msg = [f"root of {f} {side} not bracketed at {len(bad)} heights"] if bad else []
                if anchor is None or abs(r[0].a - anchor) > 1e-9:
                    msg.append(f"b=1 anchor {r[0].a!r} vs b_point {anchor!r}")
                out.append("; ".join(msg) or None)
            elif op.kind == "strand_point":
                ok = reference.strand_brackets_root(r.frac.p, r.frac.q, r.side, r.b, r.a)
                out.append(None if ok else "strand root not bracketed")
            elif op.kind == "b_point":
                ok = reference.bpoint_brackets_root(op.key.p, op.key.q, r[0])
                out.append(None if ok else "critical orbit does not close at b_point")
            elif op.kind == "tip_intersection":
                out.append(None if r.residual <= 1e-6 and 1.0 < r.b < 4.0 else
                           f"tip residual {r.residual:.3g} at b={r.b!r}")
            else:
                out.append(self._check_trichotomy(op.key, r))
        return out

    @staticmethod
    def _check_trichotomy(expected: int, r) -> str | None:
        if r.case != expected:
            return f"case {r.case}, expected {expected}"
        if expected == 1:
            chain = list(r.L_values) + [r.psi2, r.psi1] + list(reversed(r.R_values))
        else:
            chain = list(r.R_values) + [r.psi1, r.psi2] + list(reversed(r.L_values))
        return None if _chain_ok(chain) else "strand chain not strictly ordered"


class Orbits:
    """Rotation intervals at the default tolerance, half of them locked, and
    width and lock rasters through the CLI: long pure-Python orbits, plus many
    small grid passes for the lock rasters; no bisection chain runs.  The
    compound call is the width raster: its time follows the machine-speed
    kernel closely, the lock raster's does not (see ``speed``)."""

    op_kind, job_kind = "rot_interval", "scan_width"
    speed_exponent = 1.0  # see ``speed``
    REF_STEPS = 10_000
    SCAN_CELLS = 16
    #: lock rasters alternate between a mirror pair of equal cost
    LOCK_PAIR = (Frac(1, 3), Frac(2, 3))
    RASTERS = 2  # of each mode

    def __init__(self, rng: random.Random, tmp: Path):
        points = self._locked(rng) + self._unlocked(rng, 6)
        self.ops = [Op("rot_interval", f"rot_interval(a={a!r}, b={b!r})",
                       lambda a=a, b=b: rotation.rot_interval(lift.FamilyParams(a, b)),
                       lift.FamilyParams(a, b))
                    for a, b in points]
        n = self.SCAN_CELLS
        # width rasters span one period in a (a translates by whole turns), so
        # every offset covers the same dynamics
        for i in range(self.RASTERS):
            a0 = rng.random()
            argv = ["scan", "--a", f"{a0!r}:{a0 + (n - 1) / n!r}:{n}", "--b", f"1.0:2.0:{n}",
                    "--mode", "width", "--out", str(tmp / f"width{i}.csv")]
            self.ops.append(Op("scan_width", "fareyweb " + " ".join(argv[:7]),
                               lambda argv=argv: _run_cli(argv)))
        for i in range(self.RASTERS):
            frac = self.LOCK_PAIR[i % 2]
            c = frac.value + rng.uniform(-0.02, 0.02)
            argv = ["scan", "--a", f"{c - 0.1!r}:{c + 0.1!r}:{n}", "--b", f"1.0:2.0:{n}",
                    "--mode", f"lock:{frac}", "--out", str(tmp / f"lock{i}.csv")]
            self.ops.append(Op("scan_lock", "fareyweb " + " ".join(argv[:7]),
                               lambda argv=argv: _run_cli(argv), frac))
        self.check_rng = random.Random(rng.random())

    @staticmethod
    def _locked(rng: random.Random) -> list[tuple[float, float]]:
        # below the critical line |a - k| <= b/2pi carries a fixed point, so
        # rho = k; a = 0, 1/2 and 1 are the symmetry centres of the 0/1, 1/2
        # and 1/1 locking intervals, which stay open above the critical line
        # (the 1/2 tip is at b ~ 2.13)
        out = []
        for k in (0.0, 1.0):
            b = rng.uniform(0.5, 1.0)
            out.append((k + rng.uniform(-0.8, 0.8) * b / TWO_PI, b))
        out.append((0.5, rng.uniform(0.5, 1.0)))
        out.extend((a, rng.uniform(1.1, 1.9)) for a in (0.0, 0.5, 1.0))
        return out

    @staticmethod
    def _unlocked(rng: random.Random, count: int) -> list[tuple[float, float]]:
        # candidates whose rotation number stays 2e-3 away from every p/q with
        # q <= 12; locking at larger q has width below 1e-7 for b <= 0.6
        near = sorted({p / q for q in range(1, 13) for p in range(q + 1)})
        out = []
        while len(out) < count:
            a = np.array([rng.uniform(0.0, 1.0) for _ in range(64)])
            b = np.array([rng.uniform(0.3, 0.6) for _ in range(64)])
            rho = reference.rotation_estimates(a, b, 2000)
            for ai, bi, r in zip(a, b, rho):
                if len(out) < count and min(abs(r - v) for v in near) > 2e-3:
                    out.append((float(ai), float(bi)))
        return out

    def check(self, results) -> list[str | None]:
        out = []
        for op, r in zip(self.ops, results):
            if r is None:  # raised; already counted as failed
                out.append(None)
            elif op.kind == "rot_interval":
                out.append(self._check_interval(op.key, r))
            elif op.kind == "scan_width":
                out.append(self._check_width(r))
            else:
                out.append(self._check_lock(r, op.key))
        return out

    def _check_interval(self, params, ri) -> str | None:
        bad = []
        xs = np.arange(8) / 8.0
        ref = {}
        for side, enc in ((lift.BoundSide.LOWER, ri.lower), (lift.BoundSide.UPPER, ri.upper)):
            # both bounds are the map itself up to the critical line
            key = side if params.b > lift.SINE.b_critical else None
            if key not in ref:
                d = lift.SINE.iterate_array(params, side, xs, self.REF_STEPS) - xs
                ref[key] = (float(np.max((d - 1.0) / self.REF_STEPS)),
                            float(np.min((d + 1.0) / self.REF_STEPS)))
            lo, hi = ref[key]
            if enc.hi < lo - 1e-12 or enc.lo > hi + 1e-12:
                bad.append(f"{side.value} [{enc.lo!r}, {enc.hi!r}] misses "
                           f"iterate_array [{lo!r}, {hi!r}]")
        for enc, other in ((ri.lower, ri.upper), (ri.upper, ri.lower)):
            if enc.exact is None:
                continue
            num, den = enc.exact
            k = num // den
            status = rotation.lock_status(params, Frac(num - k * den, den), k).state
            if other.exact == enc.exact and status == "not_locked":
                bad.append(f"both ends snap to {num}/{den} but lock_status is not_locked")
            if not other.contains(num / den) and status == "locked":
                bad.append(f"lock_status locks {num}/{den} outside the other end")
        return "; ".join(bad) or None

    def _check_width(self, text: bytes) -> str | None:
        rows = _csv_cells(text)
        if len(rows) != self.SCAN_CELLS ** 2:
            return f"{len(rows)} raster cells"
        n = 2000  # 2 / scan_tol at the default configuration
        bad = 0
        for a, b, v in self.check_rng.sample(rows, 32):
            dl = reference.bound_orbit(a, b, True, 0.0, n)
            du = reference.bound_orbit(a, b, False, 0.0, n)
            # every orbit of n steps brackets its rotation number to 1/n, the
            # raster's own two orbits as well as these
            lo, hi = max(0.0, (du - dl - 4.0) / n), max(0.0, (du - dl + 4.0) / n)
            bad += not lo - 1e-12 <= v <= hi + 1e-12
        return f"{bad} width cells outside the reference enclosure" if bad else None

    def _check_lock(self, text: bytes, frac: Frac) -> str | None:
        rows = _csv_cells(text)
        if len(rows) != self.SCAN_CELLS ** 2:
            return f"{len(rows)} raster cells"
        if any(v not in (0.0, 0.5, 1.0) for _, _, v in rows):
            return "lock raster holds values outside {0, 0.5, 1}"
        locked = [row for row in rows if row[2] == 1.0]
        n, target = 20_000, frac.value
        bad = 0
        # a locked cell has both bound rotation numbers equal to p/q
        for a, b, _ in self.check_rng.sample(locked, min(4, len(locked))):
            for lower in (True, False):
                d = reference.bound_orbit(a, b, lower, 0.0, n)
                bad += not (d - 1.0) / n - 1e-12 <= target <= (d + 1.0) / n + 1e-12
        return f"{bad} locked cells with a bound rotation number off p/q" if bad else None


def _run_cli(argv: list[str]) -> bytes:
    code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"fareyweb {' '.join(argv)} exited with {code}")
    return Path(argv[argv.index("--out") + 1]).read_bytes()


def _csv_cells(text: bytes) -> list[tuple[float, float, float]]:
    lines = text.decode().splitlines()
    return [tuple(float(x) for x in line.split(",")) for line in lines[2:]]


WORKLOADS = {"tongue": Tongue, "web": Web, "orbits": Orbits}
