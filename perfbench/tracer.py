"""Outside-in tracing of fareyweb by wrapping its module bindings.

Nothing in the library is edited.  ``Tracer.install`` replaces every binding
of each traced function in every loaded ``fareyweb`` module (functions
imported by name, such as ``bisect_root`` in ``lift``, ``tongue`` and ``web``,
are separate bindings) and fails if any module still reaches an original
afterwards, so a later refactor cannot silently drop a span.  ``uninstall``
puts the originals back.

Each span keeps a frame on a stack holding the time spent in its child
spans; on exit the span's self time is its duration minus that child time,
and its duration is added to the parent frame.  Self times of all spans
therefore partition the time spent inside the library, and the root frame
collects the total.  Counts are recorded at the same boundaries.
"""

from __future__ import annotations

import importlib
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

ROOT = "<bench>"
#: spans whose open depth other wrappers ask about
NESTING = ("tongue.boundary", "tongue.tip_width", "web.tip_intersection")

#: span name -> (module, attribute path) of the traced function
SPANS = {
    "lift.iterate": ("fareyweb.lift", "SineFamily.iterate"),
    "lift.bound_eval": ("fareyweb.lift", "SineFamily.bound_eval"),
    "solvers.bisect": ("fareyweb.solvers", "bisect_root"),
    "solvers.golden_min": ("fareyweb.solvers", "golden_min"),
    "solvers.golden_max": ("fareyweb.solvers", "golden_max"),
    "rotation.extremum": ("fareyweb.rotation", "_disp_extremum"),
    "rotation.rot_interval": ("fareyweb.rotation", "rot_interval"),
    "rotation.snap": ("fareyweb.rotation", "_try_snap"),
    "rotation.lock_status": ("fareyweb.rotation", "lock_status"),
    "tongue.boundary": ("fareyweb.tongue", "boundary"),
    "tongue.section": ("fareyweb.tongue", "section"),
    "tongue.tip_width": ("fareyweb.tongue", "tip_by_width"),
    "web.strand_point": ("fareyweb.web", "strand_point"),
    "web.raw_roots": ("fareyweb.web", "_raw_strand_roots"),
    "web.tip_intersection": ("fareyweb.web", "tip_by_intersection"),
    "web.b_point": ("fareyweb.web", "b_point"),
    "verify.trichotomy": ("fareyweb.verify", "trichotomy"),
    "farey.parents": ("fareyweb.farey", "parents"),
    "farey.child": ("fareyweb.farey", "child"),
    "farey.simplest": ("fareyweb.farey", "simplest_in_interval"),
    "farey.enumerate_level": ("fareyweb.farey", "enumerate_level"),
    "cli.scan": ("fareyweb.cli", "main"),
}


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *outer, name = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, name


def _fareyweb_modules():
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "fareyweb" or n.startswith("fareyweb."))]


def _cells(argv) -> int:
    """Raster cell count of a ``scan`` invocation (``--a``/``--b`` are lo:hi:n)."""
    n = 1
    for flag in ("--a", "--b"):
        n *= int(argv[argv.index(flag) + 1].split(":")[2])
    return n


class Tracer:
    """Self times and counts per span name, plus nested counts."""

    def __init__(self):
        self.frames = [[ROOT, 0.0]]
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.active: dict[str, int] = defaultdict(int)
        self.missing: list[str] = []
        self._patched: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------- wrappers

    def _span(self, name, fn, before=None, after=None, arg_hook=None):
        """Wrap fn in a span; hooks see (args, kw) before and the result after."""
        frames, self_s, counts, active = self.frames, self.self_s, self.counts, self.active
        calls = name + ".calls"
        depth = 1 if name in NESTING else 0

        def wrapper(*args, **kw):
            counts[calls] += 1
            if arg_hook is not None:
                args, kw = arg_hook(args, kw)
            if before is not None:
                before(args, kw)
            frame = [name, 0.0]
            frames.append(frame)
            active[name] += depth
            t0 = perf_counter()
            try:
                result = fn(*args, **kw)
            finally:
                dt = perf_counter() - t0
                active[name] -= depth
                frames.pop()
                self_s[name] += dt - frame[1]
                frames[-1][1] += dt
            if after is not None:
                after(result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _iterate_span(self, fn):
        """The scalar orbit loop runs hundreds of thousands of times per
        repetition, so its span skips the generic hook machinery."""
        frames, self_s, counts = self.frames, self.self_s, self.counts

        def iterate(family, params, side, x, n):
            counts["lift.iterate.calls"] += 1
            counts["lift.iterate.steps"] += n
            frame = ["lift.iterate", 0.0]
            frames.append(frame)
            t0 = perf_counter()
            try:
                return fn(family, params, side, x, n)
            finally:
                dt = perf_counter() - t0
                frames.pop()
                self_s["lift.iterate"] += dt - frame[1]
                frames[-1][1] += dt

        iterate.__wrapped__ = fn
        return iterate

    def _counting(self, key, f):
        counts = self.counts

        def counted(x):
            counts[key] += 1
            return f(x)

        return counted

    def _build(self, originals):
        c, active, frames = self.counts, self.active, self.frames
        w = {}

        def bound_eval_before(args, kw):
            x = args[3] if len(args) > 3 else kw["x"]
            if isinstance(x, np.ndarray):
                c["lift.bound_eval.array_calls"] += 1
                c["lift.bound_eval.points"] += x.size

        def bisect_args(args, kw):
            if frames[-1][0] == "tongue.boundary" and kw.get("f_lo") is not None:
                c["tongue.boundary.hint_accepts"] += 1
            return (self._counting("solvers.bisect.evals", args[0]),) + args[1:], kw

        def golden_args(args, kw):
            return (self._counting("solvers.golden.evals", args[0]),) + args[1:], kw

        def extremum_before(args, kw):
            q, grid = args[3], args[6]
            c["rotation.extremum.grid_points"] += (grid[0] + grid[1] * q) * q
            if active["tongue.boundary"]:
                c["tongue.boundary.extremum_calls"] += 1

        def snap_after(hit):
            c["rotation.snap.hits"] += hit is not None

        def lock_after(status):
            c["rotation.lock_status.uncertain"] += status.state == "uncertain"

        def boundary_before(args, kw):
            if kw.get("bracket") is not None:
                c["tongue.boundary.hinted"] += 1
            if active["tongue.tip_width"]:
                c["tongue.tip_width.boundary_calls"] += 1

        def strand_before(args, kw):
            if active["web.tip_intersection"]:
                c["web.tip_intersection.strand_points"] += 1

        def strand_after(pt):
            c["web.strand_point.verified"] += pt.constraints_verified
            c["web.strand_point.continued"] += pt.method == "continued"

        def scan_before(args, kw):
            c["cli.scan.cells"] += _cells(args[0])

        hooks = {
            "lift.bound_eval": dict(before=bound_eval_before),
            "solvers.bisect": dict(arg_hook=bisect_args),
            "solvers.golden_min": dict(arg_hook=golden_args),
            "solvers.golden_max": dict(arg_hook=golden_args),
            "rotation.extremum": dict(before=extremum_before),
            "rotation.snap": dict(after=snap_after),
            "rotation.lock_status": dict(after=lock_after),
            "tongue.boundary": dict(before=boundary_before),
            "web.strand_point": dict(before=strand_before, after=strand_after),
            "cli.scan": dict(before=scan_before),
        }
        for name, fn in originals.items():
            w[name] = self._span(name, fn, **hooks.get(name, {}))
        if "lift.iterate" in originals:
            w["lift.iterate"] = self._iterate_span(originals["lift.iterate"])
        if "solvers.golden_min" not in originals:
            return w

        # golden_max minimizes -f through the module-level golden_min; that
        # inner call is part of the golden_max span, not a second search
        inner_min, span_min = originals["solvers.golden_min"], w["solvers.golden_min"]

        def golden_min(*args, **kw):
            if frames[-1][0] == "solvers.golden_max":
                return inner_min(*args, **kw)
            return span_min(*args, **kw)

        golden_min.__wrapped__ = inner_min
        w["solvers.golden_min"] = golden_min
        return w

    # ---------------------------------------------------------- (un)install

    def install(self) -> None:
        """Replace every binding of every traced function; fail on a leftover.

        A traced function that no longer exists (renamed or removed) is listed
        in ``missing`` and its span reads zero.
        """
        if self._patched:
            raise RuntimeError("tracer already installed")
        originals, self.missing = {}, []
        for name, (module, path) in SPANS.items():
            try:
                owner, attr = _resolve(module, path)
                originals[name] = owner.__dict__[attr]
            except (ImportError, AttributeError, KeyError):
                self.missing.append(name)
        wrappers = self._build(originals)
        by_id = {id(fn): wrappers[name] for name, fn in originals.items()}
        for name in originals:
            owner, attr = _resolve(*SPANS[name])
            if isinstance(owner, type):  # methods are bound once, on the class
                self._patched.append((owner, attr, originals[name]))
                setattr(owner, attr, wrappers[name])
        for mod in _fareyweb_modules():
            for key, val in list(vars(mod).items()):
                if id(val) in by_id:  # originals stay alive, so ids are unique
                    self._patched.append((mod, key, val))
                    setattr(mod, key, by_id[id(val)])
        leftovers = self._leftovers(originals)
        if leftovers:
            self.uninstall()
            raise RuntimeError("unwrapped fareyweb bindings remain: " + ", ".join(leftovers))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    @staticmethod
    def _leftovers(originals) -> list[str]:
        """Module-level names (and registry entries one level down) still bound
        to an original."""
        ids = {id(fn): name for name, fn in originals.items()}
        found = []
        for mod in _fareyweb_modules():
            for key, val in vars(mod).items():
                vals = [val]
                if isinstance(val, dict):
                    vals = list(val.values())
                elif isinstance(val, (list, tuple)):
                    vals = list(val)
                elif isinstance(val, type) and val.__module__.startswith("fareyweb"):
                    vals = list(vars(val).values())
                if any(id(v) in ids for v in vals):
                    found.append(f"{mod.__name__}.{key}")
        return found

    # -------------------------------------------------------------- results

    def attributed_s(self) -> float:
        """Total time inside library spans (the sum of all self times)."""
        return self.frames[0][1]
