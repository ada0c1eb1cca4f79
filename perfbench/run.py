"""fareyweb benchmark: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload {tongue,web,orbits} --seed N \\
        --seconds S --trace {0,1}

Run from anywhere; the library is imported from ``src/`` next to this
directory.  A workload is a fixed job list drawn from the seed (see
``workloads``).  The run repeats the list, clearing every module-level cache
of the library before each repetition so that each repetition does the same
work, and starts no repetition it expects to end after ``--seconds``.
Outputs of the first repetition are cross-checked outside the timed region;
later repetitions must reproduce them exactly.

End-to-end metrics (``--trace 0``), all untraced, timings as medians and
normalised to a fixed machine speed (see ``speed``).  Every workload reports
every metric, so the names are generic and each workload fills them with its
own calls:

    setup_s      fresh interpreter to ``import fareyweb`` and ``load_config()``,
                 median of 7
    wall_s       one repetition of the whole job list
    op_ms        the workload's per-item call: section (tongue),
                 strand_point (web), rot_interval (orbits)
    job_s        the workload's compound call: tip_by_width (tongue),
                 tip_by_intersection (web), a ``fareyweb scan --mode width``
                 raster (orbits)
    peak_rss_mb  peak resident memory of the run

With ``--trace 1`` the repetitions alternate untraced and traced, and the
metrics are per-layer counts (from one traced repetition; they repeat
exactly) and self times (mean over traced repetitions), see ``tracer``.  A
traced tongue run also counts the extremum evaluations of one cold
``tip_by_width(1/2)``, for comparison with the ROADMAP baseline.
Lines before the last one report the per-call metrics by their own names
(``tip_width_s``, ``strand_point_ms_tail``, ``scan_lock_cells_per_s``, ...),
``fail_frac`` (also carried by ``failed``/``attempted``), sample counts, the
``src/`` line count and the revision.  The last line is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(ROOT))

from perfbench.speed import REF_S, SpeedMeter  # noqa: E402
from perfbench.tracer import Tracer  # noqa: E402

TMP = ROOT / ".bench_tmp"
SETUP_RUNS = 7
SETUP_PROBE = """
import sys
from time import perf_counter
t0 = perf_counter()
sys.path.insert(0, sys.argv[1])
import fareyweb
from fareyweb.config import load_config
load_config()
t1 = perf_counter()
sys.path.insert(0, sys.argv[2])
from perfbench.speed import REF_S, kernel_time
print((t1 - t0) * REF_S / kernel_time(40))
"""
#: the ROADMAP's count for one tip_by_width(1/2) at the default grid
HALF_TIP_EXTREMUM_CALLS = 11_326


@dataclass
class Rep:
    results: list
    errors: dict[int, str]
    warnings: list[str]  # RuntimeWarning messages, in order
    cache_misses: dict[str, int]
    tracer: object
    raw_wall: float
    marks: list[tuple[float, float, float]]  # per operation: start, end, handler time
    span: tuple[float, float, float]  # the same for the whole repetition
    fingerprints: list[str]
    latencies: list[float] = field(default_factory=list)  # normalised, seconds
    wall: float = 0.0  # normalised, seconds


def _caches():
    """Every module-level functools cache in the library, by qualified name."""
    found = {}
    for name, mod in sorted(sys.modules.items()):
        if mod is None or not (name == "fareyweb" or name.startswith("fareyweb.")):
            continue
        for val in vars(mod).values():
            if hasattr(val, "cache_clear") and hasattr(val, "cache_info"):
                found.setdefault(f"{val.__module__}.{val.__qualname__}", val)
    return found


def run_rep(ops, caches, meter, tracer=None) -> Rep:
    for cache in caches.values():
        cache.cache_clear()
    results, marks, errors = [], [], {}
    if tracer is not None:
        tracer.install()
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            t0, h0 = perf_counter(), meter.spent
            for i, op in enumerate(ops):
                s, hs = perf_counter(), meter.spent
                try:
                    r = op.call()
                except Exception:  # one failed operation must not end the run
                    r = None
                    errors[i] = traceback.format_exc()
                marks.append((s, perf_counter(), meter.spent - hs))
                results.append(r)
            end = perf_counter()
    finally:
        if tracer is not None:
            tracer.uninstall()
    runtime_warnings = [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]
    misses = {name: c.cache_info().misses for name, c in caches.items()}
    return Rep(results, errors, runtime_warnings, misses, tracer, end - t0, marks,
               (t0, end, meter.spent - h0),
               [hashlib.sha1(repr(r).encode()).hexdigest() for r in results])


def measure_setup() -> float:
    """Median over fresh interpreters, each normalised by the kernel timed
    right after its import (the kernel needs numpy, which the import times)."""
    times = []
    for _ in range(SETUP_RUNS):
        out = subprocess.run([sys.executable, "-c", SETUP_PROBE, str(SRC), str(ROOT)],
                             check=True, stdin=subprocess.DEVNULL, capture_output=True,
                             text=True)
        times.append(float(out.stdout.split()[-1]))
    return statistics.median(times)


def repeat(ops, caches, seconds: float, traced: bool, make_tracer, exponent: float):
    """Run repetitions until the next one is expected to end after ``seconds``.

    Traced runs alternate untraced and traced repetitions, starting untraced,
    and always make at least one of each.  Timings come back normalised.
    """
    start = perf_counter()
    reps = []
    with SpeedMeter() as meter:
        while True:
            use_tracer = traced and len(reps) % 2 == 1
            reps.append(run_rep(ops, caches, meter, make_tracer() if use_tracer else None))
            if len(reps) > 1:  # only the first repetition's results are checked
                reps[-1].results = None
            expected = perf_counter() - start + statistics.median(r.raw_wall for r in reps)
            if expected > seconds and (not traced or len(reps) >= 2):
                break
    for rep in reps:
        rep.latencies = [meter.normalise(*m, exponent) for m in rep.marks]
        rep.wall = meter.normalise(*rep.span, exponent)
    return reps, meter


def failures(reps, check_msgs) -> tuple[int, list[str]]:
    """Failed operations over all repetitions, with the distinct reasons."""
    first = reps[0].fingerprints
    failed, reasons = 0, []
    for k, rep in enumerate(reps):
        for i, fp in enumerate(rep.fingerprints):
            why = rep.errors.get(i)
            if why is None and fp != first[i]:
                why = f"repetition {k} result differs from repetition 0"
            if why is None:
                why = check_msgs[i]
            if why is not None:
                failed += 1
                if why not in reasons:
                    reasons.append(why)
    return failed, reasons


def tail(samples) -> tuple[float, float, int]:
    """(percentile, value, count beyond): the highest percentile with at least
    ten samples beyond it."""
    xs = sorted(samples)
    r = len(xs) - 11
    if r < 0:
        return float("nan"), float("nan"), 0
    return 100.0 * (r + 1) / len(xs), xs[r], len(xs) - r - 1


def by_kind(reps, ops, kind):
    """Latencies of the calls of one kind that returned (of all of them, if
    none did, so that a failing run still reports every metric)."""
    pairs = [(i in rep.errors, rep.latencies[i]) for rep in reps
             for i, op in enumerate(ops) if op.kind == kind]
    return [t for raised, t in pairs if not raised] or [t for _, t in pairs]


def named_metrics(name, reps, wl) -> list[tuple[str, float, str, str]]:
    """The per-call metrics named for each workload: (name, value, unit, note)."""
    ops = wl.ops
    out = []

    def med(metric, kind, unit, scale):
        xs = by_kind(reps, ops, kind)
        out.append((metric, scale * statistics.median(xs), unit, f"median of {len(xs)}"))

    if name == "tongue":
        med("tip_width_s", "tip_width", "s", 1.0)
        med("section_ms", "section", "ms", 1e3)
    elif name == "web":
        med("tip_intersection_ms", "tip_intersection", "ms", 1e3)
        med("strand_point_ms", "strand_point", "ms", 1e3)
        pct, val, beyond = tail(by_kind(reps, ops, "strand_point"))
        out.append(("strand_point_ms_tail", 1e3 * val, "ms",
                    f"p{pct:.2f}, {beyond} samples beyond"))
    else:
        med("rot_interval_ms", "rot_interval", "ms", 1e3)
        for kind in ("scan_width", "scan_lock"):
            rates = [wl.SCAN_CELLS ** 2 / t for t in by_kind(reps, ops, kind)]
            out.append((f"{kind}_cells_per_s", statistics.median(rates), "1/s",
                        f"median of {len(rates)} rasters of {wl.SCAN_CELLS ** 2} cells"))
    return out


def layer_metrics(traced, untraced, probe_calls) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the traced repetitions.

    Self times and ``trace.wall_s`` are raw seconds, so that the self times
    of all spans plus ``trace.glue_s`` (the benchmark's own time between
    library calls) add up to ``trace.wall_s``; the overhead compares
    normalised walls of traced and untraced repetitions.
    """
    c = traced[0].tracer.counts
    n = len(traced)

    def self_s(*spans):
        return sum(rep.tracer.self_s[s] for rep in traced for s in spans) / n

    def ratio(num, den):
        return c[num] / c[den] if c[den] else 0.0

    trace_wall = sum(rep.raw_wall for rep in traced) / n
    attributed = sum(rep.tracer.attributed_s() for rep in traced) / n
    overhead = (statistics.median(r.wall for r in traced)
                / statistics.median(r.wall for r in untraced) - 1.0)
    farey = ("farey.parents", "farey.child", "farey.simplest", "farey.enumerate_level")
    landmark_misses = sum(v for k, v in traced[0].cache_misses.items()
                          if k.startswith("fareyweb.lift."))
    m = {
        "lift.iterate.calls": (c["lift.iterate.calls"], "count"),
        "lift.iterate.steps": (c["lift.iterate.steps"], "count"),
        "lift.iterate.self_s": (self_s("lift.iterate"), "s"),
        "lift.bound_eval.array_calls": (c["lift.bound_eval.array_calls"], "count"),
        "lift.bound_eval.points": (c["lift.bound_eval.points"], "count"),
        "lift.bound_eval.self_s": (self_s("lift.bound_eval"), "s"),
        "lift.landmarks.misses": (landmark_misses, "count"),
        "solvers.bisect.calls": (c["solvers.bisect.calls"], "count"),
        "solvers.bisect.evals": (c["solvers.bisect.evals"], "count"),
        "solvers.bisect.self_s": (self_s("solvers.bisect"), "s"),
        "solvers.golden.calls": (c["solvers.golden_min.calls"] + c["solvers.golden_max.calls"],
                                 "count"),
        "solvers.golden.evals": (c["solvers.golden.evals"], "count"),
        "solvers.golden.self_s": (self_s("solvers.golden_min", "solvers.golden_max"), "s"),
        "rotation.extremum.calls": (c["rotation.extremum.calls"], "count"),
        "rotation.extremum.grid_points": (c["rotation.extremum.grid_points"], "count"),
        "rotation.extremum.self_s": (self_s("rotation.extremum"), "s"),
        "rotation.rot_interval.calls": (c["rotation.rot_interval.calls"], "count"),
        "rotation.rot_interval.self_s": (self_s("rotation.rot_interval"), "s"),
        "rotation.snap.attempts": (c["rotation.snap.calls"], "count"),
        "rotation.snap.hits": (c["rotation.snap.hits"], "count"),
        "rotation.snap.hit_ratio": (ratio("rotation.snap.hits", "rotation.snap.calls"), "ratio"),
        "rotation.snap.self_s": (self_s("rotation.snap"), "s"),
        "rotation.lock_status.calls": (c["rotation.lock_status.calls"], "count"),
        "rotation.lock_status.uncertain_ratio": (
            ratio("rotation.lock_status.uncertain", "rotation.lock_status.calls"), "ratio"),
        "rotation.lock_status.self_s": (self_s("rotation.lock_status"), "s"),
        "tongue.boundary.calls": (c["tongue.boundary.calls"], "count"),
        "tongue.boundary.self_s": (self_s("tongue.boundary"), "s"),
        "tongue.boundary.evals_per_call": (
            ratio("tongue.boundary.extremum_calls", "tongue.boundary.calls"), "count"),
        "tongue.boundary.hint_accept_ratio": (
            ratio("tongue.boundary.hint_accepts", "tongue.boundary.hinted"), "ratio"),
        "tongue.section.calls": (c["tongue.section.calls"], "count"),
        "tongue.section.self_s": (self_s("tongue.section"), "s"),
        "tongue.tip_width.calls": (c["tongue.tip_width.calls"], "count"),
        "tongue.tip_width.self_s": (self_s("tongue.tip_width"), "s"),
        "tongue.tip_width.boundary_calls": (c["tongue.tip_width.boundary_calls"], "count"),
        "web.strand_point.calls": (c["web.strand_point.calls"], "count"),
        "web.strand_point.self_s": (self_s("web.strand_point"), "s"),
        "web.strand_point.verified_ratio": (
            ratio("web.strand_point.verified", "web.strand_point.calls"), "ratio"),
        "web.strand_point.continued_ratio": (
            ratio("web.strand_point.continued", "web.strand_point.calls"), "ratio"),
        "web.raw_roots.calls": (c["web.raw_roots.calls"], "count"),
        "web.raw_roots.self_s": (self_s("web.raw_roots"), "s"),
        "web.tip_intersection.calls": (c["web.tip_intersection.calls"], "count"),
        "web.tip_intersection.self_s": (self_s("web.tip_intersection"), "s"),
        "web.tip_intersection.gap_evals": (c["web.tip_intersection.strand_points"] // 2,
                                           "count"),
        "web.b_point.calls": (c["web.b_point.calls"], "count"),
        "web.b_point.self_s": (self_s("web.b_point"), "s"),
        "web.continuity_warnings": (len(traced[0].warnings), "count"),
        "verify.trichotomy.calls": (c["verify.trichotomy.calls"], "count"),
        "verify.trichotomy.self_s": (self_s("verify.trichotomy"), "s"),
        "farey.calls": (sum(c[f + ".calls"] for f in farey), "count"),
        "farey.self_s": (self_s(*farey), "s"),
        "cli.scan.cells": (c["cli.scan.cells"], "count"),
        "cli.scan.self_s": (self_s("cli.scan"), "s"),
        "trace.wall_s": (trace_wall, "s"),
        "trace.glue_s": (trace_wall - attributed, "s"),
        "tracing_overhead_frac": (overhead, "ratio"),
        "probe.half_tip.extremum_calls": (probe_calls, "count"),
    }
    return m


def half_tip_probe(caches, make_tracer) -> int:
    """Extremum evaluations of one cold, traced tip_by_width(1/2)."""
    from fareyweb import tongue
    from fareyweb.farey import Frac
    for cache in caches.values():
        cache.cache_clear()
    tr = make_tracer()
    tr.install()
    try:
        tongue.tip_by_width(Frac(1, 2))
    finally:
        tr.uninstall()
    return tr.counts["rotation.extremum.calls"]


def src_context() -> tuple[int, str]:
    files = sorted(SRC.rglob("*.py"))
    lines = sum(len(p.read_text().splitlines()) for p in files)
    digest = hashlib.sha256()
    for p in files:
        digest.update(p.relative_to(SRC).as_posix().encode() + b"\0" + p.read_bytes())
    rev = "src-sha256:" + digest.hexdigest()[:12]
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short", "HEAD"],
                             capture_output=True, text=True)
        if git.returncode == 0:
            rev = f"git:{git.stdout.strip()} {rev}"
    return lines, rev


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("tongue", "web", "orbits"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "fareyweb" / "__init__.py").is_file():
        print(f"error: no fareyweb sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from perfbench import workloads

    TMP.mkdir(exist_ok=True)
    try:
        caches = _caches()
        wl = workloads.WORKLOADS[args.workload](random.Random(args.seed), TMP)
        setup_s = measure_setup()
        reps, meter = repeat(wl.ops, caches, args.seconds, bool(args.trace), Tracer,
                             wl.speed_exponent)
        check_t0 = perf_counter()
        check_msgs = wl.check(reps[0].results)
        check_s = perf_counter() - check_t0
        probe = (half_tip_probe(caches, Tracer)
                 if args.trace and args.workload == "tongue" else 0)
    finally:
        shutil.rmtree(TMP, ignore_errors=True)

    untraced = [r for r in reps if r.tracer is None]
    traced = [r for r in reps if r.tracer is not None]
    failed, reasons = failures(reps, check_msgs)
    attempted = len(wl.ops) * len(reps)
    # notes describe the run; only failed operations make it incorrect
    notes = []
    if len({repr(sorted(r.tracer.counts.items())) for r in traced}) > 1:
        notes.append("traced counts differ between repetitions: a cache outlives them")
    if args.trace and args.workload == "tongue":
        notes.append(f"tip_by_width(1/2) made {probe} extremum evaluations "
                     f"(ROADMAP baseline {HALF_TIP_EXTREMUM_CALLS})")

    lines, rev = src_context()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    e2e = {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(r.wall for r in untraced), "s"),
        "op_ms": (1e3 * statistics.median(by_kind(untraced, wl.ops, wl.op_kind)), "ms"),
        "job_s": (statistics.median(by_kind(untraced, wl.ops, wl.job_kind)), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    print(f"# workload={args.workload} seed={args.seed} repetitions={len(untraced)} untraced"
          f" + {len(traced)} traced, {len(wl.ops)} operations each; checks {check_s:.1f} s")
    print(f"# src_lines={lines} revision={rev}")
    print(f"# speed kernel median {meter.median_kernel() * 1e6:.1f} us over "
          f"{len(meter.costs)} samples; timings are normalised to {REF_S * 1e6:.0f} us")
    for name, (value, unit) in e2e.items():
        print(f"{name:<28} {value:>14.6g} {unit}")
    for name, value, unit, note in named_metrics(args.workload, untraced, wl):
        print(f"{name:<28} {value:>14.6g} {unit:<6} {note}")
    print(f"{'fail_frac':<28} {failed / attempted:>14.6g} ratio  {failed} of {attempted}")
    print(f"{'continuity_warnings':<28} {len(reps[0].warnings):>14d} count  per repetition")
    for message in reps[0].warnings:  # diagnostics, not failures
        print(f"# RuntimeWarning: {message}")
    for why in reasons:
        print("FAILED: " + why.strip().splitlines()[-1])
    for note in notes:
        print("# " + note)

    if args.trace:
        if traced[0].tracer.missing:
            print("# no traced function for spans: " + ", ".join(traced[0].tracer.missing))
        metrics = layer_metrics(traced, untraced, probe)
        for name, (value, unit) in metrics.items():
            print(f"{name:<40} {value:>16.6g} {unit}")
    else:
        metrics = e2e
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
