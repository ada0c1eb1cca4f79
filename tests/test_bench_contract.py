"""The benchmark tracer still binds to the library.

``perfbench.tracer`` wraps library functions by name and reads some of their
arguments by position, so a signature or name change breaks the benchmark
without failing any library test.  A few cheap calls under the installed
tracer catch that here.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from fareyweb import cli, rotation, tongue, web  # noqa: E402
from fareyweb.config import Config  # noqa: E402
from fareyweb.farey import Frac  # noqa: E402
from fareyweb.lift import FamilyParams  # noqa: E402
from perfbench.tracer import Tracer  # noqa: E402


def test_tracer_binds_every_span(tmp_path):
    tr = Tracer()
    tr.install()
    try:
        tongue.section(Frac(0, 1), 1.5)
        web.strand_point(Frac(1, 2), "R", 1.5)
        rotation.rot_interval(FamilyParams(0.0, 2.0), Config(rot_tol=1e-3))
        code = cli.main(["scan", "--a", "0.4:0.6:2", "--b", "1.0:1.2:2",
                         "--mode", "lock:1/2", "--out", str(tmp_path / "lock.csv")])
    finally:
        tr.uninstall()
    assert code == 0
    assert tr.missing == []
    c = tr.counts
    for key in ("tongue.section.calls", "tongue.boundary.calls", "rotation.extremum.calls",
                "rotation.extremum.grid_points", "lift.iterate.steps", "solvers.golden.evals",
                "web.strand_point.calls", "rotation.rot_interval.calls",
                "rotation.snap.calls", "rotation.snap.hits", "rotation.lock_status.calls",
                "cli.scan.calls"):
        assert c[key] > 0, key
    assert c["cli.scan.cells"] == 4


def test_tracer_binds_both_tip_searches():
    # under the tracer ``__wrapped__`` is the cached function, which skips the
    # span; a config no other call uses keeps both calls cold and traced
    num = Config(b_tol=2e-10)
    tr = Tracer()
    tr.install()
    try:
        tongue.tip_by_width(Frac(1, 2), num)
        web.tip_by_intersection(Frac(1, 2), num)
    finally:
        tr.uninstall()
    assert tr.missing == []
    assert tr.counts["tongue.tip_width.calls"] > 0
    assert tr.counts["web.tip_intersection.calls"] > 0
    assert tr.counts["rotation.extremum.calls"] > 0 and tr.counts["lift.iterate.calls"] > 0
    # every boundary is a Newton solve; the tips' b-bisection still calls ``bisect_root``
    assert tr.counts["solvers.bisect.evals"] > 0
