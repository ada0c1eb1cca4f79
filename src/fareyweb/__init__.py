"""Frequency-locking structure of the standard sine circle-map family.

Exact Farey-tree arithmetic, certified rotation intervals, tongue boundary
functions, web strands with their tips and critical-line anchors, an
idealized plane-graph construction, and numerical verification suites.
"""

from .config import DEFAULT, Config
from .errors import BracketError, ConsistencyError, TipNotFoundError
from .farey import (Frac, FareyNode, child, enumerate_level, is_farey_neighbor,
                    is_higher, level_and_path, mediant, parents, path_to_real,
                    simplest_in_interval)
from .lift import SINE, BoundSide, FamilyParams, Landmarks, SineFamily
from .rotation import (Enclosure, LockStatus, RotationInterval,
                       displacement_extrema, lock_status, orbit_averages,
                       rot_interval)
from .tongue import (Tip, TongueSection, boundary, locking_interval, section,
                     tip_by_width, trace)
from .web import (StrandPoint, TwistCycle, b_point, strand_point,
                  tip_by_intersection, trace_strand, twist_cycles)
from .verify import Report, TrichotomyResult, run_suite, trichotomy

__version__ = "0.1.0"

__all__ = [
    "Config", "DEFAULT",
    "BracketError", "ConsistencyError", "TipNotFoundError",
    "Frac", "FareyNode", "child", "enumerate_level", "is_farey_neighbor",
    "is_higher", "level_and_path", "mediant", "parents", "path_to_real",
    "simplest_in_interval",
    "SINE", "BoundSide", "FamilyParams", "Landmarks", "SineFamily",
    "Enclosure", "LockStatus", "RotationInterval", "displacement_extrema",
    "lock_status", "orbit_averages", "rot_interval",
    "Tip", "TongueSection", "boundary", "locking_interval", "section",
    "tip_by_width", "trace",
    "StrandPoint", "TwistCycle", "b_point", "strand_point",
    "tip_by_intersection", "trace_strand", "twist_cycles",
    "Report", "TrichotomyResult", "run_suite", "trichotomy",
]
