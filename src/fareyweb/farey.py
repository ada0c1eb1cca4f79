"""Exact rational arithmetic on [0, 1] organized by the Farey tree.

Fractions are stored in lowest terms with 0 <= p <= q.  The tree puts 0/1 and
1/1 at level 0 and their common first child 1/2 at level 1; from there every
vertex has two first children (one mediant with each parent) and level n holds
2**(n-1) fractions.  Two fractions are Farey neighbors when the cross
determinant p1*q2 - p2*q1 is +-1, and every fraction in (0, 1) is the mediant
of a unique neighbor pair: its parents.

Rotation numbers outside [0, 1] are handled at call sites by integer
translation, so nothing here needs fractions beyond the unit interval.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction as _ExactRational
from functools import total_ordering

#: Reject denominators beyond this instead of silently growing without bound.
DENOMINATOR_LIMIT = 10**6


@total_ordering
@dataclass(frozen=True)
class Frac:
    """A rational p/q in lowest terms with 0 <= p/q <= 1."""

    p: int
    q: int

    def __post_init__(self):
        if not (isinstance(self.p, int) and isinstance(self.q, int)):
            raise TypeError("numerator and denominator must be integers")
        if self.q < 1:
            raise ValueError(f"denominator must be positive, got {self.q}")
        if not 0 <= self.p <= self.q:
            raise ValueError(f"{self.p}/{self.q} lies outside [0, 1]")
        g = math.gcd(self.p, self.q)
        if g > 1:
            object.__setattr__(self, "p", self.p // g)
            object.__setattr__(self, "q", self.q // g)
        if self.q > DENOMINATOR_LIMIT:
            raise ValueError(f"denominator {self.q} exceeds limit {DENOMINATOR_LIMIT}")

    @classmethod
    def parse(cls, text: str) -> "Frac":
        num, _, den = text.partition("/")
        if not den:
            raise ValueError(f"expected 'p/q', got {text!r}")
        return cls(int(num), int(den))

    @property
    def value(self) -> float:
        return self.p / self.q

    @property
    def is_endpoint(self) -> bool:
        return self.p == 0 or self.p == self.q

    def __lt__(self, other: "Frac") -> bool:
        return self.p * other.q < other.p * self.q

    def __str__(self) -> str:
        return f"{self.p}/{self.q}"

    def __repr__(self) -> str:
        return f"Frac({self.p}, {self.q})"


ZERO = Frac(0, 1)
ONE = Frac(1, 1)


@dataclass(frozen=True)
class FareyNode:
    """A fraction with its tree coordinates.

    ``path`` holds the L/R moves from the root vertex 1/2; its length is
    ``level - 1`` for fractions in (0, 1).  The endpoints 0/1 and 1/1 sit at
    level 0 with an empty path and no parents.
    """

    value: Frac
    level: int
    path: tuple[str, ...]
    left_parent: Frac | None
    right_parent: Frac | None


def mediant(f1: Frac, f2: Frac) -> Frac:
    """(p1 + p2) / (q1 + q2), reduced; the Farey sum when f1, f2 are neighbors."""
    return Frac(f1.p + f2.p, f1.q + f2.q)


def is_farey_neighbor(f1: Frac, f2: Frac) -> bool:
    return abs(f1.p * f2.q - f2.p * f1.q) == 1


def _descend(f: Frac) -> tuple[tuple[int, int], tuple[int, int], list[str]]:
    """Binary-search walk from (0/1, 1/1) down to f; returns final bounds and moves."""
    lo, hi = (0, 1), (1, 1)
    moves: list[str] = []
    while True:
        m = (lo[0] + hi[0], lo[1] + hi[1])
        if f.p * m[1] == m[0] * f.q:
            return lo, hi, moves
        if f.p * m[1] < m[0] * f.q:
            hi = m
            moves.append("L")
        else:
            lo = m
            moves.append("R")


def parents(f: Frac) -> tuple[Frac, Frac]:
    """The unique neighbor pair (left, right) with left (+) right = f."""
    if f.is_endpoint:
        raise ValueError(f"{f} has no two-sided parent decomposition")
    lo, hi, _ = _descend(f)
    return Frac(*lo), Frac(*hi)


def child(f: Frac, side: str, j: int) -> Frac:
    """The j-th left or right child of f; j = 0 gives the corresponding parent.

    Left children (jp + p1)/(jq + q1) increase toward f, right children
    (jp + p2)/(jq + q2) decrease toward f.  0/1 has only right children and
    1/1 only left children; the two endpoints act as each other's parents.
    """
    if side not in ("L", "R"):
        raise ValueError(f"side must be 'L' or 'R', got {side!r}")
    if j < 0:
        raise ValueError("j must be non-negative")
    if f == ZERO:
        if side == "L":
            raise ValueError("0/1 has no left children")
        anchor = ONE
    elif f == ONE:
        if side == "R":
            raise ValueError("1/1 has no right children")
        anchor = ZERO
    else:
        left, right = parents(f)
        anchor = left if side == "L" else right
    return Frac(j * f.p + anchor.p, j * f.q + anchor.q)


def level_and_path(f: Frac) -> FareyNode:
    if f.is_endpoint:
        return FareyNode(f, 0, (), None, None)
    lo, hi, moves = _descend(f)
    return FareyNode(f, len(moves) + 1, tuple(moves), Frac(*lo), Frac(*hi))


def is_higher(f1: Frac, f2: Frac) -> bool:
    """True iff f1 sits strictly above f2 on a level-monotone tree path.

    Incomparable pairs (no monotone path) return False rather than a separate
    marker.
    """
    if f1 == f2:
        return False
    n1 = level_and_path(f1)
    n2 = level_and_path(f2)
    if n1.level >= n2.level:
        return False
    if n1.level == 0:
        # both endpoints reach every interior vertex through 1/2
        return True
    return n2.path[: len(n1.path)] == n1.path


def path_to_real(omega, depth: int) -> list[Frac]:
    """The first ``depth`` tree vertices on the path converging to omega.

    For irrational omega the path is unique.  A rational omega is reached
    exactly and the path then follows its left-children branch (the
    convention here; the right branch is reachable through child()).
    """
    if depth < 1:
        raise ValueError("depth must be positive")
    if isinstance(omega, Frac):
        target = _ExactRational(omega.p, omega.q)
    elif 0 <= omega <= 1:  # false for nan; inf has no exact rational value
        target = _ExactRational(omega)  # exact binary value of the float
    else:
        raise ValueError(f"omega must lie in [0, 1], got {omega}")
    lo, hi = (0, 1), (1, 1)
    out: list[Frac] = []
    reached = False
    while len(out) < depth:
        m = (lo[0] + hi[0], lo[1] + hi[1])
        out.append(Frac(*m))
        if reached:
            lo = m
        else:
            mv = _ExactRational(m[0], m[1])
            if target == mv:
                reached = True
                hi = m
            elif target < mv:
                hi = m
            else:
                lo = m
    return out


def simplest_in_interval(lo: float, hi: float, qmax: int) -> Frac | None:
    """Fraction of smallest denominator <= qmax in [lo, hi] cap [0, 1], or None.

    Found by walking the tree; the walk visits denominators in increasing
    order inside the interval, so the first hit is the simplest.  When both
    endpoints qualify (interval covering [0, 1]) the smaller value 0/1 wins.
    """
    if lo > hi:
        return None
    a, b = max(lo, 0.0), min(hi, 1.0)
    if a > b:
        return None
    if a <= 0.0:
        return ZERO
    if b >= 1.0:
        return ONE
    left, right = (0, 1), (1, 1)
    while True:
        m = (left[0] + right[0], left[1] + right[1])
        if m[1] > qmax:
            return None
        if m[0] < a * m[1]:
            left = m
        elif m[0] > b * m[1]:
            right = m
        else:
            return Frac(*m)


def enumerate_level(n: int) -> list[Frac]:
    """All fractions at tree level exactly n, ascending."""
    if n < 0:
        raise ValueError("level must be non-negative")
    if n == 0:
        return [ZERO, ONE]
    level = [Frac(1, 2)]
    for _ in range(n - 1):
        nxt = []
        for f in level:
            nxt.append(child(f, "L", 1))
            nxt.append(child(f, "R", 1))
        level = nxt
    return sorted(level)
