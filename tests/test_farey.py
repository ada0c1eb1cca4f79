import math
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fareyweb.farey import (Frac, child, enumerate_level, is_farey_neighbor,
                            is_higher, level_and_path, mediant, parents,
                            path_to_real, simplest_in_interval)

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def frs(*pairs):
    return [Frac(p, q) for p, q in pairs]


def test_frac_normalization_and_bounds():
    assert Frac(2, 4) == Frac(1, 2)
    assert str(Frac(6, 8)) == "3/4"
    with pytest.raises(ValueError):
        Frac(3, 2)
    with pytest.raises(ValueError):
        Frac(1, 0)
    with pytest.raises(ValueError):
        Frac(1, 10**7)
    assert Frac(1, 3) < Frac(2, 5) < Frac(1, 2)


def test_mediant_examples():
    assert mediant(Frac(0, 1), Frac(1, 1)) == Frac(1, 2)
    assert mediant(Frac(1, 3), Frac(1, 2)) == Frac(2, 5)
    assert mediant(Frac(1, 3), Frac(2, 5)) == Frac(3, 8)


def test_neighbor_examples():
    assert is_farey_neighbor(Frac(1, 3), Frac(1, 2))
    assert not is_farey_neighbor(Frac(1, 3), Frac(2, 3))
    assert is_farey_neighbor(Frac(0, 1), Frac(1, 1))


def test_parents_examples():
    assert parents(Frac(1, 2)) == (Frac(0, 1), Frac(1, 1))
    assert parents(Frac(3, 8)) == (Frac(1, 3), Frac(2, 5))
    assert parents(Frac(4, 7)) == (Frac(1, 2), Frac(3, 5))
    for f in (Frac(0, 1), Frac(1, 1)):
        with pytest.raises(ValueError):
            parents(f)


def test_child_examples():
    assert child(Frac(1, 2), "L", 1) == Frac(1, 3)
    assert child(Frac(1, 2), "L", 2) == Frac(2, 5)
    assert child(Frac(1, 2), "L", 3) == Frac(3, 7)
    assert child(Frac(1, 2), "R", 1) == Frac(2, 3)
    assert child(Frac(1, 2), "R", 2) == Frac(3, 5)
    assert child(Frac(1, 2), "R", 0) == Frac(1, 1)
    assert child(Frac(0, 1), "R", 2) == Frac(1, 3)
    assert child(Frac(1, 1), "L", 2) == Frac(2, 3)
    with pytest.raises(ValueError):
        child(Frac(0, 1), "L", 1)
    with pytest.raises(ValueError):
        child(Frac(1, 1), "R", 1)


def test_levels_examples():
    assert level_and_path(Frac(1, 3)).level == 2
    assert level_and_path(Frac(4, 7)).level == 4
    node0 = level_and_path(Frac(0, 1))
    assert node0.level == 0 and node0.path == ()
    assert level_and_path(Frac(1, 2)).level == 1


def test_is_higher_examples():
    assert is_higher(Frac(1, 3), Frac(3, 8))
    assert not is_higher(Frac(1, 3), Frac(4, 7))
    assert not is_higher(Frac(1, 2), Frac(1, 2))
    assert is_higher(Frac(0, 1), Frac(1, 3))
    assert is_higher(Frac(1, 1), Frac(1, 3))
    assert not is_higher(Frac(0, 1), Frac(1, 1))


def test_path_to_real_examples():
    assert path_to_real(GOLDEN, 5) == frs((1, 2), (2, 3), (3, 5), (5, 8), (8, 13))
    assert path_to_real(0.5, 1) == [Frac(1, 2)]
    assert path_to_real(0.0, 3) == frs((1, 2), (1, 3), (1, 4))
    assert path_to_real(1.0, 3) == frs((1, 2), (2, 3), (3, 4))
    # rational target: reach it, then follow the left-children branch
    assert path_to_real(Frac(1, 2), 4) == frs((1, 2), (1, 3), (2, 5), (3, 7))


def test_path_to_real_rejects_non_finite():
    for omega in (math.inf, -math.inf, math.nan, 1.5):
        with pytest.raises(ValueError, match=r"omega must lie in \[0, 1\]"):
            path_to_real(omega, 3)


def test_simplest_in_interval_examples():
    assert simplest_in_interval(0.30, 0.35, 10) == Frac(1, 3)
    assert simplest_in_interval(0.5, 0.5, 10) == Frac(1, 2)
    assert simplest_in_interval(0.40, 0.41, 2) is None
    assert simplest_in_interval(-0.2, 0.1, 64) == Frac(0, 1)
    assert simplest_in_interval(0.95, 1.2, 64) == Frac(1, 1)


def test_enumerate_level_examples():
    assert enumerate_level(0) == frs((0, 1), (1, 1))
    assert enumerate_level(1) == [Frac(1, 2)]
    assert enumerate_level(3) == frs((1, 4), (2, 5), (3, 5), (3, 4))
    for n in range(1, 11):
        assert len(enumerate_level(n)) == 2 ** (n - 1)


def brute_parents(f):
    """All Farey-neighbor pairs whose mediant is f."""
    out = []
    for q1 in range(1, f.q):
        q2 = f.q - q1
        for num in (f.p * q1 - 1, f.p * q1 + 1):
            if num % f.q:
                continue
            p1 = num // f.q
            p2 = f.p - p1
            if 0 <= p1 <= q1 and 0 <= p2 <= q2 and math.gcd(p1, q1) == 1:
                cand = tuple(sorted((Q(p1, q1), Q(p2, q2))))
                if cand not in out:
                    out.append(cand)
    return out


def test_parent_decomposition_exhaustive_level10():
    for n in range(2, 11):
        for f in enumerate_level(n):
            left, right = parents(f)
            assert is_farey_neighbor(left, right)
            assert mediant(left, right) == f
            assert left < f < right
            assert brute_parents(f) == [(Q(left.p, left.q), Q(right.p, right.q))]


def test_levels_consistent_with_children_exhaustive():
    for n in range(1, 10):
        expected = set()
        for f in enumerate_level(n):
            expected.add(child(f, "L", 1))
            expected.add(child(f, "R", 1))
        assert sorted(expected) == enumerate_level(n + 1)


def test_child_sequences_monotone_convergent():
    for f in (Frac(1, 2), Frac(2, 5), Frac(3, 8), Frac(4, 7)):
        ls = [child(f, "L", j) for j in range(1, 12)]
        rs = [child(f, "R", j) for j in range(1, 12)]
        assert all(a < b < f for a, b in zip(ls, ls[1:]))
        assert all(a > b > f for a, b in zip(rs, rs[1:]))
        # children stay Farey neighbors of f, so the gap is exactly 1/(q*q_j)
        assert abs(ls[-1].p * f.q - f.p * ls[-1].q) == 1
        assert all(is_higher(f, c) for c in ls + rs)


def test_is_higher_strict_partial_order():
    fracs = [f for n in range(0, 6) for f in enumerate_level(n)]
    for f in fracs:
        assert not is_higher(f, f)
    for f in fracs:
        for g in fracs:
            if is_higher(f, g):
                assert not is_higher(g, f)
                for h in fracs:
                    if is_higher(g, h):
                        assert is_higher(f, h)


def test_path_converges_and_steps_are_parent_child():
    import random
    rng = random.Random(7)
    for _ in range(25):
        omega = rng.random()
        path = path_to_real(omega, 12)
        # omega stays inside the shrinking bracket around the last vertex
        assert abs(path[-1].value - omega) <= 1.0 / path[-1].q
        for a, b in zip(path, path[1:]):
            assert b in (child(a, "L", 1), child(a, "R", 1))


def brute_simplest(lo, hi, qmax):
    for q in range(1, qmax + 1):
        for p in range(0, q + 1):
            if math.gcd(p, q) == 1 and lo <= p / q <= hi and 0 <= p / q <= 1:
                return Frac(p, q)
    return None


def test_simplest_in_interval_against_brute_force():
    import random
    rng = random.Random(11)
    for _ in range(1000):
        lo = rng.uniform(-0.1, 1.0)
        hi = lo + rng.uniform(0.0, 0.2)
        qmax = rng.randint(1, 40)
        assert simplest_in_interval(lo, hi, qmax) == brute_simplest(lo, hi, qmax)


@given(st.integers(0, 400), st.integers(1, 400), st.integers(0, 400), st.integers(1, 400))
@settings(max_examples=200, deadline=None)
def test_mediant_between_and_neighbor_determinant(p1, q1, p2, q2):
    if p1 > q1 or p2 > q2:
        return
    f1, f2 = Frac(p1, q1), Frac(p2, q2)
    m = mediant(f1, f2)
    lo, hi = min(f1, f2), max(f1, f2)
    assert lo <= m <= hi
    if is_farey_neighbor(f1, f2) and f1 != f2:
        # the Farey sum is already reduced
        assert m.p == f1.p + f2.p and m.q == f1.q + f2.q


@given(st.fractions(min_value=0, max_value=1, max_denominator=200))
@settings(max_examples=200, deadline=None)
def test_level_path_roundtrip(q):
    f = Frac(q.numerator, q.denominator)
    node = level_and_path(f)
    if f.is_endpoint:
        assert node.level == 0
        return
    assert node.level == len(node.path) + 1
    assert mediant(node.left_parent, node.right_parent) == f
    # walk the path from the root and land on f
    cur = Frac(1, 2)
    for move in node.path:
        cur = child(cur, move, 1)
    assert cur == f
