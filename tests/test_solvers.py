import pytest

from fareyweb.errors import BracketError
from fareyweb.solvers import bisect_bracket, bisect_root, open_bracket


def test_bisect_root_exact_zeros():
    assert bisect_root(lambda x: x - 0.25, 0.25, 1.0) == 0.25  # zero at lo
    assert bisect_root(lambda x: x - 1.0, 0.25, 1.0) == 1.0  # zero at hi
    assert bisect_root(lambda x: x - 0.5, 0.0, 1.0) == 0.5  # zero at the first midpoint


def test_bisect_root_width_and_bracket_errors():
    root = bisect_root(lambda x: x * x - 2.0, 0.0, 2.0, 1e-12)
    assert abs(root - 2.0 ** 0.5) <= 1e-12
    with pytest.raises(BracketError):
        bisect_root(lambda x: x + 1.0, 0.0, 1.0)
    with pytest.raises(BracketError):
        open_bracket(lambda x: x, 1.0, 0.0)


def test_staged_narrowing_ends_on_the_one_shot_bracket():
    f = lambda x: x ** 3 - 0.3  # noqa: E731
    assert open_bracket(f, 0.0, 1.0) == (0.0, 1.0)
    assert open_bracket(lambda x: x - 0.25, 0.25, 1.0) == (0.25, 0.25)
    lo, hi = bisect_bracket(f, 0.0, 1.0, 0.3)
    assert hi - lo <= 0.3 < 2 * (hi - lo) and lo < 0.3 ** (1 / 3) < hi
    one_shot = bisect_bracket(f, 0.0, 1.0, 1e-12)
    for width in (0.5, 0.1, 1e-6, 1e-12):
        lo, hi = bisect_bracket(f, lo, hi, width)
    assert (lo, hi) == one_shot
    assert bisect_bracket(f, 1.0, 1.0 + 2.0 ** -52, 0.0) == (1.0, 1.0 + 2.0 ** -52)  # no float between
