"""Exact signs in Q(sqrt(d)) and the exact simplex."""

from fractions import Fraction

import pytest

from conftest import rng_for
from satmon import _lp
from satmon._lp import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    LinearSystem,
    sign_a_plus_b_sqrt_d,
    simplex_max,
)


def test_quad_comparisons():
    # sqrt(2) > 1, sqrt(2) < 3/2, 7/5 < sqrt(2) < 17/12
    assert sign_a_plus_b_sqrt_d(-1, 1, 2) == 1
    assert sign_a_plus_b_sqrt_d(Fraction(-3, 2), 1, 2) == -1
    assert sign_a_plus_b_sqrt_d(Fraction(7, 5), -1, 2) == -1
    assert sign_a_plus_b_sqrt_d(Fraction(17, 12), -1, 2) == 1
    assert sign_a_plus_b_sqrt_d(1, -1, 2) == -1
    assert sign_a_plus_b_sqrt_d(2, -1, 2) == 1
    assert sign_a_plus_b_sqrt_d(0, 0, 2) == 0
    assert sign_a_plus_b_sqrt_d(-3, 2, 2) < 0  # 2*sqrt(2) = sqrt(8) < 3


def _isqrt_floor(n):
    """Largest integer r with r*r <= n, by bisection (n >= 0)."""
    lo, hi = 0, n + 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if mid * mid <= n:
            lo = mid
        else:
            hi = mid
    return lo


def _oracle_sign(a, b, d):
    """Sign of a + b*sqrt(d) by locating b*sqrt(d) between integers.

    With a = p/q and b = r/s over positive denominators, the sign is that of
    p*s + r*q*sqrt(d).  Bracket r*q*sqrt(d) = +-sqrt(r^2 q^2 d) between
    consecutive integers; it is irrational unless it is zero, because d is
    square-free and >= 2, so the bracket decides unless p*s hits it exactly.
    """
    p, q = a.numerator, a.denominator
    r, s = b.numerator, b.denominator
    lhs = p * s
    n = r * r * q * q * d
    root = _isqrt_floor(n)
    if root * root == n:  # only when r == 0
        t = lhs + (root if r > 0 else -root)
        return (t > 0) - (t < 0)
    # r*q*sqrt(d) lies strictly between +-root and +-(root + 1)
    lo, hi = (root, root + 1) if r > 0 else (-root - 1, -root)
    if lhs + lo >= 0:
        return 1
    if lhs + hi <= 0:
        return -1
    # -lhs lies strictly inside the bracket: compare squares
    if r > 0:
        return 1 if n > lhs * lhs else -1
    return -1 if n > lhs * lhs else 1


def test_sign_differential_against_bracketing_oracle():
    rng = rng_for("sign-fuzz")
    zeros = 0
    for d in (2, 3, 5, 6, 7):
        cases = []
        for trial in range(400):
            if trial % 10 == 0:
                a, b = Fraction(0), Fraction(rng.randint(-3, 3), rng.randint(1, 4))
            elif trial % 10 == 1:
                a, b = Fraction(rng.randint(-9, 9), rng.randint(1, 9)), Fraction(0)
            else:
                a = Fraction(rng.randint(-60, 60), rng.randint(1, 40))
                b = Fraction(rng.randint(-30, 30), rng.randint(1, 40))
            cases.append((a, b))
        # the rationals p/q next to sqrt(d) on either side, q < 40
        for q in range(1, 40):
            p = _isqrt_floor(d * q * q)
            for a in (Fraction(p, q), Fraction(p + 1, q)):
                cases += [(-a, Fraction(1)), (a, Fraction(-1))]
        for a, b in cases:
            zeros += a == 0 and b == 0
            assert sign_a_plus_b_sqrt_d(a, b, d) == _oracle_sign(a, b, d), (a, b, d)
    assert zeros > 0


def test_simplex_basic_optimum():
    # max x + y  s.t.  x + 2y + s = 4, x, y, s >= 0  ->  optimum 4 at (4, 0)
    res = simplex_max([[1, 2, 1]], [4], [1, 1, 0])
    assert res.status == OPTIMAL
    assert res.value == 4


def test_simplex_unbounded():
    res = simplex_max([[1, -1]], [0], [1, 0])
    assert res.status == UNBOUNDED


def test_simplex_infeasible_with_farkas():
    # x + y = -1 with x, y >= 0 is infeasible
    a = [[1, 1]]
    b = [-1]
    res = simplex_max(a, b, [0, 0])
    assert res.status == INFEASIBLE
    y = res.farkas
    # y.A <= 0 componentwise and y.b > 0
    for j in range(2):
        assert sum(y[i] * a[i][j] for i in range(1)) <= 0
    assert sum(y[i] * b[i] for i in range(1)) > 0


def test_linear_system_free_vars():
    sys = LinearSystem(2, nonneg=[False, True])
    sys.eq([1, 1], 0)
    sys.ge([0, 1], 2)
    pt = sys.feasible_point()
    assert pt is not None
    assert pt[0] + pt[1] == 0 and pt[1] >= 2


def test_linear_system_quad_objective():
    # max x + sqrt(2)*y on the segment x + y = 1, x, y >= 0 -> sqrt(2) at (0,1)
    sys = LinearSystem(2, nonneg=[True, True])
    sys.eq([1, 1], 1)
    res = sys.maximize([1, 0], sqrt=(2, [0, 1]))
    assert res.status == OPTIMAL
    assert res.value == (0, 1)
    assert res.x == [0, 1]


def test_linear_system_infeasible():
    sys = LinearSystem(1, nonneg=[True])
    sys.eq([1], -3)
    assert sys.feasible_point() is None


# ---------------------------------------------------------------------------
# kernel edge cases of the fraction-free tableau


def test_simplex_rational_rows():
    # x/2 + y/3 = 1 and 2x/3 + s = 1/5: the system is scaled by one common
    # denominator, and the vertices stay non-integral.
    a = [[Fraction(1, 2), Fraction(1, 3), 0], [Fraction(2, 3), 0, 1]]
    b = [1, Fraction(1, 5)]
    res = simplex_max(a, b, [1, 1, 0])
    assert res.status == OPTIMAL
    assert res.value == 3 and res.x == [0, 3, Fraction(1, 5)]
    res = simplex_max(a, b, [1, 0, 0])
    assert res.status == OPTIMAL
    assert res.x == [Fraction(3, 10), Fraction(51, 20), 0]
    assert res.value == Fraction(3, 10)
    res = simplex_max(a, [1, Fraction(-1, 7)], [0, 0, 0])
    assert res.status == INFEASIBLE
    y = res.farkas
    assert all(y[0] * a[0][j] + y[1] * a[1][j] <= 0 for j in range(3))
    assert y[0] * 1 + y[1] * Fraction(-1, 7) > 0


def test_simplex_quad_objective_decided_by_sqrt_part():
    # on x + y = 1 the rational parts prefer x, the sqrt(2) part decides
    res = simplex_max([[1, 1]], [1], [Fraction(7, 5), 0], sqrt=(2, [0, 1]))
    assert res.status == OPTIMAL
    assert res.x == [0, 1] and res.value == (0, 1)
    res = simplex_max([[1, 1]], [1], [Fraction(17, 12), 0], sqrt=(2, [0, 1]))
    assert res.x == [1, 0] and res.value == (Fraction(17, 12), 0)
    # 2 - sqrt(2) > 1/2, although the sqrt(2) coefficient is negative
    res = simplex_max([[1, 1]], [1], [Fraction(1, 2), 2], sqrt=(2, [0, -1]))
    assert res.x == [0, 1]


def test_simplex_redundant_rows_negative_pivot(monkeypatch):
    # After phase 1 the artificial of row 1 is basic at zero with a -1 in
    # its row, so it leaves through a negative pivot; row 2 = row 0 + row 1
    # keeps its artificial.
    pivots = []
    real_pivot = _lp._pivot

    def spy(rows, r, c, den):
        pivots.append(rows[r][c])
        return real_pivot(rows, r, c, den)

    monkeypatch.setattr(_lp, "_pivot", spy)
    a = [[1, 0], [1, -1], [2, -1]]
    res = simplex_max(a, [1, 1, 2], [1, 1])
    assert res.status == OPTIMAL
    assert res.x == [1, 0] and res.value == 1
    assert any(p < 0 for p in pivots)
    res = simplex_max(a, [1, 1, 3], [1, 1])
    assert res.status == INFEASIBLE
    y = res.farkas
    assert all(sum(y[i] * a[i][j] for i in range(3)) <= 0 for j in range(2))
    assert y[0] * 1 + y[1] * 1 + y[2] * 3 > 0


def test_simplex_beale_cycling_example_terminates():
    # A textbook form of Beale's (1955) example, which cycles under the
    # largest-coefficient rule: max 3/4 x4 - 20 x5 + 1/2 x6 - 6 x7 with the
    # slacks x1, x2, x3 last.  Optimum 5/4 at x4 = x6 = 1.
    a = [
        [Fraction(1, 4), -8, -1, 9, 1, 0, 0],
        [Fraction(1, 2), -12, Fraction(-1, 2), 3, 0, 1, 0],
        [0, 0, 1, 0, 0, 0, 1],
    ]
    c = [Fraction(3, 4), -20, Fraction(1, 2), -6, 0, 0, 0]
    res = simplex_max(a, [0, 0, 1], c)
    assert res.status == OPTIMAL
    assert res.value == Fraction(5, 4)
    assert res.x == [1, 0, 1, 0, Fraction(3, 4), 0, 0]
