"""Quadratic-field scalars and the exact simplex."""

from fractions import Fraction

import pytest

from satmon._field import Quad, quad_sign
from satmon import _lp
from satmon._lp import INFEASIBLE, OPTIMAL, UNBOUNDED, LinearSystem, simplex_max


def test_quad_arithmetic():
    a = Quad(1, 1, 2)  # 1 + sqrt(2)
    b = Quad(1, -1, 2)  # 1 - sqrt(2)
    assert a * b == Quad(-1, 0, 2)
    assert a + b == Quad(2, 0, 2)
    assert (a - 1) * (a - 1) == Quad(2, 0, 2)  # sqrt(2)^2 = 2
    inv = a.inverse()
    assert a * inv == Quad(1, 0, 2)


def test_quad_comparisons():
    r2 = Quad(0, 1, 2)
    assert r2 > 1
    assert r2 < Fraction(3, 2)
    assert Quad(Fraction(7, 5), 0, 2) < r2  # 1.4 < sqrt(2)
    assert Quad(Fraction(17, 12), 0, 2) > r2  # 17/12 > sqrt(2)
    assert quad_sign(-1, 1, 2) == 1
    assert quad_sign(1, -1, 2) == -1
    assert quad_sign(2, -1, 2) == 1
    assert quad_sign(0, 0, 2) == 0
    assert quad_sign(-3, 2, 2) < 0  # 2*sqrt(2) = sqrt(8) < 3


def test_quad_mixed_arithmetic():
    assert Quad(1, 1, 2) - Fraction(1, 2) == Quad(Fraction(1, 2), 1, 2)
    assert Fraction(1, 2) + Quad(0, 1, 2) == Quad(Fraction(1, 2), 1, 2)
    assert 2 * Quad(1, 1, 2) == Quad(2, 2, 2)


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
    res = sys.maximize([Quad(1, 0, 2), Quad(0, 1, 2)])
    assert res.status == OPTIMAL
    assert res.value == Quad(0, 1, 2)
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
    res = simplex_max([[1, 1]], [1], [Quad(Fraction(7, 5), 0, 2), Quad(0, 1, 2)])
    assert res.status == OPTIMAL
    assert res.x == [0, 1] and res.value == Quad(0, 1, 2)
    res = simplex_max([[1, 1]], [1], [Quad(Fraction(17, 12), 0, 2), Quad(0, 1, 2)])
    assert res.x == [1, 0] and res.value == Quad(Fraction(17, 12), 0, 2)
    # 2 - sqrt(2) > 1/2, although the sqrt(2) coefficient is negative
    res = simplex_max([[1, 1]], [1], [Fraction(1, 2), Quad(2, -1, 2)])
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
