"""Exact two-phase simplex over an ordered field, pivoting over integers.

Constraint data is rational (ints or Fractions); the objective may be a
Q(sqrt(d))-linear functional c + c_sqrt*sqrt(d), given as its two rational
rows.  Since pivoting only ever divides constraint rows by rational pivots,
every visited vertex is rational, and maximizing such a functional over a
rational polyhedron is exact.  Bland's rule guarantees termination.

The tableau is fraction-free (Edmonds 1967, Bareiss 1968).  The whole system
A x = b is first scaled by one positive common denominator, so it is
integral and the pivot sequence is that of the rational tableau.  Rows are
then Python ints over one common denominator D > 0, ``T = D * tableau``,
where D is the last pivot (1 at the start).  A pivot on ``p = T[r][c]``
keeps row r and sets every other row to ``(p*T_i - T_ic*T_r) // D``; the
division is exact, because every entry of T is a minor of the scaled input.
Then D becomes p.  A negative pivot, which only happens when an artificial
is driven out of the basis, negates T and D so that D stays positive.
Each phase keeps its objective as rows of T that the pivot updates: the
reduced costs times D, with minus D times the objective value in the
right-hand column.  A Q(sqrt(d)) objective is carried as two integer
rows, its rational and its sqrt(d) part, and each sign is read off a pair
of ints by ``sign_a_plus_b_sqrt_d``.
"""

from fractions import Fraction
from math import lcm

OPTIMAL = "optimal"
UNBOUNDED = "unbounded"
INFEASIBLE = "infeasible"


class SimplexResult:
    __slots__ = ("status", "x", "value", "farkas")

    def __init__(self, status, x=None, value=None, farkas=None):
        self.status = status
        self.x = x
        self.value = value
        self.farkas = farkas

    def __repr__(self):
        return f"SimplexResult({self.status}, value={self.value})"


def sign_a_plus_b_sqrt_d(a, b, d):
    """Exact sign of a + b*sqrt(d) for rational a, b and square-free d >= 2 (or b = 0)."""
    if b == 0:
        return (a > 0) - (a < 0)
    if a == 0 or (a > 0) == (b > 0):
        return (b > 0) - (b < 0)
    # Opposite signs: compare |a| with |b|sqrt(d) via squares.
    lhs = a * a
    rhs = b * b * d
    s = (lhs > rhs) - (lhs < rhs)
    return s if a > 0 else -s


def _scale_to_ints(rows):
    """Rows of ints and Fractions times one positive common denominator."""
    den = lcm(*{v.denominator for row in rows for v in row})
    return [[v.numerator * (den // v.denominator) for v in row] for row in rows]


def _pivot(rows, r, c, den):
    """Fraction-free pivot on rows[r][c]; returns the new denominator."""
    prow = rows[r]
    p = prow[c]
    if p < 0:
        p = -p
        prow = rows[r] = [-v for v in prow]
    for i, row in enumerate(rows):
        if i == r:
            continue
        f = row[c]
        if f:
            rows[i] = [(p * v - f * w) // den for v, w in zip(row, prow)]
        elif p != den:
            rows[i] = [p * v // den for v in row]
    return p


def _run(rows, m, basis, den, ncols, d):
    """Bland-rule simplex loop.

    ``rows`` holds the m constraint rows, then the objective row, or the
    rational and sqrt(d) objective rows when d > 0; ``ncols`` columns may
    enter.  Returns (status, den).
    """
    while True:
        if d:
            za, zb = rows[m], rows[m + 1]
            enter = next(
                (j for j in range(ncols) if sign_a_plus_b_sqrt_d(za[j], zb[j], d) > 0),
                -1,
            )
        else:
            z = rows[m]
            enter = next((j for j in range(ncols) if z[j] > 0), -1)
        if enter < 0:
            return OPTIMAL, den
        # ratio test T[i][-1] / T[i][enter], compared by cross-multiplication
        leave = -1
        for i in range(m):
            row = rows[i]
            a = row[enter]
            if a > 0:
                if leave < 0:
                    leave = i
                    continue
                lhs = row[-1] * rows[leave][enter]
                rhs = rows[leave][-1] * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                    leave = i
        if leave < 0:
            return UNBOUNDED, den
        den = _pivot(rows, leave, enter, den)
        basis[leave] = enter


def simplex_max(a_rows, b, c, sqrt=None):
    """Maximize c.x subject to a_rows . x == b, x >= 0.

    With ``sqrt = (d, c_sqrt)`` the objective is (c + c_sqrt*sqrt(d)).x, for
    a square-free d >= 2, and the optimal ``value`` is the pair (c.x,
    c_sqrt.x); otherwise it is the Fraction c.x.  Returns a SimplexResult;
    on infeasibility, ``farkas`` is a vector y with y.A <= 0 componentwise
    and y.b > 0 (checked by the caller's tests).  A, b and the objective
    rows are ints or Fractions; the system is scaled by one common
    denominator before the first pivot.
    """
    ab_rows = _scale_to_ints([list(r) + [bi] for r, bi in zip(a_rows, b)])
    m = len(ab_rows)
    n = len(c)
    rows = []
    for i, ab in enumerate(ab_rows):
        if ab[-1] < 0:
            ab = [-v for v in ab]
        row = ab[:-1] + [0] * m + ab[-1:]
        row[n + i] = 1
        rows.append(row)
    basis = [n + i for i in range(m)]
    den = 1

    # Phase 1: maximize minus the sum of the artificials.  Priced out against
    # the all-artificial basis, its row is the column sums with zeros on the
    # artificials, and the sum of |b| (minus the value) on the right.
    phase1 = [sum(col) for col in zip(*rows)] if m else [0] * (n + 1)
    for i in range(m):
        phase1[n + i] = 0
    rows.append(phase1)
    _, den = _run(rows, m, basis, den, n + m, 0)
    phase1 = rows.pop()
    if phase1[-1] > 0:
        # The artificial of row i has reduced cost -1 - y_i for the phase-1
        # duals y, and -y is a Farkas vector of the sign-normalised rows.
        return SimplexResult(
            INFEASIBLE,
            farkas=[
                (-1 if ab_rows[i][-1] < 0 else 1) * Fraction(den + phase1[n + i], den)
                for i in range(m)
            ],
        )

    # The artificial columns are no longer needed.  Pivot artificials out of
    # the basis where possible; redundant rows keep a zero-valued artificial
    # which can never re-enter.
    rows = [row[:n] + row[-1:] for row in rows]
    for i in range(m):
        if basis[i] >= n and rows[i][-1] == 0:
            for j in range(n):
                if rows[i][j] != 0:
                    den = _pivot(rows, i, j, den)
                    basis[i] = j
                    break

    # Phase 2 on the real columns: D*c priced out against the basis.
    d, c_sqrt = sqrt if sqrt is not None else (0, None)
    objs = [c] if c_sqrt is None else [c, c_sqrt]
    for obj in _scale_to_ints(objs):
        z = [den * v for v in obj] + [0]
        for i in range(m):
            cb = obj[basis[i]] if basis[i] < n else 0
            if cb:
                z = [zj - cb * tj for zj, tj in zip(z, rows[i])]
        rows.append(z)
    status, den = _run(rows, m, basis, den, n, d)
    x = [Fraction(0)] * n
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = Fraction(rows[i][-1], den)
    if status == UNBOUNDED:
        return SimplexResult(UNBOUNDED, x=x)
    value = [sum((obj[j] * x[j] for j in range(n)), Fraction(0)) for obj in objs]
    return SimplexResult(OPTIMAL, x=x, value=value[0] if c_sqrt is None else tuple(value))


class LinearSystem:
    """Constraint builder over ``nvars`` variables, some free, some >= 0.

    Free variables are split into positive/negative parts; ``ge`` rows get
    slack columns.  ``maximize`` and ``feasible_point`` map results back to
    the original variables.
    """

    def __init__(self, nvars, nonneg=None):
        self.nvars = nvars
        self.nonneg = list(nonneg) if nonneg is not None else [True] * nvars
        self.rows = []
        self.rhs = []
        self.kinds = []  # "eq" | "ge"

    def eq(self, coeffs, rhs):
        self.rows.append(list(coeffs))
        self.rhs.append(rhs)
        self.kinds.append("eq")

    def ge(self, coeffs, rhs):
        self.rows.append(list(coeffs))
        self.rhs.append(rhs)
        self.kinds.append("ge")

    def _standardize(self):
        """Columns (var, sign) and rows over the split and slack columns.

        Integer input gives int rows; ``simplex_max`` scales rational rows
        by one common denominator.
        """
        cols = []  # (var index, sign)
        for v in range(self.nvars):
            cols.append((v, 1))
            if not self.nonneg[v]:
                cols.append((v, -1))
        width = len(cols) + self.kinds.count("ge")
        amat = []
        si = len(cols)
        for row, kind in zip(self.rows, self.kinds):
            out = [0] * width
            for j, (v, s) in enumerate(cols):
                if row[v]:
                    out[j] = row[v] * s
            if kind == "ge":
                out[si] = -1
                si += 1
            amat.append(out)
        return cols, width, amat

    def maximize(self, obj, sqrt=None):
        """``simplex_max`` of obj (plus sqrt = (d, obj_sqrt)) on the original variables."""
        cols, width, amat = self._standardize()

        def split(row):
            return [row[v] * s for v, s in cols] + [0] * (width - len(cols))

        if sqrt is not None:
            sqrt = (sqrt[0], split(sqrt[1]))
        res = simplex_max(amat, self.rhs, split(obj), sqrt)
        if res.x is not None:
            vals = [Fraction(0)] * self.nvars
            for j, (v, s) in enumerate(cols):
                vals[v] += s * res.x[j]
            res.x = vals
        return res

    def feasible_point(self):
        res = self.maximize([0] * self.nvars)
        if res.status == INFEASIBLE:
            return None
        return res.x
