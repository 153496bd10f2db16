"""Exact linear algebra: normal forms, Hilbert bases, feasibility, overlattices."""

import itertools
import math
import random
import sys

import pytest

from conftest import brute_nonneg_solve, minors_gcd_invariants, random_fp_monoid, rng_for
from satmon import kernels, zlat
from satmon.errors import CoprimalityError, ResourceLimitError
from satmon.monoid import AffineMonoid, from_presentation, monoid_from_vectors
from satmon.sigma import PrimeSet
from satmon.zlat import (
    FgAbelianGroup,
    Lattice,
    cokernel,
    enumerate_overlattices,
    kernel_basis,
    nonneg_kernel_generators,
    primitive,
    quotient_by_columns,
    solve_integer,
    solve_nonneg,
    vdot,
    vneg,
    vsub,
)


# ---------------------------------------------------------------------------
# Smith normal form


def _mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def _snf(rows):
    """Smith form from the kernel, with U * A * V = D checked here."""
    U, D, V = kernels.snf_with_transforms(rows)
    assert _mul(_mul(U, rows), V) == D
    return U, D, V


def test_snf_diag_2_3():
    # Row/column reduction turns diag(2,3) into diag(1,6).
    assert _snf([[2, 0], [0, 3]])[1] == [[1, 0], [0, 6]]


def test_snf_identity():
    assert _snf([[1, 0], [0, 1]])[1] == [[1, 0], [0, 1]]


def test_snf_rank_one():
    # rank-1 matrix with entry gcd 2
    assert _snf([[2, 4], [4, 8]])[1] == [[2, 0], [0, 0]]


def test_snf_random_against_minors_oracle():
    rng = rng_for("snf")
    for _ in range(200):
        r = rng.randint(1, 4)
        c = rng.randint(1, 4)
        rows = [[rng.randint(-6, 6) for _ in range(c)] for _ in range(r)]
        U, D, V = _snf(rows)
        assert all(D[i][j] == 0 for i in range(r) for j in range(c) if i != j)
        inv = [D[i][i] for i in range(min(r, c)) if D[i][i] != 0]
        assert inv == minors_gcd_invariants(rows)
        for i in range(1, len(inv)):
            assert inv[i] % inv[i - 1] == 0
        # transforms are unimodular
        assert abs(_det(U)) == 1
        assert abs(_det(V)) == 1


def _det(mat):
    n = len(mat)
    if n == 1:
        return mat[0][0]
    out = 0
    for j in range(n):
        rest = [row[:j] + row[j + 1:] for row in mat[1:]]
        out += (-1) ** j * mat[0][j] * _det(rest)
    return out


def _reference_snf_with_transforms(a):
    """The four-transform Smith kernel that the two-transform one replaced.

    Kept verbatim, with ``identity_matrix`` read from ``kernels``.  Smith normal form with all four transforms.

    Returns (U, Uinv, D, V, Vinv) with U*A*V = D, U, V unimodular and the
    diagonal of D nonnegative with d1 | d2 | ...  Deterministic: pivots are
    chosen as the smallest |entry| with ties by position.
    """
    r = len(a)
    c = len(a[0]) if r else 0
    D = [list(row) for row in a]
    U = kernels.identity_matrix(r)
    Uinv = kernels.identity_matrix(r)
    V = kernels.identity_matrix(c)
    Vinv = kernels.identity_matrix(c)

    def row_swap(i, k):
        D[i], D[k] = D[k], D[i]
        U[i], U[k] = U[k], U[i]
        for t in range(r):
            Uinv[t][i], Uinv[t][k] = Uinv[t][k], Uinv[t][i]

    def row_negate(i):
        D[i] = [-x for x in D[i]]
        U[i] = [-x for x in U[i]]
        for t in range(r):
            Uinv[t][i] = -Uinv[t][i]

    def row_add(i, k, q):
        # row_i += q * row_k
        D[i] = [x + q * y for x, y in zip(D[i], D[k])]
        U[i] = [x + q * y for x, y in zip(U[i], U[k])]
        for t in range(r):
            Uinv[t][k] -= q * Uinv[t][i]

    def col_swap(j, k):
        for t in range(r):
            D[t][j], D[t][k] = D[t][k], D[t][j]
        for t in range(c):
            V[t][j], V[t][k] = V[t][k], V[t][j]
        Vinv[j], Vinv[k] = Vinv[k], Vinv[j]

    def col_add(j, k, q):
        # col_j += q * col_k
        for t in range(r):
            D[t][j] += q * D[t][k]
        for t in range(c):
            V[t][j] += q * V[t][k]
        Vinv[k] = [x - q * y for x, y in zip(Vinv[k], Vinv[j])]

    s = 0
    while s < r and s < c:
        # locate smallest nonzero |entry| in the trailing block
        pi = -1
        pj = -1
        best = 0
        for i in range(s, r):
            for j in range(s, c):
                e = D[i][j]
                if e != 0:
                    e = -e if e < 0 else e
                    if pi < 0 or e < best:
                        pi, pj, best = i, j, e
        if pi < 0:
            break
        if pi != s:
            row_swap(s, pi)
        if pj != s:
            col_swap(s, pj)
        if D[s][s] < 0:
            row_negate(s)

        clean = True
        for i in range(s + 1, r):
            if D[i][s] != 0:
                q = D[i][s] // D[s][s]
                if q:
                    row_add(i, s, -q)
                if D[i][s] != 0:
                    clean = False
        for j in range(s + 1, c):
            if D[s][j] != 0:
                q = D[s][j] // D[s][s]
                if q:
                    col_add(j, s, -q)
                if D[s][j] != 0:
                    clean = False
        if not clean:
            continue

        # enforce divisibility of the remaining block by D[s][s]
        bad = False
        for i in range(s + 1, r):
            for j in range(s + 1, c):
                if D[i][j] % D[s][s] != 0:
                    row_add(s, i, 1)
                    bad = True
                    break
            if bad:
                break
        if bad:
            continue
        s += 1

    return U, Uinv, D, V, Vinv


def _random_snf_input(rng):
    """A random r x c matrix, 1 <= r, c <= 5; some rows repeat combinations."""
    r = rng.randint(1, 5)
    c = rng.randint(1, 5)
    span = rng.choice([3, 9, 40])
    rows = [[rng.randint(-span, span) for _ in range(c)] for _ in range(r)]
    for i in range(1, r):
        if rng.random() < 0.3:
            a, b = rng.randint(-3, 3), rng.randint(-3, 3)
            rows[i] = [a * x + b * y for x, y in zip(rows[i - 1], rows[0])]
    return rows


def test_snf_kernel_matches_four_transform_reference():
    rng = rng_for("snf-two-transforms")
    saturations = 0
    for _ in range(400):
        rows = _random_snf_input(rng)
        r, c = len(rows), len(rows[0])
        U0, Uinv0, D0, V0, _ = _reference_snf_with_transforms(rows)
        assert kernels.snf_with_transforms(rows) == (U0, D0, V0), rows
        assert kernels.snf_with_transforms(rows, return_u_inverse=True) == (U0, D0, V0, Uinv0)
        # the columns of A as relations on Z^r: the presentation lifts with
        # the columns of U^-1 that the reference maintained
        pres = quotient_by_columns(r, [[row[j] for row in rows] for j in range(c)])
        rank = sum(1 for i in range(min(r, c)) if D0[i][i] != 0)
        order = list(range(rank, r)) + [i for i in range(rank) if D0[i][i] >= 2]
        assert pres.project_rows == tuple(tuple(U0[i]) for i in order)
        assert pres.lift_cols == tuple(tuple(Uinv0[t][i] for i in order) for t in range(r))
        # saturation read the first rank rows of V^-1 of the HNF basis
        lat = Lattice(rows, c)
        if lat.basis:
            _, _, Db, _, Vinvb = _reference_snf_with_transforms([list(b) for b in lat.basis])
            rb = sum(1 for i in range(min(lat.rank, c)) if Db[i][i] != 0)
            assert lat.saturation() == Lattice([tuple(Vinvb[i]) for i in range(rb)], c)
            saturations += any(Db[i][i] > 1 for i in range(rb))
    assert saturations >= 50


# ---------------------------------------------------------------------------
# cokernels and presented groups


def test_cokernel_examples():
    g, _ = cokernel([[2]])
    assert (g.rank, g.torsion) == (0, (2,))
    g, _ = cokernel([[1, 0], [0, 2]])
    assert (g.rank, g.torsion) == (0, (2,))
    g, _ = cokernel([[2], [-2]])  # the column (2, -2) in Z^2
    assert (g.rank, g.torsion) == (1, (2,))


def test_quotient_presentation_roundtrip():
    rng = rng_for("quotient")
    for _ in range(50):
        n = rng.randint(1, 4)
        ncols = rng.randint(0, 3)
        cols = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(ncols)]
        pres = quotient_by_columns(n, cols)
        g = pres.group
        # project kills exactly the column span
        for c in cols:
            assert g.is_zero(pres.project(c))
        # lift is a section modulo the relations
        for _ in range(5):
            x = [rng.randint(-3, 3) for _ in range(n)]
            gx = pres.project(x)
            assert pres.project(pres.lift(gx)) == gx


def test_group_arithmetic():
    g = FgAbelianGroup(1, (2, 4))
    a = g.reduce((5, 3, 9))
    assert a == (5, 1, 1)
    assert g.add(a, a) == (10, 0, 2)
    assert g.element_order((0, 1, 0)) == 2
    assert g.element_order((0, 1, 1)) == 4
    assert g.element_order((1, 0, 0)) is None
    assert len(g.torsion_elements()) == 8
    with pytest.raises(ValueError):
        FgAbelianGroup(0, (3, 2))  # no divisibility chain


# ---------------------------------------------------------------------------
# integer solving and lattices


def test_solve_integer_and_kernel():
    rng = rng_for("ik")
    for _ in range(100):
        r = rng.randint(1, 3)
        c = rng.randint(1, 4)
        rows = [[rng.randint(-4, 4) for _ in range(c)] for _ in range(r)]
        x = [rng.randint(-3, 3) for _ in range(c)]
        b = [sum(rows[i][j] * x[j] for j in range(c)) for i in range(r)]
        sol = solve_integer(rows, b)
        assert sol is not None
        assert all(
            sum(rows[i][j] * sol[j] for j in range(c)) == b[i] for i in range(r)
        )
        for k in kernel_basis(rows):
            assert all(
                sum(rows[i][j] * k[j] for j in range(c)) == 0 for i in range(r)
            )


def test_lattice_membership_and_saturation():
    lat = Lattice([(2, 0), (0, 2)], 2)
    assert lat.contains((4, 2))
    assert not lat.contains((1, 0))
    sat = Lattice([(2, 4)], 2).saturation()
    assert sat.contains((1, 2))
    assert not sat.contains((1, 1))


# ---------------------------------------------------------------------------
# nonnegative feasibility


def test_solve_nonneg_spec_examples():
    res = solve_nonneg([[2, 3]], [7])
    assert res.is_sat and res.witness == (2, 1)  # 2*2 + 3*1 = 7
    res = solve_nonneg([[2, 3]], [1])
    assert not res.is_sat
    res = solve_nonneg([[1, 1], [0, 2]], [1, 1])  # parity obstruction
    assert not res.is_sat
    assert res.certificate["kind"] == "no-integer-solution"


def test_solve_nonneg_against_brute_force():
    rng = rng_for("nonneg")
    for _ in range(120):
        r = rng.randint(1, 2)
        c = rng.randint(1, 3)
        rows = [[rng.randint(-3, 3) for _ in range(c)] for _ in range(r)]
        b = [rng.randint(-4, 6) for _ in range(r)]
        with zlat.node_budget(20000):
            got = solve_nonneg(rows, b)
        brute = brute_nonneg_solve(rows, b, bound=8)
        if got.is_sat:
            x = got.witness
            assert all(
                sum(rows[i][j] * x[j] for j in range(c)) == b[i] for i in range(r)
            )
            assert all(v >= 0 for v in x)
        else:
            assert brute is None


def test_solve_nonneg_budget_error():
    # a zero budget trips on the first branch-and-bound node; the limit is an
    # explicit error, not an UNSAT verdict
    with zlat.node_budget(0):
        with pytest.raises(ResourceLimitError) as err:
            solve_nonneg([[2, -2]], [2])
        assert err.value.limit == 0
        # an inner block sets its own budget and restores the outer one
        with zlat.node_budget(5):
            assert solve_nonneg([[2, -2]], [2]).is_sat
        with pytest.raises(ResourceLimitError):
            solve_nonneg([[2, -2]], [2])
    assert solve_nonneg([[2, -2]], [2]).is_sat


def test_solve_nonneg_branch_bounds_do_not_stack(monkeypatch):
    # The slack pair d, -d of a torsion coordinate is a ray of the LP that
    # branch-and-bound cannot exhaust, so this non-member runs into its node
    # budget.  Each branch bound replaces the earlier one on the same
    # parameter and side, so a node's LP keeps at most cols + 2*dim rows.
    sizes = []

    class Spy(zlat.LinearSystem):
        def maximize(self, obj):
            sizes.append(len(self.rows))
            return super().maximize(obj)

    monkeypatch.setattr(zlat, "LinearSystem", Spy)
    amb = FgAbelianGroup(1, (2, 2))
    m = AffineMonoid(amb, [(0, 1, 1), (2, 0, 0), (2, 1, 0)])
    rows, _ = zlat.group_equations([(amb, m.gens, amb.zero())], nonneg=True)
    cols, dim = len(rows[0]), len(kernel_basis(rows))
    with pytest.raises(ResourceLimitError):
        with zlat.node_budget(300):
            m.membership((0, 0, 1))
    assert len(sizes) == 300
    assert max(sizes) <= cols + 2 * dim


# ---------------------------------------------------------------------------
# equations in f.g. abelian groups


def test_group_equations_slack_columns():
    g = FgAbelianGroup(1, (2, 4))
    h = FgAbelianGroup(0, (3,))
    # main columns (x1, x2); the -1 in the Z/4 coordinate is kept unreduced
    blocks = [(g, [(1, 1, 3), (2, 0, -1)], (9, 1, 2)), (h, [(1,), (2,)], (0,))]
    rows, rhs = zlat.group_equations(blocks)
    assert rows == [
        [1, 2, 0, 0, 0],
        [1, 0, 2, 0, 0],
        [3, -1, 0, 4, 0],
        [1, 2, 0, 0, 3],
    ]
    assert rhs == [9, 1, 2, 0]
    x = solve_integer(rows, rhs)
    assert g.reduce((x[0] + 2 * x[1], x[0], 3 * x[0] - x[1])) == (9, 1, 2)
    assert h.is_zero((x[0] + 2 * x[1],))
    rows, rhs = zlat.group_equations(blocks, nonneg=True)
    assert rows == [
        [1, 2, 0, 0, 0, 0, 0, 0],
        [1, 0, 2, -2, 0, 0, 0, 0],
        [3, -1, 0, 0, 4, -4, 0, 0],
        [1, 2, 0, 0, 0, 0, 3, -3],
    ]
    assert rhs == [9, 1, 2, 0]
    # x2 = 3 mod 4 and x1 = 9 - 2 x2 >= 0 leave (3, 3) as the only witness
    assert solve_nonneg(rows, rhs).witness[:2] == (3, 3)


# ---------------------------------------------------------------------------
# Hilbert bases, through AffineMonoid.saturate


def _saturation_gens(gens):
    return monoid_from_vectors(gens).saturate().gens


def test_hilbert_basis_spec_examples():
    # saturation of <(1,0),(1,2)> in the full lattice Z^2 gains (1,1)
    assert _saturation_gens([(1, 0), (1, 2)]) == ((1, 0), (1, 1), (1, 2))
    # in the generated lattice (second coordinate even) it is already saturated
    m, _ = monoid_from_vectors([(1, 0), (1, 2)]).intrinsic()
    assert sorted(m.saturate().gens) == sorted(m.gens)
    assert _saturation_gens([(2,), (3,)]) == ((1,),)
    assert _saturation_gens([(1, 0), (0, 1)]) == ((0, 1), (1, 0))


def test_hilbert_basis_units():
    # the unit (1,0) appears with its negative
    assert _saturation_gens([(1, 0), (-1, 0), (0, 1)]) == ((-1, 0), (0, 1), (1, 0))


def _assert_saturation_properties(amb, gens):
    # Saturating in Z^r + T gives (saturation of the free parts) + T: n*x in P
    # for x = (f, t) as soon as n f is a sum of free parts and the exponent
    # of T divides n.  The free-part checks are the Hilbert basis properties.
    dim = amb.rank
    m = AffineMonoid(amb, gens)
    sat = m.saturate()
    free = sorted({amb.free_part(g) for g in gens if any(amb.free_part(g))})
    free_sat = AffineMonoid(FgAbelianGroup(dim), free).saturate().gens
    torsion = [
        (0,) * dim + tuple(int(t == j) for t in range(len(amb.torsion)))
        for j in range(len(amb.torsion))
    ]
    pad = (0,) * len(amb.torsion)
    assert set(sat.gens) == {h + pad for h in free_sat} | set(torsion)
    # every input generator is an N-combination of the output
    with zlat.node_budget(50000):
        for g in gens:
            assert sat.contains(g)
    # every output element has a multiple inside the input monoid
    rows = [[g[i] for g in free] for i in range(dim)]
    for h in free_sat:
        with zlat.node_budget(50000):
            n = next(
                (n for n in range(1, 25)
                 if solve_nonneg(rows, [n * x for x in h]).is_sat),
                None,
            )
        assert n is not None, (gens, h)
        assert m.contains(amb.scale(n * amb.exponent_of_torsion(), h + pad))
    # minimality of the sharp part (removal test); units come with -u
    for h in free_sat:
        if vneg(h) in free_sat:
            continue
        rest = [x for x in free_sat if x != h]
        if not rest:
            continue
        rows_rest = [[x[i] for x in rest] for i in range(dim)]
        with zlat.node_budget(50000):
            assert not solve_nonneg(rows_rest, list(h)).is_sat
    return free_sat


def test_hilbert_basis_properties_random():
    rng = rng_for("hilbert")
    for _ in range(60):
        amb = FgAbelianGroup(rng.randint(1, 3), rng.choice([(), (2,), (3,), (2, 4)]))
        gens = []
        for _ in range(rng.randint(1, 4)):
            v = amb.reduce(tuple(rng.randint(-2, 3) for _ in range(amb.dim)))
            if not amb.is_zero(v) and v not in gens:
                gens.append(v)
        if not gens:
            continue
        _assert_saturation_properties(amb, gens)


def _unit(dim, i):
    return tuple(int(j == i) for j in range(dim))


def test_hilbert_basis_of_cones_of_dimension_9_and_10():
    # N^9: one unimodular simplex
    units = [_unit(9, i) for i in range(9)]
    assert _assert_saturation_properties(FgAbelianGroup(9), units) == tuple(sorted(units))
    # a simplex with |det| 3 in Z^9
    gens = units[:8] + [(1,) * 8 + (3,)]
    free_sat = _assert_saturation_properties(FgAbelianGroup(9), gens)
    assert len(free_sat) > len(gens)
    # not simplicial: e1 + g2 = e2 + g1 in Z^10, both g of last coordinate 2
    units = [_unit(10, i) for i in range(9)]
    g1 = (1,) + (0,) * 8 + (2,)
    g2 = (0, 1) + (0,) * 7 + (2,)
    free_sat = _assert_saturation_properties(FgAbelianGroup(10), units + [g1, g2])
    assert (1,) + (0,) * 8 + (1,) in free_sat


# ---------------------------------------------------------------------------
# the cone kernels that double description and parallelepipeds replaced,
# kept verbatim as oracles


_REFERENCE_MAX_SCAN_POINTS = 4_000_000


def _reference_extreme_rays(hrep_rows, dim):
    """Extreme rays of the pointed cone {x in Q^dim : row . x >= 0}.

    Brute-force over (dim-1)-subsets of rows; exact and adequate at desk
    scale.  The cone must be pointed (no nonzero lineality).
    """
    rows = [tuple(r) for r in hrep_rows]
    found = set()
    if dim == 0:
        return []
    if dim == 1:
        for cand in ((1,), (-1,)):
            if all(vdot(r, cand) >= 0 for r in rows):
                found.add(cand)
        return sorted(found)
    for subset in itertools.combinations(range(len(rows)), dim - 1):
        ker = kernel_basis([list(rows[i]) for i in subset])
        if len(ker) != 1:
            continue
        w = primitive(ker[0])
        for cand in (w, vneg(w)):
            if all(vdot(r, cand) >= 0 for r in rows):
                found.add(cand)
    return sorted(found)


def _reference_scan_box_points(lows, highs, ineq_rows):
    """Integer points x with lows <= x <= highs and row.x >= 0 for each row.

    Returns a lexicographically sorted list of tuples.  This is the inner
    loop of the zonotope-bounded Hilbert basis computation.
    """
    n = len(lows)
    if n == 0:
        return [()]
    out = []
    x = list(lows)
    m = len(ineq_rows)
    while True:
        ok = True
        for t in range(m):
            row = ineq_rows[t]
            s = 0
            for i in range(n):
                if row[i]:
                    s += row[i] * x[i]
            if s < 0:
                ok = False
                break
        if ok:
            out.append(tuple(x))
        k = n - 1
        while k >= 0:
            if x[k] < highs[k]:
                x[k] += 1
                break
            x[k] = lows[k]
            k -= 1
        if k < 0:
            break
    return out


def _reference_grading(hrep_rows, dim):
    if not hrep_rows:
        return (0,) * dim
    return tuple(sum(r[i] for r in hrep_rows) for i in range(dim))


def _reference_box_hilbert(rays, hrep_rows, dim):
    """Hilbert basis of {x : hrep . x >= 0} cap Z^dim for a pointed cone.

    ``rays`` must be primitive integer generators of the cone.  Candidates
    are scanned from the zonotope bounding box of the rays: every
    irreducible element is a sub-sum of the rays with coefficients in [0,1].
    """
    if not rays:
        return []
    lo = [sum(min(0, r[i]) for r in rays) for i in range(dim)]
    hi = [sum(max(0, r[i]) for r in rays) for i in range(dim)]
    npts = 1
    for a, b in zip(lo, hi):
        npts *= b - a + 1
        if npts > _REFERENCE_MAX_SCAN_POINTS:
            raise ResourceLimitError(
                f"zonotope scan would visit more than {_REFERENCE_MAX_SCAN_POINTS} points",
                _REFERENCE_MAX_SCAN_POINTS,
            )
    pts = _reference_scan_box_points(lo, hi, [list(r) for r in hrep_rows])
    phi = _reference_grading(hrep_rows, dim)
    pts = [p for p in pts if any(p)]
    pts.sort(key=lambda p: (vdot(phi, p), p))
    basis = []
    for p in pts:
        reducible = False
        for h in basis:
            q = vsub(p, h)
            if all(vdot(r, q) >= 0 for r in hrep_rows):
                reducible = True
                break
        if not reducible:
            basis.append(p)
    return sorted(basis)


def _reference_hilbert_from_hrep(hrep_rows, dim):
    """``zlat.hilbert_from_hrep`` as it was, on the two reference kernels."""
    rows = [tuple(r) for r in hrep_rows]
    lin = kernel_basis([list(r) for r in rows]) if rows else [
        tuple(1 if i == j else 0 for i in range(dim)) for j in range(dim)
    ]
    if not rows:
        return [], [tuple(b) for b in lin]
    if lin:
        pres = quotient_by_columns(dim, [list(b) for b in lin])
        assert not pres.group.torsion
        qdim = pres.group.rank
        lift_rows = [list(r) for r in pres.lift_cols]  # dim x qdim
        img_rows = []
        for r in rows:
            img_rows.append(
                tuple(sum(r[t] * lift_rows[t][j] for t in range(dim)) for j in range(qdim))
            )
        img_rows = [r for r in img_rows if any(r)]
        rays = _reference_extreme_rays(img_rows, qdim)
        sharp_q = _reference_box_hilbert(rays, img_rows, qdim)
        sharp = [tuple(kernels.mat_vec(lift_rows, list(h))) for h in sharp_q]
        return sorted(sharp), [tuple(b) for b in lin]
    rays = _reference_extreme_rays(rows, dim)
    return _reference_box_hilbert(rays, rows, dim), []


def test_hilbert_dimension_guard():
    # The cap is on work, not on dimension (N^9 is answered, above): the one
    # simplex of cone((1, 0), (1, n)) has |det| n, so n parallelepiped points.
    n = zlat.CONE_WORK_LIMIT + 1
    with pytest.raises(ResourceLimitError, match="CONE_WORK_LIMIT") as err:
        monoid_from_vectors([(1, 0), (1, n)]).saturate()
    assert err.value.limit == zlat.CONE_WORK_LIMIT


def _random_rows(rng, dim, fewest):
    rows = [tuple(rng.randint(-2, 2) for _ in range(dim)) for _ in range(rng.randint(fewest, dim + 3))]
    if rng.random() < 0.3:
        rows.append(vneg(rows[0]))  # an implicit equation: a lower-dimensional cone
    return rows


def test_extreme_rays_match_reference_on_random_pointed_cones():
    rng = rng_for("dd-rays")
    compared = 0
    for _ in range(400):
        dim = rng.randint(1, 5)
        rows = _random_rows(rng, dim, dim)
        if kernel_basis(rows):
            continue  # not pointed
        assert zlat.extreme_rays(rows, dim) == _reference_extreme_rays(rows, dim), rows
        compared += 1
    assert compared >= 250


def test_hilbert_from_hrep_matches_reference_on_random_cones(monkeypatch):
    # pointed, lower-dimensional and with lineality; cones whose reference
    # scan would pass 20,000 box points are left out to keep the oracle fast
    monkeypatch.setattr(sys.modules[__name__], "_REFERENCE_MAX_SCAN_POINTS", 20_000)
    rng = rng_for("dd-hilbert")
    compared = lineality = 0
    for _ in range(300):
        dim = rng.randint(1, 5)
        rows = _random_rows(rng, dim, 1)
        try:
            want = _reference_hilbert_from_hrep(rows, dim)
        except ResourceLimitError:
            continue
        assert zlat.hilbert_from_hrep(rows, dim) == want, rows
        compared += 1
        lineality += bool(want[1])
    assert compared >= 200 and lineality >= 20


def _saturations_against_reference(monkeypatch, make_monoids):
    new = [m.saturate().gens for m in make_monoids()]
    with monkeypatch.context() as mp:
        mp.setattr(zlat, "facet_normals", _reference_extreme_rays)
        mp.setattr(zlat, "hilbert_from_hrep", _reference_hilbert_from_hrep)
        old = [m.saturate().gens for m in make_monoids()]
    assert new == old


def test_saturate_matches_reference_on_torsion_ambients(monkeypatch):
    def monoids():
        rng = rng_for("dd-torsion")
        out = []
        for _ in range(150):
            amb = FgAbelianGroup(rng.randint(1, 4), rng.choice([(), (2,), (3,), (2, 4)]))
            gens = {amb.reduce(tuple(rng.randint(-2, 2) for _ in range(amb.dim)))
                    for _ in range(rng.randint(1, 5))}
            out.append(AffineMonoid(amb, sorted(g for g in gens if not amb.is_zero(g))))
        return out

    _saturations_against_reference(monkeypatch, monoids)


def test_saturate_matches_reference_on_gordan_corpus(monkeypatch):
    # the 200 presentations of acceptance criterion 01
    def monoids():
        rng = rng_for("acceptance-gordan")
        return [from_presentation(random_fp_monoid(rng))[0] for _ in range(200)]

    _saturations_against_reference(monkeypatch, monoids)


# ---------------------------------------------------------------------------
# Contejean-Devie completion, cross-checked against the Hilbert basis of the
# kernel cone


def test_cd_simple():
    sols = nonneg_kernel_generators([[1, 1, -2]])
    assert (1, 1, 1) in sols and (2, 0, 1) in sols and (0, 2, 1) in sols
    assert len(sols) == 3


def test_cd_matches_hilbert_on_kernel_cones():
    rng = rng_for("cd-cross")
    for _ in range(30):
        c = rng.randint(2, 4)
        rows = [[rng.randint(-2, 2) for _ in range(c)]]
        with zlat.node_budget(200000):
            cd = set(nonneg_kernel_generators(rows))
        # same monoid as a Hilbert basis: N^c cap ker(A)
        kb = kernel_basis(rows)
        if not kb:
            assert cd == set()
            continue
        d = len(kb)
        hrql = [[kb[j][i] for j in range(d)] for i in range(c)]
        sharp, units = zlat.hilbert_from_hrep(hrql, d)
        assert units == []
        back = set()
        for y in sharp:
            v = tuple(
                sum(kb[j][i] * y[j] for j in range(d)) for i in range(c)
            )
            back.add(v)
        assert cd == back


def _reference_cd(amat, q, budget):
    """The tuple-based completion kernel that the packed one replaced, verbatim."""
    m = len(amat)
    acols = [[amat[i][j] for i in range(m)] for j in range(q)]
    sols = []
    frontier = []
    seen = set()
    for j in range(q):
        v = tuple(1 if t == j else 0 for t in range(q))
        frontier.append((v, list(acols[j])))
        seen.add(v)
    nodes = 0
    while frontier:
        nxt = []
        for v, av in frontier:
            nodes += 1
            if nodes > budget:
                return None
            zero = True
            for x in av:
                if x != 0:
                    zero = False
                    break
            if zero:
                dominated = False
                for s in sols:
                    le = True
                    for i in range(q):
                        if s[i] > v[i]:
                            le = False
                            break
                    if le:
                        dominated = True
                        break
                if not dominated:
                    sols.append(v)
                continue
            for j in range(q):
                col = acols[j]
                sp = 0
                for i in range(m):
                    if av[i]:
                        sp += av[i] * col[i]
                if sp < 0:
                    w = list(v)
                    w[j] += 1
                    wt = tuple(w)
                    if wt in seen:
                        continue
                    dominated = False
                    for s in sols:
                        le = True
                        for i in range(q):
                            if s[i] > wt[i]:
                                le = False
                                break
                        if le:
                            dominated = True
                            break
                    if dominated:
                        continue
                    seen.add(wt)
                    nxt.append((wt, [av[i] + col[i] for i in range(m)]))
        nxt.sort(key=lambda p: p[0])
        frontier = nxt
    # final minimalization (frontier order can admit incomparable dupes)
    sols.sort()
    minimal = []
    for v in sols:
        keep = True
        for s in minimal:
            le = True
            for i in range(q):
                if s[i] > v[i]:
                    le = False
                    break
            if le:
                keep = False
                break
        if keep:
            minimal.append(v)
    return minimal


def _assert_cd_matches_reference_at_every_budget(amat, q, cap):
    """Both kernels agree, None included, at every budget 0 .. N + 1.

    N is the reference's node count: the reference reads its budget only in
    ``nodes > budget``, so it returns None below N and its full answer from N
    on; N is found by doubling and bisection.  If N exceeds ``cap``, both
    must refuse at ``cap``.
    """
    if _reference_cd(amat, q, cap) is None:
        assert kernels.cd_minimal_nonneg_solutions(amat, q, cap) is None, amat
        return
    lo, hi = -1, 1
    while _reference_cd(amat, q, hi) is None:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _reference_cd(amat, q, mid) is None:
            lo = mid
        else:
            hi = mid
    full = _reference_cd(amat, q, hi)
    for budget in range(hi + 2):
        want = full if budget >= hi else None
        assert kernels.cd_minimal_nonneg_solutions(amat, q, budget) == want, (amat, budget)


def test_cd_packed_kernel_matches_reference_on_random_matrices():
    rng = rng_for("cd-packed-random")
    for _ in range(120):
        m = rng.randint(1, 3)
        q = rng.randint(1, 8)
        amat = [[rng.randint(-3, 3) for _ in range(q)] for _ in range(m)]
        _assert_cd_matches_reference_at_every_budget(amat, q, cap=300)


def test_cd_packed_kernel_matches_reference_on_relation_shaped_matrices():
    # [M | -M]: the shape of the integrality system of a hom (homs.py)
    rng = rng_for("cd-packed-relation")
    for _ in range(60):
        m = rng.randint(1, 3)
        k = rng.randint(1, 4)
        mm = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(m)]
        amat = [row + [-x for x in row] for row in mm]
        _assert_cd_matches_reference_at_every_budget(amat, 2 * k, cap=300)


def test_cd_packed_kernel_matches_reference_when_a_coordinate_nears_the_budget():
    # a x = b y: the search climbs to (b, a) one unit at a time, so at the
    # budget that just suffices a coordinate is within 2 of the budget
    for a in range(1, 13):
        for b in range(1, 13):
            _assert_cd_matches_reference_at_every_budget([[a, -b]], 2, cap=300)
    # a x = b y + a z: a node far above the solution e_x + e_z in one
    # coordinate must still be seen to lie above it
    for a in range(1, 13):
        for b in (1, 2):
            for row in set(itertools.permutations((a, -b, -a))):
                _assert_cd_matches_reference_at_every_budget([list(row)], 3, cap=300)


def test_cd_packed_kernel_refuses_classify_sized_case_like_reference():
    # integrality system of a seg1 -> poly hom from the classify benchmark
    amat = [
        [1, 3, -1, -3, 1, 1, 1, 1, 1, 1, -1, -1, -1, -1, -1, -1],
        [2, 3, -2, -3, 0, 0, 0, 1, 1, 2, 0, 0, 0, -1, -1, -2],
        [0, 3, 0, -3, 0, 1, 2, 0, 1, 0, 0, -1, -2, 0, -1, 0],
    ]
    assert _reference_cd(amat, 16, 2000) is None
    assert kernels.cd_minimal_nonneg_solutions(amat, 16, 2000) is None
    with zlat.node_budget(2000), pytest.raises(ResourceLimitError) as err:
        nonneg_kernel_generators(amat)
    assert err.value.limit == 2000


# ---------------------------------------------------------------------------
# overlattices


def test_overlattice_spec_examples():
    out = enumerate_overlattices(1, 3, PrimeSet.of(2))
    assert len(out) == 1 and out[0].den == 3 and out[0].rows == ((1,),)
    out = enumerate_overlattices(2, 2, PrimeSet.of(3))
    assert len(out) == 3
    out = enumerate_overlattices(1, 1, PrimeSet.empty())
    assert len(out) == 1 and out[0].den == 1


def test_overlattice_counts_match_subgroup_formula():
    # index-p overlattices of Z^r correspond to index-p subgroups of (Z/p)^r
    for r in (1, 2, 3):
        for p in (2, 3, 5):
            out = enumerate_overlattices(r, p, PrimeSet.empty())
            expected = (p ** r - 1) // (p - 1)
            assert len(out) == expected
            # brute force: order-p subgroups of (Z/p)^r = cyclic subgroups
            subs = set()
            for vec in itertools.product(range(p), repeat=r):
                if any(vec):
                    subs.add(frozenset(tuple((k * x) % p for x in vec) for k in range(p)))
            assert len(subs) == expected


def _reference_overlattices(r, n):
    """The unpruned enumeration: every upper-triangular HNF of index
    n^(r-1), kept when its lattice contains n * Z^r."""
    m = n ** (r - 1)
    slots = [(i, j) for i in range(r) for j in range(i + 1, r)]
    out = []
    for diag in itertools.product(range(1, m + 1), repeat=r):
        if math.prod(diag) != m:
            continue
        for vals in itertools.product(*(range(diag[j]) for _, j in slots)):
            rows = [[diag[i] if i == j else 0 for j in range(r)] for i in range(r)]
            for (i, j), v in zip(slots, vals):
                rows[i][j] = v
            lam = Lattice(rows, r)
            if all(lam.contains([n * (i == j) for j in range(r)]) for i in range(r)):
                out.append(zlat.Overlattice(n, tuple(tuple(b) for b in lam.basis)))
    return sorted(out, key=lambda o: o.rows)


def test_overlattices_match_unpruned_enumeration():
    for r in (1, 2, 3):
        for n in range(1, 9):
            assert enumerate_overlattices(r, n) == _reference_overlattices(r, n), (r, n)
    # only HNF diagonals dividing n are generated: rank 3 at n = 2, 3, 4, 6
    # builds 14, 39, 140, 546 candidates instead of 35, 130, 651, 4550
    counts = [len(zlat._sublattices_of_index(3, n * n, n)) for n in (2, 3, 4, 6)]
    assert counts == [14, 39, 140, 546]


def test_overlattice_quotients_and_coords():
    out = enumerate_overlattices(2, 4, PrimeSet.of(3))
    for o in out:
        assert o.index_over_standard() == 4
        q = o.quotient_by_standard()
        assert q.rank == 0 and math.prod(q.torsion) == 4
        assert o.coords((1, 0)) is not None


def test_overlattice_coprimality_error():
    with pytest.raises(CoprimalityError):
        enumerate_overlattices(2, 4, PrimeSet.of(2))
    with pytest.raises(CoprimalityError):
        enumerate_overlattices(1, 3, PrimeSet.all_except(5))
