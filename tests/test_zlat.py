"""Exact linear algebra: normal forms, Hilbert bases, feasibility, overlattices."""

import itertools
import math
import random
import sys

import pytest

from conftest import (
    brute_nonneg_solve,
    count_calls,
    minors_gcd_invariants,
    random_affine_monoid,
    random_fp_monoid,
    rng_for,
)
from satmon import kernels, zlat
from satmon.errors import CoprimalityError, ResourceLimitError
from satmon.homs import RamificationReport
from satmon.monoid import AffineMonoid, FpMonoid, clear_memo, from_presentation, monoid_from_vectors
from satmon.sigma import PrimeSet
from satmon.valuative import LevelForm
from satmon.zlat import (
    FgAbelianGroup,
    Lattice,
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
    g = quotient_by_columns(1, [(2,)]).group
    assert (g.rank, g.torsion) == (0, (2,))
    g = quotient_by_columns(2, [(1, 0), (0, 2)]).group
    assert (g.rank, g.torsion) == (0, (2,))
    g = quotient_by_columns(2, [(2, -2)]).group
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
    with pytest.raises(ValueError):
        FgAbelianGroup(0, (3, 2))  # no divisibility chain
    with pytest.raises(ValueError, match="divisibility chain"):
        FgAbelianGroup(2, (2, 4, 6))
    for bad in ((1,), (0,), (-2,), (2, 1)):
        with pytest.raises(ValueError, match=">= 2"):
            FgAbelianGroup(1, bad)


def test_values_compare_and_hash_by_their_fields():
    makers = [
        lambda: (FgAbelianGroup(1, (2,)), FgAbelianGroup(1, (4,))),
        lambda: (zlat.Overlattice(2, ((1, 0), (0, 2))), zlat.Overlattice(2, ((1, 1), (0, 2)))),
        lambda: (FpMonoid(2, (((1, 0), (0, 1)),)), FpMonoid(2, ())),
        lambda: (LevelForm((1,), (0,)), LevelForm((0,), (1,))),
        lambda: (RamificationReport((((0,), 2),), ()), RamificationReport((), ())),
    ]
    for make in makers:
        (a, other), (b, _) = make(), make()
        assert a is not b and a == b and not a != b and hash(a) == hash(b)
        assert a != other and len({a, b, other}) == 2
    # the same fields in another class, or in a tuple, are another value
    same = [
        FgAbelianGroup(1, ()), zlat.Overlattice(1, ()), FpMonoid(1, ()),
        LevelForm(1, ()), RamificationReport(1, ()),
    ]
    for x, y in itertools.combinations(same, 2):
        assert x != y and y != x
    assert all(x != (1, ()) for x in same)
    # a cone compares by span, coordinates and facets (its span has no hash);
    # the memo is cleared, so that equal monoids build their own cones
    cones = []
    for gens in ([(1, 0), (0, 1)], [(1, 0), (0, 1)], [(1, 0), (1, 2)]):
        clear_memo()
        cones.append(AffineMonoid(FgAbelianGroup(2), gens)._cone())
    assert cones[0] is not cones[1] and cones[0] == cones[1] and cones[0] != cones[2]


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
    # The generator (0,1,1) has free part 0 and order 2, so twice it, with
    # one unit of each slack, is a ray of the LP that branch-and-bound cannot
    # exhaust, and this non-member runs into its node budget.  Each branch
    # bound replaces the earlier one on the same parameter and side, so a
    # node's LP keeps at most cols + 2*dim rows.
    sizes = []

    class Spy(zlat.LinearSystem):
        def maximize(self, obj):
            sizes.append(len(self.rows))
            return super().maximize(obj)

    monkeypatch.setattr(zlat, "LinearSystem", Spy)
    amb = FgAbelianGroup(1, (2, 2))
    m = AffineMonoid(amb, [(0, 1, 1), (2, 0, 0), (2, 1, 0)])
    rows, _ = zlat.group_equations([(amb, m.gens, amb.zero())])
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
        [1, 0, -2, 0, 0],
        [3, -1, 0, -4, 0],
        [1, 2, 0, 0, -3],
    ]
    assert rhs == [9, 1, 2, 0]
    x = solve_integer(rows, rhs)
    assert g.reduce((x[0] + 2 * x[1], x[0], 3 * x[0] - x[1])) == (9, 1, 2)
    assert h.is_zero((x[0] + 2 * x[1],))
    # x2 = 3 mod 4 and x1 = 9 - 2 x2 >= 0 leave (3, 3) as the only witness;
    # each slack is its row's residual over d
    assert solve_nonneg(rows, rhs).witness == (3, 3, 1, 1, 3)


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


def _reference_hilbert_from_frames(rows, rays, frames, lattice=None):
    """``zlat.hilbert_from_frames`` in Z^dim on the two reference kernels:
    the known rays and frames are ignored, the oracle finds the rays
    itself.  A cone without rays is the zero cone of Z^0."""
    assert lattice is None
    return _reference_hilbert_from_hrep(rows, len(rays[0]) if rays else 0)[0]


def _smith_parallelepiped_ys(s, W):
    """y = W (k_j L / s_j) mod L over k in prod [0, s_j), L = s_k; y = 0 first.

    For a dim x k matrix M of rank k with Smith form U M W = S, s = diag(S),
    the points M y / L are the lattice points of {M lambda : 0 <= lambda_j
    < 1}: prod s_j of them, |det M| for square M.
    """
    k = len(s)
    big = s[-1]
    ys = [(0,) * k]
    for j in range(k):
        if s[j] > 1:
            step = big // s[j]
            g = [W[t][j] * step % big for t in range(k)]
            ys = [
                tuple((yt + c * gt) % big for yt, gt in zip(y, g))
                for y in ys
                for c in range(s[j])
            ]
    return ys


def _smith_box_hilbert(hrep_rows, dim, rays=None, simplices=None):
    """``zlat._hilbert_pointed`` as it was before simplex frames: each
    simplex's half-open parallelepiped read off one Smith form of its rays,
    in Z^dim only, the rays of a cover rewritten by the caller."""
    rows = [tuple(r) for r in hrep_rows]
    if rays is None:
        pairs = zlat._double_description(rows, dim)
        if not pairs:
            return []
        rays = [r for r, _ in pairs]
        masks = [m for _, m in pairs]
        on_every_ray = masks[0]
        for m in masks:
            on_every_ray &= m
        cdim = len(zlat._independent_rows(rays, dim)) if on_every_ray else dim
        simplices = zlat.pulling_triangulation(masks, len(rows), cdim)
    else:
        cdim = dim
    nrays = len(rays)
    charge = zlat._node_meter("Hilbert basis")
    boxes = []
    for simplex in simplices:
        idx = [t for t in range(nrays) if simplex >> t & 1]
        cols = [rays[t] for t in idx]
        _, S, W = kernels.snf_with_transforms(
            [[c[i] for c in cols] for i in range(dim)]
        )
        s = [S[j][j] for j in range(cdim)]
        charge(math.prod(s))
        if s[-1] > 1:
            boxes.append((idx, s, W))
    if not boxes:
        return sorted(rays)
    vals = [[vdot(r, ray) for r in rows] for ray in rays]
    for vs in vals:
        vs.append(sum(vs))
    bound = sum(vs[-1] for vs in vals) * max(s[-1] for _, s, _ in boxes)
    width = bound.bit_length() + 1
    shifts = [width * i for i in range(len(rows) + 1)]
    packed = [sum(v << sh for v, sh in zip(vs, shifts)) for vs in vals]
    cands = {packed[t]: ([t], 1, (1,)) for t in range(nrays)}
    for idx, s, W in boxes:
        big = s[-1]
        pk = [packed[t] for t in idx]
        for y in _smith_parallelepiped_ys(s, W)[1:]:
            x = sum(a * b for a, b in zip(y, pk)) // big
            if x not in cands:
                cands[x] = (idx, big, y)
    guard = sum(1 << (sh + width - 1) for sh in shifts)
    basis, degs, kept = [], [], []
    top = 0
    for x in sorted(cands):
        deg = x >> shifts[-1]
        while top < len(degs) and 2 * degs[top] <= deg:
            top += 1
        xg = x + guard
        for t in range(top):
            if (xg - kept[t]) & guard == guard:
                break
        else:
            basis.append(cands[x])
            degs.append(deg)
            kept.append(x)
    return sorted(
        tuple(sum(rays[t][i] * yt for t, yt in zip(idx, y)) // big for i in range(dim))
        for idx, big, y in basis
    )


def _smith_box_hilbert_from_frames(rows, rays, frames, lattice=None):
    """``zlat.hilbert_from_frames`` in Z^dim as it was before simplex
    frames, on ``_smith_box_hilbert``: the frames are read only for their
    ray indices, the simplices they were built on."""
    assert lattice is None
    simplices = [sum(1 << t for t in idx) for idx, _, _ in frames]
    return _smith_box_hilbert(rows, len(rays[0]), rays, simplices)


def _smith_box_hilbert_from_hrep(hrep_rows, dim):
    """``zlat.hilbert_from_hrep`` as it was before simplex frames, on
    ``_smith_box_hilbert``."""
    rows = [tuple(r) for r in hrep_rows]
    if len(zlat._independent_rows(rows, dim)) == dim:
        return _smith_box_hilbert(rows, dim), []
    lin = kernel_basis([list(r) for r in rows]) if rows else [
        tuple(1 if i == j else 0 for i in range(dim)) for j in range(dim)
    ]
    if not rows:
        return [], [tuple(b) for b in lin]
    pres = quotient_by_columns(dim, [list(b) for b in lin])
    qdim = pres.group.rank
    lift_rows = [list(r) for r in pres.lift_cols]
    img_rows = [
        tuple(sum(r[t] * lift_rows[t][j] for t in range(dim)) for j in range(qdim))
        for r in rows
    ]
    img_rows = [r for r in img_rows if any(r)]
    sharp_q = _smith_box_hilbert(img_rows, qdim) if qdim else []
    sharp = [tuple(kernels.mat_vec(lift_rows, list(h))) for h in sharp_q]
    return sorted(sharp), [tuple(b) for b in lin]


def _smith_box_cover_basis(cone, over):
    """The Hilbert basis of cone cap M in M-coordinates, as covers built it
    before simplex frames: the base's rays and facet normals rewritten in
    M-coordinates, on the base's triangulation, by ``_smith_box_hilbert``."""
    normals = sorted(primitive([vdot(row, phi) for row in over.rows]) for phi in cone.facets)
    rays = [primitive(over.coords(r)) for r, _ in cone.rays]
    return _smith_box_hilbert(normals, over.rank, rays, cone.triangulation)


def test_hilbert_dimension_guard():
    # The cap is on work, not on dimension (N^9 is answered, above): the one
    # simplex of cone((1, 0), (1, b)) has |det| b, charged to the node budget
    # before any parallelepiped point is built, after the 2 rays double
    # description forms for the facets.  So it fits a budget of b + 2, and
    # cone((1, 0), (1, b + 1)) does not.
    b = 1000
    with zlat.node_budget(b + 2):
        assert len(monoid_from_vectors([(1, 0), (1, b)]).saturate().gens) == b + 1
    with zlat.node_budget(b + 2):
        with pytest.raises(ResourceLimitError, match="Hilbert basis") as err:
            monoid_from_vectors([(1, 0), (1, b + 1)]).saturate()
    assert err.value.limit == b + 2


def test_unimodular_lower_dimensional_cone_is_its_rays():
    # the cone over the unit square at z = 1 in the hyperplane w = 0 of Z^4:
    # both simplices of its triangulation are unimodular in their span, so
    # its Hilbert basis is its four rays
    rows = [(1, 0, 0, 0), (0, 1, 0, 0), (-1, 0, 1, 0), (0, -1, 1, 0), (0, 0, 0, 1), (0, 0, 0, -1)]
    rays = [(0, 0, 1, 0), (0, 1, 1, 0), (1, 0, 1, 0), (1, 1, 1, 0)]
    assert zlat.hilbert_from_hrep(rows, 4) == (rays, [])


def test_large_simplex_is_refused_before_its_points_are_built(monkeypatch):
    # one simplex of |det| 2,924,207, past the default budget: refused
    # before any of its 2.9M parallelepiped points is built
    def no_points(*args):
        raise AssertionError("a parallelepiped was enumerated")

    monkeypatch.setattr(zlat, "_box_points", no_points)
    rows = [(-1, -3, -3, 1), (-3, -1, 3, 2), (2, -1, 2, -2), (-2, 3, 1, -1)]
    with pytest.raises(ResourceLimitError, match="Hilbert basis") as err:
        zlat.hilbert_from_hrep(rows, 4)
    assert err.value.limit == zlat.DEFAULT_NODE_BUDGET
    # the patched enumerator is the one a box within the budget reaches:
    # cone((1, 0), (1, 2)) has one box of 2 points
    with pytest.raises(AssertionError, match="a parallelepiped was enumerated"):
        zlat.hilbert_from_hrep([(0, 1), (2, -1)], 2)


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


def _charged(fn, *args, budget=200_000):
    """(fn(*args), or the refusal's message, and the nodes it charged)."""
    with zlat.node_budget(budget):
        try:
            out = fn(*args)
        except ResourceLimitError as err:
            out = str(err)
        return out, zlat._NODE_BUDGET.get()[1]


def _is_lower_dimensional(rows, dim):
    """Is {x : row . x >= 0} pointed, nonzero and not full-dimensional?"""
    if len(zlat._independent_rows(rows, dim)) < dim:
        return False
    rays = zlat.extreme_rays(rows, dim)
    return bool(rays) and len(zlat._independent_rows(rays, dim)) < dim


def test_hilbert_from_hrep_matches_smith_boxes_on_random_cones():
    # H-cones of dimension <= 5, pointed, with lineality and (a third)
    # lower-dimensional: the same basis, the same nodes charged and the same
    # refusals as the Smith-form boxes.  A budget of 5,000 nodes keeps the
    # sieve small; 600 cones are answered within it, refusals come on top.
    rng = rng_for("frame-boxes")
    answered = lower = refused = 0
    while answered < 600 or lower < 200:
        dim = rng.randint(2, 5)
        rows = [tuple(rng.randint(-2, 2) for _ in range(dim)) for _ in range(rng.randint(1, dim + 3))]
        flat = lower < 200 and answered % 3 == 0
        if flat:
            rows.append(vneg(rows[0]))
            if not _is_lower_dimensional(rows, dim):
                continue
        want = _charged(_smith_box_hilbert_from_hrep, rows, dim, budget=5_000)
        assert _charged(zlat.hilbert_from_hrep, rows, dim, budget=5_000) == want, rows
        if isinstance(want[0], str):
            refused += 1
            continue
        answered += 1
        lower += flat
    assert 10 <= refused <= 200


def test_cover_boxes_match_smith_boxes_on_every_small_overlattice():
    # every overlattice of index n <= 6 of random saturated pointed bases of
    # rank <= 3: the basis of cone cap M read off the base's frames equals
    # the one the rewritten rays' Smith forms give, with the same nodes
    rng = rng_for("frame-cover-boxes")
    bases = []
    while len(bases) < 14:
        r = (1, 2, 2, 3, 3, 3, 3)[len(bases) % 7]
        m = random_affine_monoid(rng, rank=r, max_gens=r + 3, lo=-1, hi=3)
        if m.span_lattice().rank < r or m._cone().rays is None:
            continue
        p = m.saturate()
        # every other base of rank 3 is not simplicial
        if r < 3 or len(bases) % 2 or len(p._cone().triangulation) > 1:
            bases.append(p)
    compared = 0
    for p in bases:
        cone = p._cone()
        rays = [r for r, _ in cone.rays]
        for n in range(1, 7):
            for over in enumerate_overlattices(p.ambient.rank, n):
                want = _charged(_smith_box_cover_basis, cone, over)
                got = _charged(zlat.hilbert_from_frames, cone.facets, rays, cone.frames, over)
                assert got == want, (p, over)
                compared += 1
    assert sum(len(p._cone().triangulation) > 1 for p in bases) >= 4
    assert compared >= 1000


def _saturations_against_reference(monkeypatch, make_monoids):
    # pointed cones, the zero cone included, reach the oracle through
    # ``hilbert_from_frames``, cones with units through
    # ``hilbert_from_hrep``; returns the calls of each
    new = [m.saturate().gens for m in make_monoids()]
    with monkeypatch.context() as mp:
        mp.setattr(zlat, "facet_normals", _reference_extreme_rays)
        mp.setattr(zlat, "hilbert_from_hrep", _reference_hilbert_from_hrep)
        mp.setattr(zlat, "hilbert_from_frames", _reference_hilbert_from_frames)
        hrep = count_calls(mp, zlat, "hilbert_from_hrep")
        framed = count_calls(mp, zlat, "hilbert_from_frames")
        old = []
        for m in make_monoids():
            # the reference computes every saturation, none is read off the memo
            clear_memo()
            old.append(m.saturate().gens)
    assert new == old
    return len(framed), len(hrep)


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

    framed, hrep = _saturations_against_reference(monkeypatch, monoids)
    assert framed >= 100 and hrep >= 40


def test_saturate_matches_reference_on_gordan_corpus(monkeypatch):
    # the 200 presentations of acceptance criterion 01
    def monoids():
        rng = rng_for("acceptance-gordan")
        return [from_presentation(random_fp_monoid(rng))[0] for _ in range(200)]

    framed, hrep = _saturations_against_reference(monkeypatch, monoids)
    # 36 of them are zero cones, which take the frames path
    assert framed >= 160 and hrep >= 30


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


def _reference_levels(amat, q, cap):
    """Solutions-first completion on plain tuples, the kernel's spec.

    Level by level from the unit vectors in column order: a level's nodes
    with A v = 0 are solutions, and every other node v makes the children
    v + e_j with (A v) . A e_j < 0 that lie above no solution of this level
    or an earlier one.  Returns the list of (node count, solutions in
    completion order) of each level, up to the first whose node count takes
    the total past ``cap``.
    """
    acols = [[row[j] for row in amat] for j in range(q)]

    def image(v):
        return [sum(row[j] * v[j] for j in range(q)) for row in amat]

    level = [tuple(int(t == j) for t in range(q)) for j in range(q)]
    levels = []
    sols = []
    nodes = 0
    while level and nodes <= cap:
        found = [v for v in level if not any(image(v))]
        levels.append((len(level), found))
        nodes += len(level)
        sols += found
        nxt = set()
        for v in level:
            av = image(v)
            if not any(av):
                continue
            for j in range(q):
                if sum(x * y for x, y in zip(av, acols[j])) < 0:
                    w = v[:j] + (v[j] + 1,) + v[j + 1:]
                    if not any(all(a <= b for a, b in zip(s, w)) for s in sols):
                        nxt.add(w)
        level = sorted(nxt)
    return levels


def _reference_cd(levels, budget):
    """(answer, seen) at ``budget``: every level is charged in full when it
    begins, so the answer is the sorted solutions, or None once a level does
    not fit, and ``stop`` sees the solutions of the levels charged."""
    nodes = 0
    seen = []
    for size, found in levels:
        nodes += size
        if nodes > budget:
            return None, seen
        seen += found
    return sorted(seen), seen


def _interleaved_reference_cd(amat, q, budget):
    """The tuple-based interleaved completion search that the packed
    kernel first replaced, verbatim: nodes charged one by one, and each
    node's children checked against the solutions found before it."""
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


def _completion_order(sols):
    """Minimal solutions in the order completion finds them: by coordinate
    sum, the unit vectors of level 0 in column order, later levels in
    lexicographic order."""
    return sorted(sols, key=lambda s: (sum(s), tuple(-x for x in s) if sum(s) == 1 else s))


def _cd(amat, q, budget, stop=None):
    """The completion kernel with a budget of its own."""
    with zlat.node_budget(budget):
        charge = zlat._node_meter("completion")
        return kernels.cd_minimal_nonneg_solutions(amat, q, budget, charge, stop)


def _least_answered_budget(answers, cap):
    """The least budget at which ``answers(budget)`` is not None, or None if
    that exceeds ``cap``; by doubling and bisection, so ``answers`` must
    refuse below that budget and answer from it on."""
    if answers(cap) is None:
        return None
    lo, hi = -1, 1
    while answers(hi) is None:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if answers(mid) is None:
            lo = mid
        else:
            hi = mid
    return hi


def _assert_cd_matches_reference_at_every_budget(amat, q, cap):
    """The kernel matches ``_reference_cd`` exactly at every budget 0 .. N + 1.

    N is the least budget at which the reference answers; if it exceeds
    ``cap``, the kernel must refuse at ``cap`` with the reference's ``stop``
    sequence.  At every budget the answer, None included, and the sequence
    that a ``stop`` which never fires sees are the reference's.  A ``stop``
    that fires at the k-th solution sees the first k of that sequence and
    gets them back sorted when the budget reaches the k-th's level, and
    otherwise sees all of it and gets the answer, None at a refusal.  Every
    k is tried at budget N, and one k per budget below.

    Then the differential against ``_interleaved_reference_cd``: from the
    least budget at which it answers, the kernel gives its answer and
    ``stop`` sees it in completion order, so the kernel never refuses where
    the interleaved search answers.  Returns whether the kernel answers
    below that budget, a refusal of the interleaved search recovered.
    """
    seen = []

    def stop_at(k):
        def stop(s):
            seen.append(s)
            return len(seen) == k
        return stop

    levels = _reference_levels(amat, q, cap)
    n = _least_answered_budget(lambda b: _reference_cd(levels, b)[0], cap)
    if n is None:
        order = _reference_cd(levels, cap)[1]
        assert _cd(amat, q, cap, seen.append) is None and seen == order, amat
        assert _interleaved_reference_cd(amat, q, cap) is None, amat
        return False
    order = _reference_cd(levels, n)[1]
    for budget in range(n + 2):
        want, got = _reference_cd(levels, budget)
        assert _cd(amat, q, budget, None) == want, (amat, budget)
        seen.clear()
        assert _cd(amat, q, budget, seen.append) == want
        assert seen == got, (amat, budget)
        k = budget % len(order) + 1 if order else 1
        seen.clear()
        out = _cd(amat, q, budget, stop_at(k))
        if len(got) >= k:
            assert seen == got[:k] and out == sorted(seen), (amat, budget, k)
        else:
            assert seen == got and out == want, (amat, budget, k)
    for k in range(1, len(order) + 1):
        seen.clear()
        out = _cd(amat, q, n, stop_at(k))
        assert seen == order[:k] and out == sorted(seen), (amat, k)

    old = _least_answered_budget(lambda b: _interleaved_reference_cd(amat, q, b), cap)
    if old is None:
        return True
    full = _interleaved_reference_cd(amat, q, old)
    assert n <= old, (amat, n, old)
    for budget in (old, old + 1):
        seen.clear()
        assert _cd(amat, q, budget, seen.append) == full, (amat, budget)
        assert seen == _completion_order(full), (amat, budget)
    return n < old


def test_cd_kernel_leaves_to_stop_what_it_spends():
    # x + 2y = z + 2w takes 10 nodes of completion: 4 unit vectors, 4 nodes
    # on level 1 and 2 on level 2.  A stop that spends one node of the same
    # budget on each solution sees level 1's two solutions, which spend the 2
    # nodes level 2 needs, so at budget 10 the kernel returns None at the
    # first child it makes, without asking for more than is left; without
    # that stop it answers.  The columns pair up as mirrors, x <-> z and
    # y <-> w, which changes neither.
    amat = [[1, 2, -1, -2]]
    want = [(0, 1, 0, 1), (0, 1, 2, 0), (1, 0, 1, 0), (2, 0, 0, 1)]
    assert _cd(amat, 4, 10) == want
    assert _cd(amat, 4, 9) is None
    with zlat.node_budget(10):
        witness = zlat._node_meter("witness")
        charge = zlat._node_meter("completion")
        seen = []
        stop = lambda s: seen.append(s) or witness() < 0
        assert kernels.cd_minimal_nonneg_solutions(amat, 4, 10, charge, stop) is None
        assert seen == [(0, 1, 0, 1), (1, 0, 1, 0)] and charge(0) == 0


def test_cd_packed_kernel_matches_reference_on_random_matrices():
    rng = rng_for("cd-packed-random")
    for _ in range(120):
        m = rng.randint(1, 3)
        q = rng.randint(1, 8)
        amat = [[rng.randint(-3, 3) for _ in range(q)] for _ in range(m)]
        _assert_cd_matches_reference_at_every_budget(amat, q, cap=300)


def test_cd_packed_kernel_matches_reference_on_relation_shaped_matrices():
    # [M | -M]: the shape of the integrality system of a hom (homs.py),
    # whose columns pair up as mirrors; the solutions-first search answers
    # some of the matrices below the budget the interleaved search needs
    rng = rng_for("cd-packed-relation")
    recovered = 0
    for _ in range(60):
        m = rng.randint(1, 3)
        k = rng.randint(1, 4)
        mm = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(m)]
        amat = [row + [-x for x in row] for row in mm]
        recovered += _assert_cd_matches_reference_at_every_budget(amat, 2 * k, 300)
    assert recovered > 0


def test_cd_packed_kernel_matches_reference_on_wide_entries():
    # entries up to +-60 give A^T A entries in the thousands, so wide packed
    # fields; the sweep over every budget refuses inside levels, where the
    # kernel stops as soon as the next level is sure to exceed the budget
    rng = rng_for("cd-packed-wide")
    for _ in range(30):
        m = rng.randint(1, 2)
        k = rng.randint(1, 3)
        mm = [[rng.randint(-60, 60) for _ in range(k + 1)] for _ in range(m)]
        for amat in (mm, [row[:k] + [-x for x in row[:k]] for row in mm]):
            _assert_cd_matches_reference_at_every_budget(amat, len(amat[0]), cap=300)


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


def _mirrored_systems(rng):
    """(A, mirror) pairs: [M | -M] laid out as the integrality system
    [ims, -ims, qs, -qs | slack pairs (-c, c)] of ``homs``, zero columns
    included, then with the columns shuffled (the layout's pairing shuffled
    along).  The pairing fixes zero columns."""
    for _ in range(50):
        m = rng.randint(1, 3)
        kp, kq, ns = rng.randint(0, 3), rng.randint(0, 2), rng.randint(0, 2)
        ims = [[rng.randint(-3, 3) for _ in range(m)] for _ in range(kp)]
        qs = [[rng.randint(-3, 3) for _ in range(m)] for _ in range(kq)]
        if ims and rng.random() < 0.3:
            ims[0] = [0] * m
        cols = ims + [[-x for x in c] for c in ims] + qs + [[-x for x in c] for c in qs]
        n = len(cols)
        mirror = [*range(kp, 2 * kp), *range(kp), *range(2 * kp + kq, n), *range(2 * kp, n - kq)]
        for _ in range(ns):
            c = [rng.choice((0, 0, 2, 3)) for _ in range(m)]
            cols += [[-x for x in c], c]
            mirror += [len(cols) - 1, len(cols) - 2]
        if rng.random() < 0.2:
            cols.append([0] * m)
            mirror.append(len(mirror))
        if not cols:
            continue
        mirror = [k if any(cols[k]) else j for j, k in enumerate(mirror)]
        perm = list(range(len(cols)))
        if rng.random() < 0.5:
            rng.shuffle(perm)
        back = {p: i for i, p in enumerate(perm)}
        amat = [[cols[p][i] for p in perm] for i in range(m)]
        yield amat, [back[mirror[p]] for p in perm]


def test_cd_kernel_pairs_each_column_with_its_negative():
    # on [M | -M] shapes every nonzero column gets a partner that is its
    # negative (not always the layout's, when columns repeat), and zero
    # columns stay fixed; a nonzero column with no partner, or no rows at
    # all, give the identity
    rng = rng_for("cd-mirror")
    for amat, layout in _mirrored_systems(rng):
        q = len(layout)
        cols = list(zip(*amat))
        mirror = kernels._column_mirror(cols)
        assert [mirror[k] for k in mirror] == list(range(q)), amat
        for j, k in enumerate(mirror):
            assert cols[k] == tuple(-x for x in cols[j]) and (k == j) == (not any(cols[j])), amat
        assert mirror == layout or any(cols[j] == cols[k] for j in range(q) for k in range(j))
    assert kernels._column_mirror([(1,), (2,), (-1,), (-2,)]) == [2, 3, 0, 1]
    assert kernels._column_mirror([(1,), (2,), (-1,), (-2,), (1,)]) == list(range(5))
    assert kernels._column_mirror([(1,), (-1,), (1,), (-1,), (0,)]) == [1, 0, 3, 2, 4]
    assert kernels._column_mirror([(), (), ()]) == [0, 1, 2]


def test_cd_kernel_matches_reference_on_mirrored_systems():
    # the kernel expands one node of each mirror pair; the twin-free
    # reference expands both, and the two agree at every budget on the
    # answer, the stop sequence, a stop that fires and the refusal budget
    rng = rng_for("cd-mirror")
    shapes = 0
    for amat, layout in _mirrored_systems(rng):
        _assert_cd_matches_reference_at_every_budget(amat, len(layout), cap=150)
        shapes += 1
    assert shapes >= 40


def test_cd_packed_kernel_refuses_classify_sized_case_like_reference():
    # integrality system of a seg1 -> poly hom from the classify benchmark
    amat = [
        [1, 3, -1, -3, 1, 1, 1, 1, 1, 1, -1, -1, -1, -1, -1, -1],
        [2, 3, -2, -3, 0, 0, 0, 1, 1, 2, 0, 0, 0, -1, -1, -2],
        [0, 3, 0, -3, 0, 1, 2, 0, 1, 0, 0, -1, -2, 0, -1, 0],
    ]
    assert _reference_cd(_reference_levels(amat, 16, 2000), 2000)[0] is None
    assert _interleaved_reference_cd(amat, 16, 2000) is None
    assert _cd(amat, 16, 2000) is None
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
    for r, top in ((1, 8), (2, 8), (3, 8), (4, 3)):
        for n in range(1, top + 1):
            out = enumerate_overlattices(r, n)
            assert out == _reference_overlattices(r, n), (r, n)
            # their rows are already in HNF, so their lattice skips the HNF
            for o in out:
                fresh = Lattice(o.rows, r)
                assert (o.lattice.basis, o.lattice.pivots) == (fresh.basis, fresh.pivots), o
    # only the Hermite forms that contain n Z^r are built, one node each:
    # rank 3 at n = 2, 3, 4, 6 charges 7, 13, 35, 91 forms (the unpruned
    # enumeration built 35, 130, 651, 4550), after isqrt(n) - 1 trial
    # divisions of n
    for n, forms in ((2, 7), (3, 13), (4, 35), (6, 91)):
        nodes = math.isqrt(n) - 1 + forms
        with zlat.node_budget(nodes):
            assert len(enumerate_overlattices(3, n)) == forms
        with zlat.node_budget(nodes - 1), pytest.raises(
            ResourceLimitError, match="overlattice enumeration"
        ):
            enumerate_overlattices(3, n)


def test_overlattice_enumeration_is_charged_to_the_budget():
    # index 10007 (a prime) in Z^2: 99 trial divisions of 10007 and 10,008
    # Hermite forms, one node each, all charged to the one budget
    with zlat.node_budget(10107):
        assert len(enumerate_overlattices(2, 10007)) == 10008
    for budget, search in ((98, "trial division"), (10106, "overlattice enumeration")):
        with zlat.node_budget(budget), pytest.raises(ResourceLimitError, match=search) as err:
            enumerate_overlattices(2, 10007)
        assert err.value.limit == budget


def _deck_invariants_by_coords(o):
    """M / Z^r presented from the coordinates of den * e_i in the lattice
    of the rows, by one Smith form with U^-1."""
    r = o.rank
    lat = Lattice(o.rows, r)
    coords = [lat.coords([o.den * (i == j) for j in range(r)]) for i in range(r)]
    return quotient_by_columns(r, [list(c) for c in coords]).group


def test_deck_invariants_match_the_coordinate_path():
    # on every overlattice of rank <= 3 and index <= 8, and on a copy whose
    # rows are mixed by a random unimodular matrix, as a parsed overlattice
    # need not be in Hermite form
    rng = rng_for("deck-invariants")
    mixed_off_hnf = 0
    for r in (1, 2, 3):
        for n in range(1, 9):
            for o in enumerate_overlattices(r, n):
                rows = [list(row) for row in o.rows]
                for _ in range(4 * r):
                    i, j = rng.randrange(r), rng.randrange(r)
                    if i == j:
                        rows[i] = list(vneg(rows[i]))
                    else:
                        c = rng.randint(-3, 3)
                        rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
                rng.shuffle(rows)
                mixed = zlat.Overlattice(n, tuple(map(tuple, rows)))
                mixed_off_hnf += mixed.rows != o.rows
                want = _deck_invariants_by_coords(o)
                assert o.quotient_by_standard() == want, o
                assert mixed.quotient_by_standard() == want, mixed
    assert mixed_off_hnf >= 300


def test_overlattice_quotients_and_coords():
    out = enumerate_overlattices(2, 4, PrimeSet.of(3))
    for o in out:
        assert o.index_over_standard() == 4
        q = o.quotient_by_standard()
        assert q.rank == 0 and math.prod(q.torsion) == 4
        assert o.coords((1, 0)) is not None


def test_combine_matches_stepwise_add_and_scale():
    # combine reduces once at the end; adding the reduced multiples one at a
    # time gives the same element, also from unreduced inputs
    rng = rng_for("combine")
    for _ in range(400):
        amb = FgAbelianGroup(rng.randint(0, 3), rng.choice([(), (2,), (3,), (2, 4), (2, 6, 12)]))
        k = rng.randint(0, 5)
        elems = [tuple(rng.randint(-13, 13) for _ in range(amb.dim)) for _ in range(k)]
        coeffs = [rng.randint(-4, 4) for _ in range(k)]
        acc = amb.zero()
        for c, g in zip(coeffs, elems):
            acc = amb.add(acc, amb.scale(c, g))
        assert amb.combine(coeffs, elems) == acc


def test_overlattice_coprimality_error():
    with pytest.raises(CoprimalityError):
        enumerate_overlattices(2, 4, PrimeSet.of(2))
    with pytest.raises(CoprimalityError):
        enumerate_overlattices(1, 3, PrimeSet.all_except(5))
    # decided without factoring n: a 20-digit prime index of a rank-1 lattice
    n = 10**19 + 51
    with pytest.raises(CoprimalityError) as e:
        enumerate_overlattices(1, n, PrimeSet.all_except(5))
    assert f"{n}" in str(e.value) and "all primes except {5}" in str(e.value)
    assert len(enumerate_overlattices(1, n, PrimeSet.of(2, 3))) == 1
