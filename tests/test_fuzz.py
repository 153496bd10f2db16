"""Randomized cross-checks of the exact kernels against independent oracles."""

import itertools
from fractions import Fraction

from conftest import rng_for
from satmon import homs as H
from satmon import valuative as V
from satmon._lp import INFEASIBLE, OPTIMAL, UNBOUNDED, simplex_max
from satmon.kernels import snf_with_transforms
from satmon.monoid import free_monoid, monoid_from_vectors
from satmon.zlat import solve_nonneg


# ---------------------------------------------------------------------------
# simplex vs brute-force basic-solution enumeration


def _basic_solutions(a, b):
    """Every x >= 0 with A x = b whose support columns are independent."""
    m = len(a)
    n = len(a[0])
    for k in range(min(m, n) + 1):
        for cols in itertools.combinations(range(n), k):
            sol = _solve_square([[Fraction(a[i][j]) for j in cols] for i in range(m)], b)
            if sol is None or any(x < 0 for x in sol):
                continue
            x = [Fraction(0)] * n
            for j, v in zip(cols, sol):
                x[j] = v
            yield x


def _sign_sqrt2(a, b):
    """Sign of a + b*sqrt(2) for rational a, b: with opposite signs, the
    part with the larger square wins (a^2 = 2 b^2 only at a = b = 0)."""
    sa, sb = (a > 0) - (a < 0), (b > 0) - (b < 0)
    if sb == 0 or sa == sb:
        return sa
    if sa == 0:
        return sb
    return sa if a * a > 2 * b * b else sb


def _objective_pair(c, c_sqrt, x):
    """(c.x, c_sqrt.x), or (c.x,) without c_sqrt."""
    rows = [c] if c_sqrt is None else [c, c_sqrt]
    return tuple(sum((row[j] * x[j] for j in range(len(x))), Fraction(0)) for row in rows)


def _brute_lp_max(a, b, c, c_sqrt=None):
    """max c.x over A x = b, x >= 0 by enumerating basic solutions.

    With ``c_sqrt`` the objective is (c + c_sqrt*sqrt(2)).x and each value
    is the pair (c.x, c_sqrt.x).  Returns (status, value), value None unless
    OPTIMAL.  A feasible LP has a basic feasible solution; it is unbounded
    iff some ray r >= 0 with A r = 0 has c.r > 0, and then iff some basic
    solution r >= 0 of [A; 1] r = [0; 1] has c.r > 0.
    """
    n = len(a[0])

    def sign(v):
        return _sign_sqrt2(v[0], v[1] if c_sqrt is not None else 0)

    values = [_objective_pair(c, c_sqrt, x) for x in _basic_solutions(a, b)]
    if not values:
        return INFEASIBLE, None
    rays = _basic_solutions(a + [[1] * n], [0] * len(a) + [1])
    if any(sign(_objective_pair(c, c_sqrt, r)) > 0 for r in rays):
        return UNBOUNDED, None
    best = values[0]
    for v in values[1:]:
        if sign([p - q for p, q in zip(v, best)]) > 0:
            best = v
    return OPTIMAL, best if c_sqrt is not None else best[0]


def _solve_square(a, b):
    """The unique solution of a x = b over Q (a may have more rows than
    columns); None if it is not unique or there is none."""
    m = len(a)
    n = len(a[0]) if m else 0
    mat = [row[:] + [b[i]] for i, row in enumerate(a)]
    rank = 0
    piv_cols = []
    for j in range(n):
        piv = None
        for i in range(rank, m):
            if mat[i][j] != 0:
                piv = i
                break
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = Fraction(1) / mat[rank][j]
        mat[rank] = [e * inv for e in mat[rank]]
        for i in range(m):
            if i != rank and mat[i][j] != 0:
                f = mat[i][j]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[rank])]
        piv_cols.append(j)
        rank += 1
    for i in range(rank, m):
        if mat[i][n] != 0:
            return None
    if rank < n:
        return None  # not a unique basic solution; skip this subset
    out = [Fraction(0)] * n
    for i, j in enumerate(piv_cols):
        out[j] = mat[i][n]
    return out


def test_simplex_fuzz_against_basic_solutions():
    """Integer and Fraction constraint data; integer, Fraction and
    Q(sqrt(2)) objectives.  Every status must match the oracle, and every
    result is checked: a feasible x (of the optimal value when OPTIMAL), or
    a Farkas vector y with y.A <= 0 and y.b > 0."""
    rng = rng_for("lp-fuzz")

    def entry(rational):
        v = rng.randint(-3, 3)
        return Fraction(v, rng.randint(1, 3)) if rational and rng.random() < 0.4 else v

    seen = set()
    for trial in range(600):
        kind = trial % 3  # 0: ints, 1: Fractions, 2: Fractions with a sqrt(2) objective
        m = rng.randint(1, 3)
        n = rng.randint(m, 5)
        a = [[entry(kind) for _ in range(n)] for _ in range(m)]
        b = [entry(kind) for _ in range(m)]
        if m > 1 and rng.random() < 0.2:
            a[-1], b[-1] = list(a[0]), b[0]  # a redundant row
        c_sqrt = None
        if kind == 2:
            c, c_sqrt = map(list, zip(*[(entry(True), rng.randint(-2, 2)) for _ in range(n)]))
        else:
            c = [entry(kind) for _ in range(n)]
        res = simplex_max(a, b, c, sqrt=None if c_sqrt is None else (2, c_sqrt))
        status, best = _brute_lp_max(a, b, c, c_sqrt)
        assert res.status == status, (a, b, c)
        seen.add((kind, status))
        if status == INFEASIBLE:
            y = res.farkas
            for j in range(n):
                assert sum(y[i] * a[i][j] for i in range(m)) <= 0
            assert sum(y[i] * b[i] for i in range(m)) > 0
            continue
        for i in range(m):
            assert sum(a[i][j] * res.x[j] for j in range(n)) == b[i]
        assert all(x >= 0 for x in res.x)
        if status == OPTIMAL:
            assert res.value == best
            value = _objective_pair(c, c_sqrt, res.x)
            assert res.value == (value[0] if c_sqrt is None else value)
    assert len(seen) == 9  # every status on every kind of data


# ---------------------------------------------------------------------------
# saturation vs bounded multiple-search


def test_saturation_membership_equivalence_fuzz():
    rng = rng_for("sat-fuzz")
    for _ in range(40):
        rank = rng.randint(1, 2)
        gens = []
        for _ in range(rng.randint(1, 3)):
            v = tuple(rng.randint(-2, 2) for _ in range(rank))
            if any(v) and v not in gens:
                gens.append(v)
        if not gens:
            continue
        mono = monoid_from_vectors(gens, rank=rank)
        sat = mono.saturate()
        for _ in range(6):
            x = tuple(rng.randint(-3, 3) for _ in range(rank))
            in_sat = sat.contains(x)
            multiple = any(
                mono.contains(tuple(n * xi for xi in x)) for n in range(1, 41)
            )
            if multiple:
                assert in_sat, (gens, x)
            if not in_sat:
                assert not multiple, (gens, x)


# ---------------------------------------------------------------------------
# faces satisfy the bounded monoid-level face condition


def test_faces_bounded_condition_fuzz():
    rng = rng_for("face-fuzz")
    for _ in range(25):
        rank = 2
        gens = []
        for _ in range(rng.randint(2, 4)):
            v = tuple(rng.randint(0, 2) for _ in range(rank))
            if any(v) and v not in gens:
                gens.append(v)
        if len(gens) < 2:
            continue
        mono = monoid_from_vectors(gens, rank=rank)
        for face in mono.faces():
            fm = face.as_monoid()
            in_face = set(face.indices)
            # bounded necessary condition: a sum landing in the face forces
            # every participating generator into the face
            for coeffs in itertools.product(range(3), repeat=mono.ngens):
                if not any(coeffs):
                    continue
                elem = mono.element_from_exponents(coeffs)
                inside = (
                    mono.ambient.is_zero(elem)
                    or (not fm.is_trivial() and fm.contains(elem))
                )
                if inside and not mono.ambient.is_zero(elem):
                    support = {i for i, c in enumerate(coeffs) if c}
                    assert support <= in_face, (gens, face.indices, coeffs)


# ---------------------------------------------------------------------------
# type (V) membership vs bounded integral search


def _member_bruteforce(tv, x, nmax=8, box=5):
    """Search n*x = iota(w) + sum a_i q_i directly with bounded integers."""
    nu = tv.base.rank
    k = tv.q0.ngens
    in_span = _relation_span_test(tv.relation_vectors(), nu, k)
    for n in range(1, nmax + 1):
        target_v = [Fraction(n) * Fraction(c) for c in x[0]]
        target_a = [n * c for c in x[1]]
        for w in itertools.product(range(-box, box + 1), repeat=nu):
            if tv.base.sign(w) < 0:
                continue
            dv = [target_v[i] - w[i] for i in range(nu)]
            if any(c.denominator != 1 for c in dv):
                continue  # integer combos of integer relations stay integral
            dv = [int(c) for c in dv]
            for a in itertools.product(range(box + 1), repeat=k):
                # does target - iota(w) - sum a q equal an integer relation combo?
                da = [target_a[i] - a[i] for i in range(k)]
                if in_span(dv + da):
                    return True
    return False


def _relation_span_test(rels, nu, k):
    """Predicate: is the integer vector b an integer combination of the relations?

    The relation matrix depends only on the presentation, so its Smith form
    U A V = D is computed once; b is in the integer column span of A iff
    every (U b)_i is divisible by D_ii (zero where D_ii is zero).
    """
    rows = [[int(r[0][i]) for r in rels] for i in range(nu)]
    rows += [[int(r[1][i]) for r in rels] for i in range(k)]
    if rels:
        U, D, _ = snf_with_transforms(rows)
        diag = [D[i][i] if i < len(rels) else 0 for i in range(nu + k)]
    else:
        U = [[1 if i == j else 0 for j in range(nu + k)] for i in range(nu + k)]
        diag = [0] * (nu + k)

    def in_span(b):
        for urow, d in zip(U, diag):
            ub = sum(u * c for u, c in zip(urow, b))
            if (ub % d if d else ub) != 0:
                return False
        return True

    return in_span


def test_typev_membership_fuzz(half_v_presentation):
    rng = rng_for("tv-fuzz")
    tv = half_v_presentation
    for _ in range(30):
        x = (
            (Fraction(rng.randint(-2, 2)), Fraction(rng.randint(-3, 3))),
            (rng.randint(-2, 2), rng.randint(-2, 2)),
        )
        got = tv.member(x)
        brute = _member_bruteforce(tv, x)
        if brute:
            assert got, x
        # one-sided: the bounded brute force may miss witnesses that exist
        # at larger scale, but a positive brute hit must be confirmed


def test_typev_membership_negative_fuzz():
    # the N -> N^2 chart over lex Z: the free second axis is never absorbed
    lex1 = V.lex_lattice(1)
    chart = H.MonoidHom(free_monoid(1), free_monoid(2), [(1, 0)])
    tv = V.TypeVPresentation(lex1, chart, [(1,)])
    for bad in [((Fraction(0),), (0, -1)), ((Fraction(-1),), (0, 0))]:
        assert not tv.member(bad)
        assert not _member_bruteforce(tv, bad)


def test_typev_membership_matches_monoid_membership():
    # over V = lex Z with the chart N -> N^2, 1 |-> (2,0), anchored at
    # 1 |-> 2, iota(V) lies in cone(e1); at v = 0, type (V) membership IS
    # membership in the saturation of the chart target, the first quadrant
    n2 = free_monoid(2)
    chart = H.MonoidHom(free_monoid(1), n2, [(2, 0)])
    lex1 = V.lex_lattice(1)
    tv = V.TypeVPresentation(lex1, chart, [(2,)])
    sat = n2.saturate()
    rng = rng_for("tv-mono")
    for _ in range(20):
        a = (rng.randint(-2, 3), rng.randint(-2, 3))
        got = tv.member(((Fraction(0),), a))
        # phi(v, a) = v + a0 and psi(v, a) = a1 kill the relation
        # (2, -(2,0)) and are >= 0 on V>=0 and on e1, e2, so both are
        # >= 0 on the saturated pushout
        expected = sat.contains(a)
        assert expected == (a[0] >= 0 and a[1] >= 0), a
        assert got == expected, a
