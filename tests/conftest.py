"""Shared fixtures: canonical examples from the literature plus seeded corpora."""

import math
import random
from fractions import Fraction

import pytest

from satmon import homs as H
from satmon import monoid as M
from satmon import valuative as V
from satmon.sigma import PrimeSet
from satmon.zlat import FgAbelianGroup


@pytest.fixture(autouse=True)
def fresh_memo():
    """Each test starts with an empty monoid memo, as a fresh process does."""
    M.clear_memo()


# ---------------------------------------------------------------------------
# canonical fixtures


@pytest.fixture(scope="session")
def nat():
    return M.free_monoid(1)


@pytest.fixture(scope="session")
def nat2():
    return M.free_monoid(2)


@pytest.fixture(scope="session")
def half_inclusion(nat):
    """N inside (1/2)N: ambient unit is 1/2, so the map is 1 |-> 2."""
    return H.MonoidHom(nat, M.free_monoid(1), [(2,)])


def ogus_data():
    """The saturated-pushout-of-integral counterexample data.

    Coordinates are the half-grid: the ambient unit is 1/2, so N^2 sits as
    <(2,0),(0,2)> and P = <N^2, (1/2,1/2)> as <(2,0),(0,2),(1,1)>, taken in
    its own groupification.
    """
    n2 = M.free_monoid(2)
    half2 = M.free_monoid(2)
    theta0 = H.MonoidHom(n2, half2, [(2, 0), (0, 2)])
    grid = M.monoid_from_vectors([(2, 0), (0, 2), (1, 1)])
    p, to_p = grid.intrinsic()
    arm = H.MonoidHom(n2, p, [to_p((2, 0)), to_p((0, 2))])
    return theta0, arm, p


@pytest.fixture(scope="session")
def ogus():
    return ogus_data()


@pytest.fixture(scope="session")
def smooth_not_etale():
    """P = N*e1 inside Q = <e1, e2, -e1+2e2>: smooth for every prime set,
    but with ramification index 2 over the closed point."""
    q = M.monoid_from_vectors([(1, 0), (0, 1), (-1, 2)])
    p = M.free_monoid(1)
    return H.MonoidHom(p, q, [(1, 0)])


@pytest.fixture(scope="session")
def lex2():
    return V.lex_lattice(2)


@pytest.fixture(scope="session")
def half_v_presentation(lex2):
    """Q = (1/2)V over V = lex Z^2, chart N^2 -> (1/2)N^2."""
    n2 = M.free_monoid(2)
    half2 = M.free_monoid(2)
    theta0 = H.MonoidHom(n2, half2, [(2, 0), (0, 2)])
    return V.TypeVPresentation(lex2, theta0, [(1, 0), (0, 1)])


@pytest.fixture(scope="session")
def xyz_presentation(lex2):
    """The S^2 = pi*T chart: Q0 = <p,t,s | 2s = p+t> over P0 = N, pi -> (1,0)."""
    fp = M.FpMonoid(3, (((0, 0, 2), (1, 1, 0)),))
    q0, images, _ = M.from_presentation(fp)
    p0 = M.free_monoid(1)
    chart = H.MonoidHom(p0, q0, [images[0]])
    return V.TypeVPresentation(lex2, chart, [(1, 0)])


# ---------------------------------------------------------------------------
# seeded random corpora


def rng_for(name):
    return random.Random(f"satmon:{name}")


def random_fp_monoid(rng, max_gens=4, max_rels=2, max_entry=2):
    n = rng.randint(1, max_gens)
    rels = []
    for _ in range(rng.randint(0, max_rels)):
        u = tuple(rng.randint(0, max_entry) for _ in range(n))
        v = tuple(rng.randint(0, max_entry) for _ in range(n))
        if u != v:
            rels.append((u, v))
    return M.FpMonoid(n, tuple(rels))


def random_affine_monoid(rng, rank=2, max_gens=4, lo=-1, hi=2):
    """Random affine monoid in Z^rank with small generators."""
    while True:
        gens = []
        for _ in range(rng.randint(1, max_gens)):
            v = tuple(rng.randint(lo, hi) for _ in range(rank))
            if any(v) and v not in gens:
                gens.append(v)
        if gens:
            return M.monoid_from_vectors(gens, rank=rank)


def random_ambient_monoid(rng):
    """Random monoid of rank 0-4, torsion (), (2), (3) or (2, 4), and up to
    5 generators with entries in [-2, 2]."""
    amb = FgAbelianGroup(rng.randint(0, 4), rng.choice([(), (), (2,), (3,), (2, 4)]))
    gens = {amb.reduce(tuple(rng.randint(-2, 2) for _ in range(amb.dim)))
            for _ in range(rng.randint(0, 5))}
    return M.AffineMonoid(amb, sorted(g for g in gens if not amb.is_zero(g)))


def random_saturated_monoid(rng, rank=2, max_gens=3):
    """Random saturated, span-tight monoid (pointed or with units)."""
    m = random_affine_monoid(rng, rank=rank, max_gens=max_gens, lo=0, hi=2)
    sat = m.saturate()
    tight, _ = sat.intrinsic()
    return tight.saturate() if not tight.is_saturated() else tight


def random_endo_map(rng, p):
    """A random valid hom out of p: quotient by a face, scaling, padding."""
    kind = rng.choice(["mult", "quotient", "pad", "self"])
    if kind == "mult":
        k = rng.randint(1, 3)
        return H.MonoidHom(p, p, [p.ambient.scale(k, g) for g in p.gens])
    if kind == "quotient":
        faces = p.faces()
        f = faces[rng.randrange(len(faces))]
        q, images, _ = p.quotient_by_face(f)
        target = q.saturate()
        return H.MonoidHom(p, target, images)
    if kind == "pad":
        amb = p.ambient
        new_amb = FgAbelianGroup(amb.rank + 1, amb.torsion)

        def lift(g):
            return g[: amb.rank] + (0,) + g[amb.rank:]

        gens = [lift(g) for g in p.gens] + [
            (0,) * amb.rank + (1,) + (0,) * len(amb.torsion)
        ]
        target = M.AffineMonoid(new_amb, gens)
        return H.MonoidHom(p, target, [lift(g) for g in p.gens])
    return H.MonoidHom.identity(p)


# ---------------------------------------------------------------------------
# oracles


def witness_image(f, a):
    """Exponent-level image of sum a_i g_i: the witnesses' columns combined."""
    out = [0] * f.target.ngens
    for c, w in zip(a, f.witnesses):
        for j, x in enumerate(w):
            out[j] += c * x
    return tuple(out)


def minors_gcd_invariants(rows):
    """Invariant factors via gcds of k x k minors (naive, matrices <= 4x4)."""
    import itertools
    import math

    r = len(rows)
    c = len(rows[0]) if r else 0

    def minor(rs, cs):
        sub = [[rows[i][j] for j in cs] for i in rs]
        n = len(sub)
        if n == 0:
            return 1
        if n == 1:
            return sub[0][0]
        det = 0
        for j in range(n):
            sign = (-1) ** j
            rest = [row[:j] + row[j + 1:] for row in sub[1:]]
            det += sign * sub[0][j] * _det(rest)
        return det

    def _det(mat):
        n = len(mat)
        if n == 1:
            return mat[0][0]
        out = 0
        for j in range(n):
            rest = [row[:j] + row[j + 1:] for row in mat[1:]]
            out += (-1) ** j * mat[0][j] * _det(rest)
        return out

    dk = []
    prev = 1
    for k in range(1, min(r, c) + 1):
        g = 0
        for rs in itertools.combinations(range(r), k):
            for cs in itertools.combinations(range(c), k):
                g = math.gcd(g, abs(minor(rs, cs)))
        if g == 0:
            break
        dk.append(g // prev)
        prev = g
    return dk


def brute_nonneg_solve(rows, rhs, bound=8):
    """Exhaustive search for x in N^k, |x|_inf <= bound, A x = b."""
    import itertools

    k = len(rows[0]) if rows else 0
    for x in itertools.product(range(bound + 1), repeat=k):
        if all(
            sum(rows[i][j] * x[j] for j in range(k)) == rhs[i] for i in range(len(rows))
        ):
            return x
    return None


def hom_preimage_box_violation(f, radius=4):
    """Box-enumeration oracle for exactness: an x with f(x) in Q but x not in P.

    Walks the source groupification in invariant coordinates within the
    given radius (torsion coordinates in full).
    """
    import itertools

    pres = f.source.gp_presentation()
    gp = pres.group
    ranges = [range(-radius, radius + 1)] * gp.rank + [
        range(d) for d in gp.torsion
    ]
    for coords in itertools.product(*ranges):
        exp = pres.lift(coords)
        x = f.source.element_from_exponents(exp)
        y = f.apply_exponents(exp)
        if f.target.contains(y) and not f.source.contains(x):
            return x
    return None


def criterion05_corpus():
    """The maps of acceptance criterion 05, and the Ogus base change theta."""
    nat = M.free_monoid(1)
    nat2 = M.free_monoid(2)
    theta0, arm, _ = ogus_data()
    theta = H.pushout(theta0, arm, "sat").left
    small_corpus = [
        H.MonoidHom(nat, nat, [(2,)]),
        H.MonoidHom(nat2, nat, [(1,), (1,)]),
        H.MonoidHom(nat, nat2, [(1, 1)]),
        H.MonoidHom(nat, nat2, [(1, 2)]),
        H.MonoidHom.identity(nat2),
        H.MonoidHom(nat2, nat2, [(2, 0), (0, 2)]),
        H.MonoidHom(nat2, nat2, [(1, 1), (0, 1)]),
        theta0,
    ]
    return small_corpus, theta


def integrality_box_bound(f):
    """Tuple box of criterion 05: 3 on the small maps, 2 on the larger."""
    return 3 if f.source.ngens + f.target.ngens <= 4 else 2


def _integrality_witness_bound(f, tup, grading=None):
    """Box size B for the witness search of one integrality tuple.

    phi is ``grading``, a linear form on the target's free coordinates (by
    default the sum of them).  A witness satisfies phi(b1) = sum_i a3_i
    phi(f(p_i)) + sum_j b_j phi(q_j), and likewise for b2 and a4.  If every
    image has phi >= m > 0 and so has every target generator with a nonzero
    free part, then |a3|, |a4| and each such b_j are at most
    max(phi(b1), phi(b2)) / m; any other generator is torsion, so b_j can be
    taken below its order.  The search is then complete; the hypotheses are
    asserted, not assumed.
    """
    amb = f.target.ambient
    phi = (1,) * amb.rank if grading is None else grading

    def value(v):
        return sum(c * x for c, x in zip(phi, amb.free_part(v)))

    graded = [g for g in f.target.gens if any(amb.free_part(g))] + list(f.gen_images)
    low = min(value(g) for g in graded) if graded else 1
    if low <= 0:
        raise ValueError("witness box is complete only for positive gradings")
    _, _, b1, b2 = tup
    top = max(value(f.target.element_from_exponents(b)) for b in (b1, b2))
    return max(1, math.floor(top / low), max(amb.torsion, default=1) - 1)


def integrality_witness_in_box(f, tup, cache=None, grading=None):
    """LP-free check that an integrality tuple (a1, a2, b1, b2) has a witness.

    A witness is (a3, a4, b) with b1 = f(a3) + b, b2 = f(a4) + b and
    a1 + a3 = a2 + a4.  It enumerates a3, a4 in [0, B]^kp and b in [0, B]^kq
    with B from ``_integrality_witness_bound`` for ``grading``; only the
    element values of f(a3), a3 and b matter, so each side is tabulated
    once per (b_i, B).
    ``cache`` may be shared across tuples of the same map.
    """
    import itertools

    cache = {} if cache is None else cache
    a1, a2, b1, b2 = tup
    bound = _integrality_witness_bound(f, tup, grading)
    ambq = f.target.ambient
    ambp = f.source.ambient
    if ("box", bound) not in cache:
        box_p = itertools.product(range(bound + 1), repeat=f.source.ngens)
        box_q = itertools.product(range(bound + 1), repeat=f.target.ngens)
        cache[("box", bound)] = (
            [(f.apply_exponents(a), f.source.element_from_exponents(a)) for a in box_p],
            {f.target.element_from_exponents(b) for b in box_q},
        )
    images, q_elems = cache[("box", bound)]

    def sides(v):
        # {element of b: {element of a3}} over f(a3) + b = v
        key = ("sides", v, bound)
        if key not in cache:
            out = {}
            for fa, pa in images:
                rest = ambq.sub(v, fa)
                if rest in q_elems:
                    out.setdefault(rest, set()).add(pa)
            cache[key] = out
        return cache[key]

    side1 = sides(f.target.element_from_exponents(b1))
    side2 = sides(f.target.element_from_exponents(b2))
    shift = ambp.sub(
        f.source.element_from_exponents(a2), f.source.element_from_exponents(a1)
    )
    for b, a4s in side2.items():
        a3s = side1.get(b)
        if a3s and any(ambp.add(a4, shift) in a3s for a4 in a4s):
            return True
    return False


def integrality_box_tuples(f, bound=3):
    """Every tuple (a1, a2, b1, b2) in [0, bound]^k with f(a1)+b1 = f(a2)+b2.

    Enumerates (a1, a2, b1) and looks b2 up by its element value, so the
    scan is cubic rather than quartic in the box size.
    """
    import itertools

    rng_p = list(itertools.product(range(bound + 1), repeat=f.source.ngens))
    rng_q = list(itertools.product(range(bound + 1), repeat=f.target.ngens))
    amb = f.target.ambient
    by_elem = {}
    for b in rng_q:
        by_elem.setdefault(f.target.element_from_exponents(b), []).append(b)
    f_of = {a: f.apply_exponents(a) for a in rng_p}
    for a1 in rng_p:
        for a2 in rng_p:
            for b1 in rng_q:
                lhs = amb.add(f_of[a1], f.target.element_from_exponents(b1))
                for b2 in by_elem.get(amb.sub(lhs, f_of[a2]), ()):
                    yield (a1, a2, b1, b2)


def integrality_box_violation(f, bound=3):
    """Box oracle for the element-wise integrality criterion.

    Returns the first tuple in the box without a witness, found by
    ``integrality_witness_in_box`` (no LP, no ``solve_nonneg``), or None.
    """
    cache = {}
    for key in integrality_box_tuples(f, bound):
        if not integrality_witness_in_box(f, key, cache):
            return key
    return None


def combination(coeffs, vecs, dim):
    """sum coeffs[i] * vecs[i] in the first ``dim`` coordinates, unreduced."""
    return tuple(sum(c * v[i] for c, v in zip(coeffs, vecs)) for i in range(dim))


def same_element(amb, u, v):
    """u == v in Z^rank + torsion, with the test's own arithmetic."""
    r = amb.rank
    return u[:r] == v[:r] and all((x - y) % d == 0 for x, y, d in zip(u[r:], v[r:], amb.torsion))


def _rational_solution(rows, rhs):
    """Some y in Q^n with rows . y = rhs, for rows of full row rank, by
    Gauss-Jordan elimination over Fractions."""
    aug = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    pivots = []
    for c in range(len(rows[0])):
        r = len(pivots)
        p = next((i for i in range(r, len(aug)) if aug[i][c]), None)
        if p is None:
            continue
        aug[r], aug[p] = aug[p], aug[r]
        aug[r] = [x / aug[r][c] for x in aug[r]]
        for i in range(len(aug)):
            if i != r and aug[i][c]:
                aug[i] = [x - aug[i][c] * y for x, y in zip(aug[i], aug[r])]
        pivots.append(c)
    assert len(pivots) == len(aug), "rows must have full row rank"
    y = [Fraction(0)] * len(rows[0])
    for i, c in enumerate(pivots):
        y[c] = aug[i][-1]
    return y


def _facet_forms(m):
    """m's facet normals as linear forms on the free part of its ambient,
    read back through the span basis; any solution does, since every point
    of m lies in the span."""
    span = m.span_lattice()
    return [_rational_solution(span.basis, phi) for phi in m.cone_facets()]


def separating_functionals(f):
    """Candidate functionals on the free parts of amb(P) + amb(Q), in that
    order: the facets of the library's witness monoid M_f, composed with
    the free coordinates of the direct sum it lives in.  Nothing here is
    trusted; a caller checks a candidate by dot products."""
    m, embp, embq = H._witness_monoid(f)
    ambp, ambq = f.source.ambient, f.target.ambient
    units = [embp(tuple(int(i == k) for i in range(ambp.dim))) for k in range(ambp.rank)]
    units += [embq(tuple(int(i == k) for i in range(ambq.dim))) for k in range(ambq.rank)]
    return [[sum(a * b for a, b in zip(psi, u)) for u in units] for psi in _facet_forms(m)]


def check_integral_certificate(f, cert):
    """Re-check a negative integrality certificate; return what decided it.

    The tuple must be a relation, f(a1) + q(b1) = f(a2) + q(b2), by this
    module's own arithmetic.  It must have no witness (a3, a4, b).  A
    witness makes x = (p(a2) - p(a1), q(b2)) the combination of (g_i, 0),
    (-g_i, f(g_i)) and (0, h_j) with the nonnegative coefficients
    (a3, a4, b), so a functional on free parts that is >= 0 on all of these
    and < 0 on x rules one out: "facet", tried on each candidate of
    ``separating_functionals``.  Where none separates, the LP-free box
    search must find no witness: "box", graded by the sum of the target's
    free coordinates or, where that grading is not positive, of its facets.
    """
    tup = tuple(cert[k] for k in ("tuple_a1", "tuple_a2", "tuple_b1", "tuple_b2"))
    a1, a2, b1, b2 = tup
    ambp, ambq = f.source.ambient, f.target.ambient
    ps, qs, ims = f.source.gens, f.target.gens, f.gen_images
    lhs = combination([*a1, *b1], [*ims, *qs], ambq.dim)
    rhs = combination([*a2, *b2], [*ims, *qs], ambq.dim)
    assert same_element(ambq, lhs, rhs), (f, cert)
    rp, rq = ambp.rank, ambq.rank
    gens = [g[:rp] + (0,) * rq for g in ps]
    gens += [tuple(-x for x in g[:rp]) + im[:rq] for g, im in zip(ps, ims)]
    gens += [(0,) * rp + h[:rq] for h in qs]
    x = combination([y - x for x, y in zip(a1, a2)], ps, rp) + combination(b2, qs, rq)
    for chi in separating_functionals(f):
        values = [sum(c * a for c, a in zip(chi, v)) for v in gens]
        if sum(c * a for c, a in zip(chi, x)) < 0 and min(values, default=0) >= 0:
            return "facet"
    # the sum of the target's facets is positive off its units
    for grading in (None, [sum(col) for col in zip(*_facet_forms(f.target))]):
        try:
            found = integrality_witness_in_box(f, tup, grading=grading)
        except ValueError:
            continue
        assert not found, (f, cert)
        return "box"
    raise AssertionError(f"no functional separates and no witness box is complete: {f}, {cert}")


def face_preimage(f, face):
    """The preimage face of a target face under a hom (by the facet test)."""
    cone = f.target._cone()
    facets, kills = cone.facets, cone.kills
    j_active = [
        j for j in range(len(facets)) if all(kills[j][i] for i in face.indices)
    ]
    idxs = []
    for i in range(f.source.ngens):
        c = f.target.cone_coords(f.gen_images[i])
        from satmon.zlat import vdot

        if all(vdot(facets[j], c) == 0 for j in j_active):
            idxs.append(i)
    return f.source.face_from_indices(tuple(idxs))


def same_submonoid(a, b):
    """Do two monoids in the same ambient have the same elements?"""
    if a.ambient != b.ambient:
        return False
    return all(b.contains(g) for g in a.gens) and all(a.contains(g) for g in b.gens)


def assert_matches_fresh(m):
    """m carries its cone, and its cached cone (with its rays and
    triangulation), saturation and saturatedness are those of a fresh copy
    on the same generators, computed from scratch."""
    assert "cone" in m._cache, m
    M.clear_memo()
    fresh = M.AffineMonoid(m.ambient, m.gens)
    cone, fresh_cone = m._cone(), fresh._cone()
    assert cone == fresh_cone, m
    assert cone.rays == fresh_cone.rays, m
    assert cone.triangulation == fresh_cone.triangulation, m
    assert m.saturate() == fresh.saturate(), m
    assert m.saturate()._cone() == fresh.saturate()._cone(), m
    assert m.is_saturated() == fresh.is_saturated(), m


def count_calls(monkeypatch, owner, name):
    """Wrap ``owner.name`` for the test; returns the list of the positional
    arguments of each call, filled in as calls happen."""
    calls = []
    fn = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls
