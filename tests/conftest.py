"""Shared fixtures: canonical examples from the literature plus seeded corpora."""

import random
from fractions import Fraction

import pytest

from satmon import homs as H
from satmon import monoid as M
from satmon import valuative as V
from satmon.sigma import PrimeSet


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
        from satmon.zlat import FgAbelianGroup

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


def _integrality_witness_bound(f, tup):
    """Box size B for the witness search of one integrality tuple.

    With phi the sum of free coordinates in the target, a witness satisfies
    phi(b1) = sum_i a3_i phi(f(p_i)) + sum_j b_j phi(q_j), and likewise for b2
    and a4.  If every target generator has nonnegative free coordinates and
    every image f(p_i) has phi >= 1, then |a3|, |a4| and every b_j with
    phi(q_j) >= 1 are at most max(phi(b1), phi(b2)); a generator with
    phi(q_j) = 0 is torsion, so b_j can be taken below its order.  The search
    is then complete; the hypotheses are asserted, not assumed.
    """
    amb = f.target.ambient
    free_q = [amb.free_part(g) for g in f.target.gens]
    free_im = [amb.free_part(im) for im in f.gen_images]
    if any(c < 0 for g in free_q + free_im for c in g) or any(
        sum(im) < 1 for im in free_im
    ):
        raise ValueError("witness box is complete only for nonnegative gradings")
    _, _, b1, b2 = tup
    phi1 = sum(amb.free_part(f.target.element_from_exponents(b1)))
    phi2 = sum(amb.free_part(f.target.element_from_exponents(b2)))
    return max(1, phi1, phi2, max(amb.torsion, default=1) - 1)


def integrality_witness_in_box(f, tup, cache=None):
    """LP-free check that an integrality tuple (a1, a2, b1, b2) has a witness.

    A witness is (a3, a4, b) with b1 = f(a3) + b, b2 = f(a4) + b and
    a1 + a3 = a2 + a4.  It enumerates a3, a4 in [0, B]^kp and b in [0, B]^kq
    with B from ``_integrality_witness_bound``; only the element values of
    f(a3), a3 and b matter, so each side is tabulated once per (b_i, B).
    ``cache`` may be shared across tuples of the same map.
    """
    import itertools

    cache = {} if cache is None else cache
    a1, a2, b1, b2 = tup
    bound = _integrality_witness_bound(f, tup)
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


def face_preimage(f, face):
    """The preimage face of a target face under a hom (by the facet test)."""
    span, coords, facets, kills = f.target._cone()
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


def known_cone_monoids_match_fresh(monkeypatch, run):
    """Run ``run()`` and check every monoid it built with a known cone.

    Each monoid that ``AffineMonoid.with_known_cone`` returned (saturations
    and cover sub-monoids) must have the cached cone, saturation and
    saturatedness of a fresh copy on the same generators, whose data is
    computed from scratch.  Returns the monoids checked.
    """
    built = []
    make = M.AffineMonoid.with_known_cone.__func__

    def record(cls, *args):
        m = make(cls, *args)
        built.append(m)
        return m

    with monkeypatch.context() as mp:
        mp.setattr(M.AffineMonoid, "with_known_cone", classmethod(record))
        run()
    for m in built:
        fresh = M.AffineMonoid(m.ambient, m.gens)
        assert m._cone() == fresh._cone(), m
        assert m.saturate() == fresh.saturate(), m
        assert m.saturate()._cone() == fresh.saturate()._cone(), m
        assert m.is_saturated() == fresh.is_saturated(), m
    return built

