"""Affine monoids: presentations, saturation, membership, faces, quotients."""

import glob
import json
import os
import sys
import threading
import time
from collections import Counter

import pytest

from conftest import (
    assert_matches_fresh,
    count_calls,
    random_affine_monoid,
    random_ambient_monoid,
    random_fp_monoid,
    rng_for,
    same_submonoid,
)
from satmon import cli, kernels, zlat
from satmon import documents as D
from satmon import homs as H
from satmon import monoid as M
from satmon.errors import InvalidFaceError, MembershipError, ResourceLimitError
from satmon.monoid import AffineMonoid, Cone, Face, FpMonoid, free_monoid, from_presentation, monoid_from_vectors
from satmon.zlat import FgAbelianGroup, Lattice, node_budget, vdot


# ---------------------------------------------------------------------------
# presentations


def test_fp_monoid_checks_its_relations():
    FpMonoid(2, (((1, 0), (0, 1)),))
    for rel in (((1,), (0, 1)), ((1, 0), (0, 1, 0))):
        with pytest.raises(ValueError, match="length ngens"):
            FpMonoid(2, (rel,))
    for rel in (((-1, 0), (0, 1)), ((1, 0), (0, -1))):
        with pytest.raises(ValueError, match="nonnegative"):
            FpMonoid(2, (((1, 1), (2, 0)), rel))


def test_from_presentation_collapse():
    mono, images, _ = from_presentation(FpMonoid(2, (((1, 0), (0, 1)),)))
    assert mono.ambient == FgAbelianGroup(1)
    assert mono.gens == ((1,),)
    assert images[0] == images[1] == (1,)


def test_from_presentation_free():
    mono, images, _ = from_presentation(FpMonoid(2, ()))
    assert mono.ambient == FgAbelianGroup(2)
    assert len(mono.gens) == 2


def test_from_presentation_single_relation():
    # e1+e2+e3 = 2e1 collapses Z^3 to Z^2 (the relation column is primitive)
    mono, images, _ = from_presentation(
        FpMonoid(3, (((1, 1, 1), (2, 0, 0)),))
    )
    assert mono.ambient == FgAbelianGroup(2)
    assert len(mono.gens) == 3
    amb = mono.ambient
    lhs = amb.add(amb.add(images[0], images[1]), images[2])
    assert lhs == amb.scale(2, images[0])


def test_gens_validation():
    with pytest.raises(ValueError):
        AffineMonoid(FgAbelianGroup(1), [(0,)])
    with pytest.raises(ValueError):
        AffineMonoid(FgAbelianGroup(1), [(1,), (1,)])
    trivial = AffineMonoid(FgAbelianGroup(1), ())
    assert trivial.is_trivial() and trivial.is_saturated()


# ---------------------------------------------------------------------------
# saturation


def test_saturate_numerical_semigroup():
    m = monoid_from_vectors([(2,), (3,)])
    assert m.saturate().gens == ((1,),)


def test_saturate_interior_point():
    m = monoid_from_vectors([(1, 0), (1, 2)])
    assert m.saturate().gens == ((1, 0), (1, 1), (1, 2))


def test_saturate_idempotent_on_free():
    n2 = free_monoid(2)
    assert set(n2.saturate().gens) == set(n2.gens)
    assert n2.is_saturated()


def test_saturate_with_torsion_ambient():
    m = monoid_from_vectors([(1, 0)], rank=1, torsion=(2,))
    sat = m.saturate()
    # saturation picks up the ambient torsion: 2*(0,1) = 0 lies in the monoid
    assert sat.contains((0, 1))
    assert sat.contains((1, 1))
    assert not m.is_saturated()


def test_saturate_idempotent_without_generators():
    # the saturation of the trivial monoid is the torsion subgroup, generated
    # by the torsion units in sorted order like every other saturation
    for amb in (FgAbelianGroup(0, (2, 4)), FgAbelianGroup(1, (2, 2, 6)), FgAbelianGroup(2)):
        s = AffineMonoid(amb, ()).saturate()
        assert s.gens == tuple(sorted(s.gens))
        assert s.saturate() == s
        assert AffineMonoid(amb, s.gens).saturate() == s
        assert s.is_saturated()


def test_saturation_cone_matches_fresh_copy():
    # saturate() hands its cone to the monoid it builds and marks it
    # saturated; a fresh copy recomputes all of that
    rng = rng_for("saturation-known-cone")
    monoids = [AffineMonoid(FgAbelianGroup(2, (3,)), ()), AffineMonoid(FgAbelianGroup(0, (2, 4)), ())]
    monoids += [random_ambient_monoid(rng) for _ in range(120)]
    sats = [m.saturate() for m in monoids]
    for s in sats:
        assert_matches_fresh(s)
    for m in monoids:
        assert m.saturate().saturate() is m.saturate()
    with_units = [s for s in sats if any(map(any, map(s.ambient.free_part, s.face_generated_by([]).gens)))]
    assert len(with_units) >= 20
    assert sum(1 for m in monoids if m.ambient.torsion) >= 40
    assert sum(1 for m in monoids if not m.gens) >= 3


def _smith_form_cone(m):
    """The cone of ``m`` with its span saturated by a Smith form whatever
    its rank."""
    free = m.free_gens()
    span = Lattice(free, m.ambient.rank).saturation()
    coords = tuple(span.coords(f) for f in free)
    nonzero = [c for c in coords if any(c)]
    facets = zlat.facet_normals(nonzero, span.rank) if nonzero else []
    return Cone(span, coords, tuple(facets))


def _span_kind_monoids(rng, count):
    """Monoids of every span kind: free parts of full rank, free parts in a
    random sublattice of lower rank (often not saturated), torsion-only
    generators and no generators, in ambients of rank 0-4 with or without
    torsion."""
    out = []
    while len(out) < count:
        amb = FgAbelianGroup(rng.randint(0, 4), rng.choice([(), (), (2,), (3,), (2, 4)]))
        kind = rng.choice(["full", "full", "lower", "lower", "torsion", "none"])
        k = {"full": amb.rank, "lower": rng.randint(0, max(amb.rank - 1, 0))}.get(kind, 0)
        basis = [
            tuple(rng.choice([1, 2, 3]) * rng.randint(-2, 2) for _ in range(amb.rank))
            for _ in range(k)
        ]
        gens = set()
        for _ in range(0 if kind == "none" else rng.randint(1, 5)):
            free = [0] * amb.rank
            for b in basis:
                c = rng.randint(-2, 2)
                free = [x + c * y for x, y in zip(free, b)]
            gens.add(amb.reduce(tuple(free) + tuple(rng.randint(0, d - 1) for d in amb.torsion)))
        out.append(AffineMonoid(amb, sorted(g for g in gens if any(g))))
    return out


def test_cone_matches_the_smith_form_span_on_every_span_kind():
    # a span of full rank is taken as Z^rank without a Smith form; on every
    # kind of span the cone, the saturation, the saturatedness and the cone
    # coordinates of a point (None outside the span) equal those of the
    # Smith-form path
    rng = rng_for("span-kinds")
    monoids = _span_kind_monoids(rng, 1200)
    oracles = [AffineMonoid(m.ambient, m.gens) for m in monoids]
    for o in oracles:
        o._cache["cone"] = _smith_form_cone(o)
    expected = [(o.saturate(), o.is_saturated()) for o in oracles]
    # each monoid computes its own saturation, none is read off the memo
    M.clear_memo()
    kinds = Counter()
    for m, o, (sat, is_sat) in zip(monoids, oracles, expected):
        cone, want = m._cone(), o._cone()
        assert cone == want and cone.span.pivots == want.span.pivots, m
        assert m.saturate() == sat and m.saturate()._cone() == sat._cone(), m
        assert m.is_saturated() == is_sat, m
        amb = m.ambient
        point = tuple(rng.randint(-3, 3) for _ in range(amb.rank)) + (0,) * len(amb.torsion)
        for x in m.gens + (point,):
            assert m.cone_coords(x) == want.span.coords(amb.free_part(x)), (m, x)
        kinds["point outside span"] += m.cone_coords(point) is None
        free = m.free_gens()
        kinds["full"] += want.span.rank == m.ambient.rank
        kinds["lower"] += 0 < want.span.rank < m.ambient.rank
        kinds["unsaturated span"] += Lattice(free, m.ambient.rank).basis != want.span.basis
        kinds["torsion ambient"] += bool(m.ambient.torsion)
        kinds["torsion only"] += bool(m.gens) and not any(map(any, free))
        kinds["rank 0"] += m.ambient.rank == 0
        kinds["no generators"] += not m.gens
        kinds["not saturated"] += not is_sat
    assert kinds["full"] >= 400 and kinds["lower"] >= 200, kinds
    assert kinds["unsaturated span"] >= 100 and kinds["torsion ambient"] >= 400, kinds
    assert min(kinds["torsion only"], kinds["rank 0"], kinds["no generators"]) >= 50, kinds
    assert kinds["not saturated"] >= 100 and kinds["point outside span"] >= 100, kinds


def test_full_rank_saturate_runs_no_hermite_or_smith_form(monkeypatch):
    # a pointed cone whose free parts have full rank: its span is Z^3, read
    # off directly, so the request runs no Hermite or Smith form
    m = monoid_from_vectors([(1, 0, 0), (0, 1, 0), (1, 1, 2), (0, 1, 3)])
    request = {"format": "satmon/1", "kind": "request", "op": "saturate",
               "args": {"monoid": D.monoid_out(m)}}
    hnf = count_calls(monkeypatch, kernels, "hnf_rows")
    snf = count_calls(monkeypatch, kernels, "snf_with_transforms")
    report, code = cli.run_request(request)
    assert code == 0 and report["result"]["already_saturated"] is False
    assert len(hnf) == len(snf) == 0


def test_cone_rays_match_double_description_on_the_facets():
    # the rays read off the generators' facet zero sets are the extreme rays
    # that double description finds on the facets, with the same masks; a
    # cone with units has none, so its saturation takes the quotient path
    rng = rng_for("cone-rays-incidence")
    monoids = [random_ambient_monoid(rng) for _ in range(300)]
    while len(monoids) < 600:
        # the Hilbert basis of a random H-cone, lower-dimensional when a
        # row is negated
        dim = rng.randint(1, 4)
        rows = [tuple(rng.randint(-2, 2) for _ in range(dim)) for _ in range(rng.randint(1, dim + 2))]
        if rng.random() < 0.3:
            rows.append(tuple(-x for x in rows[0]))
        sharp, units = zlat.hilbert_from_hrep(rows, dim)
        gens = sharp + units + [tuple(-x for x in u) for u in units]
        if gens:
            monoids.append(monoid_from_vectors(gens, dim))
    pointed = with_units = lower = 0
    for m in monoids:
        cone = m._cone()
        rank = cone.span.rank
        lower += rank < m.ambient.rank
        if rank and (not cone.facets or zlat.kernel_basis([list(f) for f in cone.facets])):
            assert cone.rays is None and cone.triangulation is None, m
            with_units += 1
            continue
        pairs = zlat._double_description(list(cone.facets), rank) if rank else []
        assert cone.rays == tuple(sorted(pairs)), m
        pointed += 1
    assert pointed >= 300 and with_units >= 100 and lower >= 100


def test_membership_witnesses():
    m = monoid_from_vectors([(2,), (3,)])
    w = m.membership((7,))
    assert w == (2, 1)
    assert m.membership((1,)) is None
    m2 = monoid_from_vectors([(1, 0), (1, 2)])
    assert m2.membership((1, 1)) is None  # in the saturation, not the monoid
    assert m2.membership((2, 2)) == (1, 1)


def test_membership_of_a_generator_is_its_unit_vector():
    p = monoid_from_vectors([(1, 0, 0), (0, 1, 1), (1, 1, 0)], torsion=(2,))
    for i, g in enumerate(p.gens):
        assert p.membership(g) == tuple(1 if j == i else 0 for j in range(p.ngens))
    # generator images reduce first: (1, 1, 2) is (1, 1, 0) mod 2
    assert p.membership((1, 1, 2)) == (0, 0, 1)
    # N generated by 1 and 2: non-generators still get a witness from the LP
    n = monoid_from_vectors([(1,), (2,)])
    assert n.membership((2,)) == (0, 1)
    for x in (3, 4, 7):
        w = n.membership((x,))
        assert w is not None and min(w) >= 0
        assert n.element_from_exponents(w) == (x,)
    assert n.membership((-1,)) is None


def _sum_in(amb, coeffs, vecs):
    """sum c_i v_i in Z^rank + torsion, with the test's own arithmetic."""
    r = amb.rank
    tot = [sum(c * v[i] for c, v in zip(coeffs, vecs)) for i in range(amb.dim)]
    return tuple(tot[:r]) + tuple(x % d for x, d in zip(tot[r:], amb.torsion))


def test_torsion_membership_reproducers_are_decided():
    # Decided only if no torsion slack is a ray of the branch-and-bound LP.
    notes_example = [(1, 0, 0, 2), (1, 1, 0, 1), (1, 1, 1, 2), (1, 2, 0, 1), (0, 0, 0, 1)]
    cases = [
        (FgAbelianGroup(1, (3,)), [(1, 1), (1, 0)], (0, 1), False),
        (FgAbelianGroup(3, (3,)), notes_example, (1, 1, 0, 0), True),
    ]
    for amb, gens, x, member in cases:
        m = AffineMonoid(amb, gens)
        t0 = time.perf_counter()
        with node_budget(2000):
            a = m.membership(x)
        assert time.perf_counter() - t0 < 1.0
        assert (a is not None) == member
        if member:
            assert min(a) >= 0 and _sum_in(amb, a, m.gens) == x


def _sums_up_to(amb, gens, bound):
    """Every sum of ``gens`` whose first coordinate is at most ``bound``.
    Each generator's first coordinate is >= 1, so these are all the sums of
    at most ``bound`` generators that can have that first coordinate."""
    zero = amb.zero()
    seen, frontier = {zero}, [zero]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = _sum_in(amb, (1, 1), (x, g))
                if y[0] <= bound and y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return seen


def test_torsion_membership_matches_enumeration():
    """On 1,000 random monoids in Z^r + T, every membership verdict agrees
    with an enumeration of the sums, and none is refused at 2,000 nodes."""
    rng = rng_for("torsion-membership")
    verdicts = {True: 0, False: 0}
    for _ in range(1000):
        amb = FgAbelianGroup(rng.randint(1, 3), rng.choice([(2,), (3,), (2, 4), (2, 2)]))
        gens = set()
        for _ in range(rng.randint(1, 4)):
            g = (rng.randint(1, 2),) + tuple(rng.randint(-2, 2) for _ in range(amb.rank - 1))
            gens.add(g + tuple(rng.randrange(d) for d in amb.torsion))
        m = AffineMonoid(amb, sorted(gens))
        inside = _sum_in(amb, [rng.randint(0, 2) for _ in m.gens], m.gens)
        outside = (rng.randint(0, 4),) + tuple(
            rng.randint(-3, 3) for _ in range(amb.rank - 1)
        ) + tuple(rng.randrange(d) for d in amb.torsion)
        for x in (inside, outside):
            members = _sums_up_to(amb, m.gens, x[0])
            with node_budget(2000):
                a = m.membership(x)
            assert (a is not None) == (x in members), (m, x)
            if a is not None:
                assert min(a) >= 0 and _sum_in(amb, a, m.gens) == x, (m, x, a)
            verdicts[a is not None] += 1
    assert verdicts[True] >= 1000 and verdicts[False] >= 500, verdicts


# ---------------------------------------------------------------------------
# faces


def test_faces_square():
    n2 = free_monoid(2)
    faces = n2.faces()
    assert [f.indices for f in faces] == [(), (0,), (1,), (0, 1)]


def test_faces_line():
    assert len(free_monoid(1).faces()) == 2


def test_faces_of_saturated_triangle():
    m = monoid_from_vectors([(1, 0), (1, 1), (1, 2)])
    faces = m.faces()
    assert len(faces) == 4
    assert {f.indices for f in faces} == {(), (0,), (2,), (0, 1, 2)}


def _union_closure_faces(m):
    """The faces as the closures of the single generators, closed under
    pairwise unions: the former ``faces`` algorithm, kept as an oracle."""
    found = {m._closure(()), m._closure(tuple(range(m.ngens)))}
    found |= {m._closure((i,)) for i in range(m.ngens)}
    changed = True
    while changed:
        changed = False
        for a in sorted(found):
            for b in sorted(found):
                c = m._closure(tuple(sorted(set(a) | set(b))))
                if c not in found:
                    found.add(c)
                    changed = True
    return sorted(found, key=lambda t: (len(t), t))


def _saturated_span_dim(face):
    """Face dimension from the saturated span of its free parts: the
    former ``Face.dim``, kept as an oracle."""
    amb = face.monoid.ambient
    return len(Lattice([amb.free_part(g) for g in face.gens], amb.rank).saturation().basis)


def _facet_values(m):
    """{zero set: values on the generators} of each primitive facet normal."""
    out = {}
    for phi in m.cone_facets():
        vals = tuple(vdot(phi, m.cone_coords(g)) for g in m.gens)
        out[tuple(i for i, v in enumerate(vals) if v == 0)] = vals
    return out


def test_faces_match_the_union_closure_oracle():
    # every face is an intersection of facets; the union closure of the
    # former algorithm finds the same faces, and the faces of corank one,
    # by the dimension of their saturated span, are the facet zero sets
    rng = rng_for("faces-oracle")
    monoids = [random_ambient_monoid(rng) for _ in range(3000)]
    for rank in (4, 5):
        for _ in range(12):
            m = random_affine_monoid(rng, rank=rank, max_gens=rank + 2, lo=-1, hi=2)
            monoids.append(m.saturate())
    for m in monoids:
        faces = m.faces()
        assert [f.indices for f in faces] == _union_closure_faces(m), m
        rank = m.span_lattice().rank
        corank_one = [f.indices for f in faces if rank - _saturated_span_dim(f) == 1]
        assert sorted(_facet_values(m), key=lambda t: (len(t), t)) == corank_one, m
    sizes = [len(m.faces()) for m in monoids[3000:]]
    assert max(sizes) >= 20


def test_face_count_over_the_bound_is_refused():
    # N^3 has 8 faces.  Each cut is charged the generator indices it scans:
    # 3, then 3 + 2, then 3 + 2 + 2 + 1, after the 3 rays that double
    # description forms for the facets, so 19 nodes in all
    with node_budget(19):
        assert len(free_monoid(3).faces()) == 8
    with node_budget(18):
        with pytest.raises(ResourceLimitError, match="face enumeration") as e:
            free_monoid(3).faces()
    assert e.value.limit == 18


def test_spec_bijection_under_saturation():
    rng = rng_for("spec-bij")
    for _ in range(30):
        fp = random_fp_monoid(rng)
        mono, _, _ = from_presentation(fp)
        if mono.is_trivial():
            continue
        sat = mono.saturate()
        assert len(mono.faces()) == len(sat.faces())


def test_face_generated_by_interior():
    n2 = free_monoid(2)
    f = n2.face_generated_by([(1, 1)])
    assert f.is_whole()  # (1,0) + (0,1) = (1,1) forces both axes in
    f = n2.face_generated_by([(1, 0)])
    assert f.indices == (0,)
    f = n2.face_generated_by([])
    assert f.indices == ()  # empty intersection convention: the unit face


def test_face_generated_by_equals_intersection_bruteforce():
    rng = rng_for("face-gen")
    for _ in range(25):
        fp = random_fp_monoid(rng, max_gens=3)
        mono, _, _ = from_presentation(fp)
        if mono.is_trivial():
            continue
        faces = mono.faces()
        if len(faces) > 16:
            continue
        for i in range(mono.ngens):
            s = [mono.gens[i]]
            got = mono.face_generated_by(s)
            containing = [
                set(f.indices) for f in faces if i in f.indices
            ]
            expected = set.intersection(*containing) if containing else set()
            assert set(got.indices) == expected


def test_face_generated_by_membership_error():
    n2 = free_monoid(2)
    with pytest.raises(MembershipError):
        n2.face_generated_by([(-1, 0)])


def test_face_validation():
    n2 = free_monoid(2)
    assert n2.face_from_indices((0, 1)).is_whole()
    # the interior generator of the triangle spans no face
    m = monoid_from_vectors([(1, 0), (1, 2), (1, 1)])
    with pytest.raises(InvalidFaceError):
        m.face_from_indices((2,))


# ---------------------------------------------------------------------------
# localization and quotients


def test_localize_axis():
    n2 = free_monoid(2)
    loc = n2.localize(n2.face_from_indices((0,)))
    assert same_submonoid(
        loc, monoid_from_vectors([(1, 0), (0, 1), (-1, 0)])
    )
    # localizing at the whole monoid gives the group
    grp = n2.localize(n2.face_from_indices((0, 1)))
    assert grp.contains((-3, -5))
    # localizing at the unit face is the identity
    same = n2.localize(n2.face_from_indices(()))
    assert same_submonoid(same, n2)


def test_quotient_by_face_examples():
    n2 = free_monoid(2)
    q, images, _ = n2.quotient_by_face(n2.face_from_indices((0,)))
    assert q.ambient == FgAbelianGroup(1)
    assert same_submonoid(q, free_monoid(1))
    q2, _, _ = n2.quotient_by_face(n2.face_from_indices(()))
    assert q2.ambient.rank == 2


def test_quotient_by_ray_of_triangle():
    # quotient of <(1,0),(1,1),(1,2)> by the ray of (1,2): classes map to 2, 1
    m = monoid_from_vectors([(1, 0), (1, 1), (1, 2)])
    face = m.face_from_indices((2,))
    q, images, pres = m.quotient_by_face(face)
    assert _facet_values(m)[(2,)] == (2, 1, 0)
    assert same_submonoid(q, free_monoid(1)) or q.ambient.rank == 1


def test_localize_quotient_commute_with_saturation():
    rng = rng_for("loc-sat")
    for _ in range(20):
        fp = random_fp_monoid(rng, max_gens=3)
        mono, _, _ = from_presentation(fp)
        if mono.is_trivial():
            continue
        sat = mono.saturate()
        for f in sat.faces():
            loc = sat.localize(f)
            assert same_submonoid(loc.saturate(), loc) or loc.is_saturated()
            q, _, _ = sat.quotient_by_face(f)
            assert q.is_saturated()


# ---------------------------------------------------------------------------
# height-one valuations: the primitive facet normals


def test_height_one_square():
    n2 = free_monoid(2)
    assert _facet_values(n2)[(0,)] == (0, 1)  # v(a, b) = b


def test_height_one_identity():
    nn = free_monoid(1)
    assert _facet_values(nn) == {(): (1,)}
    rep = H.ramification_indices(H.MonoidHom.identity(nn))
    assert rep.indices == (((), 1),) and rep.skipped == ()


def test_height_one_triangle():
    m = monoid_from_vectors([(1, 0), (1, 1), (1, 2)])
    assert _facet_values(m) == {(0,): (0, 1, 2), (2,): (2, 1, 0)}


def test_height_one_error():
    # the empty face of N^2 is the face of no facet (P/{0} = N^2, not N), so
    # a target facet whose preimage is that face is skipped
    n2 = free_monoid(2)
    assert () not in _facet_values(n2)
    rep = H.ramification_indices(H.MonoidHom(n2, free_monoid(1), [(1,), (1,)]))
    assert rep.indices == () and rep.skipped == ((),)


# ---------------------------------------------------------------------------
# Gordan closure: saturating a presentation regenerates itself


def test_gordan_closure_property():
    rng = rng_for("gordan-closure")
    for _ in range(20):
        fp = random_fp_monoid(rng)
        mono, _, _ = from_presentation(fp)
        sat = mono.saturate()
        again = sat.saturate()
        assert again.gens == sat.gens
        assert all(sat.contains(g) for g in mono.gens)


# ---------------------------------------------------------------------------
# the process-wide memo: equal monoids share their cone, saturation and
# saturatedness, and every report is that of a fresh process

MEMO_BUDGETS = (30, 100, 300, 1000, 2000, None)
GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def _at_budget(request, budget):
    r = {k: v for k, v in request.items() if k != "budget"}
    if budget is not None:
        r["budget"] = str(budget)
    return r


def _report_text(request):
    return json.dumps(cli.run_request(request)[0], indent=2, ensure_ascii=True)


def _memo_requests():
    """classify requests of the homs of tests/test_homs.py (torsion
    targets, sources of rank 1-3) and of the identity on each target, and
    every golden request, at each of ``MEMO_BUDGETS``, in a seeded
    shuffled order.  The default budget runs only on the homs answered
    within 5000 nodes, as a search the default lets run can take seconds."""
    from test_homs import _random_hom, _random_saturated_hom

    rng = rng_for("memo-replay")
    homs = []
    for i in range(40):
        f = (_random_hom if i % 2 else _random_saturated_hom)(rng)
        homs += [f, H.MonoidHom.identity(f.target)]
    requests = []
    for f in homs:
        r = {"format": "satmon/1", "kind": "request", "op": "classify",
             "args": {"hom": D.hom_out(f)}, "sigma": {"primes": [str(rng.choice((2, 3)))]}}
        M.clear_memo()
        cheap = "error" not in cli.run_request(_at_budget(r, 5000))[0]["result"]
        requests += [_at_budget(r, b) for b in MEMO_BUDGETS if b is not None or cheap]
    for path in sorted(glob.glob(os.path.join(GOLDEN, "*.request.json"))):
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        for r in doc.get("requests", [doc]):
            requests += [_at_budget(r, b) for b in MEMO_BUDGETS]
    rng.shuffle(requests)
    assert sum(r["op"] == "classify" for r in requests) >= 200
    assert any(f.source.ambient.rank == 3 for f in homs)
    assert any(f.target.ambient.torsion for f in homs)
    return requests


@pytest.fixture(scope="module")
def memo_corpus():
    """The requests, each one's report from an empty memo, and the number
    of cones those reports built."""
    requests = _memo_requests()
    fresh = []
    with pytest.MonkeyPatch.context() as mp:
        builds = count_calls(mp, AffineMonoid, "_build_cone")
        for r in requests:
            M.clear_memo()
            fresh.append(_report_text(r))
    return requests, fresh, len(builds)


def test_reports_with_a_warm_memo_equal_those_of_a_fresh_process(monkeypatch, memo_corpus):
    requests, fresh, fresh_builds = memo_corpus
    builds = count_calls(monkeypatch, AffineMonoid, "_build_cone")
    for r, want in zip(requests, fresh):
        assert _report_text(r) == want, r
    refused = Counter(json.loads(t)["result"].get("message", "").split(" node")[0] for t in fresh)
    # refusals in each cone search and in completion are among the reports,
    # and most cones are read off the memo
    assert {"double description", "Hilbert basis", "completion"} <= set(refused)
    assert 4 * len(builds) < fresh_builds


def test_batches_that_repeat_monoids_give_the_same_reports_on_any_jobs(memo_corpus):
    requests, fresh, _ = memo_corpus
    classify = [(r, t) for r, t in zip(requests, fresh) if r["op"] == "classify"][:120]
    batch = {"format": "satmon/1", "kind": "batch", "requests": [r for r, _ in classify] * 2}
    want = [json.loads(t) for _, t in classify] * 2
    M.clear_memo()
    assert cli.run_batch(batch, jobs=1)[0]["reports"] == want
    # more threads than cores and a short switch interval, on a cleared and
    # on a filled memo: threads fill and read the same entries
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for cleared in (True, False):
            if cleared:
                M.clear_memo()
            out = []
            t = threading.Thread(target=lambda: out.append(cli.run_batch(batch, jobs=4)))
            t.start()
            t.join(120)
            assert not t.is_alive()
            assert out[0][0]["reports"] == want
    finally:
        sys.setswitchinterval(old)


def _charges(m, reads, budget):
    """The block's total after each read of ``reads`` on m, ending with the
    message of the refusal that stops them, if one does."""
    out = []
    with node_budget(budget):
        block = zlat._NODE_BUDGET.get()
        try:
            for name in reads:
                getattr(m, name)()
                out.append(block[1])
        except ResourceLimitError as e:
            out.append(str(e))
    return out


def test_a_memo_hit_charges_each_read_as_a_fresh_process_does():
    # the cone is charged its double description (7 nodes) and the
    # saturation its Hilbert basis (8 more); whichever order filled the
    # memo, a monoid that reads its cone first and one that asks for
    # saturatedness first each pay, and are refused, as a fresh process
    gens = [(1, 0, 0), (0, 1, 0), (1, 1, 3), (0, 1, 2), (2, 0, 1)]
    cone_first, sat_first = ("_cone", "is_saturated"), ("is_saturated",)
    seen = Counter()
    for budget in range(17):
        for filled in (cone_first, sat_first):
            for order in ((cone_first, sat_first), (sat_first, cone_first)):
                M.clear_memo()
                want = []
                for reads in order:
                    M.clear_memo()
                    want.append(_charges(monoid_from_vectors(gens), reads, budget))
                M.clear_memo()
                # the first sighting of a value is not kept; the second is
                for _ in range(2):
                    _charges(monoid_from_vectors(gens), filled, 10 ** 6)
                got = [_charges(monoid_from_vectors(gens), reads, budget) for reads in order]
                assert got == want, (budget, filled, order)
                seen.update(str(x).split(" node")[0] for w in want for x in w[-1:])
        assert len(M._MEMO) == 1
    assert seen["double description"] and seen["Hilbert basis"] and seen["15"]
