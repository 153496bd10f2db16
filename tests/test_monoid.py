"""Affine monoids: presentations, saturation, membership, faces, quotients."""

import time

import pytest

from conftest import (
    assert_matches_fresh,
    random_affine_monoid,
    random_ambient_monoid,
    random_fp_monoid,
    rng_for,
    same_submonoid,
)
from satmon import monoid as M
from satmon.errors import InvalidFaceError, MembershipError, NotHeightOneError, ResourceLimitError
from satmon.monoid import AffineMonoid, Face, FpMonoid, free_monoid, from_presentation, monoid_from_vectors
from satmon.zlat import FgAbelianGroup, Lattice, node_budget


# ---------------------------------------------------------------------------
# presentations


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
    with_units = [s for s in sats if any(map(any, map(s.ambient.free_part, s.units_face().gens)))]
    assert len(with_units) >= 20
    assert sum(1 for m in monoids if m.ambient.torsion) >= 40
    assert sum(1 for m in monoids if not m.gens) >= 3


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


def test_faces_match_the_union_closure_oracle():
    # every face is an intersection of facets; the union closure of the
    # former algorithm finds the same faces, and the rank of the free parts
    # is the dimension of their saturated span
    rng = rng_for("faces-oracle")
    monoids = [random_ambient_monoid(rng) for _ in range(3000)]
    for rank in (4, 5):
        for _ in range(12):
            m = random_affine_monoid(rng, rank=rank, max_gens=rank + 2, lo=-1, hi=2)
            monoids.append(m.saturate())
    for m in monoids:
        faces = m.faces()
        assert [f.indices for f in faces] == _union_closure_faces(m), m
        assert [f.dim() for f in faces] == [_saturated_span_dim(f) for f in faces], m
    sizes = [len(m.faces()) for m in monoids[3000:]]
    assert max(sizes) >= 20


def test_face_count_over_the_bound_is_refused(monkeypatch):
    # N^3 has 8 faces, N^2 has 4
    monkeypatch.setattr(M, "MAX_FACES", 5)
    assert len(free_monoid(2).faces()) == 4
    with pytest.raises(ResourceLimitError) as e:
        free_monoid(3).faces()
    assert e.value.limit == 5


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
    vals, _, _ = m.height_one_valuation(face)
    assert vals == (2, 1, 0)
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
# height-one valuations


def test_height_one_square():
    n2 = free_monoid(2)
    vals, _, _ = n2.height_one_valuation(n2.face_from_indices((0,)))
    assert vals == (0, 1)  # v(a, b) = b


def test_height_one_identity():
    nn = free_monoid(1)
    vals, _, _ = nn.height_one_valuation(nn.face_from_indices(()))
    assert vals == (1,)


def test_height_one_triangle():
    m = monoid_from_vectors([(1, 0), (1, 1), (1, 2)])
    vals, _, _ = m.height_one_valuation(m.face_from_indices((0,)))
    assert vals == (0, 1, 2)


def test_height_one_error():
    n2 = free_monoid(2)
    with pytest.raises(NotHeightOneError):
        n2.height_one_valuation(n2.face_from_indices(()))  # P/{0} = N^2, not N


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
