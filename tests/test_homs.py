"""Morphism taxonomy: profiles, predicates, pushouts, Vidal, semistable."""

import pytest

from conftest import (
    criterion05_corpus,
    hom_preimage_box_violation,
    integrality_box_bound,
    integrality_box_tuples,
    integrality_box_violation,
    integrality_witness_in_box,
    face_preimage,
    ogus_data,
    random_affine_monoid,
    rng_for,
    same_submonoid,
)
from satmon import homs as H
from satmon import monoid as M
from satmon import zlat
from satmon.errors import MembershipError, ResourceLimitError, TorsionPreconditionError
from satmon.monoid import free_monoid, monoid_from_vectors
from satmon.sigma import PrimeSet
from satmon.zlat import FgAbelianGroup


def doubling(nat):
    return H.MonoidHom(nat, M.free_monoid(1), [(2,)])


# ---------------------------------------------------------------------------
# construction and profiles


def test_hom_validation_rejects_bad_images(nat2, nat):
    # sum map is fine ...
    H.MonoidHom(nat2, nat, [(1,), (1,)])
    # ... but an image outside the target is not
    with pytest.raises(MembershipError):
        H.MonoidHom(nat, nat, [(-1,)])
    # and images must respect relations: here 2x = 3y in the source
    mono, images, _ = M.from_presentation(M.FpMonoid(2, (((2, 0), (0, 3)),)))
    assert mono.ngens == 2
    with pytest.raises(ValueError):
        H.MonoidHom(mono, free_monoid(1), [(1,), (1,)])


def test_gp_profile_doubling(nat):
    prof = H.gp_profile(doubling(nat))
    assert prof.kernel.order() == 1
    assert (prof.cokernel.rank, prof.cokernel.torsion) == (0, (2,))
    assert prof.torsion_order == 2


def test_gp_profile_sum(nat2, nat):
    prof = H.gp_profile(H.MonoidHom(nat2, nat, [(1,), (1,)]))
    assert (prof.kernel.rank, prof.kernel.torsion) == (1, ())
    assert prof.cokernel.order() == 1


def test_gp_profile_half_grid_chart():
    # the fs chart N^2 -> (1/2)N^2 has cokernel (Z/2)^2
    f = H.MonoidHom(free_monoid(2), free_monoid(2), [(2, 0), (0, 2)])
    prof = H.gp_profile(f)
    assert (prof.cokernel.rank, prof.cokernel.torsion) == (0, (2, 2))
    assert prof.torsion_order == 4


# ---------------------------------------------------------------------------
# exactness


def test_exact_doubling(nat):
    assert H.is_exact(doubling(nat)).holds


def test_exact_sum_fails(nat2, nat):
    v = H.is_exact(H.MonoidHom(nat2, nat, [(1,), (1,)]))
    assert not v.holds
    cert = v.certificate["preimage_element_outside_source"]
    assert cert in ((1, -1), (-1, 1))


def test_exact_agrees_with_box_oracle_on_corpus(nat, nat2):
    corpus = [
        doubling(nat),
        H.MonoidHom(nat2, nat, [(1,), (1,)]),
        H.MonoidHom(nat, nat2, [(1, 1)]),
        H.MonoidHom(nat, nat2, [(1, 2)]),
        H.MonoidHom.identity(nat2),
        H.MonoidHom(nat2, nat2, [(2, 0), (0, 2)]),
        H.MonoidHom(nat2, nat2, [(1, 1), (0, 1)]),
    ]
    for f in corpus:
        got = H.is_exact(f).holds
        violation = hom_preimage_box_violation(f, radius=4)
        assert got == (violation is None), f


# ---------------------------------------------------------------------------
# integrality (the Ogus regression)


def test_integral_identity(nat2):
    assert H.is_integral(H.MonoidHom.identity(nat2)).holds


def test_ogus_theta0_integral():
    theta0, arm, p = ogus_data()
    assert H.is_integral(theta0).holds


def test_ogus_base_change_not_integral_with_reverifiable_certificate():
    theta0, arm, p = ogus_data()
    po = H.pushout(theta0, arm, "sat")
    q = po.monoid
    # the saturated pushout is (1/2)N^2 x Z/2: group invariants match exactly
    gp = q.gp_presentation().group
    assert (gp.rank, gp.torsion) == (2, (2,))
    theta = po.left
    v = H.is_integral(theta)
    assert not v.holds
    assert H.reverify_integral_certificate(theta, v.certificate)


def test_integral_agrees_with_box_oracle_small():
    nat = free_monoid(1)
    nat2 = free_monoid(2)
    corpus = [
        doubling(nat),
        H.MonoidHom(nat2, nat, [(1,), (1,)]),
        H.MonoidHom(nat, nat2, [(1, 1)]),
        H.MonoidHom.identity(nat2),
    ]
    for f in corpus:
        got = H.is_integral(f).holds
        violation = integrality_box_violation(f, bound=2)
        assert got == (violation is None), f


# ---------------------------------------------------------------------------
# verticality


def test_vertical_semistable(nat):
    hom, _ = H.semistable_extension(nat, (1,), 2)
    assert H.is_vertical(hom).holds


def test_vertical_zero_to_nat(nat):
    trivial = M.AffineMonoid(FgAbelianGroup(1), ())
    v = H.is_vertical(H.MonoidHom(trivial, nat, []))
    assert not v.holds
    assert v.certificate["target_generator_outside_face"] == (1,)


def test_vertical_diagonal(nat, nat2):
    assert H.is_vertical(H.MonoidHom(nat, nat2, [(1, 1)])).holds


# ---------------------------------------------------------------------------
# classification


def test_classify_half_inclusion(nat, half_inclusion):
    rep = H.classify(half_inclusion, PrimeSet.of(3))
    assert rep.kummer_etale.holds
    rep = H.classify(half_inclusion, PrimeSet.of(2))
    assert not rep.smooth.holds
    assert "cokernel_torsion_order_not_coprime" in rep.smooth.certificate


def test_classify_identity_any_sigma(nat2):
    for sigma in (PrimeSet.empty(), PrimeSet.of(2, 3), PrimeSet.all_except(7)):
        rep = H.classify(H.MonoidHom.identity(nat2), sigma)
        assert rep.kummer_etale.holds


def test_classify_closure_invariants(nat2):
    f = H.MonoidHom(nat2, nat2, [(2, 0), (0, 2)])
    rep = H.classify(f, PrimeSet.of(3))
    assert rep.kummer_etale.holds and rep.etale.holds and rep.smooth.holds
    rep = H.classify(f, PrimeSet.of(2))
    assert not rep.smooth.holds and not rep.etale.holds and not rep.kummer_etale.holds


def test_classify_requires_saturated():
    bad = monoid_from_vectors([(2,), (3,)])
    with pytest.raises(Exception):
        H.classify(H.MonoidHom.identity(bad), PrimeSet.empty())


# ---------------------------------------------------------------------------
# ramification indices


def test_ramification_scaling(nat):
    rep = H.ramification_indices(H.MonoidHom(nat, M.free_monoid(1), [(3,)]))
    assert rep.indices == (((), 3),)


def test_ramification_two_axes(nat, nat2):
    rep = H.ramification_indices(H.MonoidHom(nat, nat2, [(1, 2)]))
    es = dict(rep.indices)
    assert es[(0,)] == 2  # face = ray of e1, valuation = second coordinate
    assert es[(1,)] == 1
    assert rep.skipped == ()


def test_ramification_semistable_all_one(nat):
    hom, _ = H.semistable_extension(nat, (1,), 3)
    rep = H.ramification_indices(hom)
    assert len(rep.indices) == 3
    assert all(e == 1 for _, e in rep.indices)


def test_ramification_smooth_not_etale(smooth_not_etale):
    rep = H.ramification_indices(smooth_not_etale)
    es = [e for _, e in rep.indices]
    assert 2 in es


# ---------------------------------------------------------------------------
# pushouts


def test_pushout_along_identity(nat2, nat):
    f = H.MonoidHom(nat2, nat, [(1,), (1,)])
    po = H.pushout(f, H.MonoidHom.identity(nat2), "sat")
    assert same_submonoid(po.monoid, po.right.target)
    gp = po.monoid.gp_presentation().group
    assert (gp.rank, gp.torsion) == (1, ())


def test_pushout_doubled_nat(nat):
    two = doubling(nat)
    po = H.pushout(two, two, "sat")
    gp = po.monoid.gp_presentation().group
    assert (gp.rank, gp.torsion) == (1, (2,))


def test_pushout_category_mon_and_int(nat):
    two = doubling(nat)
    po = H.pushout(two, two, "mon")
    assert po.monoid is None and po.fp.ngens == 2
    po = H.pushout(two, two, "int")
    assert po.monoid is not None


def test_pushout_gp_invariant_lemma(nat, nat2):
    rng = rng_for("pushout-gp")
    from conftest import random_saturated_monoid, random_endo_map

    for i in range(25):
        p0 = random_saturated_monoid(rng, rank=2)
        along = random_endo_map(rng, p0)
        arm = random_endo_map(rng, p0)
        po = H.pushout(along, arm, "sat")
        c0 = H.gp_profile(along).cokernel
        c1 = H.gp_profile(po.left).cokernel
        assert (c0.rank, c0.torsion) == (c1.rank, c1.torsion)


# ---------------------------------------------------------------------------
# Vidal decomposition


def test_vidal_half_nat(nat, half_inclusion):
    rep = H.vidal_decompose(half_inclusion)
    assert rep.verified
    gp = rep.double.gp_presentation().group
    assert (gp.rank, gp.torsion) == (1, (2,))
    gp2 = rep.product.gp_presentation().group
    assert (gp.rank, gp.torsion) == (gp2.rank, gp2.torsion)


def test_vidal_identity(nat2):
    rep = H.vidal_decompose(H.MonoidHom.identity(nat2))
    assert rep.verified
    assert same_submonoid(rep.product, rep.product)
    gp = rep.double.gp_presentation().group
    assert (gp.rank, gp.torsion) == (2, ())


def test_vidal_half_grid():
    f = H.MonoidHom(free_monoid(2), free_monoid(2), [(2, 0), (0, 2)])
    rep = H.vidal_decompose(f)
    assert rep.verified
    gp = rep.double.gp_presentation().group
    assert (gp.rank, gp.torsion) == (2, (2, 2))


def test_vidal_requires_torsion_cokernel(nat, nat2):
    with pytest.raises(TorsionPreconditionError):
        H.vidal_decompose(H.MonoidHom(nat, nat2, [(1, 1)]))


# ---------------------------------------------------------------------------
# semistable extensions


def test_semistable_nat_pi_one(nat):
    hom, new_gens = H.semistable_extension(nat, (1,), 2)
    t = hom.target
    gp = t.gp_presentation().group
    assert (gp.rank, gp.torsion) == (2, ())
    assert t.is_saturated()
    amb = t.ambient
    assert hom.gen_images[0] == amb.add(new_gens[0], new_gens[1])
    rep = H.classify(hom, PrimeSet.of(5), include_integral=False)
    assert rep.smooth.holds and rep.vertical.holds


def test_semistable_n_zero(nat):
    hom, new_gens = H.semistable_extension(nat, (0,), 0)
    assert hom.source == hom.target
    with pytest.raises(MembershipError):
        H.semistable_extension(nat, (1,), 0)
    with pytest.raises(MembershipError):
        H.semistable_extension(nat, (-1,), 2)


def test_semistable_rank3_target(nat2):
    hom, _ = H.semistable_extension(nat2, (1, 1), 2)
    gp = hom.target.gp_presentation().group
    assert (gp.rank, gp.torsion) == (3, ())
    assert hom.target.is_saturated()


# ---------------------------------------------------------------------------
# composition closure (spot checks)


def test_composition_closure(nat):
    two = doubling(nat)
    three = H.MonoidHom(M.free_monoid(1), M.free_monoid(1), [(3,)])
    comp = H.compose(two, three)
    sigma = PrimeSet.of(5)
    r1 = H.classify(two, sigma, include_integral=False)
    r2 = H.classify(three, sigma, include_integral=False)
    rc = H.classify(comp, sigma, include_integral=False)
    for name in ("injective", "exact", "smooth", "etale", "kummer_etale"):
        if getattr(r1, name).holds and getattr(r2, name).holds:
            assert getattr(rc, name).holds, name


# ---------------------------------------------------------------------------
# fibers of Spec(Q) -> Spec(P)


def test_face_map_fiber_bound(nat, nat2):
    # sat-generating set of the target over the source: its own generators
    corpus = [
        doubling(nat),
        H.MonoidHom(nat, nat2, [(1, 1)]),
        H.MonoidHom(nat2, nat2, [(2, 0), (0, 2)]),
    ]
    for f in corpus:
        s = len(f.target.gens)
        fibers = {}
        for face in f.target.faces():
            pre = face_preimage(f, face)
            fibers.setdefault(pre.indices, 0)
            fibers[pre.indices] += 1
        assert max(fibers.values()) <= 2 ** s


def test_kummer_etale_face_bijection(nat2):
    f = H.MonoidHom(nat2, nat2, [(2, 0), (0, 2)])
    assert H.classify(f, PrimeSet.of(3)).kummer_etale.holds
    images = set()
    for face in f.target.faces():
        images.add(face_preimage(f, face).indices)
    assert len(images) == len(f.target.faces()) == len(f.source.faces())


def test_box_witness_oracle_agrees_with_lp_witness():
    """Criterion 05's LP-free witness search matches the LP-backed one.

    Over the criterion-05 corpus: every relation-monoid generator, and every
    tuple of the criterion's box (theta: up to its first violation).  Both
    the search and the public check, which constructs the witness of an
    ordered tuple, must agree with the box.
    """
    small_corpus, theta = criterion05_corpus()
    for f in small_corpus + [theta]:
        tuples = list(H.integrality_tuple_generators(f))
        for tup in integrality_box_tuples(f, integrality_box_bound(f)):
            tuples.append(tup)
            if f is theta and not integrality_witness_in_box(f, tup):
                break
        cache = {}
        for tup in tuples:
            want = integrality_witness_in_box(f, tup, cache)
            assert H._integral_witness_search(f, tup) == want, (f, tup)
            assert H._integral_witness_exists(f, tup) == want, (f, tup)


def _random_linear_hom(rng, torsion):
    """A hom out of a random affine monoid whose images are linear in the
    source coordinates, so they respect every source relation; the target
    lives in Z^r, or in Z^r + Z/3 when ``torsion``."""
    src = random_affine_monoid(rng, rank=rng.randint(1, 2), max_gens=2, lo=0, hi=2)
    amb = FgAbelianGroup(rng.randint(1, 2), (3,) if torsion else ())
    lin = [[rng.randint(-1, 2) for _ in range(src.ambient.rank)] for _ in range(amb.dim)]
    images = [amb.reduce(tuple(sum(c * x for c, x in zip(row, p)) for row in lin)) for p in src.gens]
    gens = {im for im in images if any(im)}
    extra = amb.reduce(tuple(rng.randint(-1, 2) for _ in range(amb.dim)))
    if any(extra) and rng.random() < 0.5:
        gens.add(extra)
    return H.MonoidHom(src, M.AffineMonoid(amb, sorted(gens)), images)


def _combination(coeffs, vecs, dim):
    return tuple(sum(c * v[i] for c, v in zip(coeffs, vecs)) for i in range(dim))


def _same_element(amb, u, v):
    """u == v in Z^rank + torsion, with the test's own arithmetic."""
    r = amb.rank
    return u[:r] == v[:r] and all((x - y) % d == 0 for x, y, d in zip(u[r:], v[r:], amb.torsion))


def _witness_corpus():
    """The criterion-05 corpus and 200 random homs, a third of them with
    targets in Z^r + Z/3."""
    rng = rng_for("constructed-witness")
    small_corpus, theta = criterion05_corpus()
    return small_corpus + [theta] + [_random_linear_hom(rng, i % 3 == 0) for i in range(200)]


def test_ordered_tuples_have_the_constructed_witness():
    """Every ordered relation-monoid generator (a1 >= a2 or a2 >= a1) has the
    witness ``is_integral`` constructs, and the search agrees.

    Over the criterion-05 corpus and 200 random homs, a third of them with
    targets in Z^r + Z/3.  The witness (0, a1 - a2, b1), or (a2 - a1, 0, b2),
    is checked against b1 = f(a3) + b, b2 = f(a4) + b and a1 + a3 = a2 + a4
    with the test's own arithmetic.  The search may run out of nodes only in
    a torsion ambient, where branch-and-bound can miss a member (ROADMAP
    item 1); it must never deny the witness.
    """
    ordered = refused = 0
    for f in _witness_corpus():
        ambp, ambq = f.source.ambient, f.target.ambient
        ps, qs, ims = f.source.gens, f.target.gens, f.gen_images
        with zlat.node_budget(2000):
            try:
                tuples = H.integrality_tuple_generators(f)
            except ResourceLimitError:
                continue
        for tup in tuples:
            a1, a2, b1, b2 = tup
            zero = [0] * len(a1)
            if all(x >= y for x, y in zip(a1, a2)):
                a3, a4, b = zero, [x - y for x, y in zip(a1, a2)], b1
            elif all(x <= y for x, y in zip(a1, a2)):
                a3, a4, b = [y - x for x, y in zip(a1, a2)], zero, b2
            else:
                continue
            ordered += 1
            for a, bq in ((a3, b1), (a4, b2)):
                lhs = _combination([*a, *b], [*ims, *qs], ambq.dim)
                assert _same_element(ambq, lhs, _combination(bq, qs, ambq.dim)), (f, tup)
            lhs = _combination([*a1, *a3], [*ps, *ps], ambp.dim)
            assert _same_element(ambp, lhs, _combination([*a2, *a4], [*ps, *ps], ambp.dim))
            assert H._integral_witness_exists(f, tup), (f, tup)
            with zlat.node_budget(300):
                try:
                    assert H._integral_witness_search(f, tup), (f, tup)
                except ResourceLimitError:
                    assert ambq.torsion, (f, tup)
                    refused += 1
    assert ordered > 1500 and refused < 10, (ordered, refused)


def _first_unwitnessed_in_sorted_order(f):
    """The sorted-list loop ``is_integral`` replaced: the first generator in
    the full sorted list without a witness, or None if all have one."""
    if H._source_is_valuative(f):
        return None
    for tup in H.integrality_tuple_generators(f):
        if not H._integral_witness_exists(f, tup):
            return tup
    return None


def _assert_integral_certificate(f, cert):
    """A negative certificate is a relation f(a1) + b1 = f(a2) + b2 by the
    test's own arithmetic and passes the library's re-check."""
    a1, a2, b1, b2 = (cert[k] for k in ("tuple_a1", "tuple_a2", "tuple_b1", "tuple_b2"))
    ambq, ims, qs = f.target.ambient, f.gen_images, f.target.gens
    lhs = _combination([*a1, *b1], [*ims, *qs], ambq.dim)
    rhs = _combination([*a2, *b2], [*ims, *qs], ambq.dim)
    assert _same_element(ambq, lhs, rhs), (f, cert)
    assert H.reverify_integral_certificate(f, cert), (f, cert)


def test_is_integral_agrees_with_the_sorted_list_loop():
    """Checking generators as completion finds them gives the verdict of the
    sorted-list loop wherever that loop answers (budget 2000).

    The certificate may be another tuple, the first without a witness in
    completion order; it must still be a relation without a witness.  Where
    the loop runs out of nodes, ``is_integral`` may answer, but only False:
    True needs the whole completion, which the loop could not finish.
    """
    both = 0
    for f in _witness_corpus():
        with zlat.node_budget(2000):
            try:
                want = _first_unwitnessed_in_sorted_order(f)
                loop_answered = True
            except ResourceLimitError:
                loop_answered = False
            try:
                got = H.is_integral(f)
            except ResourceLimitError:
                got = None
        if loop_answered:
            assert got is not None and got.holds == (want is None), (f, want, got)
            both += 1
        elif got is not None:
            assert not got.holds, f
        if got is not None and not got.holds:
            _assert_integral_certificate(f, got.certificate)
    assert both > 150, both


def test_is_integral_answers_before_completion_overflows():
    # the eleventh relation-monoid generator completion finds has no
    # witness; the full list does not fit in 2000 nodes
    gens = [(1, 0), (1, 1), (1, 2)]
    f = H.MonoidHom(monoid_from_vectors(gens), monoid_from_vectors(gens), [(2, 1), (4, 3), (6, 5)])
    with zlat.node_budget(2000):
        with pytest.raises(ResourceLimitError):
            _first_unwitnessed_in_sorted_order(f)
        v = H.is_integral(f)
    assert not v.holds
    cert = v.certificate
    tup = tuple(cert[k] for k in ("tuple_a1", "tuple_a2", "tuple_b1", "tuple_b2"))
    assert tup == ((0, 0, 1), (0, 1, 0), (0, 0, 0), (0, 2, 0))
    _assert_integral_certificate(f, cert)
