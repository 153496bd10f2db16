"""Morphism taxonomy: profiles, predicates, pushouts, Vidal, semistable."""

import itertools
import json
import os
import sys
import time
from collections import Counter

import pytest

from conftest import (
    check_integral_certificate,
    combination,
    count_calls,
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
    same_element,
    same_submonoid,
    witness_image,
)
from satmon import cli
from satmon import homs as H
from satmon import monoid as M
from satmon import pi1, zlat
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


def _count_membership(monkeypatch):
    calls = []
    search = M.AffineMonoid.membership

    def counted(self, x):
        calls.append(x)
        return search(self, x)

    monkeypatch.setattr(M.AffineMonoid, "membership", counted)
    return calls


def test_hom_into_saturated_target_finds_witnesses_when_read(monkeypatch):
    calls = _count_membership(monkeypatch)
    rng = rng_for("lazy-hom-witnesses")
    homs = rejected = 0
    while homs < 30:
        r = rng.randint(1, 3)
        q = random_affine_monoid(rng, rank=r, max_gens=r + 2, lo=-1, hi=3).saturate()
        assert q._cache["is_sat"]
        k = rng.randint(1, 3)
        images = [
            q.element_from_exponents([rng.randint(0, 2) for _ in q.gens]) for _ in range(k)
        ]
        del calls[:]
        f = H.MonoidHom(free_monoid(k), q, images)
        assert calls == []  # the facet test proved the images are members
        wits = f.witnesses
        assert len(calls) == k
        for im, w in zip(f.gen_images, wits):
            assert len(w) == q.ngens and min(w, default=0) >= 0
            total = tuple(sum(c * g[i] for c, g in zip(w, q.gens)) for i in range(r))
            assert total == im
        assert f.witnesses is wits and len(calls) == k
        outside = tuple(-x for x in q.gens[0])
        if q.membership(outside) is None:
            with pytest.raises(MembershipError):
                H.MonoidHom(free_monoid(1), q, [outside])
            rejected += 1
        homs += 1
    assert rejected >= 10


def test_hom_into_unknown_target_searches_once_per_image(monkeypatch):
    # <2, 3> in Z is not saturated, and nothing has asked before the hom does
    q = monoid_from_vectors([(2,), (3,)])
    calls = _count_membership(monkeypatch)
    f = H.MonoidHom(free_monoid(3), q, [(2,), (5,), (6,)])
    assert calls == [(2,), (5,), (6,)]
    for w, im in zip(f.witnesses, f.gen_images):
        assert min(w) >= 0 and 2 * w[0] + 3 * w[1] == im[0]
    assert len(calls) == 3  # the witnesses were the constructor's proof
    with pytest.raises(MembershipError):
        H.MonoidHom(free_monoid(1), q, [(1,)])
    assert q._cache["is_sat"] is False


def test_gp_profile_doubling(nat):
    prof = H.gp_profile(doubling(nat))
    assert prof.kernel.order() == 1
    assert (prof.cokernel.rank, prof.cokernel.torsion) == (0, (2,))


def test_verdicts_do_not_share_a_certificate():
    a, b = H.Verdict(True), H.Verdict(True)
    assert a.certificate == b.certificate == {} and a.certificate is not b.certificate
    a.certificate["kernel"] = "0"
    assert b.certificate == {} and H.Verdict(False).certificate == {}
    cert = {"face": "whole"}
    assert H.Verdict(True, cert).certificate is cert


def test_gp_profile_sum(nat2, nat):
    prof = H.gp_profile(H.MonoidHom(nat2, nat, [(1,), (1,)]))
    assert (prof.kernel.rank, prof.kernel.torsion) == (1, ())
    assert prof.cokernel.order() == 1


def test_gp_profile_half_grid_chart():
    # the fs chart N^2 -> (1/2)N^2 has cokernel (Z/2)^2
    f = H.MonoidHom(free_monoid(2), free_monoid(2), [(2, 0), (0, 2)])
    prof = H.gp_profile(f)
    assert (prof.cokernel.rank, prof.cokernel.torsion) == (0, (2, 2))


def _witness_gp_profile(f):
    """The former witness path: f^gp as the matrix of the witness columns,
    its kernel the preimage of Q's relations modulo P's, its cokernel
    Z^ngens(Q) modulo Q's relations and the witness columns."""
    kp, kq = f.source.ngens, f.target.ngens
    relq = f.target.relation_lattice()
    fcols = [witness_image(f, tuple(int(t == i) for t in range(kp))) for i in range(kp)]
    coker = zlat.quotient_by_columns(
        kq, [list(b) for b in relq.basis] + [list(c) for c in fcols]
    ).group
    frows = [[fcols[i][j] for i in range(kp)] for j in range(kq)]
    klat = zlat.preimage_lattice(frows, relq, kp)
    relcoords = [list(klat.coords(b)) for b in f.source.relation_lattice().basis]
    kpres = zlat.quotient_by_columns(klat.rank, relcoords)
    kernel = kpres.group
    witness = None
    if kernel.dim:
        lifted = kpres.lift((1,) + (0,) * (kernel.dim - 1))
        witness = tuple(
            sum(klat.basis[t][i] * lifted[t] for t in range(klat.rank)) for i in range(kp)
        )
    return kernel, coker, witness


def _random_hom(rng):
    """A hom from a random monoid P in Z^r (+ Z/2), by a random group map,
    into Q, the monoid of the images (some split in two random pieces) and
    a few extra elements, in an ambient with torsion (), (2), (3) or (2, 4).
    Each side is saturated half of the time."""
    r = rng.randint(1, 3)
    src_tor = rng.choice(((), (), (2,)))
    amb_p = FgAbelianGroup(r, src_tor)
    gens = {amb_p.reduce([rng.randint(-1, 2) for _ in range(amb_p.dim)])
            for _ in range(rng.randint(1, 4))}
    p = M.AffineMonoid(amb_p, sorted(g for g in gens if not amb_p.is_zero(g)))
    if rng.random() < 0.5:
        p = p.saturate()
    s = rng.randint(1, 3)
    amb_q = FgAbelianGroup(s, rng.choice(((), (), (2,), (3,), (2, 4))))
    basis = [tuple(rng.randint(-1, 2) for _ in range(s))
             + tuple(rng.randrange(d) for d in amb_q.torsion) for _ in range(r)]
    # the source torsion Z/2 goes to an element of order dividing 2
    basis += [(0,) * s + tuple(rng.choice([x for x in range(d) if 2 * x % d == 0])
                               for d in amb_q.torsion) for _ in src_tor]
    images = [amb_q.combine(g, basis) for g in p.gens]
    extra = [amb_q.reduce([rng.randint(-1, 2) for _ in range(amb_q.dim)])
             for _ in range(rng.randint(0, 2))]
    qgens = []
    for y in images + extra:
        if rng.random() < 0.5:
            u = amb_q.reduce([rng.randint(0, 1) for _ in range(amb_q.dim)])
            qgens += [u, amb_q.sub(y, u)]
        else:
            qgens.append(y)
    q = M.AffineMonoid(amb_q, list(dict.fromkeys(g for g in qgens if not amb_q.is_zero(g))))
    if rng.random() < 0.5:
        q = q.saturate()
    return H.MonoidHom(p, q, images)


def test_gp_profile_from_images_matches_the_witness_path():
    # kernel, cokernel and kernel witness read off the images' relation
    # lattices, against the witness-matrix path they replaced
    rng = rng_for("gp-profile-images")
    homs = [_random_hom(rng) for _ in range(1200)]
    for f in homs:
        prof = H.gp_profile(f)
        if f.target.is_saturated():
            assert "witnesses" not in f._cache  # the profile read no witness
        kernel, coker, witness = _witness_gp_profile(f)
        assert (prof.kernel, prof.cokernel, prof.kernel_witness) == (kernel, coker, witness), f
        assert prof.cokernel.rank == coker.rank
    assert sum(1 for f in homs if f.target.ambient.torsion) >= len(homs) // 3
    assert sum(1 for f in homs if f.source.ambient.rank == 3) >= 300
    assert sum(1 for f in homs if not f.source.is_saturated()) >= 250
    assert sum(1 for f in homs if not f.target.is_saturated()) >= 250
    profs = [H.gp_profile(f) for f in homs]
    assert sum(1 for p in profs if p.kernel_witness is not None) >= 400
    assert sum(1 for p in profs if p.kernel.torsion) >= 150
    assert sum(1 for p in profs if p.cokernel.torsion) >= 500
    assert sum(1 for p in profs if p.cokernel.rank) >= 400


def test_classify_into_saturated_target_runs_no_membership_search(monkeypatch):
    # the golden classify request: its hom is proved by facet tests and its
    # profile read off the images, so no witness is ever searched for
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, "golden", "classify_half_s3.request.json")) as fh:
        request = json.load(fh)
    with open(os.path.join(here, "golden", "classify_half_s3.report.json")) as fh:
        golden = fh.read()
    calls = _count_membership(monkeypatch)
    report, code = cli.run_request(request)
    assert calls == []
    assert json.dumps(report, indent=2, ensure_ascii=True) + "\n" == golden


def test_classify_not_integral_golden_is_decided_by_the_cone(monkeypatch):
    # the one unordered tuple is outside the cone of the witness monoid, so
    # neither a search nor a third saturation runs (the replaced path ran
    # one branch-and-bound search)
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, "golden", "classify_not_integral.request.json")) as fh:
        request = json.load(fh)
    searches = count_calls(monkeypatch, zlat, "solve_nonneg")
    saturations = count_calls(monkeypatch, M.Cone, "saturation")
    report, code = cli.run_request(request)
    assert code == 1 and report["result"]["verdicts"]["integral"]["holds"] is False
    assert searches == [] and len(saturations) == 2


def test_refused_integral_hom_runs_no_witness_search(monkeypatch):
    # completion overflows 2000 nodes before any generator lacks a witness;
    # the witnesses of the generators found until then are decided by the
    # witness monoid's cone, where the replaced path ran 30 searches
    src = monoid_from_vectors([(1, 0), (1, 1), (1, 2), (1, 3)])
    tgt = monoid_from_vectors([(1, 0, 0), (1, 1, 1), (1, 1, 2), (1, 2, 1)])
    f = H.MonoidHom(src, tgt, [(0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 0)])
    searches = count_calls(monkeypatch, zlat, "solve_nonneg")
    with zlat.node_budget(2000), pytest.raises(ResourceLimitError, match="completion"):
        H.is_integral(f)
    assert searches == []
    with zlat.node_budget(20000):
        assert H.is_integral(f).holds


def test_completion_settles_a_level_before_it_overflows():
    # the first unwitnessed generator is the second solution of completion's
    # level 3.  The interleaved search ran out of its 2000 nodes making
    # children between that level's two solutions; settling a level's
    # solutions before any of its children reports the generator, so the
    # hom is decided at 2000 as it is at 20,000
    src = monoid_from_vectors([(1, 0), (1, 1), (1, 2), (1, 3)])
    tgt = monoid_from_vectors([(1, 0, 0), (1, 1, 1), (1, 1, 2), (1, 2, 1)])
    ims = [(1, 1, 2), (3, 3, 5), (5, 5, 8), (7, 7, 11)]
    want = {
        "tuple_a1": (0, 0, 0, 1),
        "tuple_a2": (0, 0, 1, 0),
        "tuple_b1": (0, 0, 0, 0),
        "tuple_b2": (0, 1, 1, 0),
    }
    for budget in (2000, 20000):
        with zlat.node_budget(budget):
            v = H.is_integral(H.MonoidHom(src, tgt, ims))
        assert not v.holds and v.certificate == want, budget


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


def test_exact_with_torsion_in_the_source_group():
    # P = <(1,0), (0,1)> is {(a, t) : a >= 0} in Z + Z/2 and maps by
    # (a, t) -> a, so P^gp = Z + Z/2 has the kernel {0} + Z/2 and its
    # torsion generator (0, 1) is among the preimage generators.
    p = monoid_from_vectors([(1, 0), (0, 1)], rank=1, torsion=(2,))
    box = [(a, t) for a in range(-4, 5) for t in (0, 1)]
    assert [x for x in box if x[0] == 0] == [(0, 0), (0, 1)]  # the kernel: Z/2
    cases = [
        (monoid_from_vectors([(1,)]), lambda a: a >= 0, [(0, 1), (1, 0)], None),
        (monoid_from_vectors([(1,), (-1,)]), lambda a: True, [(-1, 0), (0, 1), (1, 0)], (-1, 0)),
    ]
    for target, in_target, gens, outside in cases:
        f = H.MonoidHom(p, target, [(1,), (0,)])
        assert H.gp_profile(f).kernel == FgAbelianGroup(0, (2,))
        assert H.preimage_generators(f) == gens
        v = H.is_exact(f)
        assert v.holds == (outside is None)
        if outside is not None:
            assert v.certificate["preimage_element_outside_source"] == outside
        # box re-check: the preimage is {(a, t) : a in target}, the sums of
        # the generators fill it, and P misses exactly the certificate side
        preimage = {x for x in box if in_target(x[0])}
        sums = set()
        for coeffs in itertools.product(range(5), repeat=len(gens)):
            a = sum(c * g[0] for c, g in zip(coeffs, gens))
            t = sum(c * g[1] for c, g in zip(coeffs, gens)) % 2
            if -4 <= a <= 4:
                sums.add((a, t))
        assert sums == preimage
        missed = sorted(x for x in preimage if x[0] < 0)
        assert (outside is None) == (not missed)
        assert outside is None or outside in missed


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
    check_integral_certificate(theta, v.certificate)


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
    # a report that breaks the closure is refused when it is built
    yes, no = H.Verdict(True), H.Verdict(False)
    prof = rep.profile
    H.ClassReport(yes, yes, None, yes, yes, yes, yes, prof)
    H.ClassReport(no, yes, None, no, yes, yes, no, prof)
    for inj, exact, smooth, etale, ke in (
        (yes, yes, yes, no, yes),  # Kummer etale without etale
        (no, yes, yes, yes, yes),  # Kummer etale without injective
        (yes, no, yes, yes, yes),  # Kummer etale without exact
        (yes, yes, no, yes, no),  # etale without smooth
    ):
        with pytest.raises(AssertionError):
            H.ClassReport(inj, exact, None, yes, smooth, etale, ke, prof)


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


def _corank(face):
    """Span rank of the monoid minus the rank of the face's free parts."""
    m = face.monoid
    free = [m.ambient.free_part(g) for g in face.gens]
    return m.span_lattice().rank - zlat.Lattice(free, m.ambient.rank).rank


def _ratio(group, x, h):
    """m >= 0 with x = m*h in the group, or None."""
    if group.is_zero(x):
        return 0
    m = None
    for a, b in zip(group.free_part(x), group.free_part(h)):
        if b == 0:
            if a != 0:
                return None
            continue
        if a % b != 0 or (m is not None and m != a // b):
            return None
        m = a // b
    if m is None or m < 0:
        return None
    return m if group.scale(m, h) == group.reduce(x) else None


def _height_one_valuation(m, face):
    """The values of P -> P/F when P/F is N, read off the quotient group by
    a ratio search, or None."""
    _, images, pres = m.quotient_by_face(face)
    g = pres.group
    for h in sorted({im for im in images if not g.is_zero(im)}):
        if not any(h[: g.rank]):
            continue  # torsion
        vals = [_ratio(g, im, h) for im in images]
        if all(v is not None for v in vals):
            return vals
    return None


def _ramification_oracle(f):
    """The quotient-and-ratio path: faces generated by the images, each
    valuation from the quotient by its face, target values through the
    membership witnesses."""
    src, tgt = f.source, f.target
    image_faces = [tgt.face_generated_by([im]) for im in f.gen_images]
    zero_sets = {tuple(i for i in range(tgt.ngens) if row[i]) for row in tgt._cone().kills}
    out, skipped = [], []
    for idxs in sorted(zero_sets, key=lambda t: (len(t), t)):
        face = tgt.face_from_indices(idxs)
        if _corank(face) != 1:
            continue
        pre = [i for i, g in enumerate(image_faces) if set(g.indices) <= set(idxs)]
        pre_face = src.face_from_indices(tuple(pre))
        if _corank(pre_face) != 1:
            skipped.append(idxs)
            continue
        vq = _height_one_valuation(tgt, face)
        vp = _height_one_valuation(src, pre_face)
        vq_of_images = [zlat.vdot(w, vq) for w in f.witnesses]
        es = {vi // pi for vi, pi in zip(vq_of_images, vp) if pi > 0 and vi % pi == 0}
        e = es.pop() if len(es) == 1 else None
        if e is None or e < 1 or any(vi != e * pi for vi, pi in zip(vq_of_images, vp)):
            skipped.append(idxs)
            continue
        out.append((idxs, e))
    return H.RamificationReport(tuple(out), tuple(skipped))


def _preimage_generators_oracle(f):
    """The Hilbert basis of the pulled-back facets in P^gp, its units both
    ways and the torsion basis, deduplicated and sorted."""
    presp = f.source.gp_presentation()
    gp = presp.group
    span_q = f.target.span_lattice()
    cols = []
    for t in range(gp.rank):
        y = f.apply_exponents(presp.lift(tuple(int(i == t) for i in range(gp.dim))))
        cols.append(span_q.coords(f.target.ambient.free_part(y)))
    rows = [tuple(zlat.vdot(phi, c) for c in cols) for phi in f.target.cone_facets()]
    sharp, units = zlat.hilbert_from_hrep(rows, gp.rank)
    pad = (0,) * len(gp.torsion)
    coords = [tuple(h) + pad for h in sharp + units + [zlat.vneg(u) for u in units]]
    coords += [(0,) * gp.rank + tuple(int(t == j) for t in range(len(gp.torsion)))
               for j in range(len(gp.torsion))]
    out = {f.source.element_from_exponents(presp.lift(c)) for c in coords}
    return sorted(e for e in out if not f.source.ambient.is_zero(e))


def _random_saturated_hom(rng):
    """A hom between saturated monoids: P = sat of a random monoid in
    Z^r (+ Z/2), mapped by a random group map into Q = sat of the images
    and a few extra elements, Q's ambient torsion (), (2), (3) or (2, 4).
    Random negatives give units on both sides; scaled maps give e > 1."""
    r = rng.randint(1, 3)
    src_tor = rng.choice(((), (), (2,)))
    amb_p = FgAbelianGroup(r, src_tor)
    gens = {amb_p.reduce([rng.randint(-1, 2) for _ in range(amb_p.dim)])
            for _ in range(rng.randint(1, 4))}
    p = M.AffineMonoid(amb_p, sorted(g for g in gens if not amb_p.is_zero(g))).saturate()
    s = rng.randint(1, 3)
    amb_q = FgAbelianGroup(s, rng.choice(((), (), (2,), (3,), (2, 4))))
    k = rng.choice((1, 1, 2, 3))
    basis = [tuple(k * rng.randint(-1, 2) for _ in range(s))
             + tuple(rng.randrange(d) for d in amb_q.torsion) for _ in range(r)]
    # the source torsion Z/2 goes to an element of order dividing 2
    basis += [(0,) * s + tuple(rng.choice([x for x in range(d) if 2 * x % d == 0])
                               for d in amb_q.torsion) for _ in src_tor]
    images = [amb_q.combine(g, basis) for g in p.gens]
    extra = [amb_q.reduce([rng.randint(-1, 2) for _ in range(amb_q.dim)])
             for _ in range(rng.randint(0, 2))]
    qgens = dict.fromkeys(g for g in images + extra if not amb_q.is_zero(g))
    q = M.AffineMonoid(amb_q, list(qgens)).saturate()
    return H.MonoidHom(p, q, images)


def test_cone_reads_match_the_quotient_and_ratio_path():
    # ramification indices, the valuative-source test and the exactness
    # preimage, read off facet normals, against the former quotient, ratio
    # and witness path, the Hermite rank of the units face and the former
    # preimage assembly
    rng = rng_for("cone-reads")
    homs = [_random_saturated_hom(rng) for _ in range(1100)]
    ramified = skipped = 0
    for f in homs:
        # no search and no witness: not one node is charged
        with zlat.node_budget(0):
            rep = H.ramification_indices(f)
        assert "witnesses" not in f._cache
        assert rep == _ramification_oracle(f), f
        ramified += any(e > 1 for _, e in rep.indices)
        skipped += bool(rep.skipped)
        units = f.source.face_generated_by([])
        assert H._source_is_valuative(f) == (_corank(units) <= 1), f
        assert H.preimage_generators(f) == _preimage_generators_oracle(f), f
    assert sum(1 for f in homs if f.target.ambient.torsion) >= len(homs) // 3
    assert sum(1 for f in homs if f.source.span_lattice().rank == 3) >= 100

    def free_units(m):
        return any(map(any, map(m.ambient.free_part, m.face_generated_by([]).gens)))

    assert sum(1 for f in homs if free_units(f.source)) >= 100
    assert sum(1 for f in homs if free_units(f.target)) >= 100
    assert ramified >= 100 and skipped >= 100


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


def _vidal_homs(rng, count):
    """Multiplication by 1-3 on random saturated monoids of rank 1-3 in
    Z^r, Z^r + Z/2, Z^r + Z/3 and Z^r + Z/2 + Z/4, then every Kummer cover
    of N and of N^2 of index 2 and 3."""
    homs = []
    while len(homs) < count:
        r = rng.randint(1, 3)
        amb = FgAbelianGroup(r, ((), (2,), (3,), (2, 4))[len(homs) % 4])
        gens = {amb.reduce([rng.randint(0, 2) for _ in range(r)]
                           + [rng.randrange(d) for d in amb.torsion])
                for _ in range(rng.randint(1, 4))}
        p = M.AffineMonoid(amb, sorted(g for g in gens if not amb.is_zero(g))).saturate()
        if p.ngens:
            k = rng.randint(1, 3)
            homs.append(H.MonoidHom(p, p, [amb.scale(k, g) for g in p.gens]))
    for base in (free_monoid(1), free_monoid(2)):
        for n in (2, 3):
            homs += [c.hom for c in pi1.enumerate_covers(base, n, PrimeSet.empty())]
    return homs


def _apply_columns(cols, v, group):
    """sum v_i cols_i, each torsion coordinate reduced mod its invariant."""
    acc = [sum(c * col[i] for c, col in zip(v, cols)) for i in range(group.dim)]
    return tuple(acc[:group.rank]) + tuple(
        x % d for x, d in zip(acc[group.rank:], group.torsion))


def test_vidal_maps_undo_each_other_on_every_coordinate():
    homs = _vidal_homs(rng_for("vidal-maps"), 120)
    for f in homs:
        rep = H.vidal_decompose(f)
        assert rep.verified, f
        fwd, bwd = rep.forward_on_ambient, rep.backward_on_ambient
        for amb, there, back in ((rep.double.ambient, fwd, bwd), (rep.product.ambient, bwd, fwd)):
            assert len(there) == amb.dim
            for c, col in enumerate(there):
                assert _apply_columns(back, col, amb) == tuple(int(i == c) for i in range(amb.dim))
    assert len(homs) >= 129
    assert sum(1 for f in homs if f.source.ambient.torsion) >= 80
    assert sum(1 for f in homs if f.source.ambient.rank == 3) >= 30


def test_vidal_verification_sees_a_split_that_drops_the_cokernel(monkeypatch, nat, nat2):
    direct_sum = H.direct_sum

    def lossy(g1, g2):
        amb, embed1, embed2, split = direct_sum(g1, g2)
        return amb, embed1, embed2, lambda v: (split(v)[0], g2.zero())

    monkeypatch.setattr(H, "direct_sum", lossy)
    on_nat = [H.MonoidHom(nat, nat, [(k,)]) for k in (1, 2, 3)]
    assert [H.vidal_decompose(f).verified for f in on_nat] == [True, False, False]
    half_grid = H.MonoidHom(nat2, nat2, [(2, 0), (0, 2)])
    assert not H.vidal_decompose(half_grid).verified


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


# ---------------------------------------------------------------------------
# integrality witnesses against the search the witness monoid replaced


def _witness_equations(f, tup):
    """Rows and rhs over (a3, a4, b), then slack, for the witness of ``tup``.

    Columns and right-hand sides are reduced, so a witness has no negative
    slack and ``solve_nonneg`` searches over all columns.  This is the
    three-block system the library searched before it asked the witness
    monoid, kept as the oracle.
    """
    a1, a2, b1, b2 = tup
    ambq = f.target.ambient
    ambp = f.source.ambient
    ims, ps, qs = f.gen_images, f.source.gens, f.target.gens
    zq = [ambq.zero()] * len(ims)
    zp = [ambp.zero()] * len(qs)
    rhs3 = f.source.element_from_exponents(tuple(y - x for x, y in zip(a1, a2)))
    # unknowns (a3, a4, b): f(a3) + b = b1, f(a4) + b = b2, a3 - a4 = a2 - a1
    return zlat.group_equations(
        [
            (ambq, [*ims, *zq, *qs], f.target.element_from_exponents(b1)),
            (ambq, [*zq, *ims, *qs], f.target.element_from_exponents(b2)),
            (ambp, [*ps, *map(ambp.neg, ps), *zp], rhs3),
        ]
    )


def _witness_search(f, tup):
    """Branch-and-bound search for a witness of ``tup``: the oracle."""
    return zlat.solve_nonneg(*_witness_equations(f, tup)).is_sat


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
            assert _witness_search(f, tup) == want, (f, tup)
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
                lhs = combination([*a, *b], [*ims, *qs], ambq.dim)
                assert same_element(ambq, lhs, combination(bq, qs, ambq.dim)), (f, tup)
            lhs = combination([*a1, *a3], [*ps, *ps], ambp.dim)
            assert same_element(ambp, lhs, combination([*a2, *a4], [*ps, *ps], ambp.dim))
            assert H._integral_witness_exists(f, tup), (f, tup)
            with zlat.node_budget(300):
                try:
                    assert _witness_search(f, tup), (f, tup)
                except ResourceLimitError:
                    assert ambq.torsion, (f, tup)
                    refused += 1
    assert ordered > 1500 and refused < 10, (ordered, refused)


def test_torsion_witness_reproducer_is_found():
    # The witness a4 = (0,1,0), b = (0,3,0) exists; the search finds one only
    # if no torsion slack is a ray of its LP.
    src = monoid_from_vectors([(0, 1), (1, 0), (2, 1)])
    amb = FgAbelianGroup(2, (3,))
    tgt = M.AffineMonoid(amb, [(0, 0, 2), (0, 2, 2), (0, 4, 0)])
    f = H.MonoidHom(src, tgt, tgt.gens)
    a1, a2, b1, b2 = tup = ((0, 1, 0), (0, 0, 0), (0, 3, 0), (1, 0, 2))
    t0 = time.perf_counter()
    with zlat.node_budget(2000):
        res = zlat.solve_nonneg(*_witness_equations(f, tup))
    assert time.perf_counter() - t0 < 1.0
    assert res.is_sat
    assert H._integral_witness_exists(f, tup)
    a3, a4, b = res.witness[:3], res.witness[3:6], res.witness[6:9]
    assert min(res.witness[:9]) >= 0
    qs, ps = tgt.gens, src.gens
    for a, bq in ((a3, b1), (a4, b2)):
        lhs = combination([*a, *b], [*f.gen_images, *qs], amb.dim)
        assert same_element(amb, lhs, combination(bq, qs, amb.dim))
    assert combination([*a1, *a3], [*ps, *ps], 2) == combination([*a2, *a4], [*ps, *ps], 2)


def _is_ordered(tup):
    a1, a2 = tup[:2]
    return all(x >= y for x, y in zip(a1, a2)) or all(x <= y for x, y in zip(a1, a2))


def _witness_differential(homs, budget, per_hom=None):
    """The witness monoid's verdict against the search's, on the unordered
    relation-monoid generators completion finds within ``budget`` nodes
    (at most ``per_hom`` of them per hom).  Each side gets its own budget;
    a tuple either side refuses is counted, not compared.  Returns the
    counts, with the verdicts under True and False."""
    counts = Counter()
    for f in homs:
        found = []
        with zlat.node_budget(budget):
            try:
                H._relation_generators(f, found.append)
            except ResourceLimitError:
                pass
        for tup in [t for t in found if not _is_ordered(t)][:per_hom]:
            try:
                with zlat.node_budget(budget):
                    want = _witness_search(f, tup)
                with zlat.node_budget(budget):
                    got = H._integral_witness_exists(f, tup)
            except ResourceLimitError:
                counts["refused"] += 1
                continue
            assert got == want, (f, tup, want)
            counts[want] += 1
            counts["saturated M_f"] += H._witness_monoid(f)[0].is_saturated()
    return counts


def test_witness_monoid_agrees_with_the_search_on_the_witness_corpus():
    counts = _witness_differential(_witness_corpus(), 2000)
    assert counts[True] >= 100 and counts[False] >= 100 and counts["refused"] <= 5, counts
    # most of these witness monoids are not saturated, so membership decides
    assert counts["saturated M_f"] <= 50, counts


def test_witness_monoid_agrees_with_the_search_on_classify_replays():
    # the classify corpus of satbench, 6 blocks of seeds 1 and 2, at the
    # budget its requests carry
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(repo, "satbench"))
    try:
        import corpus
    finally:
        sys.path.pop(0)
    homs = [
        H.MonoidHom(monoid_from_vectors(e["src"]), monoid_from_vectors(e["tgt"]), e["images"])
        for seed in (1, 2)
        for e in (item.expect for item in corpus.classify_corpus(seed, 6))
    ]
    counts = _witness_differential(homs, corpus.CLASSIFY_BUDGET)
    assert counts[True] >= 300 and counts[False] >= 1000 and counts["refused"] == 0, counts


def _with_killed_unit(f):
    """f extended to P + Z, the unit pair +-e of the new summand sent to 0;
    its witness monoid merges (-e, f(e)) = (-e, 0) with the generator (-e, 0)."""
    ambp = f.source.ambient
    amb = FgAbelianGroup(ambp.rank + 1, ambp.torsion)
    e = tuple(int(i == ambp.rank) for i in range(amb.dim))
    gens = [g[: ambp.rank] + (0,) + g[ambp.rank:] for g in f.source.gens]
    src = M.AffineMonoid(amb, gens + [e, amb.neg(e)])
    zero = f.target.ambient.zero()
    return H.MonoidHom(src, f.target, [*f.gen_images, zero, zero])


def test_witness_monoid_agrees_with_the_search_on_random_homs():
    # torsion targets, torsion sources, sources of rank 3, non-saturated P
    # or Q (see _random_hom), and every seventh source with a unit f kills
    rng = rng_for("witness-monoid-differential")
    homs = [_random_hom(rng) for _ in range(1000)]
    homs[::7] = [_with_killed_unit(f) for f in homs[::7]]
    assert sum(1 for f in homs if f.target.ambient.torsion) >= len(homs) // 3
    assert sum(1 for f in homs if f.source.ambient.torsion) >= 250
    assert sum(1 for f in homs if f.source.ambient.rank == 3) >= 250
    assert sum(1 for f in homs if not f.source.is_saturated() or not f.target.is_saturated()) >= 350
    for f in homs[::7]:
        assert H._witness_monoid(f)[0].ngens < 2 * f.source.ngens + f.target.ngens
    counts = _witness_differential(homs, 300, per_hom=6)
    assert counts[True] >= 300 and counts[False] >= 100 and counts["refused"] <= 5, counts


def _first_unwitnessed_in_sorted_order(f):
    """The sorted-list loop ``is_integral`` replaced: the first generator in
    the full sorted list without a witness, or None if all have one."""
    if H._source_is_valuative(f):
        return None
    for tup in H.integrality_tuple_generators(f):
        if not H._integral_witness_exists(f, tup):
            return tup
    return None


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
        with zlat.node_budget(2000):
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
            check_integral_certificate(f, got.certificate)
    assert both > 150, both


def test_is_integral_answers_before_completion_overflows():
    # the eleventh relation-monoid generator completion finds has no
    # witness; the full list does not fit in 2000 nodes
    gens = [(1, 0), (1, 1), (1, 2)]
    f = H.MonoidHom(monoid_from_vectors(gens), monoid_from_vectors(gens), [(2, 1), (4, 3), (6, 5)])
    with zlat.node_budget(2000), pytest.raises(ResourceLimitError):
        _first_unwitnessed_in_sorted_order(f)
    with zlat.node_budget(2000):
        v = H.is_integral(f)
    assert not v.holds
    cert = v.certificate
    tup = tuple(cert[k] for k in ("tuple_a1", "tuple_a2", "tuple_b1", "tuple_b2"))
    assert tup == ((0, 0, 1), (0, 1, 0), (0, 0, 0), (0, 2, 0))
    check_integral_certificate(f, cert)
