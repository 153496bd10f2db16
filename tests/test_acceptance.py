"""Acceptance criteria, one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.  All
checks are property- or fixture-based at desk scale; every tolerance is
exact (integer/rational arithmetic throughout).
"""

import itertools
import json
import math
import sys

import pytest

from conftest import (
    check_integral_certificate,
    criterion05_corpus,
    face_preimage,
    hom_preimage_box_violation,
    integrality_box_bound,
    integrality_box_violation,
    ogus_data,
    random_endo_map,
    random_fp_monoid,
    random_saturated_monoid,
    rng_for,
    same_submonoid,
    witness_image,
)
from satmon import cli
from satmon import homs as H
from satmon import monoid as M
from satmon import pi1
from satmon import valuative as V
from satmon.monoid import free_monoid, from_presentation, monoid_from_vectors
from satmon.sigma import PrimeSet


def _report(num, name, ok):
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {num} ({name}) failed"


# ---------------------------------------------------------------------------


def test_criterion_01_gordan_suite():
    """200 random fs presentations: saturation laws and Hilbert minimality."""
    rng = rng_for("acceptance-gordan")
    ok = True
    for _ in range(200):
        mono, _, _ = from_presentation(random_fp_monoid(rng))
        sat = mono.saturate()
        # idempotent
        if sat.saturate().gens != sat.gens:
            ok = False
        # extensive
        if not all(sat.contains(g) for g in mono.gens):
            ok = False
        # groupification (ambient) preserved
        if sat.ambient != mono.ambient:
            ok = False
        # minimal generating set: the removal test
        for g in sat.gens:
            rest = [x for x in sat.gens if x != g]
            if not rest:
                continue
            if M.AffineMonoid(sat.ambient, rest).contains(g):
                ok = False
                break
        if not ok:
            break
    _report(1, "Gordan suite (200 random saturations)", ok)


def test_criterion_02_ogus_regression():
    theta0, arm, p = ogus_data()
    ok = H.is_integral(theta0).holds
    po = H.pushout(theta0, arm, "sat")
    gp = po.monoid.gp_presentation().group
    ok = ok and (gp.rank, tuple(gp.torsion)) == (2, (2,))
    # the monoid itself is (1/2)N^2 x Z/2: two free generators and the torsion
    sharp_free = sorted(
        po.monoid.ambient.free_part(g) for g in po.monoid.gens
    )
    ok = ok and sharp_free == [(0, 0), (0, 1), (1, 0)]
    v = H.is_integral(po.left)
    ok = ok and not v.holds
    # M_f has torsion and is not saturated, so no facet separates this
    # tuple; the box search decides it
    ok = ok and check_integral_certificate(po.left, v.certificate) == "box"
    _report(2, "Ogus regression (integral base change fails after saturation)", ok)


def test_criterion_03_pushout_gp_invariant():
    """100 random saturated pushouts: cokernel invariance, kernel surjectivity."""
    from satmon.zlat import Lattice

    rng = rng_for("acceptance-pushout-gp")
    ok = True
    count = 0
    while count < 100:
        p0 = random_saturated_monoid(rng, rank=rng.choice([1, 2, 2]))
        along = random_endo_map(rng, p0)
        arm = random_endo_map(rng, p0)
        po = H.pushout(along, arm, "sat")
        count += 1
        c0 = H.gp_profile(along).cokernel
        c1 = H.gp_profile(po.left).cokernel
        if (c0.rank, c0.torsion) != (c1.rank, c1.torsion):
            ok = False
            break
        # kernel comparison map is surjective: ker(P^gp -> Q^gp) is spanned by
        # the images of ker(P0^gp -> Q0^gp) together with P's relations
        k0 = _kernel_lattice(along)
        k1 = _kernel_lattice(po.left)
        image_gens = [witness_image(arm, b) for b in k0.basis]
        image_gens += [list(b) for b in po.left.source.relation_lattice().basis]
        lat = Lattice([list(b) for b in image_gens], po.left.source.ngens)
        if not all(lat.contains(list(b)) for b in k1.basis):
            ok = False
            break
    _report(3, "pushout groupification invariant (100 random pushouts)", ok)


def _kernel_lattice(f):
    from satmon import zlat

    kp = f.source.ngens
    kq = f.target.ngens
    relq = f.target.relation_lattice()
    fcols = [
        witness_image(f, tuple(1 if t == i else 0 for t in range(kp))) for i in range(kp)
    ]
    frows = [[fcols[i][j] for i in range(kp)] for j in range(kq)]
    return zlat.preimage_lattice(frows, relq, kp)


def test_criterion_04_classification_stability():
    """100 positive instances per class remain positive after sat pushout."""
    rng = rng_for("acceptance-stability")
    sigma = PrimeSet.of(7)
    counts = {k: 0 for k in ("injective", "exact", "vertical", "smooth", "etale", "kummer_etale")}
    ok = True
    guard = 0
    while min(counts.values()) < 100 and ok and guard < 600:
        guard += 1
        p0 = random_saturated_monoid(rng, rank=rng.choice([1, 2]))
        if rng.random() < 0.5 and not p0.ambient.torsion:
            # Kummer etale positives via covers (index coprime to sigma)
            try:
                covers = pi1.enumerate_covers(p0, rng.choice([2, 3]), sigma)
            except Exception:
                continue
            if not covers:
                continue
            f = covers[rng.randrange(len(covers))].hom
            classes = ("injective", "exact", "smooth", "etale", "kummer_etale")
        else:
            # vertical (and smooth) positives via semistable extensions
            if not p0.gens:
                continue
            piv = p0.gens[rng.randrange(p0.ngens)]
            f, _ = H.semistable_extension(p0, piv, rng.choice([1, 2]))
            classes = ("vertical", "smooth")
        arm = random_endo_map(rng, p0)
        po = H.pushout(f, arm, "sat")
        g = po.left
        for cls in classes:
            if counts[cls] >= 100:
                continue
            if not _predicate(f, cls, sigma):
                continue  # instance not actually positive; skip
            if not _predicate(g, cls, sigma):
                ok = False
                break
            counts[cls] += 1
    ok = ok and min(counts.values()) >= 100
    _report(4, f"classification stability under pushout {dict(counts)}", ok)


def _predicate(f, cls, sigma):
    if cls == "injective":
        return H.is_injective(f).holds
    if cls == "exact":
        return H.is_exact(f).holds
    if cls == "vertical":
        return H.is_vertical(f).holds
    rep = H.classify(f, sigma, include_integral=False)
    return getattr(rep, cls).holds


def test_criterion_05_oracle_equivalence():
    """is_exact / is_integral agree with box-enumeration oracles; no disagreements."""
    small_corpus, theta = criterion05_corpus()
    ok = True
    for f in small_corpus:
        got = H.is_exact(f).holds
        if got != (hom_preimage_box_violation(f, radius=4) is None):
            ok = False
    # exactness of the Ogus base change against the box oracle as well
    if H.is_exact(theta).holds != (hom_preimage_box_violation(theta, radius=4) is None):
        ok = False
    # integrality: bound 3 on the one/two-generator instances
    for f in small_corpus:
        got = H.is_integral(f).holds
        if got != (integrality_box_violation(f, bound=integrality_box_bound(f)) is None):
            ok = False
    # the non-integral Ogus map: its violation lies in the bound-2 box
    if H.is_integral(theta).holds or integrality_box_violation(theta, bound=2) is None:
        ok = False
    _report(5, "oracle equivalence (exactness radius 4, integrality bound <= 3)", ok)


def test_criterion_06_tame_ramification():
    """Etale maps have ramification prime to sigma; smooth maps need not."""
    ok = True
    # etale corpus: covers of N^r with various coprime indices
    for r in (1, 2):
        base = free_monoid(r)
        for n, sigma in ((2, PrimeSet.of(3)), (3, PrimeSet.of(2)), (5, PrimeSet.of(2, 3))):
            for c in pi1.enumerate_covers(base, n, sigma):
                rep = H.classify(c.hom, sigma, include_integral=False)
                if not rep.etale.holds:
                    ok = False
                for _, e in H.ramification_indices(c.hom).indices:
                    if not sigma.coprime(e):
                        ok = False
    # a smooth non-etale instance with even index under sigma = {2}: the lemma's
    # converse fails for smooth, so this must NOT be flagged
    q = monoid_from_vectors([(1, 0), (0, 1), (-1, 2)])
    f = H.MonoidHom(free_monoid(1), q, [(1, 0)])
    sigma2 = PrimeSet.of(2)
    rep = H.classify(f, sigma2, include_integral=False)
    es = [e for _, e in H.ramification_indices(f).indices]
    ok = ok and rep.smooth.holds and not rep.etale.holds and 2 in es
    _report(6, "tame ramification for etale; smooth exempt", ok)


def test_criterion_07_fiber_bound():
    """Fibers of Spec(Q) -> Spec(P) bounded by 2^|S|; exact count on (1/2)V."""
    ok = True
    corpus = []
    nat, nat2 = free_monoid(1), free_monoid(2)
    corpus.append((H.MonoidHom(nat, nat, [(2,)]), 1))
    corpus.append((H.MonoidHom(nat, nat2, [(1, 1)]), 2))
    corpus.append((H.MonoidHom(nat2, nat2, [(2, 0), (0, 2)]), 2))
    hom, _ = H.semistable_extension(nat, (1,), 3)
    corpus.append((hom, 3))
    for c in pi1.enumerate_covers(nat2, 2, PrimeSet.of(3)):
        corpus.append((c.hom, len(c.cover.gens)))
    for f, s in corpus:
        fibers = {}
        for face in f.target.faces():
            pre = face_preimage(f, face).indices
            fibers[pre] = fibers.get(pre, 0) + 1
        if max(fibers.values()) > 2 ** s:
            ok = False
    # exact count on the (1/2)V fixture: the lattice-level face map is a
    # bijection between the convex-subgroup chains (3 faces each)
    lex2 = V.lex_lattice(2)
    half_w = V.OrderedLattice(
        2, lex2.restrict_forms_to_basis([(1, 0), (0, 1)]), d=0
    )
    ok = ok and lex2.face_count() == 3 and half_w.face_count() == 3
    _report(7, "Spec fiber bound 2^|S| and exact count on (1/2)V", ok)


def test_criterion_08_vidal_suite():
    """vidal_decompose matches the directly computed double pushout."""
    ok = True
    nat, nat2 = free_monoid(1), free_monoid(2)
    fixtures = [
        H.MonoidHom(nat, nat, [(2,)]),
        H.MonoidHom(nat, nat, [(3,)]),
        H.MonoidHom(nat2, nat2, [(2, 0), (0, 2)]),
        H.MonoidHom.identity(nat2),
    ]
    for c in pi1.enumerate_covers(nat2, 2, PrimeSet.of(3)):
        fixtures.append(c.hom)
    for f in fixtures:
        rep = H.vidal_decompose(f)
        if not rep.verified:
            ok = False
            continue
        # invariant + generator matching against the direct computation
        g1 = rep.double.gp_presentation().group
        g2 = rep.product.gp_presentation().group
        if (g1.rank, g1.torsion) != (g2.rank, g2.torsion):
            ok = False
        if len(rep.double.faces()) != len(rep.product.faces()):
            ok = False
    _report(8, "Vidal decomposition suite", ok)


def test_criterion_09_rft_pipeline():
    """RFT terminates on the fixtures; divisible bases degenerate to W = V."""
    ok = True
    lex2 = V.lex_lattice(2)
    n2, nn = free_monoid(2), free_monoid(1)
    # Ex.(2): Q = (1/2)V
    tv = V.TypeVPresentation(
        lex2, H.MonoidHom(n2, free_monoid(2), [(2, 0), (0, 2)]), [(1, 0), (0, 1)]
    )
    rep = V.rft_pipeline(tv)
    ok = ok and rep.kato.integral and rep.tsuji.passes
    ok = ok and rep.final_integral and rep.final_sat_generating
    ok = ok and rep.extension is not None and rep.extension.order_coprime
    ok = ok and rep.extension.quotient.rank == 0  # finite Kummer extension
    # Ex.(3): the (x, y, z) monoid
    fp = M.FpMonoid(3, (((0, 0, 2), (1, 1, 0)),))
    q0, images, _ = from_presentation(fp)
    tv3 = V.TypeVPresentation(
        lex2, H.MonoidHom(nn, q0, [images[0]]), [(1, 0)]
    )
    rep3 = V.rft_pipeline(tv3)
    ok = ok and rep3.n == 2 and rep3.final_integral and rep3.final_sat_generating
    ok = ok and rep3.extension.overlattice.index_over_standard() == 2
    # dvr chain
    lex1 = V.lex_lattice(1)
    tvd = V.TypeVPresentation(lex1, H.MonoidHom(nn, free_monoid(1), [(2,)]), [(1,)])
    repd = V.rft_pipeline(tvd)
    ok = ok and repd.final_integral and repd.final_sat_generating
    # divisible bases: gr gives a finite presentation and W equals V
    for rank, chart, anchor in (
        (1, H.MonoidHom(nn, free_monoid(1), [(2,)]), [(1,)]),
        (2, H.semistable_extension(n2, (1, 1), 2)[0], [(1, 0), (0, 1)]),
    ):
        dv = V.divisible_nonneg(rank)
        tvg = V.TypeVPresentation(dv, chart, anchor)
        g = V.gr_finiteness(tvg)
        if not (g.sat_generating and g.relations_complete):
            ok = False
        r = V.rft_pipeline(tvg)
        if not r.w_equals_base:
            ok = False
    _report(9, "RFT pipeline fixtures and divisible degeneration", ok)


def test_criterion_10_trichotomy():
    from fractions import Fraction as F

    from satmon.zlat import Lattice, Overlattice

    def over(rows, den, rank):
        lat = Lattice(rows, rank)
        return Overlattice(den, tuple(tuple(b) for b in lat.basis))

    ok = True
    lex1, lex2 = V.lex_lattice(1), V.lex_lattice(2)
    # finitely generated exactly on the equal and dvr-type cases
    v = V.kummer_ext_classify(lex2, over([[1, 0], [0, 1]], 1, 2))
    ok = ok and v.kind == "equal" and v.finitely_generated
    v = V.kummer_ext_classify(lex1, Overlattice(2, ((1,),)))
    ok = ok and v.kind == "discrete" and v.finitely_generated and v.n == 2
    v = V.kummer_ext_classify(lex2, over([[2, 0], [0, 1]], 2, 2))
    ok = ok and v.kind == "discrete" and v.finitely_generated
    # not finitely generated: type 5, type 3, perfectoid shadow
    for m in (2, 3):
        v = V.kummer_ext_classify(lex2, over([[m, 0], [0, m], [1, 0]], m, 2))
        ok = ok and not v.finitely_generated
    q2 = V.quadratic_line(2)
    v = V.kummer_ext_classify(q2, over([[1, 0], [0, 1]], 2, 2))
    ok = ok and not v.finitely_generated
    p, k, m = 2, 2, 3
    perf = V.OrderedLattice(
        2, [((F(1), F(1, p ** k)), (F(0), F(0))), ((F(0), F(1)), (F(0), F(0)))]
    )
    v = V.kummer_ext_classify(perf, over([[m, 0], [0, m], [1, 0]], m, 2))
    ok = ok and not v.finitely_generated
    # bounded brute force agreement where it terminates (discrete cases):
    # a coset minimum exists iff the coset meets the prefix-kernel line
    from test_valuative import _coset_min_exists_bruteforce

    ok = ok and _coset_min_exists_bruteforce(lex1, Overlattice(2, ((1,),)), (F(1, 2),)) is True
    ok = ok and _coset_min_exists_bruteforce(
        lex2, over([[3, 0], [0, 3], [1, 0]], 3, 2), (F(1, 3), F(0))
    ) is False
    ok = ok and _coset_min_exists_bruteforce(
        perf, over([[3, 0], [0, 3], [1, 0]], 3, 2), (F(1, 3), F(0))
    ) is False
    _report(10, "finite-generation trichotomy incl. brute-force agreement", ok)


def test_criterion_11_cover_counting():
    ok = True
    for r in (1, 2, 3):
        base = free_monoid(r)
        for p in (2, 3, 5):
            sigma = PrimeSet.of(7)
            covers = pi1.enumerate_covers(base, p, sigma)
            if len(covers) != (p ** r - 1) // (p - 1):
                ok = False
            for c in covers:
                rep = H.classify(c.hom, sigma, include_integral=False)
                if not rep.kummer_etale.holds:
                    ok = False
    # finite P-set decomposition on the type (V_div) cover fixtures
    for c in pi1.enumerate_covers(free_monoid(2), 2, PrimeSet.of(3)):
        t, verified = pi1.finite_pset_decomposition(c)
        if not verified:
            ok = False
    for c in pi1.enumerate_covers(free_monoid(1), 3, PrimeSet.of(2)):
        t, verified = pi1.finite_pset_decomposition(c)
        if not verified:
            ok = False
    _report(11, "cover counting (p^r-1)/(p-1), Kummer etale, finite P-sets", ok)


def test_criterion_12_semistable_fixture():
    ok = True
    nat = free_monoid(1)
    for n in (1, 2, 3, 4):
        hom, _ = H.semistable_extension(nat, (1,), n)
        for sigma in (PrimeSet.empty(), PrimeSet.of(2), PrimeSet.of(3), PrimeSet.of(5)):
            rep = H.classify(hom, sigma, include_integral=False)
            if not (rep.smooth.holds and rep.vertical.holds):
                ok = False
        if not hom.target.is_saturated():
            ok = False
        ts = V.tsuji_base_change(hom, 1)
        if not ts.passes:
            ok = False
    _report(12, "semistable extensions: smooth, vertical, saturated evidence", ok)


def test_criterion_13_cli_determinism():
    import os

    here = os.path.dirname(os.path.abspath(__file__))
    golden = os.path.join(here, "golden")
    ok = True
    for name in ("saturate_numsg", "classify_half_s3", "covers_n2", "ogus_pushout"):
        with open(os.path.join(golden, f"{name}.request.json")) as fh:
            request = json.load(fh)
        with open(os.path.join(golden, f"{name}.report.json")) as fh:
            expected = fh.read()
        r1, _ = cli.run_request(request)
        r2, _ = cli.run_request(request)
        t1 = json.dumps(r1, indent=2, ensure_ascii=True) + "\n"
        t2 = json.dumps(r2, indent=2, ensure_ascii=True) + "\n"
        if not (t1 == t2 == expected):
            ok = False
    with open(os.path.join(golden, "batch.request.json")) as fh:
        batch = json.load(fh)
    with open(os.path.join(golden, "batch.report.json")) as fh:
        expected = fh.read()
    b1, _ = cli.run_batch(batch, jobs=1)
    b4, _ = cli.run_batch(batch, jobs=4)
    if not (
        json.dumps(b1, indent=2, ensure_ascii=True) + "\n"
        == json.dumps(b4, indent=2, ensure_ascii=True) + "\n"
        == expected
    ):
        ok = False
    _report(13, "CLI determinism: byte-identical goldens, jobs 1 vs 4", ok)
