"""Fundamental-group stages and Kummer etale cover enumeration."""

import time

import pytest

from conftest import assert_matches_fresh, count_calls, random_affine_monoid, rng_for, same_submonoid
from test_zlat import _smith_box_hilbert_from_frames, _smith_box_hilbert_from_hrep
from satmon import documents as D
from satmon import homs as H
from satmon import kernels
from satmon import monoid as M
from satmon import pi1, zlat
from satmon.errors import CoprimalityError, MembershipError, PreconditionError, ResourceLimitError
from satmon.monoid import free_monoid, from_presentation, FpMonoid
from satmon.sigma import PrimeSet
from satmon.zlat import FgAbelianGroup


def test_pi1_quotient_examples(nat, nat2):
    q = pi1.pi1_quotient(nat, 5, PrimeSet.of(2))
    assert (q.group.rank, q.group.torsion) == (0, (5,))
    q = pi1.pi1_quotient(nat2, 3, PrimeSet.of(2))
    assert q.group.torsion == (3, 3)


def test_pi1_quotient_kills_torsion():
    # P^gp = Z + Z/2: tensoring with Z/3 kills the 2-torsion
    mono, images, _ = from_presentation(FpMonoid(2, (((2, 0), (0, 2)),)))
    gp = mono.gp_presentation().group
    assert (gp.rank, gp.torsion) == (1, (2,))
    q = pi1.pi1_quotient(mono, 3, PrimeSet.of(2))
    assert q.group.torsion == (3,)


def test_pi1_quotient_checks_its_group():
    pi1.Pi1Quotient(6, FgAbelianGroup(0, (2, 6)))
    with pytest.raises(ValueError, match="divide the modulus"):
        pi1.Pi1Quotient(6, FgAbelianGroup(0, (4,)))
    with pytest.raises(ValueError, match="finite group"):
        pi1.Pi1Quotient(3, FgAbelianGroup(1, (3,)))


def test_prime_sets_check_their_primes():
    assert PrimeSet(finite=(2, 3)).finite == (2, 3)
    assert PrimeSet(complement=()).complement == ()
    for kwargs in ({}, {"finite": (2,), "complement": (3,)}):
        with pytest.raises(ValueError, match="exactly one"):
            PrimeSet(**kwargs)
    for bad in (PrimeSet.of, PrimeSet.all_except):
        for p in (1, 4, 9, 0, -3):
            with pytest.raises(ValueError, match="not a prime"):
                bad(2, p)


def test_rank_zero_cones_charge_no_node():
    # the zero cone's one simplex is empty, its box {0}: neither the
    # saturation of a rank-0 monoid nor the cover of Z^0 scans a point
    trivial = M.AffineMonoid(FgAbelianGroup(0), ())
    torsion = M.AffineMonoid(FgAbelianGroup(0, (2, 4)), [(1, 2)])
    with zlat.node_budget(0):
        assert trivial.saturate().gens == ()
        assert torsion.saturate().gens == ((0, 1), (1, 0))
        (cover,) = pi1.enumerate_covers(trivial, 1, PrimeSet.empty())
        assert cover.cover.gens == () and cover.overlattice == zlat.Overlattice(1, ())


def test_pi1_coprimality_error(nat):
    with pytest.raises(CoprimalityError):
        pi1.pi1_quotient(nat, 4, PrimeSet.of(2))


def test_covers_of_nat_index3(nat):
    covers = pi1.enumerate_covers(nat, 3, PrimeSet.of(2))
    assert len(covers) == 1
    c = covers[0]
    assert c.cover.gens == ((1,),)
    assert c.hom.gen_images == ((3,),)  # 1 maps to 3*(1/3)
    assert c.deck_invariants().torsion == (3,)


def test_covers_build_their_structure_maps_when_read(monkeypatch):
    # the construction proves each structure map a hom, so a covers request
    # builds none; reading ``hom`` builds one, and so checks the images
    from satmon import cli, documents as D

    real = H.MonoidHom

    def refuse(*args):
        raise AssertionError("a structure map was built")

    monkeypatch.setattr(pi1, "MonoidHom", refuse)
    request = {"format": "satmon/1", "kind": "request", "op": "covers",
               "args": {"monoid": D.monoid_out(free_monoid(2)), "n": "2"}}
    rep, code = cli.run_request(request)
    assert code == 0 and rep["result"]["count"] == "3", rep["result"]
    monkeypatch.setattr(pi1, "MonoidHom", real)
    c = pi1.enumerate_covers(free_monoid(2), 2, PrimeSet.empty())[0]
    assert c.hom.gen_images == c.images
    bad = pi1.KummerCover(c.base, c.overlattice, c.cover, ((-1, 0), (0, 1)))
    with pytest.raises(MembershipError):
        bad.hom


def test_covers_of_nat2_index2(nat2):
    covers = pi1.enumerate_covers(nat2, 2, PrimeSet.of(3))
    assert len(covers) == 3
    for c in covers:
        rep = H.classify(c.hom, PrimeSet.of(3), include_integral=False)
        assert rep.kummer_etale.holds
        assert c.index() == 2


def test_covers_identity_index(nat2):
    covers = pi1.enumerate_covers(nat2, 1, PrimeSet.empty())
    assert len(covers) == 1
    assert same_submonoid(covers[0].cover, nat2)


def test_deck_invariants_examples(nat, nat2):
    c3 = pi1.enumerate_covers(nat, 3, PrimeSet.of(2))[0]
    assert c3.deck_invariants().torsion == (3,)
    covers = pi1.enumerate_covers(nat2, 4, PrimeSet.of(3))
    decks = sorted(tuple(c.deck_invariants().torsion) for c in covers)
    assert (2, 2) in decks and (4,) in decks
    # the diagonal index-2 overlattice has deck group Z/2
    covers2 = pi1.enumerate_covers(nat2, 2, PrimeSet.of(3))
    diag = [c for c in covers2 if len(c.cover.gens) == 3]
    assert len(diag) == 1
    assert diag[0].deck_invariants().torsion == (2,)


def test_cover_counts_match_formula():
    for r in (1, 2, 3):
        base = free_monoid(r)
        for p in (2, 3, 5):
            covers = pi1.enumerate_covers(base, p, PrimeSet.empty())
            assert len(covers) == (p ** r - 1) // (p - 1)


def test_cover_functoriality_spot(nat):
    # an index-2 cover of an index-3 cover of N is the unique index-6 cover
    c3 = pi1.enumerate_covers(nat, 3, PrimeSet.empty())[0]
    c2 = pi1.enumerate_covers(c3.cover, 2, PrimeSet.empty())[0]
    composed = H.compose(c3.hom, c2.hom)
    c6 = pi1.enumerate_covers(nat, 6, PrimeSet.empty())[0]
    assert composed.gen_images == c6.hom.gen_images
    assert same_submonoid(c2.cover, c6.cover)


def test_finite_pset_decomposition(nat2):
    for c in pi1.enumerate_covers(nat2, 2, PrimeSet.of(3)):
        t, ok = pi1.finite_pset_decomposition(c)
        assert ok
        assert all(c.cover.contains(x) for x in t)


def test_finite_pset_decomposition_is_charged_before_it_enumerates():
    # an 8-generator cover of N^3 at n = 6 has 6^8 = 1,679,616 generator
    # sums: refused at once, naming the meter, instead of building them
    c = next(c for c in pi1.enumerate_covers(M.free_monoid(3), 6, PrimeSet.empty())
             if c.cover.ngens == 8)
    start = time.perf_counter()
    with zlat.node_budget(1000), pytest.raises(ResourceLimitError, match="P-set decomposition") as err:
        pi1.finite_pset_decomposition(c)
    assert time.perf_counter() - start < 1.0
    assert err.value.limit == 1000


def test_covers_require_torsion_free():
    mono, _, _ = from_presentation(FpMonoid(2, (((2, 0), (0, 2)),)))
    with pytest.raises(PreconditionError):
        pi1.enumerate_covers(mono, 3, PrimeSet.empty())


def test_covers_require_spanning(nat):
    sub = M.monoid_from_vectors([(2,)])
    with pytest.raises(PreconditionError):
        pi1.enumerate_covers(sub, 3, PrimeSet.empty())


def test_cover_cones_match_fresh_copies(monkeypatch):
    # every cover is built from the base's cone and carries it; a fresh
    # copy on the same generators recomputes it, its saturation by the
    # Smith-form boxes that covers no longer use, for pointed cones and for
    # cones with units
    rng = rng_for("cover-known-cone")
    bases = []
    while len(bases) < 24:
        r = len(bases) % 3 + 1
        m = random_affine_monoid(rng, rank=r, max_gens=r + 2, lo=-1, hi=3)
        if m.span_lattice().rank == r:
            bases.append((m.saturate(), rng.choice((2, 3, 4, 6))))
    covers = [c for base, n in bases for c in pi1.enumerate_covers(base, n, PrimeSet.of(5))]
    monkeypatch.setattr(zlat, "hilbert_from_hrep", _smith_box_hilbert_from_hrep)
    monkeypatch.setattr(zlat, "hilbert_from_frames", _smith_box_hilbert_from_frames)
    hrep = count_calls(monkeypatch, zlat, "hilbert_from_hrep")
    framed = count_calls(monkeypatch, zlat, "hilbert_from_frames")
    for c in covers:
        assert_matches_fresh(c.cover)
    # each fresh copy saturates once, through one of the two oracles
    assert len(framed) + len(hrep) == len(covers) and framed and hrep
    assert len(covers) >= 100
    assert {n for _, n in bases} == {2, 3, 4, 6}


# lattice points of the five polygons of the satbench covers corpus
_POLYGON_POINTS = (
    ((0, 0), (1, 0), (0, 1), (1, 1)),
    ((0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (0, 2)),
    ((0, 0), (1, 0), (2, 0), (0, 1)),
    ((1, 0), (0, 1), (-1, -1), (0, 0)),
    ((0, 0), (1, 0), (2, 0), (1, 1)),
)


def _saturation_on_facets(ambient, span, facets):
    """Generators and cone of the saturation, built as before covers shared
    the base's rays: double description on the facets finds the rays, the
    Smith-form boxes the Hilbert basis, and each generator's span
    coordinates come from ``Lattice.coords``."""
    gens = [
        (0,) * ambient.rank + tuple(int(t == j) for t in range(len(ambient.torsion)))
        for j in range(len(ambient.torsion))
    ]
    sharp, units = _smith_box_hilbert_from_hrep(facets, span.rank)
    pad = (0,) * len(ambient.torsion)
    for h in sharp + units + [tuple(-x for x in u) for u in units]:
        gens.append(tuple(zlat.vdot(col, h) for col in zip(*span.basis)) + pad)
    gens = tuple(sorted(set(gens)))
    coords = tuple(span.coords(ambient.free_part(g)) for g in gens)
    return gens, M.Cone(span, coords, tuple(facets))


def test_covers_match_saturation_by_double_description():
    # every cover (n <= 8) of N^r (r <= 3), of the cones over [0, k] (k <= 3)
    # and of the cones over five lattice polygons, sheared as in satbench,
    # equals the saturation of its cone found without the base's rays: the
    # facets of the generator images, and double description on them
    rng = rng_for("cover-rays-differential")
    families = [[tuple(int(i == j) for j in range(r)) for i in range(r)] for r in (1, 2, 3)]
    families += [[(1, i) for i in range(k + 1)] for k in (1, 2, 3)]
    families += [[(1, x, y) for x, y in pts] for pts in _POLYGON_POINTS]
    seen = 0
    for gens in families:
        r = len(gens[0])
        shear = [0] + [rng.randint(-1, 1) for _ in range(r - 1)]
        base = M.monoid_from_vectors([tuple(g[i] + shear[i] * g[0] for i in range(r)) for g in gens])
        for n in range(2, 9):
            for c in pi1.enumerate_covers(base, n, PrimeSet.empty()):
                images = M.AffineMonoid(FgAbelianGroup(r), c.hom.gen_images)
                want = _saturation_on_facets(images.ambient, images.span_lattice(), images.cone_facets())
                assert (c.cover.gens, c.cover._cone()) == want, (base, c.overlattice)
                seen += 1
    assert seen == 7 + 4 * 55 + 6 * 389


def test_covers_refuse_a_non_saturated_base():
    # <2, 3> spans Z but misses 1: the base is checked after the modulus
    p = M.monoid_from_vectors([(2,), (3,)])
    with pytest.raises(
        PreconditionError,
        match=r"^cover construction requires a saturated base \(injective \+ exact failed\)$",
    ):
        pi1.enumerate_covers(p, 2, PrimeSet.of(3))
    with pytest.raises(CoprimalityError):
        pi1.enumerate_covers(M.monoid_from_vectors([(2,), (3,)]), 3, PrimeSet.of(3))


def _full_rank_bases(rng, count, rank, saturated):
    """Random monoids that span Z^rank, saturated ones taken in Z^rank."""
    out = []
    while len(out) < count:
        m = random_affine_monoid(rng, rank=rank, max_gens=rank + 2, lo=-1, hi=3)
        if m.span_lattice().rank == rank:
            out.append(m.saturate() if saturated else m.intrinsic()[0])
    return out


def test_cover_properties_hold_per_cover():
    # the per-cover checks that enumerate_covers proves once from the base;
    # exactness is checked on a fresh copy of the base, so its membership
    # tests search instead of reading the base's facets
    rng = rng_for("cover-per-cover-oracle")
    cases = [(b, n) for r, k in ((1, 2), (2, 6)) for b in _full_rank_bases(rng, k, r, True)
             for n in range(2, 9)]
    cases += [(b, n) for b in _full_rank_bases(rng, 4, 3, True) for n in (2, 3)]
    seen = 0
    for base, n in cases:
        r = base.ambient.rank
        for c in pi1.enumerate_covers(base, n, PrimeSet.empty()):
            fresh_base = M.AffineMonoid(base.ambient, base.gens)
            hom = H.MonoidHom(fresh_base, c.cover, c.hom.gen_images)
            assert H.gp_profile(hom).cokernel.rank == 0
            assert H.is_injective(hom).holds and H.is_exact(hom).holds
            fresh = M.AffineMonoid(FgAbelianGroup(r), hom.gen_images).saturate()
            assert c.cover.gens == fresh.gens
            seen += 1
    assert seen >= 400


def test_first_cover_exact_iff_base_saturated():
    rng = rng_for("cover-exactness-iff-saturated")
    verdicts = []
    for r in (1, 2, 2, 2, 3, 3):
        for p in _full_rank_bases(rng, 8, r, False):
            over = zlat.enumerate_overlattices(r, 2)[0]
            coords = [over.coords(g) for g in p.gens]
            cover = M.AffineMonoid(FgAbelianGroup(r), coords).saturate()
            exact = H.is_exact(H.MonoidHom(p, cover, coords)).holds
            assert exact == p.is_saturated(), p
            verdicts.append(exact)
    assert 5 <= verdicts.count(False) <= len(verdicts) - 5


@pytest.mark.parametrize("gens, n, covers, simplices", [
    # N^3 at n = 4: one simplex, 35 covers (72 Smith forms with one per
    # cover simplex)
    (((1, 0, 0), (0, 1, 0), (0, 0, 1)), 4, 35, 1),
    # the cone over the unit square at n = 3: two simplices, 13 covers (42)
    (((1, 0, 0), (1, 1, 0), (1, 0, 1), (1, 1, 1)), 3, 13, 2),
])
def test_covers_read_their_boxes_off_the_base_frames(monkeypatch, gens, n, covers, simplices):
    # a covers request runs one Smith form per cover, for its deck group,
    # and none for the base (its span is all of Z^rank) or per simplex;
    # each base simplex gets one adjugate, beyond the one of each double
    # description
    from satmon import cli

    base = M.monoid_from_vectors(gens)
    assert len(base._cone().triangulation) == simplices
    request = {"format": "satmon/1", "kind": "request", "op": "covers",
               "args": {"monoid": D.monoid_out(base), "n": str(n)}, "sigma": {"primes": ["5"]}}
    snf = count_calls(monkeypatch, kernels, "snf_with_transforms")
    adjugates = count_calls(monkeypatch, zlat, "_det_and_adjugate")
    dd = count_calls(monkeypatch, zlat, "_double_description")
    report, code = cli.run_request(request)
    assert code == 0 and report["result"]["count"] == str(covers)
    assert len(snf) == covers
    assert len(adjugates) == len(dd) + simplices
