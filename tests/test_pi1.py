"""Fundamental-group stages and Kummer etale cover enumeration."""

import pytest

from conftest import known_cone_monoids_match_fresh, random_affine_monoid, rng_for, same_submonoid
from satmon import homs as H
from satmon import monoid as M
from satmon import pi1
from satmon.errors import CoprimalityError, PreconditionError
from satmon.monoid import free_monoid, from_presentation, FpMonoid
from satmon.sigma import PrimeSet


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


def test_covers_require_torsion_free():
    mono, _, _ = from_presentation(FpMonoid(2, (((2, 0), (0, 2)),)))
    with pytest.raises(PreconditionError):
        pi1.enumerate_covers(mono, 3, PrimeSet.empty())


def test_covers_require_spanning(nat):
    sub = M.monoid_from_vectors([(2,)])
    with pytest.raises(PreconditionError):
        pi1.enumerate_covers(sub, 3, PrimeSet.empty())


def test_cover_cones_match_fresh_copies(monkeypatch):
    # every cover's sub-monoid takes its cone from the base, and its
    # saturation (the cover) inherits that cone
    rng = rng_for("cover-known-cone")
    bases = []
    while len(bases) < 24:
        r = len(bases) % 3 + 1
        m = random_affine_monoid(rng, rank=r, max_gens=r + 2, lo=-1, hi=3)
        if m.span_lattice().rank == r:
            bases.append((m.saturate(), rng.choice((2, 3, 4, 6))))

    def run():
        for base, n in bases:
            pi1.enumerate_covers(base, n, PrimeSet.of(5))

    built = known_cone_monoids_match_fresh(monkeypatch, run)
    subs = [m for m in built if m.saturate() is not m]
    assert len(subs) >= 100
    assert {n for _, n in bases} == {2, 3, 4, 6}

