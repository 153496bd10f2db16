"""Saturatedness from the cone, against a membership search and brute force.

``is_saturated`` decides P = sat(P) from the facets of the cone, and
``contains`` tests the cone first, so a saturated monoid answers it by that
test alone.  The oracles here
are the membership search it replaced and an enumeration of P inside a
box, with its own group arithmetic.
"""

from conftest import random_ambient_monoid, rng_for
from satmon.errors import ResourceLimitError
from satmon.monoid import AffineMonoid
from satmon.zlat import node_budget


def _saturated_by_search(m):
    """The replaced check: one membership search per generator of sat(P)."""
    return all(m.membership(g) is not None for g in m.saturate().gens)


def _box_members(m, radius):
    """The elements of P reachable from 0 by adding generators while every
    free coordinate stays within ``radius``."""
    amb = m.ambient
    r = amb.rank
    zero = (0,) * amb.dim
    seen = {zero}
    frontier = [zero]
    while frontier:
        nxt = []
        for x in frontier:
            for g in m.gens:
                y = tuple(a + b for a, b in zip(x[:r], g[:r])) + tuple(
                    (a + b) % d for a, b, d in zip(x[r:], g[r:], amb.torsion)
                )
                if y not in seen and all(abs(a) <= radius for a in y[:r]):
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return seen


def _box_oracle(m):
    """P's members in a box around the Hilbert basis of sat(P) and the
    generators of P, two units wider than both (on the 1,500 random monoids
    of the criterion's check, six units wider gave the same verdicts)."""
    elements = m.saturate().gens + m.gens
    radius = max((abs(a) for g in elements for a in g[: m.ambient.rank]), default=0)
    return _box_members(m, radius + 2)


def _fresh(m):
    # a copy with empty caches, so no verdict is shared between the checks
    return AffineMonoid(m.ambient, m.gens)


def _in_saturation(m, x):
    """x in sat(P), re-checked by arithmetic: the free part of x is the
    combination of the span basis given by its coordinates, and every facet
    value is >= 0."""
    span = m.span_lattice()
    free = x[: m.ambient.rank]
    c = span.coords(free)
    if c is None:
        return False
    assert tuple(sum(ci * b[i] for ci, b in zip(c, span.basis)) for i in range(len(free))) == free
    return all(sum(a * b for a, b in zip(f, c)) >= 0 for f in m.cone_facets())


def test_is_saturated_matches_search_and_box_oracles():
    # The search refuses almost no monoid, so the box oracle also checks
    # every monoid with torsion.
    rng = rng_for("saturatedness-differential")
    answered = with_torsion = boxed = 0
    for _ in range(250):
        m = random_ambient_monoid(rng)
        verdict = _fresh(m).is_saturated()
        try:
            with node_budget(200):
                old = _saturated_by_search(_fresh(m))
        except ResourceLimitError:
            old = None
        if old is None or m.ambient.torsion:
            members = _box_oracle(m)
            assert verdict == all(s in members for s in m.saturate().gens), m
            boxed += 1
        if old is not None:
            answered += 1
            with_torsion += bool(m.ambient.torsion)
            assert verdict == old, m
    assert answered >= 200 and with_torsion >= 60 and boxed >= 60


def test_saturation_defect_is_in_the_saturation_and_not_in_the_monoid():
    rng = rng_for("saturation-defect")
    defects = 0
    for _ in range(200):
        m = random_ambient_monoid(rng)
        x = m._saturation_defect()
        members = _box_oracle(m)
        if x is None:
            assert all(s in members for s in m.saturate().gens), m
            continue
        defects += 1
        assert x in m.saturate().gens
        assert _in_saturation(m, x), (m, x)
        assert x not in members, (m, x)
    assert defects >= 50


def test_facet_contains_matches_membership_on_saturations():
    rng = rng_for("facet-contains")
    checked = {True: 0, False: 0}
    for _ in range(120):
        sat = random_ambient_monoid(rng).saturate()
        amb = sat.ambient
        points = [amb.add(g, h) for g in sat.gens for h in sat.gens[:2]]
        points += [amb.neg(g) for g in sat.gens]
        points += [amb.reduce(tuple(rng.randint(-3, 3) for _ in range(amb.dim))) for _ in range(4)]
        for x in points:
            try:
                with node_budget(200):
                    found = sat.membership(x) is not None
            except ResourceLimitError:
                continue
            assert sat.contains(x) == found, (sat, x)
            checked[found] += 1
    assert checked[True] >= 300 and checked[False] >= 100


def test_contains_decides_saturatedness_on_fresh_monoids():
    # nothing has asked these monoids whether they are saturated: contains
    # tests the cone, decides saturatedness for a point inside it, and
    # answers as a membership search does
    rng = rng_for("fresh-contains")
    paths = {True: 0, False: 0}
    for _ in range(120):
        m = random_ambient_monoid(rng)
        amb = m.ambient
        points = [amb.add(g, h) for g in m.gens for h in m.gens[:2]]
        points += [amb.reduce(tuple(rng.randint(-3, 3) for _ in range(amb.dim))) for _ in range(4)]
        fresh = AffineMonoid(amb, m.gens)
        for x in points:
            try:
                with node_budget(200):
                    found = m.membership(x) is not None
            except ResourceLimitError:
                continue
            assert fresh.contains(x) == found, (m, x)
        assert fresh.is_saturated() == _saturated_by_search(m)
        paths[fresh.is_saturated()] += 1
    assert paths[True] >= 30 and paths[False] >= 30


def test_contains_tests_the_cone_before_saturatedness():
    # random monoids, non-saturated, with torsion or with units: contains
    # agrees with a membership search on points inside and outside the
    # cone, and a point outside is refused before saturatedness is decided
    rng = rng_for("cone-first-contains")
    sides = {True: 0, False: 0}
    for _ in range(150):
        m = random_ambient_monoid(rng)
        amb = m.ambient
        points = [amb.add(g, h) for g in m.gens for h in m.gens[:2]]
        points += [amb.neg(g) for g in m.gens]
        points += [amb.reduce(tuple(rng.randint(-3, 3) for _ in range(amb.dim))) for _ in range(4)]
        for x in points:
            try:
                with node_budget(200):
                    found = m.membership(x) is not None
            except ResourceLimitError:
                continue
            fresh = _fresh(m)
            assert fresh.contains(x) == found, (m, x)
            inside = _in_saturation(m, x)
            if not inside:
                assert "is_sat" not in fresh._cache, (m, x)
            sides[inside] += 1
    assert sides[True] >= 300 and sides[False] >= 100, sides
