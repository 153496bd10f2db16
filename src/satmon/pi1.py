"""Kummer etale covers of an affine monoid and the finite stages of pi_1.

pi_1 is exposed only through its finite quotients: the n-stage is (dual to)
P^gp tensor Z/n, and connected abelian covers of index n correspond to
overlattices M of P^gp with [M : P^gp] = n and all prime factors of n
outside the fixed prime set.  The cover monoid is the saturation of P
inside M: same cone, refined lattice.

Stages for different moduli m | n are compatible through the standard
divisibility maps (reduce invariants mod m); no profinite object is ever
materialized, and roots of unity enter only as abstract cyclic groups.
"""

from dataclasses import dataclass

from . import zlat
from .errors import CoprimalityError, PreconditionError
from .homs import MonoidHom, gp_profile, is_exact, is_injective
from .monoid import AffineMonoid
from .zlat import FgAbelianGroup, Overlattice


@dataclass(frozen=True)
class Pi1Quotient:
    """The modulus-n stage of the fundamental group, P^gp tensor Z/n."""

    modulus: int
    group: FgAbelianGroup

    def __post_init__(self):
        for d in self.group.torsion:
            if self.modulus % d != 0:
                raise ValueError("every invariant must divide the modulus")
        if self.group.rank:
            raise ValueError("a finite stage must be a finite group")


def pi1_quotient(p: AffineMonoid, n, sigma) -> Pi1Quotient:
    """Invariants of P^gp tensor Z/n (n coprime to the prime set)."""
    if n < 1:
        raise ValueError("modulus must be >= 1")
    for q in set(zlat.prime_factors(n)):
        if not sigma.coprime(q):
            raise CoprimalityError(f"modulus {n} shares the prime {q} with the prime set")
    k = p.ngens
    rel = p.relation_lattice()
    cols = [list(b) for b in rel.basis]
    for i in range(k):
        cols.append([n if t == i else 0 for t in range(k)])
    group = zlat.quotient_by_columns(k, cols).group
    return Pi1Quotient(n, group)


@dataclass(frozen=True)
class KummerCover:
    """A connected abelian Kummer etale cover, recorded by its overlattice."""

    base: AffineMonoid
    overlattice: Overlattice
    cover: AffineMonoid
    hom: MonoidHom  # base -> cover

    def deck_invariants(self) -> FgAbelianGroup:
        return self.overlattice.quotient_by_standard()

    def index(self):
        return self.overlattice.index_over_standard()


def _cover_from_overlattice(p: AffineMonoid, over: Overlattice, span, facets):
    """The cover of p for one overlattice M, given p's span lattice and facets.

    p spans Z^r, so ``span`` is the identity lattice, which is also the span
    of p's generators in M-coordinates.  A point with M-coordinates c is
    c . rows / den, so a facet normal phi of p becomes rows . phi up to the
    positive factor den: dividing by the (positive) gcd keeps it primitive
    and on the same side.
    """
    coords = []
    for g in p.gens:
        c = over.coords(g)
        assert c is not None
        coords.append(c)
    normals = []
    for phi in facets:
        psi = [zlat.vdot(row, phi) for row in over.rows]
        g = zlat.vgcd(psi)
        normals.append(tuple(x // g for x in psi))
    sub = AffineMonoid.with_known_cone(
        FgAbelianGroup(over.rank), coords, span, sorted(normals)
    )
    cover = sub.saturate()
    hom = MonoidHom(p, cover, coords)
    prof = gp_profile(hom)
    if prof.cokernel_rank != 0:
        raise PreconditionError("cover cokernel must be finite")
    if not is_injective(hom).holds or not is_exact(hom).holds:
        raise PreconditionError(
            "cover construction requires a saturated base (injective + exact failed)"
        )
    return KummerCover(p, over, cover, hom)


def enumerate_covers(p: AffineMonoid, n, sigma):
    """All connected abelian covers of index n, one per overlattice.

    Requires the ambient group of p to be torsion-free and spanned by the
    generators (P^gp = ambient); use AffineMonoid.intrinsic() first if
    needed.
    """
    if p.ambient.torsion:
        raise PreconditionError("cover enumeration requires a torsion-free groupification")
    span = zlat.Lattice(list(p.gens), p.ambient.rank)
    std = [
        [1 if i == j else 0 for j in range(p.ambient.rank)]
        for i in range(p.ambient.rank)
    ]
    if not all(span.contains(e) for e in std):
        raise PreconditionError(
            "generators must span the ambient group; pass the intrinsic copy"
        )
    overs = zlat.enumerate_overlattices(p.ambient, n, sigma)
    span, _, facets, _ = p._cone()
    return [_cover_from_overlattice(p, o, span, facets) for o in overs]


def finite_pset_decomposition(cover: KummerCover):
    """Finite T with cover = base + T, verified by membership.

    T consists of the generator sums with coefficients below the deck
    exponent; n*h lies in the (saturated) base for every cover generator h,
    so the sums exhaust the cover as a base-set.  Closure under addition of
    T modulo base-translation is checked explicitly.
    """
    n = cover.deck_invariants().exponent_of_torsion()
    q = cover.cover
    amb = q.ambient
    elems = set()
    counter = [0] * q.ngens
    while True:
        v = amb.zero()
        for c, g in zip(counter, q.gens):
            if c:
                v = amb.add(v, amb.scale(c, g))
        elems.add(v)
        i = q.ngens - 1
        while i >= 0:
            counter[i] += 1
            if counter[i] < n:
                break
            counter[i] = 0
            i -= 1
        if i < 0:
            break
    t_set = sorted(elems)
    if cover.hom.gen_images:
        image = AffineMonoid(amb, cover.hom.gen_images)
        in_image = lambda x: image.membership(x) is not None
    else:
        in_image = amb.is_zero

    def in_image_plus_t(x):
        return any(in_image(amb.sub(x, t)) for t in t_set)

    verified = all(in_image_plus_t(g) for g in q.gens) and all(
        in_image_plus_t(amb.add(t1, t2)) for t1 in t_set for t2 in t_set
    )
    return t_set, verified
