"""Kummer etale covers of an affine monoid and the finite stages of pi_1.

pi_1 is exposed only through its finite quotients: the n-stage is (dual to)
P^gp tensor Z/n, and connected abelian covers of index n correspond to
overlattices M of P^gp with [M : P^gp] = n and all prime factors of n
outside the fixed prime set.  The cover monoid is the saturation of P
inside M: same cone, refined lattice, so it is P's cone value saturated
in M (``Cone.saturation``), and the frames of P's simplices serve every
cover: each box of cone cap M is read off one of them.
P -> cone cap M is exact exactly when
P is saturated (the preimage of cone cap M in P^gp is cone cap P^gp =
sat(P)), so the base is checked once, not each cover.

Stages for different moduli m | n are compatible through the standard
divisibility maps (reduce invariants mod m); no profinite object is ever
materialized, and roots of unity enter only as abstract cyclic groups.
"""

from functools import cached_property
from itertools import product

from . import zlat
from .errors import CoprimalityError, PreconditionError
from .homs import MonoidHom
from .monoid import AffineMonoid
from .zlat import FgAbelianGroup, Overlattice


class Pi1Quotient:
    """The modulus-n stage of the fundamental group, P^gp tensor Z/n."""

    def __init__(self, modulus, group: FgAbelianGroup):
        for d in group.torsion:
            if modulus % d != 0:
                raise ValueError("every invariant must divide the modulus")
        if group.rank:
            raise ValueError("a finite stage must be a finite group")
        self.modulus = modulus
        self.group = group


def pi1_quotient(p: AffineMonoid, n, sigma) -> Pi1Quotient:
    """Invariants of P^gp tensor Z/n (n coprime to the prime set)."""
    if n < 1:
        raise ValueError("modulus must be >= 1")
    if not sigma.coprime(n):
        raise CoprimalityError(
            f"modulus {n} is not coprime to the prime set {sigma.describe()}"
        )
    k = p.ngens
    rel = p.relation_lattice()
    cols = [list(b) for b in rel.basis]
    for i in range(k):
        cols.append([n if t == i else 0 for t in range(k)])
    group = zlat.quotient_by_columns(k, cols).group
    return Pi1Quotient(n, group)


class KummerCover:
    """A connected abelian Kummer etale cover, recorded by its overlattice.

    ``images`` are the cover coordinates of the base generators; the
    structure map ``hom`` is built from them, and checked, when first read.
    """

    def __init__(self, base: AffineMonoid, overlattice: Overlattice, cover: AffineMonoid, images):
        self.base = base
        self.overlattice = overlattice
        self.cover = cover
        self.images = images

    @cached_property
    def hom(self) -> MonoidHom:
        return MonoidHom(self.base, self.cover, self.images)

    def deck_invariants(self) -> FgAbelianGroup:
        return self.overlattice.quotient_by_standard()

    def index(self):
        return self.overlattice.index_over_standard()


def _cover_from_overlattice(p: AffineMonoid, over: Overlattice, cone):
    """The cover of p for one overlattice M, given p's cone value.

    p spans Z^r, so its span is the identity lattice, which is also the
    span of the cover in M-coordinates.  The cover is cone cap M, the
    saturation of p's cone in M (``Cone.saturation`` with ``lattice`` M),
    read off p's rays and the frames of p's triangulation.

    The structure map needs no check once p is saturated.  p spans Z^r
    and M contains Z^r with finite index, so the inclusion is injective
    with a finite cokernel.  The preimage of cone cap M in Z^r is
    cone cap Z^r = sat(p), so the map is exact exactly when p = sat(p).
    """
    forms = over.coordinate_forms
    coords = tuple(tuple(zlat.vdot(f, g) for f in forms) for g in p.gens)
    cover = cone.saturation(FgAbelianGroup(over.rank), over)
    return KummerCover(p, over, cover, coords)


def enumerate_covers(p: AffineMonoid, n, sigma):
    """All connected abelian covers of index n, one per overlattice.

    Requires the ambient group of p to be torsion-free and spanned by the
    generators (P^gp = ambient); use AffineMonoid.intrinsic() first if
    needed.  p must be saturated; this is checked once, after the modulus.
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
    overs = zlat.enumerate_overlattices(p.ambient.rank, n, sigma)
    if not p.is_saturated():
        raise PreconditionError(
            "cover construction requires a saturated base (injective + exact failed)"
        )
    cone = p._cone()
    return [_cover_from_overlattice(p, o, cone) for o in overs]


def finite_pset_decomposition(cover: KummerCover):
    """Finite T with cover = base + T, verified by membership.

    T consists of the generator sums with coefficients below the deck
    exponent; n*h lies in the (saturated) base for every cover generator h,
    so the sums exhaust the cover as a base-set.  Closure under addition of
    T modulo base-translation is checked explicitly.

    Both steps are charged to the node budget before they run: one node
    per generator sum (n^ngens), then one per ``contains`` test that the
    check may make, |T| for each of the ngens + |T|^2 elements it tests.
    """
    n = cover.deck_invariants().exponent_of_torsion()
    q = cover.cover
    amb = q.ambient
    charge = zlat._node_meter("P-set decomposition")
    charge(n ** q.ngens)
    t_set = sorted({amb.combine(c, q.gens) for c in product(range(n), repeat=q.ngens)})
    charge(len(t_set) * (q.ngens + len(t_set) ** 2))
    in_image = AffineMonoid(amb, cover.images).contains

    def in_image_plus_t(x):
        return any(in_image(amb.sub(x, t)) for t in t_set)

    verified = all(in_image_plus_t(g) for g in q.gens) and all(
        in_image_plus_t(amb.add(t1, t2)) for t1 in t_set for t2 in t_set
    )
    return t_set, verified
