"""Affine (finitely generated integral) monoids inside a f.g. abelian group.

An AffineMonoid is a duplicate-free list of nonzero generators in an ambient
FgAbelianGroup.  Saturation is taken inside the ambient group (so it may
enlarge the subgroup the generators span); the face machinery works on the
rational cone spanned by the free parts of the generators, whose facet
normals certify every face computation exactly.

Monoids are immutable; derived data (relation lattice, facets, saturation,
faces) is cached on first use.  All operations are pure.
"""

from dataclasses import dataclass

from . import zlat
from .errors import (
    InvalidFaceError,
    MembershipError,
    NotHeightOneError,
    ResourceLimitError,
)
from .zlat import FgAbelianGroup, Lattice, vdot, vneg

MAX_FACES = 4096


@dataclass(frozen=True)
class FpMonoid:
    """Finite presentation: ngens generators, relations u ~ v with u, v in N^n."""

    ngens: int
    relations: tuple

    def __post_init__(self):
        for u, v in self.relations:
            if len(u) != self.ngens or len(v) != self.ngens:
                raise ValueError("relation vectors must have length ngens")
            if any(a < 0 for a in u) or any(a < 0 for a in v):
                raise ValueError("relation vectors must be nonnegative")


class Memoized:
    """Per-instance cache of derived data; subclasses set ``self._cache = {}``."""

    def _get(self, key, fn):
        if key not in self._cache:
            self._cache[key] = fn()
        return self._cache[key]


class AffineMonoid(Memoized):
    """Submonoid of an FgAbelianGroup given by its generators."""

    def __init__(self, ambient: FgAbelianGroup, gens):
        gens = tuple(ambient.reduce(g) for g in gens)
        seen = set()
        for g in gens:
            if ambient.is_zero(g):
                raise ValueError("generators must be nonzero (trivial monoid: gens=())")
            if g in seen:
                raise ValueError(f"duplicate generator {g}")
            seen.add(g)
        self.ambient = ambient
        self.gens = gens
        self._cache = {}

    @classmethod
    def with_known_cone(cls, ambient: FgAbelianGroup, gens, span: Lattice, facets):
        """The monoid on ``gens`` whose cone is already known.

        ``span`` must be the saturated lattice spanned by the free parts of
        ``gens`` (canonical basis) and ``facets`` the sorted primitive facet
        normals in its coordinates: what ``_cone`` would compute.  The
        generator coordinates and the kill table are derived from them.
        """
        m = cls(ambient, gens)
        coords = [span.coords(f) for f in m.free_gens()]
        m._cache["cone"] = _cone_data(span, coords, facets)
        return m

    # -- plumbing ----------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, AffineMonoid)
            and self.ambient == other.ambient
            and self.gens == other.gens
        )

    def __hash__(self):
        return hash((self.ambient, self.gens))

    def __repr__(self):
        return f"AffineMonoid({self.ambient.describe()}, {list(self.gens)})"

    @property
    def ngens(self):
        return len(self.gens)

    def is_trivial(self):
        return not self.gens

    def free_gens(self):
        return [self.ambient.free_part(g) for g in self.gens]

    # -- groupification (the subgroup spanned by the generators) ------------

    def relation_lattice(self) -> Lattice:
        """{a in Z^ngens : sum a_i g_i = 0 in the ambient group}."""
        return self._get(
            "rel", lambda: zlat.relation_lattice(self.ambient, list(self.gens))
        )

    def gp_presentation(self):
        """P^gp = Z^ngens / relations, in invariant form with project/lift."""
        return self._get(
            "gp", lambda: zlat.span_presentation(self.ambient, list(self.gens))
        )

    def element_from_exponents(self, a):
        v = self.ambient.zero()
        for c, g in zip(a, self.gens):
            if c:
                v = self.ambient.add(v, self.ambient.scale(c, g))
        return v

    def integral_exponents(self, x):
        """Some a in Z^ngens with sum a_i g_i = x, or None if x is outside P^gp."""
        amb = self.ambient
        x = amb.reduce(x)
        if not self.gens:
            return () if amb.is_zero(x) else None
        rows, rhs = zlat.group_equations([(amb, self.gens, x)])
        sol = zlat.solve_integer(rows, rhs)
        if sol is None:
            return None
        return tuple(sol[: self.ngens])

    def intrinsic(self):
        """The same monoid with ambient = its own groupification.

        Returns (monoid, to_new) where ``to_new`` maps span elements of the
        old ambient to coordinates of the new one.  Generator order is
        preserved, so homomorphism data transports index-wise.
        """
        pres = self.gp_presentation()
        gens = [
            pres.project(tuple(1 if t == i else 0 for t in range(self.ngens)))
            for i in range(self.ngens)
        ]
        new = AffineMonoid(pres.group, gens)

        def to_new(x):
            a = self.integral_exponents(x)
            if a is None:
                raise ValueError(f"{x} is outside the span of the generators")
            return pres.project(a)

        return new, to_new

    # -- cone data -----------------------------------------------------------

    def _cone(self):
        def build():
            free = self.free_gens()
            span = Lattice(free, self.ambient.rank).saturation()
            coords = [span.coords(f) for f in free]
            nonzero = [c for c in coords if any(c)]
            facets = zlat.facet_normals(nonzero, span.rank) if nonzero else []
            return _cone_data(span, coords, facets)

        return self._get("cone", build)

    def cone_facets(self):
        return self._cone()[2]

    def span_lattice(self):
        return self._cone()[0]

    def cone_coords(self, x):
        """Coordinates of the free part of x in the span lattice, or None."""
        span = self._cone()[0]
        return span.coords(self.ambient.free_part(self.ambient.reduce(x)))

    # -- membership ----------------------------------------------------------

    def membership(self, x):
        """Witness a in N^ngens with x = sum a_i g_i, or None."""
        x = self.ambient.reduce(x)
        amb = self.ambient
        if not self.gens:
            return () if amb.is_zero(x) else None
        if x in self.gens:
            # a generator is its own witness: e_i, checked by substitution
            i = self.gens.index(x)
            return tuple(1 if j == i else 0 for j in range(self.ngens))
        rows, rhs = zlat.group_equations([(amb, self.gens, x)], nonneg=True)
        res = zlat.solve_nonneg(rows, rhs)
        if res.is_sat:
            return tuple(res.witness[: self.ngens])
        return None

    def contains(self, x):
        return self.membership(x) is not None

    # -- saturation ------------------------------------------------------------

    def saturate(self):
        """Saturation inside the ambient group: {x : n x in P for some n>=1}.

        The result has the same cone and span lattice, so it is built with
        them, and it is its own saturation.
        """

        def build():
            amb = self.ambient
            nt = len(amb.torsion)
            gens = [
                (0,) * amb.rank + tuple(1 if t == j else 0 for t in range(nt))
                for j in range(nt)
            ]
            span, coords, facets, _ = self._cone()
            if any(any(c) for c in coords):
                # the Hilbert basis of the facet cone in span coordinates
                sharp, units = zlat.hilbert_from_hrep(facets, span.rank)
                for h in sharp + units + [vneg(u) for u in units]:
                    free = [vdot(col, h) for col in zip(*span.basis)]
                    gens.append(tuple(free) + (0,) * nt)
            sat = AffineMonoid.with_known_cone(amb, sorted(set(gens)), span, facets)
            sat._cache["sat"] = sat
            sat._cache["is_sat"] = True
            return sat

        return self._get("sat", build)

    def is_saturated(self):
        def check():
            sat = self.saturate()
            return all(self.contains(g) for g in sat.gens)

        return self._get("is_sat", check)

    # -- faces -----------------------------------------------------------------

    def _closure(self, idxs):
        span, coords, facets, kills = self._cone()
        j_active = [
            j for j in range(len(facets)) if all(kills[j][i] for i in idxs)
        ]
        return tuple(
            i
            for i in range(self.ngens)
            if all(kills[j][i] for j in j_active)
        )

    def faces(self):
        """All faces, as Face objects sorted by (size, indices)."""

        def build():
            found = {self._closure(())}
            found.add(self._closure(tuple(range(self.ngens))))
            for i in range(self.ngens):
                found.add(self._closure((i,)))
            changed = True
            while changed:
                changed = False
                pairs = sorted(found)
                for a in pairs:
                    for b in pairs:
                        u = tuple(sorted(set(a) | set(b)))
                        c = self._closure(u)
                        if c not in found:
                            found.add(c)
                            changed = True
                            if len(found) > MAX_FACES:
                                raise ResourceLimitError(
                                    "face count exceeds configured bound", MAX_FACES
                                )
            return [Face(self, idxs) for idxs in sorted(found, key=lambda t: (len(t), t))]

        return self._get("faces", build)

    def face_from_indices(self, idxs):
        idxs = tuple(sorted(set(idxs)))
        if self._closure(idxs) != idxs:
            raise InvalidFaceError(f"generator subset {idxs} is not a face")
        return Face(self, idxs)

    def units_face(self):
        return Face(self, self._closure(()))

    def face_generated_by(self, elements):
        """Smallest face containing the given members of the monoid.

        An element x of the monoid lies in the face generated by s (the sum
        of the subset) iff every facet normal vanishing on s vanishes on x.
        """
        for x in elements:
            if not self.contains(x):
                raise MembershipError(f"{x} is not a member of the monoid")
        amb = self.ambient
        s = amb.zero()
        for x in elements:
            s = amb.add(s, amb.reduce(x))
        span, coords, facets, kills = self._cone()
        sc = span.coords(amb.free_part(s))
        j_active = [j for j in range(len(facets)) if vdot(facets[j], sc) == 0]
        idxs = tuple(
            i for i in range(self.ngens) if all(kills[j][i] for j in j_active)
        )
        return Face(self, idxs)

    # -- localization and quotients ----------------------------------------------

    def localize(self, face):
        """P + F^gp: adjoin the negatives of the face generators."""
        face = self._validate_face(face)
        gens = list(self.gens)
        for i in face.indices:
            n = self.ambient.neg(self.gens[i])
            if n not in gens and not self.ambient.is_zero(n):
                gens.append(n)
        return AffineMonoid(self.ambient, gens)

    def quotient_by_face(self, face):
        """P/F = image of P in P^gp/F^gp.

        Returns (monoid, images, presentation): ``images[i]`` is the class of
        the i-th generator, and the presentation maps exponent vectors of P's
        generators onto the quotient group P^gp/F^gp.
        """
        face = self._validate_face(face)
        k = self.ngens
        rel = self.relation_lattice()
        cols = [list(b) for b in rel.basis]
        for i in face.indices:
            cols.append([1 if t == i else 0 for t in range(k)])
        pres = zlat.quotient_by_columns(k, cols)
        images = [
            pres.project(tuple(1 if t == i else 0 for t in range(k)))
            for i in range(k)
        ]
        mono_gens = []
        for im in images:
            if not pres.group.is_zero(im) and im not in mono_gens:
                mono_gens.append(im)
        return AffineMonoid(pres.group, mono_gens), images, pres

    def _validate_face(self, face):
        if isinstance(face, Face):
            if face.monoid is not self and face.monoid != self:
                raise InvalidFaceError("face belongs to a different monoid")
            if self._closure(face.indices) != face.indices:
                raise InvalidFaceError("subset is not closed under the face condition")
            return face
        return self.face_from_indices(face)

    def height_one_valuation(self, face):
        """The map P -> P/F = N when the quotient is N; per-generator values.

        Returns (values, images, pres) where values[i] is the valuation of
        the i-th generator.  Raises NotHeightOneError when P/F is not N.
        """
        q, images, pres = self.quotient_by_face(face)
        g = pres.group
        nonzero = [im for im in images if not g.is_zero(im)]
        if not nonzero:
            raise NotHeightOneError("quotient by the face is trivial, not N")
        for h in sorted(set(nonzero)):
            if g.element_order(h) is not None:
                continue
            vals = []
            ok = True
            for im in images:
                m = _ratio(g, im, h)
                if m is None or m < 0:
                    ok = False
                    break
                vals.append(m)
            if ok:
                return tuple(vals), images, pres
        raise NotHeightOneError("quotient by the face is not isomorphic to N")

    # -- summaries ------------------------------------------------------------

    def invariants(self):
        gp = self.gp_presentation().group
        return {
            "gp_rank": gp.rank,
            "gp_torsion": tuple(gp.torsion),
            "n_faces": len(self.faces()),
            "n_gens": self.ngens,
            "saturated": self.is_saturated(),
        }


def _cone_data(span, coords, facets):
    """The ``_cone`` tuple: kills[j][i] says facet j vanishes on generator i."""
    kills = [tuple(vdot(f, c) == 0 for c in coords) for f in facets]
    return span, coords, facets, kills


def _ratio(group, x, h):
    """m >= 0 with x = m*h in the group, or None."""
    if group.is_zero(x):
        return 0
    hf = group.free_part(h)
    xf = group.free_part(x)
    m = None
    for a, b in zip(xf, hf):
        if b == 0:
            if a != 0:
                return None
            continue
        if a % b != 0:
            return None
        q = a // b
        if m is None:
            m = q
        elif m != q:
            return None
    if m is None:
        return None
    if m < 0:
        return None
    return m if group.scale(m, h) == group.reduce(x) else None


class Face:
    """A face of an AffineMonoid, recorded by its generator indices."""

    __slots__ = ("monoid", "indices")

    def __init__(self, monoid, indices):
        self.monoid = monoid
        self.indices = tuple(sorted(indices))

    @property
    def gens(self):
        return tuple(self.monoid.gens[i] for i in self.indices)

    def as_monoid(self):
        if not self.indices:
            return AffineMonoid(self.monoid.ambient, ())
        return AffineMonoid(self.monoid.ambient, self.gens)

    def span_basis(self):
        """Basis of the saturated lattice spanned by the face's free parts."""
        amb = self.monoid.ambient
        lat = Lattice([amb.free_part(g) for g in self.gens], amb.rank)
        return lat.saturation().basis

    def dim(self):
        return len(self.span_basis())

    def corank(self):
        return self.monoid.span_lattice().rank - self.dim()

    def contains_face(self, other):
        return set(other.indices) <= set(self.indices)

    def is_whole(self):
        return len(self.indices) == self.monoid.ngens

    def __eq__(self, other):
        return (
            isinstance(other, Face)
            and self.monoid == other.monoid
            and self.indices == other.indices
        )

    def __hash__(self):
        return hash((self.monoid, self.indices))

    def __repr__(self):
        return f"Face({list(self.indices)})"


def from_presentation(p: FpMonoid):
    """Integralisation of a finitely presented monoid.

    Returns (monoid, images, presentation): the ambient group is
    Z^n / <u - v>, ``images[i]`` is the image of the i-th standard generator
    (the monoid's gens are these, deduplicated and without zeros).
    """
    cols = [
        tuple(a - b for a, b in zip(u, v)) for u, v in p.relations
    ]
    pres = zlat.quotient_by_columns(p.ngens, cols)
    images = [
        pres.project(tuple(1 if t == i else 0 for t in range(p.ngens)))
        for i in range(p.ngens)
    ]
    gens = []
    for im in images:
        if not pres.group.is_zero(im) and im not in gens:
            gens.append(im)
    return AffineMonoid(pres.group, gens), images, pres


def free_monoid(rank):
    """N^rank inside Z^rank."""
    amb = FgAbelianGroup(rank)
    gens = [tuple(1 if j == i else 0 for j in range(rank)) for i in range(rank)]
    return AffineMonoid(amb, gens)


def monoid_from_vectors(vectors, rank=None, torsion=()):
    """Submonoid of Z^rank (+ torsion) generated by integer vectors."""
    vectors = [tuple(v) for v in vectors]
    if rank is None:
        rank = len(vectors[0]) - len(torsion) if vectors else 0
    amb = FgAbelianGroup(rank, tuple(torsion))
    return AffineMonoid(amb, vectors)
