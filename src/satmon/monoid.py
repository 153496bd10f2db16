"""Affine (finitely generated integral) monoids inside a f.g. abelian group.

An AffineMonoid is a duplicate-free list of nonzero generators in an ambient
FgAbelianGroup.  Saturation is taken inside the ambient group (so it may
enlarge the subgroup the generators span); the face machinery works on the
rational cone spanned by the free parts of the generators, whose facet
normals certify every face computation exactly.

Monoids are immutable; derived data (relation lattice, facets, saturation,
faces) is cached on first use.  All operations are pure.  Equal monoids
share their cone, saturation and saturatedness through one process-wide
memo, and every read of them is charged their nodes again
(``AffineMonoid._shared``).
"""

import threading
from collections import OrderedDict
from functools import cached_property

from . import zlat
from .errors import InvalidFaceError, MembershipError
from .zlat import FgAbelianGroup, Lattice, Value, vdot, vneg


class FpMonoid(Value):
    """Finite presentation: ngens generators, relations u ~ v with u, v in N^n."""

    _fields = ("ngens", "relations")

    def __init__(self, ngens, relations):
        for u, v in relations:
            if len(u) != ngens or len(v) != ngens:
                raise ValueError("relation vectors must have length ngens")
            if any(a < 0 for a in u) or any(a < 0 for a in v):
                raise ValueError("relation vectors must be nonnegative")
        self.ngens = ngens
        self.relations = relations


class Memoized:
    """Per-instance cache of derived data; subclasses set ``self._cache = {}``."""

    def _get(self, key, fn):
        if key not in self._cache:
            self._cache[key] = fn()
        return self._cache[key]


# The memo of ``AffineMonoid._shared``: monoid value, as the ints
# (ambient rank, ambient torsion, gens) that hash without a Python call, ->
# {name: (value, events)}, least recently used first.  A value is kept
# from its second sighting on (each instance that reads is a sighting), so
# a stream of new monoids costs a hash and a lookup each and records
# nothing; ``_SEEN`` holds the hashes of the last MEMO_SIZE values seen
# once, oldest first.  MEMO_SIZE is set by memory: an entry holds about
# 4 KB (the classify and covers workloads of satbench) to 6 KB (its
# saturate cones of dimension 5), so 128 entries stay under 1 MB and hold
# all 78 values that the full classify corpus keeps and the 62 that
# covers keeps.
MEMO_SIZE = 128
_MEMO = OrderedDict()
_SEEN = {}
_MEMO_LOCK = threading.Lock()


def clear_memo():
    """Forget every shared cone, saturation and saturatedness."""
    with _MEMO_LOCK:
        _MEMO.clear()
        _SEEN.clear()


def _memo_entry(key):
    """The memo's dict for a monoid value, the value becoming the most
    recently used; False on the value's first sighting."""
    h = hash(key)
    with _MEMO_LOCK:
        entry = _MEMO.get(key)
        if entry is not None:
            _MEMO.move_to_end(key)
        elif h in _SEEN:
            del _SEEN[h]
            entry = _MEMO[key] = {}
            if len(_MEMO) > MEMO_SIZE:
                _MEMO.popitem(last=False)
        else:
            entry = False
            _SEEN[h] = None
            if len(_SEEN) > MEMO_SIZE:
                del _SEEN[next(iter(_SEEN))]
        return entry


class AffineMonoid(Memoized):
    """Submonoid of an FgAbelianGroup given by its generators."""

    def __init__(self, ambient: FgAbelianGroup, gens):
        gens = tuple(ambient.reduce(g) for g in gens)
        seen = set()
        for g in gens:
            if not any(g):
                raise ValueError("generators must be nonzero (trivial monoid: gens=())")
            if g in seen:
                raise ValueError(f"duplicate generator {g}")
            seen.add(g)
        self.ambient = ambient
        self.gens = gens
        self._cache = {}
        self._memo = None  # the value's memo entry, looked up on first read

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
            "gp",
            lambda: zlat.quotient_by_columns(
                self.ngens, [list(b) for b in self.relation_lattice().basis]
            ),
        )

    def element_from_exponents(self, a):
        return self.ambient.combine(a, self.gens)

    def relation_pairs(self):
        """Each basis relation rho as the pair (rho+, rho-) of N^ngens vectors."""
        return [
            (tuple(max(x, 0) for x in rho), tuple(max(-x, 0) for x in rho))
            for rho in self.relation_lattice().basis
        ]

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
        # distinct nonzero generators have distinct nonzero classes in P^gp
        new = _monoid_of_quotient(pres)[0]

        def to_new(x):
            a = self.integral_exponents(x)
            if a is None:
                raise ValueError(f"{x} is outside the span of the generators")
            return pres.project(a)

        return new, to_new

    # -- the memo --------------------------------------------------------------

    def _shared(self, name):
        """The cone ("cone"), the saturation ("sat") or the saturatedness
        ("is_sat"), built by ``_build_<name>`` once per instance and shared
        by equal monoids through the memo, charged the same nodes either way.

        A miss records the build's events in order: the meters' charges
        (``zlat._node_meter``: one tally per run of consecutive charges of
        one meter) and its reads of this instance's three names.  A hit
        replays them on the instance that reads: each charge goes to the
        current budget, and each read goes through ``_shared`` again, so it
        is free when the instance already holds the name.

        Replay charges what building would, inside a budget block (where
        every request runs).  A build reads nothing but the monoid's value
        and, through its reads of these three names, which of them the
        instance holds: every other monoid it touches is made inside it,
        and it reads no other charged name of this one.  So on any instance
        of the value a build makes the recorded sequence of charges and
        reads, each read charging what that read charges on that instance
        then, and a replayed read does the same, by induction on the
        nesting of reads.  Totals only grow, and a meter refuses at the
        first charge that takes the block's total past its limit, so a
        tally takes the total past the limit exactly when one of its
        charges does: the replay is refused at the same point, naming the
        same search and limit, with the same earlier reads done and held.
        No report, then, depends on what ran earlier in the process, or on
        the thread that ran it.

        The saturation is shared as its generators and cone, and a hit
        builds a new monoid of them.  Inside the recorded build of another
        monoid, the read is built for this instance alone, and that
        recording takes its charges as its own.
        """
        rec = zlat._RECORDER.get()
        if rec is not None:
            if rec[0] is not self:
                return self._get(name, getattr(self, "_build_" + name))
            if name not in rec[1]:
                rec[1].append(name)
        cache = self._cache
        if name in cache:
            return cache[name]
        entry = self._memo
        if entry is None:
            amb = self.ambient
            entry = self._memo = _memo_entry((amb.rank, amb.torsion, self.gens))
        if entry is False:
            value = getattr(self, "_build_" + name)()
        elif name in entry:
            value, events = entry[name]
            token = zlat._RECORDER.set(None)
            try:
                for ev in events:
                    if type(ev) is str:
                        self._shared(ev)
                    else:
                        zlat._node_meter(ev[0])(ev[1])
            finally:
                zlat._RECORDER.reset(token)
            if name == "sat":
                value = _saturated(self.ambient, *value)
        else:
            events = []
            token = zlat._RECORDER.set((self, events))
            try:
                value = getattr(self, "_build_" + name)()
            finally:
                zlat._RECORDER.reset(token)
            shared = (value.gens, value._cache["cone"]) if name == "sat" else value
            entry[name] = (shared, tuple(e if type(e) is str else tuple(e) for e in events))
        cache[name] = value
        return value

    # -- cone data -----------------------------------------------------------

    def _cone(self):
        """The ``Cone`` of the free parts.

        Its span is the saturation of the lattice the free parts generate.
        When the free parts have rank ``ambient.rank`` that is Z^rank, so
        the span is the standard lattice and the coordinates are the free
        parts themselves: no Hermite or Smith form runs.  Only a
        rank-deficient span is saturated with a Smith form.
        """
        return self._shared("cone")

    def _build_cone(self):
        free = self.free_gens()
        rank = self.ambient.rank
        nonzero = [f for f in free if any(f)]
        if len(zlat._independent_rows(nonzero, rank)) == rank:
            eye = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
            span, coords = Lattice._of_hnf(eye), tuple(free)
        else:
            span = Lattice(free, rank).saturation()
            coords = tuple(span.coords(f) for f in free)
            nonzero = [c for c in coords if any(c)]
        facets = zlat.facet_normals(nonzero, span.rank) if nonzero else []
        return Cone(span, coords, tuple(facets))

    def cone_facets(self):
        return self._cone().facets

    def span_lattice(self):
        return self._cone().span

    def cone_coords(self, x):
        """Coordinates of the free part of x in the span lattice, or None.

        A span of full rank is Z^rank with the standard basis, so the
        coordinates are the free part itself.
        """
        span = self._cone().span
        free = self.ambient.free_part(self.ambient.reduce(x))
        return free if span.rank == self.ambient.rank else span.coords(free)

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
        # generators and x are reduced, so no slack of a witness is negative
        rows, rhs = zlat.group_equations([(amb, self.gens, x)])
        res = zlat.solve_nonneg(rows, rhs)
        if res.is_sat:
            return tuple(res.witness[: self.ngens])
        return None

    def contains(self, x):
        """Is x in the monoid?

        The cone is tested first: every member has its free part in the
        span lattice and every facet value >= 0, so an x that fails this
        lies in no monoid with this cone, and the answer is False without
        deciding saturatedness.  The saturation is exactly the set of x
        that pass, torsion included, so a saturated monoid contains them
        all; for any other monoid a ``membership`` search decides.
        ``is_saturated`` is decided on the first call that needs it and
        cached.
        """
        c = self.cone_coords(x)
        if c is None or any(vdot(f, c) < 0 for f in self.cone_facets()):
            return False
        return self.is_saturated() or self.membership(x) is not None

    # -- saturation ------------------------------------------------------------

    def saturate(self):
        """Saturation inside the ambient group: {x : n x in P for some n>=1}.

        The result has the same cone and span lattice, so it is built from
        them (``Cone.saturation``), and it is its own saturation.
        """
        return self._shared("sat")

    def _build_sat(self):
        return self._cone().saturation(self.ambient)

    def is_saturated(self):
        """Is P = sat(P)?  Decided from the cone, without a search.

        Let S = sat(P) and U the units of S: the x whose free part lies in
        the span lattice with every facet value 0, all torsion included.
        P = S if and only if
          (i) the generators of P in U generate U as a group, and
          (ii) every generator h of S outside U has the facet values of
               some generator of P.
        If (i) holds, the generators of P in U span the lineality space as
        a cone, so their free parts have a relation with all coefficients
        positive; times the torsion exponent it is a relation in the
        ambient, which makes their monoid a group, so U is inside P.  Then
        facet values equal to those of a generator g give h - g in U, so
        h is in P, and with U these h generate S.  Conversely, P cap U is the monoid of P's generators in
        U (facet values are additive and >= 0), so U inside P needs (i).
        And h, a Hilbert-basis element, is not the sum of two elements of
        S outside U, so h = sum a_i g_i in P has exactly one g_i outside U,
        with a_i = 1, and h - g_i is in U: h has the facet values of g_i.
        """
        return self._shared("is_sat")

    def _build_is_sat(self):
        return self._saturation_defect() is None

    def _saturation_defect(self):
        """An element of sat(P) outside P, or None when P is saturated.

        The element is a generator of sat(P) that fails the criterion of
        ``is_saturated``: a Hilbert-basis element whose facet values no
        generator of P has, or a unit outside the group that P's unit
        generators generate.
        """
        sat = self.saturate()
        facets = self.cone_facets()
        zero = (0,) * len(facets)
        gvals = self._cone().values
        reached = set(gvals)
        units = None
        # the saturation's values are taken one generator at a time, as the
        # first defect ends the scan
        for s, c in zip(sat.gens, sat._cone().coords):
            v = tuple(vdot(f, c) for f in facets)
            if v != zero:
                if v not in reached:
                    return s
                continue
            if units is None:
                units = AffineMonoid(
                    self.ambient, [g for g, gv in zip(self.gens, gvals) if gv == zero]
                )
            if units.integral_exponents(s) is None:
                return s
        return None

    # -- faces -----------------------------------------------------------------

    def _closure(self, idxs):
        active = [row for row in self._cone().kills if all(row[i] for i in idxs)]
        return tuple(i for i in range(self.ngens) if all(row[i] for row in active))

    def faces(self):
        """All faces, as Face objects sorted by (size, indices).

        A face is the set of generators on which some set of facets
        vanishes, so the faces are the whole generator set cut by the zero
        set of each facet in turn.  Each cut is charged one node per
        generator index it scans, before it scans them.
        """

        def build():
            charge = zlat._node_meter("face enumeration")
            found = {tuple(range(self.ngens))}
            for row in self._cone().kills:
                for face in list(found):
                    charge(len(face))
                    found.add(tuple(i for i in face if row[i]))
            return [Face(self, idxs) for idxs in sorted(found, key=lambda t: (len(t), t))]

        return self._get("faces", build)

    def face_from_indices(self, idxs):
        idxs = tuple(sorted(set(idxs)))
        if self._closure(idxs) != idxs:
            raise InvalidFaceError(f"generator subset {idxs} is not a face")
        return Face(self, idxs)

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
        cone = self._cone()
        sc = self.cone_coords(s)
        active = [row for f, row in zip(cone.facets, cone.kills) if vdot(f, sc) == 0]
        idxs = tuple(i for i in range(self.ngens) if all(row[i] for row in active))
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
        cols = [list(b) for b in self.relation_lattice().basis]
        for i in face.indices:
            cols.append([1 if t == i else 0 for t in range(k)])
        return _monoid_of_quotient(zlat.quotient_by_columns(k, cols))

    def _validate_face(self, face):
        if isinstance(face, Face):
            if face.monoid is not self and face.monoid != self:
                raise InvalidFaceError("face belongs to a different monoid")
            if self._closure(face.indices) != face.indices:
                raise InvalidFaceError("subset is not closed under the face condition")
            return face
        return self.face_from_indices(face)


class Cone(Value):
    """The rational cone of a monoid's free parts, in span coordinates.

    ``span`` is the saturated lattice the free parts span (the cone is
    full-dimensional in it), ``coords`` the span coordinates of the
    generators and ``facets`` the sorted primitive facet normals, empty when
    the cone is all of ``span``.  The facet values, the incidence, the
    rays, the triangulation and its frames are built when first read.
    """

    _fields = ("span", "coords", "facets")

    def __init__(self, span: Lattice, coords, facets):
        self.span = span
        self.coords = coords
        self.facets = facets

    @cached_property
    def values(self):
        """values[i][j]: the value of facet j on generator i."""
        return tuple(tuple(vdot(f, c) for f in self.facets) for c in self.coords)

    @cached_property
    def kills(self):
        """kills[j][i]: facet j vanishes on generator i."""
        return tuple(tuple(v == 0 for v in col) for col in zip(*self.values))

    @cached_property
    def rays(self):
        """The extreme rays as sorted (ray, mask) pairs, or None with units.

        A ray is a primitive vector, a mask has bit j when facet j vanishes
        on it.  A nonzero generator on every facet is a unit; without one
        the cone is pointed, and since it is generated by the generators,
        each extreme ray carries one.  A generator on a ray vanishes on a
        set of facets that no other nonzero point's set contains; one in a
        face of dimension >= 2 vanishes on a proper subset of the set of a
        ray of that face.  So the rays are the generators whose sets are
        inclusion-maximal, divided by their (positive) gcd.
        """
        pairs = [
            (c, sum(1 << j for j, row in enumerate(self.kills) if row[i]))
            for i, c in enumerate(self.coords)
            if any(c)
        ]
        masks = {m for _, m in pairs}
        if (1 << len(self.facets)) - 1 in masks:
            return None
        rays = {}
        for c, m in pairs:
            if m not in rays and not any(m != o and m & o == m for o in masks):
                rays[m] = zlat.primitive(c)
        return tuple(sorted((r, m) for m, r in rays.items()))

    @cached_property
    def triangulation(self):
        """The pulling triangulation on ``rays``: bitmasks of ray indices."""
        if self.rays is None:
            return None
        masks = [m for _, m in self.rays]
        return zlat.pulling_triangulation(masks, len(self.facets), self.span.rank)

    @cached_property
    def frames(self):
        """The frame of each simplex of ``triangulation``
        (``zlat.simplex_frames``), shared by every box read off it."""
        if self.rays is None:
            return None
        return zlat.simplex_frames([r for r, _ in self.rays], self.triangulation)

    def saturation(self, ambient: FgAbelianGroup, lattice=None):
        """The saturated monoid of the cone: {x in ``ambient`` : free part
        in ``span``, every facet value >= 0}.

        With ``lattice``, an overlattice M of ``span`` = Z^r, it is the
        monoid cone cap M in M-coordinates, in a torsion-free ``ambient``
        of rank r.  A point with M-coordinates c is c . rows / den, so a
        facet normal phi becomes rows . phi, the facet normal in M, up to
        the positive factor den; dividing it by its gcd keeps it primitive.

        This is the one place that chooses how the Hilbert basis is found.
        A pointed cone reads it off its rays and the frames of its
        triangulation (``zlat.hilbert_from_frames``), in M too, so no ray
        is rewritten and no Smith form runs.  A cone with units runs
        ``zlat.hilbert_from_hrep`` on its facets.  The result carries its
        cone and is its own saturation.
        """
        facets = self.facets
        if lattice is not None:
            facets = tuple(
                sorted(zlat.primitive([vdot(row, phi) for row in lattice.rows]) for phi in facets)
            )
        if self.rays is None:
            sharp, units = zlat.hilbert_from_hrep(facets, self.span.rank)
        else:
            rays = [r for r, _ in self.rays]
            sharp = zlat.hilbert_from_frames(self.facets, rays, self.frames, lattice)
            units = []
        if lattice is None:
            coords = cone_generators(ambient, self.span, sharp, units)
        else:
            # M-coordinates are span coordinates: the span is Z^r
            coords = {h: h for h in sharp + units + [vneg(u) for u in units]}
        gens = sorted(coords)
        return _saturated(ambient, gens, Cone(self.span, tuple(coords[g] for g in gens), facets))


def _saturated(ambient, gens, cone):
    """The monoid of ``gens``, saturated with cone ``cone``: it carries its
    cone and is its own saturation."""
    sat = AffineMonoid(ambient, gens)
    sat._cache.update(cone=cone, sat=sat, is_sat=True)
    return sat


def cone_generators(ambient: FgAbelianGroup, span: Lattice, sharp, units):
    """Generators of {x : free part in ``span`` and in a cone C}, from the
    Hilbert basis of C in the coordinates of ``span``: its ``sharp`` part
    and a basis of its ``units`` (``zlat.hilbert_from_hrep``).

    ``span`` is a saturated lattice in the free part of ``ambient``
    (canonical basis).  The generators are the torsion basis, the sharp
    part and the units with their negatives.  Returns a dict from each
    generator to its span coordinates.
    """
    nt = len(ambient.torsion)
    coords = {
        (0,) * ambient.rank + tuple(1 if t == j else 0 for t in range(nt)): (0,) * span.rank
        for j in range(nt)
    }
    cols = list(zip(*span.basis))
    pad = (0,) * nt
    for h in sharp + units + [vneg(u) for u in units]:
        coords[tuple(vdot(col, h) for col in cols) + pad] = h
    return coords


def _monoid_of_quotient(pres):
    """(monoid, images, pres) for a quotient presentation of Z^ngens.

    ``images[i]`` is the class of the i-th standard generator; the monoid
    they generate has these classes as generators, deduplicated in order
    and without zeros.
    """
    k = pres.ngens
    images = [pres.project(tuple(1 if t == i else 0 for t in range(k))) for i in range(k)]
    gens = dict.fromkeys(im for im in images if not pres.group.is_zero(im))
    return AffineMonoid(pres.group, list(gens)), images, pres


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
        return AffineMonoid(self.monoid.ambient, self.gens)

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
    cols = [tuple(a - b for a, b in zip(u, v)) for u, v in p.relations]
    return _monoid_of_quotient(zlat.quotient_by_columns(p.ngens, cols))


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
