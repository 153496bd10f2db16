"""Homomorphisms of affine monoids and their classification.

A MonoidHom is given by its generator images, and its constructor proves
that they lie in the target.  A saturated target, as ``is_saturated``
decides it, proves this by its facet test, and the membership witness of
each image (some a in N^ngens(target) with image = sum a_j h_j) is found
when first read; any other target is searched once per image, and those
witnesses are the proof.  The induced map on groupifications needs no
witnesses: ``gp_profile`` reads its kernel and cokernel off relation
lattices of the images.  Verdicts (injective, exact, integral, vertical,
smooth, etale, Kummer etale) are certified: every negative answer carries
a witness.

Integrality is decided by the element-wise four-tuple criterion.  The
solution monoid T = {(a1,a2,b1,b2) : f(a1)+b1 = f(a2)+b2} is generated by
the minimal nonnegative solutions of a homogeneous system (computed by
completion), and the witness condition is additive: if two tuples admit
witnesses (a3,a4,b) and (a3',a4',b'), their sum admits (a3+a3', a4+a4',
b+b'), and the zero tuple admits (0,0,0).  Checking the generators is
therefore sufficient; the brute-force oracle in the test suite guards this
argument.  Whether a tuple has a witness is whether one element lies in
one monoid per hom, ``_witness_monoid``, and ``AffineMonoid.contains``
decides that.
"""

import math

from . import zlat
from .errors import (
    MembershipError,
    PreconditionError,
    TorsionPreconditionError,
)
from .kernels import identity_matrix
from .monoid import AffineMonoid, FpMonoid, Memoized, cone_generators, from_presentation
from .zlat import FgAbelianGroup, Lattice, Value, vadd, vdot, vneg, vsub


class MonoidHom(Memoized):
    """Map of affine monoids given by generator images (validated)."""

    def __init__(self, source: AffineMonoid, target: AffineMonoid, gen_images):
        if len(gen_images) != source.ngens:
            raise ValueError("need one image per source generator")
        self.source = source
        self.target = target
        self.gen_images = tuple(target.ambient.reduce(g) for g in gen_images)
        self._cache = {}
        if target.is_saturated():
            for im in self.gen_images:
                if not target.contains(im):
                    raise MembershipError(f"image {im} is not a member of the target")
        else:
            self._cache["witnesses"] = self._find_witnesses()
        for rho in source.relation_lattice().basis:
            if not target.ambient.is_zero(self.apply_exponents(rho)):
                raise ValueError(
                    f"images do not respect the source relation {tuple(rho)}"
                )

    def _find_witnesses(self):
        wits = []
        for im in self.gen_images:
            w = self.target.membership(im)
            if w is None:
                raise MembershipError(f"image {im} is not a member of the target")
            wits.append(w)
        return tuple(wits)

    @property
    def witnesses(self):
        """Per image, some a in N^ngens(target) with image = sum a_j h_j."""
        return self._get("witnesses", self._find_witnesses)

    @classmethod
    def identity(cls, m: AffineMonoid):
        return cls(m, m, m.gens)

    def apply_exponents(self, a):
        """Image in the target ambient of the source element sum(a_i * g_i)."""
        return self.target.ambient.combine(a, self.gen_images)

    def __repr__(self):
        return f"MonoidHom({self.source!r} -> {self.target!r})"


def compose(f: MonoidHom, g: MonoidHom):
    """g after f."""
    if f.target != g.source:
        raise ValueError("composition mismatch")
    images = [g.apply_exponents(w) for w in f.witnesses]
    return MonoidHom(f.source, g.target, images)


# ---------------------------------------------------------------------------
# groupification profile


class GpProfile:
    def __init__(self, kernel: FgAbelianGroup, cokernel: FgAbelianGroup, kernel_witness=None):
        self.kernel = kernel
        self.cokernel = cokernel
        self.kernel_witness = kernel_witness  # exponent vector in Z^{#gens(P)}, or None

    def kernel_order(self):
        return self.kernel.order()


def gp_profile(f: MonoidHom) -> GpProfile:
    """Kernel and cokernel of the induced map on groupifications.

    P^gp = Z^ngens(P) / relations(P), and f^gp sends a to sum a_i f(g_i), so
    its kernel is the relation lattice of the images modulo P's relations.
    Q^gp = Z^ngens(Q) / relations(Q), and b lies in the image exactly when
    (b, a) is a relation of Q's generators followed by the negated images
    for some a; the cokernel is Z^ngens(Q) modulo the first ngens(Q)
    coordinates of those relations.  Both read the images alone.
    """

    def build():
        kp = f.source.ngens
        kq = f.target.ngens
        amb = f.target.ambient
        both = zlat.relation_lattice(amb, [*f.target.gens, *map(amb.neg, f.gen_images)])
        coker = zlat.quotient_by_columns(kq, [b[:kq] for b in both.basis]).group
        klat = zlat.relation_lattice(amb, list(f.gen_images))
        # the constructor checked that P's relations lie in klat
        relp = [klat.coords(b) for b in f.source.relation_lattice().basis]
        kpres = zlat.quotient_by_columns(klat.rank, relp)
        kernel = kpres.group
        witness = None
        if kernel.dim:
            lifted = kpres.lift((1,) + (0,) * (kernel.dim - 1))
            witness = tuple(
                sum(klat.basis[t][i] * lifted[t] for t in range(klat.rank))
                for i in range(kp)
            )
        return GpProfile(kernel, coker, witness)

    return f._get("gp_profile", build)


# ---------------------------------------------------------------------------
# individual predicates, each with a certificate


class Verdict:
    def __init__(self, holds, certificate=None):
        self.holds = holds
        self.certificate = {} if certificate is None else certificate

    def __bool__(self):
        return self.holds


def is_injective(f: MonoidHom) -> Verdict:
    prof = gp_profile(f)
    if prof.kernel.rank == 0 and not prof.kernel.torsion:
        return Verdict(True, {"kernel": prof.kernel.describe()})
    elem = f.source.element_from_exponents(prof.kernel_witness)
    return Verdict(
        False,
        {"kernel": prof.kernel.describe(), "nonzero_kernel_element": elem},
    )


def _require_saturated(m: AffineMonoid, which):
    if not m.is_saturated():
        raise PreconditionError(f"{which} monoid must be saturated")


def preimage_generators(f: MonoidHom):
    """Generators of (f^gp)^{-1}(target) inside the source groupification.

    The target must be saturated, so membership in it is the cone condition
    on free parts; the preimage is then the cone cut out in P^gp by the
    target's facets pulled back along f, torsion included.  Returns sorted
    source-ambient elements.
    """
    _require_saturated(f.target, "target")
    presp = f.source.gp_presentation()
    gp = presp.group
    pad = (0,) * len(gp.torsion)
    eye = [tuple(int(i == t) for i in range(gp.rank)) for t in range(gp.rank)]
    cols = [f.target.cone_coords(f.apply_exponents(presp.lift(e + pad))) for e in eye]
    rows = [tuple(vdot(phi, c) for c in cols) for phi in f.target.cone_facets()]
    sharp, units = zlat.hilbert_from_hrep(rows, gp.rank)
    gens = cone_generators(gp, Lattice._of_hnf(eye), sharp, units)
    return sorted(f.source.element_from_exponents(presp.lift(g)) for g in gens)


def is_exact(f: MonoidHom) -> Verdict:
    """P = (f^gp)^{-1}(Q): every generator of the preimage lies in P."""

    def build():
        gens = preimage_generators(f)
        for e in gens:
            if not f.source.contains(e):
                return Verdict(False, {"preimage_element_outside_source": e})
        return Verdict(True, {"preimage_generators_checked": len(gens)})

    return f._get("exact", build)


def is_vertical(f: MonoidHom) -> Verdict:
    """The image of the source generates the target as a face."""

    def build():
        face = f.target.face_generated_by(list(f.gen_images))
        if face.is_whole():
            return Verdict(True, {"face": "whole"})
        outside = [i for i in range(f.target.ngens) if i not in face.indices]
        return Verdict(
            False, {"target_generator_outside_face": f.target.gens[outside[0]]}
        )

    return f._get("vertical", build)


def _source_is_valuative(f: MonoidHom):
    """Saturated with sharp part of rank <= 1: then every map out is integral.

    The sharp part has the rank of the cone's quotient by its lineality
    space, which is pointed: of rank 0 it has no facet, of rank 1 it is a
    ray with one, and of rank >= 2 it has at least two.
    """
    src = f.source
    return src.is_saturated() and len(src.cone_facets()) <= 1


def _relation_generators(f: MonoidHom, stop):
    """Report each generator (a1, a2, b1, b2) of the relation monoid T to ``stop``.

    One completion run over the columns [ims, -ims, qs, -qs] plus the torsion
    slack of ``group_equations``, each slack column -d preceded by its mirror
    d so the slack is free; each minimal solution cut to its first four
    blocks is a generator.  A minimal solution other than a slack pair has
    one side of each pair at 0 (else it would lie above that pair), so its
    main part fixes its slack and no two share a tuple.  They reach ``stop``
    in completion order, a level's all before completion expands any node
    of that level, the zero tuple skipped, and the run ends when ``stop``
    returns true.  The columns are [B | -B] up to a permutation (ims and
    -ims, qs and -qs, the two columns of a slack pair), so completion
    expands one node of each pair of nodes that are mirror images, with
    the same answer and charges.
    """
    kp = f.source.ngens
    kq = f.target.ngens
    ambq = f.target.ambient
    ims, qs = f.gen_images, f.target.gens
    n = 2 * kp + 2 * kq
    rows, _ = zlat.group_equations(
        [(ambq, [*ims, *map(vneg, ims), *qs, *map(vneg, qs)], ambq.zero())]
    )
    rows = [row[:n] + [x for c in row[n:] for x in (-c, c)] for row in rows]
    if not rows:
        rows = [[0] * n]

    def report(v):
        key = (v[:kp], v[kp: 2 * kp], v[2 * kp: 2 * kp + kq], v[2 * kp + kq: n])
        return any(map(any, key)) and stop(key)

    zlat.nonneg_kernel_generators(rows, report)


def integrality_tuple_generators(f: MonoidHom):
    """Generating tuples (a1, a2, b1, b2) of the relation monoid T, sorted."""
    tuples = []
    _relation_generators(f, lambda tup: tuples.append(tup))  # None: never stops
    return sorted(tuples)


def _witness_monoid(f: MonoidHom):
    """M_f in amb(P) + amb(Q), generated by (g_i, 0), (-g_i, f(g_i)), (0, h_j).

    Returns (M_f, embed_p, embed_q), the two embeddings into the canonical
    form of the direct sum.  Duplicate generators are dropped; the only
    ones arise when f kills a unit g_i whose negative is a generator g_k.
    """

    def build():
        amb, embp, embq, _ = direct_sum(f.source.ambient, f.target.ambient)
        ps = [embp(g) for g in f.source.gens]
        gens = ps + [amb.sub(embq(im), g) for g, im in zip(ps, f.gen_images)]
        gens += [embq(h) for h in f.target.gens]
        return AffineMonoid(amb, list(dict.fromkeys(gens))), embp, embq

    return f._get("witness_monoid", build)


def _integral_witness_exists(f: MonoidHom, tup):
    """Is there (a3, a4, b) with b1 = f(a3)+b, b2 = f(a4)+b, a1+a3 = a2+a4?

    An ordered tuple (a1 >= a2 or a2 >= a1) is decided by the witness that
    ``is_integral`` constructs: it fits exactly when the tuple lies in T,
    and a tuple outside T has no witness at all.  For a1 >= a2 the witness
    (0, a1 - a2, b1) fits when f(a1 - a2) + b1 = b2 in the target group, and
    a2 >= a1 is the mirror case.

    Any other tuple of T has a witness exactly when
    x = (p(a2) - p(a1), q(b2)) lies in M_f (``_witness_monoid``), for any P
    and Q, saturated or not, torsion included.  The coefficients of x on
    the generator families (g_i, 0), (-g_i, f(g_i)) and (0, h_j) are
    exactly (a3, a4, b): the first coordinate says p(a1) + p(a3) =
    p(a2) + p(a4), the second f(a4) + q(b) = q(b2), and f(a3) + q(b) =
    q(b1) then follows from the tuple's relation f(a1) + q(b1) = f(a2) +
    q(b2).  Merging a duplicate generator changes no such sum.
    """
    a1, a2, b1, b2 = tup
    q = f.target
    if all(x >= y for x, y in zip(a1, a2)):
        a, b, c = vsub(a1, a2), b1, b2
    elif all(x <= y for x, y in zip(a1, a2)):
        a, b, c = vsub(a2, a1), b2, b1
    else:
        m, embp, embq = _witness_monoid(f)
        delta = embp(f.source.element_from_exponents(vsub(a2, a1)))
        return m.contains(m.ambient.add(delta, embq(q.element_from_exponents(b2))))
    return q.ambient.add(f.apply_exponents(a), q.element_from_exponents(b)) == (
        q.element_from_exponents(c)
    )


def is_integral(f: MonoidHom) -> Verdict:
    """Element-wise integrality via generators of the relation monoid.

    Each generator (a1, a2, b1, b2) of T needs a witness (a3, a4, b).  They
    are checked level by level as completion finds them: every generator
    of a level is checked, in completion order, before completion makes
    the level's children, and the first without a witness is the
    certificate; completion stops there.  ``True`` needs completion to
    finish, so a ResourceLimitError means the node budget, which
    completion and the witness checks share, ran out before any generator
    without a witness turned up.  An ordered generator has a witness by
    construction, in any ambient, torsion included: if a1 >= a2, then
    (0, a1 - a2, b1) is one, because f(a1 - a2) + b1 = b2 follows from
    f(a1) + b1 = f(a2) + b2; if a2 >= a1, then (a2 - a1, 0, b2).  The
    trivial pairs and the b-only generators are ordered.  The constructed
    witness is checked in the target group; each other generator is one
    membership question in the witness monoid M_f, built once per hom,
    whose cone answers it before any search does.
    """

    def build():
        if _source_is_valuative(f):
            return Verdict(True, {"reason": "source is valuative"})
        failing = []

        def unwitnessed(tup):
            if _integral_witness_exists(f, tup):
                return False
            failing.append(tup)
            return True

        _relation_generators(f, unwitnessed)
        if failing:
            keys = ("tuple_a1", "tuple_a2", "tuple_b1", "tuple_b2")
            return Verdict(False, dict(zip(keys, failing[0])))
        return Verdict(True, {"reason": "all relation-monoid generators witnessed"})

    return f._get("integral", build)


# ---------------------------------------------------------------------------
# classification


class ClassReport:
    def __init__(self, injective: Verdict, exact: Verdict, integral: Verdict, vertical: Verdict,
                 smooth: Verdict, etale: Verdict, kummer_etale: Verdict, profile: GpProfile):
        if kummer_etale.holds:
            assert etale.holds and injective.holds and exact.holds
        if etale.holds:
            assert smooth.holds
        self.injective = injective
        self.exact = exact
        self.integral = integral  # None when skipped
        self.vertical = vertical
        self.smooth = smooth
        self.etale = etale
        self.kummer_etale = kummer_etale
        self.profile = profile


def classify(f: MonoidHom, sigma, include_integral=True) -> ClassReport:
    """Full taxonomy relative to the prime set; sources/targets saturated."""
    _require_saturated(f.source, "source")
    _require_saturated(f.target, "target")
    prof = gp_profile(f)
    inj = is_injective(f)
    exact = is_exact(f)
    vertical = is_vertical(f)
    integral = is_integral(f) if include_integral else None
    korder = prof.kernel_order()
    torder = math.prod(prof.cokernel.torsion)
    if korder is None:
        smooth = Verdict(False, {"kernel_infinite": prof.kernel.describe()})
    elif not sigma.coprime(korder):
        smooth = Verdict(False, {"kernel_order_not_coprime": korder})
    elif not sigma.coprime(torder):
        smooth = Verdict(False, {"cokernel_torsion_order_not_coprime": torder})
    else:
        smooth = Verdict(True, {"kernel_order": korder, "cokernel_torsion_order": torder})
    if smooth.holds and prof.cokernel.rank == 0:
        etale = Verdict(True, {"cokernel": prof.cokernel.describe()})
    elif smooth.holds:
        etale = Verdict(False, {"cokernel_rank": prof.cokernel.rank})
    else:
        etale = Verdict(False, {"not_smooth": True})
    if etale.holds and inj.holds and exact.holds:
        ke = Verdict(True, {})
    else:
        why = {}
        if not inj.holds:
            why["not_injective"] = True
        if not exact.holds:
            why["not_exact"] = True
        if not etale.holds:
            why["not_etale"] = True
        ke = Verdict(False, why)
    return ClassReport(inj, exact, integral, vertical, smooth, etale, ke, prof)


# ---------------------------------------------------------------------------
# ramification indices


class RamificationReport(Value):
    _fields = ("indices", "skipped")

    def __init__(self, indices, skipped):
        self.indices = indices  # ((face_indices_in_target, e), ...)
        self.skipped = skipped  # face index tuples whose preimage is not height one

    def as_dict(self):
        return {
            "indices": [
                {"target_face": list(fi), "e": e} for fi, e in self.indices
            ],
            "skipped": [list(fi) for fi in self.skipped],
        }


def ramification_indices(f: MonoidHom) -> RamificationReport:
    """e_q over the height-one primes of the target with height-one preimage.

    Both monoids are saturated, so each is the set of x whose free part lies
    in its span lattice with every facet value >= 0, all torsion included.
    Its faces are then the zero sets of sets of facets, and those of corank
    one, its height-one primes, are the zero sets of single facets.  For the
    face F of a primitive facet normal phi, torsion and units lie in F, so
    phi identifies P^gp/F^gp with Z and sends P onto N: phi is the
    valuation of F.  The preimage of the face of a target facet psi is the
    face of the source generators g_i with psi(f(g_i)) = 0.  When it is the
    zero set of a source facet phi, psi o f^gp and phi are linear forms on
    P^gp that vanish on the same hyperplane and are positive on P off it, so
    psi o f^gp = e phi with e > 0, and e is an integer since phi takes the
    value 1 on P^gp.  Target facets are taken by the size, then the indices,
    of their zero sets; one whose preimage is no source facet is skipped.
    """
    src, tgt = f.source, f.target
    _require_saturated(src, "source")
    _require_saturated(tgt, "target")
    valuations = {}  # zero set of each source facet -> its values on the gens
    for vals in zip(*src._cone().values):
        valuations[tuple(i for i, v in enumerate(vals) if v == 0)] = vals
    tcone = tgt._cone()
    icoords = [tgt.cone_coords(im) for im in f.gen_images]
    faces = sorted(
        ((tuple(j for j, k in enumerate(row) if k), psi) for psi, row in zip(tcone.facets, tcone.kills)),
        key=lambda fp: (len(fp[0]), fp[0]),
    )
    out = []
    skipped = []
    for face, psi in faces:
        vq = [vdot(psi, c) for c in icoords]
        vp = valuations.get(tuple(i for i, v in enumerate(vq) if v == 0))
        if vp is None:
            skipped.append(face)
            continue
        i = next(i for i, v in enumerate(vp) if v)
        out.append((face, vq[i] // vp[i]))
    return RamificationReport(tuple(out), tuple(skipped))


# ---------------------------------------------------------------------------
# pushouts


class PushoutResult:
    def __init__(self, category, fp: FpMonoid, monoid: AffineMonoid, left: MonoidHom,
                 right: MonoidHom, presentation: zlat.QuotientPresentation):
        self.category = category
        self.fp = fp
        self.monoid = monoid  # None in the mon category
        self.left = left  # P -> Q (None in mon)
        self.right = right  # Q0 -> Q (None in mon)
        self.presentation = presentation  # Z^(gens P + gens Q0) / relations (None in mon)


def pushout(along: MonoidHom, arm: MonoidHom, category="sat") -> PushoutResult:
    """Pushout of ``arm: P0 -> P`` against ``along: P0 -> Q0``.

    mon: the finitely presented monoid on gens(P) + gens(Q0);
    int: its integralisation (image in the pushout group);
    sat: the saturation of the integralisation.
    """
    if along.source != arm.source:
        raise ValueError("pushout arms must share their source")
    if category not in ("mon", "int", "sat"):
        raise ValueError("category must be one of mon, int, sat")
    p = arm.target
    q0 = along.target
    kp = p.ngens
    kq0 = q0.ngens
    n = kp + kq0

    def pad_left(v):
        return tuple(v) + (0,) * kq0

    def pad_right(v):
        return (0,) * kp + tuple(v)

    rels = [(pad_left(u), pad_left(v)) for u, v in p.relation_pairs()]
    rels += [(pad_right(u), pad_right(v)) for u, v in q0.relation_pairs()]
    for i in range(along.source.ngens):
        rels.append((pad_left(arm.witnesses[i]), pad_right(along.witnesses[i])))
    fp = FpMonoid(n, tuple(rels))
    if category == "mon":
        return PushoutResult("mon", fp, None, None, None, None)
    qint, images, pres = from_presentation(fp)
    target = qint if category == "int" else qint.saturate()
    left = MonoidHom(p, target, images[:kp])
    right = MonoidHom(q0, target, images[kp:])
    return PushoutResult(category, fp, target, left, right, pres)


# ---------------------------------------------------------------------------
# Vidal decomposition


class VidalResult:
    def __init__(self, double: AffineMonoid, product: AffineMonoid, forward_on_ambient,
                 backward_on_ambient, verified):
        self.double = double  # (Q +_P Q)^sat
        self.product = product  # Q + coker
        self.forward_on_ambient = forward_on_ambient  # columns: image of each ambient coordinate
        self.backward_on_ambient = backward_on_ambient
        self.verified = verified


def direct_sum(g1: FgAbelianGroup, g2: FgAbelianGroup):
    """Canonical form of g1 + g2 with the two embeddings and the split.

    ``split`` sends an element of the sum to its unique pair of components.
    """
    n = g1.dim + g2.dim
    cols = []
    for j, d in enumerate(g1.torsion):
        col = [0] * n
        col[g1.rank + j] = d
        cols.append(col)
    for j, d in enumerate(g2.torsion):
        col = [0] * n
        col[g1.dim + g2.rank + j] = d
        cols.append(col)
    pres = zlat.quotient_by_columns(n, cols)

    def embed1(v):
        return pres.project(tuple(v) + (0,) * g2.dim)

    def embed2(v):
        return pres.project((0,) * g1.dim + tuple(v))

    def split(v):
        x = pres.lift(v)
        return g1.reduce(x[: g1.dim]), g2.reduce(x[g1.dim:])

    return pres.group, embed1, embed2, split


def vidal_decompose(f: MonoidHom) -> VidalResult:
    """(Q +_P Q)^sat = Q + Q^gp/P^gp via (a, b) -> (a + b, class of b).

    D = (Q +_P Q)^sat is presented over the exponents (e1, e2) of the two
    copies of Q's generators, and E = Q^gp + N, with N = Z^ngens(Q) modulo
    Q's relations and the witnesses of f.  Forward, a D-coordinate lifted
    to (e1, e2) goes to (class of e1 + e2, class of e2 in N); backward, the
    pair (a, t) goes to the class of (lift(a) - y, y), y a lift of t.
    ``verified`` checks each map against the other: every torsion column is
    killed by its order, the other map undoes it on every coordinate, and
    the generators of its monoid land in the other monoid.
    """
    if gp_profile(f).cokernel.rank != 0:
        raise TorsionPreconditionError("cokernel of the groupification must be torsion")
    _require_saturated(f.source, "source")
    _require_saturated(f.target, "target")
    q = f.target
    kq = q.ngens
    po = pushout(f, f, "sat")
    dmon, dpres = po.monoid, po.presentation  # dpres.group is D's ambient
    qgp = q.gp_presentation()
    relq = [list(b) for b in q.relation_lattice().basis]
    npres = zlat.quotient_by_columns(kq, relq + [list(w) for w in f.witnesses])
    eamb, embq, embn, split = direct_sum(qgp.group, npres.group)
    egens = [embq(qgp.project(e)) for e in identity_matrix(kq)]
    egens += [embn(e) for e in identity_matrix(npres.group.dim)]
    emon = AffineMonoid(eamb, list(dict.fromkeys(g for g in egens if not eamb.is_zero(g))))

    def forward(c):
        e = dpres.lift(c)
        return eamb.add(embq(qgp.project(vadd(e[:kq], e[kq:]))), embn(npres.project(e[kq:])))

    def backward(c):
        a, t = split(c)
        y = npres.lift(t)
        return dpres.project(vsub(qgp.lift(a), y) + y)

    fwd = tuple(map(forward, identity_matrix(dmon.ambient.dim)))
    bwd = tuple(map(backward, identity_matrix(eamb.dim)))

    def checks(a, b, cols, back):
        """The three checks of the map a -> b with ``cols``, undone by ``back``."""
        amb, bamb = a.ambient, b.ambient
        yield all(bamb.is_zero(bamb.scale(d, cols[amb.rank + j]))
                  for j, d in enumerate(amb.torsion))
        yield all(amb.combine(col, back) == tuple(e)
                  for col, e in zip(cols, identity_matrix(amb.dim)))
        yield all(b.contains(bamb.combine(g, cols)) for g in a.gens)

    # torsion both ways, then inverses both ways, then generators both ways
    verified = all(map(all, zip(checks(dmon, emon, fwd, bwd), checks(emon, dmon, bwd, fwd))))
    return VidalResult(dmon, emon, fwd, bwd, verified)


# ---------------------------------------------------------------------------
# semistable extension


def semistable_extension(p: AffineMonoid, pi, n):
    """P -> P_n(pi) = P[e_1..e_n]/(e_1+...+e_n = pi).

    Returns (hom, new_gen_images): the images of the n added generators in
    the target.  n = 0 requires pi = 0 and returns the identity.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    pi = p.ambient.reduce(pi)
    wit = p.membership(pi)
    if wit is None:
        raise MembershipError(f"{pi} is not a member of the monoid")
    if n == 0:
        if not p.ambient.is_zero(pi):
            raise MembershipError("with n = 0 the relation forces pi = 0")
        return MonoidHom.identity(p), []
    kp = p.ngens
    pad = (0,) * n
    rels = [(u + pad, v + pad) for u, v in p.relation_pairs()]
    rels.append((tuple(wit) + (0,) * n, (0,) * kp + (1,) * n))
    fp = FpMonoid(kp + n, tuple(rels))
    target, images, pres = from_presentation(fp)
    hom = MonoidHom(p, target, images[:kp])
    return hom, images[kp:]
