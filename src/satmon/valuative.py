"""Valuative monoids as ordered lattices, and the valuative-base pipelines.

An OrderedLattice is Z^rank (or its rational hull when ``divisible``) totally
ordered by a lex chain of linear forms with coefficients in Q(sqrt(d)); its
nonnegative part is the valuative monoid V.  A TypeVPresentation presents
Q = (V +_{P0} Q0)^sat from an fs chart P0 -> Q0 and an order-compatible
anchor P0 -> V.

Membership in Q is decided on lifts: x lies in Q iff the rational system
x = iota(v) + sum lambda_i q_i (lambda >= 0, v lex-nonnegative) is solvable
modulo the rational relation space.  Clearing denominators turns a rational
solution into N*x = iota(w) + sum a_i q_i with integral w >= 0, a >= 0 --
any torsion discrepancy dies after multiplying by the exponent -- and
conversely an integral solution scales down.  Lex-nonnegativity of v is
split into sign patterns (first t levels zero, level t+1 positive); each
pattern is one exact LP whose only irrational data is the objective row.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from . import zlat
from ._field import Quad, is_squarefree
from ._lp import LinearSystem, OPTIMAL, UNBOUNDED
from .errors import (
    MembershipError,
    NonDivisibleBaseError,
    NotIntegralError,
    PreconditionError,
    SearchFailureError,
)
from .homs import (
    MonoidHom,
    is_integral,
    pushout,
    ramification_indices,
)
from .monoid import AffineMonoid
from .zlat import Lattice, Overlattice

# Bounds of the flattening-ideal search: ideals with up to FLATTEN_MAX_GENS
# generators, each a sum of generators with coefficients up to
# FLATTEN_COEFF_BOUND, and at most FLATTEN_COMBO_LIMIT antichains tried.
FLATTEN_MAX_GENS = 3
FLATTEN_COEFF_BOUND = 3
FLATTEN_COMBO_LIMIT = 20000


def _frac_vec(v):
    return tuple(Fraction(x) for x in v)


@dataclass(frozen=True)
class LevelForm:
    """Linear form with coefficients rational + rational*sqrt(d)."""

    rational: tuple  # Fractions, length = rank
    irrational: tuple  # Fractions, length = rank

    def value(self, x, d):
        a = sum((Fraction(c) * Fraction(v) for c, v in zip(self.rational, x)), Fraction(0))
        b = sum((Fraction(c) * Fraction(v) for c, v in zip(self.irrational, x)), Fraction(0))
        return Quad(a, b, d)


class OrderedLattice:
    """Z^rank (Q^rank when divisible) with a total lex-chain order."""

    def __init__(self, rank, levels, d=0, divisible=False):
        if not is_squarefree(d):
            raise ValueError("d must be square-free and >= 0")
        self.rank = rank
        self.d = d
        self.divisible = bool(divisible)
        lv = []
        for a, b in levels:
            lv.append(LevelForm(_frac_vec(a), _frac_vec(b)))
            if d == 0 and any(x != 0 for x in lv[-1].irrational):
                raise ValueError("irrational parts require d >= 2")
        self.levels = tuple(lv)
        self._chain = None
        if self.kernel_chain()[-1].rank:
            raise ValueError("order is not total: the level forms have a joint kernel")

    def check_element(self, x):
        if len(x) != self.rank:
            raise ValueError("wrong length")
        if not self.divisible:
            for c in x:
                if Fraction(c).denominator != 1:
                    raise ValueError("non-divisible lattice requires integer coordinates")

    def sign(self, x):
        """-1, 0, +1 of the first nonzero level value; exact."""
        self.check_element(x)
        for f in self.levels:
            s = f.value(x, self.d).sign()
            if s:
                return s
        return 0

    def nonneg(self, x):
        return self.sign(x) >= 0

    def compare(self, x, y):
        return self.sign(tuple(Fraction(a) - Fraction(b) for a, b in zip(x, y)))

    def is_member(self, x):
        """x in V = the nonnegative part."""
        try:
            self.check_element(x)
        except ValueError:
            return False
        return self.sign(x) >= 0

    # -- convex subgroup chain ------------------------------------------------

    def kernel_chain(self):
        """Saturated kernel lattices C_0 > C_1 > ... of the level prefixes.

        C_t = {x in Z^rank : levels 1..t vanish on x}; these are exactly the
        convex subgroups of the order.
        """
        if self._chain is None:
            chain = []
            rows = []
            full = [
                tuple(1 if i == j else 0 for i in range(self.rank))
                for j in range(self.rank)
            ]
            chain.append(Lattice(full, self.rank))
            for f in self.levels:
                den = 1
                for c in f.rational + f.irrational:
                    den = den * Fraction(c).denominator // math.gcd(den, Fraction(c).denominator)
                rows.append([int(Fraction(c) * den) for c in f.rational])
                if self.d:
                    rows.append([int(Fraction(c) * den) for c in f.irrational])
                ker = zlat.kernel_basis(rows) if rows else full
                chain.append(Lattice([list(k) for k in ker], self.rank))
            self._chain = chain
        return self._chain

    def convex_subgroups(self):
        """Distinct members of the kernel chain (largest first)."""
        out = []
        for lat in self.kernel_chain():
            if not out or lat.basis != out[-1].basis:
                out.append(lat)
        return out

    def face_count(self):
        """Number of faces of V: one per convex subgroup."""
        return len(self.convex_subgroups())

    def is_discrete(self):
        """Does V+ \\ {0} have a smallest element?"""
        if self.rank == 0:
            return False
        if self.divisible:
            return False
        last = None
        for lat in self.kernel_chain():
            if lat.rank > 0:
                last = lat
        return last is not None and last.rank == 1

    def min_positive(self):
        """The smallest positive element, when the order is discrete."""
        if not self.is_discrete():
            return None
        last = None
        for lat in self.kernel_chain():
            if lat.rank > 0:
                last = lat
        g = last.basis[0]
        if self.sign(g) < 0:
            g = tuple(-x for x in g)
        return g

    def restrict_forms_to_basis(self, basis_rows):
        """Pull the level forms back through new basis vectors (rational)."""
        levels = []
        for f in self.levels:
            a = tuple(
                sum((Fraction(c) * Fraction(b) for c, b in zip(f.rational, row)), Fraction(0))
                for row in basis_rows
            )
            b = tuple(
                sum((Fraction(c) * Fraction(bb) for c, bb in zip(f.irrational, row)), Fraction(0))
                for row in basis_rows
            )
            levels.append((a, b))
        return levels

    def __eq__(self, other):
        return (
            isinstance(other, OrderedLattice)
            and self.rank == other.rank
            and self.d == other.d
            and self.divisible == other.divisible
            and self.levels == other.levels
        )

    def __repr__(self):
        return (
            f"OrderedLattice(rank={self.rank}, d={self.d}, "
            f"divisible={self.divisible}, levels={len(self.levels)})"
        )


def lex_lattice(rank):
    """Z^rank with the lexicographic order."""
    levels = []
    for i in range(rank):
        a = tuple(Fraction(1) if j == i else Fraction(0) for j in range(rank))
        b = (Fraction(0),) * rank
        levels.append((a, b))
    return OrderedLattice(rank, levels)


def quadratic_line(d):
    """Z^2 embedded densely in R via (a, b) -> a + b*sqrt(d)."""
    return OrderedLattice(
        2, [((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))], d=d
    )


def divisible_nonneg(rank):
    """Q^rank_{>=0}-style divisible base: lex order on rational coordinates."""
    levels = []
    for i in range(rank):
        a = tuple(Fraction(1) if j == i else Fraction(0) for j in range(rank))
        levels.append((a, (Fraction(0),) * rank))
    return OrderedLattice(rank, levels, divisible=True)


# ---------------------------------------------------------------------------
# maps into a valuative monoid


class LatticeMap:
    """Map from an affine monoid into V, given on generators."""

    def __init__(self, lattice: OrderedLattice, source: AffineMonoid, images):
        if len(images) != source.ngens:
            raise ValueError("need one image per generator")
        self.lattice = lattice
        self.source = source
        self.images = tuple(_frac_vec(v) for v in images)
        for v in self.images:
            lattice.check_element(v)
            if lattice.sign(v) < 0:
                raise ValueError(f"anchor image {v} is negative in V")
        for rho in source.relation_lattice().basis:
            acc = [Fraction(0)] * lattice.rank
            for c, im in zip(rho, self.images):
                for i in range(lattice.rank):
                    acc[i] += c * im[i]
            if any(acc):
                raise ValueError("anchor does not respect the source relations")

    def eval_exponents(self, a):
        out = [Fraction(0)] * self.lattice.rank
        for c, im in zip(a, self.images):
            if c:
                for i in range(self.lattice.rank):
                    out[i] += c * im[i]
        return tuple(out)

    def eval_element(self, x):
        a = self.source.integral_exponents(x)
        if a is None:
            raise ValueError(f"{x} is outside the span of the source generators")
        return self.eval_exponents(a)


# ---------------------------------------------------------------------------
# monoid ideals and affine blowups


@dataclass(frozen=True)
class MonoidIdeal:
    owner: AffineMonoid
    generators: tuple

    def __post_init__(self):
        for g in self.generators:
            if self.owner.membership(g) is None:
                raise MembershipError(f"ideal generator {g} is not in the owner monoid")

    def contains(self, a):
        a = self.owner.ambient.reduce(a)
        for g in self.generators:
            diff = self.owner.ambient.sub(a, g)
            if self.owner.contains(diff):
                return True
        return False


def affine_blowup(p: AffineMonoid, ideal: MonoidIdeal, a):
    """P[K - a]: saturation of the submonoid generated by P and K - a."""
    a = p.ambient.reduce(a)
    if not ideal.contains(a):
        raise MembershipError(f"{a} is not an element of the ideal")
    gens = list(p.gens)
    for k in ideal.generators:
        diff = p.ambient.sub(k, a)
        if not p.ambient.is_zero(diff) and diff not in gens:
            gens.append(diff)
    return AffineMonoid(p.ambient, gens).saturate()


def vcp_select(p: AffineMonoid, ideal: MonoidIdeal, theta: LatticeMap):
    """Choose a in gens(K) minimal for the theta-preorder; certify the blowup.

    The preorder compares k >= k' iff theta(k) - theta(k') is nonnegative in
    V; since V is valuative the preorder is total, and the minimal generator
    makes theta map P[K - a] into V.  Ties keep the earliest generator.
    """
    if not ideal.generators:
        raise ValueError("ideal must be nonempty (finitely generated)")
    vals = [theta.eval_element(k) for k in ideal.generators]
    best = 0
    for i in range(1, len(ideal.generators)):
        diff = tuple(a - b for a, b in zip(vals[best], vals[i]))
        if theta.lattice.sign(diff) > 0:
            best = i
    a = ideal.generators[best]
    blowup = affine_blowup(p, ideal, a)
    cert = []
    ok = True
    for g in blowup.gens:
        v = theta.eval_element(g)
        s = theta.lattice.sign(v)
        cert.append((g, v, s))
        if s < 0:
            ok = False
    return a, best, blowup, ok, cert


# ---------------------------------------------------------------------------
# type (V) presentations and membership


class TypeVPresentation:
    """Q = (V +_{P0} Q0)^sat from a chart P0 -> Q0 and an anchor P0 -> V.

    Elements of the pushout group are handled as lifts (v_part, a_part) in
    Q^rank x Z^{gens(Q0)}, modulo the relation space spanned by
    (anchor(p), -chart(p)) and (0, relations of Q0).
    """

    def __init__(self, base: OrderedLattice, chart: MonoidHom, anchor_images):
        self.base = base
        self.chart = chart
        self.anchor = LatticeMap(base, chart.source, anchor_images)

    @property
    def p0(self):
        return self.chart.source

    @property
    def q0(self):
        return self.chart.target

    def lift_of_q0_gen(self, j):
        return ((Fraction(0),) * self.base.rank, tuple(1 if t == j else 0 for t in range(self.q0.ngens)))

    def relation_vectors(self):
        """Spanning set of the relation space on lifts (rational columns)."""
        rels = []
        for i in range(self.p0.ngens):
            rels.append(
                (
                    self.anchor.images[i],
                    tuple(-x for x in self.chart.witnesses[i]),
                )
            )
        for rho in self.q0.relation_lattice().basis:
            rels.append(((Fraction(0),) * self.base.rank, tuple(rho)))
        return rels

    def member(self, x, gens=None, witness=False):
        """Is x (a lift pair) in the saturation of <V, gens>?

        ``gens`` defaults to the images of Q0's generators; pass other lift
        pairs to probe sat-generation by a different finite set.
        """
        xv, xa = _frac_vec(x[0]), tuple(x[1])
        if gens is None:
            gens = [self.lift_of_q0_gen(j) for j in range(self.q0.ngens)]
        nu = self.base.rank
        k = len(gens)
        rels = self.relation_vectors()
        nr = len(rels)
        nvars = nu + k + nr
        nonneg = [False] * nu + [True] * k + [False] * nr

        def build(extra_eq_rows):
            sys = LinearSystem(nvars, nonneg)
            for i in range(nu):
                row = [0] * nvars
                row[i] = 1
                for j, g in enumerate(gens):
                    row[nu + j] = Fraction(g[0][i])
                for t, r in enumerate(rels):
                    row[nu + k + t] = Fraction(r[0][i])
                sys.eq(row, Fraction(xv[i]))
            for i in range(self.q0.ngens):
                row = [0] * nvars
                for j, g in enumerate(gens):
                    row[nu + j] = Fraction(g[1][i])
                for t, r in enumerate(rels):
                    row[nu + k + t] = Fraction(r[1][i])
                sys.eq(row, Fraction(xa[i]))
            for coeffs, rhs in extra_eq_rows:
                sys.eq(coeffs, rhs)
            return sys

        d = self.base.d
        nlev = len(self.base.levels)
        for t in range(nlev + 1):
            extra = []
            for f in self.base.levels[:t]:
                row = [0] * nvars
                for i in range(nu):
                    row[i] = Fraction(f.rational[i])
                extra.append((row, Fraction(0)))
                if d:
                    row2 = [0] * nvars
                    for i in range(nu):
                        row2[i] = Fraction(f.irrational[i])
                    extra.append((row2, Fraction(0)))
            if t == nlev:
                for i in range(nu):
                    row = [0] * nvars
                    row[i] = 1
                    extra.append((row, Fraction(0)))
                sys = build(extra)
                pt = sys.feasible_point()
                if pt is not None:
                    return (True, pt) if witness else True
                continue
            f = self.base.levels[t]
            obj = [Fraction(0)] * nvars
            for i in range(nu):
                obj[i] = Quad(f.rational[i], f.irrational[i], d) if d else Fraction(f.rational[i])
            sys = build(extra)
            res = sys.maximize(obj)
            if res.status == UNBOUNDED:
                return (True, res.x) if witness else True
            if res.status == OPTIMAL:
                val = res.value
                pos = val.sign() > 0 if isinstance(val, Quad) else val > 0
                if pos:
                    return (True, res.x) if witness else True
        return (False, None) if witness else False

    def verify_sat_generating(self, gens):
        """Do the given lift pairs sat-generate Q over V?"""
        for g in gens:
            if not self.member(g):
                return False
        for j in range(self.q0.ngens):
            if not self.member(self.lift_of_q0_gen(j), gens=list(gens)):
                return False
        return True


def verify_sat_generating_affine(f: MonoidHom, elements):
    """Affine version: do image(f) and ``elements`` sat-generate the target?"""
    q = f.target
    for e in elements:
        if not q.contains(e):
            return False
    gens = list(dict.fromkeys(list(f.gen_images) + list(elements)))
    gens = [g for g in gens if not q.ambient.is_zero(g)]
    if not gens:
        sub = AffineMonoid(q.ambient, ())
    else:
        sub = AffineMonoid(q.ambient, gens)
    sat = sub.saturate()
    return all(sat.contains(g) for g in q.gens)


# ---------------------------------------------------------------------------
# Kummer extension trichotomy


@dataclass(frozen=True)
class TrichotomyVerdict:
    kind: str  # "equal" | "discrete" | "not-finitely-generated"
    finitely_generated: bool
    gamma: tuple = None
    n: int = None


def _overlattice_equal(o1: Overlattice, o2: Overlattice):
    lcm = o1.den * o2.den // math.gcd(o1.den, o2.den)
    s1 = lcm // o1.den
    s2 = lcm // o2.den
    l1 = Lattice([[x * s1 for x in r] for r in o1.rows], o1.rank)
    l2 = Lattice([[x * s2 for x in r] for r in o2.rows], o2.rank)
    return l1.basis == l2.basis


def kummer_ext_classify(gamma: OrderedLattice, over: Overlattice):
    """Trichotomy for Gamma+ <= Sigma+ with finite-index lattice extension.

    equal; or Gamma is discrete with least positive gamma and
    Sigma = Gamma + (1/n) Z gamma (finitely generated, the dvr-like case);
    otherwise Sigma+ is not finitely generated over Gamma+.
    """
    r = gamma.rank
    if over.rank != r:
        raise ValueError("overlattice rank mismatch")
    lat = Lattice([list(row) for row in over.rows], r)
    for i in range(r):
        std = [over.den if j == i else 0 for j in range(r)]
        if not lat.contains(std):
            raise ValueError("overlattice must contain the standard lattice")
    if lat.rank != r:
        raise ValueError("overlattice must have finite index over the base")
    index = over.index_over_standard()
    if gamma.divisible or index == 1:
        return TrichotomyVerdict("equal", True)
    if not gamma.is_discrete():
        return TrichotomyVerdict("not-finitely-generated", False)
    g = gamma.min_positive()
    quot = over.quotient_by_standard()
    if quot.rank != 0 or len(quot.torsion) > 1:
        return TrichotomyVerdict("not-finitely-generated", False, gamma=g)
    n = quot.torsion[0] if quot.torsion else 1
    rows = [[n if i == j else 0 for j in range(r)] for i in range(r)]
    rows.append([int(x) for x in g])
    cand = Overlattice(n, tuple(tuple(b) for b in Lattice(rows, r).basis))
    if _overlattice_equal(over, cand):
        return TrichotomyVerdict("discrete", True, gamma=g, n=n)
    return TrichotomyVerdict("not-finitely-generated", False, gamma=g, n=n)


# ---------------------------------------------------------------------------
# F. Kato step: flattening by blowup


@dataclass(frozen=True)
class KatoReport:
    ideal: MonoidIdeal
    chosen: tuple  # the element a
    blowup: AffineMonoid  # P1
    inclusion: MonoidHom  # P0 -> P1
    base_changed: MonoidHom  # P1 -> Q1
    integral: bool
    factors_through_base: bool


def kato_verify(chart: MonoidHom, ideal: MonoidIdeal, a, anchor: LatticeMap):
    """Blow up the chart source at (K, a), base change, and test integrality."""
    p0 = chart.source
    if ideal.owner != p0:
        raise ValueError("ideal must live in the chart source")
    a = p0.ambient.reduce(a)
    if not ideal.contains(a):
        raise MembershipError(f"{a} is not an element of the ideal")
    p1 = affine_blowup(p0, ideal, a)
    inc = MonoidHom(p0, p1, p0.gens)
    po = pushout(chart, inc, "sat")
    hom1 = po.left
    integ = is_integral(hom1)
    factors = True
    for g in p1.gens:
        v = anchor.eval_element(g)
        if anchor.lattice.sign(v) < 0:
            factors = False
            break
    return KatoReport(ideal, a, p1, inc, hom1, integ.holds, factors)


def _ideal_candidates(p: AffineMonoid, coeff_bound):
    """Small elements of P (sums of generators, coefficients <= bound)."""
    out = []
    k = p.ngens
    counter = [0] * k
    while True:
        if any(counter):
            out.append(p.element_from_exponents(counter))
        i = k - 1
        while i >= 0:
            counter[i] += 1
            if counter[i] <= coeff_bound:
                break
            counter[i] = 0
            i -= 1
        if i < 0:
            break
    dedup = sorted(set(out), key=lambda v: (sum(abs(x) for x in v), v))
    return dedup


def find_flattening_ideal(chart: MonoidHom, anchor: LatticeMap):
    """Bounded deterministic search for an ideal whose blowup flattens.

    Tries ideals generated by up to FLATTEN_MAX_GENS sums of generators with
    coefficients up to FLATTEN_COEFF_BOUND, pruning generating sets that are
    not antichains.  Raises SearchFailureError when nothing within the bounds
    works (the caller may supply K explicitly).
    """
    p0 = chart.source
    if is_integral(chart).holds:
        zero = p0.ambient.zero()
        ideal = MonoidIdeal(p0, (zero,))
        return ideal, zero, kato_verify(chart, ideal, zero, anchor)
    tried = 0
    for bound in range(1, FLATTEN_COEFF_BOUND + 1):
        elems = _ideal_candidates(p0, bound)
        for size in range(2, FLATTEN_MAX_GENS + 1):
            for combo in combinations(elems, size):
                antichain = True
                for x in combo:
                    for y in combo:
                        if x != y and p0.contains(p0.ambient.sub(x, y)):
                            antichain = False
                            break
                    if not antichain:
                        break
                if not antichain:
                    continue
                tried += 1
                if tried > FLATTEN_COMBO_LIMIT:
                    raise SearchFailureError(
                        "flattening-ideal search exhausted its combination budget"
                    )
                ideal = MonoidIdeal(p0, combo)
                a, _, _, ok, _ = vcp_select(p0, ideal, anchor)
                rep = kato_verify(chart, ideal, a, anchor)
                if rep.integral and rep.factors_through_base:
                    return ideal, a, rep
    raise SearchFailureError(
        "no flattening ideal within the bounded search; supply K explicitly"
    )


# ---------------------------------------------------------------------------
# Tsuji base change


@dataclass(frozen=True)
class TsujiReport:
    n: int
    base_changed: MonoidHom  # P2 -> Q2
    evidence: tuple  # ((m, saturated_bool), ...)
    passes: bool


def tsuji_base_change(f: MonoidHom, n, test_bound=6):
    """Base change along multiplication by n; bounded saturatedness evidence.

    Saturatedness of a homomorphism has no finite decision procedure here,
    so the report states that all integral pushouts along multiplication by
    m <= test_bound are saturated -- bounded evidence, not a proof.
    """
    if not is_integral(f).holds:
        raise NotIntegralError("tsuji base change requires an integral homomorphism")
    p1 = f.source
    multn = MonoidHom(p1, p1, [p1.ambient.scale(n, g) for g in p1.gens])
    po = pushout(f, multn, "sat")
    hom2 = po.left
    evidence = []
    passes = True
    for m in range(1, test_bound + 1):
        p2 = hom2.source
        multm = MonoidHom(p2, p2, [p2.ambient.scale(m, g) for g in p2.gens])
        po_m = pushout(hom2, multm, "int")
        sat = po_m.monoid.is_saturated()
        evidence.append((m, sat))
        if not sat:
            passes = False
    return TsujiReport(n, hom2, tuple(evidence), passes)


# ---------------------------------------------------------------------------
# Reduced Fibre Theorem pipeline and Grauert-Remmert finiteness


@dataclass(frozen=True)
class KummerLatticeExtension:
    """V -> W as lattices: W = (old lattice + (1/n) anchor values), reordered."""

    lattice: OrderedLattice  # W in its own coordinates
    overlattice: Overlattice  # W's lattice inside the old coordinates
    old_basis_in_new: tuple  # images of the old standard basis vectors
    quotient: object  # FgAbelianGroup W/V
    order_coprime: bool


@dataclass(frozen=True)
class RftReport:
    kato: KatoReport
    ramification: object
    n: int
    tsuji: TsujiReport
    extension: KummerLatticeExtension  # None when the base is divisible
    final: "TypeVPresentation"
    final_integral: bool
    final_sat_generating: bool
    w_equals_base: bool


def _extension_of_base(base: OrderedLattice, anchor_vals, n, sigma=None):
    """W = saturation of <V, (1/n) anchor values> as an ordered lattice."""
    r = base.rank
    rows = [[n if i == j else 0 for j in range(r)] for i in range(r)]
    for v in anchor_vals:
        iv = []
        for x in v:
            fx = Fraction(x)
            assert fx.denominator == 1
            iv.append(int(fx))
        rows.append(iv)
    lat = Lattice(rows, r)
    over = Overlattice(n, tuple(tuple(b) for b in lat.basis))
    basis_fracs = over.basis_fractions()
    levels = base.restrict_forms_to_basis(basis_fracs)
    w = OrderedLattice(r, levels, d=base.d, divisible=False)
    old_basis = []
    for i in range(r):
        e = tuple(1 if j == i else 0 for j in range(r))
        c = over.coords(e)
        assert c is not None
        old_basis.append(c)
    quot = over.quotient_by_standard()
    ok = True
    if sigma is not None:
        order = math.prod(quot.torsion) if quot.torsion else 1
        ok = sigma.coprime(order)
    return KummerLatticeExtension(w, over, tuple(old_basis), quot, ok)


def rft_pipeline(tv: TypeVPresentation, sigma=None, ideal=None, a=None):
    """Flatten by blowup, base change by the ramification lcm, extend V.

    Produces W (a Kummer etale extension of V), the finitely presented
    saturated chart over it, and the full certificate chain.
    """
    from .homs import classify  # local import to keep module load light

    if sigma is not None and not sigma.is_empty():
        rep = classify(tv.chart, sigma, include_integral=False)
        if not rep.etale.holds:
            raise PreconditionError(
                "with a nonempty prime set the chart must be etale"
            )
    if ideal is not None:
        if a is None:
            a, _, _, _, _ = vcp_select(tv.p0, ideal, tv.anchor)
        kato = kato_verify(tv.chart, ideal, a, tv.anchor)
        if not (kato.integral and kato.factors_through_base):
            raise SearchFailureError("supplied ideal does not flatten the chart")
    else:
        ideal, a, kato = find_flattening_ideal(tv.chart, tv.anchor)
    hom1 = kato.base_changed
    p1 = hom1.source
    ram = ramification_indices(hom1)
    n = 1
    for _, e in ram.indices:
        n = n * e // math.gcd(n, e)
    tsuji = tsuji_base_change(hom1, n)
    hom2 = tsuji.base_changed
    # anchor on P1 (same ambient as P0 after blowup: evaluate directly)
    anchor1_vals = [tv.anchor.eval_element(g) for g in p1.gens]
    if tv.base.divisible:
        wbase = tv.base
        extension = None
        anchor2_vals = [tuple(Fraction(x, n) for x in v) for v in anchor1_vals]
    else:
        extension = _extension_of_base(tv.base, anchor1_vals, n, sigma)
        wbase = extension.lattice
        anchor2_vals = []
        for v in anchor1_vals:
            iv = [int(Fraction(x)) for x in v]
            c = extension.overlattice.coords(iv)
            assert c is not None
            anchor2_vals.append(tuple(c))
    # the P2 chart is hom2.source (= P1 as a monoid) anchored by theta/n
    final = TypeVPresentation(wbase, hom2, anchor2_vals)
    final_integral = is_integral(hom2).holds
    final_sat = final.verify_sat_generating(
        [final.lift_of_q0_gen(j) for j in range(final.q0.ngens)]
    )
    w_eq = tv.base.divisible or (
        extension is not None and extension.overlattice.index_over_standard() == 1
    )
    return RftReport(
        kato, ram, n, tsuji, extension, final, final_integral, final_sat, w_eq
    )


@dataclass(frozen=True)
class GrReport:
    generators: tuple  # lift pairs generating Q over V
    relations: tuple  # ((v1, m1), (v2, m2)) pairs of presentation words
    relation_lattice_rows: tuple
    sat_generating: bool
    relations_complete: bool


def gr_finiteness(tv: TypeVPresentation):
    """Finite presentation of Q over a divisible valuative base.

    Since V is divisible, every Kummer extension of V splits, so the images
    of the chart generators already generate up to saturation; generators
    that the rest (with V) already sat-generate are pruned greedily, and the
    relation lattice is read off the pushout-group presentation.
    """
    if not tv.base.divisible:
        raise NonDivisibleBaseError("the base must be a divisible valuative monoid")
    k = tv.q0.ngens
    keep = list(range(k))
    changed = True
    while changed:
        changed = False
        for j in list(keep):
            rest = [tv.lift_of_q0_gen(t) for t in keep if t != j]
            if tv.member(tv.lift_of_q0_gen(j), gens=rest):
                keep.remove(j)
                changed = True
                break
    gens = [tv.lift_of_q0_gen(j) for j in keep]
    # relation lattice on the kept generators over V
    uw = [list(tv.chart.witnesses[i]) for i in range(tv.p0.ngens)]
    relq = [list(b) for b in tv.q0.relation_lattice().basis]
    arows = [[1 if t == j else 0 for j in keep] for t in range(k)]
    lam = zlat.preimage_lattice(arows, Lattice(uw + relq, k), len(keep))
    stack = [
        [(uw[i][t] if i < len(uw) else relq[i - len(uw)][t]) for i in range(len(uw) + len(relq))]
        for t in range(k)
    ]
    relations = []
    for c in lam.basis:
        # balance the V part: solve the a-part equation for p and read off v
        rhs = [sum(c[j] * arows[t][j] for j in range(len(keep))) for t in range(k)]
        sol = zlat.solve_integer(stack, rhs) if (uw or relq) else ([] if not any(rhs) else None)
        assert sol is not None
        v = [Fraction(0)] * tv.base.rank
        for i in range(len(uw)):
            for t in range(tv.base.rank):
                v[t] += sol[i] * tv.anchor.images[i][t]
        pos = tuple(max(x, 0) for x in c)
        negv = tuple(max(-x, 0) for x in c)
        vv = tuple(v)
        if tv.base.sign(vv) >= 0:
            relations.append((((Fraction(0),) * tv.base.rank, pos), (vv, negv)))
        else:
            relations.append(((tuple(-x for x in vv), pos), ((Fraction(0),) * tv.base.rank, negv)))
    sat_ok = tv.verify_sat_generating(gens)
    complete = True
    for (v1, m1), (v2, m2) in relations:
        lhs_v = [Fraction(a) - Fraction(b) for a, b in zip(v1, v2)]
        lhs_m = [a - b for a, b in zip(m1, m2)]
        # verify the relation balances in the pushout group: the a-part must
        # be absorbable by chart witnesses and Q0 relations, matching the v part
        full = [0] * k
        for j_idx, j in enumerate(keep):
            full[j] = lhs_m[j_idx]
        sol = zlat.solve_integer(stack, full) if (uw or relq) else ([] if not any(full) else None)
        if sol is None:
            complete = False
            continue
        balance = list(lhs_v)
        for i in range(len(uw)):
            for t in range(tv.base.rank):
                balance[t] += sol[i] * tv.anchor.images[i][t]
        if any(balance):
            complete = False
    return GrReport(
        tuple(gens),
        tuple(relations),
        tuple(tuple(b) for b in lam.basis),
        sat_ok,
        complete,
    )
