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
decided by one lexicographic pass over the levels: level t is maximized
over the solutions on which the earlier levels vanish, each an exact LP
whose only irrational data is the objective's sqrt(d) row.  A positive or
unbounded maximum proves membership, an infeasible system or a negative
maximum refutes it, and a zero maximum constrains level t to vanish before
the next level is tried.  Every Q(sqrt(d)) value is a pair of rationals
(a, b) for a + b*sqrt(d), signed by ``sign_a_plus_b_sqrt_d``.
"""

import math
from fractions import Fraction
from itertools import combinations, product

from . import zlat
from ._lp import INFEASIBLE, UNBOUNDED, LinearSystem, sign_a_plus_b_sqrt_d
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

# The region of the flattening-ideal search: ideals with up to
# FLATTEN_MAX_GENS generators, each a sum of generators with coefficients up
# to FLATTEN_COEFF_BOUND.  Its work is charged to the node budget.
FLATTEN_MAX_GENS = 3
FLATTEN_COEFF_BOUND = 3


def _frac_vec(v):
    return tuple(Fraction(x) for x in v)


def is_squarefree(d):
    """Is the positive integer d divisible by no square > 1?

    Trial division, charged to the node budget, strips the primes up to the
    cube root of what is left; the rest then has at most two prime factors,
    so it is square-free unless it is a square > 1.
    """
    for k in zlat.trial_divisors(lambda k: k * k * k <= d):
        if d % k == 0:
            d //= k
            if d % k == 0:
                return False
    return d == 1 or math.isqrt(d) ** 2 != d


class LevelForm(zlat.Value):
    """Linear form with coefficients rational + rational*sqrt(d)."""

    _fields = ("rational", "irrational")

    def __init__(self, rational, irrational):
        self.rational = rational  # Fractions, length = rank
        self.irrational = irrational  # Fractions, length = rank

    def sign(self, x, d):
        """Exact sign of the form's value at x, in Q(sqrt(d))."""
        a = sum((Fraction(c) * Fraction(v) for c, v in zip(self.rational, x)), Fraction(0))
        b = sum((Fraction(c) * Fraction(v) for c, v in zip(self.irrational, x)), Fraction(0))
        return sign_a_plus_b_sqrt_d(a, b, d)


class OrderedLattice:
    """Z^rank (Q^rank when divisible) with a total lex-chain order."""

    def __init__(self, rank, levels, d=0, divisible=False):
        # sqrt(1) is rational: d = 1 would split each level into two
        # independent rows and lose the order's totality check.
        if d != 0 and (d < 2 or not is_squarefree(d)):
            raise ValueError("d must be 0 or a square-free integer >= 2")
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
            s = f.sign(x, self.d)
            if s:
                return s
        return 0

    def nonneg(self, x):
        return self.sign(x) >= 0

    def compare(self, x, y):
        return self.sign(tuple(Fraction(a) - Fraction(b) for a, b in zip(x, y)))

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
            if any(self.eval_exponents(rho)):
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


class MonoidIdeal:
    def __init__(self, owner: AffineMonoid, generators):
        for g in generators:
            if not owner.contains(g):
                raise MembershipError(f"ideal generator {g} is not in the owner monoid")
        self.owner = owner
        self.generators = generators

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

    def member(self, x, gens=None):
        """Is x (a lift pair) in the saturation of <V, gens>?

        ``gens`` defaults to the images of Q0's generators; pass other lift
        pairs to probe sat-generation by a different finite set.  The levels
        are decided in one lexicographic pass (see the module docstring).
        """
        xv, xa = _frac_vec(x[0]), tuple(x[1])
        if gens is None:
            gens = [self.lift_of_q0_gen(j) for j in range(self.q0.ngens)]
        nu = self.base.rank
        k = len(gens)
        rels = self.relation_vectors()
        nvars = nu + k + len(rels)
        sys = LinearSystem(nvars, [False] * nu + [True] * k + [False] * len(rels))
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

        def v_row(coeffs):
            return [Fraction(c) for c in coeffs] + [0] * (nvars - nu)

        d = self.base.d
        for f in self.base.levels:
            res = sys.maximize(v_row(f.rational), (d, v_row(f.irrational)) if d else None)
            if res.status == UNBOUNDED:
                return True
            if res.status == INFEASIBLE:
                return False
            a, b = res.value if d else (res.value, 0)
            s = sign_a_plus_b_sqrt_d(a, b, d)
            if s:
                return s > 0
            sys.eq(v_row(f.rational), Fraction(0))
            if d:
                sys.eq(v_row(f.irrational), Fraction(0))
        for i in range(nu):
            sys.eq(v_row(1 if t == i else 0 for t in range(nu)), Fraction(0))
        return sys.feasible_point() is not None

    def verify_sat_generating(self, keep):
        """Do the lifts of Q0's generators with indices in ``keep``
        sat-generate Q over V?

        Q is sat-generated over V by the lifts of all of Q0's generators, so
        the kept lifts sat-generate it iff each of the others lies in their
        saturation.  A kept lift lies there as its own witness, so only the
        generators outside ``keep`` are asked, one ``member`` each.
        """
        gens = [self.lift_of_q0_gen(j) for j in keep]
        return all(
            self.member(self.lift_of_q0_gen(j), gens=gens)
            for j in range(self.q0.ngens) if j not in keep
        )


# ---------------------------------------------------------------------------
# Kummer extension trichotomy


class TrichotomyVerdict:
    def __init__(self, kind, finitely_generated, gamma=None, n=None):
        self.kind = kind  # "equal" | "discrete" | "not-finitely-generated"
        self.finitely_generated = finitely_generated
        self.gamma = gamma
        self.n = n


def kummer_ext_classify(gamma: OrderedLattice, over: Overlattice):
    """Trichotomy for Gamma+ <= Sigma+ with finite-index lattice extension.

    equal; or Gamma is discrete with least positive gamma and
    Sigma = Gamma + (1/n) Z gamma (finitely generated, the dvr-like case);
    otherwise Sigma+ is not finitely generated over Gamma+.
    """
    r = gamma.rank
    if over.rank != r:
        raise ValueError("overlattice rank mismatch")
    lat = over.lattice
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
    n = quot.torsion[0]
    # gamma is primitive, so Gamma + (1/n) Z gamma has index n over Gamma,
    # as Sigma has: the two are equal iff gamma / n is in Sigma = lat / den
    # (n divides den, since den kills Sigma / Gamma)
    if lat.contains([over.den // n * x for x in g]):
        return TrichotomyVerdict("discrete", True, gamma=g, n=n)
    return TrichotomyVerdict("not-finitely-generated", False, gamma=g, n=n)


# ---------------------------------------------------------------------------
# F. Kato step: flattening by blowup


class KatoReport:
    def __init__(self, ideal: MonoidIdeal, chosen, base_changed: MonoidHom, integral,
                 factors_through_base, anchor_values):
        self.ideal = ideal
        self.chosen = chosen  # the element a
        self.base_changed = base_changed  # P1 -> Q1
        self.integral = integral
        self.factors_through_base = factors_through_base
        self.anchor_values = anchor_values  # the anchor at each generator of P1


def kato_verify(chart: MonoidHom, ideal: MonoidIdeal, anchor: LatticeMap):
    """Blow up the chart source at (K, a), base change, and test integrality.

    ``vcp_select`` chooses a and builds the blowup P1 = P0[K - a] with the
    anchor's value and sign at each of its generators; that one blowup
    serves the whole check: the base change along P0 -> P1, its integrality,
    whether the anchor factors through P1, and the values the pipeline
    carries on.
    """
    p0 = chart.source
    if ideal.owner != p0:
        raise ValueError("ideal must live in the chart source")
    a, _, p1, factors, cert = vcp_select(p0, ideal, anchor)
    hom1 = pushout(chart, MonoidHom(p0, p1, p0.gens), "sat").left
    return KatoReport(ideal, a, hom1, is_integral(hom1).holds, factors, [v for _, v, _ in cert])


def _ideal_candidates(p: AffineMonoid, coeff_bound, charge):
    """Small elements of P (sums of generators, coefficients <= bound),
    each coefficient vector charged one node before it is summed."""
    out = set()
    for c in product(range(coeff_bound + 1), repeat=p.ngens):
        charge()
        if any(c):
            out.add(p.element_from_exponents(c))
    return sorted(out, key=lambda v: (sum(abs(x) for x in v), v))


def find_flattening_ideal(chart: MonoidHom, anchor: LatticeMap):
    """Bounded deterministic search for an ideal whose blowup flattens.

    Tries ideals generated by up to FLATTEN_MAX_GENS sums of generators with
    coefficients up to FLATTEN_COEFF_BOUND, pruning generating sets that are
    not antichains.  Each candidate ideal gets one ``kato_verify``, in which
    VCP chooses a and one blowup serves the whole check; the first report
    that is integral and factors through the base is returned (it carries
    the ideal and a).  An integral chart is checked on the zero ideal.  Each
    candidate built and each combination tried is a node of the
    "flattening-ideal search", charged to the node budget that the searches
    it runs draw on too.  The candidates of a bound include those of every
    smaller one, so a combination of earlier candidates was tried, with the
    same verdicts, at an earlier bound: it is skipped, and not charged.
    Raises SearchFailureError when nothing within the bounds works (the
    caller may supply K explicitly).
    """
    p0 = chart.source
    if is_integral(chart).holds:
        return kato_verify(chart, MonoidIdeal(p0, (p0.ambient.zero(),)), anchor)
    charge = zlat._node_meter("flattening-ideal search")
    earlier = set()
    for bound in range(1, FLATTEN_COEFF_BOUND + 1):
        elems = _ideal_candidates(p0, bound, charge)
        for size in range(2, FLATTEN_MAX_GENS + 1):
            for combo in combinations(elems, size):
                if earlier.issuperset(combo):
                    continue
                charge()
                if any(x != y and p0.contains(p0.ambient.sub(x, y))
                       for x in combo for y in combo):
                    continue  # not an antichain
                rep = kato_verify(chart, MonoidIdeal(p0, combo), anchor)
                if rep.integral and rep.factors_through_base:
                    return rep
        earlier = set(elems)
    raise SearchFailureError(
        "no flattening ideal within the bounded search; supply K explicitly"
    )


# ---------------------------------------------------------------------------
# Tsuji base change


class TsujiReport:
    def __init__(self, n, base_changed: MonoidHom, evidence, passes):
        self.n = n
        self.base_changed = base_changed  # P2 -> Q2
        self.evidence = evidence  # ((m, saturated_bool), ...)
        self.passes = passes


def tsuji_base_change(f: MonoidHom, n, test_bound=6):
    """Base change along multiplication by n; bounded saturatedness evidence.

    Saturatedness of a homomorphism has no finite decision procedure here,
    so the report states that all integral pushouts along multiplication by
    m <= test_bound are saturated -- bounded evidence, not a proof.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if test_bound < 1:
        raise ValueError("test_bound must be >= 1")
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


class KummerLatticeExtension:
    """V -> W as lattices: W = (old lattice + (1/n) anchor values), reordered."""

    def __init__(self, lattice: OrderedLattice, overlattice: Overlattice, quotient,
                 order_coprime):
        self.lattice = lattice  # W in its own coordinates
        self.overlattice = overlattice  # W's lattice inside the old coordinates
        self.quotient = quotient  # FgAbelianGroup W/V
        self.order_coprime = order_coprime


class RftReport:
    def __init__(self, kato: KatoReport, ramification, n, tsuji: TsujiReport,
                 extension: KummerLatticeExtension, final: "TypeVPresentation", final_integral,
                 final_sat_generating, w_equals_base):
        self.kato = kato
        self.ramification = ramification
        self.n = n
        self.tsuji = tsuji
        self.extension = extension  # None when the base is divisible
        self.final = final
        self.final_integral = final_integral
        self.final_sat_generating = final_sat_generating
        self.w_equals_base = w_equals_base


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
    over = zlat._overlattice_of_hnf(n, tuple(tuple(b) for b in lat.basis))
    basis_fracs = over.basis_fractions()
    levels = base.restrict_forms_to_basis(basis_fracs)
    w = OrderedLattice(r, levels, d=base.d, divisible=False)
    quot = over.quotient_by_standard()
    ok = True
    if sigma is not None:
        order = math.prod(quot.torsion) if quot.torsion else 1
        ok = sigma.coprime(order)
    return KummerLatticeExtension(w, over, quot, ok)


def rft_pipeline(tv: TypeVPresentation, sigma=None, ideal=None):
    """Flatten by blowup, base change by the ramification lcm, extend V.

    Produces W (a Kummer etale extension of V), the finitely presented
    saturated chart over it, and the full certificate chain.  A supplied
    ideal gets one ``kato_verify``, whose anchor values at P1's generators
    give W and the final anchor.
    """
    from .homs import classify  # local import to keep module load light

    if sigma is not None and not sigma.is_empty():
        rep = classify(tv.chart, sigma, include_integral=False)
        if not rep.etale.holds:
            raise PreconditionError(
                "with a nonempty prime set the chart must be etale"
            )
    if ideal is None:
        kato = find_flattening_ideal(tv.chart, tv.anchor)
    else:
        kato = kato_verify(tv.chart, ideal, tv.anchor)
        if not (kato.integral and kato.factors_through_base):
            raise SearchFailureError("supplied ideal does not flatten the chart")
    hom1 = kato.base_changed
    ram = ramification_indices(hom1)
    n = 1
    for _, e in ram.indices:
        n = n * e // math.gcd(n, e)
    tsuji = tsuji_base_change(hom1, n)
    hom2 = tsuji.base_changed
    if tv.base.divisible:
        wbase = tv.base
        extension = None
        anchor2_vals = [tuple(Fraction(x, n) for x in v) for v in kato.anchor_values]
    else:
        extension = _extension_of_base(tv.base, kato.anchor_values, n, sigma)
        wbase = extension.lattice
        anchor2_vals = []
        for v in kato.anchor_values:
            iv = [int(Fraction(x)) for x in v]
            c = extension.overlattice.coords(iv)
            assert c is not None
            anchor2_vals.append(tuple(c))
    # the P2 chart is hom2.source (= P1 as a monoid) anchored by theta/n
    final = TypeVPresentation(wbase, hom2, anchor2_vals)
    final_integral = is_integral(hom2).holds
    final_sat = final.verify_sat_generating(range(final.q0.ngens))
    w_eq = tv.base.divisible or (
        extension is not None and extension.overlattice.index_over_standard() == 1
    )
    return RftReport(
        kato, ram, n, tsuji, extension, final, final_integral, final_sat, w_eq
    )


class GrReport:
    def __init__(self, generators, relations, sat_generating, relations_complete):
        self.generators = generators  # lift pairs generating Q over V
        self.relations = relations  # ((v1, m1), (v2, m2)) pairs of presentation words
        self.sat_generating = sat_generating
        self.relations_complete = relations_complete


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
    # one pass: sat(V + S) only shrinks with S, so a generator the rest
    # does not sat-generate stays unremovable after later removals
    for j in range(k):
        rest = [tv.lift_of_q0_gen(t) for t in keep if t != j]
        if tv.member(tv.lift_of_q0_gen(j), gens=rest):
            keep.remove(j)
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
        sol = zlat.solve_integer(stack, rhs)
        assert sol is not None
        vv = tv.anchor.eval_exponents(sol)
        pos = tuple(max(x, 0) for x in c)
        negv = tuple(max(-x, 0) for x in c)
        if tv.base.sign(vv) >= 0:
            relations.append((((Fraction(0),) * tv.base.rank, pos), (vv, negv)))
        else:
            relations.append(((tuple(-x for x in vv), pos), ((Fraction(0),) * tv.base.rank, negv)))
    sat_ok = tv.verify_sat_generating(keep)
    complete = True
    for (v1, m1), (v2, m2) in relations:
        lhs_v = [Fraction(a) - Fraction(b) for a, b in zip(v1, v2)]
        lhs_m = [a - b for a, b in zip(m1, m2)]
        # verify the relation balances in the pushout group: the a-part must
        # be absorbable by chart witnesses and Q0 relations, matching the v part
        full = [0] * k
        for j_idx, j in enumerate(keep):
            full[j] = lhs_m[j_idx]
        sol = zlat.solve_integer(stack, full)
        if sol is None:
            complete = False
            continue
        balance = [a + b for a, b in zip(lhs_v, tv.anchor.eval_exponents(sol))]
        if any(balance):
            complete = False
    return GrReport(tuple(gens), tuple(relations), sat_ok, complete)
