"""Ordered lattices, membership over valuative bases, blowups, pipelines."""

import math
from collections import Counter
from fractions import Fraction as F

import pytest

from conftest import count_calls, rng_for, same_submonoid
from satmon import homs as H
from satmon import monoid as M
from satmon import valuative as V
from satmon import zlat
from satmon.errors import (
    MembershipError,
    NonDivisibleBaseError,
    NotIntegralError,
    ResourceLimitError,
    SearchFailureError,
)
from satmon.monoid import free_monoid, monoid_from_vectors
from satmon.sigma import PrimeSet
from satmon.zlat import FgAbelianGroup, Lattice, Overlattice, node_budget


# ---------------------------------------------------------------------------
# ordered lattices and signs


def test_sign_lex(lex2):
    assert lex2.sign((1, -6)) == 1  # the figure region: (1/2, -3) scaled
    assert lex2.sign((0, 0)) == 0
    assert lex2.sign((0, -1)) == -1
    assert lex2.sign((-1, 100)) == -1


def test_sign_quadratic():
    q2 = V.quadratic_line(2)
    assert q2.sign((-1, 1)) == 1  # sqrt(2) > 1
    assert q2.sign((2, -1)) == 1  # 2 > sqrt(2)
    assert q2.sign((1, -1)) == -1
    assert q2.sign((0, 0)) == 0


def test_total_order_validation():
    with pytest.raises(ValueError):
        V.OrderedLattice(2, [((F(1), F(0)), (F(0), F(0)))])  # kernel (0, 1)
    # (x1 + x2)(1/2 + 2 sqrt 2) vanishes on (1, -1); x1/2 + x2 sqrt(2)/3 does not
    with pytest.raises(ValueError, match="not total"):
        V.OrderedLattice(2, [((F(1, 2), F(1, 2)), (F(2), F(2)))], d=2)
    assert V.OrderedLattice(2, [((F(1, 2), F(0)), (F(0), F(1, 3)))], d=2).rank == 2


def test_d_must_be_zero_or_squarefree_at_least_two():
    # sqrt(1) = 1 is rational: x + y*sqrt(1) vanishes on (1, -1), as x + y
    # does with d = 0, so neither order is total
    x_plus_y = [((F(1), F(0)), (F(0), F(1)))]
    for d in (1, 4, 12, -2):
        with pytest.raises(ValueError, match="square-free"):
            V.OrderedLattice(2, x_plus_y, d=d)
    with pytest.raises(ValueError, match="not total"):
        V.OrderedLattice(2, [((F(1), F(1)), (F(0), F(0)))], d=0)
    for d in (2, 3, 5, 6, 7, 10):
        assert V.OrderedLattice(2, x_plus_y, d=d).sign((1, -1)) != 0


def _squarefree_by_trial_squares(d):
    """Is no k^2 with 2 <= k <= sqrt(d) a divisor of d?  The former
    ``is_squarefree``, kept as an oracle."""
    k = 2
    while k * k <= d:
        if d % (k * k) == 0:
            return False
        k += 1
    return True


def test_is_squarefree_matches_trial_squares():
    # the cofactor left after the cube root has at most two prime factors:
    # p^2 with p above the cube root must still be caught
    rng = rng_for("squarefree")
    primes = [p for p in range(2, 1000) if all(p % q for q in range(2, p))]
    ds = list(range(1, 3000)) + [rng.randint(1, 10**6) for _ in range(3000)]
    ds += [p * p for p in primes] + [p * p * q for p in primes[:20] for q in primes[-20:]]
    ds += [p * q for p in primes[-30:] for q in primes[-30:]]
    for d in ds:
        assert V.is_squarefree(d) == _squarefree_by_trial_squares(d), d


def test_is_squarefree_charges_the_node_budget():
    d = 10**29 + 319  # a 30-digit prime: its cube root is far above the budget
    with node_budget(1000):
        with pytest.raises(ResourceLimitError) as e:
            V.is_squarefree(d)
    assert e.value.limit == 1000
    # 982 trial divisions for the first, and one more finds 4 | 4d
    with node_budget(983):
        assert V.is_squarefree(997 * 991 * 983) and not V.is_squarefree(4 * d)
    with node_budget(982):
        assert V.is_squarefree(997 * 991 * 983)
        with pytest.raises(ResourceLimitError):
            V.is_squarefree(4 * d)


def test_divisible_elements():
    dv = V.divisible_nonneg(1)
    assert dv.sign((F(1, 2),)) > 0
    nlat = V.lex_lattice(1)
    with pytest.raises(ValueError):
        nlat.sign((F(1, 2),))


def test_discreteness_and_min_positive(lex2):
    assert lex2.is_discrete() and lex2.min_positive() == (0, 1)
    assert not V.quadratic_line(2).is_discrete()
    assert not V.divisible_nonneg(2).is_discrete()
    assert lex2.face_count() == 3


# ---------------------------------------------------------------------------
# membership in a type (V) presentation


def test_member_half_v(half_v_presentation):
    tv = half_v_presentation
    assert tv.member(((F(0), F(0)), (1, -6)))  # (1/2, -3)
    assert not tv.member(((F(0), F(0)), (0, -2)))  # (0, -1)
    assert tv.member(((F(0), F(0)), (0, 0)))
    # an element of V itself, shifted into the Q0 part notation
    assert tv.member(((F(1), F(-7)), (0, 0)))


def test_member_zero_level_vanishes_in_both_parts():
    # V in Z^3 ordered by v1 + v2*sqrt(2), then v3; the chart N -> N is
    # anchored at A = (0, 1, -5), so the lifts of x = (B, 0) sweep the
    # values B - lambda*A, lambda >= 0.  For B = (0, 0, -1) the first level
    # peaks at 0 only where lambda = 0: v3 = -1 there, so x is not in Q.  If
    # only the rational part v1 were held at 0, v3 = -1 + 5*lambda would be
    # unbounded.
    levels = [
        ((F(1), F(0), F(0)), (F(0), F(1), F(0))),
        ((F(0), F(0), F(1)), (F(0), F(0), F(0))),
    ]
    base = V.OrderedLattice(3, levels, d=2)
    chart = H.MonoidHom(free_monoid(1), free_monoid(1), [(1,)])
    tv = V.TypeVPresentation(base, chart, [(0, 1, -5)])
    assert not tv.member(((F(0), F(0), F(-1)), (0,)))
    assert tv.member(((F(0), F(0), F(1)), (0,)))


def test_member_witness(half_v_presentation):
    assert half_v_presentation.member(((F(0), F(0)), (1, -6)))


def test_sat_generating_half_v(half_v_presentation):
    tv = half_v_presentation
    assert tv.verify_sat_generating([0, 1])
    # one generator still sat-generates here: 2*(0,1/2) = (0,1) already lies
    # in V (lex-positive), so the saturation of <V, (1/2,0)> contains (0,1/2)
    assert lexpos_oracle(tv)
    assert tv.verify_sat_generating([0])
    # even the empty set works for this presentation: 2*Q <= V
    assert tv.verify_sat_generating([])


def test_sat_generating_asks_only_the_generators_outside_the_set(monkeypatch, half_v_presentation):
    # a kept lift lies in the saturation it generates, so each generator
    # outside the set is asked once and the others not at all
    tv = half_v_presentation
    asked = count_calls(monkeypatch, V.TypeVPresentation, "member")
    for keep in ([0, 1], [1], []):
        asked.clear()
        assert tv.verify_sat_generating(keep)
        assert [x for _, x in asked] == [tv.lift_of_q0_gen(j) for j in range(2) if j not in keep]
    # every generator of the final chart of the rft pipeline is kept
    asked.clear()
    rep = V.rft_pipeline(tv)
    assert rep.final_sat_generating and asked == []


def lexpos_oracle(tv):
    # the one-line independent check behind the surprising verdict above
    return tv.base.sign((0, 1)) > 0


def test_sat_generating_genuinely_fails():
    # V = lex Z^1, chart N -> N^2 hitting only the first axis: the second
    # axis generator is not in the saturation of <V, first axis>
    lex1 = V.lex_lattice(1)
    chart = H.MonoidHom(free_monoid(1), free_monoid(2), [(1, 0)])
    tv = V.TypeVPresentation(lex1, chart, [(1,)])
    assert tv.verify_sat_generating([0, 1])
    assert not tv.verify_sat_generating([0])
    assert not tv.member(tv.lift_of_q0_gen(1), gens=[tv.lift_of_q0_gen(0)])


# ---------------------------------------------------------------------------
# Kummer extension trichotomy


def overlattice_from_rows(rows, den, rank):
    lat = Lattice(rows, rank)
    return Overlattice(den, tuple(tuple(b) for b in lat.basis))


def test_trichotomy_dvr():
    g1 = V.lex_lattice(1)
    v = V.kummer_ext_classify(g1, Overlattice(2, ((1,),)))
    assert v.kind == "discrete" and v.finitely_generated
    assert v.gamma == (1,) and v.n == 2


def test_trichotomy_equal(lex2):
    eye = overlattice_from_rows([[1, 0], [0, 1]], 1, 2)
    v = V.kummer_ext_classify(lex2, eye)
    assert v.kind == "equal" and v.finitely_generated


def test_trichotomy_type5(lex2):
    for m in (2, 3, 5):
        over = overlattice_from_rows([[m, 0], [0, m], [1, 0]], m, 2)
        v = V.kummer_ext_classify(lex2, over)
        assert v.kind == "not-finitely-generated"
        # brute-force certificate: the coset of (1/m, 0) contains no element
        # with the first level zero, so it has no minimum in the order
        assert _coset_min_exists_bruteforce(lex2, over, (F(1, m), F(0))) is False


def test_trichotomy_type5_extension_along_gamma_is_fg(lex2):
    # extending along the infinitesimal direction IS the dvr-like case
    over = overlattice_from_rows([[2, 0], [0, 1]], 2, 2)
    v = V.kummer_ext_classify(lex2, over)
    assert v.kind == "discrete" and v.n == 2 and v.gamma == (0, 1)


def test_trichotomy_type3():
    q2 = V.quadratic_line(2)
    over = overlattice_from_rows([[1, 0], [0, 1]], 2, 2)
    v = V.kummer_ext_classify(q2, over)
    assert v.kind == "not-finitely-generated"
    assert _dense_obstruction_bruteforce(q2, over)


def test_trichotomy_perfectoid_shadow():
    p, k, m = 2, 2, 3
    perf = V.OrderedLattice(
        2,
        [((F(1), F(1, p ** k)), (F(0), F(0))), ((F(0), F(1)), (F(0), F(0)))],
    )
    assert perf.is_discrete() and perf.min_positive() == (-1, p ** k)
    over = overlattice_from_rows([[m, 0], [0, m], [1, 0]], m, 2)
    v = V.kummer_ext_classify(perf, over)
    assert v.kind == "not-finitely-generated"
    assert _coset_min_exists_bruteforce(perf, over, (F(1, m), F(0))) is False


def _sign_at(gamma, x):
    """Sign of a possibly rational point under the level-form order."""
    for f in gamma.levels:
        s = f.sign(x, gamma.d)
        if s:
            return s
    return 0


def _coset_min_exists_bruteforce(gamma, over, rep, box=8):
    """For a discrete base: does the coset rep + Z^r have a minimum?

    A minimum must lie in [0, gamma), i.e. have all level prefixes zero; we
    search the box exhaustively for such an element.
    """
    import itertools

    if not gamma.is_discrete():
        return None
    r = gamma.rank
    for delta in itertools.product(range(-box, box + 1), repeat=r):
        x = tuple(F(rep[i]) + delta[i] for i in range(r))
        if _sign_at(gamma, x) < 0:
            continue
        if all(f.sign(x, gamma.d) == 0 for f in gamma.levels[:-1]):
            return True
    return False


def _dense_obstruction_bruteforce(gamma, over, sizes=3, height=2, probe=6):
    """For every small candidate set S, exhibit a smaller positive element.

    Mirrors the density argument: any finite S has a least positive value,
    and the dense value group drops below it.
    """
    import itertools

    half = []
    for a in range(-height, height + 1):
        for b in range(-height, height + 1):
            x = (F(a, 2), F(b, 2))
            num = (a, b)
            if gamma.sign((F(a), F(b))) > 0:
                half.append((a, b))
    found_all = True
    for size in range(1, sizes + 1):
        for s in itertools.combinations(half, size):
            # seek gamma-element strictly between 0 and min(S)/1 in the order
            smallest = min(s, key=lambda v: _approx(gamma, v))
            ok = False
            for a in range(-probe, probe + 1):
                for b in range(-probe, probe + 1):
                    if (a, b) == (0, 0):
                        continue
                    if gamma.sign((a, b)) > 0 and gamma.compare(
                        (2 * a, 2 * b), smallest
                    ) < 0:
                        ok = True
                        break
                if ok:
                    break
            if not ok:
                found_all = False
    return found_all


def _approx(gamma, v):
    import math

    f = gamma.levels[0]
    a = sum(F(c) * x for c, x in zip(f.rational, v))
    b = sum(F(c) * x for c, x in zip(f.irrational, v))
    return float(a) + float(b) * math.sqrt(gamma.d)


def test_trichotomy_bruteforce_agreement_dvr():
    # the positive side: for the dvr case the coset minima exist
    g1 = V.lex_lattice(1)
    over = Overlattice(2, ((1,),))
    assert _coset_min_exists_bruteforce(g1, over, (F(1, 2),)) is True


def _overlattice_equal(o1, o2):
    """Equality of two overlattices through their rescaled Hermite forms."""
    lcm = o1.den * o2.den // math.gcd(o1.den, o2.den)
    l1 = Lattice([[x * (lcm // o1.den) for x in r] for r in o1.rows], o1.rank)
    l2 = Lattice([[x * (lcm // o2.den) for x in r] for r in o2.rows], o2.rank)
    return l1.basis == l2.basis


def _trichotomy_by_second_overlattice(gamma, over):
    """The kind ``kummer_ext_classify`` gave when it built Gamma + (1/n) Z gamma
    as a second overlattice and compared it with Sigma."""
    r = gamma.rank
    if gamma.divisible or over.index_over_standard() == 1:
        return "equal"
    if not gamma.is_discrete():
        return "not-finitely-generated"
    g = gamma.min_positive()
    quot = over.quotient_by_standard()
    if quot.rank != 0 or len(quot.torsion) > 1:
        return "not-finitely-generated"
    n = quot.torsion[0]
    rows = [[n * int(i == j) for j in range(r)] for i in range(r)] + [list(g)]
    cand = overlattice_from_rows(rows, n, r)
    return "discrete" if _overlattice_equal(over, cand) else "not-finitely-generated"


def _random_order(rng):
    """A random total order on Z^r, r <= 3: integer level forms (discrete),
    or a first level with an irrational part (dense in R)."""
    while True:
        r = rng.randint(1, 3)
        d = rng.choice((0, 0, 2, 3))
        if d and r < 2:
            continue
        levels = []
        for _ in range(r):
            a = tuple(F(rng.randint(-2, 2)) for _ in range(r))
            b = tuple(F(rng.randint(-1, 1) if d else 0) for _ in range(r))
            levels.append((a, b))
        try:
            return V.OrderedLattice(r, levels, d=d)
        except ValueError:
            continue


def test_trichotomy_matches_the_second_overlattice_on_random_pairs():
    # up to 4 overlattices of each index n <= 6 of random orders, rows and
    # denominator scaled by 1 to 3: gamma / n in Sigma decides as the second
    # overlattice Gamma + (1/n) Z gamma did
    rng = rng_for("trichotomy-second-overlattice")
    kinds = Counter()
    while kinds["discrete"] < 150 or kinds["equal"] < 20:
        gamma = _random_order(rng)
        for n in range(1, 7):
            overs = zlat.enumerate_overlattices(gamma.rank, n)
            for over in rng.sample(overs, min(4, len(overs))):
                k = rng.randint(1, 3)
                over = Overlattice(k * over.den, tuple(tuple(k * x for x in row) for row in over.rows))
                want = _trichotomy_by_second_overlattice(gamma, over)
                assert V.kummer_ext_classify(gamma, over).kind == want, (gamma.levels, over)
                kinds[want] += 1
    assert kinds["not-finitely-generated"] >= 150


# ---------------------------------------------------------------------------
# valuative choice and blowups


def test_vcp_axes(lex2, nat2):
    ideal = V.MonoidIdeal(nat2, ((1, 0), (0, 1)))
    theta = V.LatticeMap(lex2, nat2, [(1, 0), (0, 1)])
    a, idx, blowup, ok, cert = V.vcp_select(nat2, ideal, theta)
    assert a == (0, 1) and idx == 1  # theta(e1) - theta(e2) = (1,-1) >= 0
    assert ok


def test_vcp_principal(lex2, nat2):
    ideal = V.MonoidIdeal(nat2, ((1, 1),))
    theta = V.LatticeMap(lex2, nat2, [(1, 0), (0, 1)])
    a, idx, blowup, ok, _ = V.vcp_select(nat2, ideal, theta)
    assert a == (1, 1) and ok
    assert same_submonoid(blowup, nat2.saturate())


def test_vcp_zero_map_tie_break(nat2):
    zero = V.OrderedLattice(1, [((F(1),), (F(0),))])
    ideal = V.MonoidIdeal(nat2, ((1, 0), (0, 1)))
    theta = V.LatticeMap(zero, nat2, [(0,), (0,)])
    a, idx, _, ok, _ = V.vcp_select(nat2, ideal, theta)
    assert idx == 0 and ok  # all comparable equal: first generator wins


def test_affine_blowup_axes(nat2):
    ideal = V.MonoidIdeal(nat2, ((1, 0), (0, 1)))
    bl = V.affine_blowup(nat2, ideal, (0, 1))
    # <e2, e1-e2>^sat is unimodular, hence abstractly N^2
    assert same_submonoid(bl, monoid_from_vectors([(0, 1), (1, -1)]))
    gp = bl.gp_presentation().group
    assert (gp.rank, gp.torsion) == (2, ())


def test_affine_blowup_principal_is_identity(nat2):
    ideal = V.MonoidIdeal(nat2, ((1, 1),))
    bl = V.affine_blowup(nat2, ideal, (1, 1))
    assert same_submonoid(bl, nat2)


def test_affine_blowup_mixed(nat2):
    ideal = V.MonoidIdeal(nat2, ((1, 1), (2, 0)))
    bl = V.affine_blowup(nat2, ideal, (2, 0))
    expected = monoid_from_vectors([(1, 0), (0, 1), (-1, 1)]).saturate()
    assert same_submonoid(bl, expected)


def test_affine_blowup_membership_error(nat2):
    ideal = V.MonoidIdeal(nat2, ((1, 1),))
    with pytest.raises(MembershipError):
        V.affine_blowup(nat2, ideal, (1, 0))  # (1,0) not in the ideal (1,1)+P
    # an ideal's generators must lie in its owner
    for gens in (((-1, 0),), ((1, 1), (1, -1))):
        with pytest.raises(MembershipError, match="not in the owner monoid"):
            V.MonoidIdeal(nat2, gens)


def test_blowup_preserves_groupification(nat2):
    ideal = V.MonoidIdeal(nat2, ((1, 0), (0, 1)))
    bl = V.affine_blowup(nat2, ideal, (1, 0))
    g1 = nat2.gp_presentation().group
    g2 = bl.gp_presentation().group
    assert (g1.rank, g1.torsion) == (g2.rank, g2.torsion)


# ---------------------------------------------------------------------------
# F. Kato verification and the bounded ideal search


def test_kato_verify_trivial_for_integral(lex2, nat2):
    theta0 = H.MonoidHom(nat2, free_monoid(2), [(2, 0), (0, 2)])
    anchor = V.LatticeMap(lex2, nat2, [(1, 0), (0, 1)])
    ideal = V.MonoidIdeal(nat2, ((1, 0),))
    rep = V.kato_verify(theta0, ideal, anchor)
    assert rep.chosen == (1, 0)
    assert rep.integral and rep.factors_through_base


def test_kato_bounded_search_flattens_ogus(lex2):
    # the Ogus map P -> Q is not integral; some small ideal flattens it
    from conftest import ogus_data

    theta0, arm, p = ogus_data()
    po = H.pushout(theta0, arm, "sat")
    theta = po.left
    assert not H.is_integral(theta).holds
    anchor = V.LatticeMap(lex2, p, [p_anchor_value(p, i) for i in range(p.ngens)])
    rep = V.find_flattening_ideal(theta, anchor)
    assert rep.integral and rep.factors_through_base
    assert len(rep.ideal.generators) >= 2 and rep.ideal.contains(rep.chosen)


def test_one_kato_check_runs_one_blowup(monkeypatch, lex2, half_v_presentation):
    # VCP builds the blowup it chooses a for, and the Kato check reuses it
    from conftest import ogus_data

    theta0, arm, p = ogus_data()
    theta = H.pushout(theta0, arm, "sat").left
    anchor = V.LatticeMap(lex2, p, [p_anchor_value(p, i) for i in range(p.ngens)])
    checks = count_calls(monkeypatch, V, "kato_verify")
    blowups = count_calls(monkeypatch, V, "affine_blowup")
    V.find_flattening_ideal(theta, anchor)
    assert len(blowups) == len(checks) == 1
    # a supplied ideal is checked once, with one blowup
    tv = half_v_presentation
    checks.clear()
    blowups.clear()
    V.rft_pipeline(tv, ideal=V.MonoidIdeal(tv.p0, ((1, 0), (0, 1))))
    assert len(blowups) == len(checks) == 1


def test_kato_anchor_values_are_the_anchor_at_the_blowup_generators(half_v_presentation, xyz_presentation):
    for tv in (half_v_presentation, xyz_presentation):
        for ideal in (None, V.MonoidIdeal(tv.p0, tv.p0.gens)):
            rep = V.rft_pipeline(tv, ideal=ideal)
            want = [tv.anchor.eval_element(g) for g in rep.kato.base_changed.source.gens]
            assert rep.kato.anchor_values == want


def test_flattening_search_is_charged_to_the_budget():
    # P = <(1, i) : i < 12> -> N, every generator to 1, is not integral.
    # The search's first candidates are the 2^12 coefficient vectors in
    # {0, 1}^12, one node each, so it is refused at budget 1000 and answers
    # at 5000
    p = monoid_from_vectors([(1, i) for i in range(12)])
    chart = H.MonoidHom(p, free_monoid(1), [(1,)] * 12)
    anchor = V.LatticeMap(V.lex_lattice(2), p, list(p.gens))
    with node_budget(1000), pytest.raises(ResourceLimitError, match="flattening-ideal search") as e:
        V.find_flattening_ideal(chart, anchor)
    assert e.value.limit == 1000
    with node_budget(5000):
        rep = V.find_flattening_ideal(chart, anchor)
    assert rep.ideal.generators == ((1, 0), (1, 1)) and rep.integral


def test_flattening_search_tries_each_antichain_once(monkeypatch):
    # with every Kato check failing, the search runs through all three
    # coefficient bounds; a combination already tried at a smaller bound is
    # not checked again
    p = monoid_from_vectors([(1, 0), (1, 1), (1, 2)])
    chart = H.MonoidHom(p, free_monoid(1), [(1,)] * 3)
    anchor = V.LatticeMap(V.lex_lattice(2), p, list(p.gens))
    checked = []

    def failing(chart, ideal, anchor):
        checked.append(ideal.generators)
        return V.KatoReport(ideal, None, None, False, False, None)

    monkeypatch.setattr(V, "kato_verify", failing)
    with pytest.raises(SearchFailureError):
        V.find_flattening_ideal(chart, anchor)
    assert len(checked) == len(set(checked)) > 1000


def p_anchor_value(p, i):
    # order-compatible anchor for the Ogus P: value = the half-grid vector
    # (sum with weight) - use the grid coordinates themselves
    grid_vectors = [(2, 0), (0, 2), (1, 1)]
    return grid_vectors[i]


# ---------------------------------------------------------------------------
# Tsuji base change


def test_tsuji_doubling(nat):
    f = H.MonoidHom(nat, free_monoid(1), [(2,)])
    rep = V.tsuji_base_change(f, 2)
    assert rep.passes
    gp = rep.base_changed.target.gp_presentation().group
    assert (gp.rank, gp.torsion) == (1, (2,))


def test_tsuji_identity_n1(nat2):
    f = H.MonoidHom.identity(nat2)
    rep = V.tsuji_base_change(f, 1)
    assert rep.passes
    assert same_submonoid(rep.base_changed.target, nat2)


def test_tsuji_1_2_map(nat, nat2):
    f = H.MonoidHom(nat, nat2, [(1, 2)])
    rep = V.tsuji_base_change(f, 2)
    assert rep.passes


def test_tsuji_int_pushout_by_hand():
    # 1 -> 3 with n = 2: the base change is Z -> Z, and its int pushout along
    # multiplication by 2 is <2, 3> in Z up to sign, not saturated: 1 = 3 - 2
    # has 2 * 1 in it, while its members are 0 and the integers >= 2
    f = H.MonoidHom(free_monoid(1), free_monoid(1), [(3,)])
    with node_budget(2000):
        rep = V.tsuji_base_change(f, 2)
    assert rep.evidence == ((1, True),) + tuple((m, False) for m in range(2, 7))
    hom2 = rep.base_changed
    p2 = hom2.source
    mult2 = H.MonoidHom(p2, p2, [p2.ambient.scale(2, g) for g in p2.gens])
    po = H.pushout(hom2, mult2, "int").monoid
    assert po.ambient == FgAbelianGroup(1)
    sign = po.gens[0][0] // abs(po.gens[0][0])
    assert sorted(sign * g[0] for g in po.gens) == [2, 3]
    assert not po.contains((sign,)) and po.contains((2 * sign,))
    assert not po.is_saturated()


def test_tsuji_requires_integral(nat2, nat):
    f = H.MonoidHom(nat2, nat, [(1,), (1,)])  # the sum map is not integral
    with pytest.raises(NotIntegralError):
        V.tsuji_base_change(f, 1)


# ---------------------------------------------------------------------------
# RFT pipeline


def test_rft_half_v(half_v_presentation):
    rep = V.rft_pipeline(half_v_presentation)
    assert rep.n == 2
    assert rep.kato.integral and rep.tsuji.passes
    assert rep.extension.overlattice.index_over_standard() == 4  # W = (1/2)V
    q = rep.extension.quotient
    assert (q.rank, q.torsion) == (0, (2, 2))
    assert rep.final_integral and rep.final_sat_generating
    assert rep.extension.order_coprime


def test_rft_half_v_sigma3(half_v_presentation):
    rep = V.rft_pipeline(half_v_presentation, PrimeSet.of(3))
    assert rep.extension.order_coprime  # order 4 is coprime to 3


def test_rft_xyz(xyz_presentation):
    rep = V.rft_pipeline(xyz_presentation)
    assert rep.n == 2
    ext = rep.extension
    assert ext.overlattice.index_over_standard() == 2  # a (1/2)-extension
    assert rep.final_integral and rep.final_sat_generating


def test_rft_dvr_chain():
    lex1 = V.lex_lattice(1)
    nn = free_monoid(1)
    tv = V.TypeVPresentation(lex1, H.MonoidHom(nn, free_monoid(1), [(2,)]), [(1,)])
    rep = V.rft_pipeline(tv)
    assert rep.n == 2 and rep.extension.overlattice.index_over_standard() == 2
    assert rep.final_integral and rep.final_sat_generating


def test_rft_divisible_base_w_equals_v():
    dv = V.divisible_nonneg(1)
    nn = free_monoid(1)
    tv = V.TypeVPresentation(dv, H.MonoidHom(nn, free_monoid(1), [(2,)]), [(1,)])
    rep = V.rft_pipeline(tv)
    assert rep.w_equals_base
    assert rep.extension is None
    assert rep.final_integral and rep.final_sat_generating


def test_rft_already_fp_saturated_identity(nat2, lex2):
    tv = V.TypeVPresentation(lex2, H.MonoidHom.identity(nat2), [(1, 0), (0, 1)])
    rep = V.rft_pipeline(tv)
    assert rep.n == 1
    assert rep.w_equals_base
    assert rep.final_integral and rep.final_sat_generating


# ---------------------------------------------------------------------------
# Grauert-Remmert finiteness


def test_gr_half_over_divisible():
    dv = V.divisible_nonneg(1)
    nn = free_monoid(1)
    tv = V.TypeVPresentation(dv, H.MonoidHom(nn, free_monoid(1), [(2,)]), [(1,)])
    rep = V.gr_finiteness(tv)
    assert rep.generators == ()  # (1/2) lies in the divisible image
    assert rep.sat_generating and rep.relations_complete


def test_gr_identity_chart():
    dv = V.divisible_nonneg(2)
    n2 = free_monoid(2)
    tv = V.TypeVPresentation(dv, H.MonoidHom.identity(n2), [(1, 0), (0, 1)])
    rep = V.gr_finiteness(tv)
    assert rep.generators == ()
    assert rep.sat_generating and rep.relations_complete


def test_gr_semistable():
    dv = V.divisible_nonneg(2)
    n2 = free_monoid(2)
    ss, _ = H.semistable_extension(n2, (1, 1), 2)
    tv = V.TypeVPresentation(dv, ss, [(1, 0), (0, 1)])
    rep = V.gr_finiteness(tv)
    assert len(rep.generators) == 2
    assert len(rep.relations) == 1
    assert rep.sat_generating and rep.relations_complete


def _gr_kept_by_restarts(tv):
    """The lifts that ``gr_finiteness`` keeps, pruned by the loop it used
    to run: after each removal the scan starts again from the first kept
    generator."""
    keep = list(range(tv.q0.ngens))
    changed = True
    while changed:
        changed = False
        for j in list(keep):
            rest = [tv.lift_of_q0_gen(t) for t in keep if t != j]
            if tv.member(tv.lift_of_q0_gen(j), gens=rest):
                keep.remove(j)
                changed = True
                break
    return tuple(tv.lift_of_q0_gen(j) for j in keep)


@pytest.mark.parametrize("q0_gens, axes", [
    # N^2 onto the last two axes of N^3 and N^4: the lifts of those axes lie
    # in V, the others are kept
    ([(1, 0, 0), (0, 1, 0), (0, 0, 1)], [(0, 1, 0), (0, 0, 1)]),
    ([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)], [(0, 0, 1, 0), (0, 0, 0, 1)]),
    # the first two lifts sat-generate each other, so the order decides
    # which one is kept: the second, once the first is removed
    ([(0, 0, 1), (0, 0, 2), (1, 0, 0), (0, 1, 0)], [(1, 0, 0), (0, 1, 0)]),
])
def test_gr_one_pass_keeps_what_the_restarts_kept(monkeypatch, q0_gens, axes):
    # over Q^2_{>=0}, at least two lifts are removed after a kept one, so
    # the restarts test the kept lifts again; one pass asks one membership
    # per generator and keeps the same lifts, and the check that ends
    # ``gr_finiteness`` asks one per removed lift
    q0 = monoid_from_vectors(q0_gens)
    tv = V.TypeVPresentation(V.divisible_nonneg(2), H.MonoidHom(free_monoid(2), q0, axes), [(1, 0), (0, 1)])
    with monkeypatch.context() as mp:
        members = count_calls(mp, V.TypeVPresentation, "member")
        want = _gr_kept_by_restarts(tv)
        restarts = len(members)
        members.clear()
        rep = V.gr_finiteness(tv)
        asked = len(members)
    assert rep.generators == want and len(want) <= q0.ngens - 2
    assert asked == 2 * q0.ngens - len(want)
    assert q0.ngens < restarts


def test_gr_requires_divisible(lex2, nat2):
    tv = V.TypeVPresentation(lex2, H.MonoidHom.identity(nat2), [(1, 0), (0, 1)])
    with pytest.raises(NonDivisibleBaseError):
        V.gr_finiteness(tv)


# ---------------------------------------------------------------------------
# Nagata-style regression: relation data regenerates the monoid on dvr bases


def test_nagata_relation_module_on_dvr_corpus():
    dv = V.divisible_nonneg(1)
    nn = free_monoid(1)
    rng = rng_for("nagata")
    for k in (1, 2, 3):
        ss, _ = H.semistable_extension(nn, (1,), k)
        tv = V.TypeVPresentation(dv, ss, [(1,)])
        rep = V.gr_finiteness(tv)
        assert rep.sat_generating and rep.relations_complete
        # the relation lattice regenerates: each relation balances, and the
        # kept generators plus V sat-generate the presented monoid
        keep = [j for j in range(tv.q0.ngens) if tv.lift_of_q0_gen(j) in rep.generators]
        assert len(keep) == len(rep.generators) and tv.verify_sat_generating(keep)
