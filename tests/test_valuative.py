"""Ordered lattices, membership over valuative bases, blowups, pipelines."""

from fractions import Fraction as F

import pytest

from conftest import rng_for, same_submonoid
from satmon import homs as H
from satmon import monoid as M
from satmon import valuative as V
from satmon.errors import (
    MembershipError,
    NonDivisibleBaseError,
    NotIntegralError,
    SearchFailureError,
)
from satmon.monoid import free_monoid, monoid_from_vectors
from satmon.sigma import PrimeSet
from satmon.zlat import Lattice, Overlattice


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


def test_divisible_elements():
    dv = V.divisible_nonneg(1)
    assert dv.is_member((F(1, 2),))
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


def test_member_witness(half_v_presentation):
    ok, wit = half_v_presentation.member(((F(0), F(0)), (1, -6)), witness=True)
    assert ok and wit is not None


def test_sat_generating_half_v(half_v_presentation):
    tv = half_v_presentation
    both = [tv.lift_of_q0_gen(0), tv.lift_of_q0_gen(1)]
    assert tv.verify_sat_generating(both)
    # one generator still sat-generates here: 2*(0,1/2) = (0,1) already lies
    # in V (lex-positive), so the saturation of <V, (1/2,0)> contains (0,1/2)
    assert lexpos_oracle(tv)
    assert tv.verify_sat_generating([tv.lift_of_q0_gen(0)])
    # even the empty set works for this presentation: 2*Q <= V
    assert tv.verify_sat_generating([])


def lexpos_oracle(tv):
    # the one-line independent check behind the surprising verdict above
    return tv.base.sign((0, 1)) > 0


def test_sat_generating_genuinely_fails():
    # V = lex Z^1, chart N -> N^2 hitting only the first axis: the second
    # axis generator is not in the saturation of <V, first axis>
    lex1 = V.lex_lattice(1)
    chart = H.MonoidHom(free_monoid(1), free_monoid(2), [(1, 0)])
    tv = V.TypeVPresentation(lex1, chart, [(1,)])
    assert tv.verify_sat_generating([tv.lift_of_q0_gen(0), tv.lift_of_q0_gen(1)])
    assert not tv.verify_sat_generating([tv.lift_of_q0_gen(0)])
    assert not tv.member(tv.lift_of_q0_gen(1), gens=[tv.lift_of_q0_gen(0)])


def test_sat_generating_affine(nat, nat2):
    f = H.MonoidHom(nat, nat2, [(1, 0)])
    assert V.verify_sat_generating_affine(f, [(0, 1)])
    assert not V.verify_sat_generating_affine(f, [])


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
        s = f.value(x, gamma.d).sign()
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
        vals = [f.value(x, gamma.d) for f in gamma.levels[:-1]]
        if all(v.sign() == 0 for v in vals):
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
    rep = V.kato_verify(theta0, ideal, (1, 0), anchor)
    assert rep.integral and rep.factors_through_base


def test_kato_invalid_element(lex2, nat2):
    theta0 = H.MonoidHom(nat2, free_monoid(2), [(2, 0), (0, 2)])
    anchor = V.LatticeMap(lex2, nat2, [(1, 0), (0, 1)])
    ideal = V.MonoidIdeal(nat2, ((1, 0),))
    with pytest.raises(MembershipError):
        V.kato_verify(theta0, ideal, (0, 1), anchor)


def test_kato_bounded_search_flattens_ogus(lex2):
    # the Ogus map P -> Q is not integral; some small ideal flattens it
    from conftest import ogus_data

    theta0, arm, p = ogus_data()
    po = H.pushout(theta0, arm, "sat")
    theta = po.left
    assert not H.is_integral(theta).holds
    anchor = V.LatticeMap(lex2, p, [p_anchor_value(p, i) for i in range(p.ngens)])
    ideal, a, rep = V.find_flattening_ideal(theta, anchor)
    assert rep.integral and rep.factors_through_base
    assert len(ideal.generators) >= 2


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
        assert tv.verify_sat_generating(list(rep.generators))
