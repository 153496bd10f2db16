"""End-to-end dispatch of every subcommand through run_request."""

import json
import time
from fractions import Fraction as F

import pytest

from satmon import cli, documents as D
from satmon import homs as H
from satmon import monoid as M
from satmon import valuative as V
from satmon.monoid import free_monoid, monoid_from_vectors
from satmon.zlat import node_budget


def req(op, args, sigma=None, budget=None):
    r = {"format": "satmon/1", "kind": "request", "op": op, "args": args}
    if sigma is not None:
        r["sigma"] = sigma
    if budget is not None:
        r["budget"] = str(budget)
    return r


def run_ok(op, args, sigma=None, want_code=0):
    rep, code = cli.run_request(req(op, args, sigma))
    assert code == want_code, (op, rep["result"])
    return rep["result"]


def test_op_spec_and_face(nat2):
    m = D.monoid_out(nat2)
    out = run_ok("spec", {"monoid": m})
    assert len(out["faces"]) == 4
    out = run_ok("face", {"monoid": m, "elements": [["1", "1"]]})
    assert out["face_gen_indices"] == ["0", "1"]


def test_op_localize_quotient(nat2):
    m = D.monoid_out(nat2)
    out = run_ok("localize", {"monoid": m, "face": ["0"]})
    assert len(out["localization"]["gens"]) == 3
    out = run_ok("quotient", {"monoid": m, "face": ["0"]})
    assert out["quotient"]["ambient"]["rank"] == "1"


def test_op_blowup_and_vcp(nat2, lex2):
    ideal = D.ideal_out(V.MonoidIdeal(nat2, ((1, 0), (0, 1))))
    out = run_ok("blowup", {"ideal": ideal, "a": ["0", "1"]})
    assert len(out["blowup"]["gens"]) == 2
    out = run_ok(
        "vcp",
        {
            "ideal": ideal,
            "lattice": D.lattice_out(lex2),
            "images": [["1", "0"], ["0", "1"]],
        },
    )
    assert out["chosen"] == ["0", "1"] and out["factors_through_base"]


def test_vcp_refuses_a_lattice_with_d_one(nat2):
    # x + y*sqrt(1) = x + y vanishes on (1, -1): not a total order
    lattice = dict(D.lattice_out(V.quadratic_line(2)), d="1")
    ideal = D.ideal_out(V.MonoidIdeal(nat2, ((1, 0), (0, 1))))
    rep, code = cli.run_request(
        req("vcp", {"ideal": ideal, "lattice": lattice, "images": [["1", "0"], ["0", "1"]]})
    )
    assert code == 2
    assert rep["result"]["error"] == "schema-violation"
    assert rep["result"]["path"] == "$.args.lattice"


@pytest.mark.parametrize("n", ["\u00b2", "\u0663", "1_000", "+3", " 3", "-", ""])
def test_integers_are_an_optional_minus_and_ascii_digits(n):
    # a superscript two used to escape as an uncaught ValueError, and an
    # Arabic-Indic three was read as 3
    rep, code = cli.run_request(req("pi1", {"monoid": D.monoid_out(free_monoid(1)), "n": n}))
    assert code == 2
    assert rep["result"]["error"] == "schema-violation"
    assert rep["result"]["path"] == "$.args.n"


@pytest.mark.parametrize(
    "x", ["1_0", "+1/2", "\u0663/2", "\u00b2", "1/+2", "1/0", "1/2/3", "/2", "1/", " 1/2"]
)
def test_rationals_are_decimal_strings_over_decimal_strings(nat2, x):
    ideal = D.ideal_out(V.MonoidIdeal(nat2, ((1, 0), (0, 1))))
    lattice = D.lattice_out(V.quadratic_line(2))
    rep, code = cli.run_request(
        req("vcp", {"ideal": ideal, "lattice": lattice, "images": [[x, "0"], ["0", "1"]]})
    )
    assert code == 2
    assert rep["result"]["error"] == "schema-violation"
    assert rep["result"]["path"] == "$.args.images[0][0]"


def test_decimal_strings_that_parse():
    assert [D._int(s, "$") for s in ("0", "-0", "-12", "007")] == [0, 0, -12, 7]
    assert [D._frac(s, "$") for s in ("3", "-3/4", "6/-4")] == [3, F(-3, 4), F(-3, 2)]


def test_op_tsuji(nat):
    hom = D.hom_out(H.MonoidHom(nat, free_monoid(1), [(2,)]))
    out = run_ok("tsuji", {"hom": hom, "n": "2"})
    assert out["passes"] and len(out["evidence"]) == 6
    out = run_ok("tsuji", {"hom": hom, "n": "2", "bound": "3"})
    assert len(out["evidence"]) == 3


def test_op_rft(half_v_presentation):
    tv = D.typev_out(half_v_presentation)
    out = run_ok("rft", {"typev": tv})
    assert out["n"] == "2"
    assert out["final_integral"] and out["final_sat_generating"]
    assert out["extension"]["quotient"]["torsion"] == ["2", "2"]


def test_op_gr():
    dv = V.divisible_nonneg(1)
    nn = free_monoid(1)
    tv = V.TypeVPresentation(dv, H.MonoidHom(nn, free_monoid(1), [(2,)]), [(1,)])
    out = run_ok("gr", {"typev": D.typev_out(tv)})
    assert out["generators"] == [] and out["sat_generating"]
    # a chart out of the trivial monoid: no witnesses and no relations, so
    # the relation lattice is zero
    tv = V.TypeVPresentation(dv, H.MonoidHom(free_monoid(0), nn, []), [])
    out = run_ok("gr", {"typev": D.typev_out(tv)})
    assert out["generators"] == [{"base": ["0"], "exponents": ["1"]}]
    assert out["relations"] == [] and out["relations_complete"]


def test_op_kummer_classify(lex2):
    # extension along the least positive element (0,1): the dvr-like case
    out = run_ok(
        "kummer-classify",
        {
            "gamma": D.lattice_out(lex2),
            "overlattice": {"den": "2", "rows": [["2", "0"], ["0", "1"]]},
        },
    )
    assert out["kind"] == "discrete" and out["n"] == "2"
    # extension in the dominant direction is not finitely generated
    out = run_ok(
        "kummer-classify",
        {
            "gamma": D.lattice_out(lex2),
            "overlattice": {"den": "2", "rows": [["1", "0"], ["0", "2"]]},
        },
    )
    assert out["kind"] == "not-finitely-generated"


def test_op_pi1(nat2):
    out = run_ok("pi1", {"monoid": D.monoid_out(nat2), "n": "3"}, sigma={"primes": ["2"]})
    assert out["group"]["torsion"] == ["3", "3"]


def test_large_moduli_are_not_factored(nat, nat2):
    # coprimality to the prime set is decided without factoring n, so a
    # 15-digit prime modulus costs no trial division
    n = str(10**14 + 31)
    for op, m in (("pi1", nat2), ("covers", nat)):
        t0 = time.perf_counter()
        rep, code = cli.run_request(
            req(op, {"monoid": D.monoid_out(m), "n": n}, {"primes": ["2", "3"]}, budget=100000)
        )
        assert time.perf_counter() - t0 < 0.5
        assert code == 0, rep["result"]
    assert rep["result"]["count"] == "1"
    res = _error(req("pi1", {"monoid": D.monoid_out(nat), "n": str(2 * (10**14 + 31))},
                     {"primes": ["2", "3"]}))
    assert res["error"] == "CoprimalityError"
    assert f"{2 * (10**14 + 31)}" in res["message"] and "{2,3}" in res["message"]


def test_trial_divisions_are_charged_to_the_budget(nat, nat2):
    # a 30-digit d, a 20-digit prime of the prime set and the overlattices
    # of Z^2 of a 15-digit prime index: trial division and overlattice
    # enumeration past the budget are a resource limit that carries it
    lat = D.lattice_out(V.quadratic_line(2))
    lat["d"] = str(10**29 + 319)
    over = {"den": "1", "rows": [["1", "0"], ["0", "1"]]}
    big_prime = {"primes": [str(10**19 + 51)]}
    for request in (
        req("kummer-classify", {"gamma": lat, "overlattice": over}, budget=100000),
        req("pi1", {"monoid": D.monoid_out(nat), "n": "2"}, big_prime, budget=100000),
        req("covers", {"monoid": D.monoid_out(nat2), "n": str(10**14 + 31)},
            {"primes": ["2"]}, budget=100000),
    ):
        t0 = time.perf_counter()
        res = _error(request)
        assert time.perf_counter() - t0 < 1.0
        assert res["error"] == "resource-limit" and res["limit"] == 100000


def test_op_vidal(half_inclusion):
    out = run_ok("vidal", {"hom": D.hom_out(half_inclusion)})
    assert out["verified"]


def test_op_semistable(nat):
    out = run_ok(
        "semistable", {"monoid": D.monoid_out(nat), "pi": ["1"], "n": "2"}
    )
    assert out["smooth"] and out["vertical"] and out["target_saturated"]


def test_op_pushout_categories(nat):
    two = D.hom_out(H.MonoidHom(nat, free_monoid(1), [(2,)]))
    out = run_ok("pushout", {"along": two, "arm": two, "category": "sat"})
    assert out["monoid"]["ambient"]["torsion"] == ["2"]
    out = run_ok("pushout", {"along": two, "arm": two, "category": "mon"})
    assert "monoid" not in out


def test_unknown_args_rejected(nat):
    rep, code = cli.run_request(
        req("saturate", {"monoid": D.monoid_out(nat), "bogus": 1})
    )
    assert code == 2
    assert rep["result"]["error"] == "schema-violation"
    assert "bogus" in rep["result"]["path"]


def test_missing_field_rejected():
    rep, code = cli.run_request(req("localize", {"monoid": D.monoid_out(free_monoid(1))}))
    assert code == 2
    assert rep["result"]["error"] == "schema-violation"


def test_unknown_op():
    rep, code = cli.run_request(req("frobnicate", {}))
    assert code == 2
    assert rep["result"]["path"] == "$.op"


def _error(request):
    rep, code = cli.run_request(request)
    assert code == 2, rep["result"]
    return rep["result"]


def test_resource_limit_reported():
    # Contejean-Devie completion of this integrality check overflows the
    # request budget before it finds a relation-monoid generator without a
    # witness, so classify ends in a completion refusal
    source = monoid_from_vectors([(1, 0), (1, 1), (1, 2), (1, 3)])
    target = monoid_from_vectors([(1, 0, 0), (1, 1, 1), (1, 1, 2), (1, 2, 1)])
    hom = D.hom_out(
        H.MonoidHom(source, target, [(0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 0)])
    )
    res = _error(req("classify", {"hom": hom}, budget=2000))
    assert res["error"] == "resource-limit"
    assert res["limit"] == 2000
    assert "completion" in res["message"]


def test_searches_of_a_request_share_its_budget():
    # spec on N^4: double description and face enumeration charge 4 + 43
    # nodes, the 16 * 15 ordered face pairs 240.  Each fits a budget of 240,
    # but not both: the request needs 287
    m = D.monoid_out(free_monoid(4))
    with node_budget(240):
        assert len(free_monoid(4).faces()) == 16
    res = _error(req("spec", {"monoid": m}, budget=240))
    assert res["error"] == "resource-limit" and res["limit"] == 240
    assert "face inclusion" in res["message"]
    rep, code = cli.run_request(req("spec", {"monoid": m}, budget=287))
    assert code == 0, rep["result"]


def test_requests_of_a_batch_keep_their_budgets_apart():
    # each request uses 287 of its 480 nodes (60%); on two threads, or one
    # after the other, neither draws on the other's budget
    item = req("spec", {"monoid": D.monoid_out(free_monoid(4))}, budget=480)
    batch = {"format": "satmon/1", "kind": "batch", "requests": [item, item]}
    for jobs in (1, 2):
        rep, code = cli.run_batch(batch, jobs=jobs)
        assert code == 0 and [r["status"] for r in rep["reports"]] == ["ok", "ok"]


def test_cone_work_is_charged_to_the_request_budget():
    # the one simplex of cone((1, 0), (1, 1001)) has |det| 1001: the
    # Hilbert-basis search charges it before building a point, after the 2
    # rays double description forms, so the request needs 1003 nodes
    m = monoid_from_vectors([(1, 0), (1, 1001)])
    rep, code = cli.run_request(req("saturate", {"monoid": D.monoid_out(m)}, budget=1003))
    assert code == 0, rep["result"]
    res = _error(req("saturate", {"monoid": D.monoid_out(m)}, budget=1002))
    assert res["error"] == "resource-limit" and res["limit"] == 1002
    assert "Hilbert basis" in res["message"]


def test_face_inclusions_are_charged_before_they_are_tested():
    # N^16 has 65,536 faces, so 65,536 * 65,535 ordered pairs to test: far
    # past the default budget, refused before the first test
    res = _error(req("spec", {"monoid": D.monoid_out(free_monoid(16))}))
    assert res["error"] == "resource-limit" and res["limit"] == 1_000_000
    assert "face inclusion" in res["message"]


def test_tsuji_answers_within_the_budget():
    # the saturatedness checks of these charts are decided from the cone;
    # a membership search on a torsion ambient used to exhaust the budget
    for k, n in ((3, 2), (2, 3)):
        hom = D.hom_out(H.MonoidHom(free_monoid(1), free_monoid(1), [(k,)]))
        rep, code = cli.run_request(req("tsuji", {"hom": hom, "n": str(n)}, budget=2000))
        assert code == 1, rep["result"]
        evidence = [(e["m"], e["saturated"]) for e in rep["result"]["evidence"]]
        assert evidence == [("1", True)] + [(str(m), False) for m in range(2, 7)]


def _fan_hom():
    # N -> <(1,0), (1,1), (1,2)>, 1 -> (2,2): the image's membership witness
    # takes a branch-and-bound node, so it trips a zero budget at parse time
    target = monoid_from_vectors([(1, 0), (1, 1), (1, 2)])
    return D.hom_out(H.MonoidHom(free_monoid(1), target, [(2, 2)]))


def test_parse_time_search_obeys_the_budget():
    res = _error(req("classify", {"hom": _fan_hom()}, budget=0))
    assert res["error"] == "resource-limit" and res["limit"] == 0


def test_precondition_error_reported():
    hom = D.hom_out(H.MonoidHom(free_monoid(1), monoid_from_vectors([(2,), (3,)]), [(2,)]))
    res = _error(req("classify", {"hom": hom}))
    assert res["error"] == "PreconditionError"
    assert "saturated" in res["message"]


def test_invalid_input_reported(nat):
    along = D.hom_out(H.MonoidHom.identity(nat))
    arm = D.hom_out(H.MonoidHom.identity(free_monoid(2)))
    res = _error(req("pushout", {"along": along, "arm": arm}))
    assert res["error"] == "invalid-input"
    assert res["message"] == "ValueError: pushout arms must share their source"


@pytest.mark.parametrize("bound", ["0", "-3"])
def test_tsuji_refuses_a_bound_below_one(nat, bound):
    # no m <= bound is tested, so a pass would be empty evidence
    hom = D.hom_out(H.MonoidHom(nat, free_monoid(1), [(2,)]))
    res = _error(req("tsuji", {"hom": hom, "n": "2", "bound": bound}))
    assert res == {"error": "invalid-input", "message": "ValueError: test_bound must be >= 1"}


def test_tsuji_refuses_n_below_one(nat):
    # n = 0 would push out along the zero map
    hom = D.hom_out(H.MonoidHom(nat, free_monoid(1), [(2,)]))
    res = _error(req("tsuji", {"hom": hom, "n": "0"}))
    assert res == {"error": "invalid-input", "message": "ValueError: n must be >= 1"}


@pytest.mark.parametrize("n", ["-1", "-2"])
def test_semistable_refuses_n_below_zero(nat, n):
    res = _error(req("semistable", {"monoid": D.monoid_out(nat), "pi": ["1"], "n": n}))
    assert res == {"error": "invalid-input", "message": "ValueError: n must be >= 0"}


_N2 = D.monoid_out(free_monoid(2))
_N2_IDEAL = D.ideal_out(V.MonoidIdeal(free_monoid(2), ((1, 0), (0, 1))))


def _n2_hom(image):
    return dict(D.hom_out(H.MonoidHom.identity(free_monoid(2))), gen_images=[image, ["0", "1"]])


@pytest.mark.parametrize("op, args, path", [
    ("face", {"monoid": _N2, "elements": [["1", "0", "7"]]}, "$.args.elements[0]"),
    ("face", {"monoid": _N2, "elements": [["1"]]}, "$.args.elements[0]"),
    ("classify", {"hom": _n2_hom(["1", "0", "9"])}, "$.args.hom.gen_images[0]"),
    ("classify", {"hom": _n2_hom(["1"])}, "$.args.hom.gen_images[0]"),
    ("blowup", {"ideal": dict(_N2_IDEAL, generators=[["1", "0", "4"], ["0", "1"]]),
                "a": ["0", "1"]}, "$.args.ideal.generators[0]"),
    ("blowup", {"ideal": _N2_IDEAL, "a": ["1", "0", "3"]}, "$.args.a"),
    ("semistable", {"monoid": _N2, "pi": ["1", "1", "5"], "n": "2"}, "$.args.pi"),
    ("kummer-classify", {"gamma": D.lattice_out(V.lex_lattice(2)),
                         "overlattice": {"den": "2", "rows": [["2", "0"], ["0", "1", "7"]]}},
     "$.args.overlattice.rows[1]"),
], ids=["face-long", "face-short", "gen-image-long", "gen-image-short", "ideal-generator",
        "blowup-a", "semistable-pi", "overlattice-row"])
def test_vectors_must_have_the_length_of_their_group(op, args, path):
    # extra coordinates used to be dropped without a word, and missing ones
    # raised an IndexError
    res = _error(req(op, args))
    assert res == {"error": "schema-violation", "path": path,
                   "message": "expected 2 coordinates"}


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_batch_budgets_stay_with_their_requests(tmp_path, jobs):
    # a budget that trips must not leak into the next request, whether it
    # runs on the same thread or another
    batch = {
        "format": "satmon/1",
        "kind": "batch",
        "requests": [req("classify", {"hom": _fan_hom()}, budget=0),
                     req("classify", {"hom": _fan_hom()})],
    }
    src, out = tmp_path / "batch.json", tmp_path / "report.json"
    src.write_text(json.dumps(batch))
    assert cli.main(["run", str(src), "--jobs", jobs, "--out", str(out)]) == 2
    tripped, answered = json.loads(out.read_text())["reports"]
    assert tripped["result"]["error"] == "resource-limit"
    assert tripped["result"]["limit"] == 0
    assert answered["status"] in ("ok", "verdict-false")
    assert "error" not in answered["result"]


def test_ogus_fixture_file_parses_to_documented_data():
    import os

    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, "golden", "ogus_pushout.request.json")) as fh:
        request = json.load(fh)
    arm = D.parse_hom(request["args"]["arm"])
    p = arm.target
    # P = <N^2, (1/2,1/2)> in its groupification: rank 2, three generators,
    # saturated, with the interior generator splitting as half the sum
    assert p.ambient.rank == 2 and not p.ambient.torsion
    assert p.ngens == 3 and p.is_saturated()
    two_half = p.ambient.add(arm.gen_images[0], arm.gen_images[1])
    halfdiag = [g for g in p.gens if p.ambient.scale(2, g) == two_half]
    assert len(halfdiag) == 1
