"""End-to-end dispatch of every subcommand through run_request."""

import json

import pytest

from satmon import cli, documents as D
from satmon import homs as H
from satmon import monoid as M
from satmon import valuative as V
from satmon.monoid import free_monoid, monoid_from_vectors


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
    # tsuji's saturatedness checks search under the request budget: on the
    # charts 1 -> 3 (n = 2) and 1 -> 2 (n = 3) a torsion non-member keeps
    # branch-and-bound busy until the budget fires
    for k, n in ((3, 2), (2, 3)):
        hom = D.hom_out(H.MonoidHom(free_monoid(1), free_monoid(1), [(k,)]))
        res = _error(req("tsuji", {"hom": hom, "n": str(n)}, budget=2000))
        assert res["error"] == "resource-limit"
        assert res["limit"] == 2000


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
