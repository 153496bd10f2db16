"""Command-line front end: parse documents, dispatch operations, emit reports.

One logical request per invocation; a ``batch`` request holds a list and may
be processed on k threads with ``--jobs k`` (outputs merged in input order;
the ops are CPU-bound, so threads do not speed them up).  Exit codes:
0 success, 1 the operation's primary verdict is false (certificate
included), 2 error.  Reports are byte-identical across runs under
``--deterministic`` (default): the timing field is then emitted as null.

``--budget N`` (or a request's ``budget``) is one node budget per request:
every search and enumeration of the request, parse-time membership checks
included, charges the same N nodes, and the one that takes the total past
N is refused.  That covers branch-and-bound and completion nodes, trial
divisors, the Hermite forms of an overlattice enumeration, the cones and
faces of a monoid (the rays double description forms, each simplex's
|det| in a Hilbert basis, each generator index a face cut scans, and each
ordered pair of faces whose inclusion ``spec`` tests), and the candidates
and combinations of the flattening-ideal search.  Without it,
``main`` gives the request the value of ``SATMON_BUDGET`` if that is set
(under ``run``, each request of the document that has no budget of its
own), so a malformed value is a schema violation of that request; the
fallback is ``zlat.DEFAULT_NODE_BUDGET``.  ``run_request`` sets the budget
with ``zlat.node_budget`` for the request alone; library code does the same
with ``with zlat.node_budget(n):``.

Equal monoids share their cone and saturation within a process, and every
request that reads them is charged their nodes again, so a report does not
depend on earlier requests or on ``--jobs`` (``monoid.AffineMonoid._shared``).
"""

import argparse
import json
import os
import sys
import threading
import time

from . import __version__, documents as D, homs, pi1 as pi1mod, valuative as val
from .documents import FORMAT
from .errors import ResourceLimitError, SatmonError, SchemaError
from .sigma import PrimeSet
from .zlat import DEFAULT_NODE_BUDGET, _node_meter, node_budget


def _parse_sigma(v, path):
    if v is None:
        return PrimeSet.empty()
    o = D._obj(v, path, (), ("primes", "complement"))
    if "primes" in o and "complement" in o:
        raise SchemaError(path, "give either primes or complement, not both")
    if "complement" in o:
        return PrimeSet.all_except(
            *[D._int(p, f"{path}.complement[{i}]") for i, p in enumerate(o["complement"])]
        )
    return PrimeSet.of(
        *[D._int(p, f"{path}.primes[{i}]") for i, p in enumerate(o.get("primes", []))]
    )


def _verdict_out(v):
    if v is None:
        return None
    cert = {}
    for k, x in v.certificate.items():
        if isinstance(x, tuple):
            cert[k] = D.ivec_out(x)
        elif isinstance(x, int):
            cert[k] = D.istr(x)
        else:
            cert[k] = x
    return {"holds": v.holds, "certificate": cert}


# -- operation handlers; each takes (args_obj, sigma, path) -------------------


def _op_saturate(args, sigma, path):
    D._obj(args, path, ("monoid",))
    m = D.parse_monoid(args["monoid"], f"{path}.monoid")
    sat = m.saturate()
    return {
        "already_saturated": m.is_saturated(),
        "saturation": D.monoid_out(sat),
    }, True


def _op_classify(args, sigma, path):
    D._obj(args, path, ("hom",))
    f = D.parse_hom(args["hom"], f"{path}.hom")
    rep = homs.classify(f, sigma)
    verdicts = {k: _verdict_out(getattr(rep, k)) for k in (
        "injective", "exact", "integral", "vertical", "smooth", "etale", "kummer_etale")}
    data = {
        "kernel": D.group_out(rep.profile.kernel),
        "cokernel": D.group_out(rep.profile.cokernel),
    }
    return {"verdicts": verdicts, "profile": data}, rep.kummer_etale.holds


def _op_spec(args, sigma, path):
    D._obj(args, path, ("monoid",))
    m = D.parse_monoid(args["monoid"], f"{path}.monoid")
    faces = m.faces()
    # every ordered pair of faces is one inclusion test, charged up front
    _node_meter("face inclusion")(len(faces) * (len(faces) - 1))
    sets = [set(f.indices) for f in faces]
    order = [
        [i, j]
        for i, a in enumerate(sets)
        for j, b in enumerate(sets)
        if i != j and a <= b
    ]
    return {
        "faces": [{"gen_indices": [D.istr(i) for i in f.indices]} for f in faces],
        "inclusions": order,
    }, True


def _op_face(args, sigma, path):
    D._obj(args, path, ("monoid",), ("elements",))
    m = D.parse_monoid(args["monoid"], f"{path}.monoid")
    elems = [
        D._elem(e, f"{path}.elements[{i}]", m.ambient)
        for i, e in enumerate(D._list(args.get("elements", []), f"{path}.elements"))
    ]
    face = m.face_generated_by(elems)
    return {"face_gen_indices": [D.istr(i) for i in face.indices]}, True


def _op_localize(args, sigma, path):
    D._obj(args, path, ("monoid", "face"))
    m = D.parse_monoid(args["monoid"], f"{path}.monoid")
    idxs = [
        D._int(i, f"{path}.face[{k}]")
        for k, i in enumerate(D._list(args["face"], f"{path}.face"))
    ]
    loc = m.localize(m.face_from_indices(idxs))
    return {"localization": D.monoid_out(loc)}, True


def _op_quotient(args, sigma, path):
    D._obj(args, path, ("monoid", "face"))
    m = D.parse_monoid(args["monoid"], f"{path}.monoid")
    idxs = [
        D._int(i, f"{path}.face[{k}]")
        for k, i in enumerate(D._list(args["face"], f"{path}.face"))
    ]
    q, images, _ = m.quotient_by_face(m.face_from_indices(idxs))
    return {
        "quotient": D.monoid_out(q),
        "gen_images": [D.ivec_out(v) for v in images],
    }, True


def _op_pushout(args, sigma, path):
    D._obj(args, path, ("along", "arm"), ("category",))
    along = D.parse_hom(args["along"], f"{path}.along")
    arm = D.parse_hom(args["arm"], f"{path}.arm")
    category = args.get("category", "sat")
    if category not in ("mon", "int", "sat"):
        raise SchemaError(f"{path}.category", "category must be mon, int, or sat")
    po = homs.pushout(along, arm, category)
    out = {"category": category, "presentation": D.fp_monoid_out(po.fp)}
    if po.monoid is not None:
        out["monoid"] = D.monoid_out(po.monoid)
        out["left_gen_images"] = [D.ivec_out(v) for v in po.left.gen_images]
        out["right_gen_images"] = [D.ivec_out(v) for v in po.right.gen_images]
    return out, True


def _op_blowup(args, sigma, path):
    D._obj(args, path, ("ideal", "a"))
    ideal = D.parse_ideal(args["ideal"], f"{path}.ideal")
    a = D._elem(args["a"], f"{path}.a", ideal.owner.ambient)
    bl = val.affine_blowup(ideal.owner, ideal, a)
    return {"blowup": D.monoid_out(bl)}, True


def _op_vcp(args, sigma, path):
    D._obj(args, path, ("ideal", "lattice", "images"))
    ideal = D.parse_ideal(args["ideal"], f"{path}.ideal")
    lat = D.parse_lattice(args["lattice"], f"{path}.lattice")
    images = [
        D._fvec(v, f"{path}.images[{i}]")
        for i, v in enumerate(D._list(args["images"], f"{path}.images"))
    ]
    theta = val.LatticeMap(lat, ideal.owner, images)
    a, idx, blowup, ok, cert = val.vcp_select(ideal.owner, ideal, theta)
    return {
        "chosen": D.ivec_out(a),
        "chosen_index": D.istr(idx),
        "blowup": D.monoid_out(blowup),
        "factors_through_base": ok,
        "generator_values": [
            {"gen": D.ivec_out(g), "value": D.fvec_out(v), "sign": D.istr(s)}
            for g, v, s in cert
        ],
    }, ok


def _op_tsuji(args, sigma, path):
    D._obj(args, path, ("hom", "n"), ("bound",))
    f = D.parse_hom(args["hom"], f"{path}.hom")
    n = D._int(args["n"], f"{path}.n")
    bound = D._int(args.get("bound", "6"), f"{path}.bound")
    rep = val.tsuji_base_change(f, n, test_bound=bound)
    return {
        "n": D.istr(n),
        "base_change": D.hom_out(rep.base_changed),
        "evidence": [{"m": D.istr(m), "saturated": s} for m, s in rep.evidence],
        "passes": rep.passes,
        "note": "bounded evidence, not a proof",
    }, rep.passes


def _op_rft(args, sigma, path):
    D._obj(args, path, ("typev",), ("ideal",))
    tv = D.parse_typev(args["typev"], f"{path}.typev")
    ideal = None
    if "ideal" in args:
        ideal = D.parse_ideal(args["ideal"], f"{path}.ideal")
    rep = val.rft_pipeline(tv, sigma, ideal=ideal)
    ext = None
    if rep.extension is not None:
        ext = {
            "overlattice": D.overlattice_out(rep.extension.overlattice),
            "quotient": D.group_out(rep.extension.quotient),
            "order_coprime": rep.extension.order_coprime,
        }
    ok = rep.final_integral and rep.final_sat_generating and rep.tsuji.passes
    return {
        "kato": {
            "ideal_generators": [D.ivec_out(g) for g in rep.kato.ideal.generators],
            "chosen": D.ivec_out(rep.kato.chosen),
            "integral": rep.kato.integral,
            "factors_through_base": rep.kato.factors_through_base,
        },
        "ramification": rep.ramification.as_dict(),
        "n": D.istr(rep.n),
        "tsuji_evidence_passes": rep.tsuji.passes,
        "extension": ext,
        "w_equals_base": rep.w_equals_base,
        "final": D.typev_out(rep.final),
        "final_integral": rep.final_integral,
        "final_sat_generating": rep.final_sat_generating,
    }, ok


def _op_gr(args, sigma, path):
    D._obj(args, path, ("typev",))
    tv = D.parse_typev(args["typev"], f"{path}.typev")
    rep = val.gr_finiteness(tv)
    rels = []
    for (v1, m1), (v2, m2) in rep.relations:
        rels.append(
            [
                {"base": D.fvec_out(v1), "exponents": D.ivec_out(m1)},
                {"base": D.fvec_out(v2), "exponents": D.ivec_out(m2)},
            ]
        )
    ok = rep.sat_generating and rep.relations_complete
    return {
        "generators": [
            {"base": D.fvec_out(v), "exponents": D.ivec_out(a)} for v, a in rep.generators
        ],
        "relations": rels,
        "sat_generating": rep.sat_generating,
        "relations_complete": rep.relations_complete,
    }, ok


def _op_kummer_classify(args, sigma, path):
    D._obj(args, path, ("gamma", "overlattice"))
    lat = D.parse_lattice(args["gamma"], f"{path}.gamma")
    over = D.parse_overlattice(args["overlattice"], f"{path}.overlattice")
    v = val.kummer_ext_classify(lat, over)
    return {
        "kind": v.kind,
        "finitely_generated": v.finitely_generated,
        "gamma": None if v.gamma is None else D.ivec_out(v.gamma),
        "n": None if v.n is None else D.istr(v.n),
    }, True


def _op_pi1(args, sigma, path):
    D._obj(args, path, ("monoid", "n"))
    m = D.parse_monoid(args["monoid"], f"{path}.monoid")
    n = D._int(args["n"], f"{path}.n")
    q = pi1mod.pi1_quotient(m, n, sigma)
    return {"modulus": D.istr(n), "group": D.group_out(q.group)}, True


def _op_covers(args, sigma, path):
    D._obj(args, path, ("monoid", "n"))
    m = D.parse_monoid(args["monoid"], f"{path}.monoid")
    n = D._int(args["n"], f"{path}.n")
    covers = pi1mod.enumerate_covers(m, n, sigma)
    out = []
    for c in covers:
        out.append(
            {
                "overlattice": D.overlattice_out(c.overlattice),
                "cover": D.monoid_out(c.cover),
                "structure_gen_images": [D.ivec_out(v) for v in c.images],
                "deck": D.group_out(c.deck_invariants()),
            }
        )
    return {"count": D.istr(len(covers)), "covers": out}, True


def _op_vidal(args, sigma, path):
    D._obj(args, path, ("hom",))
    f = D.parse_hom(args["hom"], f"{path}.hom")
    rep = homs.vidal_decompose(f)
    return {
        "double_pushout": D.monoid_out(rep.double),
        "product": D.monoid_out(rep.product),
        "forward_on_ambient": [D.ivec_out(c) for c in rep.forward_on_ambient],
        "backward_on_ambient": [D.ivec_out(c) for c in rep.backward_on_ambient],
        "verified": rep.verified,
    }, rep.verified


def _op_semistable(args, sigma, path):
    D._obj(args, path, ("monoid", "pi", "n"))
    m = D.parse_monoid(args["monoid"], f"{path}.monoid")
    piv = D._elem(args["pi"], f"{path}.pi", m.ambient)
    n = D._int(args["n"], f"{path}.n")
    hom, new_gens = homs.semistable_extension(m, piv, n)
    rep = homs.classify(hom, sigma, include_integral=False)
    return {
        "extension": D.hom_out(hom),
        "new_gen_images": [D.ivec_out(v) for v in new_gens],
        "smooth": rep.smooth.holds,
        "vertical": rep.vertical.holds,
        "target_saturated": hom.target.is_saturated(),
    }, rep.smooth.holds and rep.vertical.holds


_OPS = {
    "saturate": _op_saturate,
    "classify": _op_classify,
    "spec": _op_spec,
    "face": _op_face,
    "localize": _op_localize,
    "quotient": _op_quotient,
    "pushout": _op_pushout,
    "blowup": _op_blowup,
    "vcp": _op_vcp,
    "tsuji": _op_tsuji,
    "rft": _op_rft,
    "gr": _op_gr,
    "kummer-classify": _op_kummer_classify,
    "pi1": _op_pi1,
    "covers": _op_covers,
    "vidal": _op_vidal,
    "semistable": _op_semistable,
}


def run_request(request, deterministic=True):
    """Dispatch one request document; returns (report_dict, exit_code)."""
    t0 = time.perf_counter()
    op = request.get("op") if isinstance(request, dict) else None
    code, status = 2, "error"
    try:
        D.check_format(request)
        if request["kind"] != "request":
            raise SchemaError("$.kind", "expected kind 'request'")
        o = D._obj(
            request,
            "$",
            ("format", "kind", "op", "args"),
            ("sigma", "budget"),
        )
        if op not in _OPS:
            raise SchemaError("$.op", f"unknown operation {op!r}")
        budget = (
            D._int(o["budget"], "$.budget") if "budget" in o else DEFAULT_NODE_BUDGET
        )
        with node_budget(budget):
            sigma = _parse_sigma(o.get("sigma"), "$.sigma")
            data, ok = _OPS[op](o["args"], sigma, "$.args")
        code = 0 if ok else 1
        status = "ok" if ok else "verdict-false"
    except SchemaError as e:
        data = {"error": "schema-violation", "path": e.path, "message": e.reason}
    except ResourceLimitError as e:
        data = {"error": "resource-limit", "message": str(e), "limit": e.limit}
    except SatmonError as e:
        data = {"error": type(e).__name__, "message": str(e)}
    except Exception as e:  # never traceback to the user; report and exit 2
        data = {"error": "invalid-input", "message": f"{type(e).__name__}: {e}"}
    ms = None if deterministic else round((time.perf_counter() - t0) * 1000, 3)
    report = {
        "format": FORMAT,
        "kind": "report",
        "tool_version": __version__,
        "op": op,
        "status": status,
        "request": request,
        "result": data,
        "timing_ms": ms,
    }
    return report, code


def run_batch(request, jobs=1, deterministic=True):
    o = D._obj(request, "$", ("format", "kind", "requests"))
    items = D._list(o["requests"], "$.requests")
    results = [None] * len(items)
    todo = iter(range(len(items)))

    # the calling thread and jobs - 1 more take indices from one range
    # iterator, whose next() hands each index to one thread, and write
    # each report into its request's slot
    def work():
        for i in todo:
            results[i] = run_request(items[i], deterministic)

    threads = [threading.Thread(target=work) for _ in range(min(jobs, len(items)) - 1)]
    for t in threads:
        t.start()
    work()
    for t in threads:
        t.join()
    code = max((c for _, c in results), default=0)
    report = {
        "format": FORMAT,
        "kind": "batch-report",
        "tool_version": __version__,
        "reports": [r for r, _ in results],
    }
    return report, code


def _read_doc(path_arg):
    if path_arg in (None, "-"):
        return json.load(sys.stdin)
    with open(path_arg, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _emit(report, out):
    text = json.dumps(report, indent=2, ensure_ascii=True) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _sigma_doc(ns):
    if ns.sigma_complement is not None:
        return {"complement": [p.strip() for p in ns.sigma_complement.split(",") if p.strip()]}
    if ns.sigma is not None:
        return {"primes": [p.strip() for p in ns.sigma.split(",") if p.strip()]}
    return None


def build_parser():
    ap = argparse.ArgumentParser(
        prog="satmon",
        description="Exact computations with saturated commutative monoids.",
    )
    ap.add_argument("--version", action="version", version=f"satmon {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, help_):
        sp = sub.add_parser(name, help=help_)
        sp.add_argument("input", nargs="?", default="-", help="input document (default stdin)")
        if name == "run":
            sp.add_argument(
                "--jobs",
                type=int,
                default=1,
                help="run batch requests on this many threads, outputs merged in "
                "input order (CPU-bound ops get no speed-up from it)",
            )
        else:
            sp.add_argument("--sigma", default=None, help="comma-separated primes, e.g. 2,3")
            sp.add_argument(
                "--sigma-complement",
                default=None,
                help="all primes except these (comma-separated)",
            )
            sp.add_argument(
                "--budget",
                type=int,
                default=None,
                help="node budget of the request, shared by all its searches and enumerations",
            )
        if name == "pushout":
            sp.add_argument(
                "--category", default=None, help="pushout category: mon, int, or sat"
            )
        sp.add_argument("--out", default=None, help="write the report to a file")
        det = sp.add_mutually_exclusive_group()
        det.add_argument("--deterministic", dest="deterministic", action="store_true", default=True)
        det.add_argument("--no-deterministic", dest="deterministic", action="store_false")
        return sp

    for name, h in (
        ("saturate", "saturation of a monoid document"),
        ("classify", "full morphism taxonomy of a hom document"),
        ("spec", "faces of a monoid with the inclusion order"),
        ("face", "smallest face containing given elements"),
        ("localize", "localization at a face"),
        ("quotient", "quotient by a face"),
        ("pushout", "pushout of two homs with a shared source"),
        ("blowup", "affine blowup at an ideal element"),
        ("vcp", "valuative choice of a blowup element"),
        ("tsuji", "base change by multiplication with saturation evidence"),
        ("rft", "reduced-fibre pipeline over a valuative base"),
        ("gr", "finite presentation over a divisible valuative base"),
        ("kummer-classify", "finite-generation trichotomy for lattice extensions"),
        ("pi1", "finite stage of the monoid fundamental group"),
        ("covers", "enumerate Kummer etale covers of bounded index"),
        ("vidal", "double-pushout decomposition for torsion cokernels"),
        ("semistable", "semistable extension P -> P_n(pi)"),
        ("run", "run a raw request or batch document"),
    ):
        add(name, h)
    return ap


def _default_budget(request, budget):
    """Give a request document, or each item of a batch, ``budget`` unless it
    has a budget of its own."""
    if not isinstance(request, dict):
        return
    items = request.get("requests") if request.get("kind") == "batch" else [request]
    for item in items if isinstance(items, list) else ():
        if isinstance(item, dict):
            item.setdefault("budget", budget)


def main(argv=None):
    ns = build_parser().parse_args(argv)
    doc = _read_doc(ns.input)
    budget = os.environ.get("SATMON_BUDGET")
    if ns.command == "run":
        request = doc
    else:
        request = {
            "format": FORMAT,
            "kind": "request",
            "op": ns.command,
            "args": doc,
        }
        sg = _sigma_doc(ns)
        if sg is not None:
            request["sigma"] = sg
        if getattr(ns, "category", None) is not None:
            request["args"]["category"] = ns.category
        if ns.budget is not None:
            budget = str(ns.budget)
    if budget is not None:
        _default_budget(request, budget)
    if ns.command == "run" and isinstance(request, dict) and request.get("kind") == "batch":
        report, code = run_batch(request, jobs=ns.jobs, deterministic=ns.deterministic)
    else:
        report, code = run_request(request, deterministic=ns.deterministic)
    _emit(report, ns.out)
    return code


if __name__ == "__main__":
    sys.exit(main())
