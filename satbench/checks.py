"""Output checks that share no code with satmon.

Each check takes a corpus ``Item`` and the parsed report and returns None
when the report is right, or a one-line reason.  The arithmetic (minors,
facet normals, bounded decompositions, overlattice counts) is written here
from scratch so that a fault in satmon's LP, normal-form or Hilbert layers
cannot also hide in its own check.
"""

import json
from fractions import Fraction
from itertools import combinations
from math import gcd

# -- small exact linear algebra -------------------------------------------------


def det(m):
    m = [[Fraction(x) for x in row] for row in m]
    n = len(m)
    d = Fraction(1)
    for c in range(n):
        p = next((r for r in range(c, n) if m[r][c] != 0), None)
        if p is None:
            return 0
        if p != c:
            m[c], m[p] = m[p], m[c]
            d = -d
        d *= m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            if f:
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return int(d)


def rank(vecs):
    m = [[Fraction(x) for x in v] for v in vecs]
    rk = 0
    ncols = len(m[0]) if m else 0
    for c in range(ncols):
        p = next((r for r in range(rk, len(m)) if m[r][c] != 0), None)
        if p is None:
            continue
        m[rk], m[p] = m[p], m[rk]
        for r in range(len(m)):
            if r != rk and m[r][c] != 0:
                f = m[r][c] / m[rk][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[rk])]
        rk += 1
    return rk


def _gcd_all(xs):
    g = 0
    for x in xs:
        g = gcd(g, abs(x))
    return g


def cokernel_torsion(cols, dim):
    """Nontrivial invariant factors of Z^dim / span(cols), via gcds of minors."""
    k = rank(cols) if cols else 0
    divisors = [1]
    for size in range(1, k + 1):
        minors = []
        for rs in combinations(range(dim), size):
            for cs in combinations(range(len(cols)), size):
                minors.append(det([[cols[c][r] for c in cs] for r in rs]))
        divisors.append(_gcd_all(minors))
    inv = [divisors[i] // divisors[i - 1] for i in range(1, k + 1)]
    return [d for d in inv if d != 1]


def facet_normals(gens):
    """Primitive inner normals of the facets of a full-dimensional cone."""
    d = len(gens[0])
    if d == 1:
        return [(1,)] if all(g[0] >= 0 for g in gens) else [(-1,)]
    out = set()
    for sub in combinations(gens, d - 1):
        if rank(sub) != d - 1:
            continue
        normal = []
        for i in range(d):
            minor = [[v[j] for j in range(d) if j != i] for v in sub]
            normal.append((-1) ** i * det(minor))
        g = _gcd_all(normal)
        normal = tuple(x // g for x in normal)
        dots = [sum(a * b for a, b in zip(normal, v)) for v in gens]
        if all(x >= 0 for x in dots):
            out.add(normal)
        elif all(x <= 0 for x in dots):
            out.add(tuple(-x for x in normal))
    return sorted(out)


def dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def in_cone(normals, v):
    return all(dot(n, v) >= 0 for n in normals)


def decomposes(target, parts, grade):
    """Is target a nonnegative integer combination of parts?

    ``grade`` must be positive on every part, which bounds the search.
    """
    parts = sorted(set(parts), key=grade, reverse=True)

    def go(rest, start):
        if not any(rest):
            return True
        if grade(rest) <= 0:
            return False
        for i in range(start, len(parts)):
            p = parts[i]
            if grade(p) <= grade(rest) and go(tuple(a - b for a, b in zip(rest, p)), i):
                return True
        return False

    return go(tuple(target), 0)


def overlattice_count(r, n):
    """Number of index-n sublattices (equivalently overlattices) of Z^r.

    Multiplicative in n, with prod_{i=1}^{r-1} (p^(k+i)-1)/(p^i-1) at p^k.
    """
    total = 1
    m = n
    p = 2
    while m > 1:
        k = 0
        while m % p == 0:
            m //= p
            k += 1
        if k:
            f = Fraction(1)
            for i in range(1, r):
                f *= Fraction(p ** (k + i) - 1, p ** i - 1)
            total *= int(f)
        p += 1
    return total


def _ints(v):
    return tuple(int(x) for x in v)


# -- per-op checks -------------------------------------------------------------------


def check_covers(item, rep):
    res = rep["result"]
    r, n = item.expect["rank"], item.expect["n"]
    if rep["status"] != "ok":
        return f"status {rep['status']}"
    want = overlattice_count(r, n)
    if int(res["count"]) != want or len(res["covers"]) != want:
        return f"count {res['count']} != {want}"
    seen = set()
    for c in res["covers"]:
        ov = c["overlattice"]
        den, rows = int(ov["den"]), [_ints(row) for row in ov["rows"]]
        key = (den, tuple(rows))
        if key in seen:
            return "duplicate overlattice"
        seen.add(key)
        if den ** r != n * abs(det(rows)):
            return "overlattice index != n"
        order = 1
        for t in c["deck"]["torsion"]:
            order *= int(t)
        if c["deck"]["rank"] != "0" or order != n:
            return "deck group order != n"
        if int(c["cover"]["ambient"]["rank"]) != r:
            return "cover rank"
        images = [_ints(v) for v in c["structure_gen_images"]]
        if len(images) != len(item.expect["gens"]):
            return "structure map arity"
        # the structure map is the base lattice inside M: g = image . rows / den
        for g, im in zip(item.expect["gens"], images):
            back = [sum(im[i] * rows[i][j] for i in range(r)) for j in range(r)]
            if back != [den * x for x in g]:
                return "structure map does not embed the base"
    return None


def check_saturate(item, rep):
    if rep["status"] != "ok":
        return f"status {rep['status']}"
    gens = item.expect["gens"]
    sat = [_ints(g) for g in rep["result"]["saturation"]["gens"]]
    if not sat:
        return "empty saturation"
    normals = facet_normals(gens)
    for h in sat:
        if not in_cone(normals, h) or h[0] <= 0:
            return f"saturation generator {h} outside the cone"
    grade = lambda v: v[0]  # noqa: E731 - first coordinate grades the cone
    for g in gens:
        if not decomposes(g, sat, grade):
            return f"input generator {g} is not a combination of the saturation"
    if rep["result"]["already_saturated"]:
        for h in sat:
            if not decomposes(h, gens, grade):
                return f"claims saturated, but {h} is not a combination of the input"
    return None


def check_classify(item, rep):
    res = rep["result"]
    if rep["status"] == "error":
        if res.get("error") != "resource-limit" or res.get("limit") != item.expect["budget"]:
            return f"unexpected error {res.get('error')}: {res.get('message')}"
        return None
    src, tgt, images = item.expect["src"], item.expect["tgt"], item.expect["images"]
    rs, rt = len(src[0]), len(tgt[0])
    v = {k: (x["holds"] if x else None) for k, x in res["verdicts"].items()}
    img_rank = rank(images)
    prof = res["profile"]
    if int(prof["kernel"]["rank"]) != rs - img_rank or prof["kernel"]["torsion"]:
        return "kernel"
    tors = cokernel_torsion([list(i) for i in images], rt)
    if int(prof["cokernel"]["rank"]) != rt - img_rank or [int(t) for t in prof["cokernel"]["torsion"]] != tors:
        return "cokernel"
    if v["injective"] != (img_rank == rs):
        return "injective"
    order = 1
    for t in tors:
        order *= t
    coprime = all(order % p for p in item.expect["sigma"])
    if v["smooth"] != (img_rank == rs and coprime):
        return "smooth"
    if v["etale"] != (v["smooth"] and img_rank == rt):
        return "etale"
    if v["kummer_etale"] != (v["etale"] and v["injective"] and v["exact"]):
        return "kummer_etale"
    qn = facet_normals(tgt)
    whole = all(any(dot(u, im) > 0 for im in images) for u in qn)
    if v["vertical"] != whole:
        return "vertical"
    cert = res["verdicts"]["exact"]["certificate"]
    if not v["exact"]:
        e = _ints(cert["preimage_element_outside_source"])
        if in_cone(facet_normals(src), e):
            return "exactness witness lies in the source cone"
        m = _map_rows(src, images)
        fe = [sum(e[i] * m[i][j] for i in range(rs)) for j in range(rt)]
        if not in_cone(qn, fe):
            return "exactness witness does not map into the target"
    icert = res["verdicts"]["integral"]["certificate"]
    if not v["integral"] and "tuple_a1" in icert:
        a1, a2, b1, b2 = (_ints(icert[k]) for k in ("tuple_a1", "tuple_a2", "tuple_b1", "tuple_b2"))
        lhs = [sum(a * im[j] for a, im in zip(a1, images)) + sum(b * g[j] for b, g in zip(b1, tgt))
               for j in range(rt)]
        rhs = [sum(a * im[j] for a, im in zip(a2, images)) + sum(b * g[j] for b, g in zip(b2, tgt))
               for j in range(rt)]
        if lhs != rhs:
            return "integrality tuple is not a relation"
    return None


def _map_rows(src, images):
    """Rows M with f(e) = sum_i e_i M[i], for the map sending src[k] to images[k].

    The source generators span Z^rs, so rs independent ones fix M = A^-1 B.
    """
    rs = len(src[0])
    pick = next(sub for sub in combinations(range(len(src)), rs)
                if rank([src[i] for i in sub]) == rs)
    inv = _inverse([[Fraction(x) for x in src[i]] for i in pick])
    return [[sum(inv[i][k] * images[pick[k]][j] for k in range(rs))
             for j in range(len(images[0]))] for i in range(rs)]


def _inverse(a):
    n = len(a)
    m = [row[:] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(a)]
    for c in range(n):
        p = next(r for r in range(c, n) if m[r][c] != 0)
        m[c], m[p] = m[p], m[c]
        piv = m[c][c]
        m[c] = [x / piv for x in m[c]]
        for r in range(n):
            if r != c and m[r][c] != 0:
                f = m[r][c]
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return [row[n:] for row in m]


CHECKS = {"covers": check_covers, "saturate": check_saturate, "classify": check_classify}


def check(item, rep):
    try:
        return CHECKS[item.op](item, rep)
    except (KeyError, TypeError, ValueError, IndexError, StopIteration) as e:
        return f"malformed report: {type(e).__name__}: {e}"


def _check_batch_entry(exp, rep):
    if "golden" in exp:
        text = json.dumps(rep, indent=2, ensure_ascii=True) + "\n"
        return None if text == exp["golden"] else f"{exp['op']}: differs from its golden report"
    op, res = exp["op"], rep["result"]
    if rep["op"] != op or rep["status"] != "ok":
        return f"{op}: status {rep['status']} {res.get('message', '')}"
    if op == "spec":
        ok = len(res["faces"]) == exp["faces"] and len(res["inclusions"]) == exp["inclusions"]
    elif op == "face":
        ok = res["face_gen_indices"] == exp["face"]
    elif op == "localize":
        ok = len(res["localization"]["gens"]) == exp["ngens"]
    elif op == "quotient":
        ok = int(res["quotient"]["ambient"]["rank"]) == exp["rank"]
    elif op == "blowup":
        ok = len(res["blowup"]["gens"]) == exp["ngens"]
    elif op == "vcp":
        ok = res["chosen"] == exp["chosen"] and res["factors_through_base"]
    elif op == "tsuji":
        ok = res["passes"] and len(res["evidence"]) == exp["evidence"]
    elif op == "rft":
        ok = (int(res["n"]) == exp["n"] and res["w_equals_base"] == exp["w_equals_base"]
              and res["final_integral"] and res["final_sat_generating"])
    elif op == "gr":
        ok = res["sat_generating"] and res["relations_complete"]
    elif op == "kummer-classify":
        ok = res["kind"] == exp["kind"]
    elif op == "pi1":
        ok = res["group"]["rank"] == "0" and res["group"]["torsion"] == exp["torsion"]
    elif op == "vidal":
        ok = res["verified"]
    elif op == "semistable":
        ok = res["smooth"] and res["vertical"] and res["target_saturated"]
    else:
        return f"{op}: no check"
    return None if ok else f"{op}: wrong result"


def check_batch(item, batch_report):
    """Check every report of one batch; returns the failures as a list."""
    reports = batch_report["reports"]
    exps = item.expect["requests"]
    if len(reports) != len(exps):
        return ["batch: report count"]
    out = []
    for exp, rep in zip(exps, reports):
        try:
            why = _check_batch_entry(exp, rep)
        except (KeyError, TypeError, ValueError) as e:
            why = f"{exp['op']}: malformed report: {type(e).__name__}: {e}"
        if why:
            out.append(why)
    return out
