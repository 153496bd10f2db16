"""JSON document format: parsing with precise paths, exact serialization.

All integers travel as decimal strings, an optional "-" then ASCII digits
(arbitrary precision survives every JSON consumer); rationals as "p" or
"p/q" in the same grammar.  Unknown fields are rejected.
The top-level "format" version is checked on every document.
"""

import re
from fractions import Fraction

from .errors import ResourceLimitError, SchemaError
from .homs import MonoidHom
from .monoid import AffineMonoid, FpMonoid
from .valuative import MonoidIdeal, OrderedLattice, TypeVPresentation
from .zlat import FgAbelianGroup, Overlattice

FORMAT = "satmon/1"


def _obj(v, path, required, optional=()):
    if not isinstance(v, dict):
        raise SchemaError(path, "expected an object")
    for k in v:
        if k not in required and k not in optional:
            raise SchemaError(f"{path}.{k}", "unknown field")
    for k in required:
        if k not in v:
            raise SchemaError(f"{path}.{k}", "missing field")
    return v


def _list(v, path):
    if not isinstance(v, list):
        raise SchemaError(path, "expected an array")
    return v


# the one grammar of a decimal string: an optional "-", then ASCII digits
_DECIMAL = re.compile("-?[0-9]+")


def _int(v, path):
    if isinstance(v, str) and _DECIMAL.fullmatch(v):
        return int(v)
    raise SchemaError(path, "expected a decimal-string integer")


def _frac(v, path):
    """A rational "p" or "p/q": p and q decimal strings, q nonzero."""
    parts = v.split("/") if isinstance(v, str) else []
    if len(parts) in (1, 2) and all(map(_DECIMAL.fullmatch, parts)):
        q = int(parts[1]) if len(parts) == 2 else 1
        if q:
            return Fraction(int(parts[0]), q)
    raise SchemaError(path, 'expected a rational as "p" or "p/q"')


def _bool(v, path):
    if not isinstance(v, bool):
        raise SchemaError(path, "expected a boolean")
    return v


def _ivec(v, path):
    return tuple(_int(x, f"{path}[{i}]") for i, x in enumerate(_list(v, path)))


def _elem(v, path, group):
    """An element of ``group``: exactly group.dim integers, as given."""
    e = _ivec(v, path)
    if len(e) != group.dim:
        raise SchemaError(path, f"expected {group.dim} coordinates")
    return e


def _fvec(v, path):
    return tuple(_frac(x, f"{path}[{i}]") for i, x in enumerate(_list(v, path)))


def check_format(doc, path="$"):
    _obj_like = isinstance(doc, dict)
    if not _obj_like or "format" not in doc:
        raise SchemaError(path + ".format", "missing format field")
    if doc["format"] != FORMAT:
        raise SchemaError(path + ".format", f"unsupported format {doc['format']!r}")
    if "kind" not in doc:
        raise SchemaError(path + ".kind", "missing kind field")


# -- integers / fractions out ------------------------------------------------


def istr(n):
    return str(int(n))


def fstr(x):
    f = Fraction(x)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


def ivec_out(v):
    return [istr(x) for x in v]


def fvec_out(v):
    return [fstr(x) for x in v]


# -- monoid -------------------------------------------------------------------


def parse_group(v, path):
    o = _obj(v, path, ("rank", "torsion"))
    rank = _int(o["rank"], f"{path}.rank")
    torsion = tuple(_int(x, f"{path}.torsion[{i}]") for i, x in enumerate(_list(o["torsion"], f"{path}.torsion")))
    try:
        return FgAbelianGroup(rank, torsion)
    except ValueError as e:
        raise SchemaError(path, str(e))


def group_out(g: FgAbelianGroup):
    return {"rank": istr(g.rank), "torsion": [istr(d) for d in g.torsion]}


def parse_monoid(doc, path="$"):
    o = _obj(doc, path, ("format", "kind", "ambient", "gens"))
    if o["kind"] != "monoid":
        raise SchemaError(f"{path}.kind", "expected kind 'monoid'")
    amb = parse_group(o["ambient"], f"{path}.ambient")
    gens = [
        _elem(g, f"{path}.gens[{i}]", amb) for i, g in enumerate(_list(o["gens"], f"{path}.gens"))
    ]
    try:
        return AffineMonoid(amb, gens)
    except ValueError as e:
        raise SchemaError(f"{path}.gens", str(e))


def monoid_out(m: AffineMonoid):
    return {
        "format": FORMAT,
        "kind": "monoid",
        "ambient": group_out(m.ambient),
        "gens": [ivec_out(g) for g in m.gens],
    }


def parse_fp_monoid(doc, path="$"):
    o = _obj(doc, path, ("format", "kind", "ngens", "relations"))
    if o["kind"] != "fp-monoid":
        raise SchemaError(f"{path}.kind", "expected kind 'fp-monoid'")
    n = _int(o["ngens"], f"{path}.ngens")
    rels = []
    for i, pair in enumerate(_list(o["relations"], f"{path}.relations")):
        pr = _list(pair, f"{path}.relations[{i}]")
        if len(pr) != 2:
            raise SchemaError(f"{path}.relations[{i}]", "expected a pair [u, v]")
        rels.append(
            (
                _ivec(pr[0], f"{path}.relations[{i}][0]"),
                _ivec(pr[1], f"{path}.relations[{i}][1]"),
            )
        )
    try:
        return FpMonoid(n, tuple(rels))
    except ValueError as e:
        raise SchemaError(f"{path}.relations", str(e))


def fp_monoid_out(p: FpMonoid):
    return {
        "format": FORMAT,
        "kind": "fp-monoid",
        "ngens": istr(p.ngens),
        "relations": [[ivec_out(u), ivec_out(v)] for u, v in p.relations],
    }


def parse_hom(doc, path="$"):
    o = _obj(doc, path, ("format", "kind", "source", "target", "gen_images"))
    if o["kind"] != "hom":
        raise SchemaError(f"{path}.kind", "expected kind 'hom'")
    src = parse_monoid(o["source"], f"{path}.source")
    tgt = parse_monoid(o["target"], f"{path}.target")
    images = [
        _elem(g, f"{path}.gen_images[{i}]", tgt.ambient)
        for i, g in enumerate(_list(o["gen_images"], f"{path}.gen_images"))
    ]
    if len(images) != src.ngens:
        raise SchemaError(f"{path}.gen_images", "need one image per source generator")
    try:
        return MonoidHom(src, tgt, images)
    except ResourceLimitError:
        raise
    except Exception as e:
        raise SchemaError(f"{path}.gen_images", str(e))


def hom_out(f: MonoidHom):
    return {
        "format": FORMAT,
        "kind": "hom",
        "source": monoid_out(f.source),
        "target": monoid_out(f.target),
        "gen_images": [ivec_out(g) for g in f.gen_images],
    }


def parse_lattice(doc, path="$"):
    o = _obj(doc, path, ("format", "kind", "rank", "d", "divisible", "levels"))
    if o["kind"] != "lattice":
        raise SchemaError(f"{path}.kind", "expected kind 'lattice'")
    rank = _int(o["rank"], f"{path}.rank")
    d = _int(o["d"], f"{path}.d")
    div = _bool(o["divisible"], f"{path}.divisible")
    levels = []
    for i, lv in enumerate(_list(o["levels"], f"{path}.levels")):
        lo = _obj(lv, f"{path}.levels[{i}]", ("rational", "irrational"))
        a = _fvec(lo["rational"], f"{path}.levels[{i}].rational")
        b = _fvec(lo["irrational"], f"{path}.levels[{i}].irrational")
        if len(a) != rank or len(b) != rank:
            raise SchemaError(f"{path}.levels[{i}]", f"forms must have {rank} coefficients")
        levels.append((a, b))
    try:
        return OrderedLattice(rank, levels, d=d, divisible=div)
    except ValueError as e:
        raise SchemaError(path, str(e))


def lattice_out(lat: OrderedLattice):
    return {
        "format": FORMAT,
        "kind": "lattice",
        "rank": istr(lat.rank),
        "d": istr(lat.d),
        "divisible": lat.divisible,
        "levels": [
            {"rational": fvec_out(f.rational), "irrational": fvec_out(f.irrational)}
            for f in lat.levels
        ],
    }


def parse_typev(doc, path="$"):
    o = _obj(doc, path, ("format", "kind", "base", "chart", "anchor"))
    if o["kind"] != "typev":
        raise SchemaError(f"{path}.kind", "expected kind 'typev'")
    base = parse_lattice(o["base"], f"{path}.base")
    chart = parse_hom(o["chart"], f"{path}.chart")
    anchor = [
        _fvec(v, f"{path}.anchor[{i}]")
        for i, v in enumerate(_list(o["anchor"], f"{path}.anchor"))
    ]
    try:
        return TypeVPresentation(base, chart, anchor)
    except ValueError as e:
        raise SchemaError(f"{path}.anchor", str(e))


def typev_out(tv: TypeVPresentation):
    return {
        "format": FORMAT,
        "kind": "typev",
        "base": lattice_out(tv.base),
        "chart": hom_out(tv.chart),
        "anchor": [fvec_out(v) for v in tv.anchor.images],
    }


def parse_ideal(doc, path="$"):
    o = _obj(doc, path, ("format", "kind", "owner", "generators"))
    if o["kind"] != "ideal":
        raise SchemaError(f"{path}.kind", "expected kind 'ideal'")
    owner = parse_monoid(o["owner"], f"{path}.owner")
    gens = [
        _elem(g, f"{path}.generators[{i}]", owner.ambient)
        for i, g in enumerate(_list(o["generators"], f"{path}.generators"))
    ]
    try:
        return MonoidIdeal(owner, tuple(owner.ambient.reduce(g) for g in gens))
    except ResourceLimitError:
        raise
    except Exception as e:
        raise SchemaError(f"{path}.generators", str(e))


def ideal_out(ideal: MonoidIdeal):
    return {
        "format": FORMAT,
        "kind": "ideal",
        "owner": monoid_out(ideal.owner),
        "generators": [ivec_out(g) for g in ideal.generators],
    }


def parse_overlattice(v, path):
    o = _obj(v, path, ("den", "rows"))
    den = _int(o["den"], f"{path}.den")
    raw = _list(o["rows"], f"{path}.rows")
    square = FgAbelianGroup(len(raw))  # each row is a vector of Z^n, n rows
    rows = tuple(_elem(r, f"{path}.rows[{i}]", square) for i, r in enumerate(raw))
    if den < 1:
        raise SchemaError(f"{path}.den", "denominator must be >= 1")
    return Overlattice(den, rows)


def overlattice_out(o: Overlattice):
    return {"den": istr(o.den), "rows": [ivec_out(r) for r in o.rows]}
