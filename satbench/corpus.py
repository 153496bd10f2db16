"""Seeded request corpora for the four workloads.

Everything here is benchmark-side: documents are built as plain JSON
(decimal-string integers, ``"format": "satmon/1"``) without importing
satmon, so the program under test receives only the generated documents.
Each corpus is a list of ``Item``s laid out in blocks; every block holds
the workload's fixed size mix once, in one fixed order, so any prefix of
whole blocks has the stated mix.
"""

import json
import random
from dataclasses import dataclass, field

from checks import rank

FORMAT = "satmon/1"

# classify: one explicit budget on every request.  satmon charges it per
# call (each completion run and each branch-and-bound search gets the whole
# budget), not per request.
CLASSIFY_BUDGET = 2000


@dataclass
class Item:
    """One request: its document text, size class, and data for the check."""

    op: str
    size_class: str
    text: str
    expect: dict = field(default_factory=dict)


# -- document builders ----------------------------------------------------------


def _ivec(v):
    return [str(int(x)) for x in v]


def monoid_doc(gens):
    """A monoid in Z^r (no torsion) generated by gens."""
    return {
        "format": FORMAT,
        "kind": "monoid",
        "ambient": {"rank": str(len(gens[0])), "torsion": []},
        "gens": [_ivec(g) for g in gens],
    }


def hom_doc(src, tgt, images):
    return {"format": FORMAT, "kind": "hom", "source": src, "target": tgt,
            "gen_images": [_ivec(v) for v in images]}


def request_doc(op, args, sigma=None, budget=None):
    r = {"format": FORMAT, "kind": "request", "op": op, "args": args}
    if sigma is not None:
        r["sigma"] = {"primes": [str(p) for p in sigma]}
    if budget is not None:
        r["budget"] = str(budget)
    return r


def lex_lattice_doc(rank):
    return {
        "format": FORMAT, "kind": "lattice", "rank": str(rank), "d": "0",
        "divisible": False,
        "levels": [{"rational": ["1" if j == i else "0" for j in range(rank)],
                    "irrational": ["0"] * rank} for i in range(rank)],
    }


def divisible_lattice_doc(rank):
    doc = lex_lattice_doc(rank)
    doc["divisible"] = True
    return doc


def quadratic_line_doc(d):
    """Z^2 ordered by (a, b) -> a + b*sqrt(d)."""
    return {"format": FORMAT, "kind": "lattice", "rank": "2", "d": str(d),
            "divisible": False,
            "levels": [{"rational": ["1", "0"], "irrational": ["0", "1"]}]}


def typev_doc(base, chart, anchor):
    return {"format": FORMAT, "kind": "typev", "base": base, "chart": chart,
            "anchor": [[str(x) for x in v] for v in anchor]}


def ideal_doc(owner, gens):
    return {"format": FORMAT, "kind": "ideal", "owner": owner,
            "generators": [_ivec(g) for g in gens]}


# -- saturated monoids with known structure -------------------------------------


def free_gens(r):
    return [tuple(1 if i == j else 0 for j in range(r)) for i in range(r)]


def _polygon_points(verts):
    """All lattice points of the convex lattice polygon with these vertices."""
    xs = [v[0] for v in verts]
    ys = [v[1] for v in verts]
    n = len(verts)
    pts = []
    for x in range(min(xs), max(xs) + 1):
        for y in range(min(ys), max(ys) + 1):
            signs = set()
            for i in range(n):
                (ax, ay), (bx, by) = verts[i], verts[(i + 1) % n]
                c = (bx - ax) * (y - ay) - (by - ay) * (x - ax)
                if c:
                    signs.add(c > 0)
            if len(signs) <= 1:
                pts.append((x, y))
    return pts


# Lattice polygons are normal, so the cone over one, generated by all of its
# lattice points at height one, is a saturated monoid spanning Z^3.
_POLYGONS = (
    ((0, 0), (1, 0), (1, 1), (0, 1)),
    ((0, 0), (2, 0), (0, 2)),
    ((0, 0), (2, 0), (0, 1)),
    ((1, 0), (0, 1), (-1, -1)),
    ((0, 0), (2, 0), (1, 1)),
)


def family_gens(family):
    """Generators of a saturated, pointed monoid spanning Z^r, by family name.

    ``free<r>`` is N^r; ``seg<k>`` is the cone over the segment [0, k]
    (rank 2); ``poly<i>`` is the cone over the i-th polygon (rank 3).
    Every generator has nonnegative coordinates.
    """
    if family.startswith("free"):
        return free_gens(int(family[4:]))
    if family.startswith("seg"):
        return [(1, i) for i in range(int(family[3:]) + 1)]
    pts = _polygon_points(_POLYGONS[int(family[4:])])
    mx = min(p[0] for p in pts)
    my = min(p[1] for p in pts)
    return [(1, x - mx, y - my) for x, y in pts]


def _shear(rng, gens):
    """Apply a random unimodular shear fixing the first coordinate."""
    r = len(gens[0])
    if r == 1:
        return gens
    out = []
    coef = [rng.randint(-1, 1) for _ in range(r)]
    for g in gens:
        v = list(g)
        for i in range(1, r):
            v[i] += coef[i] * v[0]
        out.append(tuple(v))
    return out


# -- covers ------------------------------------------------------------------------

# One block: (family, index n) pairs.  The cost of a covers request is set by
# the family and n (the number of covers is the number of index-n
# overlattices of Z^r, and each needs a saturation and an exactness check);
# the seed only shears the monoid and picks sigma, so every seed sees the
# same cost mix.  Rank 3 goes to n = 4 for N^3 only and to n = 3 for the
# unit square: the cone over the triangle with vertices (0,0), (2,0), (0,2)
# (poly1) takes about 1 s at n = 2 and 5 s at n = 3.
COVERS_BLOCK = (
    [("free1", n) for n in (2, 3, 4, 6)]
    + [(f, n) for f in ("free2", "seg1", "seg2") for n in (2, 3, 4, 6)]
    + [("seg3", n) for n in (2, 3, 4)]
    + [("free3", n) for n in (2, 3, 4)]
    + [("poly0", 2), ("poly0", 3), ("poly1", 2), ("poly2", 2), ("poly3", 2), ("poly4", 2)]
)

_COPRIME_PRIMES = {2: (3, 5, 7), 3: (2, 5, 7), 4: (3, 5, 7), 6: (5, 7, 11)}


def _sigma_for(rng, n):
    pool = _COPRIME_PRIMES[n]
    return sorted(rng.sample(pool, rng.randint(1, len(pool))))


def covers_item(rng, family, n):
    gens = _shear(rng, family_gens(family))
    r = len(gens[0])
    req = request_doc("covers", {"monoid": monoid_doc(gens), "n": str(n)},
                      sigma=_sigma_for(rng, n))
    return Item("covers", f"r{r}-n{n}-{family}", json.dumps(req),
                {"rank": r, "n": n, "gens": gens})


# -- saturate ----------------------------------------------------------------------

# Dimension classes with their per-block counts.  Ambient torsion is left
# out: see NOTES.md ("saturate with torsion").  The Hilbert scan visits the
# zonotope box of the cone's rays, so each class also fixes a band for the
# volume of the box spanned by all generators, prod_i (sum_g |g_i| + 1):
# the middle of what the generator draws, which keeps one seed's cones from
# being several times larger than another's.
SATURATE_MIX = ((2, 3), (3, 3), (4, 3), (5, 1))

_SAT_SPREAD = {2: 8, 3: 5, 4: 3, 5: 2}
_SAT_BOX = {2: (45, 84), 3: (500, 900), 4: (2700, 5800), 5: (11500, 24600)}


def _box_volume(gens):
    out = 1
    for i in range(len(gens[0])):
        out *= sum(abs(g[i]) for g in gens) + 1
    return out


def saturate_item(rng, d):
    """A pointed, full-dimensional cone in Z^d, often not saturated.

    Every generator has first coordinate 1 or 2, so that coordinate is a
    positive grading the output check can use.
    """
    spread = _SAT_SPREAD[d]
    while True:
        ngens = d + rng.randint(0, 2)
        gens = []
        while len(gens) < ngens:
            v = (rng.randint(1, 2),) + tuple(rng.randint(0, spread) for _ in range(d - 1))
            if v not in gens:
                gens.append(v)
        lo, hi = _SAT_BOX[d]
        if lo <= _box_volume(gens) <= hi and rank(gens) == d:
            break
    req = request_doc("saturate", {"monoid": monoid_doc(gens)})
    return Item("saturate", f"d{d}", json.dumps(req), {"dim": d, "gens": gens})


# -- classify ----------------------------------------------------------------------

# One block: (source family, target family) pairs with source and target
# rank <= 3.  Whether the completion budget fires depends mostly on the pair
# (a non-free target of rank >= 2 under a source of rank >= 2 needs a large
# relation monoid), so fixing the pairs keeps the refusal share near 1/5;
# the seed draws the generator images and sigma.
CLASSIFY_BLOCK = (
    ("free1", "free1"), ("free1", "seg2"), ("free1", "poly1"), ("free1", "poly4"),
    ("seg2", "free1"), ("poly0", "free1"),
    ("free2", "free2"), ("seg1", "seg1"), ("seg2", "free2"), ("seg2", "seg2"),
    ("seg3", "free2"), ("poly2", "free2"), ("free3", "seg1"),
    ("free2", "free3"), ("seg1", "free3"), ("free3", "free3"), ("free3", "poly0"),
    # refused under the budget in most samples tried
    ("seg1", "poly1"), ("seg1", "poly4"), ("free3", "poly2"), ("seg3", "poly3"),
)


def classify_item(rng, src_family, tgt_family):
    """A hom between saturated monoids of the two families.

    The image of each source basis vector is a 0/1 combination of target
    generators; source generators have nonnegative coordinates, so their
    images stay in the target monoid.
    """
    src = family_gens(src_family)
    tgt = family_gens(tgt_family)
    rs, rt = len(src[0]), len(tgt[0])
    coef = [[rng.choice((0, 0, 0, 1, 1)) for _ in tgt] for _ in range(rs)]
    basis_img = [[sum(c * g[j] for c, g in zip(row, tgt)) for j in range(rt)] for row in coef]
    images = [tuple(sum(g[i] * basis_img[i][j] for i in range(rs)) for j in range(rt))
              for g in src]
    sigma = sorted(rng.sample((2, 3, 5), rng.randint(0, 2)))
    req = request_doc("classify",
                      {"hom": hom_doc(monoid_doc(src), monoid_doc(tgt), images)},
                      sigma=sigma, budget=CLASSIFY_BUDGET)
    return Item("classify", f"{rs}->{rt}", json.dumps(req),
                {"src": src, "tgt": tgt, "images": images, "sigma": sigma,
                 "budget": CLASSIFY_BUDGET})


# -- corpus assembly -------------------------------------------------------------


def _blocks(block, nblocks):
    """nblocks copies of the block, in one fixed order for every seed.

    The order is a fixed shuffle, so heavy and light classes interleave and
    a run of any length sees the same cost sequence whatever the seed; the
    seed changes the documents, not their sizes.
    """
    order = list(block)
    random.Random("satbench:order").shuffle(order)
    return order * nblocks


def covers_corpus(seed, nblocks):
    rng = random.Random(f"satbench:covers:{seed}")
    return [covers_item(rng, *p) for p in _blocks(COVERS_BLOCK, nblocks)]


def saturate_corpus(seed, nblocks):
    rng = random.Random(f"satbench:saturate:{seed}")
    block = [d for d, count in SATURATE_MIX for _ in range(count)]
    return [saturate_item(rng, d) for d in _blocks(block, nblocks)]


def classify_corpus(seed, nblocks):
    rng = random.Random(f"satbench:classify:{seed}")
    return [classify_item(rng, *p) for p in _blocks(CLASSIFY_BLOCK, nblocks)]


# -- cli_batch -----------------------------------------------------------------------

# The four golden requests ride in every batch; their reports must match the
# golden report files byte for byte.
GOLDEN = ("saturate_numsg", "classify_half_s3", "covers_n2", "ogus_pushout")
RFT_BASES = ("lex", "divisible", "quadratic")


def _n(r):
    return monoid_doc(free_gens(r))


def batch_requests(rng, index):
    """One request for each op satmon lacks a golden for, with what to expect.

    The heaviest op, ``rft``, cycles through its base kinds and chart
    degrees by batch index, so every seed sees the same rft mix.
    """
    n1 = _n(1)
    out = []

    def add(op, args, expect, sigma=None):
        out.append((request_doc(op, args, sigma), dict(expect, op=op)))

    r = rng.randint(1, 3)
    add("spec", {"monoid": _n(r)}, {"faces": 2 ** r, "inclusions": 3 ** r - 2 ** r})
    r = rng.randint(2, 3)
    e = [0] * r
    while not any(e):
        e = [rng.randint(0, 1) for _ in range(r)]
    add("face", {"monoid": _n(r), "elements": [_ivec(e)]},
        {"face": [str(i) for i in range(r) if e[i]]})
    r, i = rng.randint(2, 3), rng.randrange(2)
    add("localize", {"monoid": _n(r), "face": [str(i)]}, {"ngens": r + 1})
    add("quotient", {"monoid": _n(r), "face": [str(i)]}, {"rank": r - 1})
    a = rng.choice(((1, 0), (0, 1)))
    add("blowup", {"ideal": ideal_doc(_n(2), [(1, 0), (0, 1)]), "a": _ivec(a)}, {"ngens": 2})
    # valuative choice: the generator with the smaller value is chosen
    d = rng.choice((0, 2, 3, 5))
    lat = lex_lattice_doc(2) if d == 0 else quadratic_line_doc(d)
    images = rng.choice(((("1", "0"), ("0", "1")), (("0", "1"), ("1", "0"))))
    value = (lambda v: (int(v[0]), int(v[1]))) if d == 0 else (
        lambda v: int(v[0]) + int(v[1]) * d ** 0.5)
    chosen = min(((1, 0), (0, 1)), key=lambda g: value(images[g.index(1)]))
    add("vcp", {"ideal": ideal_doc(_n(2), [(1, 0), (0, 1)]), "lattice": lat,
                "images": [list(v) for v in images]}, {"chosen": _ivec(chosen)})
    bound = rng.randint(2, 4)
    add("tsuji", {"hom": hom_doc(n1, n1, [(2,)]), "n": "2", "bound": str(bound)},
        {"evidence": bound})
    # reduced-fibre pipeline over a lex, a divisible or a quadratic base
    base = RFT_BASES[index % 3]
    k = 2 + (index // 3) % 2
    if base == "lex":
        tv = typev_doc(lex_lattice_doc(1), hom_doc(n1, n1, [(k,)]), [(1,)])
    elif base == "divisible":
        tv = typev_doc(divisible_lattice_doc(1), hom_doc(n1, n1, [(k,)]), [(1,)])
    else:
        tv = typev_doc(quadratic_line_doc(rng.choice((2, 3, 5))), hom_doc(n1, n1, [(k,)]),
                       [(1, 0)])
    add("rft", {"typev": tv}, {"n": k, "w_equals_base": base == "divisible"})
    add("gr", {"typev": typev_doc(divisible_lattice_doc(1), hom_doc(n1, n1, [(k,)]), [(1,)])},
        {})
    # trichotomy: extending lex Z^2 along its least positive element (0, 1)
    # is discrete; along (1, 0) it is not finitely generated
    m = rng.randint(2, 3)
    gamma = rng.choice(("lex", "lex", "quadratic", "divisible"))
    rows = rng.choice((((m, 0), (0, 1)), ((1, 0), (0, m))))
    kind = {"quadratic": "not-finitely-generated", "divisible": "equal"}.get(
        gamma, "discrete" if rows[0][0] == m else "not-finitely-generated")
    gdoc = {"lex": lex_lattice_doc(2), "quadratic": quadratic_line_doc(2),
            "divisible": divisible_lattice_doc(2)}[gamma]
    over = {"den": str(m), "rows": [_ivec(x) for x in rows]}
    add("kummer-classify", {"gamma": gdoc, "overlattice": over}, {"kind": kind})
    r, n = rng.randint(1, 3), rng.choice((2, 3, 4))
    add("pi1", {"monoid": _n(r), "n": str(n)}, {"torsion": [str(n)] * r},
        sigma=[p for p in (2, 3, 5) if n % p])
    add("vidal", {"hom": hom_doc(n1, n1, [(rng.randint(2, 3),)])}, {})
    add("semistable", {"monoid": n1, "pi": ["1"], "n": str(rng.randint(2, 3))}, {})
    return out


def cli_batch_corpus(seed, nbatches, golden_dir):
    rng = random.Random(f"satbench:cli_batch:{seed}")
    golden = []
    for name in GOLDEN:
        with open(f"{golden_dir}/{name}.request.json", encoding="utf-8") as fh:
            req = json.load(fh)
        with open(f"{golden_dir}/{name}.report.json", encoding="utf-8") as fh:
            golden.append((req, {"op": req["op"], "golden": fh.read()}))
    items = []
    for index in range(nbatches):
        pairs = golden + batch_requests(rng, index)
        rng.shuffle(pairs)
        doc = {"format": FORMAT, "kind": "batch", "requests": [p[0] for p in pairs]}
        items.append(Item("cli_batch", f"rft-{RFT_BASES[index % 3]}", json.dumps(doc, indent=2),
                          {"requests": [p[1] for p in pairs]}))
    return items
