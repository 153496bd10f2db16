"""Exact integer and rational linear algebra.

Normal forms (Smith, Hermite), finitely generated abelian groups in
invariant form, lattice-point engines (Hilbert bases via the zonotope bound,
minimal nonnegative solutions via Contejean-Devie completion, nonnegative
Diophantine feasibility via branch-and-bound over a Hermite parametrization
with exact LP pruning), and finite-index overlattice enumeration.

All vectors are tuples of Python ints; all matrices lists of rows.  Values
are immutable after construction and every operation is a pure function, so
everything here is safe to share across threads.
"""

import math
import os
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from . import kernels
from ._lp import INFEASIBLE, LinearSystem
from .errors import CoprimalityError, ResourceLimitError

DEFAULT_NODE_BUDGET = int(os.environ.get("SATMON_BUDGET", "1000000"))
MAX_CONE_DIM = 8
MAX_SCAN_POINTS = 4_000_000


# ---------------------------------------------------------------------------
# small vector helpers


def vadd(u, v):
    return tuple(a + b for a, b in zip(u, v))


def vsub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def vneg(u):
    return tuple(-a for a in u)


def vscale(k, u):
    return tuple(k * a for a in u)


def vdot(u, v):
    return sum(a * b for a, b in zip(u, v))


def vgcd(u):
    g = 0
    for a in u:
        g = math.gcd(g, a)
    return g


def primitive(u):
    """Divide by the gcd; orient so the first nonzero entry is positive."""
    g = vgcd(u)
    if g == 0:
        return tuple(u)
    v = tuple(a // g for a in u)
    for a in v:
        if a > 0:
            return v
        if a < 0:
            return vneg(v)
    return v


# ---------------------------------------------------------------------------
# matrices and Smith normal form


class IntMatrix:
    """Dense integer matrix; entries stored row-major, arbitrary precision."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows, cols, entries):
        entries = [int(e) for e in entries]
        if len(entries) != rows * cols:
            raise ValueError("entries length must equal rows*cols")
        self.rows = rows
        self.cols = cols
        self.entries = entries

    @classmethod
    def from_rows(cls, data):
        rows = len(data)
        cols = len(data[0]) if rows else 0
        flat = []
        for r in data:
            if len(r) != cols:
                raise ValueError("ragged rows")
            flat.extend(r)
        return cls(rows, cols, flat)

    def to_rows(self):
        c = self.cols
        return [self.entries[i * c:(i + 1) * c] for i in range(self.rows)]

    def row(self, i):
        return tuple(self.entries[i * self.cols:(i + 1) * self.cols])

    def col(self, j):
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    def transpose(self):
        return IntMatrix.from_rows([list(self.col(j)) for j in range(self.cols)])

    def __mul__(self, other):
        return IntMatrix.from_rows(kernels.mat_mul(self.to_rows(), other.to_rows()))

    def __eq__(self, other):
        return (
            isinstance(other, IntMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __repr__(self):
        return f"IntMatrix({self.to_rows()})"


def _as_rows(a):
    return a.to_rows() if isinstance(a, IntMatrix) else [list(r) for r in a]


@dataclass(frozen=True)
class SnfDecomposition:
    U: IntMatrix
    D: IntMatrix
    V: IntMatrix

    def verify(self, a):
        lhs = self.U * (a if isinstance(a, IntMatrix) else IntMatrix.from_rows(a))
        return (lhs * self.V) == self.D

    def invariant_factors(self):
        d = []
        for i in range(min(self.D.rows, self.D.cols)):
            e = self.D.row(i)[i]
            if e != 0:
                d.append(e)
        return d


def snf(a):
    """Smith normal form U*A*V = D with unimodular U, V, deterministic."""
    rows = _as_rows(a)
    U, _, D, V, _ = kernels.snf_with_transforms(rows)
    return SnfDecomposition(
        IntMatrix.from_rows(U), IntMatrix.from_rows(D), IntMatrix.from_rows(V)
    )


def _smith_solve(rows, b=None):
    """(one integer solution of A x = b or None, kernel basis of A): one SNF."""
    r = len(rows)
    c = len(rows[0]) if r else 0
    U, _, D, V, _ = kernels.snf_with_transforms(rows)
    rank = sum(1 for i in range(min(r, c)) if D[i][i] != 0)
    kernel = [tuple(V[i][j] for i in range(c)) for j in range(rank, c)]
    if b is None:
        return None, kernel
    ub = kernels.mat_vec(U, list(b))
    y = [0] * c
    for i in range(r):
        if i < rank:
            d = D[i][i]
            if ub[i] % d != 0:
                return None, kernel
            y[i] = ub[i] // d
        elif ub[i] != 0:
            return None, kernel
    return tuple(kernels.mat_vec(V, y)), kernel


def kernel_basis(rows):
    """Basis of {x : A x = 0} as a list of integer vectors."""
    rows = _as_rows(rows)
    r = len(rows)
    c = len(rows[0]) if r else 0
    if c == 0:
        return []
    if r == 0:
        return [tuple(1 if i == j else 0 for i in range(c)) for j in range(c)]
    return _smith_solve(rows)[1]


def solve_integer(rows, b):
    """One integer solution of A x = b, or None."""
    return _smith_solve(_as_rows(rows), b)[0]


class Lattice:
    """Sublattice of Z^dim given by generators; canonical row-HNF basis."""

    __slots__ = ("dim", "basis", "pivots")

    def __init__(self, gens, dim):
        self.dim = dim
        gens = [list(g) for g in gens]
        if not gens:
            self.basis = []
            self.pivots = []
            return
        H, _, pivots = kernels.hnf_rows(gens)
        self.basis = [tuple(H[i]) for i in range(len(pivots))]
        self.pivots = list(pivots)

    @property
    def rank(self):
        return len(self.basis)

    def coords(self, v):
        """Integer coordinates of v in the basis, or None if v is outside."""
        v = list(v)
        out = []
        for row, p in zip(self.basis, self.pivots):
            q, rem = divmod(v[p], row[p])
            if rem != 0:
                return None
            out.append(q)
            for i in range(self.dim):
                v[i] -= q * row[i]
        if any(v):
            return None
        return tuple(out)

    def contains(self, v):
        return self.coords(v) is not None

    def saturation(self):
        """Basis of (L tensor Q) intersected with Z^dim."""
        if not self.basis:
            return Lattice([], self.dim)
        _, _, D, _, Vinv = kernels.snf_with_transforms([list(b) for b in self.basis])
        rank = sum(
            1 for i in range(min(len(self.basis), self.dim)) if D[i][i] != 0
        )
        return Lattice([tuple(Vinv[i]) for i in range(rank)], self.dim)

    def __eq__(self, other):
        return (
            isinstance(other, Lattice)
            and self.dim == other.dim
            and self.basis == other.basis
        )

    def __repr__(self):
        return f"Lattice(dim={self.dim}, basis={self.basis})"


def preimage_lattice(rows, target: Lattice, ncols=None):
    """Basis of {x : A x in target} where A maps Z^ncols -> Z^target.dim."""
    rows = _as_rows(rows)
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    if not rows:
        return Lattice(
            [[1 if i == j else 0 for j in range(ncols)] for i in range(ncols)],
            ncols,
        )
    tb = [list(b) for b in target.basis]
    stacked = [row + [-tb[k][i] for k in range(len(tb))] for i, row in enumerate(rows)]
    sols = kernel_basis(stacked)
    return Lattice([s[:ncols] for s in sols], ncols)


# ---------------------------------------------------------------------------
# finitely generated abelian groups


@dataclass(frozen=True)
class FgAbelianGroup:
    """Z^rank + Z/d1 + ... + Z/dk with d1 | d2 | ... | dk, each >= 2.

    Elements are int tuples of length rank + k, torsion coordinates reduced
    into [0, d).
    """

    rank: int
    torsion: tuple = ()

    def __post_init__(self):
        for i, d in enumerate(self.torsion):
            if d < 2:
                raise ValueError("torsion invariants must be >= 2")
            if i and self.torsion[i] % self.torsion[i - 1] != 0:
                raise ValueError("torsion invariants must form a divisibility chain")

    @property
    def dim(self):
        return self.rank + len(self.torsion)

    def zero(self):
        return (0,) * self.dim

    def reduce(self, v):
        v = tuple(v)
        free = v[: self.rank]
        tor = tuple(a % d for a, d in zip(v[self.rank:], self.torsion))
        return free + tor

    def add(self, u, v):
        return self.reduce(vadd(u, v))

    def neg(self, u):
        return self.reduce(vneg(u))

    def sub(self, u, v):
        return self.reduce(vsub(u, v))

    def scale(self, k, u):
        return self.reduce(vscale(k, u))

    def is_zero(self, v):
        return all(a == 0 for a in self.reduce(v))

    def free_part(self, v):
        return tuple(v[: self.rank])

    def torsion_part(self, v):
        return tuple(v[self.rank:])

    def order(self):
        if self.rank:
            return None
        return math.prod(self.torsion) if self.torsion else 1

    def exponent_of_torsion(self):
        return self.torsion[-1] if self.torsion else 1

    def torsion_elements(self, limit=100000):
        total = math.prod(self.torsion) if self.torsion else 1
        if total > limit:
            raise ResourceLimitError("torsion subgroup too large to enumerate", limit)
        out = []
        idx = [0] * len(self.torsion)
        while True:
            out.append((0,) * self.rank + tuple(idx))
            k = len(idx) - 1
            while k >= 0:
                idx[k] += 1
                if idx[k] < self.torsion[k]:
                    break
                idx[k] = 0
                k -= 1
            if k < 0:
                break
        return out

    def element_order(self, v):
        v = self.reduce(v)
        if any(v[: self.rank]):
            return None
        n = 1
        for a, d in zip(v[self.rank:], self.torsion):
            if a:
                n = n * (d // math.gcd(d, a)) // math.gcd(n, d // math.gcd(d, a))
        return n

    def describe(self):
        parts = ["Z"] * self.rank + [f"Z/{d}" for d in self.torsion]
        return " + ".join(parts) if parts else "0"


@dataclass(frozen=True)
class QuotientPresentation:
    """Z^ngens / <relation columns> in invariant form, with both directions.

    ``project`` maps a generator-exponent vector to group coordinates;
    ``lift`` picks a representative exponent vector for a group element.
    """

    group: FgAbelianGroup
    ngens: int
    project_rows: tuple
    lift_cols: tuple  # ngens x dim matrix, columns indexed by group coords

    def project(self, x):
        return self.group.reduce(kernels.mat_vec([list(r) for r in self.project_rows], list(x)))

    def lift(self, g):
        return tuple(kernels.mat_vec([list(r) for r in self.lift_cols], list(g)))


def quotient_by_columns(n, cols):
    """Present Z^n modulo the subgroup generated by the given columns."""
    cols = [tuple(c) for c in cols]
    if cols:
        rel = [[c[i] for c in cols] for i in range(n)]
        U, Uinv, D, _, _ = kernels.snf_with_transforms(rel)
        k = len(cols)
        rank = sum(1 for i in range(min(n, k)) if D[i][i] != 0)
        diag = [D[i][i] for i in range(rank)]
    else:
        U = kernels.identity_matrix(n)
        Uinv = kernels.identity_matrix(n)
        rank = 0
        diag = []
    free_idx = list(range(rank, n))
    tor_idx = [i for i in range(rank) if diag[i] >= 2]
    group = FgAbelianGroup(len(free_idx), tuple(diag[i] for i in tor_idx))
    order = free_idx + tor_idx
    project_rows = tuple(tuple(U[i]) for i in order)
    lift_cols = tuple(tuple(Uinv[r][i] for i in order) for r in range(n))
    return QuotientPresentation(group, n, project_rows, lift_cols)


def cokernel(a):
    """Z^rows / (column span of A), with the projection map.

    Returns (group, presentation); presentation.project sends an ambient
    vector of Z^rows to invariant coordinates.
    """
    rows = _as_rows(a)
    r = len(rows)
    c = len(rows[0]) if r else 0
    cols = [tuple(rows[i][j] for i in range(r)) for j in range(c)]
    pres = quotient_by_columns(r, cols)
    return pres.group, pres


def group_equations(blocks, nonneg=False):
    """Integer rows and right-hand side for equations in f.g. abelian groups.

    Each block (group, columns, rhs) states sum_j x_j * columns[j] = rhs in
    ``group``; all blocks share the main unknowns x_j.  A block gives one row
    per free coordinate, then one per torsion coordinate Z/d, and that row
    gets a slack column d, or the pair d, -d when the unknowns are to be
    nonnegative (so the slack stays free).  Slack columns follow the main
    columns, block by block.  Entries are used as given, not reduced mod d.
    """
    ncols = len(blocks[0][1])
    width = 2 if nonneg else 1
    nslack = width * sum(len(g.torsion) for g, _, _ in blocks)
    rows, rhs = [], []
    s = ncols
    for g, cols, r in blocks:
        for i in range(g.dim):
            row = [c[i] for c in cols] + [0] * nslack
            if i >= g.rank:
                d = g.torsion[i - g.rank]
                row[s] = d
                if nonneg:
                    row[s + 1] = -d
                s += width
            rows.append(row)
            rhs.append(r[i])
    return rows, rhs


def relation_lattice(ambient: FgAbelianGroup, elements):
    """{a in Z^k : sum a_i * elements_i = 0 in ambient} as a Lattice."""
    k = len(elements)
    if k == 0:
        return Lattice([], 0)
    rows, _ = group_equations([(ambient, elements, ambient.zero())])
    if not rows:
        return Lattice(
            [tuple(1 if i == j else 0 for i in range(k)) for j in range(k)], k
        )
    sols = kernel_basis(rows)
    return Lattice([s[:k] for s in sols], k)


def span_presentation(ambient: FgAbelianGroup, elements):
    """The subgroup generated by ``elements`` as an abstract presented group.

    Returns a QuotientPresentation of Z^k by the relation lattice; its
    ``project``/``lift`` translate between exponent vectors and invariant
    coordinates of the subgroup.
    """
    rel = relation_lattice(ambient, elements)
    return quotient_by_columns(len(elements), [list(b) for b in rel.basis])


# ---------------------------------------------------------------------------
# rational cones


def extreme_rays(hrep_rows, dim):
    """Extreme rays of the pointed cone {x in Q^dim : row . x >= 0}.

    Brute-force over (dim-1)-subsets of rows; exact and adequate at desk
    scale.  The cone must be pointed (no nonzero lineality).
    """
    rows = [tuple(r) for r in hrep_rows]
    found = set()
    if dim == 0:
        return []
    if dim == 1:
        for cand in ((1,), (-1,)):
            if all(vdot(r, cand) >= 0 for r in rows):
                found.add(cand)
        return sorted(found)
    for subset in combinations(range(len(rows)), dim - 1):
        ker = kernel_basis([list(rows[i]) for i in subset])
        if len(ker) != 1:
            continue
        w = primitive(ker[0])
        for cand in (w, vneg(w)):
            if all(vdot(r, cand) >= 0 for r in rows):
                found.add(cand)
    return sorted(found)


def facet_normals(gens, dim):
    """Facet normals of cone(gens) when it is full-dimensional in Q^dim.

    These are the extreme rays of the dual cone {y : <g, y> >= 0 for all g},
    which is pointed precisely because cone(gens) is full-dimensional.
    """
    return extreme_rays([list(g) for g in gens], dim)


def _grading(hrep_rows, dim):
    if not hrep_rows:
        return (0,) * dim
    return tuple(sum(r[i] for r in hrep_rows) for i in range(dim))


def _hilbert_pointed(rays, hrep_rows, dim):
    """Hilbert basis of {x : hrep . x >= 0} cap Z^dim for a pointed cone.

    ``rays`` must be primitive integer generators of the cone.  Candidates
    are scanned from the zonotope bounding box of the rays: every
    irreducible element is a sub-sum of the rays with coefficients in [0,1].
    """
    if not rays:
        return []
    lo = [sum(min(0, r[i]) for r in rays) for i in range(dim)]
    hi = [sum(max(0, r[i]) for r in rays) for i in range(dim)]
    npts = 1
    for a, b in zip(lo, hi):
        npts *= b - a + 1
        if npts > MAX_SCAN_POINTS:
            raise ResourceLimitError(
                f"zonotope scan would visit more than {MAX_SCAN_POINTS} points",
                MAX_SCAN_POINTS,
            )
    pts = kernels.scan_box_points(lo, hi, [list(r) for r in hrep_rows])
    phi = _grading(hrep_rows, dim)
    pts = [p for p in pts if any(p)]
    pts.sort(key=lambda p: (vdot(phi, p), p))
    basis = []
    for p in pts:
        reducible = False
        for h in basis:
            q = vsub(p, h)
            if all(vdot(r, q) >= 0 for r in hrep_rows):
                reducible = True
                break
        if not reducible:
            basis.append(p)
    return sorted(basis)


def hilbert_from_hrep(hrep_rows, dim):
    """Generators of {x in Z^dim : hrep . x >= 0}: (sharp part, unit basis)."""
    if dim > MAX_CONE_DIM:
        raise ResourceLimitError(
            f"cone dimension {dim} exceeds the supported bound {MAX_CONE_DIM}",
            MAX_CONE_DIM,
        )
    rows = [tuple(r) for r in hrep_rows]
    lin = kernel_basis([list(r) for r in rows]) if rows else [
        tuple(1 if i == j else 0 for i in range(dim)) for j in range(dim)
    ]
    if not rows:
        return [], [tuple(b) for b in lin]
    if lin:
        pres = quotient_by_columns(dim, [list(b) for b in lin])
        assert not pres.group.torsion
        qdim = pres.group.rank
        lift_rows = [list(r) for r in pres.lift_cols]  # dim x qdim
        img_rows = []
        for r in rows:
            img_rows.append(
                tuple(sum(r[t] * lift_rows[t][j] for t in range(dim)) for j in range(qdim))
            )
        img_rows = [r for r in img_rows if any(r)]
        rays = extreme_rays(img_rows, qdim)
        sharp_q = _hilbert_pointed(rays, img_rows, qdim)
        sharp = [tuple(kernels.mat_vec(lift_rows, list(h))) for h in sharp_q]
        return sorted(sharp), [tuple(b) for b in lin]
    rays = extreme_rays(rows, dim)
    return _hilbert_pointed(rays, rows, dim), []


def nonneg_kernel_generators(rows, budget=None):
    """Minimal nonzero solutions of A x = 0, x in N^q (Contejean-Devie)."""
    rows = _as_rows(rows)
    q = len(rows[0]) if rows else 0
    if q == 0:
        return []
    budget = DEFAULT_NODE_BUDGET if budget is None else budget
    out = kernels.cd_minimal_nonneg_solutions(rows, q, budget)
    if out is None:
        raise ResourceLimitError("completion node budget exceeded", budget)
    return [tuple(v) for v in out]


# ---------------------------------------------------------------------------
# nonnegative Diophantine feasibility


@dataclass(frozen=True)
class NonnegSolution:
    status: str  # "sat" | "unsat"
    witness: tuple = None
    certificate: dict = None

    @property
    def is_sat(self):
        return self.status == "sat"


def solve_nonneg(a, b, budget=None):
    """Find x in N^cols with A x = b, or certify UNSAT.

    SAT witnesses verify by substitution.  UNSAT comes with one of three
    certificates: no integer solution at all (Smith divisibility), rational
    cone infeasibility (Farkas vector), or exhausted branch-and-bound over
    the solution-lattice parametrization.  Exceeding the node budget raises
    ResourceLimitError (distinct from UNSAT).
    """
    rows = _as_rows(a)
    m = len(rows)
    cols = len(rows[0]) if m else 0
    b = list(b)
    if len(b) != m:
        raise ValueError("rhs length mismatch")
    budget = DEFAULT_NODE_BUDGET if budget is None else budget

    if cols == 0:
        if all(x == 0 for x in b):
            return NonnegSolution("sat", ())
        return NonnegSolution("unsat", None, {"kind": "no-integer-solution"})

    x0, kb = _smith_solve(rows, b)
    if x0 is None:
        return NonnegSolution("unsat", None, {"kind": "no-integer-solution"})
    d = len(kb)
    if d == 0:
        if all(x >= 0 for x in x0):
            return NonnegSolution("sat", tuple(x0))
        return NonnegSolution(
            "unsat", None, {"kind": "unique-solution-negative", "solution": tuple(x0)}
        )

    # x = x0 + sum_j t_j * kb[j]; search integer t with x >= 0.  A branch
    # bound sign * t_j >= rhs, keyed by (j, sign), replaces the earlier one on
    # that key (it is tighter: the LP point met the old one), so a node's LP
    # has at most cols + 2 * d rows.  It goes last, where a stacked bound
    # would go, so the remaining rows keep their stacked order.
    def base_system(extra):
        sys = LinearSystem(d, nonneg=[False] * d)
        for i in range(cols):
            sys.ge([kb[j][i] for j in range(d)], -x0[i])
        for (k, sign), rhs in extra.items():
            sys.ge([sign if j == k else 0 for j in range(d)], rhs)
        return sys

    nodes = 0
    stack = [{}]
    while stack:
        extra = stack.pop()
        nodes += 1
        if nodes > budget:
            raise ResourceLimitError("solve_nonneg node budget exceeded", budget)
        res = base_system(extra).maximize([0] * d)
        if res.status == INFEASIBLE:
            if not extra:
                return NonnegSolution(
                    "unsat",
                    None,
                    {
                        "kind": "rational-cone-infeasible",
                        "farkas": [str(f) for f in res.farkas],
                    },
                )
            continue
        pt = res.x
        frac_j = -1
        for j in range(d):
            if pt[j].denominator != 1:
                frac_j = j
                break
        if frac_j < 0:
            t = [int(p) for p in pt]
            x = tuple(
                x0[i] + sum(t[j] * kb[j][i] for j in range(d)) for i in range(cols)
            )
            assert all(v >= 0 for v in x)
            return NonnegSolution("sat", x)
        fl = pt[frac_j].numerator // pt[frac_j].denominator
        for key, bound in (((frac_j, 1), fl + 1), ((frac_j, -1), -fl)):
            branch = dict(extra)
            branch.pop(key, None)
            branch[key] = bound
            stack.append(branch)
    return NonnegSolution(
        "unsat", None, {"kind": "branch-exhaustion", "nodes": nodes}
    )


# ---------------------------------------------------------------------------
# overlattice enumeration


@dataclass(frozen=True)
class Overlattice:
    """Lattice M with Z^rank <= M <= Q^rank; basis rows are ``rows / den``."""

    den: int
    rows: tuple  # tuple of int tuples; M = rowspan(rows) / den

    @property
    def rank(self):
        return len(self.rows)

    def basis_fractions(self):
        return [tuple(Fraction(e, self.den) for e in row) for row in self.rows]

    def coords(self, v):
        """Coordinates of an integer vector v in the M-basis (exact)."""
        lat = Lattice([list(r) for r in self.rows], self.rank)
        return lat.coords([self.den * x for x in v])

    def index_over_standard(self):
        det = 1
        lat = Lattice([list(r) for r in self.rows], self.rank)
        for row, p in zip(lat.basis, lat.pivots):
            det *= row[p]
        num = self.den ** self.rank
        return num // det

    def quotient_by_standard(self):
        """Invariants of M / Z^rank."""
        r = self.rank
        lat = Lattice([list(row) for row in self.rows], r)
        std = [[self.den if i == j else 0 for j in range(r)] for i in range(r)]
        coords = [lat.coords(s) for s in std]
        pres = quotient_by_columns(r, [list(c) for c in coords])
        return pres.group


def _ordered_factorizations(m, parts):
    if parts == 0:
        return [[]] if m == 1 else []
    out = []
    d = 1
    while d <= m:
        if m % d == 0:
            for rest in _ordered_factorizations(m // d, parts - 1):
                out.append([d] + rest)
        d += 1
    return out


def _sublattices_of_index(r, m):
    """All sublattices of Z^r of index m as upper-triangular HNF row bases."""
    out = []
    for diag in _ordered_factorizations(m, r):
        def fill(i, rows):
            if i == r:
                out.append([list(row) for row in rows])
                return
            row = [0] * r
            row[i] = diag[i]
            positions = [j for j in range(i + 1, r)]

            def offd(k, cur):
                if k == len(positions):
                    fill(i + 1, rows + [list(cur)])
                    return
                j = positions[k]
                for v in range(diag[j]):
                    nxt = list(cur)
                    nxt[j] = v
                    offd(k + 1, nxt)

            offd(0, row)

        fill(0, [])
    return out


def prime_factors(n):
    out = []
    k = 2
    while k * k <= n:
        while n % k == 0:
            out.append(k)
            n //= k
        k += 1
    if n > 1:
        out.append(n)
    return out


def enumerate_overlattices(group, n, sigma=None):
    """All M with L <= M <= L tensor Q and [M : L] = n, L = Z^rank.

    ``group`` must be torsion-free.  Every prime factor of n must avoid the
    prime set; otherwise CoprimalityError.  Deterministic, duplicate-free.
    """
    if isinstance(group, FgAbelianGroup):
        if group.torsion:
            raise ValueError("overlattice enumeration requires a torsion-free group")
        r = group.rank
    else:
        r = int(group)
    if n < 1:
        raise ValueError("index must be >= 1")
    if sigma is not None:
        for p in set(prime_factors(n)):
            if not sigma.coprime(p):
                raise CoprimalityError(
                    f"index {n} shares the prime {p} with the fixed prime set"
                )
    if r == 0:
        if n == 1:
            return [Overlattice(1, ())]
        return []
    if n == 1:
        eye = tuple(tuple(1 if i == j else 0 for j in range(r)) for i in range(r))
        return [Overlattice(1, eye)]
    m = n ** (r - 1)
    ncube = Lattice([[n if i == j else 0 for j in range(r)] for i in range(r)], r)
    out = []
    for rows in _sublattices_of_index(r, m):
        lam = Lattice(rows, r)
        if all(lam.contains([n if i == j else 0 for j in range(r)]) for i in range(r)):
            out.append(Overlattice(n, tuple(tuple(b) for b in lam.basis)))
    out.sort(key=lambda o: o.rows)
    return out
