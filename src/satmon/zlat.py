"""Exact integer and rational linear algebra.

Normal forms (Smith, Hermite), finitely generated abelian groups in
invariant form, cones and lattice-point engines (extreme rays by double
description, Hilbert bases from the parallelepipeds of a triangulation,
minimal nonnegative solutions via Contejean-Devie completion, nonnegative
Diophantine feasibility via branch-and-bound over a Hermite parametrization
with exact LP pruning), and finite-index overlattice enumeration.

All vectors are tuples of Python ints; all matrices lists of rows.  Values
are immutable after construction and every operation is a pure function, so
everything here is safe to share across threads.
"""

import contextvars
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from . import kernels
from ._lp import INFEASIBLE, LinearSystem
from .errors import CoprimalityError, ResourceLimitError

DEFAULT_NODE_BUDGET = int(os.environ.get("SATMON_BUDGET", "1000000"))
# Node budget of each branch-and-bound and completion search, set for a
# block of work with ``node_budget``.  A context variable, so each thread
# (each request of a ``--jobs`` batch) sees its own.
_NODE_BUDGET = contextvars.ContextVar("node_budget", default=DEFAULT_NODE_BUDGET)
# Work cap of one cone computation: every ray that double description forms
# and every point of every simplex's parallelepiped (its |det|) counts one.
CONE_WORK_LIMIT = 4_000_000


@contextmanager
def node_budget(n):
    """Every search started inside the block may expand at most ``n`` nodes.

    The budget is per search call, not shared: each branch-and-bound or
    completion run gets all ``n``.  Exceeding it raises ResourceLimitError
    carrying ``n``.
    """
    token = _NODE_BUDGET.set(n)
    try:
        yield n
    finally:
        _NODE_BUDGET.reset(token)


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
# integer solutions and lattices


def _smith_solve(rows, b=None):
    """(one integer solution of A x = b or None, kernel basis of A): one SNF."""
    r = len(rows)
    c = len(rows[0]) if r else 0
    U, D, V = kernels.snf_with_transforms(rows)
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
    r = len(rows)
    c = len(rows[0]) if r else 0
    if c == 0:
        return []
    if r == 0:
        return [tuple(1 if i == j else 0 for i in range(c)) for j in range(c)]
    return _smith_solve(rows)[1]


def solve_integer(rows, b):
    """One integer solution of A x = b, or None."""
    return _smith_solve(rows, b)[0]


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
        H, pivots = kernels.hnf_rows(gens)
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
        # U B V = D, so row i of U B is d_i times row i of V^-1
        rows = [list(b) for b in self.basis]
        U, D, _ = kernels.snf_with_transforms(rows)
        rank = sum(1 for i in range(min(len(rows), self.dim)) if D[i][i] != 0)
        ub = kernels.mat_mul(U[:rank], rows)
        return Lattice(
            [tuple(x // D[i][i] for x in ub[i]) for i in range(rank)], self.dim
        )

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
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    if not rows:
        return Lattice(
            [[1 if i == j else 0 for j in range(ncols)] for i in range(ncols)],
            ncols,
        )
    tb = [list(b) for b in target.basis]
    stacked = [list(row) + [-tb[k][i] for k in range(len(tb))] for i, row in enumerate(rows)]
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
        U, D, _, Uinv = kernels.snf_with_transforms(rel, return_u_inverse=True)
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
    r = len(a)
    c = len(a[0]) if r else 0
    cols = [tuple(a[i][j] for i in range(r)) for j in range(c)]
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
#
# Extreme rays come from integer double description (Fukuda-Prodon 1996);
# Hilbert bases from a pulling triangulation on those rays, whose simplices'
# half-open parallelepipeds are read off one Smith form each (Bruns-Koch
# 2001), followed by a degree-ordered sieve.


def _charge(work):
    if work > CONE_WORK_LIMIT:
        raise ResourceLimitError(
            f"cone work exceeds CONE_WORK_LIMIT = {CONE_WORK_LIMIT} "
            "(double-description rays plus parallelepiped points)",
            CONE_WORK_LIMIT,
        )


def _independent_rows(rows, dim):
    """Indices of the rows independent of the rows before them (at most dim)."""
    echelon = []  # (pivot, row), each row zero at the earlier pivots
    picked = []
    for i, r in enumerate(rows):
        v = list(r)
        for p, b in echelon:
            if v[p]:
                bp, vp = b[p], v[p]
                v = [bp * x - vp * y for x, y in zip(v, b)]
        p = next((j for j in range(dim) if v[j]), None)
        if p is None:
            continue
        g = vgcd(v)
        echelon.append((p, [x // g for x in v]))
        picked.append(i)
        if len(picked) == dim:
            break
    return picked


def _det_and_adjugate(a):
    """(d, d * A^-1) for a nonsingular square integer matrix A, d = +-det A.

    Fraction-free Gauss-Jordan elimination (Bareiss) on [A | I]: after step
    k every entry is a (k + 1)-minor of [A | I] up to sign, so each division
    is exact, and the left block ends as d * I.
    """
    n = len(a)
    m = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(a)]
    prev = 1
    for k in range(n):
        if not m[k][k]:
            i = next(i for i in range(k + 1, n) if m[i][k])
            m[k], m[i] = m[i], m[k]
        rk = m[k]
        akk = rk[k]
        for i in range(n):
            aik = m[i][k]
            if i != k:
                m[i] = [(akk * x - aik * y) // prev for x, y in zip(m[i], rk)]
        prev = akk
    return prev, [row[n:] for row in m]


def _double_description(rows, dim):
    """Extreme rays of the pointed cone {x : row . x >= 0}, with zero sets.

    Returns (pairs, work): each pair is a primitive ray and the bitmask of
    the rows it lies on (bit i for rows[i]); work counts every ray formed.
    The rays of the simplicial cone of ``dim`` independent rows B are the
    columns of |det B| * B^-1.  Each further row keeps the rays on its
    nonnegative side and joins each adjacent pair across it; two rays are
    adjacent when no third ray lies on every row that both lie on.
    """
    init = _independent_rows(rows, dim)
    if len(init) < dim:
        raise ValueError("the cone has a nonzero lineality space")
    det, adj = _det_and_adjugate([rows[i] for i in init])
    sign = 1 if det > 0 else -1
    tight = sum(1 << i for i in init)
    pairs = []
    for j in range(dim):
        col = [sign * row[j] for row in adj]
        g = vgcd(col)
        pairs.append((tuple(x // g for x in col), tight & ~(1 << init[j])))
    work = dim
    start = set(init)
    for i, a in enumerate(rows):
        if i in start:
            continue
        bit = 1 << i
        pos, neg, keep = [], [], []
        for r, m in pairs:
            s = vdot(a, r)
            if s > 0:
                pos.append((r, m, s))
                keep.append((r, m))
            elif s < 0:
                neg.append((r, m, s))
            else:
                keep.append((r, m | bit))
        if neg:
            masks = [m for _, m in pairs]
            for p, mp, sp in pos:
                for n, mn, sn in neg:
                    common = mp & mn
                    if common.bit_count() < dim - 2:
                        continue
                    # p and n themselves lie on every row of ``common``
                    if sum(1 for m in masks if m & common == common) > 2:
                        continue
                    v = [sp * y - sn * x for x, y in zip(p, n)]
                    g = vgcd(v)
                    keep.append((tuple(x // g for x in v), common | bit))
                    work += 1
            _charge(work)
        pairs = keep
    return pairs, work


def extreme_rays(hrep_rows, dim):
    """Extreme rays of the pointed cone {x in Q^dim : row . x >= 0}, sorted.

    Each ray is the primitive integer vector on it.  The cone must be
    pointed (no nonzero lineality); it need not be full-dimensional.
    """
    if dim == 0:
        return []
    pairs, _ = _double_description([tuple(r) for r in hrep_rows], dim)
    return sorted(r for r, _ in pairs)


def facet_normals(gens, dim):
    """Facet normals of cone(gens) when it is full-dimensional in Q^dim.

    These are the extreme rays of the dual cone {y : <g, y> >= 0 for all g},
    which is pointed precisely because cone(gens) is full-dimensional.
    """
    return extreme_rays([list(g) for g in gens], dim)


def _pulling_triangulation(face, fdim, hyperplanes, memo):
    """Simplices (ray bitmasks) of the pulling triangulation of a face.

    ``face`` is a bitmask of rays spanning a face of dimension ``fdim``;
    ``hyperplanes`` holds, per row, the mask of rays on it.  The facets of a
    face are the inclusion-maximal sets face & h, h not containing the face.
    The lowest ray of the face is pulled: it is joined to the triangulation
    of each facet that misses it.
    """
    if face.bit_count() == fdim:
        return [face]
    out = memo.get(face)
    if out is not None:
        return out
    cands = {face & h for h in hyperplanes if face & h != face}
    pulled = face & -face
    out = []
    for g in cands:
        if g & pulled or any(g != o and g & o == g for o in cands):
            continue
        out.extend(s | pulled for s in _pulling_triangulation(g, fdim - 1, hyperplanes, memo))
    memo[face] = out
    return out


def _parallelepiped_ys(s, W):
    """y = W (k_j L / s_j) mod L over k in prod [0, s_j), L = s_k; y = 0 first.

    For a dim x k matrix M of rank k with Smith form U M W = S, s = diag(S),
    the points M y / L are the lattice points of {M lambda : 0 <= lambda_j
    < 1}: prod s_j of them, |det M| for square M.
    """
    k = len(s)
    big = s[-1]
    ys = [(0,) * k]
    for j in range(k):
        if s[j] > 1:
            step = big // s[j]
            g = [W[t][j] * step % big for t in range(k)]
            ys = [
                tuple((yt + c * gt) % big for yt, gt in zip(y, g))
                for y in ys
                for c in range(s[j])
            ]
    return ys


def _hilbert_pointed(hrep_rows, dim):
    """Hilbert basis of {x : hrep . x >= 0} cap Z^dim for a pointed cone.

    Every irreducible element is a ray or a point of the half-open
    parallelepiped of a simplex of a triangulation on the rays.  Those
    candidates are sieved in degree order (degree = sum of the row values):
    a candidate p is kept unless p - h lies in the cone for a kept h.  Such
    an h can be taken of degree <= deg(p) / 2, since a reducible p is a sum
    of at least two basis elements.  Rows must have rank dim.
    """
    rows = [tuple(r) for r in hrep_rows]
    pairs, work = _double_description(rows, dim)
    if not pairs:
        return []
    rays = [r for r, _ in pairs]
    nrays = len(rays)
    full = (1 << nrays) - 1
    hyperplanes = {
        sum(1 << t for t, (_, m) in enumerate(pairs) if m >> i & 1)
        for i in range(len(rows))
    }
    # a row on every ray is an implicit equation; without one the cone is
    # full-dimensional
    if full in hyperplanes:
        hyperplanes.discard(full)
        cdim = len(_independent_rows(rays, dim))
    else:
        cdim = dim
    # every simplex is charged its |det| before any parallelepiped is
    # enumerated
    boxes = []
    for simplex in _pulling_triangulation(full, cdim, hyperplanes, {}):
        idx = [t for t in range(nrays) if simplex >> t & 1]
        cols = [rays[t] for t in idx]
        if cdim == dim and abs(_det_and_adjugate(cols)[0]) == 1:
            work += 1
            continue
        _, S, W = kernels.snf_with_transforms(
            [[c[i] for c in cols] for i in range(dim)]
        )
        s = [S[j][j] for j in range(cdim)]
        work += math.prod(s)
        _charge(work)
        boxes.append((idx, s, W))
    _charge(work)
    if not boxes:
        return sorted(rays)
    # A point is known by its row values (the rows have rank dim).  They are
    # packed into one int, the degree in the top field, with ``width``-bit
    # fields and a guard bit on top of each: int order sorts by degree, and
    # h <= p on every row iff (P + guard - H) & guard == guard.  A point
    # M y / L of a parallelepiped has values below the sum over the rays, so
    # L times them fits, and packing commutes with sums and exact division.
    vals = [[vdot(r, ray) for r in rows] for ray in rays]
    for vs in vals:
        vs.append(sum(vs))
    bound = sum(vs[-1] for vs in vals) * max(s[-1] for _, s, _ in boxes)
    width = bound.bit_length() + 1
    shifts = [width * i for i in range(len(rows) + 1)]
    packed = [sum(v << sh for v, sh in zip(vs, shifts)) for vs in vals]
    # candidate -> (ray indices, L, y), to rebuild it as M y / L
    cands = {packed[t]: ([t], 1, (1,)) for t in range(nrays)}
    for idx, s, W in boxes:
        big = s[-1]
        pk = [packed[t] for t in idx]
        for y in _parallelepiped_ys(s, W)[1:]:
            x = sum(a * b for a, b in zip(y, pk)) // big
            if x not in cands:
                cands[x] = (idx, big, y)
    guard = sum(1 << (sh + width - 1) for sh in shifts)
    basis, degs, kept = [], [], []
    top = 0
    for x in sorted(cands):
        deg = x >> shifts[-1]
        while top < len(degs) and 2 * degs[top] <= deg:
            top += 1
        xg = x + guard
        for t in range(top):
            if (xg - kept[t]) & guard == guard:
                break
        else:
            basis.append(cands[x])
            degs.append(deg)
            kept.append(x)
    return sorted(
        tuple(sum(rays[t][i] * yt for t, yt in zip(idx, y)) // big for i in range(dim))
        for idx, big, y in basis
    )


def hilbert_from_hrep(hrep_rows, dim):
    """Generators of {x in Z^dim : hrep . x >= 0}: (sharp part, unit basis)."""
    rows = [tuple(r) for r in hrep_rows]
    if len(_independent_rows(rows, dim)) == dim:
        # rows of rank dim: the cone is pointed, and no Smith form is needed
        # to find its (zero) lineality space
        return _hilbert_pointed(rows, dim), []
    lin = kernel_basis([list(r) for r in rows]) if rows else [
        tuple(1 if i == j else 0 for i in range(dim)) for j in range(dim)
    ]
    if not rows:
        return [], [tuple(b) for b in lin]
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
    sharp_q = _hilbert_pointed(img_rows, qdim) if qdim else []
    sharp = [tuple(kernels.mat_vec(lift_rows, list(h))) for h in sharp_q]
    return sorted(sharp), [tuple(b) for b in lin]


def nonneg_kernel_generators(rows):
    """Minimal nonzero solutions of A x = 0, x in N^q (Contejean-Devie)."""
    q = len(rows[0]) if rows else 0
    if q == 0:
        return []
    budget = _NODE_BUDGET.get()
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


def solve_nonneg(rows, b):
    """Find x in N^cols with A x = b, or certify UNSAT.

    SAT witnesses verify by substitution.  UNSAT comes with one of three
    certificates: no integer solution at all (Smith divisibility), rational
    cone infeasibility (Farkas vector), or exhausted branch-and-bound over
    the solution-lattice parametrization.  Exceeding the node budget raises
    ResourceLimitError (distinct from UNSAT).
    """
    m = len(rows)
    cols = len(rows[0]) if m else 0
    b = list(b)
    if len(b) != m:
        raise ValueError("rhs length mismatch")
    budget = _NODE_BUDGET.get()

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

    @cached_property
    def lattice(self):
        """rowspan(rows) as a Lattice, so M = lattice / den."""
        return Lattice(self.rows, self.rank)

    def coords(self, v):
        """Coordinates of an integer vector v in the M-basis (exact)."""
        return self.lattice.coords([self.den * x for x in v])

    def index_over_standard(self):
        det = 1
        lat = self.lattice
        for row, p in zip(lat.basis, lat.pivots):
            det *= row[p]
        num = self.den ** self.rank
        return num // det

    def quotient_by_standard(self):
        """Invariants of M / Z^rank."""
        r = self.rank
        lat = self.lattice
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


def _sublattices_of_index(r, m, n):
    """Sublattices of Z^r of index m whose HNF diagonal entries all divide n.

    As upper-triangular HNF row bases.  Every sublattice of index m that
    contains n * Z^r is among them: its elements vanishing on coordinates
    < i have i-th coordinates in d_i * Z, and n * e_i is one of them.
    """
    out = []
    for diag in _ordered_factorizations(m, r):
        if any(n % d for d in diag):
            continue
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
    out = []
    for rows in _sublattices_of_index(r, m, n):
        lam = Lattice(rows, r)
        if all(lam.contains([n if i == j else 0 for j in range(r)]) for i in range(r)):
            out.append(Overlattice(n, tuple(tuple(b) for b in lam.basis)))
    out.sort(key=lambda o: o.rows)
    return out
