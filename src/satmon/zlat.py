"""Exact integer and rational linear algebra.

Normal forms (Smith, Hermite), finitely generated abelian groups in
invariant form, cones and lattice-point engines (extreme rays by double
description, Hilbert bases from the parallelepipeds of a triangulation,
minimal nonnegative solutions via Contejean-Devie completion, nonnegative
Diophantine feasibility via branch-and-bound over a Hermite parametrization
with exact LP pruning), and finite-index overlattice enumeration.

All vectors are tuples of Python ints; all matrices lists of rows.  Values
are immutable after construction and every operation is a pure function, so
everything here is safe to share across threads.  Work is bounded by one
node budget per request (``node_budget``), shared by all its searches.
"""

import contextvars
import math
from contextlib import contextmanager
from fractions import Fraction
from functools import cached_property
from operator import mul

from . import kernels
from ._lp import INFEASIBLE, LinearSystem
from .errors import CoprimalityError, ResourceLimitError

DEFAULT_NODE_BUDGET = 1_000_000
# The current block's budget as [n, nodes charged so far], None outside any
# block; read only by ``_node_meter``.  A context variable, so each thread
# (each request of a ``--jobs`` batch) sees its own.
_NODE_BUDGET = contextvars.ContextVar("node_budget", default=None)
# The computation whose charges are being recorded, as (owner, events), or
# None; read by ``_node_meter``, set by the monoid memo
# (``monoid.AffineMonoid._shared``), which replays the events on a hit.
_RECORDER = contextvars.ContextVar("node_recorder", default=None)


@contextmanager
def node_budget(n):
    """One budget of ``n`` nodes for the block (one budget per request:
    ``cli.run_request`` opens one block for each).

    Every search and enumeration started inside the block (branch-and-bound,
    completion, trial division, overlattice enumeration, double description,
    Hilbert basis, faces, the flattening-ideal search) charges the same
    meter; the one that takes the total past ``n`` raises ResourceLimitError
    carrying ``n``.  An inner block starts a fresh budget.
    """
    token = _NODE_BUDGET.set([n, 0])
    try:
        yield n
    finally:
        _NODE_BUDGET.reset(token)


def _node_meter(search):
    """A function ``charge(k=1)`` that adds k nodes of ``search`` to the
    block's budget and returns the nodes left.

    The call that takes the block's total past its budget, ``charge.limit``,
    raises ResourceLimitError naming ``search`` and carrying the budget.
    Outside any block the meter has ``DEFAULT_NODE_BUDGET`` of its own.

    While a computation is recorded (``_RECORDER``), its events get one
    ``[search, nodes]`` tally per run of consecutive charges of this meter:
    a tally grows until another meter's charge or a memoized read comes
    between.
    """
    block = _NODE_BUDGET.get() or [DEFAULT_NODE_BUDGET, 0]
    limit = block[0]

    def charge(k=1):
        block[1] += k
        if block[1] > limit:
            raise ResourceLimitError(f"{search} node budget exceeded", limit)
        return limit - block[1]

    rec = _RECORDER.get()
    if rec is not None:
        events, unrecorded, tally = rec[1], charge, None

        def charge(k=1):
            nonlocal tally
            if tally is None or events[-1] is not tally:
                tally = [search, 0]
                events.append(tally)
            tally[1] += k
            return unrecorded(k)

    charge.limit = limit
    return charge


def trial_divisors(more):
    """k = 2, 3, 4, ... while ``more(k)``: one trial division, a node per k."""
    charge = _node_meter("trial division")
    k = 2
    while more(k):
        charge()
        yield k
        k += 1


# ---------------------------------------------------------------------------
# value types


class Value:
    """Equality and hashing by the attributes named in ``_fields``; a value
    equals only values of its own class.  Nothing assigns those attributes
    after ``__init__``, so a value's hash never changes."""

    _fields = ()

    def _key(self):
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


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
    return sum(map(mul, u, v))


def vgcd(u):
    g = 0
    for a in u:
        g = math.gcd(g, a)
    return g


def primitive(u):
    """u divided by the (positive) gcd of its entries, orientation kept."""
    g = vgcd(u)
    return tuple(a // g for a in u) if g else tuple(u)


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

    @classmethod
    def _of_hnf(cls, rows):
        """The lattice of ``rows``, already its full-rank canonical HNF
        (pivots 0 .. r - 1), without computing the HNF again."""
        lat = cls.__new__(cls)
        lat.dim = len(rows)
        lat.basis = [tuple(row) for row in rows]
        lat.pivots = list(range(len(rows)))
        return lat

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


class FgAbelianGroup(Value):
    """Z^rank + Z/d1 + ... + Z/dk with d1 | d2 | ... | dk, each >= 2.

    Elements are int tuples of length rank + k, torsion coordinates reduced
    into [0, d).
    """

    _fields = ("rank", "torsion")

    def __init__(self, rank, torsion=()):
        for i, d in enumerate(torsion):
            if d < 2:
                raise ValueError("torsion invariants must be >= 2")
            if i and torsion[i] % torsion[i - 1] != 0:
                raise ValueError("torsion invariants must form a divisibility chain")
        self.rank = rank
        self.torsion = torsion

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

    def combine(self, coeffs, elements):
        """sum coeffs[i] * elements[i], reduced once at the end."""
        acc = [0] * self.dim
        for c, g in zip(coeffs, elements):
            if c:
                acc = [a + c * x for a, x in zip(acc, g)]
        return self.reduce(acc)

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

    def describe(self):
        parts = ["Z"] * self.rank + [f"Z/{d}" for d in self.torsion]
        return " + ".join(parts) if parts else "0"


class QuotientPresentation:
    """Z^ngens / <relation columns> in invariant form, with both directions.

    ``project`` maps a generator-exponent vector to group coordinates;
    ``lift`` picks a representative exponent vector for a group element.
    """

    def __init__(self, group: FgAbelianGroup, ngens, project_rows, lift_cols):
        self.group = group
        self.ngens = ngens
        self.project_rows = project_rows
        self.lift_cols = lift_cols  # ngens x dim matrix, columns indexed by group coords

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


def group_equations(blocks):
    """Integer rows and right-hand side for equations in f.g. abelian groups.

    Each block (group, columns, rhs) states sum_j x_j * columns[j] = rhs in
    ``group``; all blocks share the main unknowns x_j.  A block gives one row
    per free coordinate, then one per torsion coordinate Z/d, and that row
    gets a slack column -d.  Slack columns follow the main columns, block by
    block.  Entries are used as given, not reduced mod d.  With columns and
    rhs reduced into [0, d), a solution whose main unknowns are nonnegative
    has nonnegative slack, since d s = sum_j x_j c_j - r > -d.
    """
    ncols = len(blocks[0][1])
    nslack = sum(len(g.torsion) for g, _, _ in blocks)
    rows, rhs = [], []
    s = ncols
    for g, cols, r in blocks:
        for i in range(g.dim):
            row = [c[i] for c in cols] + [0] * nslack
            if i >= g.rank:
                row[s] = -g.torsion[i - g.rank]
                s += 1
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


# ---------------------------------------------------------------------------
# rational cones
#
# Extreme rays come from integer double description (Fukuda-Prodon 1996);
# Hilbert bases from a pulling triangulation on those rays, whose simplices'
# half-open parallelepipeds (Bruns-Koch 2001) are read off each simplex's
# frame, its determinant and adjugate, in any overlattice of the ambient
# lattice, followed by a degree-ordered sieve.


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

    Returns pairs: each a primitive ray and the bitmask of the rows it lies
    on (bit i for rows[i]).  Every ray formed is a node of the budget.  The
    rays of the simplicial cone of ``dim`` independent rows B are the
    columns of |det B| * B^-1.  Each further row keeps the rays on its
    nonnegative side and joins each adjacent pair across it; two rays are
    adjacent when no third ray lies on every row that both lie on.
    """
    init = _independent_rows(rows, dim)
    if len(init) < dim:
        raise ValueError("the cone has a nonzero lineality space")
    charge = _node_meter("double description")
    charge(dim)
    det, adj = _det_and_adjugate([rows[i] for i in init])
    sign = 1 if det > 0 else -1
    tight = sum(1 << i for i in init)
    pairs = []
    for j in range(dim):
        pairs.append((primitive([sign * row[j] for row in adj]), tight & ~(1 << init[j])))
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
                    charge()
                    v = [sp * y - sn * x for x, y in zip(p, n)]
                    keep.append((primitive(v), common | bit))
        pairs = keep
    return pairs


def extreme_rays(hrep_rows, dim):
    """Extreme rays of the pointed cone {x in Q^dim : row . x >= 0}, sorted.

    Each ray is the primitive integer vector on it.  The cone must be
    pointed (no nonzero lineality); it need not be full-dimensional.
    """
    if dim == 0:
        return []
    pairs = _double_description([tuple(r) for r in hrep_rows], dim)
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


def pulling_triangulation(masks, nrows, cdim):
    """Pulling triangulation of a pointed cone of dimension ``cdim``.

    ``masks[t]`` is the bitmask of the rows that ray t lies on, the only
    thing the triangulation depends on; a row on every ray is an implicit
    equation.  Returns the simplices as bitmasks of ray indices.
    """
    full = (1 << len(masks)) - 1
    hyperplanes = {
        sum(1 << t for t, m in enumerate(masks) if m >> i & 1) for i in range(nrows)
    }
    hyperplanes.discard(full)
    return _pulling_triangulation(full, cdim, hyperplanes, {})


def simplex_frames(rays, simplices):
    """The frame of each simplex of a triangulation on full-dimensional rays.

    A frame is (ray indices, d, A): U has the simplex's rays u_t as rows,
    d = |det U| and A = d U^-1, one ``_det_and_adjugate``.  So every x is
    sum_t (x A)_t u_t / d.
    """
    frames = []
    for simplex in simplices:
        idx = tuple(t for t in range(len(rays)) if simplex >> t & 1)
        d, adj = _det_and_adjugate([rays[t] for t in idx])
        if d < 0:
            d, adj = -d, [[-a for a in row] for row in adj]
        frames.append((idx, d, adj))
    return frames


def _box_points(gens, moduli, size):
    """The subgroup of prod_t Z/moduli[t] that ``gens`` generate, of order
    ``size``; 0 first.

    Elements are tuples with entries in [0, moduli[t]).  Each generator g
    adds to the group H found so far its cosets H + j g, 0 < j < k, for k
    the order of g modulo H; once H has ``size`` elements the rest of the
    generators lie in it.
    """
    zero = (0,) * len(moduli)
    pts, seen = [zero], {zero}
    for g in gens:
        if len(pts) == size:
            break
        g = tuple(a % q for a, q in zip(g, moduli))
        cosets, c = [], g
        while c not in seen:
            cosets.append(c)
            c = tuple((a + b) % q for a, b, q in zip(c, g, moduli))
        new = [tuple((a + b) % q for a, b, q in zip(h, c, moduli)) for c in cosets for h in pts]
        pts += new
        seen.update(new)
    return pts


def _hilbert_pointed(rows, dim):
    """Hilbert basis of {x in Z^dim : row . x >= 0} for a pointed cone
    (rows of rank dim).

    Double description finds the rays, they are triangulated by pulling,
    and a lower-dimensional cone is first projected into its saturated
    span; the basis is read off the frames of the triangulation
    (``hilbert_from_frames``).  Double description is charged on its own.
    """
    pairs = _double_description(rows, dim)
    if not pairs:
        return []
    rays = [r for r, _ in pairs]
    masks = [m for _, m in pairs]
    # a row on every ray is an implicit equation; without one the cone
    # is full-dimensional
    on_every_ray = masks[0]
    for m in masks:
        on_every_ray &= m
    cdim = len(_independent_rows(rays, dim)) if on_every_ray else dim
    simplices = pulling_triangulation(masks, len(rows), cdim)
    if cdim == dim:
        return hilbert_from_frames(rows, rays, simplex_frames(rays, simplices))
    span = Lattice(rays, dim).saturation()
    low_rays = [span.coords(r) for r in rays]
    low_rows = [v for v in ([vdot(r, b) for b in span.basis] for r in rows) if any(v)]
    low = hilbert_from_frames(low_rows, low_rays, simplex_frames(low_rays, simplices))
    cols = list(zip(*span.basis))
    return sorted(tuple(vdot(col, h) for col in cols) for h in low)


def hilbert_from_frames(rows, rays, frames, lattice=None):
    """Hilbert basis of {x in L : row . x >= 0}, in the coordinates of L,
    the overlattice ``lattice`` of Z^dim (Z^dim itself by default), for a
    pointed full-dimensional cone with primitive extreme ``rays`` and the
    ``frames`` of a triangulation on them (``simplex_frames``).

    Every irreducible element is a ray or a point of the half-open
    parallelepiped of a simplex of the triangulation.  Those candidates
    are sieved in degree order (degree = sum of the row values): a
    candidate p is kept unless p - h lies in the cone for a kept h.  Such
    an h can be taken of degree <= deg(p) / 2, since a reducible p is a sum
    of at least two basis elements.

    With L = rowspan(B) / den (``lattice.rows`` B), a simplex's frame A
    gives coordinates f(x) = den x A, in which its ray u_t is den d e_t.
    The ray of L on u_t is u_t / m_t, m_t the gcd of u_t's L-coordinates,
    so the simplex's parallelepiped in L is the subgroup of
    prod_t Z/(den d / m_t) that the images B_j A of L's generators generate
    (``_box_points``), and x is sum_t f_t u_t / (den d).  Each simplex is
    charged its [L : Z^dim] d / prod m_t points before any box is
    enumerated.
    """
    if lattice is None:
        den, index, lrays, ms = 1, 1, rays, [1] * len(rays)
    else:
        den, index = lattice.den, lattice.index_over_standard()
        lrays = [tuple(vdot(f, r) for f in lattice.coordinate_forms) for r in rays]
        ms = [vgcd(c) for c in lrays]
    nrays = len(rays)
    charge = _node_meter("Hilbert basis")
    boxes = []
    for idx, d, adj in frames:
        size = index * d // math.prod(ms[t] for t in idx)
        # the zero cone's empty simplex has the box {0}: nothing to scan
        charge(size if idx else 0)
        if size > 1:
            boxes.append((idx, d, adj, size))
    if not boxes:
        return sorted(tuple(x // m for x in c) for c, m in zip(lrays, ms))
    # A point is known by its row values (the rows have rank dim), taken
    # den times, which makes them integers on L.  They are packed into one
    # int, the degree in the top field, with ``width``-bit fields and a
    # guard bit on top of each: int order sorts by degree, and h <= p on
    # every row iff (P + guard - H) & guard == guard.  A box point has
    # values below den times the sum over the rays, so d times them fits,
    # and packing commutes with sums and exact division.
    vals = [[vdot(r, ray) for r in rows] for ray in rays]
    for vs in vals:
        vs.append(sum(vs))
    bound = den * sum(vs[-1] for vs in vals) * max(box[1] for box in boxes)
    width = bound.bit_length() + 1
    shifts = [width * i for i in range(len(rows) + 1)]
    packed = [sum(v << sh for v, sh in zip(vs, shifts)) for vs in vals]
    # candidate -> (ray indices, q, y), to rebuild it as sum_t y_t c_t / q
    # from the L-coordinates c_t of the rays
    cands = {den * packed[t] // ms[t]: ((t,), ms[t], (1,)) for t in range(nrays)}
    for idx, d, adj, size in boxes:
        big = den * d
        if lattice is not None:
            cols = list(zip(*adj))
            adj = [[vdot(g, col) for col in cols] for g in lattice.rows]
        pk = [packed[t] for t in idx]
        for y in _box_points(adj, [big // ms[t] for t in idx], size)[1:]:
            x = sum(map(mul, y, pk)) // d
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
        tuple(sum(map(mul, y, col)) // big for col in zip(*(lrays[t] for t in idx)))
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


def nonneg_kernel_generators(rows, stop=None):
    """Minimal nonzero solutions of A x = 0, x in N^q (Contejean-Devie).

    ``stop`` sees the solutions level by level, each level's before any of
    its nodes is expanded, and can end the search early
    (``kernels.cd_minimal_nonneg_solutions``); the solutions reported by
    then are returned.  Completion spends each level it expands from the
    block's budget, which the searches inside ``stop`` share.  When the
    columns are [B | -B] up to a permutation, completion expands one node
    of each pair of nodes that are mirror images; no result and no charge
    depends on it.
    """
    q = len(rows[0]) if rows else 0
    if q == 0:
        return []
    charge = _node_meter("completion")
    out = kernels.cd_minimal_nonneg_solutions(rows, q, charge.limit, charge, stop)
    if out is None:
        raise ResourceLimitError("completion node budget exceeded", charge.limit)
    return [tuple(v) for v in out]


# ---------------------------------------------------------------------------
# nonnegative Diophantine feasibility


class NonnegSolution:
    def __init__(self, status, witness=None, certificate=None):
        self.status = status  # "sat" | "unsat"
        self.witness = witness
        self.certificate = certificate

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
    charge = _node_meter("solve_nonneg")

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

    stack = [{}]
    nodes = 0
    while stack:
        extra = stack.pop()
        nodes += 1
        charge()
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


class Overlattice(Value):
    """Lattice M with Z^rank <= M <= Q^rank; basis rows are ``rows / den``."""

    _fields = ("den", "rows")

    def __init__(self, den, rows):
        self.den = den
        self.rows = rows  # tuple of int tuples; M = rowspan(rows) / den

    @property
    def rank(self):
        return len(self.rows)

    def basis_fractions(self):
        return [tuple(Fraction(e, self.den) for e in row) for row in self.rows]

    @cached_property
    def lattice(self):
        """rowspan(rows) as a Lattice, so M = lattice / den.

        ``enumerate_overlattices`` fills it in from rows already in HNF.
        """
        return Lattice(self.rows, self.rank)

    def coords(self, v):
        """Coordinates of an integer vector v in the M-basis (exact)."""
        return self.lattice.coords([self.den * x for x in v])

    @cached_property
    def coordinate_forms(self):
        """The columns of den rows^-1, one Hermite solve per e_i: their
        values on an integer vector are its M-coordinates (Z^rank <= M)."""
        eye = [[int(i == j) for j in range(self.rank)] for i in range(self.rank)]
        return list(zip(*(self.coords(e) for e in eye)))

    def index_over_standard(self):
        det = 1
        lat = self.lattice
        for row, p in zip(lat.basis, lat.pivots):
            det *= row[p]
        num = self.den ** self.rank
        return num // det

    def quotient_by_standard(self):
        """Invariants of M / Z^rank from the Smith diagonal a_1 | ... | a_r
        of ``rows``, in Hermite form or not: rowspan(rows) = sum a_i Z f_i
        for a basis f of Z^r and contains den Z^r, so each a_i divides den
        and M / Z^r = rowspan(rows) / den Z^r = sum Z/(den / a_i)."""
        _, D, _ = kernels.snf_with_transforms([list(row) for row in self.rows])
        inv = (self.den // D[i][i] for i in reversed(range(self.rank)))
        return FgAbelianGroup(0, tuple(d for d in inv if d > 1))


def _divisors(n):
    """The divisors of n, ascending, found by (charged) trial division."""
    small = [1] + [k for k in trial_divisors(lambda k: k * k <= n) if n % k == 0]
    return sorted({d for k in small for d in (k, n // k)})


def _ordered_factorizations(m, parts, divisors):
    """Ordered factorizations of m into ``parts`` factors from ``divisors``."""
    if parts == 0:
        return [[]] if m == 1 else []
    return [
        [d] + rest
        for d in divisors
        if m % d == 0
        for rest in _ordered_factorizations(m // d, parts - 1, divisors)
    ]


def _overlattice_forms(r, n):
    """The lattices n Z^r <= L <= Z^r of index n^(r-1), L = n M for the
    overlattices M, as upper-triangular HNF rows; one node per form built.

    Row i has diagonal d_i | n (n e_i is in L) and entries x_j in [0, d_j).
    Rows are built from the last one up.  With rows i+1 .. r-1 containing
    n e_{i+1} .. n e_{r-1}, n e_i is in L iff back substitution of k x,
    k = n / d_i, through them is exact: at column j, k x_j = c_j mod d_j for
    the carry c_j of the earlier columns, so x_j runs over one residue class
    modulo d_j / gcd(k, d_j), or none when gcd(k, d_j) does not divide c_j.
    The prefixes passing column j are the k-torsion of a quotient of the
    lower rows' cokernel, no more than the rows they extend to, and x = 0
    always passes, so the work is bounded by the forms built.
    """
    charge = _node_meter("overlattice enumeration")

    def entries(k, lower, xs, carry):
        t = len(xs)
        if t == len(lower):
            yield xs
            return
        low = lower[t]
        dt, c = low[t], carry[t]
        g = math.gcd(k, dt)
        if c % g:
            return
        step = dt // g
        for x in range(c // g * pow(k // g, -1, step) % step, dt, step):
            q = (k * x - c) // dt
            yield from entries(k, lower, xs + (x,), [a + q * b for a, b in zip(carry, low)])

    def forms(diag, i, lower):
        tails = [low[i + 1:] for low in lower]
        for xs in entries(n // diag[i], tails, (), [0] * len(tails)):
            block = ((0,) * i + (diag[i],) + xs,) + lower
            if i:
                yield from forms(diag, i - 1, block)
            else:
                charge()
                yield block

    m = n ** (r - 1)
    for diag in _ordered_factorizations(m, r, _divisors(math.gcd(m, n))):
        yield from forms(diag, r - 1, ())


def enumerate_overlattices(r, n, sigma=None):
    """All M with L <= M <= L tensor Q and [M : L] = n, L = Z^r.

    n must be coprime to the prime set; otherwise CoprimalityError.
    Deterministic, duplicate-free.  The enumeration is charged to the node
    budget (``_overlattice_forms``).
    """
    if n < 1:
        raise ValueError("index must be >= 1")
    if sigma is not None and not sigma.coprime(n):
        raise CoprimalityError(
            f"index {n} is not coprime to the prime set {sigma.describe()}"
        )
    if r == 0:
        if n == 1:
            return [Overlattice(1, ())]
        return []
    return sorted(
        (_overlattice_of_hnf(n, rows) for rows in _overlattice_forms(r, n)),
        key=lambda o: o.rows,
    )


def _overlattice_of_hnf(den, rows):
    """Overlattice(den, rows) for rows in canonical HNF, its lattice filled in."""
    ov = Overlattice(den, rows)
    ov.lattice = Lattice._of_hnf(rows)
    return ov
