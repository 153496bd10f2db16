"""Hot integer kernels: normal forms and Contejean-Devie completion.

Plain functions over lists of Python ints; everything is exact
arbitrary-precision arithmetic.
"""

from operator import mul, neg


def identity_matrix(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    n = len(a)
    k = len(b)
    m = len(b[0]) if k else 0
    out = []
    for i in range(n):
        ai = a[i]
        row = []
        for j in range(m):
            s = 0
            for t in range(k):
                if ai[t]:
                    s += ai[t] * b[t][j]
            row.append(s)
        out.append(row)
    return out


def mat_vec(a, v):
    out = []
    for row in a:
        s = 0
        for t in range(len(v)):
            if row[t]:
                s += row[t] * v[t]
        out.append(s)
    return out


def snf_with_transforms(a, return_u_inverse=False):
    """Smith normal form with its transforms.

    Returns (U, D, V) with U*A*V = D, U, V unimodular and the diagonal of D
    nonnegative with d1 | d2 | ...  Deterministic: pivots are chosen as the
    smallest |entry| with ties by position.  With ``return_u_inverse`` the
    result is (U, D, V, U^-1), U^-1 kept through the same row operations.
    V^-1 is never kept: its rows are rows of U*A = D*V^-1 divided by the d_i.
    """
    r = len(a)
    c = len(a[0]) if r else 0
    D = [list(row) for row in a]
    U = identity_matrix(r)
    V = identity_matrix(c)
    # rows of (U^-1)^T, the columns of U^-1, or None when not kept
    UinvT = identity_matrix(r) if return_u_inverse else None

    def row_add(i, k, q):
        # row_i += q * row_k
        D[i] = [x + q * y for x, y in zip(D[i], D[k])]
        U[i] = [x + q * y for x, y in zip(U[i], U[k])]
        if UinvT is not None:
            UinvT[k] = [x - q * y for x, y in zip(UinvT[k], UinvT[i])]

    def col_add(j, k, q):
        # col_j += q * col_k
        for t in range(r):
            D[t][j] += q * D[t][k]
        for t in range(c):
            V[t][j] += q * V[t][k]

    s = 0
    while s < r and s < c:
        # locate smallest nonzero |entry| in the trailing block
        pi = -1
        pj = -1
        best = 0
        for i in range(s, r):
            for j in range(s, c):
                e = D[i][j]
                if e != 0:
                    e = -e if e < 0 else e
                    if pi < 0 or e < best:
                        pi, pj, best = i, j, e
        if pi < 0:
            break
        if pi != s:
            D[s], D[pi] = D[pi], D[s]
            U[s], U[pi] = U[pi], U[s]
            if UinvT is not None:
                UinvT[s], UinvT[pi] = UinvT[pi], UinvT[s]
        if pj != s:
            for t in range(r):
                D[t][s], D[t][pj] = D[t][pj], D[t][s]
            for t in range(c):
                V[t][s], V[t][pj] = V[t][pj], V[t][s]
        if D[s][s] < 0:
            D[s] = [-x for x in D[s]]
            U[s] = [-x for x in U[s]]
            if UinvT is not None:
                UinvT[s] = [-x for x in UinvT[s]]

        clean = True
        for i in range(s + 1, r):
            if D[i][s] != 0:
                q = D[i][s] // D[s][s]
                if q:
                    row_add(i, s, -q)
                if D[i][s] != 0:
                    clean = False
        for j in range(s + 1, c):
            if D[s][j] != 0:
                q = D[s][j] // D[s][s]
                if q:
                    col_add(j, s, -q)
                if D[s][j] != 0:
                    clean = False
        if not clean:
            continue

        # enforce divisibility of the remaining block by D[s][s]
        bad = False
        for i in range(s + 1, r):
            for j in range(s + 1, c):
                if D[i][j] % D[s][s] != 0:
                    row_add(s, i, 1)
                    bad = True
                    break
            if bad:
                break
        if bad:
            continue
        s += 1

    if UinvT is not None:
        return U, D, V, [list(col) for col in zip(*UinvT)]
    return U, D, V


def hnf_rows(a):
    """Row-style Hermite normal form.

    Returns (H, pivots): H = T*A for some unimodular T (not kept), in row
    echelon form with positive pivots, entries above each pivot reduced
    into [0, pivot), and zero rows at the bottom.
    """
    r = len(a)
    c = len(a[0]) if r else 0
    H = [list(row) for row in a]

    def row_add(i, k, q):
        H[i] = [x + q * y for x, y in zip(H[i], H[k])]

    pivots = []
    rank = 0
    for j in range(c):
        # reduce column j below the current rank to a single nonzero entry
        while True:
            pi = -1
            best = 0
            for i in range(rank, r):
                e = H[i][j]
                if e != 0:
                    e = -e if e < 0 else e
                    if pi < 0 or e < best:
                        pi, best = i, e
            if pi < 0:
                break
            done = True
            for i in range(rank, r):
                if i != pi and H[i][j] != 0:
                    q = H[i][j] // H[pi][j]
                    row_add(i, pi, -q)
                    if H[i][j] != 0:
                        done = False
            if done:
                if pi != rank:
                    H[rank], H[pi] = H[pi], H[rank]
                break
        if rank < r and H[rank][j] != 0:
            if H[rank][j] < 0:
                H[rank] = [-x for x in H[rank]]
            p = H[rank][j]
            for i in range(rank):
                q = H[i][j] // p
                if q:
                    row_add(i, rank, -q)
            pivots.append(j)
            rank += 1
            if rank == r:
                break
    return H, pivots


def cd_minimal_nonneg_solutions(amat, q, budget, spend, stop=None):
    """Minimal nonzero solutions of A v = 0 with v in N^q (Contejean-Devie).

    ``amat`` is an m x q integer matrix.  The search draws its nodes from a
    budget of ``budget`` nodes that other searches may share (those inside
    ``stop`` included): ``spend(k)`` adds k nodes and returns the nodes
    left, and is never asked for more than are left.  Returns the sorted
    list of minimal solutions, or None once the search needs more.

    ``stop``, if given, is called with each minimal solution (a tuple) in
    completion order: level by level, level 0 in column order,
    lexicographic within every later level.  A true result ends the search;
    the sorted list of the solutions reported so far is then returned.  A
    ``stop`` that never returns true leaves the result unchanged, None at
    every refused budget included.

    The search runs level by level from the unit vectors; the nodes of
    level k have coordinate sum k + 1.  Each level is spent in full when it
    begins: refused if it has more nodes than are left.  Its solutions (the
    nodes with A v = 0) go to ``stop`` first, in completion order; the
    nodes left are read again after them.  Then every other node v makes
    the children v + e_j with (A v) . A e_j < 0 that are new on the next
    level and lie above no solution found so far, which are those of this
    level and the earlier ones.  The search is refused as soon as the
    children made exceed the nodes left, since the next level would be
    refused on arrival; a given (A, budget) is refused at the same level
    whatever order a level's nodes are taken in.

    Every solution reported is minimal, and no node lies above a solution:
    a node of level k + 1 was made after the solutions of levels <= k were
    all known, and checked against them; a solution of level k + 1 has its
    coordinate sum, so lies below it only by being it.  Completion finds
    every minimal solution (Contejean-Devie).  Each level is a subset of
    the level that the interleaved search (children made node by node, in
    lexicographic order, each checked against the solutions found before
    its parent) reaches: level 0 is the same, and by induction every child
    made here is made there from the same parent, since a solution below it
    that was unknown there is known here.  So each (A, budget) answered by
    the interleaved search gets the same answer and the same ``stop``
    sequence here, and only its refusals can turn into answers.

    Mirror pairs.  When the columns are [B | -B] up to a permutation, as
    in the integrality system of a hom, ``_column_mirror`` pairs each
    column j with a column j' that is its negative, A e_j' = -A e_j.  Let
    v' be v with coordinates permuted by that involution: A v' = -A v, so
    (A v') . A e_j' = (A v) . A e_j, and s <= v iff s' <= v'.  The
    solutions are then closed under ', and by induction so is every level:
    a node is a solution iff its twin is, and v + e_j is a child iff
    (v + e_j)' = v' + e_j' is one, lying above a solution s iff the twin
    lies above s'.  So one node of each pair {v, v'} is expanded, keyed by
    the smaller packed int; its twin's packed vector and A^T A v' are
    carried along, one add each per child.  A node with v = v' has A v = 0
    and is a solution.  Both twins are reported and both are charged, so a
    node is one vector, and neither the result nor what ``stop`` sees nor
    where the search is refused depends on which involution is used.  A
    matrix of any other shape gets the identity: every node is its own
    twin, and the search is the one above.

    Encoding: a vector is one int with ``width``-bit fields, coordinate 0
    most significant, and a guard bit at the top of each field.  No
    coordinate exceeds ``budget + 1`` (a level-k node has coordinate sum
    k + 1, and at most ``budget`` levels are expanded), so the fields never
    overflow; v + e_j is ``v + unit[j]``, int order is the lexicographic
    order, and s <= v coordinatewise iff ``(v + guard - s) & guard ==
    guard``.  Each node carries |A v|^2 for the zero test and A^T A v,
    packed the same way in ``gwidth``-bit fields that each hold the
    coordinate plus ``bias = 2^(gwidth - 1)``.  A coordinate of A^T A v is at
    most max|A^T A| times the coordinate sum, at most ``budget + 1``; one
    bit more than that bound needs makes ``bias`` exceed it, so the fields
    never borrow.  A child's A^T A v is then one add of a packed Gram row,
    and the top bit of a field is clear exactly when its coordinate is
    negative, so ``~g & signs`` marks the children to make.  A child
    v + e_j of a node that lies above no solution can only lie above a
    solution s with s_j = v_j + 1, so only those are tried.
    """
    cols = list(zip(*amat)) or [()] * q
    mirror = _column_mirror(cols)
    gram = [[sum(map(mul, a, b)) for b in cols] for a in cols]
    width = (budget + 1).bit_length() + 1
    fmask = (1 << width) - 1
    shifts = [width * (q - 1 - j) for j in range(q)]
    unit = [1 << sh for sh in shifts]
    guard = sum(unit) << (width - 1)
    gbound = max((abs(x) for row in gram for x in row), default=0) * (budget + 1)
    gwidth = gbound.bit_length() + 1
    gmask = (1 << gwidth) - 1
    bias = 1 << (gwidth - 1)
    gshifts = [gwidth * (q - 1 - j) for j in range(q)]
    signs = sum(bias << sh for sh in gshifts)
    packed = [sum(x << sh for x, sh in zip(row, gshifts)) for row in gram]
    twin_unit = [unit[k] for k in mirror]
    twin_packed = [packed[k] for k in mirror]
    sols = []
    by_coord = [{} for _ in range(q)]  # j -> {s_j: solutions s with that s_j > 0}
    # min(v, v') -> (v, packed A^T A v, |A v|^2, v', packed A^T A v')
    level = {}
    for j in range(q):
        level[min(unit[j], twin_unit[j])] = (
            unit[j], signs + packed[j], gram[j][j], twin_unit[j], signs + twin_packed[j]
        )
    count = q
    first = True
    left = spend(0)
    while level:
        if count > left:
            return None
        left = spend(count)
        found = []
        inner = []
        for node in level.values():
            if node[2]:
                inner.append(node)
            else:
                found.append(node[0])
                if node[3] != node[0]:
                    found.append(node[3])
        # level 0 in column order, the unit vectors' decreasing ints
        found.sort(reverse=first)
        for v in found:
            sols.append(v)
            if stop is not None and stop(tuple((v >> sh) & fmask for sh in shifts)):
                return _unpack_sorted(sols, shifts, fmask)
        if stop is not None:
            left = spend(0)
        for v in found:
            for j in range(q):
                x = (v >> shifts[j]) & fmask
                if x:
                    by_coord[j].setdefault(x, []).append(v)
        nxt = {}
        count = 0
        for v, g, norm, tv, tg in inner:
            neg = ~g & signs
            while neg:
                bits = neg.bit_length()
                neg ^= 1 << (bits - 1)
                j = q - bits // gwidth
                w = v + unit[j]
                tw = tv + twin_unit[j]
                key = w if w < tw else tw
                if key in nxt:
                    continue
                wg = w + guard
                for s in by_coord[j].get((w >> shifts[j]) & fmask, ()):
                    if (wg - s) & guard == guard:
                        break
                else:
                    gj = ((g >> gshifts[j]) & gmask) - bias
                    nxt[key] = (
                        w, g + packed[j], norm + 2 * gj + gram[j][j], tw, tg + twin_packed[j]
                    )
                    count += 1 if w == tw else 2
                    if count > left:
                        return None
        level = nxt
        first = False
    return _unpack_sorted(sols, shifts, fmask)


def _column_mirror(cols):
    """An involution j -> j' of the columns ``cols`` (tuples) with
    A e_j' = -A e_j: each nonzero column paired with one equal to its
    negative, zero columns fixed.  The identity when some nonzero column
    has no such partner, since a fixed nonzero column would break
    A v' = -A v."""
    mirror = list(range(len(cols)))
    free = {}  # a column -> the indices of that column still unpaired
    for j, col in enumerate(cols):
        if any(col):
            partners = free.get(tuple(map(neg, col)))
            if partners:
                k = partners.pop()
                mirror[j], mirror[k] = k, j
            else:
                free.setdefault(col, []).append(j)
    return list(range(len(cols))) if any(free.values()) else mirror


def _unpack_sorted(sols, shifts, fmask):
    return [tuple((s >> sh) & fmask for sh in shifts) for s in sorted(sols)]
