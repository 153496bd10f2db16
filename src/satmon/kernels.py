"""Hot integer kernels: normal forms and Contejean-Devie completion.

Plain functions over lists of Python ints; everything is exact
arbitrary-precision arithmetic.
"""


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

    ``stop``, if given, is called with each minimal solution (a tuple) the
    moment it is found, in completion order: level by level, level 0 in
    column order, lexicographic within every later level.  A true result
    ends the search; the sorted list of the solutions found so far is then
    returned.  Up to that point the search expands exactly the nodes it
    expands without ``stop``, and a ``stop`` that never returns true leaves
    the result unchanged, None at every refused budget included.

    The search runs level by level from the unit vectors (level 0 in column
    order, later levels in increasing lexicographic order).  A node v with
    A v = 0 is a solution unless an earlier solution lies below it; any other
    node that no solution lies below gets the children v + e_j with
    (A v) . A e_j < 0 that are new on their level and lie above no solution.
    Every node of a level is spent when the level begins, so a given
    (A, budget) always expands the same nodes and is refused at the same
    level.  The refusal comes early: as soon as the children made for the
    next level exceed the nodes left, which are read again after each
    ``stop``.  The next level keeps every child made, so it would be
    refused on arrival; the answer at every budget is the one of counting
    whole levels.

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
    negative, so ``~g & signs`` marks the children to make.

    Domination is checked incrementally.  At creation a child v + e_j of a
    node that no solution lies below can only lie above a solution s with
    s_j = v_j + 1, so only those are tried.  At expansion a node is checked
    against the solutions found after it was made and before its level
    began; solutions on its own level have its coordinate sum and cannot lie
    below it.  The solutions found form an antichain, since a solution can
    only lie below nodes of higher levels.
    """
    gram = [[sum(row[j] * row[k] for row in amat) for k in range(q)] for j in range(q)]
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
    sols = []
    by_coord = [{} for _ in range(q)]  # j -> {s_j: solutions s with that s_j > 0}
    # node -> (packed A^T A v, |A v|^2, len(sols) when the node was made)
    level = {unit[j]: (signs + packed[j], gram[j][j], 0) for j in range(q)}
    order = unit
    left = spend(0)
    while order:
        if len(order) > left:
            return None
        left = spend(len(order))
        top = len(sols)
        nxt = {}
        for v in order:
            g, norm, mark = level[v]
            vg = v + guard
            for t in range(mark, top):
                if (vg - sols[t]) & guard == guard:
                    break
            else:
                if not norm:
                    sols.append(v)
                    if stop is not None:
                        if stop(tuple((v >> sh) & fmask for sh in shifts)):
                            return _unpack_sorted(sols, shifts, fmask)
                        left = spend(0)
                    for j in range(q):
                        x = (v >> shifts[j]) & fmask
                        if x:
                            by_coord[j].setdefault(x, []).append(v)
                    continue
                made = len(sols)
                neg = ~g & signs
                while neg:
                    bits = neg.bit_length()
                    neg ^= 1 << (bits - 1)
                    j = q - bits // gwidth
                    w = v + unit[j]
                    if w in nxt:
                        continue
                    wg = w + guard
                    for s in by_coord[j].get((w >> shifts[j]) & fmask, ()):
                        if (wg - s) & guard == guard:
                            break
                    else:
                        gj = ((g >> gshifts[j]) & gmask) - bias
                        nxt[w] = (g + packed[j], norm + 2 * gj + gram[j][j], made)
                        if len(nxt) > left:
                            return None
        level = nxt
        order = sorted(nxt)
    return _unpack_sorted(sols, shifts, fmask)


def _unpack_sorted(sols, shifts, fmask):
    return [tuple((s >> sh) & fmask for sh in shifts) for s in sorted(sols)]
