"""Exact integer matrix normal forms: Hermite and Smith, with transforms.

Everything works on lists of lists of Python ints, so there is no coefficient
overflow.  Rows span lattices; all routines are deterministic.
"""

from fractions import Fraction
from math import gcd


def _copy(mat):
    return [list(row) for row in mat]


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    if not a or not b:
        return [[0] * (len(b[0]) if b else 0) for _ in a]
    n, m, l = len(a), len(b), len(b[0])
    out = [[0] * l for _ in range(n)]
    for i in range(n):
        ai = a[i]
        oi = out[i]
        for k in range(m):
            c = ai[k]
            if c:
                bk = b[k]
                for j in range(l):
                    oi[j] += c * bk[j]
    return out


def hermite_row_form(mat, ncols=None):
    """Row Hermite normal form.

    Returns (H, U) with U unimodular, U*mat = H, H in row echelon form with
    positive pivots and entries above each pivot reduced into [0, pivot).
    Zero rows of H are trimmed.
    """
    if ncols is None:
        ncols = len(mat[0]) if mat else 0
    H = _copy(mat)
    m = len(H)
    U = identity(m)
    row = 0
    for col in range(ncols):
        piv = None
        for i in range(row, m):
            if H[i][col]:
                piv = i
                break
        if piv is None:
            continue
        # Euclid down the column.
        for i in range(piv + 1, m):
            while H[i][col]:
                q = H[piv][col] // H[i][col]
                H[piv] = [x - q * y for x, y in zip(H[piv], H[i])]
                U[piv] = [x - q * y for x, y in zip(U[piv], U[i])]
                H[piv], H[i] = H[i], H[piv]
                U[piv], U[i] = U[i], U[piv]
        if H[piv][col] == 0:
            continue
        H[row], H[piv] = H[piv], H[row]
        U[row], U[piv] = U[piv], U[row]
        if H[row][col] < 0:
            H[row] = [-x for x in H[row]]
            U[row] = [-x for x in U[row]]
        d = H[row][col]
        for i in range(row):
            q = H[i][col] // d
            if q:
                H[i] = [x - q * y for x, y in zip(H[i], H[row])]
                U[i] = [x - q * y for x, y in zip(U[i], U[row])]
        row += 1
    return H[:row], U


def smith_normal_form(mat, nrows=None, ncols=None):
    """Smith normal form with transforms: returns (D, U, V), U*mat*V = D.

    D is diagonal with d_1 | d_2 | ... ; U, V unimodular.
    """
    if nrows is None:
        nrows = len(mat)
    if ncols is None:
        ncols = len(mat[0]) if mat else 0
    D = _copy(mat)
    U = identity(nrows)
    V = identity(ncols)

    def row_op(i, j, q):  # row_i -= q * row_j
        D[i] = [x - q * y for x, y in zip(D[i], D[j])]
        U[i] = [x - q * y for x, y in zip(U[i], U[j])]

    def col_op(i, j, q):  # col_i -= q * col_j
        for r in range(nrows):
            D[r][i] -= q * D[r][j]
        for r in range(ncols):
            V[r][i] -= q * V[r][j]

    def row_swap(i, j):
        D[i], D[j] = D[j], D[i]
        U[i], U[j] = U[j], U[i]

    def col_swap(i, j):
        for r in range(nrows):
            D[r][i], D[r][j] = D[r][j], D[r][i]
        for r in range(ncols):
            V[r][i], V[r][j] = V[r][j], V[r][i]

    t = 0
    while True:
        # find a pivot of minimal absolute value in the remaining block
        piv = None
        best = None
        for i in range(t, nrows):
            for j in range(t, ncols):
                v = abs(D[i][j])
                if v and (best is None or v < best):
                    best = v
                    piv = (i, j)
        if piv is None:
            break
        i, j = piv
        if i != t:
            row_swap(t, i)
        if j != t:
            col_swap(t, j)
        # clear row and column t
        dirty = True
        while dirty:
            dirty = False
            for i in range(t + 1, nrows):
                if D[i][t]:
                    q = D[i][t] // D[t][t]
                    row_op(i, t, q)
                    if D[i][t]:
                        row_swap(t, i)
                        dirty = True
            for j in range(t + 1, ncols):
                if D[t][j]:
                    q = D[t][j] // D[t][t]
                    col_op(j, t, q)
                    if D[t][j]:
                        col_swap(t, j)
                        dirty = True
        if D[t][t] < 0:
            D[t] = [-x for x in D[t]]
            U[t] = [-x for x in U[t]]
        t += 1

    # enforce divisibility d_t | d_{t+1}
    rank = t
    changed = True
    while changed:
        changed = False
        for s in range(rank - 1):
            a, b = D[s][s], D[s + 1][s + 1]
            if b % a:
                # add col s+1 to col s, then re-eliminate the 2x2 block
                for r in range(nrows):
                    D[r][s] += D[r][s + 1]
                for r in range(ncols):
                    V[r][s] += V[r][s + 1]
                while D[s + 1][s]:
                    q = D[s][s] // D[s + 1][s]
                    D[s] = [x - q * y for x, y in zip(D[s], D[s + 1])]
                    U[s] = [x - q * y for x, y in zip(U[s], U[s + 1])]
                    D[s], D[s + 1] = D[s + 1], D[s]
                    U[s], U[s + 1] = U[s + 1], U[s]
                q = D[s][s + 1] // D[s][s]
                for r in range(nrows):
                    D[r][s + 1] -= q * D[r][s]
                for r in range(ncols):
                    V[r][s + 1] -= q * V[r][s]
                if D[s][s] < 0:
                    D[s] = [-x for x in D[s]]
                    U[s] = [-x for x in U[s]]
                if D[s + 1][s + 1] < 0:
                    D[s + 1] = [-x for x in D[s + 1]]
                    U[s + 1] = [-x for x in U[s + 1]]
                changed = True
    return D, U, V


def lattice_rank(rows, n):
    H, _ = hermite_row_form(rows, n)
    return len(H)


def saturate_rows(rows, n):
    """Basis of the saturation (Q-span of rows) intersect Z^n, as HNF rows."""
    rows = [r for r in rows if any(r)]
    if not rows:
        return []
    D, _U, V = smith_normal_form(rows, len(rows), n)
    rank = 0
    for i in range(min(len(rows), n)):
        if D[i][i]:
            rank += 1
    # rows of V^{-1} give a basis of Z^n in which the lattice is spanned by
    # d_i * e_i; the saturation is spanned by the first `rank` basis vectors.
    Vinv = invert_unimodular(V)
    sat = [Vinv[i] for i in range(rank)]
    H, _ = hermite_row_form(sat, n)
    return H


def invert_unimodular(V):
    """Inverse of a unimodular integer matrix, exactly."""
    n = len(V)
    H, U = hermite_row_form(_copy(V), n)
    # V unimodular => H must be the identity, so U = V^{-1}.
    if len(H) != n or any(H[i][j] != (1 if i == j else 0) for i in range(n) for j in range(n)):
        raise ValueError("matrix is not unimodular")
    return U


def solve_in_lattice(rows, target):
    """Integer coefficients c with sum_i c_i * rows_i == target, or None."""
    rows = list(rows)
    if not rows:
        return [] if not any(target) else None
    n = len(target)
    H, U = hermite_row_form(rows, n)
    coeffs = [0] * len(rows)
    t = list(target)
    for row_idx, hrow in enumerate(H):
        # pivot column of this HNF row
        pc = next(j for j in range(n) if hrow[j])
        if t[pc] % hrow[pc]:
            return None
        q = t[pc] // hrow[pc]
        if q:
            t = [x - q * y for x, y in zip(t, hrow)]
            for k in range(len(rows)):
                coeffs[k] += q * U[row_idx][k]
    if any(t):
        return None
    return coeffs


def member_of_lattice(rows, target):
    return solve_in_lattice(rows, target) is not None


def minimal_multiple_in_lattice(rows, v):
    """A small d >= 1 with d*v in the row lattice, with integer coefficients.

    Returns (d, coeffs) with d*v == sum_i coeffs_i * rows_i, or None when no
    multiple of v lies in the Q-span of the rows.  d is the lcm of the
    denominators of the pivot solution (minimal for independent rows).
    """
    if not any(v):
        return 1, [0] * len(rows)
    if not rows:
        return None
    n = len(v)
    # solve over Q by row-reducing rows^T | v^T
    cols = len(rows)
    A = [[Fraction(rows[j][i]) for j in range(cols)] + [Fraction(v[i])] for i in range(n)]
    # gaussian elimination
    r = 0
    pivots = []
    for c in range(cols):
        pr = next((i for i in range(r, n) if A[i][c]), None)
        if pr is None:
            continue
        A[r], A[pr] = A[pr], A[r]
        pv = A[r][c]
        A[r] = [x / pv for x in A[r]]
        for i in range(n):
            if i != r and A[i][c]:
                f = A[i][c]
                A[i] = [x - f * y for x, y in zip(A[i], A[r])]
        pivots.append(c)
        r += 1
    for i in range(r, n):
        if A[i][cols]:
            return None  # v not in the Q-span
    coeffs_q = [Fraction(0)] * cols
    for i, c in enumerate(pivots):
        coeffs_q[c] = A[i][cols]
    d = 1
    for q in coeffs_q:
        d = d * q.denominator // gcd(d, q.denominator)
    exact = solve_in_lattice(rows, [d * x for x in v])
    if exact is None:
        raise AssertionError("integer solution must exist once denominators are cleared")
    return d, exact


def solve_mod_lattice(d, r, rows, n):
    """Integer y with d*y + r in the row lattice, or None.

    Solves d*y == -r (mod L) where L is spanned by `rows` in Z^n.
    """
    stacked = [[d if j == i else 0 for j in range(n)] for i in range(n)] + list(rows)
    coeffs = solve_in_lattice(stacked, [-x for x in r])
    if coeffs is None:
        return None
    return coeffs[:n]
