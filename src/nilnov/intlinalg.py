"""Exact integer matrix normal forms: Hermite and diagonal, with transforms.

Everything works on lists of lists of Python ints, so there is no coefficient
overflow.  Rows span lattices; all routines are deterministic.  Membership
and solving go through the row Hermite form; saturation and minimal
multiples go through one diagonal form U*A*V = D.
"""

from math import gcd


def _copy(mat):
    return [list(row) for row in mat]


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def hermite_row_form(mat, ncols):
    """Row Hermite normal form.

    Returns (H, U) with U unimodular, U*mat = H, H in row echelon form with
    positive pivots and entries above each pivot reduced into [0, pivot).
    Zero rows of H are trimmed.
    """
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
        # Euclid leaves the column's gcd at piv, nonzero as H[piv][col] was
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


def diagonal_form(mat, nrows, ncols):
    """Diagonal form with transforms: returns (D, U, V), U*mat*V = D.

    U and V are unimodular; D is diagonal, its nonzero entries positive and
    first, so their count is the rank.  The divisibility chain of the Smith
    form is not enforced, because no caller needs it (Cohen, A Course in
    Computational Algebraic Number Theory, GTM 138, 2.4):

    - `saturate_rows` needs only the rank and the rows of V^-1, whose first
      rank rows span the saturation;
    - `quotient_by_normal` needs "every nonzero D_ii is 1", which holds
      exactly when the lattice is saturated (the product of the D_ii is
      the index of the lattice in its saturation), then reads the
      quotient coordinates off the columns of V past the rank and their
      lifts off the rows of V^-1 past the rank;
    - `minimal_multiple_in_lattice` reads d and its coefficients off D
      entry by entry.
    """
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
            return D, U, V
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


def saturate_rows(rows, n):
    """Basis of the saturation (Q-span of rows) intersect Z^n, as HNF rows."""
    D, _U, V = diagonal_form(rows, len(rows), n)
    rank = sum(1 for i in range(min(len(rows), n)) if D[i][i])
    # rows of V^{-1} give a basis of Z^n in which the lattice is spanned by
    # d_i * e_i; the saturation is spanned by the first `rank` basis vectors.
    H, _ = hermite_row_form(invert_unimodular(V)[:rank], n)
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


def minimal_multiple_in_lattice(rows, v):
    """The least d >= 1 with d*v in the row lattice, with integer coefficients.

    Returns (d, coeffs) with d*v == sum_i coeffs_i * rows_i, or None when no
    multiple of v lies in the Q-span of the rows.  With U*rows*V = D
    diagonal, the lattice is {y*D*V^-1 : y integral}, so d*v lies in it
    exactly when w = v*V has d*w_i = y_i*D_ii below the rank and w_i = 0
    beyond it.  Hence d = lcm_i D_ii / gcd(D_ii, w_i), and coeffs = y*U
    with y_i = d*w_i / D_ii, for dependent rows as well.
    """
    m, n = len(rows), len(v)
    D, U, V = diagonal_form(rows, m, n)
    w = [sum(v[i] * V[i][j] for i in range(n)) for j in range(n)]
    rank = sum(1 for i in range(min(m, n)) if D[i][i])
    if any(w[rank:]):
        return None
    d = 1
    for i in range(rank):
        step = D[i][i] // gcd(D[i][i], w[i])
        d = d * step // gcd(d, step)
    y = [d * w[i] // D[i][i] for i in range(rank)]
    return d, [sum(y[i] * U[i][k] for i in range(rank)) for k in range(m)]


def solve_mod_lattice(d, r, rows, n):
    """Integer y with d*y + r in the row lattice, or None.

    Solves d*y == -r (mod L) where L is spanned by `rows` in Z^n.
    """
    stacked = [[d if j == i else 0 for j in range(n)] for i in range(n)] + list(rows)
    coeffs = solve_in_lattice(stacked, [-x for x in r])
    if coeffs is None:
        return None
    return coeffs[:n]
