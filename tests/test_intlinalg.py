import random
from math import gcd

from nilnov.fields import QQ, rank
from nilnov.intlinalg import (diagonal_form, hermite_row_form, identity,
                              invert_unimodular, minimal_multiple_in_lattice,
                              saturate_rows, solve_in_lattice,
                              solve_mod_lattice)


def rand_mat(rng, m, n, bound=6):
    return [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(m)]


def mat_mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def combination(coeffs, rows, n):
    return [sum(c * row[j] for c, row in zip(coeffs, rows)) for j in range(n)]


def test_hermite_properties():
    rng = random.Random(1)
    for _ in range(150):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        A = rand_mat(rng, m, n)
        H, U = hermite_row_form(A, n)
        UA = mat_mul(U, A)
        assert UA[:len(H)] == H
        assert all(not any(r) for r in UA[len(H):])
        last = -1
        for row in H:
            piv = next(j for j in range(n) if row[j])
            assert piv > last and row[piv] > 0
            last = piv


def test_diagonal_form_properties():
    rng = random.Random(2)
    for _ in range(150):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        A = rand_mat(rng, m, n)
        D, U, V = diagonal_form(A, m, n)
        assert mat_mul(mat_mul(U, A), V) == D
        invert_unimodular(U)
        invert_unimodular(V)
        for i in range(m):
            for j in range(n):
                if i != j:
                    assert D[i][j] == 0
        # positive entries first, as many as the rank
        diag = [D[i][i] for i in range(min(m, n))]
        r = rank(A, QQ)
        assert all(d > 0 for d in diag[:r]) and not any(diag[r:])


def test_unimodular_inverse():
    rng = random.Random(3)
    for _ in range(80):
        n = rng.randint(1, 4)
        M = identity(n)
        for _ in range(8):
            i, j = rng.randrange(n), rng.randrange(n)
            if i != j:
                q = rng.randint(-3, 3)
                for r in range(n):
                    M[i][r] += q * M[j][r]
        assert mat_mul(M, invert_unimodular(M)) == identity(n)


def test_saturation_is_idempotent_and_contains():
    rng = random.Random(4)
    for _ in range(120):
        m, n = rng.randint(1, 3), rng.randint(1, 4)
        rows = rand_mat(rng, m, n, 4)
        sat = saturate_rows(rows, n)
        assert saturate_rows(sat, n) == sat
        for r in rows:
            assert solve_in_lattice(sat, r) is not None
        assert len(sat) == rank(rows, QQ)


def test_solvers():
    rng = random.Random(5)
    for _ in range(120):
        m, n = rng.randint(1, 3), rng.randint(1, 4)
        rows = rand_mat(rng, m, n, 4)
        coeffs = [rng.randint(-3, 3) for _ in range(m)]
        target = combination(coeffs, rows, n)
        found = solve_in_lattice(rows, target)
        assert found is not None
        assert combination(found, rows, n) == target

    assert solve_in_lattice([[2, 0]], [1, 0]) is None
    d, c = minimal_multiple_in_lattice([[2, 0], [0, 2]], [1, 1])
    assert d == 2 and c == [1, 1]
    assert minimal_multiple_in_lattice([[1, 0]], [0, 1]) is None

    y = solve_mod_lattice(2, [1, 0], [[1, 2]], 2)
    assert y is not None
    shifted = [2 * y[0] + 1, 2 * y[1] + 0]
    assert solve_in_lattice([[1, 2]], shifted) is not None
    assert solve_mod_lattice(2, [1], [], 1) is None


def _check_minimal_multiple(rows, v, n):
    """minimal_multiple_in_lattice against the least d found by trying
    d = 1, 2, ... with solve_in_lattice."""
    found = minimal_multiple_in_lattice(rows, v)
    if found is None:
        assert rank(rows + [v], QQ) > rank(rows, QQ)
        return
    d, coeffs = found
    assert d >= 1 and combination(coeffs, rows, n) == [d * x for x in v]
    for smaller in range(1, d):
        assert solve_in_lattice(rows, [smaller * x for x in v]) is None


def _saturated_vector(rng, rows, n):
    """A primitive vector of the Q-span of `rows` (zero when they are)."""
    v = combination([rng.randint(-3, 3) for _ in rows], rows, n)
    g = 0
    for x in v:
        g = gcd(g, x)
    return [x // g for x in v] if g else v


def test_minimal_multiple_independent_rows():
    rng = random.Random(6)
    for _ in range(300):
        n = rng.randint(1, 4)
        H, _ = hermite_row_form(rand_mat(rng, rng.randint(1, n), n, 5), n)
        if not H:
            continue
        v = _saturated_vector(rng, H, n) if rng.random() < 0.8 else rand_mat(rng, 1, n, 4)[0]
        _check_minimal_multiple(H, v, n)


def test_minimal_multiple_dependent_rows():
    # more rows than the rank: a rational solution through one independent
    # subset of the rows can need a larger d than the minimum
    rng = random.Random(7)
    for _ in range(300):
        n = rng.randint(1, 3)
        base = rand_mat(rng, rng.randint(1, n), n, 4)
        rows = base + [combination([rng.randint(-2, 2) for _ in base], base, n)
                       for _ in range(rng.randint(1, 2))]
        rng.shuffle(rows)
        v = _saturated_vector(rng, rows, n) if rng.random() < 0.8 else rand_mat(rng, 1, n, 4)[0]
        _check_minimal_multiple(rows, v, n)
    # (2,0) and (3,0) span Z*(1,0), though neither row alone reaches (1,0)
    d, coeffs = minimal_multiple_in_lattice([[2, 0], [3, 0]], [1, 0])
    assert d == 1 and combination(coeffs, [[2, 0], [3, 0]], 2) == [1, 0]
