"""Tests of the benchmark's oracles: each accepts a right answer worked out
by hand and rejects a deliberately wrong one.  No nilnov code is used."""

from fractions import Fraction
from math import comb

import pytest

import oracles
from oracles import Mismatch

CHI = {"a": 1, "b": 1, "c": 1}


def _series(terms):
    return oracles.heis_element({tuple(w): Fraction(c) for w, c in terms})


# -- Heisenberg triples


def test_heis_relation_and_powers():
    assert oracles.heis_word([("b", 1), ("a", 1)]) == \
        oracles.heis_word([("a", 1), ("b", 1), ("c", 1)])
    for p in [(1, 0, 0), (0, 1, 0), (2, -3, 5)]:
        for n in range(-4, 5):
            acc = (0, 0, 0)
            step = p if n >= 0 else oracles.heis_pow(p, -1)
            for _ in range(abs(n)):
                acc = oracles.heis_mul(acc, step)
            assert oracles.heis_pow(p, n) == acc
    assert oracles.heis_mul(oracles.heis_pow((2, -3, 5), -1), (2, -3, 5)) == (0, 0, 0)


def _geometric(frontier):
    """(1 - a)^-1 = sum a^k, worked out by hand below the frontier."""
    return _series([([("a", k)], 1) for k in range(frontier[0])])


def test_check_inverse_accepts_geometric_series():
    beta = _series([([], 1), ([("a", 1)], -1)])
    oracles.check_inverse(beta, _geometric((6, 6)), CHI, (6, 6))


def test_check_inverse_rejects_wrong_coefficient():
    beta = _series([([], 1), ([("a", 1)], -1)])
    gamma = _geometric((6, 6))
    gamma[oracles.heis_word([("a", 3)])] = Fraction(2)
    with pytest.raises(Mismatch):
        oracles.check_inverse(beta, gamma, CHI, (6, 6))


def test_check_inverse_rejects_one_sided_inverse():
    # 1 - a b and the series sum (b a)^k agree only up to powers of c
    beta = _series([([], 1), ([("a", 1), ("b", 1)], -1)])
    gamma = _series([([("b", 1), ("a", 1)] * k, 1) for k in range(4)])
    with pytest.raises(Mismatch):
        oracles.check_inverse(beta, gamma, CHI, (8, 8))


def test_check_multiplies_back():
    # (1 - (1 - c)^-1 a)^-1 has (1 - c - a) * R = 1 - c; R = sum_k ((1-c)^-1 a)^k
    # with (1-c)^-1 = sum_j c^j, which is central.
    frontier = (4, 4)
    R = {}
    for k in range(frontier[0]):
        for j in range(frontier[1] + 4):
            # ((1-c)^-1 a)^k = a^k (1-c)^-k, and (1-c)^-k = sum_j C(j+k-1, j) c^j
            cf = comb(j + k - 1, j) if k else int(j == 0)
            if cf:
                t = oracles.heis_word([("a", k), ("c", j)])
                R[t] = R.get(t, 0) + Fraction(cf)
    den = _series([([], 1), ([("c", 1)], -1), ([("a", 1)], -1)])
    num = _series([([], 1), ([("c", 1)], -1)])
    oracles.check_multiplies_back(den, R, num, CHI, frontier)
    R[oracles.heis_word([("a", 1), ("c", 1)])] += 1
    with pytest.raises(Mismatch):
        oracles.check_multiplies_back(den, R, num, CHI, frontier)


# -- Magnus embedding of F23


def _ladder(n):
    # b^n a^n = a^n b^n c^(n^2) d^(n C(n,2)) e^(n C(n,2)) in F23
    nf = [("a", n), ("b", n), ("c", n * n), ("d", n * comb(n, 2)), ("e", n * comb(n, 2))]
    return [(g, e) for g, e in nf if e]


@pytest.mark.parametrize("n", [1, 2, 5, 8])
def test_check_collected_accepts_ladder(n):
    oracles.check_collected([("b", n), ("a", n)], _ladder(n))


def test_check_collected_rejects_wrong_exponent():
    wrong = _ladder(5)
    wrong[4] = ("e", wrong[4][1] + 1)
    with pytest.raises(Mismatch):
        oracles.check_collected([("b", 5), ("a", 5)], wrong)


def test_check_collected_rejects_bad_shape():
    word = [("a", 2), ("b", 1)]
    with pytest.raises(Mismatch):
        oracles.check_collected(word, [("b", 1), ("a", 2)])      # wrong order
    with pytest.raises(Mismatch):
        oracles.check_collected(word, [("a", 1), ("a", 1), ("b", 1)])  # repeated index
    with pytest.raises(Mismatch):
        oracles.check_collected(word, [("a", 2), ("b", 1), ("c", 0)])  # zero exponent


def test_magnus_images_are_nontrivial_and_central_on_top():
    one = {(): 1}
    for g in "cde":
        assert oracles.F23_IMAGES[g] != one
    for top in "de":
        for g in "abc":
            assert oracles.magnus_word([(top, 1), (g, 1)]) == \
                oracles.magnus_word([(g, 1), (top, 1)])


# -- criterion corpus


def test_corpus_verdicts():
    oracles.check_cd_drop("z2", oracles.CD_DROP)
    with pytest.raises(Mismatch):
        oracles.check_cd_drop("z2", "inconclusive")
    oracles.check_one_sided("bs12", [("+", "inconclusive", True),
                                     ("-", oracles.VANISHES, True)])
    for wrong in ([("+", oracles.VANISHES, True), ("-", oracles.VANISHES, True)],
                  [("+", "inconclusive", True), ("-", oracles.VANISHES, False)],
                  [("+", "inconclusive", True), ("-", "inconclusive", True)]):
        with pytest.raises(Mismatch):
            oracles.check_one_sided("bs12", wrong)


def test_euler_identity():
    counts = oracles.presentation_counts(
        "group mt\ngens a b t\nrel t a t^-1 b^-1\nrel t b t^-1 b^-1 a^-1  # comment\n")
    assert counts == (3, 2)
    oracles.check_euler("mt", {0: 0, 1: 0, 2: 0}, counts)
    oracles.check_euler("mt", {0: None, 1: 1, 2: 0}, counts)   # undetermined: skipped
    with pytest.raises(Mismatch):
        oracles.check_euler("mt", {0: 0, 1: 1, 2: 0}, counts)
