import pathlib
import random
from fractions import Fraction

import pytest

from nilnov import (GroupRing, LexOrder, MultiChar, QQ, fit_character,
                    fit_multicharacter, frac_invert, is_compatible,
                    parse_mchar)
from nilnov.charorder import format_mchar
from nilnov.errors import Infeasible
from nilnov.fracparse import parse_fraction_expr

DATA = pathlib.Path(__file__).parents[1] / "demos" / "data"


def rand_elt(rng, G, length=3, emax=3):
    return G.collect([(rng.randrange(G.ngens), rng.choice([e for e in range(-emax, emax + 1) if e]))
                      for _ in range(length)])


class TestFitCharacter:
    def test_small_chain(self):
        v = fit_character(2, [(0, 1), (1, 0), (1, 1)])
        # canonical interior point; the contract is the inequalities
        assert v == [Fraction(2), Fraction(1)]
        chain = [(0, 1), (1, 0), (1, 1)]
        values = [sum(c * x for c, x in zip(v, p)) for p in chain]
        assert values[0] < values[1] < values[2]

    def test_singleton_chain(self):
        assert fit_character(1, [(5,)]) == [Fraction(1)]

    def test_cyclic_constraint_infeasible(self):
        with pytest.raises(Infeasible):
            fit_character(2, [(1, 0), (0, 1), (1, 1), (0, 0)])

    def test_random_chains_strictly_preserved(self, z3group):
        rng = random.Random(3)
        for _ in range(60):
            rows = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(2)]
            order = LexOrder(z3group, {0: rows})
            pts = set()
            while len(pts) < 5:
                pts.add(tuple(rng.randint(-5, 5) for _ in range(3)))
            chain = sorted(pts, key=lambda v: order.vector_key(0, list(v)))
            v = fit_character(3, chain)
            values = [sum(c * x for c, x in zip(v, p)) for p in chain]
            assert all(x < y for x, y in zip(values, values[1:]))


class TestLexOrder:
    def test_reflexive(self, heis):
        g = heis.collect(heis.parse_word("a b^2"))
        assert LexOrder(heis).compare(g, g) == 0

    def test_center_below_level0(self, heis):
        order = LexOrder(heis)
        c = heis.generator(heis.index["c"])
        a = heis.generator(heis.index["a"])
        assert order.compare(c, a) == -1

    def test_irrational_proxy_resolves_exactly(self, z2group):
        order = LexOrder(z2group, {0: [[1, Fraction(1000000, 999999)]]})
        a = z2group.generator(0)
        b6 = z2group.pow(z2group.generator(1), 1000000)
        assert order.compare(a, b6) == -1  # 1 < 10^12/999999

    def test_axioms_random(self, heis, z3group):
        rng = random.Random(5)
        for G in (heis, z3group):
            order = LexOrder(G)
            for _ in range(200):
                g, h, t = (rand_elt(rng, G) for _ in range(3))
                s = order.compare(g, h)
                assert s == order.compare(G.mul(t, g), G.mul(t, h))
                assert s == order.compare(G.mul(g, t), G.mul(h, t))
                assert order.compare(h, g) == -s
                assert (s == 0) == (g == h)


class TestMultiChar:
    def test_mchar_roundtrip(self, heis):
        chi = parse_mchar("char 0: a=1 b=0\nchar 1: c=1/2\n", heis)
        assert chi.deg(heis.collect(heis.parse_word("a^2 c^3"))) == \
            (Fraction(2), Fraction(3, 2))
        again = parse_mchar(format_mchar(chi), heis)
        assert again.components == chi.components

    def test_sign_flip(self, heis):
        chi = MultiChar(heis, [[1, 0], [1]])
        flipped = chi.with_signs([1, -1])
        assert flipped.components[1] == [Fraction(-1)]


class TestIntegerDegrees:
    """Character values are ints when integral, and deg is the sum of
    chi_i over each level's syllables, as level_vector computes them."""

    @staticmethod
    def fraction_deg(chi, g):
        group = chi.group
        return tuple(sum((Fraction(c) * x for c, x in zip(comp, group.level_vector(g, i))),
                         Fraction(0))
                     for i, comp in enumerate(chi.components))

    def test_integral_values_are_ints(self, heis):
        chi = MultiChar(heis, [[Fraction(4, 2), -1], ["3"]])
        assert [[type(v) for v in comp] for comp in chi.components] == [[int, int], [int]]
        assert chi.components[0] == [2, -1]
        half = MultiChar(heis, [[Fraction(1, 2), 0], [1]])
        assert half.components[0][0] == Fraction(1, 2)

    @pytest.mark.parametrize("name,values", [
        ("heis", [[1, -2], [3]]),
        ("heis", [[Fraction(1, 2), Fraction(-2, 3)], [Fraction(3, 4)]]),
        ("free_class3", [[2, -1], [1], [1, -3]]),
        ("free_class3", [[Fraction(1, 3), 1], [Fraction(-5, 2)], [0, Fraction(7, 4)]]),
    ])
    def test_deg_matches_fraction_formula(self, request, name, values):
        G = request.getfixturevalue(name)
        chi = MultiChar(G, values)
        integral = all(Fraction(v).denominator == 1 for comp in values for v in comp)
        rng = random.Random(name + str(values))
        for _ in range(40):
            g = rand_elt(rng, G, length=4)
            d = chi.deg(g)
            assert d == self.fraction_deg(chi, g)
            if integral:
                assert all(type(x) is int for x in d)


class TestCompatibility:
    def _ring(self, G):
        return GroupRing(G, QQ)

    def test_trivial_fraction(self, heis):
        chi = MultiChar(heis, [[0, 0], [0]])
        assert is_compatible(chi, self._ring(heis).monomial(3, ()))

    def test_denominator_one_minus_a(self, zgroup):
        ring = self._ring(zgroup)
        frac = frac_invert(ring.parse("1 - t"))
        assert is_compatible(MultiChar(zgroup, [[1]]), frac)
        assert not is_compatible(MultiChar(zgroup, [[0]]), frac)

    def test_fit_single_fraction_over_z(self, zgroup):
        ring = self._ring(zgroup)
        frac = frac_invert(ring.parse("1 - t"))
        order = LexOrder(zgroup)
        chi = fit_multicharacter([frac], zgroup, order)
        assert chi.components[0] == [Fraction(1)]
        assert is_compatible(chi, frac, order)

    def test_fit_heisenberg_two_levels(self, heis):
        ring = self._ring(heis)
        frac = frac_invert(ring.parse("1 - a - c"))
        order = LexOrder(heis)
        chi = fit_multicharacter([frac], heis, order)
        assert chi.components == [[Fraction(1), Fraction(0)], [Fraction(1)]]
        assert is_compatible(chi, frac, order)

    def test_fit_trivial_gives_zero_components(self, heis):
        ring = self._ring(heis)
        order = LexOrder(heis)
        chi = fit_multicharacter([ring.monomial(2, ())], heis, order)
        assert chi.is_zero()

    def test_fit_reads_a_finite_node_by_its_numerator(self, free_class3):
        # the finite node -d^-2 e / 1 inside a a (2 - e c)^-1 a has one term;
        # the identity of its denominator constrains no chi_2, so fitting and
        # the compatibility test agree on the fraction
        frac = parse_fraction_expr("a a (2 - e c)^-1 (a)", self._ring(free_class3))
        order = LexOrder(free_class3)
        chi = fit_multicharacter([frac], free_class3, order)
        assert is_compatible(chi, frac, order)
        assert is_compatible(parse_mchar((DATA / "chi_f23.mchar").read_text(), free_class3), frac)

    def test_plain_element_is_compatible(self, zgroup):
        # a finite element is a fraction without nodes: every chi fits it
        x = self._ring(zgroup).parse("1 - t")
        assert is_compatible(MultiChar(zgroup, [[1]]), x)
        assert is_compatible(MultiChar(zgroup, [[0]]), x, LexOrder(zgroup))

    def test_fit_plain_element_gives_zero_components(self, zgroup):
        x = self._ring(zgroup).parse("1 - t")
        chi = fit_multicharacter([x], zgroup, LexOrder(zgroup))
        assert chi.components == [[0]] and chi.is_zero()

    def test_explicit_order_strictness(self, zgroup):
        ring = self._ring(zgroup)
        frac = frac_invert(ring.parse("1 - t"))
        order = LexOrder(zgroup)
        # chi(t) < 0 reverses the order on {1, t}: incompatible with ord
        assert not is_compatible(MultiChar(zgroup, [[-1]]), frac, order)
        # but compatible with the reversed order, whose primary row is -1
        assert is_compatible(MultiChar(zgroup, [[-1]]), frac, LexOrder(zgroup, {0: [[-1]]}))
