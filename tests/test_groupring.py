import random
from fractions import Fraction

import pytest

from nilnov import GF, GroupRing, MultiChar, QQ, augment, ring_mul
from nilnov.errors import MismatchedField, MismatchedGroup, ParseError
from nilnov.fracparse import parse_fraction_expr


def rand_ring_elt(rng, ring, nterms=3):
    G = ring.group
    terms = []
    for _ in range(nterms):
        g = G.collect([(rng.randrange(G.ngens), rng.randint(-2, 2)) for _ in range(2)])
        terms.append((g, Fraction(rng.randint(-4, 4))))
    return ring.from_terms(terms)


class TestRingMul:
    def test_commutative_polynomial_identity(self, zgroup):
        R = GroupRing(zgroup, QQ)
        assert ring_mul(R.parse("1 + t"), R.parse("1 - t")) == R.parse("1 - t^2")

    def test_collection_drives_products(self, heis):
        R = GroupRing(heis, QQ)
        assert ring_mul(R.parse("b"), R.parse("a")) == R.parse("a b c")

    def test_freshmans_dream(self, heis):
        R = GroupRing(heis, GF(2))
        sq = ring_mul(R.parse("1 + a"), R.parse("1 + a"))
        assert sq == R.parse("1 + a^2")

    def test_ring_axioms_random(self, heis):
        rng = random.Random(23)
        R = GroupRing(heis, QQ)
        one = R.one()
        for _ in range(60):
            x, y, z = (rand_ring_elt(rng, R) for _ in range(3))
            assert ring_mul(ring_mul(x, y), z) == ring_mul(x, ring_mul(y, z))
            assert ring_mul(x, y + z) == ring_mul(x, y) + ring_mul(x, z)
            assert ring_mul(x + y, z) == ring_mul(x, z) + ring_mul(y, z)
            assert ring_mul(one, x) == x == ring_mul(x, one)

    def test_mismatches(self, heis, zgroup):
        with pytest.raises(MismatchedGroup):
            ring_mul(GroupRing(heis, QQ).one(), GroupRing(zgroup, QQ).one())
        with pytest.raises(MismatchedField):
            ring_mul(GroupRing(heis, QQ).one(), GroupRing(heis, GF(2)).one())

    def test_parser_collects_unnormalized_words(self, heis):
        R = GroupRing(heis, QQ)
        assert R.parse("2*b a") == R.parse("2*a b c")

    def test_format_parse_roundtrip(self, heis, free_class3):
        rng = random.Random(41)
        for R in (GroupRing(heis, QQ), GroupRing(free_class3, QQ),
                  GroupRing(free_class3, GF(5))):
            for _ in range(40):
                x = rand_ring_elt(rng, R)
                assert R.parse(str(x)) == x
                assert parse_fraction_expr(str(x), R).elem == x


class TestLiterals:
    @pytest.mark.parametrize("text", [
        "1 + + a", "1 - - a", "1 +", "", "a*b", "1/0*a", "1 + -a", "(1 + a", "1 + a)",
    ])
    def test_malformed_is_a_parse_error(self, heis, text):
        R = GroupRing(heis, QQ)
        with pytest.raises(ParseError):
            R.parse(text)
        with pytest.raises(ParseError):
            parse_fraction_expr(text, R)

    def test_unary_minus_starts_a_sum(self, heis):
        R = GroupRing(heis, QQ)
        minus_a = R.monomial(-1, heis.generator(0))
        for text in ("-a", "- a", "-1*a", "(-a)", "-(a)"):
            assert R.parse(text) == minus_a
            assert parse_fraction_expr(text, R).elem == minus_a
        assert R.parse("-2*a + b") == R.parse("b - 2 a")

    def test_inverse_of_a_monomial_only(self, zgroup):
        R = GroupRing(zgroup, QQ)
        assert R.parse("(2*t)^-1") == R.parse("2*t ^-1") == R.parse("1/2*t^-1")
        assert R.parse("2 * t ^-1") == R.parse("2*t^-1")
        for text in ("(1 - t)^-1", "(0)^-1"):
            with pytest.raises(ParseError):
                R.parse(text)

    def test_coefficient_outside_the_field(self, zgroup):
        R = GroupRing(zgroup, GF(5))
        assert R.parse("1/2*t") == R.parse("3*t")
        with pytest.raises(ParseError):
            R.parse("1/5*t")


class TestDegTuple:
    def test_identity_is_zero(self, heis):
        chi = MultiChar(heis, [[1, 0], [1]])
        assert chi.deg(()) == (0, 0)

    def test_read_off_exponents(self, heis):
        chi = MultiChar(heis, [[1, 0], [1]])
        g = heis.collect(heis.parse_word("a^2 c^3"))
        assert chi.deg(g) == (Fraction(2), Fraction(3))

    def test_collect_first(self, heis):
        chi = MultiChar(heis, [[1, 0], [1]])
        g = heis.collect(heis.parse_word("b a"))
        assert chi.deg(g) == (Fraction(1), Fraction(1))

    def test_level0_homomorphism_law(self, heis):
        rng = random.Random(9)
        chi = MultiChar(heis, [[1, Fraction(1, 3)], [2]])
        for _ in range(150):
            g = heis.collect([(rng.randrange(3), rng.randint(-3, 3)) for _ in range(3)])
            h = heis.collect([(rng.randrange(3), rng.randint(-3, 3)) for _ in range(3)])
            assert chi.deg(heis.mul(g, h))[0] == \
                chi.deg(g)[0] + chi.deg(h)[0]


class TestAugment:
    def test_examples(self, zgroup, heis):
        RZ = GroupRing(zgroup, QQ)
        assert augment(RZ.parse("1 - t")) == 0
        RH = GroupRing(heis, QQ)
        assert augment(RH.parse("3 + 2*a - b")) == 4
        assert augment(RH.zero()) == 0

    def test_ring_homomorphism(self, heis):
        rng = random.Random(31)
        R = GroupRing(heis, QQ)
        for _ in range(60):
            x, y = rand_ring_elt(rng, R), rand_ring_elt(rng, R)
            assert augment(ring_mul(x, y)) == augment(x) * augment(y)
            assert augment(x + y) == augment(x) + augment(y)
