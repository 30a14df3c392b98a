import random
from fractions import Fraction

import pytest

from nilnov import FreeGroup, GF, GroupRing, MultiChar, QQ, augment, ring_mul
from nilnov.errors import MismatchedField, MismatchedGroup, ParseError
from nilnov.fracparse import parse_fraction_expr
from nilnov.groupring import RingElt, format_ring_elt


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
                assert parse_fraction_expr(str(x), R) == x


class TestRationalCoefficients:
    """Over Q an integral coefficient is an int and any other a reduced
    Fraction; the two forms compare, hash and print alike."""

    def test_canonical_forms(self):
        assert type(QQ.coerce(Fraction(6, 3))) is int and QQ.coerce(Fraction(6, 3)) == 2
        assert QQ.coerce(Fraction(2, 4)) == Fraction(1, 2)
        assert type(QQ.zero) is int and type(QQ.one) is int
        assert QQ.inv(2) == Fraction(1, 2)
        assert type(QQ.inv(Fraction(1, 3))) is int and QQ.inv(Fraction(1, 3)) == 3
        assert type(QQ.mul(Fraction(1, 2), 4)) is int
        assert type(QQ.add(Fraction(1, 2), Fraction(1, 2))) is int
        assert type(QQ.add(1, 2)) is int and QQ.add(1, Fraction(1, 2)) == Fraction(3, 2)

    def test_int_and_fraction_elements_agree(self, heis):
        R = GroupRing(heis, QQ)
        a, b = heis.generator(0), heis.generator(1)
        with_ints = RingElt(R, {a: Fraction(1, 2), b: -3})
        with_fractions = RingElt(R, {a: Fraction(1, 2), b: Fraction(-3)})
        assert with_ints == with_fractions
        assert hash(with_ints) == hash(with_fractions)
        assert R.from_terms([(a, Fraction(1, 2)), (b, Fraction(-3))]) == with_ints
        for x in (with_ints, with_fractions):
            assert format_ring_elt(x) == "1/2*a - 3*b"

    def test_prime_field_unchanged(self):
        F5 = GF(5)
        assert F5.coerce(Fraction(1, 2)) == 3 and F5.coerce(7) == 2 and F5.coerce(-1) == 4
        assert F5.inv(2) == 3 and F5.mul(4, 4) == 1 and F5.add(3, 4) == 2
        assert F5.zero == 0 and F5.one == 1 and F5.neg(1) == 4
        assert all(type(v) is int for v in (F5.coerce(Fraction(1, 2)), F5.inv(2), F5.neg(1)))


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
            assert parse_fraction_expr(text, R) == minus_a
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


class TestFreeJunctionProduct:
    """FreeGroup.mul reduces only where two reduced words meet; reducing
    the whole concatenation with collect is the reference."""

    F = FreeGroup("abc")

    def reduced_word(self, rng, length):
        return self.F.collect([(rng.randrange(3), rng.choice((-2, -1, 1, 2)))
                               for _ in range(length)])

    def word(self, text):
        return self.F.collect(self.F.parse_word(text))

    def assert_product(self, a, b):
        F = self.F
        assert F.collect(a) == a and F.collect(b) == b, "factors must be reduced"
        ab = F.mul(a, b)
        assert ab == F.collect(a + b), (a, b)
        assert F.collect(ab) == ab

    def test_seeded_pairs_with_cancelling_junctions(self):
        rng = random.Random(18)
        F = self.F
        for _ in range(400):
            a = self.reduced_word(rng, rng.randint(0, 8))
            # b starts with the inverse of a suffix of a, so the junction
            # cancels for a random depth before the rest of b follows
            cut = rng.randint(0, len(a))
            b = F.mul(F.inv(a[cut:]), self.reduced_word(rng, rng.randint(0, 8)))
            self.assert_product(a, b)
            self.assert_product(b, a)

    def test_full_cancellation(self):
        rng = random.Random(5)
        for _ in range(50):
            u = self.reduced_word(rng, rng.randint(1, 10))
            assert self.F.mul(u, self.F.inv(u)) == ()
            assert self.F.mul(self.F.inv(u), u) == ()

    def test_cancellation_through_the_shorter_factor(self):
        F = self.F
        u, v = self.word("a b^2 c^-1"), self.word("b a^-1")
        self.assert_product(u + v, F.inv(v))
        assert F.mul(u + v, F.inv(v)) == u
        self.assert_product(F.inv(u), u + v)
        assert F.mul(F.inv(u), u + v) == v

    def test_merge_stops_at_a_nonzero_exponent(self):
        F = self.F
        a, b = self.word("a b c^2"), self.word("c^-3 b a")
        self.assert_product(a, b)
        assert F.mul(a, b) == ((0, 1), (1, 1), (2, -1), (1, 1), (0, 1))
        # after a full cancellation the next pair merges
        a, b = self.word("a b^3 c"), self.word("c^-1 b^-1 a")
        assert F.mul(a, b) == ((0, 1), (1, 2), (0, 1))

    def test_empty_factors(self):
        F = self.F
        u = self.word("a^2 c^-1")
        assert F.mul((), u) == u == F.mul(u, ())
        assert F.mul((), ()) == ()
