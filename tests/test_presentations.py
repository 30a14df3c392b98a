import random
from fractions import Fraction

import pytest

from nilnov import (GF, FreeGroup, GroupRing, MultiChar, NovContext, QQ, QuotientMap,
                    Trunc, fox_complex, nilpotent_quotient, parse_presentation, ring_mul)
from nilnov.errors import (ClassUnsupported, MismatchedGroup, ParseError,
                           RelatorNotKilled, UnknownGenerator)
from nilnov.fields import rank
from nilnov.presentations import Presentation, fox_derivative, free_class2_group


def random_presentations(rng, count, max_exp=2):
    """Seeded presentations on 2 or 3 generators with 1 to 3 relators whose
    syllable exponents lie in [-max_exp, max_exp]."""
    exponents = [e for e in range(-max_exp, max_exp + 1) if e]
    out = []
    while len(out) < count:
        gens = ["a", "b", "c"][:rng.randint(2, 3)]
        words = [FreeGroup(gens).collect((rng.randrange(len(gens)), rng.choice(exponents))
                                         for _ in range(rng.randint(2, 6)))
                 for _ in range(rng.randint(1, 3))]
        relators = [w for w in words if w]  # drop words trivial after free reduction
        if relators:
            out.append(Presentation(f"random{len(out)}", gens, relators))
    return out


def evaluate(q, word):
    """Image of a free word, multiplied out letter by letter with Q.mul and
    Q.pow from the generator images, without QuotientMap.apply_word."""
    Q = q.target
    x = ()
    for g, e in word:
        x = Q.mul(x, Q.pow(q.images[g], e))
    return x


class TestParse:
    def test_torus(self, torus):
        assert torus.gen_names == ["a", "b"]
        assert len(torus.relators) == 1

    def test_bs12_literal(self, bs12):
        fg = bs12.free_group
        assert fg.format_elt(bs12.relators[0]) == "t a t^-1 a^-2"

    def test_undeclared_generator(self):
        with pytest.raises(UnknownGenerator):
            parse_presentation("gens a\nrel x\n")

    def test_rel_before_gens(self):
        with pytest.raises(ParseError):
            parse_presentation("rel a\ngens a\n")

    def test_free_reduction(self):
        P = parse_presentation("gens a b\nrel a a^-1 b\n")
        assert P.free_group.format_elt(P.relators[0]) == "b"


class TestFox:
    def test_torus_projected_entries(self, torus):
        q = nilpotent_quotient(torus, 1)
        cx = fox_complex(torus, q, QQ, project=True)
        R = cx.ring
        assert cx.d2[0][0] == R.parse("1 - b")     # dr/da -> 1 - b
        assert cx.d2[0][1] == R.parse("a - 1")     # dr/db -> a - 1
        assert cx.ranks == (1, 2, 1)

    def test_free_group_no_relators(self, f2):
        cx = fox_complex(f2, None)
        assert cx.ranks == (1, 2, 0)
        R = cx.ring
        fg = f2.free_group
        assert cx.d1[0] == R.monomial(1, fg.generator(0)) - R.one()

    def test_bs12_free_entries(self, bs12):
        cx = fox_complex(bs12, None)
        R = cx.ring
        fg = bs12.free_group
        # dr/dt = 1 - tat^-1 ; dr/da = t - tat^-1 a^-1 - tat^-1 a^-2
        t_col = cx.d2[0][1]
        a_col = cx.d2[0][0]
        assert t_col == R.one() - R.monomial(1, fg.collect(fg.parse_word("t a t^-1")))
        expected = (R.monomial(1, fg.collect(fg.parse_word("t")))
                    - R.monomial(1, fg.collect(fg.parse_word("t a t^-1 a^-1")))
                    - R.monomial(1, fg.collect(fg.parse_word("t a t^-1 a^-2"))))
        assert a_col == expected

    def test_fox_fundamental_identity(self, torus, bs12, mapping_torus):
        for P in (torus, bs12, mapping_torus):
            ring = GroupRing(P.free_group, QQ)
            fg = P.free_group
            for r in P.relators:
                total = ring.zero()
                for i in range(fg.ngens):
                    d = fox_derivative(ring, r, i)
                    total = total + ring_mul(d, ring.monomial(1, fg.generator(i)) - ring.one())
                assert total == ring.monomial(1, r) - ring.one()

    def test_d1_d2_composite_zero(self, torus, bs12, mapping_torus):
        for P in (torus, bs12, mapping_torus):
            for c in (1, 2):
                q = nilpotent_quotient(P, c)
                cx = fox_complex(P, q, QQ, project=True)
                for row in cx.d2:
                    total = cx.ring.zero()
                    for entry, d1e in zip(row, cx.d1):
                        total = total + ring_mul(entry, d1e)
                    assert total.is_zero()

    @pytest.mark.parametrize("project", [False, True], ids=["free", "projected"])
    def test_quotient_map_of_another_presentation(self, bs12, torus, project):
        # the torus's abelianisation sends BS(1,2)'s relator t a t^-1 a^-2
        # to a^-1: it is no map of BS(1,2), so no complex is built from it
        with pytest.raises(MismatchedGroup):
            fox_complex(bs12, nilpotent_quotient(torus, 1), QQ, project=project)

    def test_relator_not_killed(self, bs12):
        Z = free_class2_group(["u"])
        with pytest.raises(RelatorNotKilled):
            QuotientMap(bs12, Z, [Z.generator(0), Z.generator(0)])

    @pytest.mark.parametrize("target,images", [
        ("Z", ["", ""]), ("Z", ["u^2", ""]), ("H3", ["a", "c"]),
    ], ids=["both-to-1", "index-2", "h3-misses-b"])
    def test_map_that_is_not_onto_is_refused(self, f2, heis, target, images):
        # F2 -> Z sending a and b to 1, with projected entries, used to end in
        # a TypeError in eliminate_d1: its d1 had no entry to pivot on
        Q = free_class2_group(["u"]) if target == "Z" else heis
        with pytest.raises(MismatchedGroup, match="not onto"):
            QuotientMap(f2, Q, [Q.collect(Q.parse_word(w)) for w in images])

    def test_coprime_powers_are_onto(self, f2):
        Z = free_class2_group(["u"])
        assert QuotientMap(f2, Z, [((0, 2),), ((0, 3),)]).images == [((0, 2),), ((0, 3),)]


class TestNilpotentQuotient:
    def test_f2_class2_is_heisenberg(self, f2):
        q = nilpotent_quotient(f2, 2)
        G = q.target
        assert G.gen_names == ["a", "b", "[b,a]"]
        ba = G.mul(G.generator(1), G.generator(0))
        assert ba == ((0, 1), (1, 1), (2, 1))  # b a = a b [b,a]

    def test_bs12_class1_kills_a(self, bs12):
        q = nilpotent_quotient(bs12, 1)
        assert q.target.gen_names == ["t"]
        a, t = bs12.free_group.parse_word("a"), bs12.free_group.parse_word("t")
        assert q.apply_word(a) == ()
        assert q.apply_word(t) != ()

    def test_bs12_class2_still_z(self, bs12):
        q = nilpotent_quotient(bs12, 2)
        assert len(q.target.gen_names) == 1
        assert q.target.nlevels == 1

    def test_torus_class1_identity(self, torus):
        q = nilpotent_quotient(torus, 1)
        assert q.target.gen_names == ["a", "b"]
        assert q.images == [((0, 1),), ((1, 1),)]

    def test_mapping_torus_class1(self, mapping_torus):
        q = nilpotent_quotient(mapping_torus, 1)
        assert q.target.gen_names == ["t"]

    def test_torsion_saturation(self):
        P = parse_presentation("gens a b\nrel a a\n")  # a^2 = 1: a must die
        q = nilpotent_quotient(P, 1)
        assert q.target.gen_names == ["b"]

    def test_class_cap(self, f2):
        with pytest.raises(ClassUnsupported):
            nilpotent_quotient(f2, 3)

    def test_class2_with_commutator_relator(self):
        # r = [b,a] a^2 collects to a^2 c in the free class-2 group; the
        # isolated normal closure is <a, c>, leaving Z on b
        P = parse_presentation("gens a b\nrel b a b^-1 a^-1 a^2\n")
        q = nilpotent_quotient(P, 2)
        assert q.target.gen_names == ["b"]
        assert q.apply_word(P.free_group.parse_word("a")) == ()

    def test_class2_quotient_of_torus_is_abelian(self, torus):
        q = nilpotent_quotient(torus, 2)
        assert q.target.gen_names == ["a", "b"]
        assert q.target.nlevels == 1

    def test_abelianization_rank_oracle(self, torus, bs12, f2, mapping_torus):
        # rank of G^ab tensor Q from the relator exponent matrix, over Q
        def free_rank(P):
            rows = []
            for r in P.relators:
                sums = [0] * len(P.gen_names)
                for g, e in r:
                    sums[g] += e
                rows.append(sums)
            return len(P.gen_names) - rank(rows, QQ)

        for P, expected in ((torus, 2), (bs12, 1), (f2, 2), (mapping_torus, 1)):
            assert len(nilpotent_quotient(P, 1).target.gen_names) == free_rank(P) == expected
        rng = random.Random(12)
        for P in random_presentations(rng, 40):
            assert len(nilpotent_quotient(P, 1).target.gen_names) == free_rank(P)

    def test_relators_die_in_quotient(self, torus, bs12, mapping_torus):
        # in class 2 the image of a in c^3 b^-3 c^-1 a^2 is q0_0^-3 c^-4
        # q1_0^-24: mapping a^2 needs the tail that (q0_0^-3 c^-4)^2 picks
        # up, not the doubled exponents
        tail_needed = parse_presentation("gens a b c\nrel c^3 b^-3 c^-1 a^2\n")
        randoms = random_presentations(random.Random(13), 60, max_exp=3)
        for P in [torus, bs12, mapping_torus, tail_needed] + randoms:
            for c in (1, 2):
                q = nilpotent_quotient(P, c)
                for r in P.relators:
                    assert q.apply_word(r) == ()
                    assert evaluate(q, r) == ()

    def test_apply_word_is_a_homomorphism(self, f2, heis):
        # a -> a b has two syllables, so a^e maps to (a b)^e, tails included
        H = heis
        maps = [QuotientMap(f2, H, [H.collect(H.parse_word("a b")), H.generator(1)]),
                nilpotent_quotient(parse_presentation("gens a b c\nrel c^3 b^-3 c^-1 a^2\n"), 2)]
        rng = random.Random(14)
        for q in maps:
            fg, Q = q.source.free_group, q.target
            for _ in range(50):
                u, v = (fg.collect((rng.randrange(fg.ngens), rng.choice((-3, -2, -1, 1, 2, 3)))
                                   for _ in range(rng.randint(0, 6))) for _ in range(2))
                assert q.apply_word(u) == evaluate(q, u)
                assert q.apply_word(fg.mul(u, v)) == Q.mul(q.apply_word(u), q.apply_word(v))

    def test_multi_syllable_image_of_a_torsion_relator(self):
        # a^2 = b^4 c^-6 makes a the root b^2 c^-3 (times [c,b]^-9 in class
        # 2): every letter a^e takes apply_word's Q.pow path, and over the
        # one-level quotient the degree NovContext reads off the letters is
        # chi.deg of the image
        P = parse_presentation("gens a b c\nrel a^2 b^-4 c^6\n")
        fg = P.free_group
        rng = random.Random(30)
        words = [fg.collect((rng.randrange(3), rng.choice((-3, -2, -1, 1, 2, 3)))
                            for _ in range(rng.randint(0, 8))) for _ in range(100)]
        for c, image in ((1, "b^2 c^-3"), (2, "b^2 c^-3 [c,b]^-9")):
            q = nilpotent_quotient(P, c)
            assert q.target.format_elt(q.images[0]) == image
            for w in words:
                assert q.apply_word(w) == evaluate(q, w)
        q = nilpotent_quotient(P, 1)
        for values in ([1, 1], [Fraction(1, 2), -2]):
            chi = MultiChar(q.target, [values])
            ctx = NovContext(chi, Trunc([4], 8), q.apply_word)
            for w in words:
                assert ctx.deg(w) == chi.deg(q.apply_word(w))
