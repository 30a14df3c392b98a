import itertools
import pathlib
import random

import pytest

from nilnov import (Subgroup, free_abelianization_refine, isolator, lower_central_series,
                    nilpotent_quotient, parse_pc, parse_presentation)
from nilnov.errors import AdaptationError, ParseError, UnknownGenerator
from nilnov.presentations import free_class2_group

from conftest import F23_SRC, Z3_SRC, heisenberg_matrix


def rand_word(rng, gens, length, emax=3):
    return [(rng.choice(gens), rng.choice([e for e in range(-emax, emax + 1) if e]))
            for _ in range(length)]


class TestParse:
    def test_free_abelian_rank2(self):
        G = parse_pc("pcgroup Z2\nlevel 0: a b\n")
        assert G.ngens == 2 and G.nlevels == 1
        assert G.mul(G.generator(0), G.generator(1)) == ((0, 1), (1, 1))

    def test_heisenberg(self, heis):
        assert heis.nlevels == 2
        assert heis.level_gens == [["a", "b"], ["c"]]

    def test_adaptation_violation(self):
        with pytest.raises(AdaptationError):
            parse_pc("pcgroup bad\nlevel 0: a b\nconj b a = b\n")

    def test_unknown_generator(self):
        with pytest.raises(UnknownGenerator):
            parse_pc("pcgroup bad\nlevel 0: a\nconj b a = a\n")

    def test_malformed_line_reports_position(self):
        with pytest.raises(ParseError) as err:
            parse_pc("pcgroup x\nlevel 0: a\nnonsense here\n")
        assert err.value.line == 3

    def test_comments_and_blank_lines(self):
        G = parse_pc("# header\npcgroup g\n\nlevel 0: a  # trailing\n")
        assert G.gen_names == ["a"]


class TestCollection:
    def test_inverse_cancellation(self, heis):
        w = heis.parse_word("a a^-1")
        assert heis.collect(w) == ()

    def test_single_relation(self, heis):
        assert heis.format_elt(heis.collect(heis.parse_word("b a"))) == "a b c"

    def test_b2a_oracle(self, heis):
        # matrix oracle: b^2 a collects to a b^2 c^2
        nf = heis.collect(heis.parse_word("b^2 a"))
        assert heis.format_elt(nf) == "a b^2 c^2"
        assert heisenberg_matrix(heis.parse_word("b^2 a"), heis.index) == \
            heisenberg_matrix(list(nf), heis.index)

    def test_matrix_oracle_random(self, heis):
        rng = random.Random(7)
        gens = list(range(3))
        for _ in range(400):
            w = rand_word(rng, gens, rng.randint(0, 8))
            nf = heis.collect(w)
            assert heisenberg_matrix(w, heis.index) == heisenberg_matrix(list(nf), heis.index)

    def test_associativity_and_inverse_law(self, heis):
        rng = random.Random(11)
        gens = list(range(3))
        for _ in range(200):
            u = heis.collect(rand_word(rng, gens, 4))
            v = heis.collect(rand_word(rng, gens, 4))
            w = heis.collect(rand_word(rng, gens, 4))
            assert heis.mul(heis.mul(u, v), w) == heis.mul(u, heis.mul(v, w))
            assert heis.mul(u, heis.inv(u)) == ()

    def test_unknown_generator_in_word(self, heis):
        with pytest.raises(UnknownGenerator):
            heis.parse_word("a x")

    def test_exponent_growth_is_exact(self, heis):
        # collection in class-2 groups produces quadratic exponents
        big = heis.collect(heis.parse_word("b^1000 a^1000"))
        assert dict(big)[heis.index["c"]] == 1000 * 1000


class TestSeries:
    def test_lcs_heisenberg(self, heis):
        series = lower_central_series(heis, 3)
        assert series.gammas[0].describe() == ["a", "b", "c"]
        assert series.gammas[1].describe() == ["c"]
        assert series.gammas[2].is_trivial()
        assert series.class_exceeded

    def test_lcs_abelian(self, z2group):
        series = lower_central_series(z2group, 2)
        assert series.gammas[1].is_trivial()

    def test_series_levels_are_central(self, heis):
        # [gen, gamma_i] lands in gamma_{i+1} for every generator pair
        series = lower_central_series(heis, 2)
        for i in range(len(series.gammas) - 1):
            nxt = series.gammas[i + 1]
            for p in series.gammas[i].pivot_list():
                for g in range(heis.ngens):
                    assert nxt.contains(heis.comm(heis.generator(g), p))

    def test_isolator_central_sublattice(self, heis):
        c = heis.index["c"]
        sub = Subgroup(heis, [((c, 2),)])
        assert isolator(heis, sub).describe() == ["c"]

    def test_isolator_already_isolated(self, heis):
        sub = Subgroup(heis, [heis.collect(heis.parse_word("a^2 c"))])
        assert isolator(heis, sub).describe() == ["a^2 c"]

    def test_isolator_with_root(self, heis):
        sub = Subgroup(heis, [heis.collect(heis.parse_word("a^2"))])
        assert isolator(heis, sub).describe() == ["a"]

    def test_isolator_diagonal(self, z2group):
        sub = Subgroup(z2group, [z2group.collect(z2group.parse_word("a^2 b^2"))])
        assert isolator(z2group, sub).describe() == ["a b"]

    @pytest.mark.parametrize("word, expected", [("a^2 [b,a]^2", ["a [b,a]"]),
                                                ("a^2 [b,a]", ["a^2 [b,a]"])])
    def test_isolator_with_deeper_root_correction(self, word, expected):
        # the square root a of a^2 needs the level-1 correction [b,a] to
        # square to a^2 [b,a]^2; a^2 [b,a] has no such correction
        G = free_class2_group(["a", "b"])
        sub = Subgroup(G, [G.collect(G.parse_word(word))])
        iso = isolator(G, sub)
        assert iso.describe() == expected
        box = range(-3, 4)
        for x in itertools.product(box, box, box):
            g = G.collect([(i, e) for i, e in enumerate(x) if e])
            assert iso.contains(g) == any(sub.contains(G.pow(g, n)) for n in range(1, 5)), x


class TestRefine:
    def test_refine_abelian(self, z2group):
        series = free_abelianization_refine(z2group)
        assert [t.describe() for t in series.terms] == [["a", "b"], []]

    def test_refine_heisenberg(self, heis):
        series = free_abelianization_refine(heis)
        assert [t.describe() for t in series.terms] == [["a", "b", "c"], ["c"], []]

    def test_refine_product_with_z(self):
        G = parse_pc("pcgroup H3xZ\nlevel 0: a b t\nlevel 1: c\nconj b a = c\n")
        series = free_abelianization_refine(G)
        assert [t.describe() for t in series.terms] == [["a", "b", "t", "c"], ["c"], []]


class TestSubgroup:
    def test_membership_reduction(self, heis):
        sub = Subgroup(heis, [heis.collect(heis.parse_word("a b"))])
        assert sub.contains(heis.collect(heis.parse_word("a b a b")))
        assert not sub.contains(heis.generator(heis.index["c"]))

    def test_generated_subgroup_closure(self, heis):
        sub = Subgroup(heis, [heis.generator(0), heis.generator(1)])
        # <a, b> = H3, so c must be inside after closure
        assert sub.contains(heis.generator(heis.index["c"]))


class TestClassThree:
    """Free nilpotent group of class 3 on two generators: the pair (b, a)
    has the non-central tail c, so conjugation by a^e goes through the
    memoised images phi_a^{+-2^k}(b) of the automorphism phi_a(x) = a^-1 x a,
    including the recursion phi^-1(b) = b phi^-1(c)^-1."""

    def test_defining_collections(self, free_class3):
        G = free_class3
        cases = {
            "b a": "a b c",
            "c a": "a c d",
            "b^2 a": "a b^2 c^2 e",
            "b a^2": "a^2 b c^2 d",
        }
        for word, expected in cases.items():
            assert G.format_elt(G.collect(G.parse_word(word))) == expected

    def test_inverse_conjugation(self, free_class3):
        # a b a^-1 = b c^-1 d, checked by multiplying back
        G = free_class3
        x = G.collect(G.parse_word("a b a^-1"))
        assert G.format_elt(x) == "b c^-1 d"
        assert G.mul(x, G.generator(G.index["a"])) == G.collect(G.parse_word("a b"))

    def test_group_axioms_random(self, free_class3):
        G = free_class3
        rng = random.Random(77)
        gens = list(range(G.ngens))
        for _ in range(150):
            u = G.collect(rand_word(rng, gens, 4, emax=2))
            v = G.collect(rand_word(rng, gens, 4, emax=2))
            w = G.collect(rand_word(rng, gens, 4, emax=2))
            assert G.mul(G.mul(u, v), w) == G.mul(u, G.mul(v, w))
            assert G.mul(u, G.inv(u)) == ()

    def test_closed_form_collection(self, free_class3):
        # b^n a^m = a^m b^n c^(mn) d^(n C(m,2)) e^(m C(n,2)), C(x,2) = x(x-1)/2
        G = free_class3
        a, b = G.index["a"], G.index["b"]
        values = [1, -1, 2, -2, 11, -11, 999, 10**6, -10**6]
        for n in values:
            for m in values:
                exps = [m, n, m * n, n * (m * (m - 1) // 2), m * (n * (n - 1) // 2)]
                expected = tuple((G.index[g], e) for g, e in zip("abcde", exps) if e)
                assert G.collect([(b, n), (a, m)]) == expected, (n, m)

    def test_group_axioms_large_exponents(self, free_class3):
        G = free_class3
        rng = random.Random(2024)
        gens = list(range(G.ngens))

        def elt():
            return G.collect([(rng.choice(gens), rng.choice((1, -1)) * rng.randint(1, 10**4))
                              for _ in range(4)])

        for _ in range(60):
            u, v, w = elt(), elt(), elt()
            assert G.mul(G.mul(u, v), w) == G.mul(u, G.mul(v, w))
            assert G.mul(u, G.inv(u)) == () == G.mul(G.inv(u), u)

    def test_lower_central_series_witt_ranks(self, free_class3):
        series = lower_central_series(free_class3, 3)
        assert series.gammas[1].describe() == ["c", "d", "e"]
        assert series.gammas[2].describe() == ["d", "e"]
        assert series.gammas[3].is_trivial()
        assert not series.class_exceeded

    def test_isolators_and_refinement(self, free_class3):
        G = free_class3
        assert isolator(G, Subgroup(G, [G.collect(G.parse_word("d^2"))])).describe() == ["d"]
        assert isolator(G, Subgroup(G, [G.collect(G.parse_word("a^2"))])).describe() == ["a"]
        series = free_abelianization_refine(G)
        assert [t.describe() for t in series.terms] == \
            [["a", "b", "c", "d", "e"], ["c", "d", "e"], []]


DATA = pathlib.Path(__file__).parents[1] / "demos" / "data"

# class 2 with a two-letter tail and a negative exponent
WIDE_SRC = """
pcgroup W
level 0: x y z
level 1: u v
conj y x = u^2 v^-1
conj z x = v
conj z y = u^-3 v u
"""


def class_two_groups():
    f2 = parse_presentation("group f2\ngens a b\n")
    parafree = parse_presentation((DATA / "parafree.fpg").read_text())
    return {
        "H3": parse_pc((DATA / "heis.pcg").read_text()),
        "F2_class2": nilpotent_quotient(f2, 2).target,
        "parafree_class2": nilpotent_quotient(parafree, 2).target,
        "W": parse_pc(WIDE_SRC),
        "Z3": parse_pc(Z3_SRC),
    }


def random_normal_form(rng, G, emax):
    return tuple((g, rng.choice((1, -1)) * rng.randint(1, emax))
                 for g in range(G.ngens) if rng.random() < 0.7)


def count_collections(monkeypatch, G):
    calls = []
    collect = G.collect
    monkeypatch.setattr(G, "collect", lambda word: calls.append(1) or collect(word))
    return calls


def generic_collect(G, word):
    """Collection from the left, as PcGroup.collect runs it when some tail is
    not central: the reference for its closed form.  The least generator
    moves to the front and conjugates each syllable it passes."""
    syls = [(g, e) for g, e in word if e]
    out = []
    while syls:
        m = min(g for g, _ in syls)
        e_total, rest = 0, []
        for g, e in syls:
            if g == m:
                if rest:
                    rest = [s for z, t in rest for s in G._conj_syllable(z, t, m, e)]
                e_total += e
            else:
                rest.append((g, e))
        if e_total:
            out.append((m, e_total))
        syls = rest
    return tuple(out)


def count_conjugations(monkeypatch, G):
    calls = []
    conj = G._conj_syllable
    monkeypatch.setattr(G, "_conj_syllable", lambda *args: calls.append(1) or conj(*args))
    return calls


class TestClassTwoProduct:
    """With every tail central, mul adds exponent vectors plus the tails
    x_j y_i w_(j,i) instead of collecting; the generic collection loop is
    the oracle."""

    @pytest.mark.parametrize("name", sorted(class_two_groups()))
    def test_matches_collection_and_associates(self, name, monkeypatch):
        G = class_two_groups()[name]
        rng = random.Random(name)
        elts = [random_normal_form(rng, G, 10**4) for _ in range(60)]
        calls = count_collections(monkeypatch, G)
        products = [G.mul(u, v) for u, v in zip(elts, elts[1:])]
        assert not calls, "a class-2 product went through collect"
        for u, v, uv in zip(elts, elts[1:], products):
            assert uv == generic_collect(G, list(u) + list(v)), (name, u, v)
        for u, v, w in zip(elts, elts[1:], elts[2:]):
            assert G.mul(G.mul(u, v), w) == G.mul(u, G.mul(v, w))
            assert G.mul(u, ()) == u == G.mul((), u)
            assert G.mul(u, G.inv(u)) == ()

    def test_heisenberg_matrices(self):
        # the oracle multiplies letter by letter, so the exponents stay small
        G = class_two_groups()["H3"]
        rng = random.Random(3)
        for _ in range(50):
            u = random_normal_form(rng, G, 30)
            v = random_normal_form(rng, G, 30)
            assert heisenberg_matrix(G.mul(u, v), G.index) == \
                heisenberg_matrix(list(u) + list(v), G.index)

    @pytest.mark.parametrize("name", ["F23", "UT5"])
    def test_non_central_tails_collect(self, name, monkeypatch):
        G = parse_pc({"F23": F23_SRC, "UT5": UT5_SRC}[name])
        rng = random.Random(11)
        u, v = (random_normal_form(rng, G, 50) for _ in range(2))
        calls = count_collections(monkeypatch, G)
        G.mul(u, v)
        assert calls


class TestClassTwoCollection:
    """With every tail central, collect folds a word letter by letter into
    an exponent vector; the generic collection loop is the reference."""

    @pytest.mark.parametrize("name", sorted(class_two_groups()))
    def test_matches_generic_collection(self, name, monkeypatch):
        G = class_two_groups()[name]
        rng = random.Random(name)
        words = [[(rng.randrange(G.ngens), rng.randint(-50, 50))
                  for _ in range(rng.randint(0, 12))] for _ in range(150)]
        expected = [generic_collect(G, w) for w in words]
        calls = count_conjugations(monkeypatch, G)
        for w, nf in zip(words, expected):
            assert G.collect(w) == nf, (name, w)
        assert not calls, "a class-2 word went through the generic loop"

    def test_class_three_collects_generically(self, free_class3, monkeypatch):
        G = free_class3
        rng = random.Random(23)
        words = [rand_word(rng, list(range(G.ngens)), 8, emax=6) for _ in range(60)]
        expected = [generic_collect(G, w) for w in words]
        calls = count_conjugations(monkeypatch, G)
        assert [G.collect(w) for w in words] == expected
        assert calls


UT5_SRC = """
pcgroup UT5
level 0: x01 x12 x23 x34
level 1: x02 x13 x24
level 2: x03 x14
level 3: x04
conj x12 x01 = x02^-1
conj x23 x12 = x13^-1
conj x34 x23 = x24^-1
conj x02 x23 = x03
conj x13 x01 = x03^-1
conj x13 x34 = x14
conj x24 x12 = x14^-1
conj x24 x02 = x04^-1
conj x03 x34 = x04
conj x14 x01 = x04^-1
"""


def unitriangular_matrix(word, names):
    """Independent oracle: x_ij^e is the 5x5 matrix I + e E_ij."""
    m = [[int(r == c) for c in range(5)] for r in range(5)]
    for g, e in word:
        i, j = int(names[g][1]), int(names[g][2])
        for row in m:
            row[j] += e * row[i]
    return m


class TestClassFour:
    """UT(5, Z), class 4: seven pairs have non-central tails, in levels 1
    and 2, so collection nests the power-of-two images of several
    conjugation automorphisms."""

    def test_matrix_oracle_large_exponents(self):
        G = parse_pc(UT5_SRC)
        rng = random.Random(5)
        for _ in range(150):
            w = [(rng.randrange(G.ngens), rng.choice((1, -1)) * rng.randint(1, 10**4))
                 for _ in range(rng.randint(1, 8))]
            nf = G.collect(w)
            assert [g for g, _ in nf] == sorted({g for g, _ in nf})
            assert unitriangular_matrix(w, G.gen_names) == unitriangular_matrix(nf, G.gen_names)
